"""Partition-level map executor: a persistent pool for whole map tasks.

This module parallelizes *across* partitions — the embarrassingly parallel
map stage the paper distributes over a cluster, and the only level of
fan-out in this codebase.  A :class:`PartitionPoolExecutor` owns one
long-lived :mod:`multiprocessing` pool and ships whole
:class:`~repro.clustering.partition.PartitionMapTask` objects to it: each
child process tokenizes (a no-op for pre-prepared samples), runs DBSCAN and
selects prototypes for its partition, then sends the clusters back together
with its engine stats and exact-distance cache so the parent can merge both.

The pool is created lazily on the first batch that is worth fanning out and
then reused day over day (fork/spawn cost is paid once per pipeline, not
once per day); tasks are self-contained, so nothing is re-initialized
between batches.  Small batches — fewer than two partitions, or a
single-worker configuration — run the very same ``task.run()`` code inline,
which keeps results byte-identical by construction and is also the fallback
for forkless environments.

Determinism: every task re-seeds the :mod:`random` module from
``(seed, partition_index)`` at the start of ``run()`` (see
:meth:`PartitionMapTask.run`), so any worker-side randomness is
reproducible for every pool width and task placement.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:
    import multiprocessing.pool

    from repro.clustering.partition import PartitionMapResult, \
        PartitionMapTask


def _run_partition_task(task: "PartitionMapTask") -> "PartitionMapResult":
    """Pool worker entry point (top-level so it pickles under spawn)."""
    return task.run()


class PartitionPoolExecutor:
    """A persistent process pool executing whole per-partition map tasks.

    Parameters
    ----------
    workers:
        Pool width.  ``0`` auto-detects (``cpu_count``); ``1`` never forks
        — every batch takes the inline fallback.  The per-task RNG seed
        ships inside each task, so the pool carries no seeding state.
    """

    name = "partition-pool"

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers
        self._pool: Optional["multiprocessing.pool.Pool"] = None
        #: Batches executed on the real pool (telemetry for tests).
        self.pooled_batches = 0
        #: Batches that took the inline fallback.
        self.inline_batches = 0

    # -- sizing ---------------------------------------------------------
    def pool_width(self) -> int:
        """The worker count a pooled batch runs with."""
        if self.workers == 0:
            return multiprocessing.cpu_count()
        return self.workers

    def should_engage(self, task_count: int) -> bool:
        """Whether a batch of ``task_count`` partitions is worth forking
        for.  One partition has nothing to overlap, and one worker would
        only add shipping overhead to serial execution."""
        return task_count >= 2 and self.pool_width() > 1

    # -- execution ------------------------------------------------------
    def run(self, tasks: Sequence["PartitionMapTask"]
            ) -> Tuple[List["PartitionMapResult"], float]:
        """Execute the batch; returns ``(results, wall_seconds)``.

        Results come back in task order regardless of which worker ran
        what.  Batches below the engagement threshold run inline through
        the identical ``task.run()`` path.
        """
        started = time.perf_counter()
        if not self.should_engage(len(tasks)):
            self.inline_batches += 1
            results = [task.run() for task in tasks]
        else:
            self.pooled_batches += 1
            results = self._ensure_pool().map(_run_partition_task,
                                              list(tasks))
        return results, time.perf_counter() - started

    def _ensure_pool(self) -> "multiprocessing.pool.Pool":
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.pool_width())
            # Registered only while a pool is live and dropped by close():
            # an atexit handler holds a strong reference, so registering in
            # __init__ would pin every executor ever built until exit.
            atexit.register(self.close)
        return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent); the next batch re-creates it."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            atexit.unregister(self.close)
