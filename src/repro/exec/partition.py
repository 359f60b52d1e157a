"""The fork-pool transport: a persistent pool for whole partition map tasks.

This module parallelizes *across* partitions — the embarrassingly parallel
map stage the paper distributes over a cluster, and the only level of
fan-out in this codebase.  A :class:`PartitionPoolExecutor` owns one
long-lived :mod:`multiprocessing` pool and ships whole
:class:`~repro.clustering.partition.PartitionMapTask` objects to it: each
child process tokenizes, runs DBSCAN and selects prototypes for its
partition on a task-private engine, then sends the clusters back together
with that engine's stats and exact-distance cache so the parent process can
merge both.
:class:`~repro.exec.process.ProcessBackend` puts the pool behind
``ExecutionBackend.run_partition_map``.

The pool is created lazily on the first batch that is worth shipping
(:func:`worth_shipping` — the one copy of that rule, shared with the cluster
backend) and then reused day over day: fork/spawn cost is paid once per
pipeline, not once per day, and tasks are self-contained, so nothing is
re-initialized between batches.  Batches that are not worth shipping run the
very same ``task.run`` in the driver process, which keeps results
byte-identical by construction.

Determinism: a task's result is a pure function of the task (nothing in the
map reads ambient state such as the global RNG), and results come back in
task order, so every pool width and task placement gives the same output.
"""

from __future__ import annotations

import atexit
import multiprocessing
from typing import List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    import multiprocessing.pool

    from repro.clustering.partition import PartitionMapResult, \
        PartitionMapTask


def worth_shipping(tasks: Sequence["PartitionMapTask"], width: int) -> bool:
    """Whether shipping this batch to ``width`` workers can pay for itself.

    One partition has nothing to overlap, and one worker would only add
    shipping overhead to in-process execution.  Any other batch ships: the
    day loop hands partitions over raw, so the map carries the lexer, which
    parallelizes perfectly.  Decided from the batch alone; deliberately not
    a user option.
    """
    return len(tasks) >= 2 and width >= 2


def _run_partition_task(task: "PartitionMapTask") -> "PartitionMapResult":
    """Pool worker entry point (top-level so it pickles under spawn)."""
    return task.run()


class PartitionPoolExecutor:
    """A persistent process pool executing whole per-partition map tasks.

    Parameters
    ----------
    workers:
        Pool width; ``0`` auto-detects (``cpu_count``).  The pool carries
        no per-batch state — everything a task needs ships inside it.
    """

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers
        self._pool: Optional["multiprocessing.pool.Pool"] = None
        #: Batches executed on the pool (telemetry for tests).
        self.pooled_batches = 0

    def pool_width(self) -> int:
        """The worker count a pooled batch runs with."""
        return self.workers or multiprocessing.cpu_count()

    def run(self, tasks: Sequence["PartitionMapTask"]
            ) -> List["PartitionMapResult"]:
        """Execute the batch on the pool; results come back in task order
        regardless of which worker ran what."""
        self.pooled_batches += 1
        return self._ensure_pool().map(_run_partition_task, list(tasks))

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
