"""Process-pool execution backend: whole partitions on local child processes.

Determinism: every shipped task re-seeds the :mod:`random` module from
``(seed, partition_index)`` at the start of ``run()`` (see
:meth:`~repro.clustering.partition.PartitionMapTask.run`), and results merge
in task order, so runs with ``--workers 1`` and ``--workers N`` are
byte-identical for any ``N`` (asserted in ``tests/test_backends.py``).
"""

from __future__ import annotations

import multiprocessing

from repro.exec.backend import BackendConfig, InlineBackend
from repro.exec.partition import PartitionPoolExecutor


class ProcessBackend(InlineBackend):
    """Real process-pool parallelism, no simulation.

    The partition-level map (tokenize + DBSCAN per partition) fans out over
    a persistent :class:`~repro.exec.partition.PartitionPoolExecutor` —
    whole partitions ship to child processes and per-partition clusters
    ship back — while batches too small to be worth shipping run the same
    map inline.  Report times are measured wall clock, as with the serial
    backend.
    """

    name = "process"

    def __init__(self, config: BackendConfig) -> None:
        super().__init__(config)
        self._partition_executor = None
        if config.partition_parallel:
            self._partition_executor = PartitionPoolExecutor(
                workers=config.workers or 0)

    # -- substrate ------------------------------------------------------
    @property
    def charge_units(self) -> int:
        workers = self.config.workers or 0
        if workers == 0:
            return multiprocessing.cpu_count()
        return workers

    def partition_executor(self):
        return self._partition_executor

    def close(self) -> None:
        if self._partition_executor is not None:
            self._partition_executor.close()
