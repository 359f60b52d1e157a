"""Process-pool execution backend: whole partitions on local child processes.

Determinism: a partition map task is a pure function of its contents and
results merge in task order, so runs with ``--workers 1`` and ``--workers N``
are byte-identical for any ``N`` (asserted in ``tests/test_backends.py``).
"""

from __future__ import annotations

from typing import List, Sequence, TYPE_CHECKING

from repro.exec.backend import BackendConfig, ExecutionBackend
from repro.exec.partition import PartitionPoolExecutor, worth_shipping

if TYPE_CHECKING:
    from repro.clustering.partition import PartitionMapResult, \
        PartitionMapTask
    from repro.distance.engine import DistanceEngine


class ProcessBackend(ExecutionBackend):
    """Real process-pool parallelism (the default transport).

    The partition map fans out over a persistent
    :class:`~repro.exec.partition.PartitionPoolExecutor` — whole partitions
    ship to child processes and per-partition clusters ship back — while
    batches not :func:`~repro.exec.partition.worth_shipping` run the same
    tasks in process.  ``pool`` is ``None`` when
    ``config.partition_parallel`` is off; every batch then stays in process.
    """

    name = "process"

    def __init__(self, config: BackendConfig) -> None:
        super().__init__(config)
        self.pool = PartitionPoolExecutor(config.workers or 0) \
            if config.partition_parallel else None

    @property
    def ship_width(self) -> int:
        return self.pool.pool_width() if self.pool is not None else 1

    def run_partition_map(self, tasks: Sequence["PartitionMapTask"],
                          engine: "DistanceEngine"
                          ) -> List["PartitionMapResult"]:
        if worth_shipping(tasks, self.ship_width):
            return self.pool.run(tasks)
        return super().run_partition_map(tasks, engine)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
