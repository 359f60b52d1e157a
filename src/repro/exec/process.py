"""Process-pool execution backend: whole partitions on local child processes.

Determinism: a partition map task is a pure function of its contents and
results merge in task order, so runs with ``--workers 1`` and ``--workers N``
are byte-identical for any ``N`` (asserted in ``tests/test_backends.py``).
"""

from __future__ import annotations

import multiprocessing

from repro.exec.backend import InlineBackend
from repro.exec.partition import PoolTransport


class ProcessBackend(PoolTransport, InlineBackend):
    """Real process-pool parallelism, no simulation.

    The partition map fans out over a persistent
    :class:`~repro.exec.partition.PartitionPoolExecutor` — whole partitions
    ship to child processes and per-partition clusters ship back — while
    batches not worth shipping run the same tasks in process.  Report times
    are measured wall clock, as with the serial backend.
    """

    name = "process"

    @property
    def charge_units(self) -> int:
        return self.config.workers or multiprocessing.cpu_count()
