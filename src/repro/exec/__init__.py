"""Pluggable execution backends for the stage-graph pipeline.

One interface (:class:`~repro.exec.backend.ExecutionBackend`), three
transports: in the driver process, a local process pool, and a true
multi-machine cluster over TCP sockets.  Backends change where work runs —
never the pipeline's results, and never the virtual 50-machine timeline
every report carries (:mod:`repro.distsim` computes it from recorded costs).

Only the interface module loads eagerly; the backend implementations (and
their multiprocessing/socket dependencies) resolve lazily on first
attribute access, so the configuration layer can import
:class:`~repro.exec.backend.BackendConfig` without paying for them.
"""

from repro.exec.backend import BACKEND_KINDS, BackendConfig, \
    ExecutionBackend, SerialBackend, create_backend

__all__ = [
    "BACKEND_KINDS",
    "BackendConfig",
    "ExecutionBackend",
    "create_backend",
    "SerialBackend",
    "ProcessBackend",
    "ClusterBackend",
    "ClusterCoordinator",
    "ClusterError",
    "spawn_local_worker",
    "PartitionPoolExecutor",
]

#: Lazily-resolved names -> defining submodule (PEP 562).
_LAZY = {
    "ProcessBackend": "repro.exec.process",
    "PartitionPoolExecutor": "repro.exec.partition",
    "ClusterBackend": "repro.exec.cluster",
    "ClusterCoordinator": "repro.exec.cluster",
    "ClusterError": "repro.exec.cluster",
    "spawn_local_worker": "repro.exec.cluster",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
