"""Discrete-event simulator of a cluster of machines.

The paper runs its clustering stage on 50 machines and reports that a daily
batch consistently completes in about 90 minutes, with the reduce
(cluster-reconciliation) step being the bottleneck (Section IV, "Cluster-Based
Processing Performance").  We reproduce that behaviour with a small
discrete-event simulator: machines with a configurable per-token processing
rate, a network model for shipping samples and intermediate cluster
descriptions, a task scheduler, and a map/reduce driver that the real
clustering code plugs into.

The simulator executes the *real* clustering computation (the Python
functions are actually called) while accounting for virtual time as if the
work had been spread across ``n`` machines, so both the results and the
scaling shape are meaningful.
"""

from repro.distsim.events import EventLoop, Event
from repro.distsim.machine import Machine, MachineSpec
from repro.distsim.network import NetworkModel
from repro.distsim.scheduler import Scheduler, Task, TaskResult
from repro.distsim.mapreduce import MapReduceJob, MapReduceReport, \
    SimCluster, virtual_timeline

__all__ = [
    "EventLoop",
    "Event",
    "Machine",
    "MachineSpec",
    "NetworkModel",
    "Scheduler",
    "Task",
    "TaskResult",
    "MapReduceJob",
    "MapReduceReport",
    "SimCluster",
    "virtual_timeline",
]
