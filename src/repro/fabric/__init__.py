"""The fabric plane: sharded multiprocess data-plane execution.

Partitions work across a persistent pool of shard workers — each a full
deployment replica — with query-ownership execution filtering, flow-hash
primary-packet accounting, declarative control-op fan-out, and a merge
layer whose outputs are bit-identical to single-process execution on
fault-free runs.  See :mod:`repro.fabric.sharded` for the facade.
"""

from repro.fabric.merge import (
    canonical_reports,
    merge_metrics,
    merge_register_arrays,
    merge_stats,
    record_reports,
)
from repro.fabric.partition import (
    FlowHashPartitioner,
    QueryPartitioner,
    ShardContext,
    owned_sub_qids,
)
from repro.fabric.sharded import ShardedDeployment
from repro.fabric.supervisor import (
    SupervisorConfig,
    WorkerDiedError,
    WorkerSupervisor,
)
from repro.fabric.worker import ShardRuntime, WorkerSpec

__all__ = [
    "FlowHashPartitioner",
    "QueryPartitioner",
    "ShardContext",
    "ShardRuntime",
    "ShardedDeployment",
    "SupervisorConfig",
    "WorkerDiedError",
    "WorkerSpec",
    "WorkerSupervisor",
    "canonical_reports",
    "merge_metrics",
    "merge_register_arrays",
    "merge_stats",
    "owned_sub_qids",
    "record_reports",
]
