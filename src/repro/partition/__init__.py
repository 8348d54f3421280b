"""Multi-FPGA model partitioning: split one network across a device fleet.

The layer between the single-device optimizer and the serving runtime:

* :mod:`repro.partition.fleet` — the hardware model (devices + links);
* :mod:`repro.partition.cut` — the cut-point DP minimizing the pipeline
  bottleneck over abstract units, priced for a chain network's layers
  by the existing single-device DP through the shared evaluation layer;
* :mod:`repro.partition.graph_cut` — a :class:`CutOptimizer` subclass
  that runs that same DP over a graph's top-level DAG units, pricing
  each unit range with the branch-aware graph optimizer (parallel
  fork-join blocks stay whole on one board);
* :mod:`repro.partition.plan` — the :class:`PartitionPlan` artifact with
  per-stage strategies, serialization, and simulate/serve hooks, plus
  the pipeline metrics and report both plan kinds share.
"""

from repro.partition.cut import CutOptimizer, partition_network
from repro.partition.fleet import DEFAULT_LINK_BANDWIDTH, DeviceFleet, Link
from repro.partition.graph_cut import (
    GraphCutOptimizer,
    GraphPartitionPlan,
    GraphStagePlacement,
    partition_graph,
)
from repro.partition.plan import (
    PartitionPlan,
    StagePlacement,
    StageTransfer,
    load_plan,
    plan_from_dict,
)

__all__ = [
    "CutOptimizer",
    "DEFAULT_LINK_BANDWIDTH",
    "DeviceFleet",
    "GraphCutOptimizer",
    "GraphPartitionPlan",
    "GraphStagePlacement",
    "Link",
    "PartitionPlan",
    "StagePlacement",
    "StageTransfer",
    "load_plan",
    "partition_graph",
    "partition_network",
    "plan_from_dict",
]
