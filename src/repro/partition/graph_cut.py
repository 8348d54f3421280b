"""Cut-point DP over DAG edges: partition a graph across a fleet.

The chain partitioner (:mod:`repro.partition.cut`) cuts between layer
*indices*; a DAG has no global index, but its series-parallel
decomposition linearizes the top level into a sequence of atomic
**units** — a plain node, or a whole fork-join block — separated by
exactly the edges every dataflow must cross.  Those edges are the only
sound cut points: cutting inside a parallel region would put the fork
tensor on two boards at once and ship partial branch results over the
link, so parallel blocks stay whole.

With units in hand the search *is* the chain version's bottleneck DP —
:class:`GraphCutOptimizer` inherits
:meth:`~repro.partition.cut.CutOptimizer.solve` — except ``stage`` is a
branch-aware :class:`~repro.optimizer.graph_dp.GraphOptimizer` frontier
query on the unit range's subgraph, and the cut tensor is the output of
the unit's last producer (a parallel unit's join).  On a chain graph
every unit is a single node and the DP picks the chain partitioner's
cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import PartitionError
from repro.hardware.device import FPGADevice
from repro.nn.graph import Graph, SPLeaf, sp_leaf_names
from repro.nn.layers import InputSpec
from repro.optimizer.graph_dp import GraphOptimizer, GraphStrategy, _GPlan
from repro.partition.cut import CutOptimizer
from repro.partition.fleet import DeviceFleet
from repro.partition.plan import PipelinePlan, StageTransfer
from repro.perf.cost import CostModel, SearchTelemetry


@dataclass(frozen=True)
class _Unit:
    """One atomic top-level element: a node or a whole parallel block."""

    nodes: Tuple[str, ...]  #: covered node names, execution order
    tail: str  #: the node producing the unit's output (leaf or join)


def graph_units(graph: Graph) -> List[_Unit]:
    """Linearize the top-level SP decomposition into cut-atomic units."""
    units: List[_Unit] = []
    for block in graph.decompose().blocks:
        if isinstance(block, SPLeaf):
            units.append(_Unit(nodes=(block.node,), tail=block.node))
        else:
            names = tuple(sp_leaf_names(block))
            units.append(_Unit(nodes=names, tail=block.join))
    return units


@dataclass(frozen=True)
class GraphStagePlacement:
    """One pipeline stage: a unit range bound to one fleet device."""

    stage_id: int
    device_index: int
    start: int  #: first unit index
    stop: int  #: one past the last unit index
    nodes: Tuple[str, ...]  #: graph nodes this stage executes
    strategy: GraphStrategy

    @property
    def device(self):
        return self.strategy.device

    @property
    def latency_seconds(self) -> float:
        return self.strategy.latency_seconds()


class GraphPartitionPlan(PipelinePlan):
    """A mapping of one graph onto a device fleet, cut on DAG edges.

    The DAG sibling of :class:`~repro.partition.plan.PartitionPlan`:
    stages cover the graph's top-level units contiguously and pipeline
    through the recorded link transfers.
    """

    _REPORT_COLUMNS = ("nodes", 28, 9, "stages")

    def __init__(
        self,
        graph: Graph,
        fleet: DeviceFleet,
        placements: List[GraphStagePlacement],
        transfers: List[StageTransfer],
        telemetry: Optional[SearchTelemetry] = None,
        baseline_latency_seconds: Optional[float] = None,
    ):
        if not placements:
            raise PartitionError("a graph partition plan needs at least one stage")
        if len(transfers) != len(placements) - 1:
            raise PartitionError(
                f"{len(placements)} stages need {len(placements) - 1} "
                f"transfers, got {len(transfers)}"
            )
        covered = [name for p in placements for name in p.nodes]
        expected = [info.name for info in graph.infos]
        if sorted(covered) != sorted(expected):
            raise PartitionError(
                f"stages cover {len(covered)} nodes, graph has {len(expected)}"
            )
        self.graph = graph
        self.fleet = fleet
        self.placements = placements
        self.transfers = transfers
        self.telemetry = telemetry
        self.baseline_latency_seconds = baseline_latency_seconds

    def to_dict(self) -> dict:
        """JSON-friendly view of the plan (CLI ``repro partition --json``)."""
        return {
            "kind": "graph_partition_plan",
            "graph": self.graph.name,
            "fleet": self.fleet.name,
            "num_stages": self.num_stages,
            "bottleneck_seconds": self.bottleneck_seconds,
            "latency_seconds": self.latency_seconds,
            "throughput_images_per_s": self.throughput_images_per_s,
            "effective_gops": self.effective_gops(),
            "pipelined_speedup": self.pipelined_speedup(),
            "stages": [
                {
                    "stage_id": p.stage_id,
                    "device": p.device.name,
                    "nodes": list(p.nodes),
                    "segments": [s.kind for s in p.strategy.segments],
                    "latency_seconds": p.latency_seconds,
                }
                for p in self.placements
            ],
            "transfers": [
                {"tensor_bytes": t.tensor_bytes, "seconds": t.seconds}
                for t in self.transfers
            ],
        }

    def _title(self) -> str:
        return f"Graph partition of {self.graph.name}"

    def _stage_columns(
        self, placement: GraphStagePlacement
    ) -> Tuple[str, int]:
        nodes = placement.nodes
        span = nodes[0] if len(nodes) == 1 else f"{nodes[0]}..{nodes[-1]}"
        return span, len(placement.strategy.segments)

    def __repr__(self) -> str:
        return (
            f"GraphPartitionPlan(graph={self.graph.name!r}, "
            f"stages={self.num_stages}, "
            f"bottleneck={self.bottleneck_seconds * 1e3:.2f}ms)"
        )


class GraphCutOptimizer(CutOptimizer):
    """Partition search over one graph and one device fleet.

    Same knobs and the same DP as
    :class:`~repro.partition.cut.CutOptimizer`; the units are the
    graph's top-level SP blocks, so cut candidates are DAG edges.
    """

    def __init__(self, graph: Graph, fleet: DeviceFleet, **search):
        # Restates only the model parameter's name (``graph=``).
        super().__init__(graph, fleet, **search)

    def _bind(self, graph: Graph) -> None:
        if len(graph) == 0:
            raise PartitionError("cannot partition an empty graph")
        self.graph = graph
        self.units = graph_units(graph)
        self._subgraphs: Dict[Tuple[int, int], Graph] = {}
        # One branch-aware optimizer per priced (device, start, stop).
        self._optimizers: Dict[Tuple[FPGADevice, int, int], GraphOptimizer] = {}

    @property
    def num_units(self) -> int:
        return len(self.units)

    def _describe(self) -> str:
        return f"graph {self.graph.name!r} ({self.num_units} units)"

    def _stage_subgraph(self, start: int, stop: int) -> Graph:
        key = (start, stop)
        sub = self._subgraphs.get(key)
        if sub is not None:
            return sub
        if start == 0 and stop == len(self.units):
            sub = self.graph
        else:
            names: List[str] = []
            for unit in self.units[start:stop]:
                names.extend(unit.nodes)
            if start == 0:
                input_name = self.graph.input_name
                spec = self.graph.input_spec
            else:
                input_name = self.units[start - 1].tail
                spec = InputSpec(*self.graph.producer_shape(input_name))
            sub = self.graph.subgraph(
                names,
                name=f"{self.graph.name}[u{start}:u{stop}]",
                input_name=input_name,
                input_spec=spec,
            )
        self._subgraphs[key] = sub
        return sub

    def _frontier(self, device: FPGADevice, start: int, stop: int) -> List[_GPlan]:
        optimizer = GraphOptimizer(
            self._stage_subgraph(start, stop),
            device,
            context=self.context,
            **self._optimizer_kwargs,
        )
        self._optimizers[(device, start, stop)] = optimizer
        return optimizer.frontier()

    def _stage_budget(self, device: FPGADevice, start: int, stop: int) -> int:
        if self.transfer_constraint_bytes is not None:
            return self.transfer_constraint_bytes
        sub = self._stage_subgraph(start, stop)
        return sub.feature_map_bytes(element_bytes=device.element_bytes)

    def _cut_tensor_bytes(self, cut: int, sender: FPGADevice) -> int:
        """Bytes of the tensor crossing the DAG edge after unit cut-1."""
        tail = self.units[cut - 1].tail
        c, h, w = self.graph.node(tail).output_shape
        return c * h * w * sender.element_bytes

    def _materialize(self, boundaries: List[int]) -> GraphPartitionPlan:
        placements: List[GraphStagePlacement] = []
        transfers: List[StageTransfer] = []
        n = self.num_units
        for stage_id in range(len(boundaries) - 1):
            start, stop = boundaries[stage_id], boundaries[stage_id + 1]
            device = self.fleet.devices[stage_id]
            plan = self.stage_plan(device, start, stop)
            if plan is None:
                raise PartitionError(
                    f"stage units [{start}:{stop}] became infeasible "
                    f"on materialize"
                )
            optimizer = self._optimizers[(device, start, stop)]
            strategy = optimizer.materialize(plan)
            strategy.validate(self._stage_budget(device, start, stop))
            nodes = tuple(
                name
                for unit in self.units[start:stop]
                for name in unit.nodes
            )
            placements.append(
                GraphStagePlacement(
                    stage_id=stage_id,
                    device_index=stage_id,
                    start=start,
                    stop=stop,
                    nodes=nodes,
                    strategy=strategy,
                )
            )
            if stop < n:
                transfers.append(
                    StageTransfer(
                        link_index=stage_id,
                        link=self.fleet.links[stage_id],
                        tensor_bytes=self._cut_tensor_bytes(stop, device),
                    )
                )
        return GraphPartitionPlan(
            self.graph,
            self.fleet,
            placements,
            transfers,
            telemetry=self.telemetry,
            baseline_latency_seconds=self._baseline_seconds(),
        )


def partition_graph(
    graph: Graph,
    fleet: DeviceFleet,
    transfer_constraint_bytes: Optional[int] = None,
    explore_tile_sizes: bool = False,
    node_budget: int = 250_000,
    context: Optional[CostModel] = None,
) -> GraphPartitionPlan:
    """Split ``graph`` across ``fleet``, cutting only on DAG edges.

    The DAG sibling of :func:`repro.partition.cut.partition_network`.
    """
    optimizer = GraphCutOptimizer(
        graph,
        fleet,
        transfer_constraint_bytes=transfer_constraint_bytes,
        explore_tile_sizes=explore_tile_sizes,
        node_budget=node_budget,
        context=context,
    )
    return optimizer.solve()
