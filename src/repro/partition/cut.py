"""Cut-point DP: split a network across a fleet to maximize pipeline rate.

The single-device DP (Algorithm 1) minimizes the *latency* of one board;
a fleet runs stages concurrently, so the number that matters is the
pipeline's steady-state interval — the slowest stage or link.  The
partition search therefore minimizes the **bottleneck**:

    B[d][i] = min over cut k of max( B[d-1][k],
                                     transfer(cut tensor at k over link d-1->d),
                                     stage(k, i, device d) )

where ``stage(k, i, device)`` is the latency of the *existing*
single-device DP on layers ``[k, i)`` — every candidate range is a
Pareto-frontier query against one shared
:class:`~repro.optimizer.dp.FrontierOptimizer` per distinct device, all
of them sharing one signature-keyed
:class:`~repro.perf.cost.EvalContext`.  Because the frontier recursion
for the full range already visits every sub-range, partitioning costs
barely more than one single-device compile per distinct device model.

Ties on the bottleneck break toward lower end-to-end latency, then
toward fewer devices, so a 1-device fleet (or a fleet whose extra boards
cannot help) degenerates to exactly the single-device strategy.

The DP itself only sees ``num_units`` abstract units.  Here a unit is a
layer; :class:`~repro.partition.graph_cut.GraphCutOptimizer` runs the
same :meth:`CutOptimizer.solve` over a graph's top-level DAG units.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import PartitionError
from repro.hardware.device import FPGADevice
from repro.nn.network import Network
from repro.optimizer.dp import FrontierOptimizer, _Plan
from repro.optimizer.strategy import Strategy
from repro.partition.fleet import DeviceFleet
from repro.partition.plan import (
    PartitionPlan,
    PipelinePlan,
    StagePlacement,
    StageTransfer,
)
from repro.perf.cost import CostModel, EvalContext

_INF = float("inf")


class CutOptimizer:
    """Partition search over one network and one device fleet.

    Args:
        network: The (accelerated-prefix) network to split.
        fleet: Devices in pipeline order plus the links between them.
        transfer_constraint_bytes: Optional per-stage DRAM feature-map
            budget (the paper's T, applied to each board separately);
            defaults to each stage's unfused traffic — effectively
            unconstrained, matching ``compile_model``'s default.
        explore_tile_sizes / node_budget: Forwarded to the underlying
            single-device searches.
        context: Shared evaluation layer; one context serves every
            device in the fleet (device identity is part of its key).

    A model kind plugs into :meth:`solve` by overriding the hooks that
    take the model (``_bind``), count its units (``num_units``), price
    a unit range (``_frontier``, ``_stage_budget``), size a cut
    (``_cut_tensor_bytes``), name it in errors (``_describe``) and build
    the plan (``_materialize``).
    """

    def __init__(
        self,
        network: Network,
        fleet: DeviceFleet,
        transfer_constraint_bytes: Optional[int] = None,
        explore_tile_sizes: bool = False,
        node_budget: int = 250_000,
        context: Optional[CostModel] = None,
    ):
        self._bind(network)
        self.fleet = fleet
        self.transfer_constraint_bytes = transfer_constraint_bytes
        self.context: CostModel = context if context is not None else EvalContext()
        self._optimizer_kwargs = dict(
            explore_tile_sizes=explore_tile_sizes,
            node_budget=node_budget,
        )
        # Best feasible frontier plan of every (device, start, stop) unit
        # range queried so far; None marks an infeasible range.
        self._stage_cache: Dict[Tuple[FPGADevice, int, int], Optional[_Plan]] = {}

    def _bind(self, network: Network) -> None:
        if len(network) == 0:
            raise PartitionError("cannot partition an empty network")
        self.network = network
        # One frontier optimizer per *distinct* device model: a
        # homogeneous N-board fleet shares a single search.
        self._optimizers: Dict[FPGADevice, FrontierOptimizer] = {}

    @property
    def num_units(self) -> int:
        return len(self.network)

    def _describe(self) -> str:
        return f"{self.network.name!r} ({self.num_units} layers)"

    @property
    def telemetry(self):
        return self.context.stats

    def _optimizer_for(self, device: FPGADevice) -> FrontierOptimizer:
        optimizer = self._optimizers.get(device)
        if optimizer is None:
            optimizer = FrontierOptimizer(
                self.network, device, context=self.context,
                **self._optimizer_kwargs,
            )
            self._optimizers[device] = optimizer
        return optimizer

    def _frontier(self, device: FPGADevice, start: int, stop: int) -> List[_Plan]:
        """Pareto frontier of single-device plans for units ``[start, stop)``."""
        return self._optimizer_for(device).frontier(start, stop)

    def _stage_budget(self, device: FPGADevice, start: int, stop: int) -> int:
        """Feature-map transfer budget of one stage's board."""
        if self.transfer_constraint_bytes is not None:
            return self.transfer_constraint_bytes
        total = 0
        for index in range(start, stop):
            info = self.network[index]
            total += (info.input_size + info.output_size) * device.element_bytes
        return total

    def stage_plan(
        self, device: FPGADevice, start: int, stop: int
    ) -> Optional[_Plan]:
        """Best single-device plan for units ``[start, stop)``.

        None when the range is infeasible on the device (resources or
        the per-stage transfer budget).
        """
        key = (device, start, stop)
        if key in self._stage_cache:
            return self._stage_cache[key]
        frontier = self._frontier(device, start, stop)
        budget = self._stage_budget(device, start, stop)
        feasible = [p for p in frontier if p.transfer_bytes <= budget]
        plan = (
            min(feasible, key=lambda p: p.latency_cycles) if feasible else None
        )
        self._stage_cache[key] = plan
        self.context.stats.partition_stage_queries += 1
        return plan

    def _stage_seconds(
        self, device: FPGADevice, plan: Optional[_Plan]
    ) -> float:
        if plan is None:
            return _INF
        return device.cycles_to_seconds(plan.latency_cycles)

    def _baseline_seconds(self) -> Optional[float]:
        """Whole model on the fleet's first device; None if it does not fit."""
        device = self.fleet.devices[0]
        plan = self.stage_plan(device, 0, self.num_units)
        return None if plan is None else self._stage_seconds(device, plan)

    def _cut_tensor_bytes(self, cut: int, sender: FPGADevice) -> int:
        """Bytes of the feature map crossing a cut after layer ``cut - 1``."""
        return self.network[cut - 1].output_size * sender.element_bytes

    def solve(self) -> PipelinePlan:
        """Run the cut DP and materialize the best plan.

        Raises:
            PartitionError: When no assignment fits the fleet at all.
        """
        n = self.num_units
        devices = self.fleet.devices
        num_devices = len(devices)

        # value[d][i]: lexicographic (bottleneck_s, total_latency_s) of
        # the best pipeline running units [0, i) on devices 0..d, with
        # device d's stage non-empty and ending at i.
        value: List[Dict[int, Tuple[float, float]]] = [
            {} for _ in range(num_devices)
        ]
        back: List[Dict[int, int]] = [{} for _ in range(num_devices)]

        for i in range(1, n + 1):
            plan = self.stage_plan(devices[0], 0, i)
            seconds = self._stage_seconds(devices[0], plan)
            if seconds < _INF:
                value[0][i] = (seconds, seconds)

        for d in range(1, num_devices):
            device = devices[d]
            link = self.fleet.links[d - 1]
            sender = devices[d - 1]
            for i in range(d + 1, n + 1):
                best: Optional[Tuple[float, float]] = None
                best_cut = -1
                for cut in range(d, i):
                    upstream = value[d - 1].get(cut)
                    if upstream is None:
                        continue
                    transfer = link.transfer_seconds(
                        self._cut_tensor_bytes(cut, sender)
                    )
                    stage = self._stage_seconds(
                        device, self.stage_plan(device, cut, i)
                    )
                    if stage == _INF:
                        continue
                    self.context.stats.partition_cuts_considered += 1
                    candidate = (
                        max(upstream[0], transfer, stage),
                        upstream[1] + transfer + stage,
                    )
                    if best is None or candidate < best:
                        best = candidate
                        best_cut = cut
                if best is not None:
                    value[d][i] = best
                    back[d][i] = best_cut

        # Pick the best stage count: lexicographic (bottleneck, total
        # latency), ties toward fewer devices (ascending d keeps the
        # first — and the 1-device degenerate case — on equal values).
        chosen_d = -1
        chosen: Optional[Tuple[float, float]] = None
        for d in range(num_devices):
            candidate = value[d].get(n)
            if candidate is None:
                continue
            if chosen is None or candidate < chosen:
                chosen = candidate
                chosen_d = d
        if chosen is None:
            raise PartitionError(
                f"no feasible partition of {self._describe()} "
                f"onto fleet {self.fleet.name}"
            )

        # Backtrack the cut points.
        cuts: List[int] = []
        i = n
        for d in range(chosen_d, 0, -1):
            cut = back[d][i]
            cuts.append(cut)
            i = cut
        cuts.reverse()
        boundaries = [0] + cuts + [n]
        return self._materialize(boundaries)

    def _materialize(self, boundaries: List[int]) -> PartitionPlan:
        """Build the PartitionPlan (with full stage strategies)."""
        n = len(self.network)
        placements: List[StagePlacement] = []
        transfers: List[StageTransfer] = []
        for stage_id in range(len(boundaries) - 1):
            start, stop = boundaries[stage_id], boundaries[stage_id + 1]
            device = self.fleet.devices[stage_id]
            plan = self.stage_plan(device, start, stop)
            if plan is None:
                raise PartitionError(
                    f"stage [{start}:{stop}] became infeasible on materialize"
                )
            subnet = (
                self.network
                if start == 0 and stop == n
                else self.network.slice(start, stop)
            )
            optimizer = self._optimizer_for(device)
            designs = []
            for group_start, group_stop in plan.groups:
                design = optimizer.search.fusion(group_start, group_stop)
                if design is None:
                    raise PartitionError(
                        f"group [{group_start}:{group_stop}] became "
                        f"infeasible on materialize"
                    )
                designs.append(design)
            strategy = Strategy(
                subnet,
                device,
                [(s - start, e - start) for s, e in plan.groups],
                designs,
                telemetry=self.telemetry,
            )
            strategy.validate(self._stage_budget(device, start, stop))
            placements.append(
                StagePlacement(
                    stage_id=stage_id,
                    device_index=stage_id,
                    start=start,
                    stop=stop,
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
        return PartitionPlan(
            self.network,
            self.fleet,
            placements,
            transfers,
            telemetry=self.telemetry,
            baseline_latency_seconds=self._baseline_seconds(),
        )


def partition_network(
    network: Network,
    fleet: DeviceFleet,
    transfer_constraint_bytes: Optional[int] = None,
    explore_tile_sizes: bool = False,
    node_budget: int = 250_000,
    context: Optional[CostModel] = None,
) -> PartitionPlan:
    """Split ``network`` across ``fleet``, minimizing the pipeline bottleneck.

    The multi-device analogue of :func:`repro.optimizer.dp.optimize`;
    see :class:`CutOptimizer` for the knobs.
    """
    optimizer = CutOptimizer(
        network,
        fleet,
        transfer_constraint_bytes=transfer_constraint_bytes,
        explore_tile_sizes=explore_tile_sizes,
        node_budget=node_budget,
        context=context,
    )
    return optimizer.solve()
