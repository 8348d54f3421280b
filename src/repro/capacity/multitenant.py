"""Multi-tenant serving: several compiled models sharing one fleet.

The single-model :class:`~repro.serve.scheduler.FleetScheduler` answers
"how does one design behave under load"; this module answers the fleet
operator's question — *several* models, each with its own traffic and
SLO, contending for the same boards.  Each tenant gets its own dynamic
batcher, retry heap and admission bound; replicas are shared, and a
replica switching tenants pays a **warm-swap** cost (reloading the
strategy's weights over the device's DRAM bandwidth) before the new
batch runs.

Two sharing disciplines decide which tenant dispatches when several
could:

* ``weighted_fair`` — start-time fair queueing on a per-tenant virtual
  time: each dispatched batch advances its tenant's virtual time by the
  occupied cycles divided by the tenant's weight, and the tenant with
  the smallest virtual time goes first.  Long-run throughput is
  proportional to weight under saturating load.
* ``strict_priority`` — higher ``priority`` always dispatches first,
  *except* that a tenant whose served share of replica cycles has
  fallen below its ``min_share`` floor jumps the queue — the starvation
  guard that makes strict priority safe to operate.

There is one event loop (:mod:`repro.serve.scheduler`): the
FleetScheduler serves it one lane, this scheduler one lane per tenant,
and the sharing discipline only breaks ties between lanes.  A **single
tenant with default weight therefore reproduces the FleetScheduler's
records and metrics bit-for-bit** by construction (still asserted in
tests) — the multi-tenant machinery is inert until a second model
shows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import CapacityError
from repro.faults import FaultSpec, RetryPolicy
from repro.optimizer.strategy import Strategy
from repro.resilience.controller import RecoveryController
from repro.serve.batcher import DynamicBatcher, InferenceRequest, ServingError
from repro.serve.runtime import BatchAttempt, ReplicaStats, _occupy
from repro.serve.scheduler import Policy, ServingResult, _Lane, _ServingLoop
from repro.sim.simulator import ServiceModel, build_service_model

SHARING_KINDS = ("weighted_fair", "strict_priority")


@dataclass(frozen=True)
class Tenant:
    """One model sharing the fleet: its timing model plus its share knobs.

    Attributes:
        name: Tenant key (unique within a scheduler).
        service_model: Batched timing model of the tenant's compiled
            strategy.
        weight: Weighted-fair share (relative; must be positive).
        priority: Strict-priority rank (higher dispatches first).
        min_share: Starvation floor under ``strict_priority`` — the
            minimum fraction of served replica cycles this tenant may
            fall to before it jumps the queue.  Floors must sum to < 1.
        swap_cycles: Cycles a replica spends reloading this tenant's
            weights when it last served a *different* tenant (the
            initial load of an idle replica is free).
        frequency_hz: Accelerator clock (every tenant of one fleet must
            agree — they share boards).
        ops_per_request: Arithmetic ops one request represents.
        reference_gops: Analytic effective GOPS of one replica.
        slo_cycles: Optional per-tenant latency SLO.
    """

    name: str
    service_model: ServiceModel
    weight: float = 1.0
    priority: int = 0
    min_share: float = 0.0
    swap_cycles: float = 0.0
    frequency_hz: float = 1e6
    ops_per_request: float = 0.0
    reference_gops: float = 0.0
    slo_cycles: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise CapacityError("a tenant needs a non-empty name")
        if not self.weight > 0:
            raise CapacityError(
                f"tenant {self.name!r} weight must be positive, "
                f"got {self.weight}"
            )
        if not 0.0 <= self.min_share < 1.0:
            raise CapacityError(
                f"tenant {self.name!r} min_share must be in [0, 1), "
                f"got {self.min_share}"
            )
        if self.swap_cycles < 0:
            raise CapacityError(
                f"tenant {self.name!r} swap_cycles must be >= 0, "
                f"got {self.swap_cycles}"
            )
        if self.slo_cycles is not None and self.slo_cycles <= 0:
            raise CapacityError(
                f"tenant {self.name!r} slo_cycles must be positive, "
                f"got {self.slo_cycles}"
            )

    @classmethod
    def for_strategy(
        cls,
        name: str,
        strategy: Strategy,
        weight: float = 1.0,
        priority: int = 0,
        min_share: float = 0.0,
        swap_cycles: Optional[float] = None,
        slo_cycles: Optional[float] = None,
        verify: bool = True,
    ) -> "Tenant":
        """Build a tenant serving ``strategy``.

        ``swap_cycles`` defaults to the time the strategy's weights take
        to stream over the device's DRAM bandwidth — the physical cost
        of reprogramming a warm replica with this model.
        """
        if verify:
            from repro.check.invariants import verify_strategy

            verify_strategy(strategy).raise_if_failed()
        device = strategy.device
        if swap_cycles is None:
            swap_cycles = (
                strategy.weight_transfer_bytes
                / device.bandwidth_bytes_per_s
                * device.frequency_hz
            )
        return cls(
            name=name,
            service_model=build_service_model(strategy),
            weight=weight,
            priority=priority,
            min_share=min_share,
            swap_cycles=swap_cycles,
            frequency_hz=device.frequency_hz,
            ops_per_request=strategy.total_ops,
            reference_gops=strategy.effective_gops(),
            slo_cycles=slo_cycles,
        )


class SharedReplica:
    """One board serving several tenants, with per-tenant accounting.

    The execution math is the single-board attempt
    :class:`~repro.serve.runtime.AcceleratorReplica` runs too, plus a
    swap term: when the batch's tenant differs from the one whose
    weights are loaded, the service time grows by the tenant's
    ``swap_cycles`` (scaled by any active brownout, like the rest of the
    service).  With one tenant the swap term is identically zero and the
    replica is cycle-for-cycle an ``AcceleratorReplica``.
    """

    def __init__(self, replica_id: int, tenants: Sequence[Tenant]):
        self.replica_id = replica_id
        self.tenants = tuple(tenants)
        self.busy_until = 0.0
        self.loaded: Optional[int] = None  # tenant whose weights are resident
        self.swaps = 0
        self.swap_cycles = 0.0
        n = len(self.tenants)
        self._busy = [0.0] * n
        self._batches = [0] * n
        self._requests = [0] * n
        self._failed_batches = [0] * n
        self._wasted = [0.0] * n

    def swap_cost(self, tenant_index: int) -> float:
        """Cycles to load ``tenant_index``'s weights right now.

        Zero when they are already resident — and for the first load on
        an idle replica, which happens before traffic starts.
        """
        if self.loaded is None or self.loaded == tenant_index:
            return 0.0
        return self.tenants[tenant_index].swap_cycles

    def execute_attempt(
        self,
        batch: Sequence[InferenceRequest],
        dispatch_cycle: float,
        tenant_index: int,
        injector=None,
    ) -> BatchAttempt:
        """Run one tenant's batch, paying the swap if weights changed."""
        if not batch:
            raise ServingError("cannot execute an empty batch")
        model = self.tenants[tenant_index].service_model
        swap = self.swap_cost(tenant_index)
        self.loaded = tenant_index
        attempt, cycles, scale = _occupy(
            self, swap + model.batch_cycles(len(batch)), dispatch_cycle,
            injector,
        )
        if swap > 0:
            self.swaps += 1
            self.swap_cycles += swap * scale
        if attempt.ok:
            self._busy[tenant_index] += cycles
            self._batches[tenant_index] += 1
            self._requests[tenant_index] += len(batch)
        else:
            self._wasted[tenant_index] += cycles
            self._failed_batches[tenant_index] += 1
        return attempt

    def stats_for(self, tenant_index: int) -> ReplicaStats:
        """This replica's counters restricted to one tenant's work."""
        return ReplicaStats(
            replica_id=self.replica_id,
            batches=self._batches[tenant_index],
            requests=self._requests[tenant_index],
            busy_cycles=self._busy[tenant_index],
            failed_batches=self._failed_batches[tenant_index],
            wasted_cycles=self._wasted[tenant_index],
        )

    def __repr__(self) -> str:
        loaded = (
            self.tenants[self.loaded].name if self.loaded is not None else "-"
        )
        return (
            f"SharedReplica(id={self.replica_id}, loaded={loaded}, "
            f"busy_until={self.busy_until:.0f}, swaps={self.swaps})"
        )


@dataclass(frozen=True)
class MultiTenantResult:
    """Everything one multi-tenant run produced.

    ``per_tenant`` maps tenant name to the same :class:`ServingResult`
    shape the single-model scheduler returns — per-tenant records,
    failures and :class:`~repro.serve.metrics.ServingMetrics` — so every
    downstream consumer (reporting, SLO checks, tests) is shared.
    """

    per_tenant: Dict[str, ServingResult]
    sharing: str
    weights: Dict[str, float]
    swaps: int  # warm weight reloads across the fleet
    swap_cycles: float  # total cycles spent swapping
    makespan_cycles: float  # first arrival -> last completion, all tenants
    #: Fleet-level control-plane outcome (:mod:`repro.resilience`);
    #: None when no control plane ran or it never acted.
    recovery: Optional[dict] = None

    def metrics_for(self, name: str):
        return self.per_tenant[name].metrics

    @property
    def makespan_seconds(self) -> float:
        frequencies = {
            r.metrics.frequency_hz for r in self.per_tenant.values()
        }
        return self.makespan_cycles / frequencies.pop()

    def to_dict(self) -> dict:
        return {
            "sharing": self.sharing,
            "weights": dict(self.weights),
            "swaps": self.swaps,
            "swap_cycles": self.swap_cycles,
            "makespan_cycles": self.makespan_cycles,
            "recovery": self.recovery,
            "tenants": {
                name: result.metrics.to_dict()
                for name, result in self.per_tenant.items()
            },
        }

    def summary(self) -> str:
        lines = [
            f"multi-tenant run ({self.sharing}): "
            f"{len(self.per_tenant)} tenant(s), "
            f"makespan {self.makespan_cycles:,.0f} cycles, "
            f"{self.swaps} warm swaps "
            f"({self.swap_cycles:,.0f} cycles)"
        ]
        for name, result in self.per_tenant.items():
            metrics = result.metrics
            if metrics.requests == 0:
                # A dead tenant has no latency distribution — report the
                # outcome explicitly instead of NaN-laced percentiles.
                lines.append(
                    f"  [{name}] weight {self.weights[name]:g}: "
                    f"no completed requests "
                    f"({metrics.failed} failed, {metrics.shed} shed, "
                    f"{metrics.retries} retries)"
                )
                continue
            lines.append(
                f"  [{name}] weight {self.weights[name]:g}: "
                f"{metrics.requests} served, "
                f"p95 {metrics.p95_latency_cycles:,.0f} cycles, "
                f"goodput {metrics.goodput_per_second:,.1f} req/s"
                + (
                    f", SLO {metrics.slo_attainment * 100:.1f}%"
                    if metrics.slo_attainment is not None
                    else ""
                )
            )
        if self.recovery is not None:
            rec = self.recovery
            lines.append(
                f"  recovery: {len(rec.get('events', []))} events, "
                f"{rec.get('ladder_steps', 0)} ladder steps"
            )
        return "\n".join(lines)


class MultiTenantScheduler(_ServingLoop):
    """Serves several models' traffic on one shared replica fleet.

    The shared event loop with one lane per tenant: per-tenant
    batchers, retry heaps and admission bounds, with the sharing
    discipline deciding which tenant's batch a free replica takes.  One
    tenant with default knobs is :class:`FleetScheduler` exactly.
    """

    def __init__(
        self,
        tenants: Sequence[Tenant],
        replicas: int = 1,
        policy: Union[str, Policy] = Policy.LEAST_LOADED,
        sharing: str = "weighted_fair",
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        faults: Union[FaultSpec, str, None] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_queue: Optional[int] = None,
        resilience=None,
    ):
        """
        Args:
            tenants: The models sharing the fleet (unique names, one
                common clock frequency).
            replicas: Number of shared boards.
            policy: Replica placement — ``round_robin``/``least_loaded``,
                as in the parent scheduler.
            sharing: ``weighted_fair`` or ``strict_priority``.
            max_batch: Dynamic batching cap (per tenant queue).
            max_wait_cycles: Partial-batch deadline; defaults per tenant
                to half its single-image latency (the parent's default).
            faults / fault_seed / retry: Fault schedule and retry policy,
                shared by all tenants (see :mod:`repro.faults`).
            max_queue: Per-tenant admission bound (arrivals finding this
                many of *their* tenant's requests pending are shed).
            resilience: Control-plane policy (:mod:`repro.resilience`).
                The shed rung tightens admission for tenants *without* a
                WFQ floor (``min_share == 0``) — "shed low-priority
                tenants"; floor-protected tenants keep their base bound.
        """
        if not tenants:
            raise CapacityError("a multi-tenant fleet needs >= 1 tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise CapacityError(f"duplicate tenant names: {names}")
        frequencies = {t.frequency_hz for t in tenants}
        if len(frequencies) > 1:
            raise CapacityError(
                "tenants of one fleet must share a clock frequency, got "
                + ", ".join(
                    f"{t.name}={t.frequency_hz / 1e6:g}MHz" for t in tenants
                )
            )
        if sharing not in SHARING_KINDS:
            raise CapacityError(
                f"unknown sharing discipline {sharing!r} "
                f"(expected one of {SHARING_KINDS})"
            )
        floor_total = sum(t.min_share for t in tenants)
        if floor_total >= 1.0:
            raise CapacityError(
                f"min_share floors must sum to < 1, got {floor_total:g}"
            )
        if replicas < 1:
            raise CapacityError(f"a fleet needs >= 1 replica, got {replicas}")
        super().__init__(replicas, policy, max_batch, faults, fault_seed,
                         retry, max_queue, resilience)
        self.tenants = tuple(tenants)
        self.sharing = sharing
        self.max_wait_cycles = max_wait_cycles
        self.frequency_hz = frequencies.pop()
        # Validate the batching knobs and the fault spec eagerly, the
        # way the parent scheduler does.
        for tenant in self.tenants:
            DynamicBatcher(max_batch, self._tenant_max_wait(tenant))
        self._build_injector()

    @classmethod
    def for_strategies(
        cls,
        strategies: Mapping[str, Strategy],
        weights: Optional[Mapping[str, float]] = None,
        priorities: Optional[Mapping[str, int]] = None,
        min_shares: Optional[Mapping[str, float]] = None,
        slo_cycles: Optional[Mapping[str, float]] = None,
        verify: bool = True,
        **kwargs,
    ) -> "MultiTenantScheduler":
        """Build a shared fleet from named compiled strategies."""
        tenants = [
            Tenant.for_strategy(
                name,
                strategy,
                weight=(weights or {}).get(name, 1.0),
                priority=(priorities or {}).get(name, 0),
                min_share=(min_shares or {}).get(name, 0.0),
                slo_cycles=(slo_cycles or {}).get(name),
                verify=verify,
            )
            for name, strategy in strategies.items()
        ]
        return cls(tenants, **kwargs)

    def _tenant_max_wait(self, tenant: Tenant) -> float:
        if self.max_wait_cycles is not None:
            return self.max_wait_cycles
        return 0.5 * tenant.service_model.single_image_cycles

    # -- the shared-fleet hooks ----------------------------------------------

    def _build_replicas(self) -> List[SharedReplica]:
        return [
            SharedReplica(i, self.tenants) for i in range(self.num_replicas)
        ]

    def _execute(self, replica, batch, clock, lane, injector):
        """Run the batch on a shared board, paying any warm swap."""
        return replica.execute_attempt(batch, clock, lane.index, injector)

    def _lane_key(self, lane, lanes) -> Tuple:
        """Deterministic tenant ordering at equal dispatch instants."""
        if self.sharing == "weighted_fair":
            return (lane.vtime, lane.index)
        # Strict priority with a starvation floor: a tenant below its
        # configured share of served cycles jumps the queue.
        tenant = self.tenants[lane.index]
        total = sum(other.occupancy for other in lanes)
        share = lane.occupancy / total if total > 0 else 0.0
        starving = tenant.min_share > 0 and share < tenant.min_share
        return (0 if starving else 1, -tenant.priority, lane.index)

    def _activate(self, lane, lanes, arrival_cycle: float) -> None:
        """Catch a *genuinely idle* tenant's virtual time up.

        A tenant idle for a long stretch holds a stale (tiny) virtual
        time and would monopolize the fleet on return; the
        start-time-fair-queueing fix is to restart it no earlier than
        the busiest competitor's clock.  "Idle" means the new request
        arrived after the tenant's last batch finished — an empty
        *batcher* alone does not qualify, because under saturation the
        backlog waits in the unadmitted trace and the batcher drains to
        empty at every dispatch.
        """
        if len(lane.batcher) or arrival_cycle < lane.last_finish:
            return  # already active, or backlogged rather than idle
        active_vtimes = [
            other.vtime for other in lanes
            if other is not lane and len(other.batcher)
        ]
        if active_vtimes:
            lane.vtime = max(lane.vtime, min(active_vtimes))

    def _charge(self, lane, attempt) -> None:
        """Bill the batch's replica occupancy to its tenant."""
        occupancy = attempt.end_cycle - attempt.start_cycle
        lane.occupancy += occupancy
        lane.last_finish = attempt.end_cycle
        if self.sharing == "weighted_fair":
            lane.vtime += occupancy / self.tenants[lane.index].weight

    def _build_control(self):
        """Shared-replica attempt spans include warm-swap cycles, so the
        latency-inflation trigger stays off (like pipelines)."""
        if self.resilience is None:
            return None
        return RecoveryController(
            self.resilience,
            num_replicas=self.num_replicas,
            base_max_batch=self.max_batch,
            base_max_queue=self.max_queue,
            fallback_available=False,
            latency_trigger=False,
        )

    def _rebuild_replica(self, control, fleet, replica_id: int,
                         cycle: float) -> None:
        """A shared fleet has no survivor plan: failover handles the loss."""
        control.note_rebuild_failed(
            replica_id, cycle,
            "shared fleet: no survivor plan (failover handles the loss)",
        )

    def _control_dead_fleet(self, control, fleet, clock: float, injector,
                            lanes) -> bool:
        """Log any deaths the attempt path never saw; with no survivor
        plan to rebuild from, the caller then fails everything."""
        control.check_dead_fleet(fleet, clock, injector)
        for action in control.pop_actions():
            if action.kind == "rebuild":
                control.note_rebuild_failed(
                    action.replica, action.cycle,
                    "shared fleet: no survivor plan",
                )
        return False

    # -- serving -------------------------------------------------------------

    def run(
        self,
        arrivals: Mapping[str, Sequence[float]],
        arrival_meta: Optional[Mapping[str, dict]] = None,
    ) -> MultiTenantResult:
        """Serve every tenant's arrival trace to completion.

        ``arrivals`` maps tenant name to its arrival cycles (every
        tenant needs a non-empty trace); ``arrival_meta`` optionally
        stamps per-tenant replay provenance into the metrics (see
        :meth:`repro.traffic.TrafficTrace.arrival_meta`).
        """
        missing = [t.name for t in self.tenants if t.name not in arrivals]
        if missing:
            raise CapacityError(f"no arrival trace for tenant(s): {missing}")
        names = {t.name for t in self.tenants}
        unknown = [name for name in arrivals if name not in names]
        if unknown:
            raise CapacityError(f"arrival trace for unknown tenant(s): {unknown}")
        meta = dict(arrival_meta or {})
        lanes = [
            _Lane(
                i,
                arrivals[tenant.name],
                tenant.service_model,
                self.max_batch,
                self._tenant_max_wait(tenant),
                self.retry,
                protected=tenant.min_share > 0,
            )
            for i, tenant in enumerate(self.tenants)
        ]
        fleet = self._build_replicas()
        control = self._build_control()
        self._serve(lanes, fleet, self._build_injector(), control)

        per_tenant: Dict[str, ServingResult] = {
            tenant.name: lane.result(
                [replica.stats_for(lane.index) for replica in fleet],
                frequency_hz=self.frequency_hz,
                ops_per_request=tenant.ops_per_request,
                single_image_cycles=tenant.service_model.single_image_cycles,
                reference_gops=tenant.reference_gops,
                slo_cycles=tenant.slo_cycles,
                arrival=meta.get(tenant.name),
            )
            for lane, tenant in zip(lanes, self.tenants)
        }
        outcomes = [r for lane in lanes for r in lane.records + lane.failures]
        first = min(r.arrival_cycle for r in outcomes)
        last = max(r.completion_cycle for r in outcomes)
        recovery = None
        if control is not None:
            recovery = control.finalize(
                [r for lane in lanes for r in lane.records], self.frequency_hz
            )
        return MultiTenantResult(
            per_tenant=per_tenant,
            sharing=self.sharing,
            weights={t.name: t.weight for t in self.tenants},
            swaps=sum(r.swaps for r in fleet),
            swap_cycles=sum(r.swap_cycles for r in fleet),
            makespan_cycles=last - first,
            recovery=recovery,
        )

    def run_trace(self, trace, scale: float = 1.0) -> MultiTenantResult:
        """Serve a recorded :class:`~repro.traffic.TrafficTrace`.

        ``scale`` rescales the trace's cycle domain (reference clock →
        this fleet's clock); replay provenance is stamped into each
        tenant's metrics automatically.
        """
        scaled = trace.scaled(scale)
        return self.run(scaled.arrivals(), arrival_meta=scaled.arrival_meta())
