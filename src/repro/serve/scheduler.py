"""Fleet scheduler: dispatches dynamic batches across accelerator replicas.

The scheduler runs a deterministic event loop over a **virtual clock**
measured in accelerator cycles.  Nothing reads wall time: arrivals are
an explicit trace, service times come from the strategy's
:class:`~repro.sim.simulator.ServiceModel`, and every run of the same
trace produces bit-identical metrics — throughput and tail-latency
numbers are reproducible artifacts, like the paper's tables.

Dispatch rule (see ``docs/serving.md`` for the full queueing model):

* a **full** batch (``max_batch`` pending) is dispatched as soon as a
  replica is available under the policy;
* a **partial** batch is dispatched once its oldest request has waited
  ``max_wait_cycles`` *and* the policy's replica is available;
* requests that arrive at or before the dispatch instant join the batch
  up to capacity — later ones start the next batch.

Two placement policies:

* ``round_robin`` — replicas take batches in strict rotation.  Simple
  and fair under uniform load, but a batch can queue behind a busy
  replica while another sits idle.
* ``least_loaded`` — each batch goes to the replica that frees up
  earliest (ties to the lowest id), the classic join-shortest-queue
  flavour for batch service.

Resilience (:mod:`repro.faults`): with a :class:`FaultSpec` attached,
the same loop tracks replica health (up/draining/down), skips down
replicas, retries failed batches with exponential backoff and a
per-request deadline (:class:`~repro.faults.RetryPolicy`), fails work
over to healthy replicas, and — with ``max_queue`` set — sheds arrivals
instead of growing the queue without bound when capacity drops.  With
no faults configured, every one of these hooks is inert and the run is
bit-identical to the fault-free scheduler.

This is the only serving event loop.  It serves *lanes* — one per
tenant — and :class:`FleetScheduler` is its one-lane case; the
multi-tenant scheduler (:mod:`repro.capacity.multitenant`) runs it with
one lane per model and a sharing discipline that breaks ties between
lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import count
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.optimizer.strategy import Strategy
from repro.resilience.controller import RecoveryController, ResiliencePolicy
from repro.serve.batcher import DynamicBatcher, InferenceRequest, ServingError
from repro.serve.metrics import RequestRecord, ServingMetrics, aggregate_metrics
from repro.serve.runtime import AcceleratorReplica, build_fleet
from repro.sim.simulator import ServiceModel, build_service_model


class Policy(str, Enum):
    """Batch-to-replica placement policy."""

    ROUND_ROBIN = "round_robin"
    LEAST_LOADED = "least_loaded"


@dataclass(frozen=True)
class ServingResult:
    """Everything one serving run produced.

    ``records`` holds completed requests; ``failures`` holds the
    requests that never completed (outcome ``failed`` or ``shed``) —
    empty in any fault-free run.
    """

    records: Tuple[RequestRecord, ...]
    metrics: ServingMetrics
    failures: Tuple[RequestRecord, ...] = ()

    def summary(self) -> str:
        return self.metrics.summary()


def synthetic_arrivals(
    num_requests: int,
    mean_interarrival_cycles: float,
    rng: Optional[np.random.Generator] = None,
    pattern: str = "poisson",
) -> List[float]:
    """Open-loop arrival trace starting at cycle 0.

    Args:
        num_requests: Trace length.
        mean_interarrival_cycles: Mean gap between arrivals; the offered
            load is ``1 / mean_interarrival_cycles`` requests per cycle,
            independent of how fast the fleet drains (open loop).
        rng: Seeded generator (defaults to seed 0) — traces are
            reproducible by construction.
        pattern: ``poisson`` (exponential gaps), ``uniform`` (gaps in
            [0, 2*mean)), or ``constant``.
    """
    if num_requests < 1:
        raise ServingError(f"need >= 1 request, got {num_requests}")
    if mean_interarrival_cycles < 0:
        raise ServingError("mean interarrival must be >= 0")
    rng = rng or np.random.default_rng(0)
    if pattern == "poisson":
        gaps = rng.exponential(mean_interarrival_cycles, num_requests)
    elif pattern == "uniform":
        gaps = rng.uniform(0, 2 * mean_interarrival_cycles, num_requests)
    elif pattern == "constant":
        gaps = np.full(num_requests, float(mean_interarrival_cycles))
    else:
        raise ServingError(f"unknown arrival pattern {pattern!r}")
    times = np.cumsum(gaps)
    times -= times[0]  # first request arrives at cycle 0
    return [float(t) for t in times]


class _Lane:
    """One tenant's side of the event loop.

    A lane owns its tenant's arrival trace, dynamic batcher, retry heap
    and backoff base, the records and failures it produced, and the
    sharing bookkeeping a multi-lane run tie-breaks on.  The constructor
    is the one place the loop turns arrival cycles into requests, so it
    is where a trace is validated.
    """

    __slots__ = (
        "index", "trace", "next_trace", "batcher", "retry_heap",
        "backoff_base", "protected", "records", "failures", "retries",
        "vtime", "last_finish", "occupancy",
    )

    def __init__(
        self,
        index: int,
        arrival_cycles: Sequence[float],
        service_model: ServiceModel,
        max_batch: int,
        max_wait_cycles: float,
        retry: RetryPolicy,
        protected: bool = False,
    ):
        cycles = sorted(float(t) for t in arrival_cycles)
        if not cycles:
            raise ServingError("cannot serve an empty arrival trace")
        if not all(map(math.isfinite, cycles)):
            raise ServingError("arrival cycles must be finite (no NaN or inf)")
        if cycles[0] < 0:
            raise ServingError("arrival cycles must be non-negative")
        self.index = index
        # Not-yet-admitted requests, latest first: trace[-1] is next.
        self.trace = [
            InferenceRequest(request_id=i, arrival_cycle=t)
            for i, t in enumerate(cycles)
        ]
        self.trace.reverse()
        self.next_trace = cycles[0]  # trace[-1]'s arrival; inf once drained
        self.batcher = DynamicBatcher(max_batch, max_wait_cycles)
        self.retry_heap: List[Tuple[float, int, InferenceRequest]] = []
        self.backoff_base = retry.backoff_cycles
        if self.backoff_base is None:
            self.backoff_base = 0.25 * service_model.single_image_cycles
        self.protected = protected  # keeps its base queue bound when shedding
        self.records: List[RequestRecord] = []
        self.failures: List[RequestRecord] = []
        self.retries = 0
        self.vtime = 0.0  # weighted-fair virtual time
        self.last_finish = 0.0  # end cycle of the lane's last batch
        self.occupancy = 0.0  # replica cycles the lane consumed

    def pending_cycle(self) -> float:
        """Earliest not-yet-admitted arrival (trace or retry)."""
        heap = self.retry_heap
        if heap and heap[0][0] < self.next_trace:
            return heap[0][0]
        return self.next_trace

    def result(self, replica_stats, **metrics) -> ServingResult:
        """The lane's outcome, records and failures in request order."""
        records = sorted(self.records, key=lambda r: r.request_id)
        failures = sorted(self.failures, key=lambda r: r.request_id)
        return ServingResult(
            records=tuple(records),
            metrics=aggregate_metrics(
                records, replica_stats, failures=failures,
                retries=self.retries, **metrics,
            ),
            failures=tuple(failures),
        )


class _ServingLoop:
    """The event loop shared by every scheduler: lanes on one fleet.

    A flat fleet serves one lane; a shared fleet serves one lane per
    tenant.  The loop owns admission, batching, dispatch, retries,
    failover and the dead-fleet path; subclasses plug in what really
    differs through small hooks:

    * ``_build_replicas`` / ``_execute`` — the executors and how one
      batch runs on them;
    * ``_build_control`` / ``_rebuild_replica`` / ``_control_dead_fleet``
      — how control-plane actions apply to this kind of fleet;
    * ``_lane_key(lane, lanes)`` / ``_activate(lane, lanes, cycle)`` /
      ``_charge(lane, attempt)`` — the sharing discipline: the order of
      lanes whose batches dispatch at the same instant, and its
      bookkeeping when a request joins a lane and after a lane's batch
      ran.  The loop consults them only when several lanes contend, so
      only a scheduler that serves several lanes defines them.
    """

    def __init__(
        self,
        replicas: int,
        policy: Union[str, Policy],
        max_batch: int,
        faults: Union[FaultSpec, str, None],
        fault_seed: int,
        retry: Optional[RetryPolicy],
        max_queue: Optional[int],
        resilience: Optional[ResiliencePolicy],
    ):
        self.policy = Policy(policy)
        self.num_replicas = replicas
        self.max_batch = max_batch
        self.faults = (
            FaultSpec.parse(faults) if isinstance(faults, str) else faults
        )
        self.fault_seed = fault_seed
        self.retry = retry if retry is not None else RetryPolicy()
        if max_queue is not None and max_queue < 1:
            raise ServingError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = max_queue
        self.resilience = resilience

    def _build_injector(self) -> Optional[FaultInjector]:
        """A fresh injector per run (overridable: pipelines add links)."""
        if self.faults is None or self.faults.empty:
            return None
        return FaultInjector(
            self.faults, seed=self.fault_seed, replicas=self.num_replicas
        )

    def _execute(self, replica, batch, clock: float, lane: _Lane, injector):
        """Run one lane's batch on ``replica`` (overridable: shared boards)."""
        return replica.execute_attempt(batch, clock, injector)

    # -- the control plane (inert unless a resilience policy is attached) ----

    def _apply_control(
        self, control: RecoveryController, fleet, lanes: Sequence[_Lane]
    ) -> None:
        """Drain the controller's decisions into the running fleet."""
        for action in control.pop_actions():
            if action.kind == "shrink_batch":
                for lane in lanes:
                    lane.batcher.max_batch = control.max_batch
            elif action.kind == "fallback_swap":
                # Only a controller built with a fallback emits this.
                self._apply_fallback(control, fleet, action.cycle)
            elif action.kind == "shed":
                pass  # admission reads control.tenant_queue_limit directly
            elif action.kind == "rebuild":
                self._rebuild_replica(control, fleet, action.replica,
                                      action.cycle)

    def _control_dead_fleet(
        self, control: RecoveryController, fleet, clock: float, injector,
        lanes: Sequence[_Lane],
    ) -> bool:
        """Give the control plane one shot before the mass-fail fallback.

        Confirms deaths the attempt path never observed (a crash window
        that opened while the replica sat idle) and applies any rebuild
        the controller ordered.  True when a rebuild succeeded — the
        caller should re-pick a target instead of failing the queue.
        """
        if not control.check_dead_fleet(fleet, clock, injector):
            return False
        self._apply_control(control, fleet, lanes)
        return bool(control.rebuilt)

    def _pick_replica(
        self, fleet, rotation: int, clock: float, injector, rebuilt
    ) -> Tuple[Optional[AcceleratorReplica], float]:
        """The policy's target and the cycle it can start new work.

        Without faults this is exactly the classic policy (the ready
        cycle is the target's ``busy_until``).  With faults, each
        replica's ready cycle also skips its down windows; round-robin
        rotates past replicas that are down at their earliest start, and
        a fleet with every replica permanently down returns ``None``.
        """
        if injector is None:
            if self.policy is Policy.ROUND_ROBIN:
                target = fleet[rotation % len(fleet)]
            else:
                target = min(fleet, key=lambda r: (r.busy_until, r.replica_id))
            return target, target.busy_until
        # A rebuilt replica runs the re-planned survivor pipeline: the
        # dead device is no longer part of it, so the original fault
        # schedule does not apply — it bypasses the injector.
        ready = {
            r.replica_id: (
                max(clock, r.busy_until)
                if r.replica_id in rebuilt
                else injector.available_from(
                    r.replica_id, max(clock, r.busy_until)
                )
            )
            for r in fleet
        }
        if all(math.isinf(cycle) for cycle in ready.values()):
            return None, math.inf
        if self.policy is Policy.ROUND_ROBIN:
            for offset in range(len(fleet)):
                candidate = fleet[(rotation + offset) % len(fleet)]
                at = ready[candidate.replica_id]
                # "Up right now": no down window delayed its start.
                if at == max(clock, candidate.busy_until):
                    return candidate, at
            # Everyone is down this instant: take the first to recover.
        target = min(fleet, key=lambda r: (ready[r.replica_id], r.replica_id))
        return target, ready[target.replica_id]

    # -- the event loop ------------------------------------------------------

    def _serve(
        self,
        lanes: Sequence[_Lane],
        fleet,
        injector: Optional[FaultInjector],
        control: Optional[RecoveryController],
    ) -> None:
        """Serve every lane's trace to completion on ``fleet``.

        Outcomes land in each lane's ``records``, ``failures`` and
        ``retries``.  Ties between lanes go to the lowest lane index for
        admission and to :meth:`_lane_key` for dispatch.
        """
        retry = self.retry
        deadline = retry.deadline_cycles
        max_queue = self.max_queue
        multi = len(lanes) > 1
        inf = math.inf
        retry_seq = count()
        rebuilt = control.rebuilt if control is not None else {}
        # Requests not yet completed, failed or shed; requests waiting
        # in some lane's batcher.
        outstanding = sum(len(lane.trace) for lane in lanes)
        queued = 0
        clock = 0.0
        rotation = 0

        def settle(lane: _Lane, requests: Sequence[InferenceRequest],
                   start: float, end: float, replica_id: int,
                   batch_size: int, outcome: str = "failed") -> None:
            """Record final outcomes: the requests leave the system."""
            nonlocal outstanding
            outstanding -= len(requests)
            outcomes = lane.records if outcome == "completed" else lane.failures
            for request in requests:
                outcomes.append(
                    RequestRecord(
                        request_id=request.request_id,
                        arrival_cycle=request.origin_cycle,
                        dispatch_cycle=start,
                        completion_cycle=end,
                        replica_id=replica_id,
                        batch_size=batch_size,
                        attempts=request.attempts,
                        outcome=outcome,
                    )
                )

        def admit(lane: _Lane) -> None:
            """Admit the lane's earliest pending request (retries win ties).

            Fresh arrivals are subject to admission control: with a
            queue bound set and the lane's queue full, the request is
            shed.  Retries are always admitted — they already hold
            completed queueing credit and shedding them would waste the
            backoff — unless their deadline has already passed by
            admission time: the clock can run past a queued retry's
            rearrival (a full batch dispatches without draining the
            admission stream), and a request admitted at or after its
            deadline would only burn a doomed service attempt.
            """
            nonlocal queued
            heap = lane.retry_heap
            if heap and heap[0][0] <= lane.next_trace:
                rearrival, _, request = heappop(heap)
                at = max(clock, rearrival)
                if deadline is not None and at >= request.origin_cycle + deadline:
                    settle(lane, (request,), at, at, -1, 0)
                    return
                if multi:
                    self._activate(lane, lanes, rearrival)
            else:
                trace = lane.trace
                request = trace.pop()
                lane.next_trace = trace[-1].arrival_cycle if trace else inf
                limit = (
                    max_queue
                    if control is None
                    else control.tenant_queue_limit(max_queue, lane.protected)
                )
                if limit is not None and len(lane.batcher) >= limit:
                    at = request.arrival_cycle
                    settle(lane, (request,), at, at, -1, 0, "shed")
                    return
                if multi:
                    self._activate(lane, lanes, request.arrival_cycle)
            lane.batcher.add(request)
            queued += 1

        def earliest() -> Tuple[float, Optional[_Lane]]:
            """Earliest pending arrival of any lane (lowest index wins)."""
            best_cycle, best_lane = inf, None
            for lane in lanes:
                cycle = lane.pending_cycle()
                if cycle < best_cycle:
                    best_cycle, best_lane = cycle, lane
            return best_cycle, best_lane

        while outstanding:
            if not queued:
                # Idle: jump the clock to the next arrival or retry and
                # admit everything due by then.
                due, lane = earliest()
                clock = max(clock, due)
                while due <= clock:
                    admit(lane)
                    due, lane = earliest()
                continue
            target, ready_at = self._pick_replica(
                fleet, rotation, clock, injector, rebuilt
            )
            if target is None:
                # Before declaring the fleet dead, give the control
                # plane one shot: a crash that opened while the fleet
                # sat idle was never seen by the attempt path, and a
                # pipelined fleet can re-plan over the survivors.
                if control is not None and self._control_dead_fleet(
                    control, fleet, clock, injector, lanes
                ):
                    continue
                # Every replica is permanently down: the queues, pending
                # retries, and all future arrivals fail — nothing will
                # ever serve them.
                for lane in lanes:
                    doomed = (
                        [(r.arrival_cycle, r) for r in lane.batcher.pending]
                        + [(c, r) for c, _, r in sorted(lane.retry_heap)]
                        + [(r.arrival_cycle, r) for r in reversed(lane.trace)]
                    )
                    for cycle, request in doomed:
                        at = max(clock, cycle)
                        settle(lane, (request,), at, at, -1, 0)
                break
            # One scan: which lane's batch dispatches first, and when —
            # and the earliest pending arrival among lanes with batch
            # room.  Arrivals at or before the dispatch instant join
            # first (they may fill a batch and move the dispatch
            # earlier); a full lane does not gate admission, so one
            # lane's backlog cannot freeze the others out of contention.
            chosen, dispatch_at = None, inf
            due, due_lane = inf, None
            for lane in lanes:
                batcher = lane.batcher
                if batcher.has_full_batch():
                    at = max(clock, ready_at)
                else:
                    cycle = lane.pending_cycle()
                    if cycle < due:
                        due, due_lane = cycle, lane
                    if not len(batcher):
                        continue
                    at = max(clock, batcher.next_deadline(), ready_at)
                if at < dispatch_at or (
                    at == dispatch_at
                    and self._lane_key(lane, lanes)
                    < self._lane_key(chosen, lanes)
                ):
                    chosen, dispatch_at = lane, at
            if due <= dispatch_at:
                clock = max(clock, due)
                admit(due_lane)
                continue
            clock = dispatch_at
            batch = chosen.batcher.pop_batch(clock)
            queued -= len(batch)
            attempt = self._execute(
                target, batch, clock, chosen,
                # A survivor plan voids the old fault schedule.
                None if target.replica_id in rebuilt else injector,
            )
            rotation += 1
            if control is not None:
                control.observe(
                    target.replica_id, attempt, len(batch), injector
                )
                self._apply_control(control, fleet, lanes)
            if multi:
                self._charge(chosen, attempt)
            if attempt.ok:
                settle(chosen, batch, attempt.start_cycle, attempt.end_cycle,
                       target.replica_id, len(batch), "completed")
                continue
            # The batch failed (crash or transient): retry each request
            # with exponential backoff until its attempts or deadline
            # run out.  Re-arrivals merge back into the admission stream,
            # so surviving replicas pick the work up — failover.
            for request in batch:
                rearrival = attempt.end_cycle + retry.backoff(
                    request.attempts, chosen.backoff_base
                )
                if request.attempts >= retry.max_attempts or (
                    deadline is not None
                    and rearrival >= request.origin_cycle + deadline
                ):
                    settle(chosen, (request,), attempt.start_cycle,
                           attempt.end_cycle, target.replica_id, len(batch))
                else:
                    chosen.retries += 1
                    heappush(
                        chosen.retry_heap,
                        (rearrival, next(retry_seq), request.retry_at(rearrival)),
                    )


class FleetScheduler(_ServingLoop):
    """Serves request traces against N replicas of one compiled design.

    The one-lane case of the shared event loop.
    """

    def __init__(
        self,
        service_model: ServiceModel,
        replicas: int = 1,
        policy: Union[str, Policy] = Policy.LEAST_LOADED,
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        frequency_hz: float = 1e6,
        ops_per_request: float = 0.0,
        reference_gops: float = 0.0,
        faults: Union[FaultSpec, str, None] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_queue: Optional[int] = None,
        slo_cycles: Optional[float] = None,
        resilience: Optional[ResiliencePolicy] = None,
        fallback_model: Optional[ServiceModel] = None,
        fallback_swap_cycles: float = 0.0,
    ):
        """
        Args:
            service_model: Batched timing model of the compiled strategy.
            replicas: Number of identical accelerator instances.
            policy: ``round_robin`` or ``least_loaded``.
            max_batch: Dynamic batching size cap.
            max_wait_cycles: Deadline for partial batches; defaults to
                half the single-image latency — small enough that an
                idle fleet stays interactive, large enough to form
                batches under load.
            frequency_hz: Accelerator clock, for seconds-based metrics.
            ops_per_request: Arithmetic ops one request represents.
            reference_gops: The optimizer's analytic effective GOPS of
                one replica, reported next to the achieved number.
            faults: Fault schedule (:class:`FaultSpec` or the CLI spec
                string); None or an empty spec leaves behaviour
                bit-identical to an unfaulted fleet.
            fault_seed: Seed of the transient-failure draws.
            retry: Retry/backoff/deadline policy for failed batches.
            max_queue: Admission-control bound — arrivals finding this
                many requests already pending are shed (retries are
                always admitted).  None: unbounded queue.
            slo_cycles: Latency SLO for the attainment metric.
            resilience: Control-plane policy (:mod:`repro.resilience`).
                None leaves the classic loop untouched; with a policy
                attached and zero faults, the monitor observes but never
                acts, so the run stays bit-identical.
            fallback_model: Lower-resource service model pre-compiled at
                plan time; the ladder's warm-swap rung serves it.
            fallback_swap_cycles: Virtual-clock price of one warm swap
                (the fallback strategy's weight-transfer cost).
        """
        super().__init__(replicas, policy, max_batch, faults, fault_seed,
                         retry, max_queue, resilience)
        if max_wait_cycles is None:
            max_wait_cycles = 0.5 * service_model.single_image_cycles
        self.service_model = service_model
        self.max_wait_cycles = max_wait_cycles
        self.frequency_hz = frequency_hz
        self.ops_per_request = ops_per_request
        self.reference_gops = reference_gops
        if slo_cycles is not None and slo_cycles <= 0:
            raise ServingError(f"slo_cycles must be positive, got {slo_cycles}")
        self.slo_cycles = slo_cycles
        self.fallback_model = fallback_model
        self.fallback_swap_cycles = fallback_swap_cycles
        if fallback_swap_cycles < 0:
            raise ServingError("fallback_swap_cycles must be >= 0")
        self._active_control: Optional[RecoveryController] = None
        # build_fleet validates replicas >= 1; the batcher validates
        # max_batch / max_wait_cycles; building the injector validates
        # the fault spec against the fleet shape.
        build_fleet(service_model, replicas)
        DynamicBatcher(max_batch, max_wait_cycles)
        self._build_injector()

    @classmethod
    def for_strategy(
        cls,
        strategy: Strategy,
        replicas: int = 1,
        policy: Union[str, Policy] = Policy.LEAST_LOADED,
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        faults: Union[FaultSpec, str, None] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_queue: Optional[int] = None,
        slo_cycles: Optional[float] = None,
        resilience: Optional[ResiliencePolicy] = None,
        fallback: Optional[Strategy] = None,
        verify: bool = True,
    ) -> "FleetScheduler":
        """Build a fleet serving ``strategy``, metrics wired to its device.

        ``verify`` (default on) runs the strategy invariant validators at
        admission, so a stale or hand-edited artifact is rejected with a
        :class:`~repro.errors.VerificationError` before it serves traffic;
        the serving behaviour itself is unchanged either way.

        ``fallback`` is a lower-resource strategy for the same network
        and device, pre-compiled at plan time; the control plane's
        warm-swap rung serves it, charging the swap at the fallback's
        weight-transfer cost.  Requires ``resilience``.
        """
        if verify:
            from repro.check.invariants import verify_strategy

            verify_strategy(strategy).raise_if_failed()
        fallback_model = None
        fallback_swap = 0.0
        if fallback is not None:
            if resilience is None:
                raise ServingError(
                    "a fallback strategy needs a resilience policy"
                )
            if verify:
                from repro.check.invariants import verify_strategy

                verify_strategy(fallback).raise_if_failed()
            fallback_model = build_service_model(fallback)
            device = strategy.device
            fallback_swap = (
                fallback.weight_transfer_bytes
                / device.bandwidth_bytes_per_s
                * device.frequency_hz
            )
        return cls(
            build_service_model(strategy),
            replicas=replicas,
            policy=policy,
            max_batch=max_batch,
            max_wait_cycles=max_wait_cycles,
            frequency_hz=strategy.device.frequency_hz,
            ops_per_request=strategy.total_ops,
            reference_gops=strategy.effective_gops(),
            faults=faults,
            fault_seed=fault_seed,
            retry=retry,
            max_queue=max_queue,
            slo_cycles=slo_cycles,
            resilience=resilience,
            fallback_model=fallback_model,
            fallback_swap_cycles=fallback_swap,
        )

    @classmethod
    def for_graph_strategy(
        cls,
        strategy,
        replicas: int = 1,
        policy: Union[str, Policy] = Policy.LEAST_LOADED,
        max_batch: int = 8,
        max_wait_cycles: Optional[float] = None,
        faults: Union[FaultSpec, str, None] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_queue: Optional[int] = None,
        slo_cycles: Optional[float] = None,
        resilience: Optional[ResiliencePolicy] = None,
        verify: bool = True,
    ) -> "FleetScheduler":
        """Build a fleet serving a branch-aware graph strategy.

        Identical to :meth:`for_strategy` except the service model comes
        from the graph strategy's per-segment flattening and admission
        verification runs the branch-aware validators (branch coverage,
        join transfer accounting).
        """
        if verify:
            from repro.check.invariants import verify_graph_strategy

            verify_graph_strategy(strategy).raise_if_failed()
        from repro.sim.graph import build_graph_service_model

        return cls(
            build_graph_service_model(strategy),
            replicas=replicas,
            policy=policy,
            max_batch=max_batch,
            max_wait_cycles=max_wait_cycles,
            frequency_hz=strategy.device.frequency_hz,
            ops_per_request=strategy.total_ops,
            reference_gops=strategy.effective_gops(),
            faults=faults,
            fault_seed=fault_seed,
            retry=retry,
            max_queue=max_queue,
            slo_cycles=slo_cycles,
            resilience=resilience,
        )

    # -- capacity helpers ----------------------------------------------------

    def per_request_capacity_cycles(self) -> float:
        """Cycles one request costs a replica when batches run full."""
        return self.service_model.batch_cycles(self.max_batch) / self.max_batch

    def saturating_interarrival(self, load: float = 1.0) -> float:
        """Mean interarrival that offers ``load`` x one replica's peak rate."""
        if load <= 0:
            raise ServingError(f"load must be positive, got {load}")
        return self.per_request_capacity_cycles() / load

    # -- executors -----------------------------------------------------------

    def _build_replicas(self) -> List[AcceleratorReplica]:
        """The executors one run dispatches to (overridable: pipelines)."""
        return build_fleet(self.service_model, self.num_replicas)

    def _collect_stats(self, fleet) -> List:
        """Per-executor stats for the metrics (overridable: per stage)."""
        return [replica.stats() for replica in fleet]

    # -- the control plane (inert unless a resilience policy is attached) ----

    def _build_control(self) -> Optional[RecoveryController]:
        """A fresh controller per run; None without a resilience policy."""
        if self.resilience is None:
            return None
        return RecoveryController(
            self.resilience,
            num_replicas=self.num_replicas,
            base_max_batch=self.max_batch,
            base_max_queue=self.max_queue,
            fallback_available=self.fallback_model is not None,
            latency_trigger=True,
            baseline_fn=self.service_model.batch_cycles,
        )

    def _apply_fallback(
        self, control: RecoveryController, fleet, cycle: float
    ) -> None:
        """Warm-swap every replica to the pre-compiled fallback strategy.

        The swap is charged on the virtual clock at the fallback's
        weight-transfer cost: each replica finishes its in-flight batch,
        then spends ``fallback_swap_cycles`` loading weights before it
        accepts new work.
        """
        for replica in fleet:
            replica.service_model = self.fallback_model
            replica.busy_until = (
                max(replica.busy_until, cycle) + self.fallback_swap_cycles
            )
        control.set_default_baseline(self.fallback_model.batch_cycles)

    def _rebuild_replica(
        self, control: RecoveryController, fleet, replica_id: int,
        cycle: float,
    ) -> None:
        """A flat fleet has no survivor plan to rebuild from: there is
        one device per replica and a dead device stays dead — retries
        fail over to the surviving replicas instead (overridden by
        pipelined fleets, which re-partition over the survivors)."""
        control.note_rebuild_failed(
            replica_id, cycle,
            "flat fleet: no survivor plan (failover handles the loss)",
        )

    def run(
        self,
        arrival_cycles: Sequence[float],
        arrival: Optional[dict] = None,
    ) -> ServingResult:
        """Serve an arrival trace to completion and aggregate metrics.

        ``arrival`` is optional self-describing provenance of the trace
        (process name, parameters, seed) stamped verbatim into the
        metrics so a ``--json`` payload alone suffices to replay the
        run; it does not affect scheduling.
        """
        lane = _Lane(0, arrival_cycles, self.service_model, self.max_batch,
                     self.max_wait_cycles, self.retry)
        fleet = self._build_replicas()
        injector = self._build_injector()
        control = self._build_control()
        self._active_control = control
        self._serve([lane], fleet, injector, control)
        result = lane.result(
            self._collect_stats(fleet),
            frequency_hz=self.frequency_hz,
            ops_per_request=self.ops_per_request,
            single_image_cycles=self.service_model.single_image_cycles,
            reference_gops=self.reference_gops,
            slo_cycles=self.slo_cycles,
            arrival=arrival,
            recovery=(
                control.finalize(lane.records, self.frequency_hz)
                if control is not None
                else None
            ),
        )
        self._active_control = None
        return result

    def run_open_loop(
        self,
        num_requests: int,
        load: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        pattern: str = "poisson",
        seed: Optional[int] = None,
    ) -> ServingResult:
        """Serve a synthetic open-loop trace.

        ``load`` is the offered rate relative to one replica's peak
        full-batch throughput: ``load=1.0`` saturates a single replica,
        ``load=4.0`` offers enough traffic to keep four busy.

        Pass ``seed`` instead of ``rng`` to both seed the trace and
        stamp full replay provenance (process, parameters, seed) into
        the resulting metrics; an explicit ``rng`` wins but leaves the
        seed field of the provenance unset.
        """
        known_seed: Optional[int] = None
        if rng is None:
            known_seed = 0 if seed is None else seed
            rng = np.random.default_rng(known_seed)
        mean_gap = self.saturating_interarrival(load)
        arrivals = synthetic_arrivals(num_requests, mean_gap, rng, pattern)
        meta = {
            "process": pattern,
            "seed": known_seed,
            "load": load,
            "num_requests": num_requests,
            "mean_interarrival_cycles": mean_gap,
        }
        return self.run(arrivals, arrival=meta)
