"""The benchmark's workloads: set-up, one operation, its gate, deployment.

Each workload drives the public ``repro`` API from one process.  A run
sets the workload up :data:`SETUP_REPS` times (``setup_s`` is the
median), repeats its operation for the measured window, gates every
operation for correctness, and ends by *deploying* its primary design:
a functional simulation checked against the reference forward pass and
a seeded open-loop serving bundle (:func:`serve_bundle`).  ``sim-serve``
is the exception: its operation *is* the serving bundle, so its
deployment is the simulation alone.

The compile workloads use the paper's fixed case-study inputs; the seed
drives only the simulation data and weights, the arrival traces and the
fault draws.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import speed
from repro.capacity.multitenant import MultiTenantScheduler, Tenant
from repro.check import invariants
from repro.codegen import generator
from repro.hardware.device import get_device
from repro.nn import caffe, models
from repro.nn.functional import forward, init_weights
from repro.optimizer.dp import optimize_many
from repro.optimizer.serialize import strategy_from_dict
from repro.partition.plan import plan_from_dict
from repro.perf.cost import EvalContext, SearchTelemetry
from repro.resilience import ResiliencePolicy
from repro.serve import scheduler
from repro.serve.scheduler import FleetScheduler
from repro.sim import simulator
from repro.traffic import arrivals
import repro.toolflow as toolflow

MB = 2**20

#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPS = 3

#: Figure 5 transfer constraints and the committed modeled latencies
#: (``benchmarks/results/fig5_vgg.txt``).  A lower latency passes the
#: gate: an exact search may beat today's budget-capped incumbent.
FIG5_CYCLES = {2: 2_600_192, 4: 2_600_192, 8: 2_211_112, 16: 2_146_936,
               32: 2_146_936}

#: Table 2: AlexNet at 340 KB (``benchmarks/results/table2_alexnet.txt``).
ALEXNET_TRANSFER = 340 * 1024
ALEXNET_CYCLES = 2_742_835

#: ``sweep_grid`` pass: 12 points, 6 of them partitioned over 2 boards.
GRID_SPEC = {
    "models": ["vgg_e", "tiny_cnn"],
    "devices": ["zc706"],
    "transfer_bytes": [2 * MB, 8 * MB, 32 * MB],
    "fleet_sizes": [1, 2],
}

#: Simulator vs reference forward tolerance (``tests/test_simulator.py``).
SIM_ATOL = 1e-9

# Serving bundle.  Fleet, SLO, loads and fault spec are the repository's
# serving benchmarks' own (benchmarks/test_chaos_serving.py,
# test_chaos_recovery.py, test_serving_throughput.py, test_capacity.py);
# only the request counts are larger, so a run's p99 and SLO attainment
# hold steady from seed to seed.
REPLICAS = 4
MAX_BATCH = 8
MAX_QUEUE = 4 * MAX_BATCH  # the chaos benchmarks' admission bound
POLICY = "least_loaded"
SLO_FACTOR = 20.0  # SLO = 20 x single-image latency
#: Offered load in units of one replica's peak full-batch rate:
#: half the fleet (the chaos-recovery pipeline run), the whole fleet
#: (the chaos benchmarks), 1.5 x the fleet (the throughput benchmark).
LOAD_BELOW = 2.0
LOAD_FULL = 4.0
LOAD_ABOVE = 6.0
#: The chaos-serving acceptance scenario: 10% transient batch failures
#: plus replica 1 crashing at half the clean run's makespan for a
#: quarter of it.
FAULTS = "transient:p=0.1;crash:replica=1,at={at:.0f},down={down:.0f}"
#: Requests of the half-load run, which ``served_p99_cycles`` reads,
#: and of each other fleet run.
REQUESTS_BELOW = 16000
REQUESTS = 2000
#: Multi-tenant run (test_capacity.py's plan): one board, max batch 1,
#: uniform weighted-fair shares, each tenant offering one request per
#: six single-image service times of the primary model.  (At six of its
#: own, tiny_cnn -- 4,000 x faster -- would be done before the primary's
#: trace had begun, and the tenants would never share the board.)
TENANT_REPLICAS = 1
TENANT_MAX_BATCH = 1
TENANT_GAP = 6.0
TENANT_REQUESTS = 1000


def vgg_prototxt() -> str:
    """The paper's VGG-E 7-layer prefix, as the prototxt a user feeds."""
    return caffe.network_to_prototxt(models.vgg_fused_prefix())


def compile_second_tenant() -> "toolflow.CompileResult":
    """The small co-tenant model every serving bundle shares boards with."""
    text = caffe.network_to_prototxt(models.tiny_cnn())
    return toolflow.compile_model(text, "zc706", context=EvalContext())


def search_counters(stats: SearchTelemetry) -> Dict[str, float]:
    """The per-layer counters an ``EvalContext`` keeps for itself."""
    return {
        "perf.evaluations": stats.evaluations,
        "perf.hit_rate": stats.hit_rate,
        "optimizer.bnb_groups": stats.groups_searched,
        "optimizer.bnb_nodes_visited": stats.nodes_visited,
        "optimizer.bnb_nodes_pruned": stats.nodes_pruned,
    }


# -- outcome records ---------------------------------------------------------


@dataclass
class OpOutcome:
    """What one operation returned, for the gate and the metrics."""

    #: Strategies the operation returned (verified by the gate).
    strategies: list = field(default_factory=list)
    #: Summed modeled latency of every returned design.
    design_latency_cycles: int = 0
    #: Per-layer counters from the program's own telemetry.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Serving bundle result (``sim-serve`` operations only).
    bundle: Optional["BundleResult"] = None
    #: Lines the run prints about the operation's output.
    notes: List[str] = field(default_factory=list)
    #: Workload-private output its gate reads.
    payload: object = None


@dataclass
class BundleResult:
    """Outcome of one serving bundle: SLO attainment pooled over every
    offered request, p99 latency of the below-saturation run."""

    offered: int
    within_slo: float
    p99_cycles: float
    counters: Dict[str, float]
    #: Every run's metrics: equal bundles served identically.
    digest: tuple

    @property
    def slo_attainment(self) -> float:
        return self.within_slo / self.offered


# -- serving -----------------------------------------------------------------


def _account(result, offered: int, failures: List[str], label: str) -> float:
    """Requests of one serving run done within its SLO, after checking
    that every offered request completed, failed or was shed."""
    metrics = result.metrics
    if metrics.offered != offered:
        failures.append(
            f"{label}: completed {metrics.requests} + failed "
            f"{metrics.failed} + shed {metrics.shed} != offered {offered}"
        )
    return metrics.slo_attainment * metrics.requests


def serve_bundle(primary, second, seed: int,
                 failures: List[str]) -> BundleResult:
    """Serve seeded open-loop traffic on ``primary`` five ways.

    Four replicas at half, full and 1.5 x fleet load, the full-load
    trace again under the chaos-serving fault spec with the resilience
    control plane attached, and a two-tenant weighted-fair run sharing
    one board with ``second``.  Failed and shed requests count as SLO
    misses.
    """

    single = simulator.build_service_model(primary).single_image_cycles
    slo = SLO_FACTOR * single

    def fleet(**extra):
        return FleetScheduler.for_strategy(
            primary, replicas=REPLICAS, max_batch=MAX_BATCH, policy=POLICY,
            max_queue=MAX_QUEUE, slo_cycles=slo, **extra,
        )

    base = fleet()
    offered = 0
    within = 0.0
    runs = []
    for label, load, stream, count in (
        ("below", LOAD_BELOW, 1, REQUESTS_BELOW),
        ("full", LOAD_FULL, 2, REQUESTS),
        ("above", LOAD_ABOVE, 3, REQUESTS),
    ):
        trace = scheduler.synthetic_arrivals(
            count, base.saturating_interarrival(load),
            np.random.default_rng([seed, stream]),
        )
        runs.append(base.run(trace))
        within += _account(runs[-1], count, failures, label)
        offered += count
        if label == "full":
            full_trace = trace
    makespan = runs[1].metrics.makespan_cycles
    faulted = fleet(
        faults=FAULTS.format(at=makespan / 2, down=makespan / 4),
        fault_seed=seed, resilience=ResiliencePolicy(),
    ).run(full_trace)
    runs.append(faulted)
    within += _account(faulted, len(full_trace), failures, "faulted")
    offered += len(full_trace)

    members, traces = [], {}
    # The traffic grammar's gaps are at its 100 MHz reference clock.
    ref_scale = arrivals.REFERENCE_FREQUENCY_HZ / base.frequency_hz
    gap = TENANT_GAP * single * ref_scale
    for index, (name, strategy) in enumerate(
            (("primary", primary), ("second", second))):
        own = simulator.build_service_model(strategy).single_image_cycles
        members.append(Tenant.for_strategy(name, strategy,
                                           slo_cycles=SLO_FACTOR * own))
        traces[name] = arrivals.generate_arrivals(
            f"poisson:mean={gap:.3f}", TENANT_REQUESTS,
            seed=seed * 10 + 4 + index, scale=1 / ref_scale,
        )
    shared = MultiTenantScheduler(
        members, replicas=TENANT_REPLICAS, policy=POLICY,
        sharing="weighted_fair", max_batch=TENANT_MAX_BATCH,
    ).run(traces)
    for name, result in shared.per_tenant.items():
        within += _account(result, len(traces[name]), failures,
                           f"tenant {name}")
        offered += len(traces[name])

    flat = [run.metrics for run in runs]
    served = sum(m.requests for m in flat)
    recovery = faulted.metrics.recovery
    counters = {
        "serve.batches": sum(s.batches for m in flat for s in m.replica_stats),
        "serve.mean_batch": sum(m.mean_batch_size * m.requests
                                for m in flat) / served,
        "serve.retries": sum(m.retries for m in flat),
        "serve.shed": sum(m.shed for m in flat),
        "capacity.mt_swaps": shared.swaps,
        "resilience.transitions": len(recovery["events"]) if recovery else 0,
    }
    return BundleResult(
        offered=offered,
        within_slo=within,
        p99_cycles=flat[0].p99_latency_cycles,
        counters=counters,
        digest=tuple(flat) + tuple(r.metrics
                                   for r in shared.per_tenant.values()),
    )


# -- simulation --------------------------------------------------------------


@dataclass
class Deployment:
    """The primary design a workload deploys, with its seeded inputs."""

    strategy: object
    second: object
    data: np.ndarray
    weights: dict


def seeded_inputs(network, seed: int):
    """Seeded weights and input image for ``network``."""
    rng = np.random.default_rng([seed, 7])
    weights = init_weights(network, rng)
    data = rng.normal(size=network.input_spec.shape)
    return data, weights


def simulate(deployment: Deployment):
    """Functional simulation of the deployed design on its seeded data."""
    return simulator.simulate_strategy(
        deployment.strategy, deployment.data, deployment.weights
    )


def check_simulation(deployment: Deployment, result,
                     failures: List[str]) -> None:
    """The simulation's output must equal
    :func:`repro.nn.functional.forward` on the same data and weights."""
    expected = forward(deployment.strategy.network, deployment.data,
                       deployment.weights)
    if not np.allclose(result.output, expected, rtol=1e-7, atol=SIM_ATOL):
        worst = float(np.max(np.abs(result.output - expected)))
        failures.append(f"simulation differs from forward by {worst:.3g}")


# -- workloads ---------------------------------------------------------------


class Workload:
    """One benchmark workload (see ``perfbench/README.md`` for the why)."""

    name = ""
    #: True when the operation itself is the serving bundle.
    serves_in_ops = False
    #: Set-up and operations fan out to worker processes, whose cores
    #: the driving process's speed probe cannot see: their times are
    #: normalized by :attr:`speed_scale` instead.
    fans_out = False
    #: Normalized over raw seconds of the last fanned-out pass, from the
    #: probes its workers took (``speed.sweep_scale``).
    speed_scale = 1.0

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self):
        raise NotImplementedError

    def op(self, state) -> OpOutcome:
        raise NotImplementedError

    def check(self, state, outcome: OpOutcome) -> List[str]:
        """Correctness gate of one operation: the list of violations."""
        raise NotImplementedError

    def deployment(self, state, outcome: OpOutcome) -> Deployment:
        raise NotImplementedError


class Fig5Sweep(Workload):
    """Fig. 5: VGG-E prefix on ZC706 under 2/4/8/16/32 MB."""

    name = "fig5-sweep"

    def setup(self):
        text = vgg_prototxt()
        second = compile_second_tenant()
        return {"text": text, "device": get_device("zc706"),
                "second": second.strategy}

    def op(self, state) -> OpOutcome:
        network = caffe.model_from_prototxt(state["text"])
        constraints = [mb * MB for mb in FIG5_CYCLES]
        context = EvalContext()
        strategies = optimize_many(
            network, state["device"], constraints, context=context
        )
        failures: List[str] = []
        for strategy, constraint in zip(strategies, constraints):
            report = invariants.verify_strategy(
                strategy, transfer_constraint_bytes=constraint
            )
            failures += [str(v) for v in report.violations]
            generator.generate_project(strategy)
        return OpOutcome(
            strategies=strategies,
            design_latency_cycles=sum(s.latency_cycles for s in strategies),
            counters=search_counters(context.stats),
            payload=failures,
        )

    def check(self, state, outcome: OpOutcome) -> List[str]:
        failures = list(outcome.payload)
        for (mb, committed), strategy in zip(FIG5_CYCLES.items(),
                                             outcome.strategies):
            if strategy.latency_cycles > committed:
                failures.append(
                    f"{mb} MB: {strategy.latency_cycles:,} cycles > "
                    f"committed {committed:,}"
                )
        return failures

    def deployment(self, state, outcome: OpOutcome) -> Deployment:
        strategy = outcome.strategies[0]
        data, weights = seeded_inputs(strategy.network, self.seed)
        return Deployment(strategy, state["second"], data, weights)


class AlexnetDeep(Workload):
    """Table 2: a cold ``compile_model`` of AlexNet at 340 KB on ZC706."""

    name = "alexnet-deep"

    def setup(self):
        second = compile_second_tenant()
        return {"network": models.alexnet(), "second": second.strategy}

    def op(self, state) -> OpOutcome:
        # compile_model runs verify_strategy and raises on a violation.
        context = EvalContext()
        result = toolflow.compile_model(
            state["network"], "zc706", ALEXNET_TRANSFER, context=context
        )
        return OpOutcome(
            strategies=[result.strategy],
            design_latency_cycles=result.strategy.latency_cycles,
            counters=search_counters(context.stats),
        )

    def check(self, state, outcome: OpOutcome) -> List[str]:
        latency = outcome.design_latency_cycles
        if latency > ALEXNET_CYCLES:
            return [f"AlexNet: {latency:,} cycles > committed "
                    f"{ALEXNET_CYCLES:,}"]
        return []

    def deployment(self, state, outcome: OpOutcome) -> Deployment:
        strategy = outcome.strategies[0]
        data, weights = seeded_inputs(strategy.network, self.seed)
        return Deployment(strategy, state["second"], data, weights)


class GridWarm(Workload):
    """A warm ``sweep_grid`` pass against a store a cold pass filled."""

    name = "grid-warm"
    fans_out = True

    def __init__(self, seed: int, scratch: Path, workers: int):
        super().__init__(seed, scratch)
        self.workers = workers
        self._passes = 0

    def _out(self, kind: str) -> Path:
        self._passes += 1
        return self.scratch / f"{kind}-{self._passes}"

    def _sweep(self, out: Path, store: Path):
        """One ``sweep_grid`` pass; sets :attr:`speed_scale` from it."""
        with speed.probing_sweep_points():
            result = toolflow.sweep_grid(GRID_SPEC, out, store=store,
                                         workers=self.workers)
        self.speed_scale = speed.sweep_scale(result.records)
        return result

    def setup(self):
        store = self._out("store")
        cold = self._sweep(self._out("cold"), store)
        network = caffe.model_from_prototxt(vgg_prototxt())
        second = compile_second_tenant()
        return {"store": store, "cold": cold, "network": network,
                "second": second.strategy, "verified": False}

    def op(self, state) -> OpOutcome:
        out = self._out("warm")
        result = self._sweep(out, state["store"])
        shutil.rmtree(out, ignore_errors=True)
        latency = 0
        stats = SearchTelemetry()  # summed over the points' telemetry
        for record in result.records:
            body = record.get("result") or {}
            if body.get("kind") == "strategy":
                latency += body["strategy"]["latency_cycles"]
            elif body.get("kind") == "partition_plan":
                latency += sum(stage["strategy"]["latency_cycles"]
                               for stage in body["plan"]["stages"])
            for name, value in (body.get("telemetry") or {}).items():
                if isinstance(getattr(stats, name, None), int):
                    setattr(stats, name, getattr(stats, name) + value)
        counters = {
            **search_counters(stats),
            "dse.store_hit_rate": result.store_hit_rate,
            "dse.workers_spawned": result.supervision.get("workers_spawned", 0),
            "dse.requeues": result.supervision.get("requeues", 0),
            "partition.stage_queries": stats.partition_stage_queries,
            "partition.cuts_considered": stats.partition_cuts_considered,
        }
        return OpOutcome(
            design_latency_cycles=latency, counters=counters,
            notes=[f"records_digest {result.records_digest()}"],
            payload=result,
        )

    def check(self, state, outcome: OpOutcome) -> List[str]:
        result = outcome.payload
        failures = [f"{r['point_id']}: {r['error']}"
                    for r in result.records if not r.get("ok")]
        if result.records_digest() != state["cold"].records_digest():
            failures.append("warm records_digest differs from the cold pass")
        if not state["verified"] and not failures:
            # Equal digests mean every later pass returned exactly these
            # records, so verifying them once per run covers every pass.
            failures += self._verify_records(result.records)
            state["verified"] = True
        return failures

    def _verify_records(self, records) -> List[str]:
        failures: List[str] = []
        networks = {name: models.catalog()[name]().accelerated_prefix()
                    for name in GRID_SPEC["models"]}
        for record in records:
            body, point = record["result"], record["point"]
            network = networks[point["model"]]
            if body["kind"] == "strategy":
                strategy = strategy_from_dict(body["strategy"], network)
                report = invariants.verify_strategy(
                    strategy, transfer_constraint_bytes=point["transfer_bytes"]
                )
                # The single-board VGG-E points are Fig. 5 problems.
                committed = (FIG5_CYCLES.get(point["transfer_bytes"] // MB)
                             if point["model"] == "vgg_e" else None)
                if committed and strategy.latency_cycles > committed:
                    failures.append(f"{record['point_id']}: "
                                    f"{strategy.latency_cycles:,} > "
                                    f"{committed:,}")
            else:
                plan = plan_from_dict(body["plan"], network)
                report = invariants.verify_plan(plan)
            failures += [str(v) for v in report.violations]
        return failures

    def deployment(self, state, outcome: OpOutcome) -> Deployment:
        """The 2 MB single-board VGG-E point, rebuilt from its record and
        taken to hardware: HLS project, simulation, serving."""
        record = next(
            r for r in outcome.payload.records
            if r["point"]["model"] == "vgg_e"
            and r["point"]["fleet_size"] == 1
            and r["point"]["transfer_bytes"] == 2 * MB
        )
        strategy = strategy_from_dict(record["result"]["strategy"],
                                      state["network"])
        generator.generate_project(strategy)
        data, weights = seeded_inputs(strategy.network, self.seed)
        return Deployment(strategy, state["second"], data, weights)


class SimServe(Workload):
    """Functional simulation plus seeded open-loop serving operations."""

    name = "sim-serve"
    serves_in_ops = True

    def setup(self):
        vgg = toolflow.compile_model(
            vgg_prototxt(), "zc706", 2 * MB, context=EvalContext()
        )
        second = compile_second_tenant()
        data, weights = seeded_inputs(vgg.strategy.network, self.seed)
        return {"deployment": Deployment(vgg.strategy, second.strategy,
                                         data, weights)}

    def op(self, state) -> OpOutcome:
        deployment = state["deployment"]
        failures: List[str] = []
        bundle = serve_bundle(deployment.strategy, deployment.second,
                              self.seed, failures)
        return OpOutcome(
            design_latency_cycles=deployment.strategy.latency_cycles
            + deployment.second.latency_cycles,
            bundle=bundle,
            payload=failures,
        )

    def check(self, state, outcome: OpOutcome) -> List[str]:
        failures = list(outcome.payload)
        first = state.setdefault("first_digest", outcome.bundle.digest)
        if outcome.bundle.digest != first:
            failures.append("serving bundle differs from the run's first "
                            "on identical seeded traffic")
        return failures

    def deployment(self, state, outcome: OpOutcome) -> Deployment:
        return state["deployment"]


def make_workload(name: str, seed: int, scratch: Path,
                  workers: int) -> Workload:
    if name == GridWarm.name:
        return GridWarm(seed, scratch, workers)
    for cls in (Fig5Sweep, AlexnetDeep, SimServe):
        if cls.name == name:
            return cls(seed, scratch)
    raise KeyError(name)

