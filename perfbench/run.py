"""Run one benchmark workload; the last stdout line is the JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` wraps every layer's public entry points, alternates traced
and untraced operations (their median ratio is the tracing overhead),
reports the per-layer metrics, prints the per-layer self-time table and
writes the spans to ``perfbench/out/trace-<workload>-seed<n>.json``.
See ``perfbench/README.md``.
"""

import time

_STARTED = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: A compile workload's deployment serves bundles for at least this
#: long (and at least three); ``sim_req_per_s`` is their median rate.
DEPLOY_SERVE_S = 5.0

WORKLOADS = ("fig5-sweep", "alexnet-deep", "grid-warm", "sim-serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured window (at least one operation runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples):
    """(value, percentile, count): the highest percentile with at least
    ten samples beyond it.  Below 20 samples that percentile would fall
    under the median, so p90 (interpolated between samples) stands in:
    the maximum of a dozen operations swung 10-20% between runs."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0], 90.0, n
    if n < 20:
        p90 = statistics.quantiles(ordered, n=10, method="inclusive")[8]
        return p90, 90.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def sweep_workers() -> int:
    """Sweep worker processes: two, never more than the CPUs we may use."""
    return min(2, len(os.sched_getaffinity(0)))


def load_modules():
    """Put ``src/`` and this directory on ``sys.path`` and import the
    benchmark modules; None when the checkout has no ``src/repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import speed
    import tracing
    import workloads

    return speed, tracing, workloads


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Drives one workload: set-ups, the measured window, deployment."""

    def __init__(self, args, modules, scratch: Path):
        self.args = args
        self.speed, self.tr, self.wl = modules
        self.workload = self.wl.make_workload(
            args.workload, args.seed, scratch, workers=sweep_workers()
        )
        self.recorder = self.tr.Recorder()
        self._undo = None
        self.failures = []
        self.attempted = 0
        self.failed = 0

    # tracing on/off between operations
    def _traced(self, on: bool) -> None:
        if on and self._undo is None:
            self._undo = self.tr.instrument(self.recorder)
        elif not on and self._undo is not None:
            self.tr.uninstrument(self._undo)
            self._undo = None

    def _fanned(self, raw, norm):
        """A fanned-out call's time is normalized by its workers' probes."""
        if self.workload.fans_out:
            return raw * self.workload.speed_scale
        return norm

    def _gate(self, label, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += [f"{label}: {f}" for f in failures]

    def run(self):
        trace = bool(self.args.trace)
        self._traced(trace)
        setups = []
        for rep in range(self.wl.SETUP_REPS):
            self.recorder.op = f"setup-{rep}"
            state, raw, norm = self.speed.timed(self.workload.setup)
            setups.append(self._fanned(raw, norm))

        # (raw s, normalized s) per operation, untraced and traced
        times, traced_times, outcomes = [], [], []
        window = time.perf_counter()
        index = 0
        while (index < (2 if trace else 1)
               or time.perf_counter() - window < self.args.seconds):
            traced_op = trace and index % 2 == 0
            self._traced(traced_op)
            self.recorder.op = f"op-{index}"
            try:
                outcome, raw, norm = self.speed.timed(
                    lambda: self.workload.op(state))
            except Exception:
                self._gate(f"op {index}", [traceback.format_exc(limit=3)])
                index += 1
                continue
            norm = self._fanned(raw, norm)
            (traced_times if traced_op else times).append((raw, norm))
            self.recorder.op = f"gate-{index}"
            self._gate(f"op {index}", self.workload.check(state, outcome))
            outcomes.append(outcome)
            index += 1
        if not outcomes:
            raise RuntimeError("no operation completed:\n"
                               + "\n".join(self.failures))
        self._traced(trace)
        self.recorder.op = "deploy"
        deploy = self.deploy(state, outcomes[-1])
        self._traced(False)
        return setups, times, traced_times, outcomes, deploy

    def deploy(self, state, outcome):
        """Simulate the primary design; compile workloads also serve it.

        Peak memory is read before the reference forward pass the
        simulation is checked against: that pass is the benchmark's,
        and its high-water mark varies with the allocator's state.
        """
        failures = []
        deployment = self.workload.deployment(state, outcome)
        gc.collect()  # drop the operations' garbage before the high-water mark
        simulation, *simulate_s = self.speed.timed(
            lambda: self.wl.simulate(deployment))
        bundles, rates = [], []
        if not self.workload.serves_in_ops:
            serving = time.perf_counter()
            while (len(bundles) < 3
                   or time.perf_counter() - serving < DEPLOY_SERVE_S):
                self.recorder.op = f"serve-{len(bundles)}"
                bundle, raw, norm = self.speed.timed(
                    lambda: self.wl.serve_bundle(
                        deployment.strategy, deployment.second,
                        self.args.seed, failures))
                rates.append((bundle.offered / raw, bundle.offered / norm))
                bundles.append(bundle)
            if any(b.digest != bundles[0].digest for b in bundles):
                failures.append("serving bundles differ on identical traffic")
        peak_mb = peak_rss_mb()
        self.wl.check_simulation(deployment, simulation, failures)
        self._gate("deploy", failures)
        return {"simulate_s": tuple(simulate_s), "peak_rss_mb": peak_mb,
                "sim_cycles": simulation.latency_cycles,
                "bundles": bundles, "rates": rates}


def host_times(times, deploy, outcomes, serves_in_ops, which):
    """The host-time metrics from raw (``which=0``) or normalized
    (``which=1``) seconds."""
    seconds = [pair[which] for pair in times]
    value, pct, count = tail(seconds)
    if serves_in_ops:
        req_per_s = sum(o.bundle.offered for o in outcomes) / sum(seconds)
    else:
        req_per_s = statistics.median(r[which] for r in deploy["rates"])
    metrics = {
        "op_s.p50": (statistics.median(seconds), "s"),
        "op_s.tail": (value, "s"),
        "ops_per_s": (len(seconds) / sum(seconds), "1/s"),
        "simulate_s": (deploy["simulate_s"][which], "s"),
        "sim_req_per_s": (req_per_s, "1/s"),
    }
    return metrics, f"op_s.tail is p{pct:.1f} of {count} operation(s)"


def end_to_end(setup_s, times, outcomes, deploy, serves_in_ops):
    """End-to-end metrics (host times normalized, see ``speed.py``), the
    printed-only ``simulate_s``, and the host times raw.

    ``simulate_s`` stays out of the JSON result: one 5 s numpy-bound
    simulation per run varied 4-30% (quartile spread over runs) raw or
    normalized, too much for a regression bound.
    """
    bundle = outcomes[0].bundle if serves_in_ops else deploy["bundles"][0]
    norm, note = host_times(times, deploy, outcomes, serves_in_ops, 1)
    raw, _ = host_times(times, deploy, outcomes, serves_in_ops, 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        **{name: norm[name] for name in ("op_s.p50", "op_s.tail",
                                         "ops_per_s")},
        "peak_rss_mb": (deploy["peak_rss_mb"], "MB"),
        "design_latency_cycles": (
            max(o.design_latency_cycles for o in outcomes), "cycles"),
        "sim_req_per_s": norm["sim_req_per_s"],
        "served_p99_cycles": (bundle.p99_cycles, "cycles"),
        "slo_attainment": (bundle.slo_attainment, "frac"),
    }
    return metrics, {"simulate_s": norm["simulate_s"]}, raw, note


#: Per-layer counters an operation reads from the program's own
#: telemetry (``OpOutcome.counters``), with their units.
COUNTER_UNITS = {
    "perf.evaluations": "count",
    "perf.hit_rate": "frac",
    "optimizer.bnb_groups": "count",
    "optimizer.bnb_nodes_visited": "count",
    "optimizer.bnb_nodes_pruned": "count",
    "dse.store_hit_rate": "frac",
    "dse.workers_spawned": "count",
    "dse.requeues": "count",
    "partition.stage_queries": "count",
    "partition.cuts_considered": "count",
}


def per_layer(tr, spans, setup_reps, traced_ops, times, traced_times,
              outcomes, deploy, serves_in_ops):
    """Per-layer metrics from the traced spans plus the run's counters.

    Each span-derived metric comes from the first phase in which its
    spans occur -- the timed operations, else the deployment's
    simulation, else its serving bundles, else set-up -- divided by the
    number of traced instances of that phase.  Counters the program
    keeps itself (:data:`COUNTER_UNITS`, the serving counts) are the
    operations' own, averaged over every operation.
    Returns (metrics, printed-only metrics, phase per metric, names of
    the groups whose search stopped at the node budget).
    """
    own = tr.self_times(spans)
    instances = {"op": traced_ops, "deploy": 1,
                 "serve": len(deploy["bundles"]), "setup": setup_reps}
    by_id = {span["id"]: span for span in spans}
    phases = {}

    def parent(span):
        return by_id.get(span["parent"], {})

    def select(metric, *names, where=lambda span: True):
        """Spans named ``names`` (qualified or bare) from their first
        phase; records that phase for ``metric``."""
        matching = [s for s in spans
                    if (s["name"] in names
                        or s["name"].rsplit(".", 1)[-1] in names)
                    and where(s)]
        for phase in ("op", "deploy", "serve", "setup"):
            chosen = [s for s in matching if tr.phase_of(s["op"]) == phase]
            if chosen:
                phases[metric] = phase
                return chosen, instances[phase]
        phases[metric] = "-"
        return [], 1

    def dur(span):
        return span["end"] - span["start"]

    def total(metric, *names, self_time=False, where=lambda span: True):
        chosen, n = select(metric, *names, where=where)
        return sum(own[s["id"]] if self_time else dur(s) for s in chosen) / n

    metrics = {}

    def put(metric, value, unit):
        metrics[metric] = (value, unit)

    calls, n_op = select("perf.implement_calls", "EvalContext.implement")
    phases["perf.implement_s"] = phases["perf.implement_calls"]
    put("nn.parse_s", total("nn.parse_s", "model_from_prototxt"), "s")
    put("perf.implement_s", sum(map(dur, calls)) / n_op, "s")
    put("perf.implement_calls", len(calls) / n_op, "count")

    put("optimizer.menu_s", total("optimizer.menu_s", "GroupSearch.__init__"),
        "s")
    put("optimizer.bnb_s",
        total("optimizer.bnb_s", "GroupSearch.fusion", self_time=True), "s")
    # The search counters are the EvalContext's own (OpOutcome.counters);
    # record_search spans name the groups that stopped at the budget.
    searches, n_search = select("optimizer.bnb_budget_stops", "record_search")
    stops = [s for s in searches
             if parent(s).get("attrs", {}).get("node_budget")
             and s["attrs"]["nodes"] >= parent(s)["attrs"]["node_budget"]]
    put("optimizer.bnb_budget_stops", len(stops) / n_search, "count")
    put("optimizer.dp_self_s",
        total("optimizer.dp_self_s", "FrontierOptimizer.frontier",
              "FrontierOptimizer.best_plan", "FrontierOptimizer.materialize",
              self_time=True), "s")
    tops, n_top = select("optimizer.frontier_plans",
                         "FrontierOptimizer.frontier",
                         where=lambda s: s["attrs"]["top"])
    distinct = {(s["op"], s["pid"], s["attrs"]["optimizer"]):
                s["attrs"]["plans"] for s in tops}
    put("optimizer.frontier_plans", sum(distinct.values()) / n_top, "count")

    put("check.verify_s",
        total("check.verify_s", "verify_strategy", "verify_graph_strategy",
              "verify_plan",
              where=lambda s: parent(s).get("layer") != "check"), "s")
    put("codegen.emit_s", total("codegen.emit_s", "generate_project"), "s")
    emitted, n_emit = select("codegen.source_bytes", "generate_project")
    put("codegen.source_bytes",
        sum(s["attrs"]["source_bytes"] for s in emitted) / n_emit, "bytes")

    gets, n_get = select("dse.store_get_calls", "CostStore.get")
    put("dse.store_get_calls", len(gets) / n_get, "count")
    counters = {}
    for outcome in outcomes:
        for name, value in outcome.counters.items():
            counters[name] = counters.get(name, 0.0) + value / len(outcomes)
    for metric, unit in COUNTER_UNITS.items():
        phases[metric] = "op" if metric in counters else "-"
        put(metric, counters.get(metric, 0.0), unit)
    groups = counters.get("optimizer.bnb_groups", 0)
    phases["optimizer.bnb_exact_frac"] = phases["optimizer.bnb_groups"]
    put("optimizer.bnb_exact_frac",
        1 - metrics["optimizer.bnb_budget_stops"][0] / groups
        if groups else 1.0, "frac")

    put("sim.self_s",
        total("sim.self_s", "simulate_strategy", self_time=True), "s")
    phases["sim.cycles_per_host_s"] = "deploy"
    put("sim.cycles_per_host_s",
        deploy["sim_cycles"] / deploy["simulate_s"][1], "cycles/s")
    put("traffic.gen_s",
        total("traffic.gen_s", "generate_arrivals", "synthetic_arrivals"),
        "s")
    put("serve.run_s", total("serve.run_s", "FleetScheduler.run"), "s")
    put("resilience.self_s",
        total("resilience.self_s", "RecoveryController.observe",
              "FaultInjector.crash_in", "FaultInjector.transient_failure",
              self_time=True), "s")
    bundle = outcomes[0].bundle if serves_in_ops else deploy["bundles"][0]
    bundle_phase = "op" if serves_in_ops else "serve"
    units = {"serve.mean_batch": "requests"}
    for metric in ("serve.batches", "serve.mean_batch", "serve.retries",
                   "serve.shed"):
        phases[metric] = bundle_phase
        put(metric, bundle.counters[metric], units.get(metric, "count"))
    put("capacity.mt_run_s",
        total("capacity.mt_run_s", "MultiTenantScheduler.run"), "s")
    for metric in ("capacity.mt_swaps", "resilience.transitions"):
        phases[metric] = bundle_phase
        put(metric, bundle.counters[metric], "count")
    phases["trace.overhead_frac"] = "op"
    put("trace.overhead_frac",
        statistics.median(n for _, n in traced_times)
        / statistics.median(n for _, n in times) - 1
        if times else math.nan, "frac")

    # Printed with the self-time table but left out of the JSON result:
    # each of these layers runs on one workload only (0 s elsewhere).
    points, _ = select("dse.point_s", "run_point_job")
    overheads = []
    for sweep in select("dse.pass_overhead_s", "sweep_grid")[0]:
        busy = {}
        for point in points:
            if point["op"] == sweep["op"]:
                busy[point["pid"]] = busy.get(point["pid"], 0.0) + dur(point)
        overheads.append(dur(sweep) - max(busy.values(), default=0.0))
    extra = {
        "dse.store_get_s": (total("dse.store_get_s", "CostStore.get"), "s"),
        "dse.store_flush_s": (
            total("dse.store_flush_s", "CostStore.put_many"), "s"),
        "dse.point_s": (
            sum(map(dur, points)) / len(points) if points else 0.0, "s"),
        "dse.pass_overhead_s": (
            statistics.mean(overheads) if overheads else 0.0, "s"),
        "partition.cut_s": (
            total("partition.cut_s", "partition_network", self_time=True),
            "s"),
    }
    stop_names = sorted(f"{s['attrs']['network']}{s['attrs']['group']} "
                        f"({s['attrs']['nodes']:,} nodes)"
                        for s in stops if s["op"] == stops[0]["op"])
    return metrics, extra, phases, stop_names


def emit(result, lines):
    for line in lines:
        print(line)
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = load_modules()
    if modules is None:
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    speed, tracing, _ = modules
    import_s = speed.normalize(time.perf_counter() - _STARTED, speed.probe_s())
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(args, modules, scratch)
        setups, times, traced_times, outcomes, deploy = runner.run()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    serves = runner.workload.serves_in_ops
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"trace {args.trace}  sweep workers {sweep_workers()}"]
    lines += [f"  {line}" for line in outcomes[0].notes]
    if args.trace:
        spans = runner.recorder.spans
        metrics, extra, phases, stop_names = per_layer(
            tracing, spans, len(setups), len(traced_times), times,
            traced_times, outcomes, deploy, serves)
        table = tracing.format_layer_table(tracing.layer_table(spans))
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracing.write_chrome_trace(path, spans, table)
        lines += [table, ""]
        lines += [f"  {name:<30} {value:>16.6g} {unit:<9} "
                  f"[{phases.get(name, '-')}]"
                  for name, (value, unit) in {**metrics, **extra}.items()]
        lines.append(f"  budget stops: {', '.join(stop_names) or 'none'}")
        lines.append(f"  traced ops {len(traced_times)}, untraced ops "
                     f"{len(times)}; spans {len(spans):,} -> {path}")
    else:
        setup_s = import_s + statistics.median(setups)
        metrics, printed, raw, note = end_to_end(setup_s, times, outcomes,
                                                 deploy, serves)
        lines += [f"  {name:<24} {value:>16.6g} {unit:<7}"
                  + (f" (raw {raw[name][0]:.6g})" if name in raw else "")
                  + (" [printed only]" if name in printed else "")
                  for name, (value, unit) in {**metrics, **printed}.items()]
        lines.append(f"  {note}; setup_s = import {import_s:.3f} s + median "
                     f"of {len(setups)} set-ups")
        if runner.workload.fans_out:
            lines.append("  set-up and operation times are normalized by "
                         "the probes sweep workers take around each point "
                         "(see speed.py)")
    lines.append(f"  failed_frac {runner.failed / runner.attempted:.4f} "
                 f"({runner.failed} of {runner.attempted})")
    lines += [f"  FAIL {failure}" for failure in runner.failures]
    emit({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
