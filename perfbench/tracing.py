"""The benchmark's span recorder and the wrappers that feed it.

Spans are recorded from the benchmark's own files: :func:`instrument`
wraps the public entry points of each ``repro`` layer (functions are
rebound in every loaded module that imported them, methods are replaced
on their class) and :func:`uninstrument` puts the originals back, so an
untraced operation runs the unmodified program.

A span is a plain dict (picklable, so sweep workers can ship theirs back
to the driving process inside their sweep records)::

    {"id": "<pid>:<n>", "parent": "<pid>:<m>" | None, "name": ...,
     "layer": ..., "op": "op-3", "pid": ..., "start": s, "end": s,
     "attrs": {...}}

Everything stays in memory until :func:`write_chrome_trace` writes the
run's spans as Chrome trace-event JSON (open it in Perfetto or
``chrome://tracing``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The layers of the self-time table, in the order they are printed.
LAYERS = (
    "nn", "perf", "optimizer", "check", "codegen", "dse", "partition",
    "sim", "traffic", "serve", "capacity", "resilience",
)

#: Key under which a sweep worker ships its spans back in its record.
WORKER_SPANS_KEY = "perfbench_spans"


class Recorder:
    """In-memory span recorder for one process.

    Not thread-safe: the benchmark drives every search single-threaded
    (``workers=None`` in the optimizer), and sweep workers are separate
    processes with their own forked copy.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.op = "setup"
        self._stack: List[dict] = []
        self._count = 0

    def adopt(self) -> None:
        """In a forked worker, drop the parent's spans and restart ids."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self._stack = []
            self._count = 0

    def open(self, name: str, layer: str) -> dict:
        self.adopt()
        self._count += 1
        span = {
            "id": f"{self.pid}:{self._count}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "layer": layer,
            "op": self.op,
            "pid": self.pid,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)


def _wrap(recorder: Recorder, fn: Callable, name: str, layer: str,
          attrs: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if attrs is not None:
            span["attrs"] = attrs(args, kwargs, result)
        return result

    return traced


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _fusion_attrs(args, kwargs, result):
    search = args[0]
    start, stop = _arg(args, kwargs, 1, "start"), _arg(args, kwargs, 2, "stop")
    return {"group": f"[{start}:{stop}]", "node_budget": search.node_budget}


def _record_search_attrs(args, kwargs, result):
    return {
        "network": _arg(args, kwargs, 1, "network_name"),
        "group": f"[{_arg(args, kwargs, 3, 'start')}:"
                 f"{_arg(args, kwargs, 4, 'stop')}]",
        "nodes": _arg(args, kwargs, 6, "nodes_visited"),
        "pruned": _arg(args, kwargs, 7, "nodes_pruned"),
    }


def _frontier_attrs(args, kwargs, result):
    optimizer = args[0]
    start, stop = _arg(args, kwargs, 1, "start"), _arg(args, kwargs, 2, "stop")
    return {
        "optimizer": id(optimizer),
        "top": start == 0 and stop == len(optimizer.network),
        "plans": len(result),
    }


def _store_get_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _project_attrs(args, kwargs, result):
    return {"source_bytes": sum(len(text) for text in result.files.values())}


def _targets():
    """(owner, attribute, layer, attrs) for every wrapped entry point."""
    from repro.capacity.multitenant import MultiTenantScheduler
    from repro.check import invariants
    from repro.codegen import generator
    from repro.dse import store, sweep
    from repro.faults.injector import FaultInjector
    from repro.nn import caffe
    from repro.optimizer.branch_and_bound import GroupSearch
    from repro.optimizer.dp import FrontierOptimizer
    from repro.partition import cut
    from repro.perf.cost import EvalContext
    from repro.resilience.controller import RecoveryController
    from repro.serve import scheduler
    from repro.sim import simulator
    from repro.traffic import arrivals
    import repro.toolflow as toolflow

    cost_model = sys.modules["repro.perf.implement"]
    return [
        (caffe, "model_from_prototxt", "nn", None),
        (GroupSearch, "__init__", "optimizer", None),
        (GroupSearch, "fusion", "optimizer", _fusion_attrs),
        (EvalContext, "implement", "perf", None),
        (cost_model, "implement", "perf", None),
        (EvalContext, "record_search", "optimizer", _record_search_attrs),
        (FrontierOptimizer, "frontier", "optimizer", _frontier_attrs),
        (FrontierOptimizer, "best_plan", "optimizer", None),
        (FrontierOptimizer, "materialize", "optimizer", None),
        (invariants, "verify_strategy", "check", None),
        (invariants, "verify_graph_strategy", "check", None),
        (invariants, "verify_plan", "check", None),
        (generator, "generate_project", "codegen", _project_attrs),
        (store.CostStore, "get", "dse", _store_get_attrs),
        (store.CostStore, "put_many", "dse", None),
        (toolflow, "sweep_grid", "dse", None),
        (sweep, "run_point_job", "dse", None),
        (cut, "partition_network", "partition", None),
        (simulator, "simulate_strategy", "sim", None),
        (arrivals, "generate_arrivals", "traffic", None),
        (scheduler, "synthetic_arrivals", "traffic", None),
        (scheduler.FleetScheduler, "run", "serve", None),
        (MultiTenantScheduler, "run", "capacity", None),
        # The control plane and the fault draws it reacts to.
        (RecoveryController, "observe", "resilience", None),
        (FaultInjector, "crash_in", "resilience", None),
        (FaultInjector, "transient_failure", "resilience", None),
    ]


def _qualname(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"


def instrument(recorder: Recorder) -> List[tuple]:
    """Wrap every target; returns the undo list for :func:`uninstrument`."""
    undo = []
    for owner, attr, layer, attrs in _targets():
        original = getattr(owner, attr)
        name = _qualname(owner, attr)
        if isinstance(owner, type):
            wrapped = _wrap(recorder, original, name, layer, attrs)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
            continue
        if attr == "run_point_job":
            wrapped = _shipping_point_job(recorder, original)
        else:
            wrapped = _wrap(recorder, original, name, layer, attrs)
        if attr == "sweep_grid":
            wrapped = _collecting_sweep(recorder, wrapped)
        # Rebind every module-level reference (``from x import f``).
        for module in list(sys.modules.values()):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
                undo.append((module, attr, original))
    return undo


def uninstrument(undo: List[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _shipping_point_job(recorder: Recorder, original: Callable) -> Callable:
    """Wrap the sweep worker entry so a worker returns its spans.

    A forked worker records into its own copy of the recorder; its spans
    ride back to the driving process in the record under
    :data:`WORKER_SPANS_KEY`, outside the fields the sweep's
    ``records_digest`` covers.
    """
    traced = _wrap(recorder, original, "sweep.run_point_job", "dse", None)
    driving_pid = os.getpid()

    @functools.wraps(original)
    def job(payload):
        if os.getpid() == driving_pid:  # inline sweep: spans are local
            return traced(payload)
        recorder.adopt()
        mark = len(recorder.spans)
        record = traced(payload)
        record[WORKER_SPANS_KEY] = recorder.spans[mark:]
        return record

    return job


def _collecting_sweep(recorder: Recorder, sweep_grid: Callable) -> Callable:
    """Wrap ``sweep_grid`` to move the spans its workers shipped back
    out of the returned records and into ``recorder``."""

    @functools.wraps(sweep_grid)
    def collecting(*args, **kwargs):
        result = sweep_grid(*args, **kwargs)
        for record in result.records:
            recorder.spans.extend(record.pop(WORKER_SPANS_KEY, ()))
        return result

    return collecting


# -- analysis ----------------------------------------------------------------


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Span id -> duration minus the part its direct children cover."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent in own:
            own[parent] -= span["end"] - span["start"]
    return own


def phase_of(op: str) -> str:
    """``op-3`` -> ``op``, ``setup-1`` -> ``setup``, ``deploy`` -> ``deploy``."""
    return op.split("-", 1)[0]


def layer_table(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per layer, per phase: total self time and the number of phase
    instances (operations) in which the layer ran."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    seen: Dict[tuple, set] = {}
    for span in spans:
        phase = phase_of(span["op"])
        row = totals.setdefault(span["layer"], {})
        row[phase] = row.get(phase, 0.0) + own[span["id"]]
        seen.setdefault((span["layer"], phase), set()).add(span["op"])
    for (layer, phase), ops in seen.items():
        totals[layer][phase + "#"] = len(ops)
    return totals


def format_layer_table(table: Dict[str, Dict[str, float]]) -> str:
    phases = ("setup", "op", "gate", "deploy", "serve")
    lines = [
        "layer self time, seconds per phase instance (instances in brackets)",
        f"{'layer':<10}" + "".join(f"{p:>18}" for p in phases),
    ]
    for layer in LAYERS:
        row = table.get(layer, {})
        cells = []
        for phase in phases:
            count = int(row.get(phase + "#", 0))
            value = row.get(phase, 0.0) / count if count else 0.0
            cells.append(f"{value:>13.4f} [{count:>2}]")
        lines.append(f"{layer:<10}" + "".join(f"{c:>18}" for c in cells))
    return "\n".join(lines)


def write_chrome_trace(path: Path, spans: List[dict],
                       table_text: str) -> None:
    """Write spans as Chrome trace-event JSON (complete ``X`` events)."""
    origin = min((s["start"] for s in spans), default=0.0)
    events = [
        {
            "name": span["name"],
            "cat": span["layer"],
            "ph": "X",
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": span["pid"],
            "tid": span["pid"],
            "args": dict(span["attrs"], op=span["op"], id=span["id"],
                         parent=span["parent"]),
        }
        for span in spans
    ]
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"layer_self_time": table_text},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
