"""Host-speed normalization for the benchmark's timings.

The host shares its cores with other tenants, and their load moves the
speed of our code by 15-20% over tens of seconds (measured on a 2-vCPU
Xeon at 2.1 GHz: a fixed loop's 15 s mean varies that much from window
to window, however long the run).  Raw wall time therefore cannot hold a
regression bound of a few percent.

Every measured call is bracketed by a *speed probe* -- a fixed mix of
dictionary churn and a cache-sized ``einsum``, with the garbage
collector off so the program's heap cannot change its cost -- and the
call's time is reported both raw and *normalized*::

    normalized_s = raw_s * PROBE_REF_S / mean(probe before, probe after)

so a normalized second is a second at the host's reference speed.
Nothing the program does can change the probe's work.

A sweep pass fans its points out to worker processes on other cores,
which a probe in the driving process cannot see: there the workers probe
around each point (:func:`probing_sweep_points`) and the pass is
normalized by their readings (:func:`sweep_scale`).
"""

import contextlib
import gc
import time

import numpy as np

#: Reference probe time: about the probe's median on the 2-vCPU 2.1 GHz
#: Xeon host the benchmark was tuned on.  A constant, so normalized
#: figures compare across commits.
PROBE_REF_S = 0.025

_A = np.random.default_rng(0).normal(size=(64, 56, 56))
_B = np.random.default_rng(1).normal(size=(64, 64))


def _probe_work() -> None:
    table = {}
    for i in range(20000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    np.einsum("chw,kc->khw", _A, _B)


def probe_s() -> float:
    """Seconds the fixed probe work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        for _ in range(3):
            _probe_work()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


def normalize(raw_s: float, probe: float) -> float:
    return raw_s * PROBE_REF_S / probe


def timed(call):
    """``(result, raw_s, normalized_s)`` of ``call()``."""
    before = probe_s()
    began = time.perf_counter()
    result = call()
    raw = time.perf_counter() - began
    after = probe_s()
    return result, raw, normalize(raw, (before + after) / 2)


#: Key under which a sweep point's record carries its probe reading.
POINT_PROBE_KEY = "perfbench_probe"


@contextlib.contextmanager
def probing_sweep_points():
    """Bracket every sweep point with the probe, in whichever process
    runs it; each record comes back with ``(raw_s, probe_s)`` under
    :data:`POINT_PROBE_KEY` (see :func:`sweep_scale`)."""
    from repro.dse import sweep

    original = sweep.run_point_job

    def job(payload):
        before = probe_s()
        began = time.perf_counter()
        record = original(payload)
        raw = time.perf_counter() - began
        record[POINT_PROBE_KEY] = (raw, (before + probe_s()) / 2)
        return record

    sweep.run_point_job = job
    try:
        yield
    finally:
        sweep.run_point_job = original


def sweep_scale(records) -> float:
    """Take the probe readings out of a pass's ``records`` (before their
    digest is computed) and return the factor that normalizes the pass:
    its points' normalized seconds over their raw seconds."""
    readings = [reading for reading in
                (record.pop(POINT_PROBE_KEY, None) for record in records)
                if reading is not None]
    raw = sum(seconds for seconds, _ in readings)
    if not raw:
        return 1.0
    return sum(normalize(seconds, probe) for seconds, probe in readings) / raw
