"""Traffic traces: recording, summarizing and replaying workloads.

A :class:`TrafficTrace` is the persisted form of one generated (or
captured) workload: per-tenant arrival cycles plus the spec and seed
that produced them, wrapped in the standard artifact envelope
(:mod:`repro.check`, kind ``traffic_trace``) so it is checksummed,
versioned and loadable with typed errors — and so ``repro check``
validates trace files like any other artifact.

The trace digest is the SHA-256 of the canonical payload, which is what
the determinism contract is asserted against: same spec + same seed
must reproduce a bit-identical digest (``repro doctor`` probes this).

:func:`summarize_arrivals` reports the numbers an operator sizes a
fleet by: mean rate, burstiness (the coefficient of variation of the
interarrival gaps — 1.0 for Poisson, higher for bursty streams) and
the peak-to-mean rate ratio over fixed windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import TrafficError
from repro.traffic.arrivals import (
    ArrivalProcess,
    describe_arrival,
    generate_arrivals,
    parse_arrival,
)

#: Envelope kind of persisted traces.
TRACE_KIND = "traffic_trace"


@dataclass(frozen=True)
class TraceSummary:
    """Shape of one arrival stream, the numbers capacity planning uses."""

    requests: int
    span_cycles: float  # first arrival -> last arrival
    mean_interarrival_cycles: float
    rate_per_mcycle: float  # mean arrivals per million cycles
    burstiness_cv: float  # CV of gaps: 1.0 Poisson, > 1 bursty
    peak_to_mean: float  # max windowed rate / mean rate

    def summary(self) -> str:
        return (
            f"{self.requests} arrivals over {self.span_cycles:,.0f} cycles: "
            f"{self.rate_per_mcycle:.2f} req/Mcycle "
            f"(mean gap {self.mean_interarrival_cycles:,.0f}), "
            f"burstiness CV {self.burstiness_cv:.2f}, "
            f"peak/mean {self.peak_to_mean:.2f}"
        )

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "span_cycles": self.span_cycles,
            "mean_interarrival_cycles": self.mean_interarrival_cycles,
            "rate_per_mcycle": self.rate_per_mcycle,
            "burstiness_cv": self.burstiness_cv,
            "peak_to_mean": self.peak_to_mean,
        }


def summarize_arrivals(
    cycles: Sequence[float], windows: int = 20
) -> TraceSummary:
    """Fold one sorted arrival stream into a :class:`TraceSummary`."""
    if len(cycles) == 0:
        raise TrafficError("cannot summarize an empty arrival stream")
    ordered = sorted(float(t) for t in cycles)
    n = len(ordered)
    span = ordered[-1] - ordered[0]
    if n == 1 or span <= 0:
        return TraceSummary(
            requests=n,
            span_cycles=span,
            mean_interarrival_cycles=0.0,
            rate_per_mcycle=0.0,
            burstiness_cv=0.0,
            peak_to_mean=1.0,
        )
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    mean_gap = span / (n - 1)
    variance = sum((g - mean_gap) ** 2 for g in gaps) / len(gaps)
    cv = math.sqrt(variance) / mean_gap if mean_gap > 0 else 0.0
    # Peak/mean over fixed windows spanning the stream.
    windows = max(1, min(windows, n))
    width = span / windows
    counts = [0] * windows
    for t in ordered:
        index = min(windows - 1, int((t - ordered[0]) / width))
        counts[index] += 1
    mean_count = n / windows
    peak_to_mean = max(counts) / mean_count if mean_count > 0 else 1.0
    return TraceSummary(
        requests=n,
        span_cycles=span,
        mean_interarrival_cycles=mean_gap,
        rate_per_mcycle=(n - 1) / span * 1e6,
        burstiness_cv=cv,
        peak_to_mean=peak_to_mean,
    )


@dataclass(frozen=True)
class TenantTrace:
    """One tenant's recorded arrival stream."""

    name: str
    cycles: Tuple[float, ...]
    spec: Optional[str] = None  # arrival spec that generated the stream
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise TrafficError("tenant trace needs a non-empty name")
        if not self.cycles:
            raise TrafficError(f"tenant {self.name!r} trace holds no arrivals")
        ordered = tuple(float(t) for t in self.cycles)
        if not all(map(math.isfinite, ordered)):
            raise TrafficError(
                f"tenant {self.name!r} trace has a non-finite arrival cycle"
            )
        if any(t < 0 for t in ordered):
            raise TrafficError(
                f"tenant {self.name!r} trace has a negative arrival cycle"
            )
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            ordered = tuple(sorted(ordered))
        object.__setattr__(self, "cycles", ordered)

    def summarize(self) -> TraceSummary:
        return summarize_arrivals(self.cycles)

    def arrival_meta(self) -> dict:
        """Self-describing metadata stamped into serving metrics."""
        meta: dict = {"requests": len(self.cycles)}
        if self.spec is not None:
            meta["process"] = self.spec
        if self.seed is not None:
            meta["seed"] = self.seed
        return meta


class TrafficTrace:
    """A recorded multi-tenant workload, persistable as an artifact."""

    def __init__(self, tenants: Sequence[TenantTrace]):
        if not tenants:
            raise TrafficError("a traffic trace needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise TrafficError(f"duplicate tenant names in trace: {names}")
        self.tenants: Tuple[TenantTrace, ...] = tuple(tenants)

    @classmethod
    def record(
        cls,
        specs: Mapping[str, Union[str, ArrivalProcess]],
        num_requests: Union[int, Mapping[str, int]] = 200,
        seed: int = 0,
    ) -> "TrafficTrace":
        """Generate one deterministic trace per tenant.

        Each tenant draws from an independent stream derived from
        ``seed`` and its position, so tenants are uncorrelated but the
        whole trace reproduces bit-identically from one seed.
        ``num_requests`` is one count for every tenant, or a per-tenant
        mapping (missing names default to 200).
        """
        tenants = []
        for index, (name, spec) in enumerate(specs.items()):
            process = parse_arrival(spec) if isinstance(spec, str) else spec
            tenant_seed = _tenant_seed(seed, index)
            requests = (
                num_requests.get(name, 200)
                if isinstance(num_requests, Mapping)
                else num_requests
            )
            cycles = generate_arrivals(process, requests, tenant_seed)
            tenants.append(
                TenantTrace(
                    name=name,
                    cycles=tuple(cycles),
                    spec=describe_arrival(process),
                    seed=tenant_seed,
                )
            )
        return cls(tenants)

    def arrivals(self) -> Dict[str, Tuple[float, ...]]:
        """Per-tenant arrival cycles, the scheduler's input shape."""
        return {t.name: t.cycles for t in self.tenants}

    def arrival_meta(self) -> Dict[str, dict]:
        return {t.name: t.arrival_meta() for t in self.tenants}

    def scaled(self, factor: float) -> "TrafficTrace":
        """Cycle-domain rescale (reference clock -> device clock)."""
        if not factor > 0:
            raise TrafficError(f"scale factor must be positive, got {factor}")
        if factor == 1.0:
            return self
        return TrafficTrace(
            [
                TenantTrace(
                    name=t.name,
                    cycles=tuple(c * factor for c in t.cycles),
                    spec=t.spec,
                    seed=t.seed,
                )
                for t in self.tenants
            ]
        )

    def to_payload(self) -> dict:
        return {
            "tenants": [
                {
                    "name": t.name,
                    "spec": t.spec,
                    "seed": t.seed,
                    "cycles": list(t.cycles),
                }
                for t in self.tenants
            ]
        }

    def digest(self) -> str:
        """SHA-256 of the canonical payload — the determinism witness."""
        from repro.check.artifacts import payload_sha256

        return payload_sha256(self.to_payload())

    def save(self, path: Union[str, Path]) -> Path:
        from repro.check.artifacts import save_artifact

        return save_artifact(path, TRACE_KIND, self.to_payload())

    def summary(self) -> str:
        lines = [f"traffic trace: {len(self.tenants)} tenant(s), "
                 f"digest {self.digest()[:12]}"]
        for tenant in self.tenants:
            spec = f" [{tenant.spec}]" if tenant.spec else ""
            lines.append(
                f"  {tenant.name}{spec}: {tenant.summarize().summary()}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return sum(len(t.cycles) for t in self.tenants)


def _tenant_seed(seed: int, index: int) -> int:
    """Derived per-tenant seed: decorrelated, stable across runs."""
    return (seed * 1_000_003 + index * 7_919) & 0x7FFFFFFF


def load_trace(path: Union[str, Path]) -> TrafficTrace:
    """Load a persisted trace, every failure a typed ArtifactError."""
    from repro.check.artifacts import load_envelope, require

    envelope = load_envelope(path, expected_kind=TRACE_KIND)
    payload = envelope.payload
    rows = require(payload, "tenants", list)
    tenants = []
    for index, row in enumerate(rows):
        path_prefix = f"$.tenants[{index}]"
        name = require(row, "name", str, path_prefix)
        cycles = require(row, "cycles", list, path_prefix)
        spec = row.get("spec")
        seed = row.get("seed")
        try:
            tenants.append(
                TenantTrace(
                    name=name,
                    cycles=tuple(float(c) for c in cycles),
                    spec=spec if isinstance(spec, str) else None,
                    seed=seed if isinstance(seed, int) else None,
                )
            )
        except (TypeError, ValueError, TrafficError) as exc:
            from repro.check.artifacts import E_FIELD_VALUE
            from repro.errors import ArtifactSchemaError

            raise ArtifactSchemaError(
                E_FIELD_VALUE, f"{path_prefix}.cycles", str(exc)
            ) from None
    try:
        return TrafficTrace(tenants)
    except TrafficError as exc:
        from repro.check.artifacts import E_FIELD_VALUE
        from repro.errors import ArtifactSchemaError

        raise ArtifactSchemaError(E_FIELD_VALUE, "$.tenants", str(exc)) from None
