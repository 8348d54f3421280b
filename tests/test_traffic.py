"""Traffic package tests: grammar, determinism, summaries, artifacts."""

import math

import numpy as np
import pytest

from repro.errors import ArtifactError, TrafficError
from repro.traffic import (
    ARRIVAL_KINDS,
    ConstantProcess,
    MMPPProcess,
    PoissonProcess,
    TrafficTrace,
    describe_arrival,
    generate_arrivals,
    load_trace,
    parse_arrival,
    summarize_arrivals,
)


class TestGrammar:
    @pytest.mark.parametrize(
        "spec",
        [
            "poisson:mean=4000",
            "constant:mean=9000",
            "uniform:mean=5000",
            "mmpp:mean=8000,burst=4",
            "diurnal:mean=9000,period=2e6,depth=0.8",
            "pareto:mean=6000,alpha=1.7",
        ],
    )
    def test_parse_describe_roundtrip(self, spec):
        process = parse_arrival(spec)
        canonical = describe_arrival(process)
        # The canonical form reparses to an identical process.
        assert describe_arrival(parse_arrival(canonical)) == canonical
        assert process.kind == spec.split(":")[0]

    def test_parse_is_whitespace_and_case_tolerant(self):
        a = parse_arrival("poisson:mean=4000")
        b = parse_arrival("  Poisson : mean = 4000 ")
        assert describe_arrival(a) == describe_arrival(b)

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "fractal:mean=100",  # unknown kind
            "poisson",  # missing mean
            "poisson:mean=0",  # non-positive mean
            "poisson:mean=100,mean=200",  # repeated key
            "poisson:mean=100,weird=3",  # unknown key
            "mmpp:mean=100,burst=0.5",  # burst must exceed 1
            "diurnal:mean=100,period=1e6,depth=2",  # depth in [0, 1)
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(TrafficError):
            parse_arrival(spec)

    def test_every_kind_is_constructible(self):
        # The grammar's kind list and the process classes stay in sync.
        assert set(ARRIVAL_KINDS) >= {
            "poisson", "constant", "uniform", "mmpp", "diurnal", "pareto",
        }


class TestGeneration:
    def test_deterministic_per_seed(self):
        process = parse_arrival("mmpp:mean=5000,burst=6")
        a = generate_arrivals(process, 128, seed=3)
        b = generate_arrivals(process, 128, seed=3)
        c = generate_arrivals(process, 128, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_monotone_nonnegative(self):
        for kind in ("poisson", "constant", "mmpp", "diurnal", "pareto"):
            spec = {
                "poisson": "poisson:mean=5000",
                "constant": "constant:mean=5000",
                "mmpp": "mmpp:mean=5000,burst=4",
                "diurnal": "diurnal:mean=5000,period=1e6,depth=0.8",
                "pareto": "pareto:mean=5000,alpha=1.7",
            }[kind]
            cycles = generate_arrivals(parse_arrival(spec), 64, seed=0)
            assert all(t >= 0 for t in cycles)
            assert all(b >= a for a, b in zip(cycles, cycles[1:]))

    def test_scale_rescales_cycles(self):
        process = ConstantProcess(mean_cycles=1000.0)
        base = generate_arrivals(process, 10, seed=0)
        doubled = generate_arrivals(process, 10, seed=0, scale=2.0)
        assert np.allclose(np.asarray(doubled), 2.0 * np.asarray(base))

    def test_validation(self):
        with pytest.raises(TrafficError):
            generate_arrivals(PoissonProcess(1000.0), 0, seed=0)
        with pytest.raises(TrafficError):
            generate_arrivals(PoissonProcess(1000.0), 4, seed=0, scale=0)


class TestSummaries:
    def test_burstiness_ordering(self):
        """Clockwork < Poisson < MMPP in gap variability, by construction."""
        def cv(spec):
            cycles = generate_arrivals(parse_arrival(spec), 2000, seed=1)
            return summarize_arrivals(cycles).burstiness_cv

        constant = cv("constant:mean=5000")
        poisson = cv("poisson:mean=5000")
        bursty = cv("mmpp:mean=5000,burst=8")
        assert constant == pytest.approx(0.0, abs=1e-9)
        assert poisson == pytest.approx(1.0, abs=0.15)
        assert bursty > poisson

    def test_rate_matches_mean_gap(self):
        cycles = generate_arrivals(
            parse_arrival("constant:mean=2000"), 101, seed=0
        )
        summary = summarize_arrivals(cycles)
        assert summary.mean_interarrival_cycles == pytest.approx(2000.0)
        assert summary.rate_per_mcycle == pytest.approx(500.0)
        assert summary.requests == 101

    def test_empty_stream_rejected(self):
        with pytest.raises(TrafficError):
            summarize_arrivals([])


class TestTrafficTrace:
    SPECS = {
        "vision": "poisson:mean=4000",
        "search": "mmpp:mean=9000,burst=4",
    }

    def test_record_is_bit_deterministic(self):
        a = TrafficTrace.record(self.SPECS, num_requests=64, seed=7)
        b = TrafficTrace.record(self.SPECS, num_requests=64, seed=7)
        assert a.digest() == b.digest()
        assert a.arrivals() == b.arrivals()

    def test_seed_changes_the_trace(self):
        a = TrafficTrace.record(self.SPECS, num_requests=64, seed=7)
        b = TrafficTrace.record(self.SPECS, num_requests=64, seed=8)
        assert a.digest() != b.digest()

    def test_tenants_are_decorrelated(self):
        specs = {"a": "poisson:mean=4000", "b": "poisson:mean=4000"}
        trace = TrafficTrace.record(specs, num_requests=64, seed=0)
        arrivals = trace.arrivals()
        assert arrivals["a"] != arrivals["b"]

    def test_per_tenant_request_counts(self):
        trace = TrafficTrace.record(
            self.SPECS, num_requests={"vision": 50, "search": 20}, seed=0
        )
        arrivals = trace.arrivals()
        assert len(arrivals["vision"]) == 50
        assert len(arrivals["search"]) == 20
        # Missing names fall back to the 200 default.
        partial = TrafficTrace.record(
            self.SPECS, num_requests={"vision": 5}, seed=0
        )
        assert len(partial.arrivals()["search"]) == 200

    def test_envelope_roundtrip_preserves_digest(self, tmp_path):
        trace = TrafficTrace.record(self.SPECS, num_requests=32, seed=3)
        path = trace.save(tmp_path / "trace.json")
        loaded = load_trace(path)
        assert loaded.digest() == trace.digest()
        assert loaded.arrivals() == trace.arrivals()
        assert loaded.arrival_meta() == trace.arrival_meta()

    def test_corrupted_trace_rejected(self, tmp_path):
        trace = TrafficTrace.record(self.SPECS, num_requests=16, seed=3)
        path = trace.save(tmp_path / "trace.json")
        text = path.read_text()
        path.write_text(text.replace("4000", "4001", 1))
        with pytest.raises(ArtifactError):
            load_trace(path)

    def test_scaled_rescales_only_cycles(self):
        trace = TrafficTrace.record(self.SPECS, num_requests=16, seed=3)
        doubled = trace.scaled(2.0)
        for before, after in zip(trace.tenants, doubled.tenants):
            assert after.spec == before.spec
            assert after.seed == before.seed
            assert after.cycles == tuple(c * 2.0 for c in before.cycles)
        with pytest.raises(TrafficError):
            trace.scaled(0.0)

    def test_arrival_meta_is_self_describing(self):
        trace = TrafficTrace.record(self.SPECS, num_requests=16, seed=3)
        meta = trace.arrival_meta()["vision"]
        assert meta["requests"] == 16
        assert meta["process"].startswith("poisson:")
        assert isinstance(meta["seed"], int)

    def test_duplicate_or_empty_tenants_rejected(self):
        from repro.traffic import TenantTrace

        with pytest.raises(TrafficError):
            TrafficTrace([])
        tenant = TenantTrace(name="a", cycles=(0.0, 1.0))
        with pytest.raises(TrafficError):
            TrafficTrace([tenant, tenant])
        with pytest.raises(TrafficError):
            TenantTrace(name="a", cycles=())
        with pytest.raises(TrafficError):
            TenantTrace(name="a", cycles=(-1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cycles_rejected(self, bad):
        # json.loads accepts NaN and Infinity, so a hand-edited trace
        # file can carry them into a serving run.
        from repro.traffic import TenantTrace

        with pytest.raises(TrafficError, match="non-finite"):
            TenantTrace(name="a", cycles=(0.0, bad, 5.0))

    def test_summary_mentions_every_tenant(self):
        trace = TrafficTrace.record(self.SPECS, num_requests=16, seed=3)
        text = trace.summary()
        assert "vision" in text and "search" in text
        assert trace.digest()[:12] in text
