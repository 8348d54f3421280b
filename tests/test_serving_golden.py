"""Golden serving digest: every scheduler's output pinned across commits.

One sha256 covers the records, failures and ``metrics.to_dict()`` of a
fixed set of serving runs — both placement policies with and without
faults and the control plane, a two-tenant shared fleet in both sharing
disciplines (``MultiTenantResult.to_dict()`` included: swaps and the
recovery log), and a pipelined fleet that re-plans after a stage crash.
The literal was captured before the flat-fleet and multi-tenant event
loops were merged; any change to it is a behaviour change of the
serving layer, not a refactor.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.capacity import MultiTenantScheduler
from repro.faults import RetryPolicy
from repro.resilience import ResiliencePolicy
from repro.serve.scheduler import FleetScheduler, Policy, synthetic_arrivals
from repro.toolflow import compile_model, partition_model

GOLDEN_DIGEST = (
    "1eb9f9370b3598a4013c9aef4b493702327d2c6584f5d38bb48d141fcf5e5688"
)


@pytest.fixture(scope="module")
def compiled():
    from repro.nn import models

    return compile_model(models.tiny_cnn(), device="testchip")


@pytest.fixture(scope="module")
def other_strategy():
    from repro.nn import models

    return compile_model(
        models.tiny_cnn(height=24, width=24), device="testchip"
    ).strategy


@pytest.fixture(scope="module")
def two_chip_plan():
    from repro.nn import models

    return partition_model(models.tiny_cnn(), devices="testchip,testchip")


def _feed(digest, label, result):
    digest.update(label.encode())
    digest.update(repr(result.records).encode())
    digest.update(repr(result.failures).encode())
    digest.update(
        json.dumps(result.metrics.to_dict(), sort_keys=True).encode()
    )


def _fleet_runs(digest, compiled):
    strategy = compiled.strategy
    base = FleetScheduler.for_strategy(strategy, verify=False)
    single = base.service_model.single_image_cycles
    arrivals = synthetic_arrivals(
        240, base.saturating_interarrival(2.5), np.random.default_rng(7)
    )
    span = arrivals[-1]
    faulted = dict(
        faults=(
            f"crash:replica=0,at={span / 3:.0f},down={span / 4:.0f};"
            f"transient:p=0.15"
        ),
        fault_seed=5,
        retry=RetryPolicy(max_attempts=3, deadline_cycles=12 * single),
        max_queue=12,
        resilience=ResiliencePolicy(confirm_down_cycles=span / 8),
    )
    for policy in Policy:
        for label, extra in (("clean", {}), ("faulted", faulted)):
            fleet = FleetScheduler.for_strategy(
                strategy, replicas=3, policy=policy, max_batch=4,
                slo_cycles=6 * single, verify=False, **extra,
            )
            _feed(digest, f"fleet/{policy.value}/{label}",
                  fleet.run(arrivals))
    # The ladder's warm-swap rung serving the fallback strategy.
    swapped = FleetScheduler.for_strategy(
        strategy, replicas=2, max_batch=8, faults="transient:p=0.9",
        retry=RetryPolicy(max_attempts=6, backoff_cycles=100),
        resilience=ResiliencePolicy(), fallback=compiled.fallback_strategy(),
        verify=False,
    )
    _feed(digest, "fleet/fallback",
          swapped.run(synthetic_arrivals(64, 200.0,
                                         np.random.default_rng(3))))
    # Every replica dies for good: the dead-fleet path and its log.
    dead = FleetScheduler.for_strategy(
        strategy, replicas=2, max_batch=4, verify=False,
        faults=f"crash:replica=0,at={span / 4:.0f};"
               f"crash:replica=1,at={span / 3:.0f}",
        resilience=ResiliencePolicy(confirm_down_cycles=1.0),
    )
    _feed(digest, "fleet/dead", dead.run(arrivals))


def _shared_runs(digest, compiled, other_strategy):
    strategies = {"a": compiled.strategy, "b": other_strategy}
    probe = FleetScheduler.for_strategy(compiled.strategy, verify=False)
    gap = probe.saturating_interarrival(1.2)
    traces = {
        name: synthetic_arrivals(160, gap, np.random.default_rng(20 + i))
        for i, name in enumerate(strategies)
    }
    span = max(trace[-1] for trace in traces.values())
    # The same traffic with an idle gap in which every replica dies: the
    # deaths surface through the dead-fleet hook, not a failed attempt.
    quiet = max(trace[59] for trace in traces.values()) + 200 * gap
    gapped = {
        name: trace[:60] + [cycle + 400 * gap for cycle in trace[60:]]
        for name, trace in traces.items()
    }
    faults = (
        f"crash:replica=1,at={span / 3:.0f},down={span / 5:.0f};"
        f"transient:p=0.4"
    )
    for sharing in ("weighted_fair", "strict_priority"):
        for label, offered, extra in (
            ("faulted", traces, dict(faults=faults, fault_seed=9)),
            ("dead", traces, dict(
                faults=f"crash:replica=0,at={span / 4:.0f};"
                       f"crash:replica=1,at={span / 2:.0f}",
            )),
            ("idle-death", gapped, dict(
                faults=f"crash:replica=0,at={quiet:.0f};"
                       f"crash:replica=1,at={quiet:.0f}",
            )),
        ):
            shared = MultiTenantScheduler.for_strategies(
                strategies,
                weights={"a": 2.0, "b": 1.0},
                priorities={"a": 1, "b": 0},
                min_shares={"b": 0.2},
                slo_cycles={"a": 8 * probe.service_model.single_image_cycles},
                verify=False,
                replicas=2,
                sharing=sharing,
                max_batch=4,
                max_queue=10,
                retry=RetryPolicy(max_attempts=3),
                resilience=ResiliencePolicy(confirm_down_cycles=span / 10),
                **extra,
            )
            outcome = shared.run(offered)
            digest.update(
                json.dumps(outcome.to_dict(), sort_keys=True).encode()
            )
            for name, result in outcome.per_tenant.items():
                _feed(digest, f"shared/{sharing}/{label}/{name}", result)


def _pipeline_run(digest, plan):
    fleet = plan.serve(
        pipelines=1,
        faults="crash:replica=0,stage=1,at=20000",
        resilience=ResiliencePolicy(confirm_down_cycles=1e4),
    )
    _feed(digest, "pipeline/stage-crash",
          fleet.run_open_loop(num_requests=48, load=1.5,
                              rng=np.random.default_rng(0)))


def test_serving_outputs_match_golden_digest(
    compiled, other_strategy, two_chip_plan
):
    digest = hashlib.sha256()
    _fleet_runs(digest, compiled)
    _shared_runs(digest, compiled, other_strategy)
    _pipeline_run(digest, two_chip_plan)
    assert digest.hexdigest() == GOLDEN_DIGEST
