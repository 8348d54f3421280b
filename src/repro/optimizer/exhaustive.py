"""Brute-force strategy oracle for small networks.

Enumerates every contiguous grouping and, within each group, every
combination of per-layer algorithm and parallelism, evaluating exactly
the same cost model as the real optimizer.  Exponential — usable only on
networks of a handful of layers — but it certifies that Algorithm 1 +
Algorithm 2 return the true optimum (the tests rely on this).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.errors import OptimizationError
from repro.arch.fusion import enumerate_groupings
from repro.hardware.device import FPGADevice
from repro.nn.network import Network
from repro.perf.cost import CostModel, EvalContext
from repro.perf.group import compose_group
from repro.perf.implement import (
    Algorithm,
    WINOGRAD_M,
    candidate_algorithms,
    candidate_parallelisms,
    candidate_weight_modes,
    candidate_winograd_tiles,
)
from repro.optimizer.strategy import Strategy


def _group_options(
    network: Network,
    start: int,
    stop: int,
    device: FPGADevice,
    explore_tile_sizes: bool = False,
    context: Optional[CostModel] = None,
):
    """Every feasible implementation tuple for one fused group."""
    cost = context if context is not None else EvalContext()
    per_layer = []
    for index in range(start, stop):
        info = network[index]
        layer_options = []
        for algo in candidate_algorithms(info):
            if algo == Algorithm.WINOGRAD:
                tiles = candidate_winograd_tiles(info, explore_tile_sizes)
            else:
                tiles = [WINOGRAD_M]
            for m in tiles:
                for mode in candidate_weight_modes(info, algo, device, m):
                    for p in candidate_parallelisms(info, algo, device):
                        layer_options.append(
                            cost.implement(
                                info, algo, p, device,
                                weight_mode=mode, winograd_m=m,
                            )
                        )
        per_layer.append(layer_options)
    for combo in itertools.product(*per_layer):
        design = compose_group(combo, device)
        if design.resources.fits(device.resources):
            yield design


def best_group_design(
    network: Network,
    start: int,
    stop: int,
    device: FPGADevice,
    explore_tile_sizes: bool = False,
    context: Optional[CostModel] = None,
):
    """Exhaustive equivalent of Algorithm 2's fusion[start][stop-1]."""
    best = None
    for design in _group_options(
        network, start, stop, device, explore_tile_sizes, context
    ):
        if best is None or design.latency_cycles < best.latency_cycles:
            best = design
    return best


def exhaustive_optimize(
    network: Network,
    device: FPGADevice,
    transfer_constraint_bytes: int,
    context: Optional[CostModel] = None,
) -> Strategy:
    """Exhaustive equivalent of the full optimizer (Problem 1).

    The full candidate ladder is always used, so the oracle matches the
    real optimizer's search space.

    Args:
        context: Shared evaluation layer; one is created (and shared
            across all enumerated groupings) when omitted.
    """
    n = len(network)
    if n == 0:
        raise OptimizationError("cannot optimize an empty network")
    cost = context if context is not None else EvalContext()
    best_latency = None
    best: Optional[Tuple[List[Tuple[int, int]], list]] = None
    for grouping in enumerate_groupings(n, device.max_fusion_depth):
        designs = []
        feasible = True
        transfer = 0
        latency = 0
        for start, stop in grouping:
            design = best_group_design(network, start, stop, device, context=cost)
            if design is None:
                feasible = False
                break
            designs.append(design)
            transfer += design.feature_transfer_bytes
            latency += design.latency_cycles
        if not feasible or transfer > transfer_constraint_bytes:
            continue
        if best_latency is None or latency < best_latency:
            best_latency = latency
            best = (grouping, designs)
    if best is None:
        raise OptimizationError(
            f"no strategy fits transfer constraint {transfer_constraint_bytes}"
        )
    grouping, designs = best
    return Strategy(network, device, grouping, designs)
