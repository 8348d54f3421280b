"""Tests for Algorithm 2 (the fused-group branch-and-bound)."""

import pytest

from repro.errors import OptimizationError
from repro.hardware.device import FPGADevice, get_device
from repro.hardware.resources import ResourceVector
from repro.nn import models
from repro.nn.layers import ConvLayer, InputSpec
from repro.nn.network import Network
from repro.optimizer.branch_and_bound import GroupSearch, fuse_group
from repro.optimizer.dp import optimize_many
from repro.optimizer.exhaustive import best_group_design
from repro.perf.cost import EvalContext
from repro.perf.implement import Algorithm


@pytest.fixture
def testchip(request):
    """The testchip; tests parametrized with ``ORACLE_BANDWIDTHS`` get it
    at a fractional bytes/cycle, where DRAM-time rounding matters."""
    device = get_device("testchip")
    bandwidth = getattr(request, "param", None)
    return device if bandwidth is None else device.with_bandwidth(bandwidth)


#: testchip at its native 8.0 B/cycle and at 4.4 and 5.5 B/cycle.
ORACLE_BANDWIDTHS = pytest.mark.parametrize(
    "testchip",
    [None, 0.44e9, 0.55e9],
    ids=["testchip", "testchip-0.44GBps", "testchip-0.55GBps"],
    indirect=True,
)


@pytest.fixture
def tiny(testchip):
    return models.tiny_cnn()


class TestFusion:
    @ORACLE_BANDWIDTHS
    def test_matches_exhaustive_on_single_layers(self, tiny, testchip):
        search = GroupSearch(tiny, testchip)
        for i in range(len(tiny)):
            bb = search.fusion(i, i + 1)
            oracle = best_group_design(tiny, i, i + 1, testchip)
            assert bb is not None and oracle is not None
            assert bb.latency_cycles == oracle.latency_cycles

    @ORACLE_BANDWIDTHS
    def test_matches_exhaustive_on_pairs(self, tiny, testchip):
        search = GroupSearch(tiny, testchip)
        for i in range(len(tiny) - 1):
            bb = search.fusion(i, i + 2)
            oracle = best_group_design(tiny, i, i + 2, testchip)
            assert bb.latency_cycles == oracle.latency_cycles

    @ORACLE_BANDWIDTHS
    def test_matches_exhaustive_full_group(self, tiny, testchip):
        bb = GroupSearch(tiny, testchip).fusion(0, len(tiny))
        oracle = best_group_design(tiny, 0, len(tiny), testchip)
        assert bb.latency_cycles == oracle.latency_cycles

    @ORACLE_BANDWIDTHS
    def test_mixed_net_matches_exhaustive(self, mixed_net, testchip):
        search = GroupSearch(mixed_net, testchip)
        bb = search.fusion(0, 3)
        oracle = best_group_design(mixed_net, 0, 3, testchip)
        assert bb.latency_cycles == oracle.latency_cycles

    @pytest.mark.parametrize(
        "device, network, start, stop, oracle_cycles, oracle_is_cheap",
        [
            (get_device("testchip").with_bandwidth(0.44e9),
             models.tiny_cnn(), 1, 4, 6_208, True),
            (get_device("zc706").with_bandwidth(0.44e9),
             models.tiny_cnn(), 0, 4, 2_025, False),
            (get_device("zc706").with_bandwidth(4.25e9),
             models.vgg_fused_prefix(), 0, 1, 159_791, True),
        ],
        ids=["testchip-0.44GBps-tiny-1:4", "zc706-0.44GBps-tiny-0:4",
             "zc706-4.25GBps-vgg-0:1"],
    )
    def test_fractional_bandwidth_keeps_optimum(
        self, device, network, start, stop, oracle_cycles, oracle_is_cheap
    ):
        # A DRAM-time floor taken at int(bytes/cycle) overestimates the
        # transfer time and pruned these optima.  ``oracle_cycles`` is
        # best_group_design's latency, re-checked live where that is
        # cheap (the zc706 tiny_cnn group takes the oracle ~2 minutes).
        design = GroupSearch(network, device).fusion(start, stop)
        assert design.latency_cycles == oracle_cycles
        if oracle_is_cheap:
            oracle = best_group_design(network, start, stop, device)
            assert oracle.latency_cycles == oracle_cycles

    def test_cache_returns_same_object(self, tiny, testchip):
        search = GroupSearch(tiny, testchip)
        assert search.fusion(0, 2) is search.fusion(0, 2)

    def test_out_of_range(self, tiny, testchip):
        search = GroupSearch(tiny, testchip)
        with pytest.raises(OptimizationError):
            search.fusion(0, 99)
        with pytest.raises(OptimizationError):
            search.fusion(2, 2)

    def test_one_shot_helper(self, tiny, testchip):
        design = fuse_group(tiny, 0, 2, testchip)
        assert design is not None
        assert len(design.implementations) == 2


class TestSearchTree:
    def test_fig5_sweep_tree_is_pinned(self):
        # The Fig. 5 VGG-E sweep on zc706 pins the whole search: its
        # shape (groups, nodes, cuts), its evaluations and its answers.
        # A stronger bound legitimately lowers the node and cut counts.
        zc706 = get_device("zc706")
        context = EvalContext()
        strategies = optimize_many(
            models.vgg_fused_prefix(), zc706,
            [mb * 2**20 for mb in (2, 4, 8, 16, 32)], context=context,
        )
        stats = context.stats
        assert (
            stats.groups_searched, stats.nodes_visited,
            stats.nodes_pruned, stats.evaluations,
        ) == (28, 21_198, 71_510, 324)
        assert [s.latency_cycles for s in strategies] == [
            2_600_192, 2_600_192, 2_211_112, 2_146_936, 2_146_936,
        ]


class TestConstraints:
    def test_depth_cap_counts_convs_only(self, testchip):
        # 5 convs + pool exceeds testchip's max_fusion_depth of 4 convs
        layers = [
            ConvLayer(name=f"c{i}", out_channels=4, kernel=3, pad=1) for i in range(5)
        ]
        net = Network("deep", InputSpec(2, 12, 12), layers)
        search = GroupSearch(net, testchip)
        assert search.fusion(0, 5) is None
        assert search.fusion(0, 4) is not None

    def test_infeasible_on_starved_device(self, tiny):
        starved = FPGADevice(
            name="starved",
            resources=ResourceVector(bram18k=2, dsp=4, ff=10_000, lut=6_000),
            bandwidth_bytes_per_s=1e9,
            frequency_hz=100e6,
        )
        search = GroupSearch(tiny, starved)
        assert search.fusion(0, len(tiny)) is None

    def test_fifo_channels_beyond_device_are_infeasible(self, tiny):
        # Two fused layers need one FIFO channel (400 LUTs) on their own.
        lutless = FPGADevice(
            name="lutless",
            resources=ResourceVector(bram18k=200, dsp=200, ff=100_000, lut=300),
            bandwidth_bytes_per_s=1e9,
            frequency_hz=100e6,
        )
        assert GroupSearch(tiny, lutless).fusion(0, 2) is None

    def test_design_fits_device(self, tiny, testchip):
        design = GroupSearch(tiny, testchip).fusion(0, len(tiny))
        assert design.resources.fits(testchip.resources)

    def test_algorithm_filter_restricts_convs(self, tiny, testchip):
        conventional_only = GroupSearch(
            tiny,
            testchip,
            algorithm_filter=lambda info, algo: not isinstance(
                info.layer, ConvLayer
            )
            or algo == Algorithm.CONVENTIONAL,
        )
        design = conventional_only.fusion(0, len(tiny))
        for impl in design.implementations:
            assert impl.algorithm != Algorithm.WINOGRAD

    def test_filter_never_worse_than_restricted_space(self, tiny, testchip):
        free = GroupSearch(tiny, testchip).fusion(0, len(tiny))
        pinned = GroupSearch(
            tiny,
            testchip,
            algorithm_filter=lambda info, algo: algo != Algorithm.WINOGRAD,
        ).fusion(0, len(tiny))
        assert free.latency_cycles <= pinned.latency_cycles


class TestNodeBudget:
    def test_budget_returns_incumbent(self, tiny, testchip):
        capped = GroupSearch(tiny, testchip, node_budget=10)
        design = capped.fusion(0, len(tiny))
        assert design is not None  # best incumbent, not necessarily optimal
        exact = GroupSearch(tiny, testchip, node_budget=0).fusion(0, len(tiny))
        assert design.latency_cycles >= exact.latency_cycles

    def test_unbounded_budget_is_exact(self, tiny, testchip):
        exact = GroupSearch(tiny, testchip, node_budget=0).fusion(0, len(tiny))
        oracle = best_group_design(tiny, 0, len(tiny), testchip)
        assert exact.latency_cycles == oracle.latency_cycles
