import random
import re

import pytest

from swapsim.graph import GraphError, tensor_bytes
from swapsim.models import UNetParams, gen_chain, gen_unet3d
from swapsim.props import (
    check_memory_conservation, derive_resident_trace, random_forward_graph, random_instance,
)
from swapsim.rewrite import (
    RewritePlan, RewriteConfig, apply_rewrite, insert_swap_nodes, resolve_preset,
)
from swapsim.sim import SimConfig, simulate
from swapsim.training import (
    cross_phase_tensors, expand_training_graph,
    static_peak_estimate,
)

GIB = 2**30
TOY = UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2,
                 convs_per_level=1)


class TestExpand:
    def test_chain_two_structure(self):
        tg = expand_training_graph(gen_chain(2))
        kinds = [tg.graph.node(n).kind for n in tg.serial_order]
        assert kinds == ["conv", "conv", "loss", "grad", "grad"]
        assert set(tg.reuse_edges) == {("t0", "grad/op0"), ("t1", "grad/op1")}

    def test_grad_order_is_exact_reverse(self):
        tg = expand_training_graph(gen_chain(6))
        forward = [n for n in tg.serial_order if tg.graph.node(n).phase == "forward"
                   and tg.graph.node(n).kind != "loss"]
        grads = [n for n in tg.serial_order if tg.graph.node(n).kind == "grad"]
        assert grads == [f"grad/{nid}" for nid in reversed(forward)]

    def test_double_expansion_rejected(self):
        tg = expand_training_graph(gen_chain(2))
        with pytest.raises(GraphError, match="backward"):
            expand_training_graph(tg.graph)

    def test_grad_cost_ratio(self):
        tg = expand_training_graph(gen_chain(3, cost_per_op=5.0), backward_cost_ratio=2.0)
        for gid, fid in tg.grad_of.items():
            assert tg.graph.node(gid).cost_units == 2.0 * tg.graph.node(fid).cost_units

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -1.0])
    def test_bad_grad_cost_ratio_rejected(self, ratio):
        with pytest.raises(GraphError, match=re.escape(
                f"wrong value type at backward_cost_ratio: expected a finite number >= 0, "
                f"got {ratio!r}")):
            expand_training_graph(gen_chain(3), backward_cost_ratio=ratio)

    def test_unet_toy_feature_maps_equal_forward_outputs(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        fwd_outputs = [t.id for t in tg.graph.tensors
                       if tg.graph.node(t.producer).phase == "forward"]
        assert sorted(t for t, _ in tg.reuse_edges) == sorted(fwd_outputs)


def phase_gaps(tg):
    """Per cross-phase tensor, in producer order: the serial positions from
    its producer to its earliest backward consumer."""
    g = tg.graph
    return {tid: min(tg.position(c) for c in g.consumers(tid) if g.node(c).phase == "backward")
            - tg.position(g.tensor(tid).producer) for tid in cross_phase_tensors(tg)}


class TestCrossPhaseEdges:
    def test_first_tensor_has_widest_gap(self):
        gaps = phase_gaps(expand_training_graph(gen_chain(3)))
        assert gaps["t0"] == max(gaps.values())

    def test_empty_graph(self):
        from swapsim.graph import GraphSpec
        tg = expand_training_graph(GraphSpec())
        assert cross_phase_tensors(tg) == []

    def test_gap_strictly_decreases_along_chains(self):
        for n in (1, 2, 5, 17, 50):
            gaps = list(phase_gaps(expand_training_graph(gen_chain(n))).values())
            assert all(a > b for a, b in zip(gaps, gaps[1:]))


def brute_force_peak(tg, intervals, static):
    """Independent per-position scan over the interval table."""
    npos = len(tg.serial_order)
    best = 0
    for pos in range(npos):
        total = 0
        for tid, ivs in intervals.items():
            nbytes = tensor_bytes(tg.graph.tensor(tid))
            if any(start <= pos < end for start, end in ivs):
                total += nbytes
        best = max(best, total)
    return best + static


class TestStaticPeak:
    def test_chain3_no_plan_is_four_tensors(self):
        # t0, t1 and t2 are held until their grads read them, and grad/op2's
        # output is charged at position 4 beside them.
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=1024))
        rep = static_peak_estimate(tg)
        assert rep.peak_bytes == 4 * 1024

    def test_chain3_all_swap_lb1_hand_oracle(self):
        # Hand interval enumeration, positions 0..6 over
        # [op0 op1 op2 loss g2 g1 g0], B = 1024; a tensor is held through
        # its last consumer's position, and an io node spliced after
        # position p acts at p + 1:
        #   t0: {0,1}; t1: {1,2}; t2: {2,3} (each swap_out follows the
        #   last forward reader)
        #   t2@in: {4}; t1@in: {5}; t0@in: {6} (swap_in after its trigger)
        #   grad outs: g2:0 {4,5}; g1:0 {5,6}; g0:0 {6}
        # position sums: B,2B,2B,B,2B,3B,3B -> peak 3B at position 5
        # (t1@in, g2:0, g1:0)
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=1024))
        rw, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        rep = static_peak_estimate(rw, plan)
        assert rep.peak_bytes == 3 * 1024
        assert rep.peak_position == 5

    def test_unet_192_exceeds_16_gib(self):
        tg = expand_training_graph(gen_unet3d(UNetParams(dims=(192, 192, 192))))
        rep = static_peak_estimate(tg)
        assert rep.peak_bytes > 16 * GIB

    def test_matches_brute_force_scan(self):
        for gen in (gen_chain(7), gen_chain(13, bytes_per_tensor=640),
                    gen_unet3d(TOY)):
            tg = expand_training_graph(gen)
            rep = static_peak_estimate(tg)
            assert rep.peak_bytes == brute_force_peak(tg, rep.intervals, rep.static_bytes)

    def test_swap_plan_matches_brute_force_scan(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        rw, plan = apply_rewrite(tg, RewriteConfig(mode="swap", n_tensors=5, lb=2))
        rep = static_peak_estimate(rw, plan)
        assert rep.peak_bytes == brute_force_peak(rw, rep.intervals, rep.static_bytes)

    def test_peak_monotone_in_swap_set(self):
        rng = random.Random(3)
        tg = expand_training_graph(gen_chain(12, bytes_per_tensor=100))
        candidates = cross_phase_tensors(tg)
        for _ in range(30):
            small = rng.sample(candidates, rng.randint(0, len(candidates) - 1))
            extra = [t for t in candidates if t not in small]
            big = small + rng.sample(extra, rng.randint(1, len(extra)))
            lb = rng.randint(1, 5)

            def peak(subset):
                rewritten, plan = insert_swap_nodes(tg, subset, lb)
                return static_peak_estimate(rewritten, plan).peak_bytes

            assert peak(big) <= peak(small)

    def test_recompute_never_below_all_swap(self):
        for gen in (gen_chain(2), gen_chain(9), gen_chain(24, bytes_per_tensor=512),
                    gen_unet3d(TOY)):
            tg = expand_training_graph(gen)
            swap_rw, swap_plan = apply_rewrite(tg, resolve_preset("paper-c1"))
            swap_peak = static_peak_estimate(swap_rw, swap_plan).peak_bytes
            for policy in ("speed", "sqrt_n"):
                rc_rw, rc_plan = apply_rewrite(
                    tg, RewriteConfig(mode="recompute", ckpt_policy=policy))
                rc_peak = static_peak_estimate(rc_rw, rc_plan).peak_bytes
                assert rc_peak >= swap_peak

    def test_swap_plan_on_unrewritten_graph_rejected(self):
        # A swap plan is estimated on the graph it produced, whose io nodes
        # place the transfers; the graph before the rewrite lacks them.
        tg = expand_training_graph(gen_unet3d(UNetParams(
            dims=(16, 16, 16), in_channels=1, base_filters=2, depth=3)))
        for preset in ("paper-c1", "paper-c3", "paper-c4"):
            _, plan = apply_rewrite(tg, resolve_preset(preset))
            with pytest.raises(GraphError, match="plan does not match the graph"):
                static_peak_estimate(tg, plan)

    def test_static_bytes_folded_in(self):
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=10), static_bytes=1000)
        assert static_peak_estimate(tg).peak_bytes == 1000 + 40

    def test_unknown_tensor_in_plan(self):
        tg = expand_training_graph(gen_chain(3))
        plan = RewritePlan(mode="swap", lb=1, swapped={"nope": ("", "", "")})
        with pytest.raises(GraphError, match="nope"):
            static_peak_estimate(tg, plan)

    def test_liveness_report_exports_json(self):
        tg = expand_training_graph(gen_chain(3))
        rep = static_peak_estimate(tg)
        obj = rep.to_obj()
        assert obj["peak_bytes"] == rep.peak_bytes
        assert set(obj["intervals"]) == {t.id for t in tg.graph.tensors}


class TestStaticPeakIsSimulatedPeak:
    """The estimator and the simulator share one residency rule: with
    instant transfers, the static peak is the simulated peak exactly, and
    the conservation check re-derives that peak from the events."""

    INSTANT = SimConfig(compute_rate=1.0, d2h_bw=1e300, h2d_bw=1e300)

    def assert_same_peak(self, tg, plan):
        rep = static_peak_estimate(tg, plan)
        report = simulate(tg, plan, self.INSTANT)
        assert rep.peak_bytes == report.peak_resident
        assert check_memory_conservation(tg, report, self.INSTANT) == []
        trace_peak = max(r for _, r in derive_resident_trace(tg, report))
        assert trace_peak + tg.static_bytes == rep.peak_bytes
        assert sorted(rep.intervals) == sorted(t.id for t in tg.graph.tensors)
        assert all(len(ivs) == 1 for ivs in rep.intervals.values())

    def test_random_instances(self):
        for seed in range(300):
            tg, rewritten, plan, _ = random_instance(seed)
            self.assert_same_peak(tg, None)
            self.assert_same_peak(rewritten, plan)

    def test_random_instances_with_static_bytes(self):
        # The same instances, expanded with static bytes: every peak moves
        # by the same amount, in the estimate, the simulator and the check.
        for seed in range(0, 300, 3):
            _, rewritten, plan, _ = random_instance(seed)
            tg = expand_training_graph(random_forward_graph(random.Random(seed)),
                                       static_bytes=1000 + seed)
            self.assert_same_peak(tg, None)
            rewritten_static, plan = insert_swap_nodes(tg, list(plan.swapped), plan.lb)
            assert rewritten_static.graph.nodes == rewritten.graph.nodes
            self.assert_same_peak(rewritten_static, plan)

    def assert_toy_unet(self, static):
        tg = expand_training_graph(gen_unet3d(TOY), static_bytes=static)
        self.assert_same_peak(tg, None)
        cfgs = [resolve_preset(f"paper-c{i}") for i in (1, 2, 3, 4)]
        cfgs += [RewriteConfig(mode="recompute", ckpt_policy=p) for p in ("speed", "sqrt_n")]
        for cfg in cfgs:
            self.assert_same_peak(*apply_rewrite(tg, cfg))

    def test_toy_unet_swap_and_recompute(self):
        self.assert_toy_unet(0)

    def test_toy_unet_with_static_bytes(self):
        self.assert_toy_unet(3 * 2**20 + 7)
