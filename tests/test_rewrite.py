import random
import time
from collections import deque
from dataclasses import FrozenInstanceError
from fnmatch import fnmatchcase

import pytest

from swapsim.graph import GraphError, GraphSpec, NodeSpec
from swapsim.models import UNetParams, gen_chain, gen_unet3d
from swapsim.rewrite import (
    PRESETS, RewriteConfig, apply_rewrite, check_rewrite_validity,
    insert_recompute, insert_swap_nodes, plan_checkpoints, resolve_preset,
    select_swap_tensors,
)
from swapsim.training import TrainingGraph, cross_phase_tensors, expand_training_graph

TOY = UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2,
                 convs_per_level=1)


def swap_cfg(**kw):
    return RewriteConfig(mode="swap", **kw)


class TestSelect:
    def test_chain_all(self):
        tg = expand_training_graph(gen_chain(5))
        assert select_swap_tensors(tg, swap_cfg(n_tensors=-1)) == \
            ["t0", "t1", "t2", "t3", "t4"]

    def test_chain_two_shallowest(self):
        tg = expand_training_graph(gen_chain(5))
        assert select_swap_tensors(tg, swap_cfg(n_tensors=2)) == ["t0", "t1"]

    def test_over_asking_returns_all(self):
        tg = expand_training_graph(gen_chain(3))
        assert len(select_swap_tensors(tg, swap_cfg(n_tensors=500))) == 3

    def test_unet_half_selection_includes_synthesis(self):
        # Shortcut edges give synthesis-path producers shallow BFS depth, so
        # they are picked even when only half the candidates are taken.
        tg = expand_training_graph(gen_unet3d(UNetParams(
            dims=(16, 16, 16), in_channels=1, base_filters=2, depth=3)))
        candidates = cross_phase_tensors(tg)
        half = select_swap_tensors(tg, swap_cfg(n_tensors=len(candidates) // 2))
        assert any(t.startswith("synthesis/") for t in half)

    def test_incl_scopes_whitelist_before_excl(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        sel = select_swap_tensors(tg, swap_cfg(
            incl_scopes=("analysis/*",), excl_scopes=("analysis/l0/*",)))
        assert sel and all(t.startswith("analysis/") for t in sel)
        assert not any(t.startswith("analysis/l0/") for t in sel)

    def test_scope_exclusion_property_randomized(self):
        rng = random.Random(9)
        tg = expand_training_graph(gen_unet3d(UNetParams(
            dims=(16, 16, 16), in_channels=1, base_filters=2, depth=3)))
        scopes = ["analysis/*", "synthesis/*", "bottleneck/*", "*/l0/*"]
        for _ in range(20):
            excl = tuple(rng.sample(scopes, rng.randint(0, 2)))
            cfg = swap_cfg(n_tensors=rng.choice([-1, 5, 11]), excl_scopes=excl)
            sel = select_swap_tensors(tg, cfg)
            for t in sel:
                scope = tg.graph.node(tg.graph.tensor(t).producer).scope
                assert not any(fnmatchcase(scope, p) for p in excl)

    def test_selected_count_formula(self):
        tg = expand_training_graph(gen_chain(8))
        candidates = cross_phase_tensors(tg)
        for n in (1, 3, 8, 20):
            assert len(select_swap_tensors(tg, swap_cfg(n_tensors=n))) == \
                min(n, len(candidates))
        assert len(select_swap_tensors(tg, swap_cfg(n_tensors=-1))) == len(candidates)

    def test_wrong_mode_rejected(self):
        tg = expand_training_graph(gen_chain(2))
        with pytest.raises(GraphError, match="swap"):
            select_swap_tensors(tg, RewriteConfig(mode="recompute"))


class TestInsertSwap:
    def test_lb1_trigger_immediately_precedes_consumer(self):
        tg = expand_training_graph(gen_chain(4))
        _, plan = insert_swap_nodes(tg, ["t0"], lb=1)
        # serial: op0..op3 loss grad/op3 grad/op2 grad/op1 grad/op0
        assert plan.swapped["t0"][2] == "grad/op1"

    def test_huge_lb_clamps_to_first_backward(self):
        tg = expand_training_graph(gen_chain(4))
        _, plan = insert_swap_nodes(tg, ["t0"], lb=1000)
        assert plan.swapped["t0"][2] == "grad/op3"

    def test_first_backward_consumer_triggers_at_boundary(self):
        tg = expand_training_graph(gen_chain(2))
        _, plan = insert_swap_nodes(tg, ["t1"], lb=1)
        assert plan.swapped["t1"][2] == "loss"

    def test_non_cross_phase_selection_rejected(self):
        tg = expand_training_graph(gen_chain(3))
        with pytest.raises(GraphError, match="grad/op0:0"):
            insert_swap_nodes(tg, ["grad/op0:0"], lb=1)

    def test_forward_nodes_untouched(self):
        tg = expand_training_graph(gen_chain(5))
        rewritten, _ = insert_swap_nodes(tg, ["t0", "t2"], lb=2)
        assert rewritten.serial_order == tg.serial_order
        for nid in tg.serial_order:
            n0 = tg.graph.node(nid)
            if n0.phase == "forward":
                assert rewritten.graph.node(nid) == n0

    def test_multi_consumer_tensor_gets_one_swap_in(self):
        # Hand-built shortcut: t0 reused by two backward nodes.
        tg = expand_training_graph(gen_chain(3))
        g = tg.graph
        nodes = []
        for n in g.nodes:
            if n.id == "grad/op1":
                nodes.append(NodeSpec(id=n.id, kind=n.kind,
                                      inputs=n.inputs + ("t0",), outputs=n.outputs,
                                      cost_units=n.cost_units, scope=n.scope,
                                      phase=n.phase))
            else:
                nodes.append(n)
        shared = TrainingGraph(
            graph=GraphSpec(nodes=tuple(nodes), tensors=g.tensors,
                            control_edges=g.control_edges, metadata=dict(g.metadata)),
            serial_order=tg.serial_order, grad_of=dict(tg.grad_of))
        rewritten, plan = insert_swap_nodes(shared, ["t0"], lb=1)
        swap_ins = [n for n in rewritten.graph.nodes if n.kind == "swap_in"]
        assert len(swap_ins) == 1
        in_tensor = swap_ins[0].outputs[0]
        consumers = rewritten.graph.consumers(in_tensor)
        assert set(consumers) == {"grad/op0", "grad/op1"}
        # trigger derives from the earliest consumer
        assert plan.swapped["t0"][2] == "grad/op2"
        assert check_rewrite_validity(shared, rewritten, plan) == []


class TestPlanCheckpoints:
    def test_speed_keeps_conv_outputs(self):
        tg = expand_training_graph(gen_chain(4, kinds=("conv", "activation")))
        cps = plan_checkpoints(tg, RewriteConfig(mode="recompute", ckpt_policy="speed"))
        assert {"t0", "t2"} <= set(cps)
        # plus the always-kept loss-adjacent tensor
        assert set(cps) == {"t0", "t2", "t3"}

    def test_sqrt_n_spacing(self):
        tg = expand_training_graph(gen_chain(9))
        cps = plan_checkpoints(tg, RewriteConfig(mode="recompute", ckpt_policy="sqrt_n"))
        assert len(cps) == 3
        assert set(cps) == {"t2", "t5", "t8"}

    def test_manual_plus_loss_adjacent(self):
        tg = expand_training_graph(gen_chain(4))
        cps = plan_checkpoints(tg, RewriteConfig(mode="recompute", ckpt_policy="manual",
                                                 manual_ckpts=("t1",)))
        assert set(cps) == {"t1", "t3"}

    def test_manual_unknown_tensor(self):
        tg = expand_training_graph(gen_chain(4))
        with pytest.raises(GraphError, match="tZ"):
            plan_checkpoints(tg, RewriteConfig(mode="recompute", ckpt_policy="manual",
                                               manual_ckpts=("tZ",)))


class TestInsertRecompute:
    def test_chain4_segment_rule(self):
        tg = expand_training_graph(gen_chain(4))
        rewritten, plan = insert_recompute(tg, ["t1", "t3"])
        # grad/op3 keeps reading t3; grad/op2 reads the op2 clone's output;
        # t0 is a graph input so grad/op0 needs no clone.
        assert "t3" in rewritten.graph.node("grad/op3").inputs
        assert list(plan.clone_map.values()) == ["op2"]
        clone_out = [t for t in rewritten.graph.node("grad/op2").inputs
                     if t.startswith("t2@rc")]
        assert len(clone_out) == 1

    def test_all_checkpoints_is_identity(self):
        tg = expand_training_graph(gen_chain(5))
        rewritten, plan = insert_recompute(tg, cross_phase_tensors(tg))
        assert plan.clone_map == {}
        assert plan.recompute_segments == ()
        assert rewritten.serial_order == tg.serial_order
        assert rewritten.graph == tg.graph

    def test_chain9_sqrt_n_added_cost_hand_oracle(self):
        # ckpts {t2,t5,t8}; t0 is the graph input.
        # seg [op6..op8]: grads need t7,t6 -> clone op6,op7
        # seg [op3..op5]: grads need t4,t3 -> clone op3,op4
        # seg [op0..op2]: grads need t1    -> clone op1
        # five clones at unit cost -> 5.0 added
        tg = expand_training_graph(gen_chain(9, cost_per_op=1.0))
        cps = plan_checkpoints(tg, RewriteConfig(mode="recompute", ckpt_policy="sqrt_n"))
        rewritten, plan = insert_recompute(tg, cps)
        assert sorted(plan.clone_map.values()) == ["op1", "op3", "op4", "op6", "op7"]
        assert sum(rewritten.graph.node(c).cost_units for c in plan.clone_map) == 5.0

    def test_clones_match_kind_and_cost(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        rewritten, plan = insert_recompute(
            tg, plan_checkpoints(tg, RewriteConfig(mode="recompute", ckpt_policy="speed")))
        for clone, orig in plan.clone_map.items():
            cn = rewritten.graph.node(clone)
            on = tg.graph.node(orig)
            assert (cn.kind, cn.cost_units) == (on.kind, on.cost_units)
        assert check_rewrite_validity(tg, rewritten, plan) == []

    def test_non_cross_phase_checkpoint_rejected(self):
        tg = expand_training_graph(gen_chain(3))
        with pytest.raises(GraphError, match="cross-phase"):
            insert_recompute(tg, ["grad/op0:0"])

    @pytest.mark.parametrize("graph,cfg", [
        ("unet", RewriteConfig(mode="recompute", ckpt_policy="speed")),
        ("unet", RewriteConfig(mode="recompute", ckpt_policy="sqrt_n")),
        ("chain", RewriteConfig(mode="recompute", ckpt_policy="speed")),
        ("chain", RewriteConfig(mode="recompute", ckpt_policy="sqrt_n")),
        ("chain", RewriteConfig(mode="recompute", ckpt_policy="manual",
                                manual_ckpts=("t4", "t5", "t17", "t30"))),
    ])
    def test_segment_anchor_is_the_last_checkpoint_before_its_clones(self, graph, cfg):
        # Reference: scan the forward order backwards from the segment's
        # earliest cloned op for the last checkpoint produced before it.
        g = gen_unet3d(TOY) if graph == "unet" else gen_chain(
            40, kinds=("conv", "norm", "activation", "pool"))
        tg = expand_training_graph(g)
        _, plan = apply_rewrite(tg, cfg)
        produced = [tg.graph.node(nid).outputs[:1] for nid in tg.serial_order]
        anchors = []
        for anchor, originals in plan.recompute_segments:
            first_pos = min(tg.position(o) for o in originals)
            expected = next((out[0] for out in reversed(produced[:first_pos])
                             if out and out[0] in plan.checkpoints), "")
            assert anchor == expected
            anchors.append(anchor)
        assert len(anchors) > 1 and any(anchors)


def _reachable(g, src):
    succ = {}
    for a, b in g.edges():
        succ.setdefault(a, set()).add(b)
    seen = {src}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in succ.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _with_control_edges(tg, control_edges):
    g = tg.graph
    return TrainingGraph(
        graph=GraphSpec(nodes=g.nodes, tensors=g.tensors, control_edges=tuple(control_edges),
                        metadata=dict(g.metadata)),
        serial_order=tg.serial_order, grad_of=dict(tg.grad_of))


def _swap_all_chain(n):
    tg = expand_training_graph(gen_chain(n))
    return (tg,) + apply_rewrite(tg, resolve_preset("paper-c1"))


class TestValidity:
    def test_generated_swap_plans_are_clean(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        for preset in sorted(PRESETS):
            rewritten, plan = apply_rewrite(tg, resolve_preset(preset))
            assert check_rewrite_validity(tg, rewritten, plan) == []

    def test_deleted_swap_in_is_flagged(self):
        tg = expand_training_graph(gen_chain(3))
        from swapsim.props import make_broken_swap_variant
        broken, plan = make_broken_swap_variant(tg)
        codes = {v.code for v in check_rewrite_validity(tg, broken, plan)}
        assert "consumer-bypasses-swap-in" in codes or "missing-swap-in" in codes

    def test_clone_kind_mismatch_is_flagged(self):
        tg = expand_training_graph(gen_chain(4))
        rewritten, plan = insert_recompute(tg, ["t1", "t3"])
        g = rewritten.graph
        corrupt_nodes = tuple(
            NodeSpec(id=n.id, kind="matmul", inputs=n.inputs, outputs=n.outputs,
                     cost_units=n.cost_units, scope=n.scope, phase=n.phase)
            if n.id in plan.clone_map else n
            for n in g.nodes)
        corrupt = TrainingGraph(
            graph=GraphSpec(nodes=corrupt_nodes, tensors=g.tensors,
                            control_edges=g.control_edges, metadata=dict(g.metadata)),
            serial_order=rewritten.serial_order, grad_of=dict(rewritten.grad_of))
        codes = {v.code for v in check_rewrite_validity(tg, corrupt, plan)}
        assert "clone-mismatch" in codes

    def test_dropped_swap_out_edge_is_missing_control(self):
        tg, rewritten, plan = _swap_all_chain(4)
        out_id, in_id, _ = plan.swapped["t1"]
        corrupt = _with_control_edges(
            rewritten, (e for e in rewritten.graph.control_edges if e != (out_id, in_id)))
        violations = check_rewrite_validity(tg, corrupt, plan)
        assert [(v.code, v.subject) for v in violations] == [("missing-control", "t1")]
        assert "from swap_out" in violations[0].message

    def test_dropped_trigger_edge_is_missing_control(self):
        tg, rewritten, plan = _swap_all_chain(4)
        _, in_id, trigger = plan.swapped["t0"]
        corrupt = _with_control_edges(
            rewritten, (e for e in rewritten.graph.control_edges if e != (trigger, in_id)))
        violations = check_rewrite_validity(tg, corrupt, plan)
        assert [(v.code, v.subject) for v in violations] == [("missing-control", "t0")]
        assert "from trigger" in violations[0].message

    def test_plan_pointing_at_wrong_trigger(self):
        tg, rewritten, plan = _swap_all_chain(4)
        out_id, in_id, trigger = plan.swapped["t0"]
        wrong = rewritten.serial_order[rewritten.boundary_position]
        assert wrong != trigger
        plan.swapped["t0"] = (out_id, in_id, wrong)
        # The plan alone moved: the graph has no edge from the named trigger.
        assert [(v.code, v.subject) for v in check_rewrite_validity(tg, rewritten, plan)] == \
            [("missing-control", "t0"), ("trigger-position", "t0")]
        # Graph and plan moved together: only the position is wrong.
        moved = _with_control_edges(
            rewritten, ((wrong, in_id) if e == (trigger, in_id) else e
                        for e in rewritten.graph.control_edges))
        violations = check_rewrite_validity(tg, moved, plan)
        assert [(v.code, v.subject) for v in violations] == [("trigger-position", "t0")]
        assert repr(trigger) in violations[0].message

    def test_swap_all_check_on_4000_op_chain_is_fast(self):
        # A tuple scan per control-edge lookup made this check quadratic:
        # 0.7-1.4 s on a 2-core x86 VM, where the indexed check takes about
        # 0.06 s, so the bound leaves 5x headroom and still fails the scan.
        tg = expand_training_graph(gen_chain(4000, kinds=("conv", "norm", "activation")))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            violations = check_rewrite_validity(tg, rewritten, plan)
            best = min(best, time.perf_counter() - start)
        assert violations == []
        assert best < 0.3

    def test_rewrites_preserve_partial_order(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        for cfg in (resolve_preset("paper-c4"),
                    RewriteConfig(mode="recompute", ckpt_policy="speed")):
            rewritten, _ = apply_rewrite(tg, cfg)
            for u, v in tg.graph.edges():
                assert v in _reachable(rewritten.graph, u), (u, v, cfg.mode)

    def test_preset_resolution(self):
        assert resolve_preset("paper-c4").lb == 20
        assert resolve_preset("paper-c2").n_tensors == 500
        assert resolve_preset("paper-c3").excl_scopes == ("synthesis/*",)
        with pytest.raises(GraphError, match="unknown preset"):
            resolve_preset("c9")

    def test_presets_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            resolve_preset("paper-c1").lb = 7
        assert resolve_preset("paper-c1").lb == 1

    def test_insert_swap_nodes_checks_lb(self):
        tg = expand_training_graph(gen_chain(3))
        with pytest.raises(GraphError, match="at lb: expected an integer >= 1, got 0"):
            insert_swap_nodes(tg, ["t0"], 0)

    def test_plan_round_trip(self, tmp_path):
        from swapsim.rewrite import load_plan, save_plan
        tg = expand_training_graph(gen_unet3d(TOY))
        _, plan = apply_rewrite(tg, resolve_preset("paper-c4"))
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.swapped == plan.swapped
        assert loaded.lb == plan.lb
        assert loaded.mode == plan.mode
