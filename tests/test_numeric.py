import hashlib
import re
import zlib

import numpy as np
import pytest

from swapsim.graph import GraphError, GraphSpec, NodeSpec, TensorDesc, element_count
from swapsim.models import UNetParams, gen_chain, gen_unet3d
from swapsim.numeric import (
    _BLOCK_ROWS, _TOY_OPS, UseAfterSwapError, equivalence_check, grad_check, run_numeric,
)
from swapsim.props import make_broken_swap_variant, random_instance
from swapsim.rewrite import (
    PRESETS, RewriteConfig, apply_rewrite, insert_swap_nodes, resolve_preset,
)
from swapsim.training import (
    TrainingGraph, cross_phase_tensors, execution_order, expand_training_graph, input_nodes,
)

TOY = UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2,
                 convs_per_level=1)


def toy_chain(n=2, kinds=("conv",)):
    return expand_training_graph(gen_chain(n, bytes_per_tensor=64, kinds=kinds))


class TestRunNumeric:
    def test_baseline_is_reproducible(self):
        tg = toy_chain()
        loss_a, grads_a = run_numeric(tg, None, seed=42)
        loss_b, grads_b = run_numeric(tg, None, seed=42)
        assert loss_a == loss_b
        assert np.array_equal(grads_a["t0"], grads_b["t0"])
        assert np.isfinite(loss_a)

    def test_all_swap_is_bit_identical(self):
        tg = toy_chain()
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        base = run_numeric(tg, None, seed=42)
        swapped = run_numeric(rewritten, plan, seed=42)
        assert swapped[0] == base[0]
        assert np.array_equal(swapped[1]["t0"], base[1]["t0"])

    def test_sqrt_n_recompute_is_bit_identical(self):
        tg = toy_chain(9, kinds=("conv", "activation", "norm"))
        rewritten, plan = apply_rewrite(
            tg, RewriteConfig(mode="recompute", ckpt_policy="sqrt_n"))
        base = run_numeric(tg, None, seed=42)
        redone = run_numeric(rewritten, plan, seed=42)
        assert redone[0] == base[0]
        assert np.array_equal(redone[1]["t0"], base[1]["t0"])

    def test_oversized_tensor_rejected(self):
        tg = expand_training_graph(gen_chain(2, bytes_per_tensor=20_001))
        with pytest.raises(GraphError, match="capped"):
            run_numeric(tg, None, seed=0)


class TestGradCheck:
    def test_chain3(self):
        rep = grad_check(toy_chain(3, kinds=("conv", "activation", "norm")), seed=0,
                         eps=1e-5)
        assert rep.max_rel_error < 1e-4

    def test_single_affine_node_is_nearly_exact(self):
        rep = grad_check(toy_chain(1), seed=0, eps=1e-5)
        assert rep.max_rel_error < 1e-7

    def test_unet_toy(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        rep = grad_check(tg, seed=1, eps=1e-5)
        assert rep.max_rel_error < 1e-4

    def test_zero_input_at_activation_kink_is_resampled(self):
        tg = toy_chain(2, kinds=("conv", "activation"))
        zeros = {"t0": np.zeros(64)}
        rep = grad_check(tg, seed=0, inputs=zeros)
        assert rep.resampled
        assert rep.seed_used != 0
        assert rep.max_rel_error < 1e-4

    @staticmethod
    def unequal_concat():
        """``src`` feeds convs of widths 12 and 20, a concat joins them and an
        activation follows, so gradient pieces sent to the wrong concat
        input change the gradient of ``src``."""
        widths = {"src": 8, "a": 12, "b": 20, "cat": 32, "act": 32}
        inputs = {"src": (), "a": ("src:0",), "b": ("src:0",), "cat": ("a:0", "b:0"),
                  "act": ("cat:0",)}
        kinds = {"src": "source", "a": "conv", "b": "conv", "cat": "concat",
                 "act": "activation"}
        g = GraphSpec(
            nodes=tuple(NodeSpec(nid, kinds[nid], inputs[nid], (f"{nid}:0",), 1.0, nid)
                        for nid in widths),
            tensors=tuple(TensorDesc(f"{nid}:0", nid, (w,), 1, 4, nid)
                          for nid, w in widths.items()))
        return expand_training_graph(g)

    def test_concat_backward_routes_pieces_to_their_inputs(self, monkeypatch):
        tg = self.unequal_concat()
        assert grad_check(tg, seed=1).max_rel_error < 1e-4
        concat = _TOY_OPS["concat"]
        monkeypatch.setitem(_TOY_OPS, "concat", concat._replace(
            backward=lambda *args: concat.backward(*args)[::-1]))
        assert grad_check(tg, seed=1).max_rel_error >= 1e-4


def one_op(kind: str, in_widths, out_width: int) -> TrainingGraph:
    """Sources of ``in_widths`` feeding one ``kind`` op of ``out_width``."""
    sources = [NodeSpec(f"s{i}", "source", (), (f"s{i}:0",), 1.0) for i in range(len(in_widths))]
    op = NodeSpec("op", kind, tuple(n.outputs[0] for n in sources), ("y",), 1.0)
    tensors = [TensorDesc(f"s{i}:0", f"s{i}", (w,), 1, 4) for i, w in enumerate(in_widths)]
    return expand_training_graph(GraphSpec(nodes=(*sources, op),
                                           tensors=(*tensors, TensorDesc("y", "op", (out_width,),
                                                                         1, 4))))


# kind, input widths, output width -> None if the toy rule makes that output,
# else what the error says the rule makes.
SIZE_RULES = [
    ("concat", (3, 5), 8, None), ("concat", (3, 5), 7, "8"), ("concat", (3, 5), 9, "8"),
    ("activation", (6,), 6, None), ("activation", (6,), 5, "6"),
    ("norm", (6,), 6, None), ("norm", (6,), 7, "6"),
    ("pool", (6,), 3, None), ("pool", (6,), 6, None), ("pool", (6,), 7, "at most 6"),
    ("conv", (6,), 9, None), ("upsample", (4,), 16, None), ("matmul", (9,), 2, None),
]


class TestSizeRules:
    @pytest.mark.parametrize("kind,in_widths,out_width,makes", SIZE_RULES)
    def test_rule_of_each_kind(self, kind, in_widths, out_width, makes):
        tg = one_op(kind, in_widths, out_width)
        if makes is None:
            assert np.isfinite(run_numeric(tg, None, seed=1)[0])
            return
        with pytest.raises(GraphError, match=re.escape(
                f"node 'op': a {kind} of inputs with {list(in_widths)} elements makes {makes} "
                f"elements, but its output 'y' has {out_width}")):
            run_numeric(tg, None, seed=1)

    def test_random_instances_run_clean_or_name_a_node(self):
        """Random graphs draw every size at random, concats too: each runs
        with deviation 0 or is refused naming the first op that breaks its
        rule, never with a numpy error."""
        clean = refused = 0
        for seed in range(100):
            tg, rewritten, plan, _ = random_instance(seed)
            try:
                rows = equivalence_check(tg, [("x", rewritten, plan)], [0])
            except GraphError as exc:
                assert re.fullmatch(r"node 'n\d\d': a concat of inputs .* has \d+", str(exc))
                refused += 1
                continue
            assert rows == [{"label": "x", "deviation": 0.0, "error": ""}]
            clean += 1
        assert clean and refused

    def test_checked_once_per_graph(self, monkeypatch):
        """grad_check walks the graph once per block; the rules run once."""
        calls = []
        norm = _TOY_OPS["norm"]
        monkeypatch.setitem(_TOY_OPS, "norm", norm._replace(
            widths=lambda in_sizes: calls.append(in_sizes) or norm.widths(in_sizes)))
        tg = toy_chain(6, kinds=("conv", "norm"))
        grad_check(tg, seed=1)
        run_numeric(tg, None, seed=2)
        assert len(calls) == 3  # op1, op3 and op5


class TestEquivalence:
    def variants_for(self, tg):
        variants = [(p,) + apply_rewrite(tg, resolve_preset(p)) for p in sorted(PRESETS)]
        for policy in ("speed", "sqrt_n"):
            variants.append((f"rc-{policy}",) + apply_rewrite(
                tg, RewriteConfig(mode="recompute", ckpt_policy=policy)))
        return variants

    def test_presets_on_toy_unet_deviation_zero(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        rows = equivalence_check(tg, self.variants_for(tg), seeds=[1, 2, 3])
        assert all(row["deviation"] == 0.0 and not row["error"] for row in rows)

    def test_mixed_chain_deviation_zero(self):
        tg = toy_chain(12, kinds=("conv", "activation", "norm", "matmul"))
        rows = equivalence_check(tg, self.variants_for(tg), seeds=[5, 6])
        assert all(row["deviation"] == 0.0 and not row["error"] for row in rows)

    def test_nan_result_is_a_deviation(self, monkeypatch):
        # The variant's matmul ops yield NaN; the baseline has convs only.
        tg = toy_chain(3)
        nan_ops = toy_chain(3, kinds=("conv", "matmul"))
        monkeypatch.setitem(_TOY_OPS, "matmul", _TOY_OPS["matmul"]._replace(
            forward=lambda xs, n_out, nid: xs[0] * np.nan))
        rows = equivalence_check(tg, [("nan", nan_ops, None)], seeds=[1, 2])
        assert np.isnan(rows[0]["deviation"])

    def test_broken_plan_surfaces_use_after_swap(self):
        tg = toy_chain(3)
        broken, plan = make_broken_swap_variant(tg)
        rows = equivalence_check(tg, [("broken", broken, plan)], seeds=[1])
        assert rows[0]["error"]
        assert "use-after-swap" in rows[0]["error"]


def row_at_a_time_grad_check(tg, seed, eps=1e-5):
    """The gradient check one sample per forward pass: the reference that
    the row-block check must match bit for bit."""
    g = tg.graph
    point = {n.outputs[0]: np.random.default_rng((seed, zlib.crc32(n.id.encode())))
             .standard_normal(element_count(g.tensor(n.outputs[0]))) for n in input_nodes(g)}
    _, analytic = run_numeric(tg, None, seed, inputs=point)
    worst = 0.0
    for tid, garr in sorted(analytic.items()):
        for j in range(garr.size):
            losses = []
            for step in (eps, -eps):
                bumped = dict(point)
                bumped[tid] = point[tid].copy()
                bumped[tid][j] += step
                losses.append(run_numeric(tg, None, seed, inputs=bumped)[0])
            numeric = (losses[0] - losses[1]) / (2 * eps)
            denom = max(abs(garr[j]), abs(numeric), 1e-12)
            worst = max(worst, abs(garr[j] - numeric) / denom)
    return worst


class TestRowBlocks:
    """Blocks of samples per forward pass give what one sample per pass gives."""

    def test_equivalence_over_two_blocks_matches_one_call_per_seed(self):
        tg = toy_chain(3, kinds=("conv", "activation", "norm"))
        variants = TestEquivalence().variants_for(tg)
        # Same inputs, other ops: a deviation that differs from seed to seed.
        variants.append(("other-ops", toy_chain(3, kinds=("conv", "norm", "activation")), None))
        variants.append(("broken",) + make_broken_swap_variant(tg))
        seeds = list(range(_BLOCK_ROWS + 1))
        per_seed = [equivalence_check(tg, variants, [s]) for s in seeds]
        expected = [{"label": label,
                     "deviation": max(rows[i]["deviation"] for rows in per_seed),
                     "error": next((rows[i]["error"] for rows in per_seed if rows[i]["error"]),
                                   "")}
                    for i, (label, _, _) in enumerate(variants)]
        got = equivalence_check(tg, variants, seeds)
        assert got == expected
        assert 0.0 < got[-2]["deviation"] < float("inf")
        assert got[-1]["error"].startswith("use-after-swap: ")

    def test_grad_check_matches_row_at_a_time_reference(self):
        # 100 input elements: neither a multiple of the block nor of its half.
        tg = expand_training_graph(gen_chain(4, bytes_per_tensor=400,
                                             kinds=("conv", "activation", "norm", "matmul")))
        assert element_count(tg.graph.tensor("t0")) % (_BLOCK_ROWS // 2) != 0
        for seed in (1, 2):
            rep = grad_check(tg, seed=seed)
            assert not rep.resampled
            assert repr(rep.max_rel_error) == repr(row_at_a_time_grad_check(tg, seed))

    @pytest.mark.parametrize("graph", ["chain", "unet-toy"])
    def test_norm_mean_over_the_whole_block_is_caught(self, graph, monkeypatch):
        tg = PIN_GRAPHS[graph]()
        norm = _TOY_OPS["norm"]
        monkeypatch.setitem(_TOY_OPS, "norm", norm._replace(
            forward=lambda xs, n_out, nid: xs[0] - xs[0].mean()))
        assert grad_check(tg, seed=1).max_rel_error >= 1e-4

    @pytest.mark.parametrize("check", [
        lambda tg: run_numeric(tg, None, seed=-1),
        lambda tg: grad_check(tg, seed=-1),
        lambda tg: equivalence_check(tg, [], seeds=[3, -1]),
    ])
    def test_negative_seed_rejected(self, check):
        with pytest.raises(GraphError, match=r"wrong value type at seeds\[\d\]: expected an "
                                             r"integer >= 0, got -1"):
            check(toy_chain(2))

    def test_bad_seed_past_the_first_block_named_before_any_block_runs(self, monkeypatch):
        import swapsim.numeric as numeric_mod
        blocks = []
        monkeypatch.setattr(numeric_mod, "_execute", lambda *args: blocks.append(args))
        seeds = list(range(_BLOCK_ROWS)) + [0, -1]
        with pytest.raises(GraphError, match=re.escape(
                f"wrong value type at seeds[{_BLOCK_ROWS + 1}]: expected an integer >= 0, "
                f"got -1")):
            equivalence_check(toy_chain(2), [], seeds)
        assert blocks == []


class TestResidencyDiscipline:
    def test_direct_use_after_swap_raises(self):
        tg = toy_chain(3)
        broken, plan = make_broken_swap_variant(tg)
        with pytest.raises(UseAfterSwapError, match="use-after-swap"):
            run_numeric(broken, plan, seed=1)

    def test_recompute_freed_tensors_are_not_readable(self):
        # Corrupt a recompute rewrite: point one grad back at the freed
        # original tensor instead of its clone.
        from swapsim.graph import GraphSpec, NodeSpec
        from swapsim.training import TrainingGraph
        tg = toy_chain(4)
        rewritten, plan = apply_rewrite(
            tg, RewriteConfig(mode="recompute", ckpt_policy="sqrt_n"))
        victim_grad = next(
            gid for gid in rewritten.grad_of
            if any("@rc" in t for t in rewritten.graph.node(gid).inputs))
        g = rewritten.graph
        nodes = tuple(
            NodeSpec(id=n.id, kind=n.kind,
                     inputs=tuple(t.split("@rc")[0] if "@rc" in t else t
                                  for t in n.inputs),
                     outputs=n.outputs, cost_units=n.cost_units, scope=n.scope,
                     phase=n.phase)
            if n.id == victim_grad else n
            for n in g.nodes)
        corrupt = TrainingGraph(
            graph=GraphSpec(nodes=nodes, tensors=g.tensors,
                            control_edges=g.control_edges, metadata=dict(g.metadata)),
            serial_order=rewritten.serial_order, grad_of=dict(rewritten.grad_of))
        with pytest.raises(UseAfterSwapError):
            run_numeric(corrupt, plan, seed=1)


class TestIoAnchoring:
    def test_swap_in_without_trigger_edge_is_rejected(self):
        tg = toy_chain(3)
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        _, in_id, trigger = plan.swapped["t1"]
        g = rewritten.graph
        no_trigger = TrainingGraph(
            graph=GraphSpec(nodes=g.nodes, tensors=g.tensors,
                            control_edges=tuple(e for e in g.control_edges
                                                if e != (trigger, in_id)),
                            metadata=dict(g.metadata)),
            serial_order=rewritten.serial_order, grad_of=dict(rewritten.grad_of))
        with pytest.raises(GraphError, match=f"swap_in '{in_id}' has no trigger control edge"):
            run_numeric(no_trigger, plan, seed=1)

    def test_swap_in_runs_right_after_its_trigger(self):
        tg = toy_chain(9, kinds=("conv", "activation", "norm"))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        order = execution_order(rewritten)
        assert len(plan.swapped) == 9
        for _, in_id, trigger in plan.swapped.values():
            i = order.index(in_id) - 1
            while rewritten.graph.node(order[i]).phase == "io":
                i -= 1
            assert order[i] == trigger

    def test_swap_ins_sharing_a_trigger_run_in_id_order(self):
        # A huge lb clamps every trigger to the first backward node (the
        # last tensor, read by that node itself, triggers at the loss). With
        # eleven tensors, id order (t10 < t2) differs from selection order.
        tg = toy_chain(12)
        rewritten, plan = insert_swap_nodes(tg, cross_phase_tensors(tg)[:-1], lb=1000)
        triggers = {trigger for _, _, trigger in plan.swapped.values()}
        assert len(triggers) == 1
        order = execution_order(rewritten)
        start = order.index(triggers.pop()) + 1
        swap_ins = order[start:start + len(plan.swapped)]
        graph_order = [n.id for n in rewritten.graph.nodes if n.kind == "swap_in"]
        assert swap_ins == sorted(graph_order)
        assert swap_ins != graph_order


class TestTableRows:
    # Op kinds that neither the U-Net nor the mixed chains use. The first op
    # is the input node, so the chain cycles twice to run matmul as well.
    KINDS = ("matmul", "source", "sink", "recompute", "pool", "upsample")

    def test_rare_kinds_check_and_stay_equivalent(self):
        tg = expand_training_graph(gen_chain(12, bytes_per_tensor=48, kinds=self.KINDS))
        for seed in (1, 2, 3):
            assert grad_check(tg, seed=seed).max_rel_error < 1e-4
        variants = [(p,) + apply_rewrite(tg, resolve_preset(p)) for p in sorted(PRESETS)]
        variants.append(("rc-sqrt_n",) + apply_rewrite(
            tg, RewriteConfig(mode="recompute", ckpt_policy="sqrt_n")))
        rows = equivalence_check(tg, variants, seeds=[1, 2])
        assert [(row["deviation"], row["error"]) for row in rows] == [(0.0, "")] * 5


# Outputs of the numeric oracle on the toy graphs `swapsim verify` runs,
# recorded before the op semantics moved into one table: SHA-256 of the loss
# repr and the gradient bytes in tensor-id order, and the grad-check reports.
PIN_GRAPHS = {
    "chain": lambda: expand_training_graph(
        gen_chain(8, bytes_per_tensor=48, kinds=("conv", "activation", "norm"))),
    "unet-toy": lambda: expand_training_graph(gen_unet3d(TOY)),
}
PIN_VARIANTS = {p: resolve_preset(p) for p in sorted(PRESETS)}
PIN_VARIANTS["none"] = RewriteConfig()
PIN_VARIANTS["recompute-speed"] = RewriteConfig(mode="recompute", ckpt_policy="speed")
PIN_VARIANTS["recompute-sqrt_n"] = RewriteConfig(mode="recompute", ckpt_policy="sqrt_n")
PIN_RUN_SHA = {
    "chain": "37947c38c6cd0d8ad14b2bcd2234d82c7ea9a96aef4ef06b9881639b4246bd9e",
    "unet-toy": "9fa1774f5a15ef4ca02ea05c42e1e25e3dd84fd0a2d1cb76a194d1b9ca168e46",
}
PIN_GRAD_CHECK = {
    ("chain", 1): "GradCheckReport(max_rel_error=np.float64(2.7372529148981877e-10), "
                  "seed_used=1, resampled=False)",
    ("chain", 2): "GradCheckReport(max_rel_error=np.float64(9.790458009504075e-10), "
                  "seed_used=2, resampled=False)",
    ("chain", 3): "GradCheckReport(max_rel_error=np.float64(7.546853911333743e-10), "
                  "seed_used=3, resampled=False)",
    ("unet-toy", 1): "GradCheckReport(max_rel_error=np.float64(2.917187852802678e-07), "
                     "seed_used=1, resampled=False)",
    ("unet-toy", 2): "GradCheckReport(max_rel_error=np.float64(7.786740293448942e-08), "
                     "seed_used=2, resampled=False)",
    ("unet-toy", 3): "GradCheckReport(max_rel_error=np.float64(1.4966408563327976e-07), "
                     "seed_used=3, resampled=False)",
}

# repr of run_numeric's loss at seeds 0-3 after the paper-c1 rewrite, on the
# verify toys and on the 1000-op chain the benchmark runs. The loss's last
# bits depend on its summation order: summing rows with
# np.einsum('ij,ij->i') instead of one np.dot per row changes seed 3 on the
# chain and seeds 2 and 3 on the U-Net, though not seed 0.
LOSS_GRAPHS = {**PIN_GRAPHS, "chain-1000": lambda: expand_training_graph(
    gen_chain(1000, 16, 1.0, ("conv", "norm", "activation")))}
PIN_LOSS = {
    "chain": ("6.028327694351163", "2.190817714600467", "4.1759939788720475",
              "3.0194525646638657"),
    "unet-toy": ("42.176333706345105", "40.45182990524857", "41.658941804120396",
                 "40.014314382974405"),
    "chain-1000": ("1.4201467260841008", "1.4201467260840992", "1.4201467260840226",
                   "1.4201467260839693"),
}


class TestNumericByteIdentity:
    @pytest.mark.parametrize("graph", sorted(PIN_LOSS))
    def test_loss_pinned(self, graph):
        rewritten, plan = apply_rewrite(LOSS_GRAPHS[graph](), resolve_preset("paper-c1"))
        losses = tuple(repr(run_numeric(rewritten, plan, seed=s)[0]) for s in range(4))
        assert losses == PIN_LOSS[graph]

    @pytest.mark.parametrize("variant", sorted(PIN_VARIANTS))
    @pytest.mark.parametrize("graph", sorted(PIN_GRAPHS))
    def test_run_numeric_pinned(self, graph, variant):
        rewritten, plan = apply_rewrite(PIN_GRAPHS[graph](), PIN_VARIANTS[variant])
        loss, grads = run_numeric(rewritten, plan, seed=1)
        h = hashlib.sha256(repr(loss).encode())
        for tid in sorted(grads):
            h.update(grads[tid].tobytes())
        assert h.hexdigest() == PIN_RUN_SHA[graph]

    @pytest.mark.parametrize("graph", sorted(PIN_GRAPHS))
    def test_grad_check_pinned(self, graph):
        tg = PIN_GRAPHS[graph]()
        for seed in (1, 2, 3):
            assert repr(grad_check(tg, seed=seed)) == PIN_GRAD_CHECK[(graph, seed)]
