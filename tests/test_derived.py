"""A swap rewrite's graph derives its index from the base graph's
(``GraphIndex``, ``extend_index``), and the simulator builds the compiled
view from that index (``_CompiledGraph``). Each row of this table checks
that the derived index, and the view built from it, equal what a fresh
``GraphSpec`` of the same rows builds from its rows, once node numbers are
read as node ids, and that both simulate to the same report or the same
error."""
import weakref

import pytest

import swapsim.sim as sim_mod
from swapsim.graph import (GraphError, GraphSpec, NodeSpec, TensorDesc, checked_index,
                           extend_index, validate_graph)
from swapsim.models import UNetParams, gen_chain, gen_unet3d
from swapsim.props import random_instance
from swapsim.rewrite import RewriteConfig, apply_rewrite, insert_swap_nodes, resolve_preset
from swapsim.sim import SimConfig, simulate
from swapsim.training import TrainingGraph, expand_training_graph, static_peak_estimate

TOY = UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2, convs_per_level=1)
PRESETS = ("paper-c1", "paper-c2", "paper-c3", "paper-c4")
# The values that perfbench's unet-sweep draws its 13 seeded swap cells from.
SEEDED_N_TENSORS = (-1, -1, -1, -1, -1, -1, 1, 8, 16, 24, 36, 48, 64)
SEEDED_LB = (1, 2, 4, 6, 8, 10, 13, 16, 20, 24, 28, 32, 40)
SEEDED_EXCL_SCOPES = ((), ("synthesis/*",), ("analysis/l0/*",),
                      ("synthesis/l0/*", "synthesis/l1/*")) * 3 + ((),)
BUDGET = SimConfig(gpu_budget=16 << 30, enforce_budget=True)


def fresh(tg: TrainingGraph) -> TrainingGraph:
    """``tg``'s rows, order and grad map, built anew from a fresh GraphSpec."""
    g = tg.graph
    return TrainingGraph(GraphSpec(g.nodes, g.tensors, g.control_edges, dict(g.metadata)),
                         tg.serial_order, dict(tg.grad_of))


def index_by_name(ix) -> dict:
    ids = ix.ids
    name = ids.__getitem__
    return {"ids": sorted(ids), "nodes": dict(zip(ids, ix.nodes)),
            "index": {nid: ids[i] for nid, i in ix.index.items()},
            "tensor_index": ix.tensor_index,
            "producer": tuple(None if p is None else ids[p] for p in ix.producer),
            "consumers": tuple(tuple(map(name, c)) for c in ix.consumers),
            "rank": dict(zip(ids, ix.rank)), "ranked": [ids[i] for i in ix.ranked],
            "tensor_bytes": ix.tensor_bytes}


def view_by_name(v) -> dict:
    ids = v.ids
    name = ids.__getitem__

    def per_node(column):
        return dict(zip(ids, column))

    def seeds(heap):
        return [(t, key, nid, ids[i]) for t, key, nid, i in heap]

    by_name = {"graph": lambda g: (g.nodes, g.tensors, g.control_edges),
               "static_bytes": lambda b: b, "ids": sorted,
               "channel": per_node, "cost_units": per_node, "inputs": per_node,
               "outputs": per_node, "out_bytes": per_node,
               "succ": lambda succ: per_node([tuple(map(name, s)) for s in succ]),
               "pending": per_node, "issue_pending": per_node, "tensor_size": tuple,
               "refcount": list, "serial": lambda serial: [ids[i] for i in serial],
               "position": per_node, "queue_key": per_node, "d2h_seed": seeds,
               "h2d_seed": seeds,
               "control_src": lambda src: {ids[i]: tuple(map(name, s)) for i, s in src.items()}}
    assert set(by_name) == set(type(v).__slots__)
    return {slot: convert(getattr(v, slot)) for slot, convert in by_name.items()}


def outcome(tg: TrainingGraph, cfg: SimConfig) -> str:
    try:
        return simulate(tg, None, cfg).to_json()
    except GraphError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_derived_equals_built(tg: TrainingGraph, rewritten: TrainingGraph, cfgs) -> None:
    assert rewritten.graph.index.derived  # the derived path, not a build from rows
    built = fresh(rewritten)
    assert not built.graph.index.derived
    assert index_by_name(rewritten.graph.index) == index_by_name(built.graph.index)
    assert view_by_name(sim_mod._view(rewritten)) == view_by_name(sim_mod._view(built))
    for cfg in cfgs:
        assert outcome(rewritten, cfg) == outcome(built, cfg)


@pytest.fixture(scope="module")
def unets():
    return {name: expand_training_graph(gen_unet3d(p))
            for name, p in (("toy", TOY), ("192", UNetParams(dims=(192, 192, 192))))}


def test_every_random_instance():
    for seed in range(100):
        tg, rewritten, _, cfg = random_instance(seed)
        assert_derived_equals_built(tg, rewritten, [cfg, BUDGET])


@pytest.mark.parametrize("graph", ["toy", "192"])
@pytest.mark.parametrize("preset", PRESETS)
def test_unet_presets(unets, graph, preset):
    tg = unets[graph]
    rewritten, _ = apply_rewrite(tg, resolve_preset(preset))
    assert_derived_equals_built(tg, rewritten, [SimConfig(compute_rate=2e12), BUDGET])


@pytest.mark.parametrize("n_tensors, lb, excl_scopes",
                         list(zip(SEEDED_N_TENSORS, SEEDED_LB, SEEDED_EXCL_SCOPES)))
def test_unet_sweep_knobs(unets, n_tensors, lb, excl_scopes):
    tg = unets["192"]
    cfg = RewriteConfig(mode="swap", n_tensors=n_tensors, lb=lb, excl_scopes=excl_scopes)
    rewritten, _ = apply_rewrite(tg, cfg)
    assert_derived_equals_built(tg, rewritten, [
        SimConfig(compute_rate=2e12, d2h_bw=16e9, h2d_bw=16e9, xfer_latency=1e-5), BUDGET])


def with_node(tg: TrainingGraph, node: NodeSpec, tensor: TensorDesc,
              serial_order=None) -> TrainingGraph:
    g = tg.graph
    return TrainingGraph(GraphSpec(g.nodes + (node,), g.tensors + (tensor,), g.control_edges,
                                   dict(g.metadata)),
                         serial_order or tg.serial_order, dict(tg.grad_of))


def test_a_reader_of_two_swapped_tensors():
    """Two backward readers per swapped tensor, one of which reads both."""
    tg = expand_training_graph(gen_chain(3))
    tg = with_node(tg, NodeSpec("extra", "grad", ("t0", "t1"), ("e",), 1.0, "", "backward"),
                   TensorDesc("e", "extra", (2,), 1, 4), tg.serial_order + ("extra",))
    rewritten, _ = insert_swap_nodes(tg, ["t0", "t1"], 1)
    assert rewritten.graph.consumers("t0@in") == ("grad/op0", "extra")
    assert_derived_equals_built(tg, rewritten, [SimConfig(), BUDGET])


def test_a_swapped_tensor_whose_producer_has_a_control_successor():
    """The producer's successors are patched: its data successors change,
    and its control successor still follows them."""
    tg = expand_training_graph(gen_chain(3))
    g = tg.graph
    tg = TrainingGraph(GraphSpec(g.nodes, g.tensors, g.control_edges + (("op1", "grad/op0"),),
                                 dict(g.metadata)), tg.serial_order, dict(tg.grad_of))
    rewritten, _ = insert_swap_nodes(tg, ["t1"], 1)
    assert_derived_equals_built(tg, rewritten, [SimConfig(), BUDGET])


def test_a_rewrite_whose_base_died_simulates_to_the_same_report():
    """A rewrite does not keep its base alive. It simulates to the same
    report once its base is gone, whether its view was built before (the
    view it kept) or after (from its derived index, which already names the
    moved readers' new tensors)."""
    tg = expand_training_graph(gen_unet3d(TOY))
    rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
    derived = [simulate(rewritten, plan, cfg).to_json() for cfg in (SimConfig(), BUDGET)]
    base = weakref.ref(tg)
    del tg
    assert base() is None
    assert [simulate(rewritten, plan, cfg).to_json() for cfg in (SimConfig(), BUDGET)] == derived
    orphan, plan = apply_rewrite(expand_training_graph(gen_unet3d(TOY)),
                                 resolve_preset("paper-c1"))
    assert orphan.graph.index.derived and "compiled_view" not in orphan.derived
    built = fresh(orphan)
    assert view_by_name(sim_mod._view(orphan)) == view_by_name(sim_mod._view(built))
    assert [simulate(orphan, plan, cfg).to_json() for cfg in (SimConfig(), BUDGET)] == derived


def test_a_derived_rewrite_is_simulated_without_a_rule_set_of_its_own():
    """The base's rule set was found when the rewrite read its candidates,
    so the stages that need the rules kept run none on the derived graph."""
    tg = expand_training_graph(gen_unet3d(TOY))
    rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
    assert "violations" in vars(tg.graph)
    simulate(rewritten, plan)
    sim_mod.calibrate_compute_rate(rewritten, plan, SimConfig(), 1.0)
    static_peak_estimate(rewritten, plan)
    assert rewritten.graph.index.derived and "violations" not in vars(rewritten.graph)


def test_the_rule_trust_stops_at_checked_index():
    """A derived index is trusted by ``checked_index`` alone:
    ``validate_graph`` still runs every rule on the derived graph's rows and
    finds a dangling output that the derivation let through."""
    tg = expand_training_graph(gen_chain(3))
    g = tg.graph
    ghost = NodeSpec("swap_in/t0", "swap_in", (), ("ghost",), 0.0, "", "io")
    planted = GraphSpec(g.nodes + (ghost,), g.tensors, g.control_edges, dict(g.metadata))
    extend_index(planted, g, (ghost,), {}, {})
    assert planted.index.derived and checked_index(planted) is planted.index
    assert [str(v) for v in validate_graph(planted)] == [
        "[dangling-tensor] swap_in/t0: produces tensor 'ghost' missing from the tensor table"]


def test_a_derivation_needs_a_base_that_keeps_every_rule():
    tg = expand_training_graph(gen_chain(3))
    g = tg.graph
    broken = GraphSpec(g.nodes, g.tensors, g.control_edges + (("op0", "nowhere"),))
    with pytest.raises(GraphError, match=r"^\[control-edge-unknown-node\] nowhere: "):
        extend_index(GraphSpec(broken.nodes, broken.tensors, broken.control_edges), broken,
                     (), {}, {})


class TestNodeIdTaken:
    """A base graph that already has a node named ``swap_in/t0``: the swap
    of t0 raises the rewritten graph's first violation."""

    def test_taken_by_a_compute_node(self):
        forward = gen_chain(3)
        g = GraphSpec(forward.nodes + (NodeSpec("swap_in/t0", "conv", (), ("x",), 1.0),),
                      forward.tensors + (TensorDesc("x", "swap_in/t0", (2,), 1, 4),))
        tg = expand_training_graph(g)
        with pytest.raises(GraphError) as derived:
            insert_swap_nodes(tg, ["t0"], 1)
        assert str(derived.value) \
            == "[duplicate-node-id] swap_in/t0: node id appears more than once"

    def test_taken_by_an_io_node(self):
        tg = expand_training_graph(gen_chain(3))
        tg = with_node(tg, NodeSpec("swap_in/t0", "swap_in", (), ("y",), 0.0, "", "io"),
                       TensorDesc("y", "swap_in/t0", (2,), 1, 4))
        with pytest.raises(GraphError) as derived:
            insert_swap_nodes(tg, ["t0"], 1)
        assert str(derived.value) \
            == "[duplicate-node-id] swap_in/t0: node id appears more than once"


def test_a_tensor_selected_twice_is_refused():
    tg = expand_training_graph(gen_chain(3))
    with pytest.raises(GraphError, match="^tensor 't0' is selected twice$"):
        insert_swap_nodes(tg, ["t0", "t0"], 1)
