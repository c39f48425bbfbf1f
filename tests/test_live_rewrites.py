"""``apply_rewrite`` derives each rewrite once per (base graph, config) while
a caller holds it: the base keeps a weak table of its live rewrites, and a
swap rewrite keeps the compiled view that it derives from its base's."""
import gc
import re
import weakref

import pytest

import swapsim.rewrite as rewrite_mod
import swapsim.graph as graph_mod
from swapsim.graph import GraphError, GraphSpec, NodeSpec, TensorDesc, dumps_canonical
from swapsim.models import UNetParams, gen_chain, gen_unet3d
from swapsim.props import run_invariant_suite
from swapsim.rewrite import RewriteConfig, apply_rewrite, resolve_preset
from swapsim.sim import SimConfig, simulate
from swapsim.training import TrainingGraph, expand_training_graph, training_to_obj

TOY = UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2, convs_per_level=1)
CONFIGS = {"paper-c1": resolve_preset("paper-c1"), "paper-c4": resolve_preset("paper-c4"),
           "swap-none-selected": RewriteConfig(mode="swap", excl_scopes=("*",)),
           "recompute-speed": RewriteConfig(mode="recompute", ckpt_policy="speed"),
           "recompute-sqrt_n": RewriteConfig(mode="recompute", ckpt_policy="sqrt_n")}
SIM = SimConfig(compute_rate=1e6, d2h_bw=2e4, h2d_bw=2e4)


def toy() -> TrainingGraph:
    return expand_training_graph(gen_unet3d(TOY), static_bytes=64)


def outputs(rewritten: TrainingGraph, plan) -> tuple[str, str, str]:
    return (plan.to_json(), dumps_canonical(training_to_obj(rewritten)),
            simulate(rewritten, plan, SIM).to_json())


@pytest.fixture()
def builds(monkeypatch) -> list:
    """The rewrite stage's calls, one entry per rewrite built."""
    calls = []
    for name in ("insert_swap_nodes", "insert_recompute"):
        real = getattr(rewrite_mod, name)
        monkeypatch.setattr(rewrite_mod, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestLiveRewrites:
    def test_held_rewrite_is_returned_again(self, builds, name):
        tg = toy()
        rewritten, plan = apply_rewrite(tg, CONFIGS[name])
        again = apply_rewrite(tg, CONFIGS[name])
        assert again[0] is rewritten and again[1] is plan
        assert len(builds) == 1

    def test_outputs_equal_a_rewrite_of_a_fresh_base(self, name):
        tg = toy()
        first = apply_rewrite(tg, CONFIGS[name])
        simulate(*first, SIM)  # so that a swap rewrite keeps its view
        again = apply_rewrite(tg, CONFIGS[name])
        assert outputs(*again) == outputs(*apply_rewrite(toy(), CONFIGS[name]))

    def test_dropped_rewrite_dies_and_is_built_again(self, builds, name):
        tg = toy()
        rewritten, plan = apply_rewrite(tg, CONFIGS[name])
        simulate(rewritten, plan, SIM)
        expected = outputs(rewritten, plan)
        # Nothing the rewrite derived stays reachable from the base.
        dead = [weakref.ref(x) for x in (rewritten, plan, rewritten.graph)]
        del rewritten, plan
        gc.collect()
        assert [r() for r in dead] == [None] * 3
        assert len(tg.derived["rewrites"]) == 0
        assert outputs(*apply_rewrite(tg, CONFIGS[name])) == expected
        assert len(builds) == 2

    def test_no_unreachable_objects_with_the_collector_off(self, name):
        """apply_rewrite plus simulate, on a rewrite built anew and on one
        still held, build no reference cycle."""
        tg = toy()
        simulate(*apply_rewrite(tg, CONFIGS[name]), SIM)  # fill the base's first-use caches
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            held = apply_rewrite(tg, CONFIGS[name])
            simulate(*held, SIM)
            simulate(*apply_rewrite(tg, CONFIGS[name]), SIM)
            del held
            found = gc.collect()
        finally:
            (gc.enable if was else gc.disable)()
        assert found == 0


def test_configs_that_differ_only_in_lb_get_different_rewrites():
    tg = toy()
    one = apply_rewrite(tg, RewriteConfig(mode="swap", lb=1))
    four = apply_rewrite(tg, RewriteConfig(mode="swap", lb=4))
    assert one[0] is not four[0] and (one[1].lb, four[1].lb) == (1, 4)
    assert one[1].swapped != four[1].swapped
    assert len(tg.derived["rewrites"]) == 2


def test_none_mode_returns_the_base_and_keeps_no_table():
    tg = toy()
    rewritten, plan = apply_rewrite(tg, RewriteConfig(lb=3))
    assert rewritten is tg and (plan.mode, plan.lb) == ("none", 3)
    assert apply_rewrite(tg, RewriteConfig(lb=3))[1] is not plan
    assert "rewrites" not in tg.derived


def test_config_lists_become_tuples():
    """A config is a table key, so its sequence fields are hashable."""
    cfg = RewriteConfig(mode="swap", excl_scopes=["synthesis/*"])
    assert cfg == resolve_preset("paper-c3") and hash(cfg) == hash(resolve_preset("paper-c3"))
    tg = toy()
    assert apply_rewrite(tg, cfg)[0] is apply_rewrite(tg, resolve_preset("paper-c3"))[0]


def test_a_base_that_already_has_a_swap_in_node_is_refused():
    """The swap of t0 cannot take its new id, so the rewrite raises the
    rewritten graph's first violation and no rewrite is kept."""
    tg = expand_training_graph(gen_chain(3))
    g = tg.graph
    tg = TrainingGraph(GraphSpec(g.nodes + (NodeSpec("swap_in/t0", "swap_in", (), ("y",), 0.0,
                                                     "", "io"),),
                                 g.tensors + (TensorDesc("y", "swap_in/t0", (2,), 1, 4),),
                                 g.control_edges, dict(g.metadata)),
                       tg.serial_order, dict(tg.grad_of))
    for _ in range(2):
        with pytest.raises(GraphError, match=re.escape(
                "[duplicate-node-id] swap_in/t0: node id appears more than once")):
            apply_rewrite(tg, resolve_preset("paper-c1"))
    assert not tg.derived.get("rewrites")


def test_a_sweep_over_links_rewrites_once_per_held_config(builds):
    """The loop of a tuning grid: each cell rewrites and simulates, and the
    link changes fastest, so every other cell finds its rewrite held."""
    tg = expand_training_graph(gen_chain(6))
    for cfg in (resolve_preset("paper-c1"), RewriteConfig(mode="swap", lb=3)):
        for bw in (1e4, 2e4, 4e4):
            rewritten, plan = apply_rewrite(tg, cfg)
            simulate(rewritten, plan, SimConfig(compute_rate=1e6, d2h_bw=bw, h2d_bw=bw))
    assert builds == ["insert_swap_nodes"] * 2


def test_invariant_suite_compares_each_derived_view_with_the_rows(monkeypatch):
    """The suite's determinism check runs each rewrite on its derived index
    and on a copy built from its rows: a derivation of an index from its
    base's that doubles every compute cost is reported there."""
    assert run_invariant_suite(instances=5, seed=1)["failures"] == []
    derive = graph_mod.GraphIndex.__init__

    def slow(ix, g, base=None, *delta):
        derive(ix, g, base, *delta)
        if base is not None:  # a derivation, not a build from rows
            ix.nodes = tuple(n._replace(cost_units=2 * n.cost_units) for n in ix.nodes)

    monkeypatch.setattr(graph_mod.GraphIndex, "__init__", slow)
    failures = run_invariant_suite(instances=5, seed=1)["failures"]
    assert [f for f in failures if f.startswith("[determinism]")] == [
        f"[determinism] instance {i}: a run of the graph differs from a run of a copy built "
        f"from its rows" for i in range(5)]
