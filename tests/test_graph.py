import ast
import gc
import heapq
import json
import math
import random
import re
from collections import Counter, deque
from dataclasses import replace
from inspect import signature
from pathlib import Path
from types import SimpleNamespace
from typing import Literal

import numpy as np
import pytest

from swapsim import cli as cli_mod
from swapsim import graph as graph_mod
from swapsim import models as models_mod
from swapsim import numeric as numeric_mod
from swapsim import props as props_mod
from swapsim import rewrite as rewrite_mod
from swapsim import sim as sim_mod
from swapsim import training as training_mod
from swapsim.graph import (
    Count, GraphError, GraphSpec, NodeSpec, Positive, Schema, Size, TensorDesc, _all_fit,
    _fits, bfs_depths, dumps_canonical, graph_from_obj, graph_to_obj,
    load_document, load_graph, save_graph, tensor_bytes, validate_graph, validate_graph_order,
)
from swapsim.models import UNetParams, gen_chain, gen_unet3d
from swapsim.props import random_instance, run_invariant_suite
from swapsim.rewrite import (RewriteConfig, RewritePlan, apply_rewrite, check_rewrite_validity,
                             insert_recompute, insert_swap_nodes, resolve_preset)
from swapsim.sim import SimConfig, calibrate_compute_rate, epoch_time, simulate, sweep, xfer_cost
from swapsim.training import (
    TrainingGraph, cross_phase_tensors, expand_training_graph, load_training_graph,
    save_training_graph, static_peak_estimate, training_from_obj, training_to_obj,
)


def chain_graph(ids=("a", "b", "c")):
    nodes = []
    tensors = []
    prev = None
    for nid in ids:
        inputs = (f"{prev}:0",) if prev else ()
        nodes.append(NodeSpec(id=nid, kind="conv", inputs=inputs, outputs=(f"{nid}:0",),
                              cost_units=1.0, scope=nid))
        tensors.append(TensorDesc(id=f"{nid}:0", producer=nid, shape=(4,), channels=1,
                                  elem_bytes=4, scope=nid))
        prev = nid
    return GraphSpec(nodes=tuple(nodes), tensors=tuple(tensors))


KINDS = ("Literal['conv', 'matmul', 'norm', 'activation', 'concat', 'pool', 'upsample', 'loss', "
         "'grad', 'swap_out', 'swap_in', 'recompute', 'source', 'sink']")


class TestValidate:
    def test_well_formed_chain_is_empty(self):
        assert validate_graph(chain_graph()) == []

    def test_cycle_edge_back_to_head(self):
        g = chain_graph()
        cyclic = GraphSpec(nodes=g.nodes, tensors=g.tensors,
                           control_edges=(("c", "a"),))
        report = validate_graph(cyclic)
        assert [v.code for v in report] == ["cycle"]

    def test_dangling_tensor(self):
        g = chain_graph()
        extra = NodeSpec(id="d", kind="conv", inputs=("ghost",), outputs=("d:0",))
        bad = GraphSpec(nodes=g.nodes + (extra,),
                        tensors=g.tensors + (TensorDesc("d:0", "d", (1,), 1, 4),))
        codes = {v.code for v in validate_graph(bad)}
        assert "dangling-tensor" in codes

    def test_duplicate_ids(self):
        g = chain_graph()
        dup = GraphSpec(nodes=g.nodes + (g.nodes[0],), tensors=g.tensors)
        codes = [v.code for v in validate_graph(dup)]
        assert "duplicate-node-id" in codes

    @pytest.mark.parametrize("extra, listed", [
        ((), []), ((TensorDesc("z", "b", (2,), 1, 4),),
                   ["[no-producer] z: no node lists this tensor as an output"])])
    def test_a_node_id_ending_in_plus_is_one_producer(self, extra, listed):
        g = GraphSpec(nodes=(NodeSpec("a+", "conv", (), ("x",)),
                             NodeSpec("b", "conv", ("x",), ("y",))),
                      tensors=(TensorDesc("x", "a+", (2,), 1, 4),
                               TensorDesc("y", "b", (2,), 1, 4)) + extra)
        assert [str(v) for v in validate_graph(g)] == listed

    def test_negative_size(self):
        t = TensorDesc(id="x:0", producer="x", shape=(0,), channels=1, elem_bytes=4)
        n = NodeSpec(id="x", kind="conv", outputs=("x:0",))
        codes = {v.code for v in validate_graph(GraphSpec(nodes=(n,), tensors=(t,)))}
        assert "wrong-type" in codes

    def test_io_node_with_cost(self):
        n = NodeSpec(id="s", kind="swap_out", inputs=(), outputs=(), cost_units=2.0,
                     phase="io")
        codes = {v.code for v in validate_graph(GraphSpec(nodes=(n,)))}
        assert "io-cost" in codes

    # An io node moves one tensor: the four arities beside each kind's own.
    IO_ARITY = [
        ("swap_out", (), (), "got 0 and 0"), ("swap_out", ("a:0", "b:0"), (), "got 2 and 0"),
        ("swap_in", ("a:0",), ("s:0",), "got 1 and 1"), ("swap_in", (), (), "got 0 and 0"),
    ]

    @pytest.mark.parametrize("kind, inputs, outputs, got", IO_ARITY)
    def test_io_node_arity(self, kind, inputs, outputs, got):
        g = chain_graph()
        s = NodeSpec("s", kind, inputs, outputs, 0.0, "", "io")
        tensors = (TensorDesc("s:0", "s", (4,), 1, 4),) if outputs else ()
        bad = GraphSpec(nodes=g.nodes + (s,), tensors=g.tensors + tensors)
        reads, writes = (1, 0) if kind == "swap_out" else (0, 1)
        assert [str(v) for v in validate_graph(bad)] == [
            f"[io-arity] s: wrong arity at nodes[3]: a {kind} reads {reads} and writes "
            f"{writes} tensors, {got}"]
        doc = graph_to_obj(bad)
        with pytest.raises(GraphError, match=re.escape(f"wrong arity at nodes[3]: a {kind}")):
            graph_from_obj(doc)

    @pytest.mark.parametrize("kind, inputs, outputs", [
        ("swap_out", ("a:0",), ()), ("swap_in", (), ("s:0",))])
    def test_io_node_of_its_arity(self, kind, inputs, outputs):
        g = chain_graph()
        s = NodeSpec("s", kind, inputs, outputs, 0.0, "", "io")
        tensors = (TensorDesc("s:0", "s", (4,), 1, 4),) if outputs else ()
        assert validate_graph(GraphSpec(nodes=g.nodes + (s,), tensors=g.tensors + tensors)) == []

    @pytest.mark.parametrize("field, value, code", [
        ("cost_units", float("nan"), "wrong-type"), ("cost_units", float("inf"), "wrong-type"),
        ("cost_units", "1", "wrong-type"), ("scope", 3, "wrong-type"),
        ("kind", ["conv"], "wrong-type"),
        ("shape", (1.5,), "wrong-type"), ("channels", True, "wrong-type"),
    ])
    def test_field_rule_broken(self, field, value, code):
        g = chain_graph()
        node, tensor = g.nodes[0], g.tensors[0]
        if field in NodeSpec._fields:
            node = node._replace(**{field: value})
        else:
            tensor = tensor._replace(**{field: value})
        bad = GraphSpec(nodes=(node,) + g.nodes[1:], tensors=(tensor,) + g.tensors[1:])
        subject = "a" if field in NodeSpec._fields else "a:0"
        assert [(v.code, v.subject) for v in validate_graph(bad)] == [(code, subject)]

    # One row per row field, and the values the loader once caught by hand:
    # (rows, field, a value that breaks the field's annotation, the message).
    ONE_RULE = [
        ("nodes", "id", 3, "wrong value type at nodes[0].id: expected a string, got 3"),
        ("nodes", "kind", "bogus", f"wrong value type at nodes[0].kind: expected {KINDS}, "
                                   f"got 'bogus'"),
        ("nodes", "kind", ["conv"], f"wrong value type at nodes[0].kind: expected {KINDS}, "
                                    f"got a list of 1 items"),
        ("nodes", "inputs", [3], "wrong value type at nodes[0].inputs[0]: expected a string, "
                                 "got 3"),
        ("nodes", "inputs", "abc", "wrong value type at nodes[0].inputs: expected "
                                   "tuple[str, ...], got 'abc'"),
        ("nodes", "outputs", None, "wrong value type at nodes[0].outputs: expected "
                                   "tuple[str, ...], got None"),
        ("nodes", "cost_units", -1.0, "wrong value type at nodes[0].cost_units: expected a "
                                      "finite number >= 0, got -1.0"),
        ("nodes", "cost_units", True, "wrong value type at nodes[0].cost_units: expected a "
                                      "finite number >= 0, got True"),
        ("nodes", "cost_units", 10 ** 400, "wrong value type at nodes[0].cost_units: expected "
                                           f"a finite number >= 0, got {10 ** 400}"),
        ("nodes", "scope", 3, "wrong value type at nodes[0].scope: expected a string, got 3"),
        ("nodes", "phase", "sideways", "wrong value type at nodes[0].phase: expected "
                                       "Literal['forward', 'backward', 'io'], got 'sideways'"),
        ("nodes", "kind", "swap_in", "nonzero cost at nodes[0].cost_units: an io node costs 0, "
                                     "got 1.0"),
        ("tensors", "id", None, "wrong value type at tensors[0].id: expected a string, got None"),
        ("tensors", "producer", 7, "wrong value type at tensors[0].producer: expected a string, "
                                   "got 7"),
        ("tensors", "shape", [4, 0], "wrong value type at tensors[0].shape[1]: expected an "
                                     "integer >= 1, got 0"),
        ("tensors", "shape", [], "empty shape at tensors[0].shape: a tensor has at least one "
                                 "extent"),
        ("tensors", "channels", 2.5, "wrong value type at tensors[0].channels: expected an "
                                     "integer >= 1, got 2.5"),
        ("tensors", "elem_bytes", 0, "wrong value type at tensors[0].elem_bytes: expected an "
                                     "integer >= 1, got 0"),
        ("tensors", "scope", False, "wrong value type at tensors[0].scope: expected a string, "
                                    "got False"),
    ]

    @pytest.mark.parametrize("rows, field, value, message", ONE_RULE)
    def test_one_annotation_two_checkers(self, rows, field, value, message):
        """The loader (on a document) and validate_graph (on rows) report a
        value that breaks its field's annotation in the same words."""
        g = chain_graph()
        doc = graph_to_obj(g)
        doc[rows][0][field] = value
        with pytest.raises(GraphError) as exc:
            graph_from_obj(doc)
        assert str(exc.value) == message
        first = getattr(g, rows)[0]._replace(**{field: value})
        bad = replace(g, **{rows: (first,) + getattr(g, rows)[1:]})
        assert [v.message for v in validate_graph(bad)] == [message]

    def test_every_row_field_has_a_row(self):
        assert {(rows, f) for rows, f, _, _ in self.ONE_RULE} \
            == {("nodes", f) for f in NodeSpec._fields} | {("tensors", f) for f in TensorDesc._fields}

    def test_a_document_path_prefixes_the_row(self):
        doc = training_to_obj(expand_training_graph(chain_graph()))
        doc["graph"]["tensors"][1]["shape"] = [2.5]
        with pytest.raises(GraphError, match=re.escape(
                "wrong value type at graph.tensors[1].shape[0]: expected an integer >= 1, got 2.5")):
            training_from_obj(doc)


BIG = 10 ** 400  # an int too large for a float
HINTS = [str, int, float, Positive, Count, Size, Literal["a", "b"], Literal[1, "a"],
         tuple[str, ...], tuple[Count, ...], tuple[str, str], tuple[int, str]]
COLUMNS = [[], ["a"], ["a", "b", "c"], [1, 2], [0, 1], [-1, 3], [True], [1, 2.5], [0.0, -0.0],
           [math.nan], [1.0, math.inf], [BIG], [-BIG], [math.nextafter(math.inf, 0)],
           [1, int(math.nextafter(math.inf, 0)) + 1],
           [2 ** 1024 - 2 ** 970], [type("F", (float,), {})(2.0)], [np.float64(3.0)],
           [("a",), ["b", "c"]], [("a", 3)], [(1, 2), (3,)], [(1, 0)], [("a", "b"), ("c", "d")],
           [("a", "b"), ("c",)], [(1, "a")], [()], ["ab", ("a",)], [[["a"]]], [None], [{"a": 1}]]


@pytest.mark.parametrize("hint", HINTS, ids=str)
def test_a_column_fits_as_its_values_do(hint):
    """``_all_fit``'s few passes decide a column as ``_fits`` decides each value."""
    for column in COLUMNS:
        assert _all_fit(column, hint) == all(_fits(v, hint) for v in column), column


class TestTopoOrder:
    """The dependency-respecting order of a valid graph, the one that
    ``expand_training_graph`` runs the forward ops in."""

    def test_chain(self):
        assert validate_graph_order(chain_graph())[1] == ["a", "b", "c"]

    def test_diamond_tie_breaks_lexicographically(self):
        nodes = (
            NodeSpec(id="a", kind="conv", outputs=("a:0",)),
            NodeSpec(id="b", kind="conv", inputs=("a:0",), outputs=("b:0",)),
            NodeSpec(id="c", kind="conv", inputs=("a:0",), outputs=("c:0",)),
            NodeSpec(id="d", kind="concat", inputs=("b:0", "c:0"), outputs=("d:0",)),
        )
        tensors = tuple(TensorDesc(f"{n.id}:0", n.id, (2,), 1, 4) for n in nodes)
        assert validate_graph_order(GraphSpec(nodes=nodes, tensors=tensors))[1] \
            == ["a", "b", "c", "d"]

    def test_empty_graph(self):
        assert validate_graph_order(GraphSpec()) == ([], [])

    def test_cycle_names_a_member(self):
        g = chain_graph()
        cyclic = GraphSpec(nodes=g.nodes, tensors=g.tensors, control_edges=(("c", "a"),))
        violations, order = validate_graph_order(cyclic)
        assert order == [] and [(v.code, v.message) for v in violations] \
            == [("cycle", "node participates in a cycle")]
        assert violations[0].subject in {"a", "b", "c"}


class TestBfsDepths:
    def test_chain(self):
        assert bfs_depths(chain_graph()) == {"a": 0, "b": 1, "c": 2}

    def test_shortcut_gives_shallow_depth(self):
        # a feeds z directly and through a long path: depth(z) = 1
        ids = ["a", "b", "c", "d"]
        nodes = []
        tensors = []
        prev = None
        for nid in ids:
            inputs = (f"{prev}:0",) if prev else ()
            nodes.append(NodeSpec(id=nid, kind="conv", inputs=inputs, outputs=(f"{nid}:0",)))
            tensors.append(TensorDesc(f"{nid}:0", nid, (2,), 1, 4))
            prev = nid
        nodes.append(NodeSpec(id="z", kind="concat", inputs=("a:0", "d:0"), outputs=("z:0",)))
        tensors.append(TensorDesc("z:0", "z", (4,), 1, 4))
        depths = bfs_depths(GraphSpec(nodes=tuple(nodes), tensors=tuple(tensors)))
        assert depths["z"] == 1

    def test_unet_first_synthesis_concat_is_shallow(self):
        # The shortcut edge makes the first synthesis concat at most one hop
        # deeper than its analysis level, so it sits above the deepest
        # analysis node -- the structural cause of shallow-synthesis selection.
        g = gen_unet3d(UNetParams(dims=(16, 16, 16), in_channels=1, base_filters=1,
                                  depth=3, convs_per_level=1))
        depths = bfs_depths(g)
        deepest_analysis = max(d for nid, d in depths.items() if nid.startswith("analysis/"))
        first_concat = depths["synthesis/l1/concat"]
        assert first_concat <= deepest_analysis

    def test_edge_property(self):
        g = gen_unet3d(UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1,
                                  depth=2, convs_per_level=1))
        depths = bfs_depths(g)
        for u, v in g.edges():
            assert depths[v] <= depths[u] + 1
        for n in g.nodes:
            if not n.inputs:
                assert depths[n.id] == 0


class TestTensorBytes:
    def test_full_volume(self):
        t = TensorDesc("x", "p", (192, 192, 192), 4, 4)
        assert tensor_bytes(t) == 113_246_208

    def test_single_element(self):
        assert tensor_bytes(TensorDesc("x", "p", (1, 1, 1), 1, 4)) == 4

    def test_patch_volume(self):
        assert tensor_bytes(TensorDesc("x", "p", (128, 128, 128), 1, 4)) == 8_388_608

    def test_overflow_guard(self):
        t = TensorDesc("x", "p", (2**40, 2**40), 1, 8)
        with pytest.raises(GraphError, match="overflow"):
            tensor_bytes(t)


class TestGraphIO:
    def test_round_trip_identity(self, tmp_path):
        g = chain_graph()
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_save_is_idempotent(self, tmp_path):
        g = gen_unet3d(UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1,
                                  depth=2, convs_per_level=1))
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        save_graph(g, p1)
        save_graph(load_graph(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_kind_named_in_error(self, tmp_path):
        obj = graph_to_obj(chain_graph())
        obj["nodes"][0]["kind"] = "warp"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(GraphError, match="warp"):
            load_graph(path)

    def test_version_mismatch(self, tmp_path):
        obj = graph_to_obj(chain_graph())
        obj["version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(GraphError, match="version"):
            load_graph(path)

    def test_malformed_file_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n  "nodes": [}\n')
        with pytest.raises(GraphError, match="line"):
            load_graph(path)


def random_dag(rng):
    n = rng.randint(1, 12)
    nodes = []
    tensors = []
    for i in range(n):
        tid = f"t{i:02d}"
        if i and rng.random() < 0.8:
            k = rng.randint(1, min(2, i))
            inputs = tuple(f"t{j:02d}" for j in sorted(rng.sample(range(i), k)))
        else:
            inputs = ()
        kind = "concat" if len(inputs) == 2 else "conv"
        nodes.append(NodeSpec(id=f"n{i:02d}", kind=kind, inputs=inputs, outputs=(tid,),
                              cost_units=float(rng.randint(0, 9))))
        tensors.append(TensorDesc(tid, f"n{i:02d}", (rng.randint(1, 8),), 1, 4))
    return GraphSpec(nodes=tuple(nodes), tensors=tuple(tensors))


class TestProperties:
    def test_topo_is_edge_respecting_permutation(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_dag(rng)
            order = validate_graph_order(g)[1]
            assert sorted(order) == sorted(n.id for n in g.nodes)
            pos = {nid: i for i, nid in enumerate(order)}
            for u, v in g.edges():
                assert pos[u] < pos[v]

    def test_round_trip_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_dag(rng)
            assert graph_from_obj(graph_to_obj(g)) == g

    def test_validate_empty_iff_topo_succeeds(self):
        rng = random.Random(5)
        for i in range(40):
            g = random_dag(rng)
            if i % 2 and len(g.nodes) >= 2:
                # corrupt: add a back control edge to force a cycle
                g = GraphSpec(nodes=g.nodes, tensors=g.tensors,
                              control_edges=((g.nodes[-1].id, g.nodes[0].id),))
            violations, order = validate_graph_order(g)
            assert violations == validate_graph(g)
            assert bool(violations) != (sorted(order) == sorted(n.id for n in g.nodes))


# ---------------------------------------------------------------------------
# The row writers must write exactly dumps_canonical of the object form.

TOY = UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2, convs_per_level=1)
REWRITES = [resolve_preset(p) for p in ("paper-c1", "paper-c2", "paper-c3", "paper-c4")] + [
    RewriteConfig(mode="recompute", ckpt_policy=p) for p in ("speed", "sqrt_n")]
ODD = 'q"b\\s\x00\x1f\t\n\x7f é ✓ 𝄞'


def saved_text(save, value, tmp_path):
    path = tmp_path / "doc.json"
    save(value, path)
    return path.read_text(encoding="utf-8")


def assert_canonical(g, tmp_path, tg=None):
    """save_graph(g) and save_training_graph(tg) equal their reference text."""
    if g is not None:
        assert saved_text(save_graph, g, tmp_path) == dumps_canonical(graph_to_obj(g))
    if tg is not None:
        assert (saved_text(save_training_graph, tg, tmp_path)
                == dumps_canonical(training_to_obj(tg)))


def odd_graph(cost_units=1.0, metadata=None):
    """Two nodes whose ids, scopes and kinds need escaping."""
    a, b = f"a{ODD}", f"b{ODD}"
    return GraphSpec(
        nodes=(NodeSpec(a, "conv", (), (f"{a}:0",), cost_units, f"s/{ODD}"),
               NodeSpec(b, "norm", (f"{a}:0",), (f"{b}:0",), 2, ODD)),
        tensors=(TensorDesc(f"{a}:0", a, (3, 5), 2, 4, ODD),
                 TensorDesc(f"{b}:0", b, (7,), 1, 2)),
        control_edges=((a, b),),
        metadata={"note": ODD} if metadata is None else metadata)


class TestCanonicalWriter:
    @pytest.mark.parametrize("dims", [(8, 8, 8), (192, 192, 192)])
    def test_unet_unrewritten_and_rewritten(self, dims, tmp_path):
        params = TOY if dims == (8, 8, 8) else UNetParams(dims=dims)
        g = gen_unet3d(params)
        tg = expand_training_graph(g, static_bytes=123)
        assert_canonical(g, tmp_path, tg)
        for cfg in REWRITES:
            rewritten, _ = apply_rewrite(tg, cfg)
            assert_canonical(rewritten.graph, tmp_path, rewritten)

    def test_chain(self, tmp_path):
        g = gen_chain(40, 64, 1e5, ("conv", "norm", "activation"))
        tg = expand_training_graph(g)
        assert_canonical(g, tmp_path, tg)
        assert_canonical(None, tmp_path, apply_rewrite(tg, REWRITES[0])[0])

    def test_empty_graph(self, tmp_path):
        g = GraphSpec()
        assert_canonical(g, tmp_path, expand_training_graph(g))
        assert saved_text(save_graph, g, tmp_path) == (
            '{\n  "control_edges": [],\n  "metadata": {},\n  "nodes": [],\n'
            '  "tensors": [],\n  "version": 1\n}\n')

    def test_escaped_ids_and_scopes(self, tmp_path):
        g = odd_graph()
        tg = TrainingGraph(graph=g, serial_order=tuple(n.id for n in g.nodes),
                           grad_of={ODD: f"x{ODD}", "plain": "y"})
        assert_canonical(g, tmp_path, tg)
        text = saved_text(save_graph, g, tmp_path)
        assert text.isascii() and "\\u00e9" in text and "\\ud834\\udd1e" in text
        assert load_graph(tmp_path / "doc.json") == g

    @pytest.mark.parametrize("cost", [0, 3, 2**70, 1.0, 0.1, 1e-300, 1e300, -0.0])
    def test_cost_units_numbers(self, cost, tmp_path):
        assert_canonical(odd_graph(cost), tmp_path)

    @pytest.mark.parametrize("cost", [True, False, float("-inf"), None,
                                      float("nan"), float("inf")])
    def test_cost_units_beyond_save_graph(self, cost, tmp_path):
        """Values save_graph refuses or never sees still match json.dumps."""
        g = odd_graph(cost)
        assert_canonical(None, tmp_path, TrainingGraph(
            graph=g, serial_order=tuple(n.id for n in g.nodes)))

    def test_number_subclasses(self, tmp_path):
        class Int(int):
            def __repr__(self):
                return "no"

        class Float(float):
            def __repr__(self):
                return "no"

        g = odd_graph(Float(2.5), metadata={"i": Int(7), "f": Float(0.5)})
        assert_canonical(g, tmp_path)
        assert '"cost_units": 2.5' in saved_text(save_graph, g, tmp_path)

    def test_nested_metadata(self, tmp_path):
        meta = {"z": {"deep": [1, [2.5, [None, True]], {"k": "v\n"}], "empty": {}},
                "a": [], ODD: float("nan"), "tuple": (1, "x"), "neg": float("-inf")}
        assert_canonical(odd_graph(metadata=meta), tmp_path)

    def test_values_outside_the_row_format(self, tmp_path):
        """Non-string keys, None and odd containers fall back to dumps_canonical."""
        g = odd_graph(metadata={1: "one", 2: [None]})
        nodes = (NodeSpec("n", "conv", (), ("t", 5), 1.0, None),) + g.nodes
        tensors = (TensorDesc("t", "n", (True, 2.5, [1]), None, 4),) + g.tensors
        weird = GraphSpec(nodes=nodes, tensors=tensors, control_edges=(("n", 1),),
                          metadata=g.metadata)
        tg = TrainingGraph(graph=weird, serial_order=tuple(n.id for n in nodes),
                           grad_of={"n": None})
        assert_canonical(None, tmp_path, tg)

    def test_no_pure_python_encoder(self, tmp_path, monkeypatch):
        g = gen_unet3d(TOY)
        rewritten, _ = apply_rewrite(expand_training_graph(g, static_bytes=5), REWRITES[0])
        expected = (dumps_canonical(graph_to_obj(g)), dumps_canonical(training_to_obj(rewritten)))

        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            dumps_canonical({"a": 1})
        assert (saved_text(save_graph, g, tmp_path),
                saved_text(save_training_graph, rewritten, tmp_path)) == expected


# ---------------------------------------------------------------------------
# Every stage that runs with the cyclic collector paused (graph.gc_paused):
# stage -> (its module, a global of that module the stage calls, the
# rewrites it runs under in the cycle table, a call of it on inputs ``x``).
# A stage that reads no rewrite has ``NO_REWRITE``.

MIXED = ("conv", "norm", "activation")
NO_REWRITE, ANY_REWRITE, RECOMPUTE = (None,), ("swap", "speed", "sqrt_n"), ("speed", "sqrt_n")
PAUSED_STAGES = {
    "gen_chain": (models_mod, "check_fields", NO_REWRITE, lambda x: gen_chain(12, kinds=MIXED)),
    "gen_unet3d": (models_mod, "_conv_block", NO_REWRITE, lambda x: gen_unet3d(TOY)),
    "save_graph": (graph_mod, "graph_text", NO_REWRITE,
                   lambda x: save_graph(x.g, x.dir / "saved-g.json")),
    "validate_graph": (graph_mod, "validate_graph_order", NO_REWRITE,
                       lambda x: validate_graph(x.g)),
    "load_graph": (graph_mod, "graph_from_obj", NO_REWRITE, lambda x: load_graph(x.dir / "g.json")),
    "expand_training_graph": (training_mod, "validate_graph_order", NO_REWRITE,
                              lambda x: expand_training_graph(x.g)),
    # x.tg holds x.rewritten, its live rewrite of x.cfg, which apply_rewrite
    # would return without running the stage: a new base over the same rows
    # has no live rewrite.
    "apply_rewrite": (rewrite_mod, "select_swap_tensors", ANY_REWRITE,
                      lambda x: apply_rewrite(TrainingGraph(x.tg.graph, x.tg.serial_order,
                                                            dict(x.tg.grad_of)), x.cfg)),
    "insert_swap_nodes": (rewrite_mod, "swap_candidates", ("swap",),
                          lambda x: insert_swap_nodes(x.tg, sorted(x.plan.swapped), 2)),
    "insert_recompute": (rewrite_mod, "input_nodes", RECOMPUTE,
                         lambda x: insert_recompute(x.tg, x.plan.checkpoints)),
    "check_rewrite_validity": (rewrite_mod, "validate_graph", ANY_REWRITE,
                               lambda x: check_rewrite_validity(x.tg, x.rewritten, x.plan)),
    "static_peak_estimate": (training_mod, "execution_order", ANY_REWRITE,
                             lambda x: static_peak_estimate(x.rewritten, x.plan)),
    "save_training_graph": (
        training_mod, "graph_text", ANY_REWRITE,
        lambda x: save_training_graph(x.rewritten, x.dir / "saved-tg.json")),
    "load_training_graph": (training_mod, "training_from_obj", ANY_REWRITE,
                            lambda x: load_training_graph(x.dir / "tg.json")),
    "simulate": (sim_mod, "check_plan", ANY_REWRITE,
                 lambda x: simulate(x.rewritten, x.plan, SimConfig())),
    "sweep": (rewrite_mod, "apply_rewrite", ANY_REWRITE,
              lambda x: sweep(x.tg, [x.cfg], [SimConfig()])),
    "calibrate_compute_rate": (sim_mod, "check_plan", ANY_REWRITE,
                               lambda x: calibrate_compute_rate(x.rewritten, x.plan, SimConfig(),
                                                                1.0)),
}
STAGE_REWRITES = {"swap": resolve_preset("paper-c1"),
                  "speed": RewriteConfig(mode="recompute", ckpt_policy="speed"),
                  "sqrt_n": RewriteConfig(mode="recompute", ckpt_policy="sqrt_n")}


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """Inputs of the paused stages per (graph, rewrite), built once, with the
    files that the loaders read."""
    made = {}

    def inputs(graph: str, rewrite):
        rewrite = rewrite or "swap"
        if (graph, rewrite) not in made:
            g = gen_chain(12, kinds=MIXED) if graph == "chain" else gen_unet3d(TOY)
            tg = expand_training_graph(g)
            cfg = STAGE_REWRITES[rewrite]
            rewritten, plan = apply_rewrite(tg, cfg)
            d = tmp_path_factory.mktemp(f"{graph}-{rewrite}")
            save_graph(g, d / "g.json")
            save_training_graph(rewritten, d / "tg.json")
            made[graph, rewrite] = SimpleNamespace(g=g, tg=tg, cfg=cfg, rewritten=rewritten,
                                                   plan=plan, dir=d)
        return made[graph, rewrite]
    return inputs


def paused_functions(*modules) -> set[str]:
    """Names of the functions that the modules define wrapped by gc_paused."""
    wrapper = graph_mod.gc_paused(len).__code__
    return {name for m in modules for name, f in vars(m).items()
            if getattr(f, "__code__", None) is wrapper and f.__module__ == m.__name__}


class TestLoaderGcState:
    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.fixture()
    def files(self, tmp_path):
        g = gen_chain(6)
        save_graph(g, tmp_path / "g.json")
        save_training_graph(expand_training_graph(g), tmp_path / "tg.json")
        (tmp_path / "bad.json").write_text('{"version": 1, "nodes": [}')
        (tmp_path / "noid.json").write_text('{"version": 1, "nodes": [{"kind": "conv"}]}')
        return tmp_path

    @pytest.mark.parametrize("load,good", [(load_graph, "g.json"),
                                           (load_training_graph, "tg.json")])
    def test_state_restored(self, gc_state, files, load, good):
        load(files / good)
        assert gc.isenabled() is gc_state
        for bad in ("bad.json", "noid.json"):
            with pytest.raises(GraphError, match="bad.json|noid.json"):
                load(files / bad)
            assert gc.isenabled() is gc_state

    def test_paused_while_building(self, gc_state, files):
        assert load_document(files / "g.json", "graph", lambda obj: gc.isenabled()) is False
        assert gc.isenabled() is gc_state

    def test_table_lists_every_paused_stage(self):
        loaders = {"load_graph", "load_training_graph"}  # paused by load_document
        assert paused_functions(graph_mod, models_mod, training_mod, rewrite_mod, sim_mod) \
            == set(PAUSED_STAGES) - loaders | {"load_document"}
        assert paused_functions(props_mod, numeric_mod, cli_mod) == set()
        # The wrapper keeps the signature that Schema and check_fields read.
        assert list(signature(gen_chain).parameters) == ["n", "bytes_per_tensor", "cost_per_op",
                                                         "kinds"]
        assert Schema(gen_chain).required == {"n"}

    @pytest.mark.parametrize("outcome", ["return", "raise"])
    @pytest.mark.parametrize("stage", sorted(PAUSED_STAGES))
    def test_stage_paused_and_state_restored(self, gc_state, stage_inputs, monkeypatch, stage,
                                             outcome):
        """The collector is off while the stage runs, and the caller's state
        is back after it returns or after a GraphError raised inside it
        (which a sweep reports in the rows of the rewrite that raised it)."""
        module, inner, rewrites, run = PAUSED_STAGES[stage]
        x = stage_inputs("chain", rewrites[0])
        original, seen = getattr(module, inner), []

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            if outcome == "raise":
                raise GraphError("raised inside the stage")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, inner, spy)
        if outcome == "return":
            run(x)
        elif stage == "sweep":
            assert [row["error"] for row in run(x)] == ["raised inside the stage"]
        else:
            with pytest.raises(GraphError, match="raised inside the stage"):
                run(x)
        assert seen and not any(seen)
        assert gc.isenabled() is gc_state

    GRAPH_ERRORS = {
        "apply_rewrite-no-backward": (
            lambda x: apply_rewrite(TrainingGraph(x.g, tuple(n.id for n in x.g.nodes)),
                                    resolve_preset("paper-c1")),
            "no backward phase"),
        "simulate-foreign-plan": (
            lambda x: simulate(expand_training_graph(gen_chain(4)), x.plan, SimConfig()),
            "plan does not match the graph"),
        "insert_recompute-foreign-checkpoint": (
            lambda x: insert_recompute(x.tg, ["ghost"]), "not a cross-phase tensor"),
        "save_graph-invalid": (
            lambda x: save_graph(GraphSpec(nodes=x.g.nodes[1:], tensors=x.g.tensors),
                                 x.dir / "bad.json"),
            "refusing to save invalid graph"),
        "calibrate-unreachable": (
            lambda x: calibrate_compute_rate(x.rewritten, x.plan, SimConfig(d2h_bw=1e-3), 1.0),
            "target makespan unreachable"),
        "gen_chain-no-kinds": (lambda x: gen_chain(3, kinds=()), "kinds"),
    }

    @pytest.mark.parametrize("case", sorted(GRAPH_ERRORS))
    def test_state_restored_after_graph_error(self, gc_state, stage_inputs, case):
        run, message = self.GRAPH_ERRORS[case]
        with pytest.raises(GraphError, match=message):
            run(stage_inputs("chain", "swap"))
        assert gc.isenabled() is gc_state


CYCLE_CASES = [(graph, rewrite, stage) for graph in ("chain", "unet-toy")
               for stage, (_, _, rewrites, _) in sorted(PAUSED_STAGES.items())
               for rewrite in rewrites]


class TestPausedStagesLeaveNoCycles:
    """A paused stage must build no reference cycle, for cyclic garbage would
    wait for a collection that the pause defers. Each stage runs once to fill
    first-use caches, then again with the collector off, and a collection
    after it must find nothing unreachable."""

    @pytest.mark.parametrize("graph,rewrite,stage", CYCLE_CASES,
                             ids=["-".join(filter(None, case)) for case in CYCLE_CASES])
    def test_no_unreachable_objects(self, stage_inputs, graph, rewrite, stage):
        run = PAUSED_STAGES[stage][3]
        x = stage_inputs(graph, rewrite)
        run(x)
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run(x)
            found = gc.collect()
        finally:
            (gc.enable if was else gc.disable)()
        assert found == 0


# ---------------------------------------------------------------------------
# Every function under src/swapsim that checks a value by its annotation
# (graph.check_fields or graph.check_value): "module.qualname" -> (a call
# with a value that breaks the annotation, the error message's tail).

def _toy_tg():
    return expand_training_graph(gen_chain(2))


CHECKED_ENTRY_POINTS = {
    "cli._expander": (lambda: cli_mod._expander({"backward_cost_ratio": math.nan}),
                      "at backward_cost_ratio: expected a finite number >= 0, got nan"),
    "cli.cmd_verify": (
        lambda: cli_mod.cmd_verify(cli_mod.build_parser().parse_args(["verify", "--instances=-3"])),
        "at instances: expected an integer >= 0, got -3"),
    "cli._scenario_from_obj": (
        lambda: cli_mod._scenario_from_obj({"generator": {"kind": "bogus"}}),
        "at generator.kind: expected Literal['unet3d', 'chain'], got 'bogus'"),
    "models.UNetParams.__post_init__": (lambda: UNetParams(dims=(16, 16, 0)),
                                        "at dims[2]: expected an integer >= 1, got 0"),
    "models.gen_chain": (lambda: gen_chain(0), "at n: expected an integer >= 1, got 0"),
    "rewrite.RewriteConfig.__post_init__": (lambda: RewriteConfig(n_tensors=0),
                                            "at n_tensors: expected Literal[-1] or an integer "
                                            ">= 1, got 0"),
    "rewrite.RewritePlan.__post_init__": (lambda: RewritePlan(lb=2.7),
                                          "at lb: expected an integer >= 1, got 2.7"),
    "sim.SimConfig.__post_init__": (lambda: SimConfig(h2d_bw=math.inf),
                                    "at h2d_bw: expected a finite number > 0, got inf"),
    "sim.epoch_time": (lambda: epoch_time(1.0, 3, math.nan),
                       "at host_preproc_seconds: expected a finite number >= 0, got nan"),
    "sim.xfer_cost": (lambda: xfer_cost(1000, math.nan),
                      "at bw: expected a finite number > 0, got nan"),
    "sim.calibrate_compute_rate": (
        lambda: calibrate_compute_rate(_toy_tg(), None, SimConfig(), -1.0),
        "at target_makespan: expected a finite number > 0, got -1.0"),
    "training.TrainingGraph.__post_init__": (
        lambda: TrainingGraph(GraphSpec(metadata={"static_bytes": 2.0}), ()),
        "at static_bytes: expected an integer >= 0, got 2.0"),
    "training.expand_training_graph": (
        lambda: expand_training_graph(gen_chain(2), backward_cost_ratio=-2.0),
        "at backward_cost_ratio: expected a finite number >= 0, got -2.0"),
    "props.run_invariant_suite": (lambda: run_invariant_suite(instances=True),
                                  "at instances: expected an integer >= 0, got True"),
    "numeric.grad_check": (lambda: numeric_mod.grad_check(_toy_tg(), eps=0),
                           "at eps: expected a finite number > 0, got 0"),
    "numeric._input_block": (lambda: numeric_mod.run_numeric(_toy_tg(), None, seed=-1),
                             "at seeds[0]: expected an integer >= 0, got -1"),
    "numeric.equivalence_check": (
        lambda: numeric_mod.equivalence_check(_toy_tg(), [], list(range(64)) + [0, -1]),
        "at seeds[65]: expected an integer >= 0, got -1"),
}
CHECKERS = {"graph.check_fields", "graph.check"}  # the vocabulary's own walkers


def checked_call_sites() -> set[str]:
    """"module.qualname" of each function under src/swapsim that calls
    check_fields or check_value."""
    sites = set()

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qualname}.{child.name}"
            elif isinstance(child, ast.Call) and (getattr(child.func, "id", None) or getattr(
                    child.func, "attr", None)) in ("check_fields", "check_value"):
                sites.add(qualname)
            visit(child, inner)

    for path in Path(graph_mod.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


class TestCheckedEntryPoints:
    @pytest.mark.parametrize("site", sorted(CHECKED_ENTRY_POINTS))
    def test_bad_value_named(self, site):
        call, tail = CHECKED_ENTRY_POINTS[site]
        with pytest.raises(GraphError) as exc:
            call()
        assert str(exc.value).startswith("wrong value type at ")
        assert str(exc.value).endswith(tail)

    def test_table_lists_every_call_site(self):
        assert checked_call_sites() - CHECKERS == set(CHECKED_ENTRY_POINTS)
        assert CHECKERS <= checked_call_sites()


# ---------------------------------------------------------------------------
# The per-graph index: rows, and the orders and lookups derived from it,
# checked against references written on the id strings.

TOY = UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2, convs_per_level=1)
TOY_REWRITES = [resolve_preset(f"paper-c{i}") for i in (1, 2, 3, 4)] + [
    RewriteConfig(mode="recompute", ckpt_policy=p) for p in ("speed", "sqrt_n")]


def reference_edges(g):
    """(src, dst) pairs read from the rows alone: data edges, then control."""
    producer = {t.id: t.producer for t in g.tensors}
    return [(producer[tid], n.id) for n in g.nodes for tid in n.inputs
            if tid in producer] + list(g.control_edges)


def reference_topo(g):
    """Kahn's algorithm on id strings, ties broken by ascending id."""
    indeg = {n.id: 0 for n in g.nodes}
    succ = {n.id: [] for n in g.nodes}
    for a, b in reference_edges(g):
        indeg[b] += 1
        succ[a].append(b)
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for m in succ[nid]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    assert len(order) == len(indeg)
    return order


def reference_depths(g):
    """Breadth-first hop counts from the nodes without predecessors,
    visiting successors in id order."""
    succ = {n.id: set() for n in g.nodes}
    for a, b in reference_edges(g):
        succ[a].add(b)
    has_pred = {b for s in succ.values() for b in s}
    depths = {nid: 0 for nid in sorted(succ) if nid not in has_pred}
    frontier = deque(depths)
    while frontier:
        nid = frontier.popleft()
        for m in sorted(succ[nid]):
            if m not in depths:
                depths[m] = depths[nid] + 1
                frontier.append(m)
    return depths


def indexed_graphs():
    """Random instances 0..99 (unrewritten and rewritten) and the toy U-Net,
    unrewritten and under every preset and recompute policy."""
    for seed in range(100):
        tg, rewritten, _, _ = random_instance(seed)
        yield f"random-{seed}", tg.graph
        yield f"random-{seed}-rewritten", rewritten.graph
    tg = expand_training_graph(gen_unet3d(TOY))
    yield "unet", tg.graph
    for cfg in TOY_REWRITES:
        yield f"unet-{cfg.mode}-{cfg.n_tensors}-{cfg.lb}-{cfg.ckpt_policy}", \
            apply_rewrite(tg, cfg)[0].graph


class TestGraphIndex:
    def test_orders_and_lookups_match_the_string_references(self):
        for name, g in indexed_graphs():
            assert g.edges() == reference_edges(g), name
            assert validate_graph_order(g)[1] == reference_topo(g), name
            assert list(bfs_depths(g).items()) == list(reference_depths(g).items()), name
            for t in g.tensors:
                assert g.consumers(t.id) == tuple(n.id for n in g.nodes for tid in n.inputs
                                                  if tid == t.id), name
            assert [g.node(n.id) for n in g.nodes] == list(g.nodes), name
            assert g.index.tensor_bytes == tuple(map(tensor_bytes, g.tensors)), name

    def test_rows_are_immutable_values(self):
        n = NodeSpec("x", "conv", ("a:0",), ("x:0",), 2.0, "s")
        t = TensorDesc("x:0", "x", (2, 3), 4, 4, "s")
        for row, name in ((n, "kind"), (n, "inputs"), (t, "shape"), (t, "elem_bytes")):
            with pytest.raises(AttributeError):
                setattr(row, name, None)
        same = NodeSpec(id="x", kind="conv", inputs=("a:0",), outputs=("x:0",),
                        cost_units=2.0, scope="s")
        assert n == same and hash(n) == hash(same) and len({n, same, t}) == 2
        assert n != n._replace(cost_units=3.0)
        assert t == TensorDesc(id="x:0", producer="x", shape=(2, 3), channels=4, elem_bytes=4,
                               scope="s")
        assert repr(n) == ("NodeSpec(id='x', kind='conv', inputs=('a:0',), outputs=('x:0',), "
                           "cost_units=2.0, scope='s', phase='forward')")
        assert repr(t) == ("TensorDesc(id='x:0', producer='x', shape=(2, 3), channels=4, "
                           "elem_bytes=4, scope='s')")
        assert NodeSpec("y", "loss") == NodeSpec("y", "loss", (), (), 0.0, "", "forward")

    def test_one_index_per_graph(self, monkeypatch):
        built = Counter()

        class CountingIndex(graph_mod.GraphIndex):
            def __init__(self, g, *delta):
                built[id(g)] += 1
                super().__init__(g, *delta)

        monkeypatch.setattr(graph_mod, "GraphIndex", CountingIndex)
        forward = gen_unet3d(TOY)
        tg = expand_training_graph(forward)
        graphs = [forward, tg.graph]
        for cfg in TOY_REWRITES:
            rewritten, plan = apply_rewrite(tg, cfg)
            assert check_rewrite_validity(tg, rewritten, plan) == []
            static_peak_estimate(rewritten, plan)
            simulate(rewritten, plan)
            graphs.append(rewritten.graph)
        assert built == Counter({id(g): 1 for g in graphs})

    def test_a_derived_index_numbers_its_added_rows_in_id_order(self):
        """So that ``ranked`` merges two sorted runs: the base's ids in the
        base's order, and the added ones."""
        tg = expand_training_graph(gen_unet3d(TOY))
        nb = len(tg.graph.index.ids)
        for cfg in TOY_REWRITES[:4]:  # the swaps
            rewritten, _ = apply_rewrite(tg, cfg)
            added = rewritten.graph.index.ids[nb:]
            assert rewritten.graph.index.derived and added
            assert list(added) == sorted(added)

    def test_cross_phase_tensors_derived_once(self, monkeypatch):
        derived = Counter()
        real = training_mod._cross_phase

        def counting(tg):
            derived[id(tg)] += 1
            return real(tg)

        monkeypatch.setattr(training_mod, "_cross_phase", counting)
        tg = expand_training_graph(gen_unet3d(TOY))
        first = cross_phase_tensors(tg)
        first.append("not-a-tensor")  # each call returns its own list
        for cfg in TOY_REWRITES:
            apply_rewrite(tg, cfg)
        assert derived == Counter({id(tg): 1})
        assert cross_phase_tensors(tg) == first[:-1]
