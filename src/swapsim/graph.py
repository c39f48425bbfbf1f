"""Computation-graph data model: nodes, tensors, orderings, validation, JSON I/O.

Graphs are immutable after construction; every function here is pure, so
values can be shared freely across threads and scenario workers. Rows are
named tuples; each graph builds one ``GraphIndex`` of lookups on first use,
and every stage from validation to simulation reads it.
"""
from __future__ import annotations

import gc
import heapq
import json
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from fnmatch import fnmatchcase
from itertools import chain
from typing import NamedTuple

NODE_KINDS = frozenset({
    "conv", "matmul", "norm", "activation", "concat", "pool", "upsample",
    "loss", "grad", "swap_out", "swap_in", "recompute", "source", "sink",
})
PHASES = frozenset({"forward", "backward", "io"})
IO_KINDS = frozenset({"swap_out", "swap_in"})

SCHEMA_VERSION = 1

# Guard for the byte counter; anything past this is a modeling mistake.
MAX_BYTES = 1 << 62


class GraphError(ValueError):
    """Structurally invalid graph, or an operation applied to one."""


class CycleError(GraphError):
    def __init__(self, member: str):
        super().__init__(f"graph contains a cycle through node {member!r}")
        self.member = member


class TensorDesc(NamedTuple):
    id: str
    producer: str
    shape: tuple[int, ...]
    channels: int
    elem_bytes: int
    scope: str = ""


class NodeSpec(NamedTuple):
    id: str
    kind: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    cost_units: float = 0.0
    scope: str = ""
    phase: str = "forward"


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


@dataclass
class GraphSpec:
    """A DAG of named operations producing named tensors.

    ``control_edges`` carry ordering without data; they are kept distinct
    from the data edges implied by node inputs/outputs.
    """

    nodes: tuple[NodeSpec, ...] = ()
    tensors: tuple[TensorDesc, ...] = ()
    control_edges: tuple[tuple[str, str], ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = tuple(self.nodes)
        self.tensors = tuple(self.tensors)
        self.control_edges = tuple((a, b) for a, b in self.control_edges)

    @cached_property
    def index(self) -> GraphIndex:
        """This graph's lookups, built on first use."""
        return GraphIndex(self)

    def node(self, node_id: str) -> NodeSpec:
        ix = self.index
        return ix.nodes[ix.index[node_id]]

    def has_node(self, node_id: str) -> bool:
        return node_id in self.index.index

    def tensor(self, tensor_id: str) -> TensorDesc:
        return self.tensors[self.index.tensor_index[tensor_id]]

    def has_tensor(self, tensor_id: str) -> bool:
        return tensor_id in self.index.tensor_index

    def consumers(self, tensor_id: str) -> tuple[str, ...]:
        """Node ids consuming a tensor via data edges, in node order."""
        ix = self.index
        return tuple(map(ix.ids.__getitem__, ix.consumers[ix.tensor_index[tensor_id]]))

    def edges(self) -> list[tuple[str, str]]:
        """All (src, dst) node pairs: data edges first, then control edges."""
        tindex = self.index.tensor_index
        return [(self.tensors[tindex[tid]].producer, n.id) for n in self.nodes
                for tid in n.inputs if tid in tindex] + list(self.control_edges)


class GraphIndex:
    """One graph's lookups. Nodes are numbered in id order, so comparing two
    indices compares the ids; ``nodes[i]`` is the (last) row of ``ids[i]``.
    Tensors keep their position in ``GraphSpec.tensors``; per tensor,
    ``producer`` is a node index (None if no such node) and ``consumers`` the
    readers' indices in node-list order. Byte sizes are computed on first use.
    Columns are tuples: the cyclic GC stops scanning a tuple of atomic items.
    """

    def __init__(self, g: GraphSpec):
        rows = {n.id: n for n in g.nodes}
        self.ids = ids = tuple(sorted(rows))
        self.nodes = tuple(map(rows.__getitem__, ids))
        numbers = list(range(max(len(ids), len(g.tensors))))  # one int object each, both maps
        self.index = index = dict(zip(ids, numbers))
        self.tensor_index = tindex = dict(zip([t.id for t in g.tensors], numbers))
        self.producer = tuple([index.get(t.producer) for t in g.tensors])
        readers: list[list[int]] = [[] for _ in g.tensors]
        for n in g.nodes:
            i = index[n.id]
            for tid in n.inputs:
                k = tindex.get(tid)
                if k is not None:
                    readers[k].append(i)
        self.consumers = tuple(map(tuple, readers))
        self._tensors = g.tensors

    @cached_property
    def tensor_bytes(self) -> tuple[int, ...]:
        """``tensor_bytes`` of every tensor, in tensor order."""
        distinct: dict[int, int] = {}  # one int object per size: sizes repeat
        return tuple([distinct.setdefault(n, n) for n in map(tensor_bytes, self._tensors)])


def successors(g: GraphSpec) -> list[tuple[int, ...]]:
    """Per node index, the indices of its successors over data and control
    edges, one entry per edge; an edge naming a node or tensor the graph lacks
    raises GraphError. A node's successors may reuse the index's tuples."""
    ix = g.index
    if sum(map(len, ix.consumers)) != sum(len(r.inputs) for r in g.nodes):
        nid, tid = next((r.id, t) for r in g.nodes for t in r.inputs if not g.has_tensor(t))
        raise GraphError(f"node {nid!r} reads tensor {tid!r}, which the graph lacks")
    succ: list[tuple[int, ...]] = [()] * len(ix.ids)
    for t, p, readers in zip(g.tensors, ix.producer, ix.consumers):
        if p is None:
            raise GraphError(f"tensor {t.id!r} names producer {t.producer!r}, which the graph lacks")
        if readers:
            succ[p] += readers
    index = ix.index
    control: dict[int, list[int]] = {}
    for a, b in g.control_edges:
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None:
            raise GraphError(f"control edge ({a!r}, {b!r}) names node "
                             f"{(a if ia is None else b)!r}, which the graph lacks")
        control.setdefault(ia, []).append(ib)
    for ia, more in control.items():
        succ[ia] += tuple(more)
    return succ


def element_count(t: TensorDesc) -> int:
    return t.channels * math.prod(t.shape)


def tensor_bytes(t: TensorDesc) -> int:
    """product(shape) x channels x elem_bytes, guarded against overflow."""
    n = math.prod(t.shape) * t.channels * t.elem_bytes
    if n > MAX_BYTES:
        raise GraphError(f"tensor {t.id!r} byte size {n} overflows the byte counter")
    return n


def scope_matches(scope: str, patterns) -> bool:
    return any(fnmatchcase(scope, p) for p in patterns)


def _structural_violations(g: GraphSpec) -> list[Violation]:
    out: list[Violation] = []
    seen_nodes: set[str] = set()
    for n in g.nodes:
        if n.id in seen_nodes:
            out.append(Violation("duplicate-node-id", n.id, "node id appears more than once"))
        seen_nodes.add(n.id)
        if n.kind not in NODE_KINDS:
            out.append(Violation("unknown-kind", n.id, f"unknown node kind {n.kind!r}"))
        if n.phase not in PHASES:
            out.append(Violation("unknown-phase", n.id, f"unknown phase {n.phase!r}"))
        if n.cost_units < 0:
            out.append(Violation("negative-cost", n.id, f"cost_units {n.cost_units} < 0"))
        if n.kind in IO_KINDS and n.cost_units != 0:
            out.append(Violation("io-cost", n.id, "io node carries nonzero compute cost"))

    seen_tensors: set[str] = set()
    producers: dict[str, str] = {}
    for n in g.nodes:
        for tid in n.outputs:
            if tid in producers:
                producers[tid] = producers[tid] + "+"  # marks double production
            else:
                producers[tid] = n.id
    for t in g.tensors:
        if t.id in seen_tensors:
            out.append(Violation("duplicate-tensor-id", t.id, "tensor id appears more than once"))
        seen_tensors.add(t.id)
        if not t.shape or min(t.shape) <= 0:
            out.append(Violation("negative-size", t.id, f"non-positive shape {t.shape}"))
        if t.channels <= 0:
            out.append(Violation("negative-size", t.id, f"non-positive channels {t.channels}"))
        if t.elem_bytes <= 0:
            out.append(Violation("negative-size", t.id, f"non-positive elem_bytes {t.elem_bytes}"))
        prod = producers.get(t.id)
        if prod is None:
            out.append(Violation("no-producer", t.id, "no node lists this tensor as an output"))
        elif prod.endswith("+"):
            out.append(Violation("multi-producer", t.id, "more than one node produces this tensor"))
        elif prod != t.producer:
            out.append(Violation("producer-mismatch", t.id,
                                 f"declared producer {t.producer!r} but produced by {prod!r}"))
    for n in g.nodes:
        for tid in n.inputs:
            if tid not in seen_tensors:
                out.append(Violation("dangling-tensor", n.id,
                                     f"consumes tensor {tid!r} with no producer"))
        for tid in n.outputs:
            if tid not in seen_tensors:
                out.append(Violation("dangling-tensor", n.id,
                                     f"produces tensor {tid!r} missing from the tensor table"))
    for a, b in g.control_edges:
        for end in (a, b):
            if end not in seen_nodes:
                out.append(Violation("control-edge-unknown-node", end,
                                     f"control edge ({a!r}, {b!r}) references unknown node"))
    return out


def _kahn(g: GraphSpec) -> tuple[list[str], set[str]]:
    """Deterministic Kahn's algorithm on node indices, which follow id order,
    so ties break by ascending node id.

    Returns (order, leftover); a non-empty leftover means a cycle.
    """
    ids = g.index.ids
    succ = successors(g)
    indeg = [0] * len(ids)
    for m in chain.from_iterable(succ):
        indeg[m] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]  # ascending: already a heap
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for m in succ[i]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    leftover = {ids[i] for i, d in enumerate(indeg) if d > 0}
    return list(map(ids.__getitem__, order)), leftover


def validate_graph_order(g: GraphSpec) -> tuple[list[Violation], list[str]]:
    """All violations found in the graph, and the ``topo_order`` of a valid
    one (an empty list when there are violations), from one pass."""
    out = _structural_violations(g)
    if out:
        return out, []
    order, leftover = _kahn(g)
    if leftover:
        return [Violation("cycle", min(leftover), "node participates in a cycle")], []
    return out, order


def validate_graph(g: GraphSpec) -> list[Violation]:
    """All violations found in the graph; an empty list means valid."""
    return validate_graph_order(g)[0]


def topo_order(g: GraphSpec) -> list[str]:
    """Dependency-respecting node order, ties broken by ascending node id."""
    violations, order = validate_graph_order(g)
    if violations and violations[0].code == "cycle":
        raise CycleError(violations[0].subject)
    if violations:
        raise GraphError(f"graph is not valid: {violations[0]}")
    return order


def bfs_depths(g: GraphSpec) -> dict[str, int]:
    """Shortest hop count from any source node (a node with no predecessors)."""
    ids = g.index.ids
    succ = successors(g)
    depth: list = [0] * len(ids)  # None: has a predecessor and is not reached yet
    for s in succ:
        for m in s:
            depth[m] = None
    frontier = deque(i for i, d in enumerate(depth) if d == 0)
    depths = {ids[i]: 0 for i in frontier}
    while frontier:
        i = frontier.popleft()
        d = depth[i] + 1
        for m in sorted(succ[i]):
            if depth[m] is None:
                depth[m] = d
                depths[ids[m]] = d
                frontier.append(m)
    return depths


# ---------------------------------------------------------------------------
# On-disk format: a single JSON document with canonical ordering, so that
# save(load(save(g))) is byte-identical to save(g). The documents are written
# row by row (``graph_text``); ``graph_to_obj`` is the same document as
# objects, and ``dumps_canonical`` of it is the reference text.

def _node_obj(n: NodeSpec) -> dict:
    return {**n._asdict(), "inputs": list(n.inputs), "outputs": list(n.outputs)}


def _tensor_obj(t: TensorDesc) -> dict:
    return {**t._asdict(), "shape": list(t.shape)}


def graph_to_obj(g: GraphSpec) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "nodes": [_node_obj(n) for n in sorted(g.nodes, key=lambda n: n.id)],
        "tensors": [_tensor_obj(t) for t in sorted(g.tensors, key=lambda t: t.id)],
        "control_edges": sorted([list(e) for e in g.control_edges]),
        "metadata": g.metadata,
    }


def graph_from_obj(obj: dict) -> GraphSpec:
    if not isinstance(obj, dict):
        raise GraphError("graph document must be a JSON object")
    version = obj.get("version")
    if version != SCHEMA_VERSION:
        raise GraphError(f"unsupported schema version {version!r}, expected {SCHEMA_VERSION}")
    nodes = []
    for nd in obj.get("nodes", []):
        kind = nd.get("kind")
        if kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {kind!r} in node {nd.get('id')!r}")
        phase = nd.get("phase", "forward")
        if phase not in PHASES:
            raise GraphError(f"unknown phase {phase!r} in node {nd.get('id')!r}")
        nid, cost = nd["id"], nd.get("cost_units", 0.0)
        # A number, not a string or a bool; NaN and inf are left to the
        # simulator's cost check.
        if type(cost) is not float and type(cost) is not int:
            raise GraphError(f"node {nid!r} has cost_units {cost!r}; cost_units must be a number")
        nodes.append(NodeSpec(nid, kind, tuple(nd.get("inputs", ())), tuple(nd.get("outputs", ())),
                              float(cost), nd.get("scope", ""), phase))
    tensors = []
    for td in obj.get("tensors", []):
        tid, producer, shape = td["id"], td["producer"], tuple(td["shape"])
        channels, elem_bytes = td["channels"], td["elem_bytes"]
        # Sizes must be positive ints (not bools): a NaN, fraction or negative
        # would flow silently into byte counts that nothing downstream checks.
        for v in (channels, elem_bytes, *shape):
            if type(v) is not int or v <= 0:
                raise GraphError(f"tensor {tid!r} has shape {list(shape)}, channels {channels!r}"
                                 f" and elem_bytes {elem_bytes!r}; each size must be a "
                                 f"positive integer")
        tensors.append(TensorDesc(tid, producer, shape, channels, elem_bytes, td.get("scope", "")))
    edges = tuple((a, b) for a, b in obj.get("control_edges", ()))
    return GraphSpec(nodes=tuple(nodes), tensors=tuple(tensors),
                     control_edges=edges, metadata=obj.get("metadata", {}))


def dumps_canonical(obj) -> str:
    """The one canonical JSON text: sorted keys, 2-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# json.dumps runs its pure-Python encoder whenever ``indent`` is set, so the
# writers below build the canonical text themselves, row by row, with the C
# string encoder; every ``pad`` is the indentation of the line a value starts on.
_ENC = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _scalar(v) -> str:
    """A JSON scalar exactly as json.dumps writes it; TypeError otherwise."""
    if isinstance(v, str):
        return _ENC(v)
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == _INF:
            return "Infinity"
        if v == -_INF:
            return "-Infinity"
        return float.__repr__(v)
    raise TypeError(f"not a JSON scalar: {type(v).__name__}")


def rows_text(rows, pad: str, brackets: str = "[]") -> str:
    """A list (or object) whose items are already-encoded texts."""
    if not rows:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(rows) + f"\n{pad}{brackets[1]}"


def value_text(v, pad: str = "") -> str:
    """``v`` exactly as dumps_canonical writes it, without the final newline.

    Anything the row writer does not know (non-string keys, None, other
    types) goes through dumps_canonical itself. Encoded JSON has no raw
    newline inside a string, so every newline there is structural.
    """
    try:
        inner = pad + "  "
        if isinstance(v, dict):
            return rows_text([f"{_ENC(k)}: {value_text(x, inner)}" for k, x in sorted(v.items())],
                             pad, "{}")
        if isinstance(v, (list, tuple)):
            return rows_text([value_text(x, inner) for x in v], pad)
        return _scalar(v)
    except TypeError:
        return dumps_canonical(v)[:-1].replace("\n", "\n" + pad)


def list_text(items, pad: str, enc=_ENC) -> str:
    """A list of strings (or of scalars, with ``enc=_scalar``)."""
    if not items:
        return "[]"
    inner = pad + "  "
    try:
        return f"[\n{inner}" + f",\n{inner}".join(map(enc, items)) + f"\n{pad}]"
    except TypeError:
        return value_text(list(items), pad)


def _node_text(n: NodeSpec, p: str) -> str:
    """One node object; ``p`` is the indentation of its fields."""
    try:
        return (f'{{\n{p}"cost_units": {_scalar(n.cost_units)},\n{p}"id": {_ENC(n.id)},'
                f'\n{p}"inputs": {list_text(n.inputs, p)},\n{p}"kind": {_ENC(n.kind)},'
                f'\n{p}"outputs": {list_text(n.outputs, p)},\n{p}"phase": {_ENC(n.phase)},'
                f'\n{p}"scope": {_ENC(n.scope)}\n{p[:-2]}}}')
    except TypeError:
        return value_text(_node_obj(n), p[:-2])


def _tensor_text(t: TensorDesc, p: str) -> str:
    """One tensor object; ``p`` is the indentation of its fields."""
    try:
        return (f'{{\n{p}"channels": {_scalar(t.channels)},'
                f'\n{p}"elem_bytes": {_scalar(t.elem_bytes)},\n{p}"id": {_ENC(t.id)},'
                f'\n{p}"producer": {_ENC(t.producer)},\n{p}"scope": {_ENC(t.scope)},'
                f'\n{p}"shape": {list_text(t.shape, p, _scalar)}\n{p[:-2]}}}')
    except TypeError:
        return value_text(_tensor_obj(t), p[:-2])


def graph_text(g: GraphSpec, pad: str = "") -> str:
    """dumps_canonical(graph_to_obj(g)) without its final newline, for an
    object on a line indented by ``pad``; built row by row."""
    p = pad + "  "
    fields = p + "    "
    nodes = [_node_text(n, fields) for n in sorted(g.nodes, key=lambda n: n.id)]
    tensors = [_tensor_text(t, fields) for t in sorted(g.tensors, key=lambda t: t.id)]
    edges = [list_text(e, p + "  ") for e in sorted(g.control_edges)]
    return (f'{{\n{p}"control_edges": {rows_text(edges, p)},'
            f'\n{p}"metadata": {value_text(g.metadata, p)},'
            f'\n{p}"nodes": {rows_text(nodes, p)},\n{p}"tensors": {rows_text(tensors, p)},'
            f'\n{p}"version": {SCHEMA_VERSION}\n{pad}}}')


def save_graph(g: GraphSpec, path) -> None:
    violations = validate_graph(g)
    if violations:
        raise GraphError(f"refusing to save invalid graph: {violations[0]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_text(g) + "\n")


def load_document(path, kind: str, from_obj):
    """Parse the JSON document at ``path`` and build it with ``from_obj``.

    Both steps run with the cyclic garbage collector paused: a document is
    an acyclic tree, so the pause frees nothing late, while full collections
    would rescan the growing document many times. The caller's GC state is
    restored on every exit. Every error in the document, including one of
    the wrong shape (a missing key, a list or null where an object or list
    belongs), is one GraphError naming the file; the row loops check that
    tensor sizes are positive integers and node costs are numbers.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return from_obj(json.loads(text))
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed {kind} file {path}: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None
    except GraphError as exc:
        raise GraphError(f"{kind} file {path}: {exc}") from None
    except KeyError as exc:
        raise GraphError(f"malformed {kind} file {path}: missing key {exc.args[0]!r}") from None
    except (AttributeError, TypeError) as exc:
        raise GraphError(f"malformed {kind} file {path}: wrong value type: {exc}") from None
    except (ValueError, OverflowError) as exc:
        raise GraphError(f"malformed {kind} file {path}: bad value: {exc}") from None
    finally:
        if enabled:
            gc.enable()


def load_graph(path) -> GraphSpec:
    return load_document(path, "graph", graph_from_obj)
