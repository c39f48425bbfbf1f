"""Computation-graph data model: nodes, tensors, orderings, validation, JSON I/O.

Graphs are immutable after construction; every function here is pure, so
values can be shared freely across threads and scenario workers.
"""
from __future__ import annotations

import gc
import heapq
import json
from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

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


@dataclass(frozen=True)
class TensorDesc:
    id: str
    producer: str
    shape: tuple[int, ...]
    channels: int
    elem_bytes: int
    scope: str = ""


@dataclass(frozen=True)
class NodeSpec:
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
        self._node_map = {n.id: n for n in self.nodes}
        self._tensor_map = {t.id: t for t in self.tensors}
        consumers: dict[str, list[str]] = {t.id: [] for t in self.tensors}
        for n in self.nodes:
            for tid in n.inputs:
                if tid in consumers:
                    consumers[tid].append(n.id)
        self._consumers = {tid: tuple(v) for tid, v in consumers.items()}

    def node(self, node_id: str) -> NodeSpec:
        return self._node_map[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_map

    def tensor(self, tensor_id: str) -> TensorDesc:
        return self._tensor_map[tensor_id]

    def has_tensor(self, tensor_id: str) -> bool:
        return tensor_id in self._tensor_map

    def consumers(self, tensor_id: str) -> tuple[str, ...]:
        """Node ids consuming a tensor via data edges, in node order."""
        return self._consumers[tensor_id]

    def edges(self) -> list[tuple[str, str]]:
        """All (src, dst) node pairs: data edges first, then control edges."""
        out = []
        for n in self.nodes:
            for tid in n.inputs:
                t = self._tensor_map.get(tid)
                if t is not None:
                    out.append((t.producer, n.id))
        out.extend(self.control_edges)
        return out

    def __eq__(self, other):
        if not isinstance(other, GraphSpec):
            return NotImplemented
        return (self.nodes == other.nodes and self.tensors == other.tensors
                and self.control_edges == other.control_edges
                and self.metadata == other.metadata)


def element_count(t: TensorDesc) -> int:
    n = t.channels
    for extent in t.shape:
        n *= extent
    return n


def tensor_bytes(t: TensorDesc) -> int:
    """product(shape) x channels x elem_bytes, guarded against overflow."""
    n = element_count(t) * t.elem_bytes
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
        if not t.shape or any(e <= 0 for e in t.shape):
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
    node_ids = {n.id for n in g.nodes}
    for a, b in g.control_edges:
        for end in (a, b):
            if end not in node_ids:
                out.append(Violation("control-edge-unknown-node", end,
                                     f"control edge ({a!r}, {b!r}) references unknown node"))
    return out


def _kahn(g: GraphSpec) -> tuple[list[str], set[str]]:
    """Deterministic Kahn's algorithm; ties broken by ascending node id.

    Returns (order, leftover); a non-empty leftover means a cycle.
    """
    indeg = {n.id: 0 for n in g.nodes}
    succ: dict[str, list[str]] = {n.id: [] for n in g.nodes}
    for a, b in g.edges():
        if a in indeg and b in indeg:
            indeg[b] += 1
            succ[a].append(b)
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for m in succ[nid]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    leftover = {nid for nid, d in indeg.items() if d > 0}
    return order, leftover


def validate_graph_order(g: GraphSpec) -> tuple[list[Violation], list[str]]:
    """All violations found in the graph, and the ``topo_order`` of a valid
    one (an empty list when there are violations), from one pass."""
    out = _structural_violations(g)
    if out:
        return out, []
    order, leftover = _kahn(g)
    if leftover:
        member = min(leftover)
        return [Violation("cycle", member, "node participates in a cycle")], []
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
    preds: dict[str, int] = {n.id: 0 for n in g.nodes}
    succ: dict[str, set[str]] = {n.id: set() for n in g.nodes}
    for a, b in g.edges():
        if a in preds and b in preds and b not in succ[a]:
            succ[a].add(b)
            preds[b] += 1
    depths: dict[str, int] = {}
    frontier = deque(sorted(nid for nid, d in preds.items() if d == 0))
    for nid in frontier:
        depths[nid] = 0
    while frontier:
        nid = frontier.popleft()
        for m in sorted(succ[nid]):
            if m not in depths:
                depths[m] = depths[nid] + 1
                frontier.append(m)
    return depths


# ---------------------------------------------------------------------------
# On-disk format: a single JSON document with canonical ordering, so that
# save(load(save(g))) is byte-identical to save(g). The documents are written
# row by row (``graph_text``); ``graph_to_obj`` is the same document as
# objects, and ``dumps_canonical`` of it is the reference text.

def _node_obj(n: NodeSpec) -> dict:
    return {
        "id": n.id, "kind": n.kind, "inputs": list(n.inputs),
        "outputs": list(n.outputs), "cost_units": n.cost_units,
        "scope": n.scope, "phase": n.phase,
    }


def _tensor_obj(t: TensorDesc) -> dict:
    return {
        "id": t.id, "producer": t.producer, "shape": list(t.shape),
        "channels": t.channels, "elem_bytes": t.elem_bytes, "scope": t.scope,
    }


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
        nodes.append(NodeSpec(
            id=nd["id"], kind=kind, inputs=tuple(nd.get("inputs", ())),
            outputs=tuple(nd.get("outputs", ())), cost_units=float(nd.get("cost_units", 0.0)),
            scope=nd.get("scope", ""), phase=phase,
        ))
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
        tensors.append(TensorDesc(id=tid, producer=producer, shape=shape, channels=channels,
                                  elem_bytes=elem_bytes, scope=td.get("scope", "")))
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
    if v is True:
        return "true"
    if v is False:
        return "false"
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
    belongs), is one GraphError naming the file; the row loops themselves
    check only the tensor sizes, which must be positive integers.
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
    except ValueError as exc:
        raise GraphError(f"malformed {kind} file {path}: bad value: {exc}") from None
    finally:
        if enabled:
            gc.enable()


def load_graph(path) -> GraphSpec:
    return load_document(path, "graph", graph_from_obj)
