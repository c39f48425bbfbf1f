"""Computation-graph data model: nodes, tensors, orderings, validation, JSON I/O
and the schemas and value types that every document and config must meet.

Graphs are immutable after construction; every function here is pure, so
values can be shared freely across threads and scenario workers. Rows are
named tuples; each graph builds one ``GraphIndex`` of lookups on first use,
or, when it extends another graph by a swap rewrite, derives it from that
graph's (``extend_index``), and every stage from validation to simulation
reads it.

Every value rule is an annotation, in one vocabulary (``float``, the value
types ``Positive``, ``Count`` and ``Size``, ``Literal`` and ``tuple``): of
a document key, a config field, a checked parameter (``check_fields``) or a
``NodeSpec`` or ``TensorDesc`` row field. Rows are checked a column at a
time (``_field_violations``), which also states the three row rules that
no annotation can: an io node costs 0, it moves exactly one tensor, and a
shape is not empty.

Every rule but acyclicity is in one list per graph (``GraphSpec.violations``).
``validate_graph`` adds the cycle check to it and runs every rule on any
graph. Every other stage that needs the rules kept calls ``checked_index``,
which raises the first violation, or trusts an index derived from a base
that keeps them (``extend_index``) without running them again; a
simulation that deadlocks with no budget wait to explain it raises a
cycle's violation. So a fault has one wording wherever it is found.

Every stage that builds or walks a whole graph (loading, saving,
validation, generation, expansion, rewriting, liveness and simulation) runs
with the cyclic garbage collector paused (``gc_paused``). The rows and
indices are acyclic, so reference counting frees them, and a collection
would only rescan them. The pause is process-wide: a stage restores only
what it changed, so stages running in two threads at once may spend part of
their run with the collector on, which costs speed but never correctness.
"""
from __future__ import annotations

import gc
import heapq
import json
import math
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, wraps
from fnmatch import translate
from inspect import Parameter, signature
from itertools import chain, compress, filterfalse
from operator import itemgetter
from types import SimpleNamespace, UnionType
from typing import Literal, NamedTuple, NewType, Union, get_args, get_origin, get_type_hints

NodeKind = Literal["conv", "matmul", "norm", "activation", "concat", "pool", "upsample",
                   "loss", "grad", "swap_out", "swap_in", "recompute", "source", "sink"]
Phase = Literal["forward", "backward", "io"]
IO_KINDS = frozenset({"swap_out", "swap_in"})
# Per io kind, the (inputs, outputs) counts of its row: it moves one tensor.
_IO_ARITY = {"swap_out": (1, 0), "swap_in": (0, 1)}

SCHEMA_VERSION = 1

# Guard for the byte counter; anything past this is a modeling mistake.
MAX_BYTES = 1 << 62
_INF = float("inf")
_MAX_FLOAT = math.nextafter(_INF, 0)  # a larger int overflows a float


class GraphError(ValueError):
    """Structurally invalid graph, or an operation applied to one."""


def gc_paused(stage):
    """``stage``, run with the cyclic garbage collector paused.

    A stage may pause the collector only when nothing it builds is a
    reference cycle, since cyclic garbage waits for a collection that the
    pause defers. If the collector is on when the stage starts, it is off
    until the stage returns or raises, and then on again; if it is already
    off, the stage leaves it alone. Nothing turns it off on the way out, so
    a thread can never leave it off for another.
    """
    @wraps(stage)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return stage(*args, **kwargs)
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            gc.enable()
    return paused


# Each row field's annotation is its value rule (see the schemas below).
class TensorDesc(NamedTuple):
    id: str
    producer: str
    shape: tuple[Count, ...]  # and not empty
    channels: Count
    elem_bytes: Count
    scope: str = ""


class NodeSpec(NamedTuple):
    id: str
    kind: NodeKind
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    cost_units: float = 0.0  # 0 on io nodes
    scope: str = ""
    phase: Phase = "forward"


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

    @cached_property
    def field_violations(self) -> list[Violation]:
        """Every row that breaks a row rule (``_field_violations``), found on
        first use."""
        return _field_violations(self)

    @cached_property
    def violations(self) -> list[Violation]:
        """Every violation but a cycle (``_violations``), found on first use."""
        return _violations(self)

    def node(self, node_id: str) -> NodeSpec:
        ix = self.index
        return ix.nodes[ix.index[node_id]]

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
    """One graph's lookups. ``nodes[i]`` is the (last) row of ``ids[i]``.
    Tensors keep their position in ``GraphSpec.tensors``; per tensor,
    ``producer`` is a node index (None if no such node) and ``consumers`` the
    readers' indices in node-list order. Byte sizes are computed on first use.
    Columns are tuples: the cyclic GC stops scanning a tuple of atomic items.

    Built from a graph's rows, the index numbers the nodes in id order.
    Derived from ``base``, the index of a graph that ``g`` extends, it takes
    the base's columns, keeps its numbers and numbers the ``added`` rows
    after them, also in id order. So a tie that breaks by node id compares
    the ids, or their places in id order: ``rank[i]`` is node i's place and
    ``ranked[r]`` the node in place r (both a ``range`` while the numbers
    follow id order, and a merge of two sorted runs once they do not). A
    derived index also takes the base's byte sizes and sizes only the new
    tensors, and it is ``derived``: only ``extend_index`` derives one, from
    a base that keeps every rule, so ``checked_index`` runs no rule on it.

    ``g`` extends the base graph when its rows are the base graph's, in their
    order, then the io rows ``added``; its tensors the base graph's, then
    new ones; its control edges the base graph's, then new ones that end at
    added nodes; and its only other change is ``moved``: for each base
    tensor index there, the new tensor that its readers among ``rewired``
    (node index -> that compute node's row in ``g``) read in its place. No
    id names two nodes or two tensors (``extend_index``). The build from
    rows is the derivation from the empty graph, with every row added.
    """

    def __init__(self, g: GraphSpec, base: GraphIndex | None = None, added=None,
                 rewired=None, moved=None):
        self.derived = base is not None
        self._base_ranked = base and base.ranked  # no reference to the base itself
        self._base_bytes = base.tensor_bytes if base else ()
        base = base or _EMPTY_INDEX
        added = g.nodes if added is None else added
        rewired, moved = rewired or {}, moved or {}
        nb, nt = len(base.ids), len(base.producer)
        rows = dict(zip(map(itemgetter(0), added), added))  # the last row of each id
        new_ids = tuple(sorted(rows))
        self.ids = ids = base.ids + new_ids
        nodes = list(base.nodes)
        for i, row in rewired.items():
            nodes[i] = row
        self.nodes = tuple(nodes) + tuple(map(rows.__getitem__, new_ids))
        new_tensors = g.tensors[nt:]
        first = min(nb, nt)
        numbers = list(range(first, max(len(ids), len(g.tensors))))  # one int each, both maps
        self.index = index = base.index.copy()
        index.update(zip(new_ids, numbers[nb - first:]))
        self.tensor_index = tindex = base.tensor_index.copy()
        tindex.update(zip(map(itemgetter(0), new_tensors), numbers[nt - first:]))
        self.producer = base.producer + tuple(map(index.get, map(itemgetter(1), new_tensors)))
        readers: list = list(base.consumers) + [[] for _ in new_tensors]
        rewiring = rewired.__contains__
        for k, new in moved.items():
            readers[new] = list(filter(rewiring, readers[k]))
            readers[k] = tuple(filterfalse(rewiring, readers[k]))
        for n in added:
            i = index[n.id]
            for tid in n.inputs:
                k = tindex.get(tid)
                if k is None:
                    continue
                if k < nt:
                    readers[k] += (i,)  # a base tensor's tuple
                else:
                    readers[k].append(i)
        self.consumers = tuple(map(tuple, readers))
        self._tensors = g.tensors

    @cached_property
    def ranked(self) -> range | tuple[int, ...]:
        """The node indices in id order, found on first use."""
        ids, base = self.ids, self._base_ranked
        if base is None:
            return range(len(ids))
        if len(base) == len(ids):
            return base
        merged = sorted([*map(ids.__getitem__, base), *ids[len(base):]])  # two sorted runs
        return tuple(map(self.index.__getitem__, merged))

    @cached_property
    def rank(self) -> range | tuple[int, ...]:
        """Each node's place in id order, found on first use."""
        ranked = self.ranked
        if type(ranked) is range:
            return ranked
        return tuple(map(dict(zip(ranked, range(len(ranked)))).__getitem__, range(len(ranked))))

    @cached_property
    def tensor_bytes(self) -> tuple[int, ...]:
        """``tensor_bytes`` of every tensor, in tensor order: the base's
        sizes, then those of the tensors the base lacks."""
        base = self._base_bytes
        distinct: dict[int, int] = {}  # one int object per size: sizes repeat
        return base + tuple([distinct.setdefault(n, n)
                             for n in map(tensor_bytes, self._tensors[len(base):])])


_EMPTY_INDEX = SimpleNamespace(ids=(), nodes=(), index={}, tensor_index={}, producer=(),
                               consumers=())


def extend_index(g: GraphSpec, base: GraphSpec, added, rewired, moved) -> None:
    """Give ``g``, a graph that extends ``base`` by ``added``, ``rewired``
    and ``moved`` (``GraphIndex``), an index derived from ``base``'s, once
    ``base`` keeps every rule (``checked_index``); or raise GraphError, in
    the words of ``g``'s first violation, when an added node or tensor id is
    named twice or is already ``base``'s. So ``g`` keeps every rule, and
    ``checked_index`` trusts its index; ``validate_graph`` still runs them."""
    ix = checked_index(base)
    new_tensors = g.tensors[len(base.tensors):]
    ids, tids = set(map(itemgetter(0), added)), set(map(itemgetter(0), new_tensors))
    if not (len(ids) == len(added) and len(tids) == len(new_tensors)
            and ids.isdisjoint(ix.index) and tids.isdisjoint(ix.tensor_index)):
        checked_index(g)  # a repeated id is a violation
    g.index = GraphIndex(g, ix, added, rewired, moved)


def checked_index(g: GraphSpec) -> GraphIndex:
    """``g.index``, once ``g`` keeps every rule of its ``violations``; else
    GraphError, in the words of the first violation. A derived index
    (``extend_index``) is returned without running the rules."""
    if not getattr(vars(g).get("index"), "derived", False) and g.violations:
        raise GraphError(str(g.violations[0]))
    return g.index


def successors(g: GraphSpec) -> list[tuple[int, ...]]:
    """Per node index, the indices of its successors over data and control
    edges, one entry per edge, of a graph that keeps every rule
    (``checked_index``). A node's successors may reuse the index's tuples."""
    ix = checked_index(g)
    succ: list[tuple[int, ...]] = [()] * len(ix.ids)
    for p, readers in zip(ix.producer, ix.consumers):
        if readers:
            succ[p] += readers
    index = ix.index
    control: dict[int, list[int]] = {}
    for a, b in g.control_edges:
        control.setdefault(index[a], []).append(index[b])
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


@lru_cache(maxsize=256)
def scope_matcher(patterns: tuple[str, ...]):
    """The match function of one case-sensitive regex for the fnmatch
    ``patterns``, which matches a scope that any of them matches."""
    return re.compile("|".join(map(translate, patterns)) or "(?!)").match


def _field_violations(g: GraphSpec, at: str = "") -> list[Violation]:
    """Each row value that lacks its field's annotation, named by its row
    path (``nodes[3].kind``) after ``at``; when every value has it, each row
    that breaks one of the three rules no annotation states: an io node
    costs 0 and moves one tensor (a swap_out reads one and writes none, a
    swap_in reads none and writes one), and a shape has at least one
    extent. A column is tested in a few passes (``_all_fit``), and its rows
    one at a time only to name those that break it. The loaders read it,
    and ``GraphSpec.violations`` lists it first."""
    out, columns = [], {}
    for name, row in (("nodes", NodeSpec), ("tensors", TensorDesc)):
        rows = getattr(g, name)
        for (key, hint, form), column in zip(_column_rules(row), zip(*rows)):
            columns[name, key] = column
            if not _all_fit(column, hint, form):
                out += [Violation("wrong-type", str(r.id),
                                  str(_wrong(v, hint, f"{at}{name}[{i}].{key}")))
                        for i, (r, v) in enumerate(zip(rows, column)) if not _fits(v, hint)]
    if out:
        return out
    ids, kinds, costs = (columns.get(("nodes", k), ()) for k in ("id", "kind", "cost_units"))
    if any(compress(costs, map(IO_KINDS.__contains__, kinds))):
        out += [Violation("io-cost", n, f"nonzero cost at {at}nodes[{i}].cost_units: an io node "
                                        f"costs 0, got {c!r}")
                for i, (n, k, c) in enumerate(zip(ids, kinds, costs)) if c and k in IO_KINDS]
    ins, outs = columns.get(("nodes", "inputs"), ()), columns.get(("nodes", "outputs"), ())
    for i in compress(range(len(kinds)), map(IO_KINDS.__contains__, kinds)):
        arity, (reads, writes) = (len(ins[i]), len(outs[i])), _IO_ARITY[kinds[i]]
        if arity != (reads, writes):
            out.append(Violation("io-arity", ids[i], f"wrong arity at {at}nodes[{i}]: a "
                                 f"{kinds[i]} reads {reads} and writes {writes} tensors, "
                                 f"got {arity[0]} and {arity[1]}"))
    shapes = columns.get(("tensors", "shape"), ())
    if not all(shapes):
        out += [Violation("empty-shape", t, f"empty shape at {at}tensors[{i}].shape: a tensor "
                                            f"has at least one extent")
                for i, (t, shape) in enumerate(zip(columns["tensors", "id"], shapes)) if not shape]
    return out


def _violations(g: GraphSpec) -> list[Violation]:
    """The row-rule violations, or, on rows that keep every row rule, the
    structural ones: repeated node ids; per tensor, a repeated id and a
    producer other than the one row listing it; per node, inputs and outputs
    the tensor table lacks; control edges to unknown nodes. Counts and
    lookups on the index's columns show which rules hold; the rows are
    scanned only to name what breaks the others."""
    out = list(g.field_violations)
    if out:
        return out
    ix, nodes, tensors = g.index, g.nodes, g.tensors
    rows, index, tindex = ix.nodes, ix.index, ix.tensor_index
    if len(ix.ids) != len(nodes):
        seen: set[str] = set()
        out += [Violation("duplicate-node-id", n.id, "node id appears more than once")
                for n in nodes if n.id in seen or seen.add(n.id)]
    # Distinct tensor ids, each listed by its declared producer, and no more
    # outputs listed than tensors: each is listed once, and no other output.
    produced = len(tindex) == len(tensors) == sum(map(len, map(itemgetter(3), nodes))) and all(
        p is not None and t.id in rows[p].outputs for t, p in zip(tensors, ix.producer))
    if not produced:
        listed: dict[str, list[str]] = {}  # tensor id -> the rows that list it as an output
        for n in nodes:
            for tid in n.outputs:
                listed.setdefault(tid, []).append(n.id)
        seen = set()
        for t in tensors:
            if t.id in seen:
                out.append(Violation("duplicate-tensor-id", t.id,
                                     "tensor id appears more than once"))
            seen.add(t.id)
            by = listed.get(t.id, ())
            if not by:
                out.append(Violation("no-producer", t.id, "no node lists this tensor as an output"))
            elif len(by) > 1:
                out.append(Violation("multi-producer", t.id,
                                     "more than one node produces this tensor"))
            elif by[0] != t.producer:
                out.append(Violation("producer-mismatch", t.id,
                                     f"declared producer {t.producer!r} but produced by {by[0]!r}"))
    if not produced or sum(map(len, ix.consumers)) != sum(map(len, map(itemgetter(2), nodes))):
        for n in nodes:
            for tid in n.inputs:
                if tid not in tindex:
                    out.append(Violation("dangling-tensor", n.id,
                                         f"consumes tensor {tid!r} with no producer"))
            for tid in n.outputs:
                if tid not in tindex:
                    out.append(Violation("dangling-tensor", n.id,
                                         f"produces tensor {tid!r} missing from the tensor table"))
    for a, b in g.control_edges:
        for end in (a, b):
            if end not in index:
                out.append(Violation("control-edge-unknown-node", end,
                                     f"control edge ({a!r}, {b!r}) references unknown node"))
    return out


def _kahn(g: GraphSpec) -> tuple[list[str], set[str]]:
    """Deterministic Kahn's algorithm on node ranks (``GraphIndex.rank``), so
    ties break by ascending node id.

    Returns (order, leftover); a non-empty leftover means a cycle.
    """
    ix = g.index
    ids, rank, ranked = ix.ids, ix.rank, ix.ranked
    succ = successors(g)
    indeg = [0] * len(ids)
    for m in chain.from_iterable(succ):
        indeg[m] += 1
    ready = [r for r, i in enumerate(ranked) if indeg[i] == 0]  # ascending: already a heap
    order: list[int] = []
    while ready:
        i = ranked[heapq.heappop(ready)]
        order.append(i)
        for m in succ[i]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, rank[m])
    leftover = {ids[i] for i, d in enumerate(indeg) if d > 0}
    return list(map(ids.__getitem__, order)), leftover


def validate_graph_order(g: GraphSpec) -> tuple[list[Violation], list[str]]:
    """All violations found in the graph, and, of a valid one, its
    dependency-respecting node order with ties broken by ascending node id
    (an empty list when there are violations), from one pass."""
    out = list(g.violations)
    if out:
        return out, []
    order, leftover = _kahn(g)
    if leftover:
        return [Violation("cycle", min(leftover), "node participates in a cycle")], []
    return out, order


@gc_paused
def validate_graph(g: GraphSpec) -> list[Violation]:
    """All violations found in the graph; an empty list means valid."""
    return validate_graph_order(g)[0]


def bfs_depths(g: GraphSpec) -> dict[str, int]:
    """Shortest hop count from any source node (a node with no predecessors)."""
    ix = g.index
    ids, by_rank = ix.ids, ix.rank.__getitem__
    succ = successors(g)
    depth: list = [0] * len(ids)  # None: has a predecessor and is not reached yet
    for s in succ:
        for m in s:
            depth[m] = None
    frontier = deque(i for i in ix.ranked if depth[i] == 0)
    depths = {ids[i]: 0 for i in frontier}
    while frontier:
        i = frontier.popleft()
        d = depth[i] + 1
        for m in sorted(succ[i], key=by_rank):
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


# ---------------------------------------------------------------------------
# Document schemas: each key of a JSON object, with its type, read off the
# annotations of the row, config or function that declares the key. A field
# without a default is a required key; a key left out keeps its default. A
# float is a finite number >= 0 (an int or a float, of a float subclass too),
# a str or int excludes bools, a tuple is a JSON list or a tuple, and a
# Literal lists the values allowed. A config checks its own fields by the
# same rules when it is built (``check_fields``), and a graph its rows, one
# column at a time (``_field_violations``).

Positive = NewType("Positive", float)  # a finite number > 0
Count = NewType("Count", int)          # an integer >= 1
Size = NewType("Size", int)            # an integer >= 0


@cache
def _hints(decl) -> dict:
    """The resolved annotations of a class or function, read once."""
    return get_type_hints(decl)


@cache
def _form(hint) -> tuple:
    """A type hint's origin and args (``get_origin``, ``get_args``), read
    once."""
    return get_origin(hint), get_args(hint)


@cache
def _column_rules(row) -> tuple:
    """Each field of a row class with its annotation and the annotation's
    form, read once per class: a graph's row check reads them for every
    column, and looking a ``Literal`` up in ``_form``'s cache hashes all its
    values each time."""
    return tuple((key, hint, _form(hint)) for key, hint in _hints(row).items())


class Schema:
    """The keys that ``decl`` (a NamedTuple, dataclass or function, or None)
    declares, plus the document-only keys ``extra``, optional unless named
    in ``required``; an ``extra`` type replaces the declared one. ``decl`` is
    read on first use, which keeps it out of the import."""

    def __init__(self, decl=None, required=(), **extra):
        self._decl, self._extra, self._required = decl, extra, frozenset(required)

    @cached_property
    def types(self) -> dict:
        if self._decl is None:
            return self._extra
        hints = _hints(self._decl)
        return {k: hints[k] for k in signature(self._decl).parameters} | self._extra

    @cached_property
    def required(self) -> frozenset:
        params = signature(self._decl).parameters if self._decl else {}
        return self._required.union(k for k, p in params.items() if p.default is Parameter.empty)


_NAMES = {str: "a string", int: "an integer", bool: "true or false", float: "a finite number >= 0",
          dict: "an object", list: "a list", Positive: "a finite number > 0",
          Count: "an integer >= 1", Size: "an integer >= 0"}


def _name(hint) -> str:
    origin, args = _form(hint)
    if origin is Union:
        return " or ".join(map(_name, args))
    return _NAMES.get(hint) or str(hint).replace("typing.", "").replace(f"{__name__}.", "")


def _wrong(value, hint, path: str) -> GraphError:
    """The error for a ``value`` that lacks the type ``hint``. In a list or
    tuple of the right length, it names the first item that breaks its own
    rule, by its index (``dims[0]``), and so on down nested tuples."""
    origin, args = _form(hint)
    if origin is tuple and type(value) in (list, tuple):
        items = args[:1] * len(value) if args[-1] is ... else args
        if len(items) == len(value):
            for i, (item, rule) in enumerate(zip(value, items)):
                if not _fits(item, rule):
                    return _wrong(item, rule, f"{path}[{i}]")
    got = (f"a list of {len(value)} items" if type(value) is list
           else "an object" if type(value) is dict else repr(value))
    return GraphError(f"wrong value type{' at ' + path if path else ''}: expected "
                      f"{_name(hint)}, got {got}")


def check_fields(decl, values) -> None:
    """Raise GraphError naming the first annotated field or parameter of
    ``decl`` whose value in the mapping ``values`` lacks its type; a config
    runs it on ``vars(self)`` when it is built."""
    for name, hint in _hints(decl).items():
        if name in values:
            check_value(values[name], hint, name)


def check_keys(obj, schema: Schema, path: str) -> None:
    """Raise GraphError unless ``obj`` is an object with the schema's
    required keys and no key the schema lacks."""
    if type(obj) is not dict:
        raise _wrong(obj, dict, path)
    for problem, keys in (("unknown", obj.keys() - schema.types.keys()),
                          ("missing", schema.required - obj.keys())):
        if keys:
            raise GraphError(f"{problem} key {min(keys)!r}{' in ' + path if path else ''}")


def check_value(value, hint, path: str) -> None:
    """Raise GraphError naming ``path`` unless the JSON ``value`` has the type
    ``hint`` (a Schema or an annotation)."""
    if isinstance(hint, Schema):
        check(value, hint, path)
    elif not _fits(value, hint):
        raise _wrong(value, hint, path)


def _fits(value, hint) -> bool:
    if hint is float or hint is Positive:  # NaN fails every comparison
        return _number(type(value)) and (0 < value if hint is Positive else 0 <= value) \
            and value <= _MAX_FLOAT
    if hint is Count or hint is Size:
        return type(value) is int and value >= (hint is Count)
    origin, args = _form(hint)
    if origin in (UnionType, Union):
        return any(_fits(value, h) for h in args)
    if origin is Literal:
        return any(type(value) is type(a) and value == a for a in args)
    if origin is dict:
        return type(value) is dict and _all_fit(value.values(), args[1])
    if origin is tuple:
        return type(value) in (list, tuple) and (
            _all_fit(value, args[0]) if args[-1] is ... else
            len(value) == len(args) and all(map(_fits, value, args)))
    return type(value) is hint


def _number(t: type) -> bool:
    """Whether a value of type ``t`` is a number: an int (not a bool) or a float."""
    return t is int or issubclass(t, float)


def _all_fit(values, hint, form=None) -> bool:
    """Whether each of ``values`` (a sequence or a dict's values) fits
    ``hint``, as ``_fits`` decides it one value at a time; a long column of
    the row fields' types takes a few passes over it. ``form`` is the hint's
    ``_form``, when the caller has read it."""
    types = {*map(type, values)}
    if hint is str or hint is int:
        return types <= {hint}
    if hint is float or hint is Positive:
        try:  # with no NaN among them, the least and the largest bound them all
            return all(map(_number, types)) and all(map(math.isfinite, values)) \
                and _fits(min(values, default=1), hint) and _fits(max(values, default=1), hint)
        except OverflowError:  # an int too large for a float
            return False
    if hint is Count or hint is Size:
        return types <= {int} and _fits(min(values, default=1), hint)
    origin, args = form or _form(hint)
    if origin is Literal and len({*map(type, args)}) == 1:
        return types <= {type(args[0])} and {*values} <= {*args}
    if origin is tuple and types <= {list, tuple} and (  # tuple[X, ...], or tuple[X, X] of length 2
            args[1:] == (...,) or {*args} == {args[0]} and {*map(len, values)} <= {len(args)}):
        return _all_fit([*chain.from_iterable(values)], args[0])
    return all(_fits(v, hint) for v in values)


def check(obj, schema: Schema, path: str = "") -> dict:
    """``obj``, once it is an object with the schema's keys, each with a
    value of its type; else a GraphError names the first key path that is
    not (``path`` is where ``obj`` sits in its document)."""
    check_keys(obj, schema, path)
    for k, v in obj.items():
        check_value(v, schema.types[k], f"{path}.{k}" if path else k)
    return obj


NODE_SCHEMA, TENSOR_SCHEMA = Schema(NodeSpec), Schema(TensorDesc)
GRAPH_SCHEMA = Schema(GraphSpec, ("version",), version=Literal[SCHEMA_VERSION],
                      nodes=list, tensors=list)  # rows: keys by _row_objs, values by annotation


def _row_objs(objs, schema: Schema, row, path: str):
    """Each row object of a document's list: one key-set test per row; a
    key left out gets its declared default, as a list where the row holds a
    tuple."""
    keys = schema.types.keys()
    defaults = {k: list(v) if type(v) is tuple else v for k, v in row._field_defaults.items()}
    for i, obj in enumerate(objs):
        if type(obj) is not dict or obj.keys() != keys:
            check_keys(obj, schema, f"{path}[{i}]")
            obj = defaults | obj
        yield obj


def graph_from_obj(obj, path: str = "") -> GraphSpec:
    """The graph of a graph document that sits at key path ``path`` of its
    file. Raises GraphError naming the first key path that breaks the graph
    or row schemas, or the first row value that breaks its field's rule. A
    list becomes a tuple; any other value is kept for the field check, and
    an int cost becomes a float once it has passed it."""
    at = f"{path}." if path else ""
    kw = {k: v for k, v in check(obj, GRAPH_SCHEMA, path).items() if k != "version"}
    nodes, tensors = [], []
    for nd in _row_objs(kw.get("nodes", ()), NODE_SCHEMA, NodeSpec, f"{at}nodes"):
        inputs, outputs = nd["inputs"], nd["outputs"]
        nodes.append(NodeSpec(nd["id"], nd["kind"],
                              tuple(inputs) if type(inputs) is list else inputs,
                              tuple(outputs) if type(outputs) is list else outputs,
                              nd["cost_units"], nd["scope"], nd["phase"]))
    for td in _row_objs(kw.get("tensors", ()), TENSOR_SCHEMA, TensorDesc, f"{at}tensors"):
        shape = td["shape"]
        tensors.append(TensorDesc(td["id"], td["producer"],
                                  tuple(shape) if type(shape) is list else shape,
                                  td["channels"], td["elem_bytes"], td["scope"]))
    g = GraphSpec(**kw | {"nodes": nodes, "tensors": tensors})
    if g.field_violations:
        raise GraphError(_field_violations(g, at)[0].message)
    if int in set(map(type, map(itemgetter(4), nodes))):  # cost_units
        g.nodes = tuple(n._replace(cost_units=float(n.cost_units)) if type(n.cost_units) is int
                        else n for n in nodes)
    return g


def dumps_canonical(obj) -> str:
    """The one canonical JSON text: sorted keys, 2-space indent, final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# json.dumps runs its pure-Python encoder whenever ``indent`` is set, so the
# writers below build the canonical text themselves, row by row, with the C
# string encoder; every ``pad`` is the indentation of the line a value starts on.
_ENC = json.encoder.encode_basestring_ascii


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


@gc_paused
def save_graph(g: GraphSpec, path) -> None:
    violations = validate_graph(g)
    if violations:
        raise GraphError(f"refusing to save invalid graph: {violations[0]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_text(g) + "\n")


@gc_paused
def load_document(path, kind: str, from_obj):
    """Parse the JSON document at ``path`` and build it with ``from_obj``,
    with the cyclic collector paused (``gc_paused``): a document is an
    acyclic tree, while full collections would rescan the growing document
    many times. Every error in the document is one GraphError naming the
    file: ``from_obj`` checks the document against its schema before it
    reads it (``check``).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return from_obj(json.loads(text))
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed {kind} file {path}: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None
    except GraphError as exc:
        raise GraphError(f"{kind} file {path}: {exc}") from None
    except (ValueError, OverflowError) as exc:
        raise GraphError(f"malformed {kind} file {path}: bad value: {exc}") from None


def load_graph(path) -> GraphSpec:
    return load_document(path, "graph", graph_from_obj)
