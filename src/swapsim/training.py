"""Backward expansion of forward graphs, the execution order that places io
nodes among the compute nodes, and the static liveness / peak-memory
estimate over that order. The training graph is the one home of the model's
static bytes (``TrainingGraph.static_bytes``)."""
from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Literal

from .graph import (
    IO_KINDS, GraphSpec, NodeSpec, TensorDesc, GraphError, Schema, Size, check, check_fields,
    checked_index, dumps_canonical, gc_paused, graph_from_obj, graph_text, graph_to_obj,
    list_text, load_document, validate_graph_order, value_text,
)

BACKWARD_COST_RATIO = 2.0  # grad op cost relative to its forward counterpart


@dataclass
class TrainingGraph:
    """A forward graph expanded with one grad node per forward op.

    ``serial_order`` is the canonical compute execution order, a permutation
    of the graph's compute nodes (io nodes are never listed; see
    ``execution_order`` for where they act): forward ops in topo order, the
    loss bridge, then grad ops in exact reverse order of their forward
    counterparts, with any recompute clones spliced ahead of the grads that
    need them. Construction raises GraphError naming the node when
    ``serial_order`` names an unknown or io node, names a node twice or
    omits a compute node.
    ``static_bytes``, the bytes that never leave the device (weights,
    gradients, optimizer state), is the graph's ``metadata["static_bytes"]``
    (0 if absent), read once here and checked by its annotation.

    ``derived`` holds what other stages derive from this graph once and
    share across its rewrites and runs:
      - ``cross_phase``, the ids of ``cross_phase_tensors``;
      - ``swap_candidates``, the swap rewrite's candidate table;
      - ``rewrites``, ``apply_rewrite``'s table of this graph's live
        rewrites by config, which holds each one weakly, so it never keeps
        a rewrite alive;
      - ``plan``, in a graph that ``apply_rewrite`` made, the plan that made
        it;
      - ``compiled_view``, the simulator's view (``sim._view``), kept once
        built from the graph's index;
      - ``numeric_sizes``, set once the numeric executor's size rules pass
        (``numeric._check_sizes``).
    Each value is derived from the graph, or made with it, so the graph is
    not changed once it is built.
    """

    graph: GraphSpec
    serial_order: tuple[str, ...]
    grad_of: dict[str, str] = field(default_factory=dict)  # grad node id -> forward node id
    static_bytes: Size = field(init=False)

    def position(self, node_id: str) -> int:
        return self._positions[node_id]

    def __post_init__(self):
        self.serial_order = tuple(self.serial_order)
        self._positions = {nid: i for i, nid in enumerate(self.serial_order)}
        self.derived = {}
        ix = self.graph.index
        last = -1
        for i, nid in enumerate(self.serial_order):
            if nid not in ix.index:
                raise GraphError(f"serial_order names unknown node {nid!r}")
            node = ix.nodes[ix.index[nid]]
            if node.kind in IO_KINDS:
                raise GraphError(f"serial_order names io node {nid!r}")
            if node.phase == "forward":
                last = i
        if len(self._positions) < len(self.serial_order):
            twice = next(nid for i, nid in enumerate(self.serial_order)
                         if self._positions[nid] != i)
            raise GraphError(f"serial_order names node {twice!r} twice")
        omitted = next((n.id for n in self.graph.nodes
                        if n.kind not in IO_KINDS and n.id not in self._positions), None)
        if omitted is not None:
            raise GraphError(f"serial_order omits compute node {omitted!r}")
        self._boundary_position = last
        self.static_bytes = self.graph.metadata.get("static_bytes", 0)
        check_fields(TrainingGraph, {"static_bytes": self.static_bytes})

    def extend(self, graph: GraphSpec) -> TrainingGraph:
        """This graph's serial order and grad map over ``graph``, a graph
        whose index extends this graph's (``GraphIndex``) with io nodes and
        the tensors they produce: every compute row keeps its id, kind and
        phase, so the order keeps its checks, which are not run again."""
        tg = copy(self)  # shares the order, its positions and the static bytes
        tg.graph, tg.grad_of, tg.derived = graph, dict(self.grad_of), {}
        return tg

    @property
    def boundary_position(self) -> int:
        """Serial position of the last forward-phase node (the loss bridge)."""
        return self._boundary_position

    @property
    def reuse_edges(self) -> tuple[tuple[str, str], ...]:
        """(forward op's output, grad id), one pair per ``grad_of`` entry: the
        feature map that each grad reads across the phase boundary."""
        node = self.graph.node
        return tuple((node(f).outputs[0], gid) for gid, f in self.grad_of.items())


@gc_paused
def expand_training_graph(g: GraphSpec, static_bytes: int = 0,
                          backward_cost_ratio: float = BACKWARD_COST_RATIO) -> TrainingGraph:
    """Add one grad node per forward op, plus a loss bridge if missing.

    grad(f) consumes the gradient contributions produced by the grads of
    f's consumers plus f's own output tensor (the reuse edge), and produces
    one gradient tensor per input of f (a single one for input nodes).
    Both keyword values go into the metadata, which every rewrite copies.
    """
    check_fields(expand_training_graph, {"backward_cost_ratio": backward_cost_ratio})
    violations, forward_order = validate_graph_order(g)
    if violations:
        raise GraphError(f"cannot expand invalid graph: {violations[0]}")
    if any(n.phase != "forward" for n in g.nodes):
        raise GraphError("graph already contains backward or io nodes")
    for n in g.nodes:
        if n.kind != "loss" and len(n.outputs) != 1:
            raise GraphError(f"forward op {n.id!r} must produce exactly one tensor")

    nodes = list(g.nodes)
    tensors = list(g.tensors)
    control_edges = list(g.control_edges)
    metadata = {**g.metadata, "static_bytes": static_bytes,
                "backward_cost_ratio": backward_cost_ratio}

    loss_nodes = [n for n in g.nodes if n.kind == "loss"]
    if len(loss_nodes) > 1:
        raise GraphError("graph has more than one loss node")
    if loss_nodes:
        loss = loss_nodes[0]
    elif g.nodes:
        # Synthesize the bridge: consume every terminal tensor.
        consumed = {tid for n in g.nodes for tid in n.inputs}
        terminals = tuple(t.id for t in g.tensors if t.id not in consumed)
        if not terminals:
            raise GraphError("no terminal tensor to attach a loss node to")
        loss = NodeSpec("loss", "loss", terminals, (), 0.0, "loss", "forward")
        nodes.append(loss)
        forward_order.append(loss.id)
    else:
        return TrainingGraph(graph=GraphSpec(metadata=metadata), serial_order=())

    loss_inputs = set(loss.inputs)
    ix = g.index
    rows, index, tindex = ix.nodes, ix.index, ix.tensor_index
    forward_ops = [rows[index[nid]] for nid in forward_order if nid != loss.id]

    grad_of = {}
    grad_order = []
    for f in reversed(forward_ops):
        t_out = f.outputs[0]
        gid = f"grad/{f.id}"
        scope = f"grad/{f.scope}"
        contribs = []
        for c in ix.consumers[tindex[t_out]]:
            cn = rows[c]
            if cn.kind != "loss":
                contribs.append(f"grad/{cn.id}:{cn.inputs.index(t_out)}")
        inputs = tuple(contribs) + (t_out,)
        refs = f.inputs or (t_out,)
        outputs = tuple(f"{gid}:{k}" for k in range(len(refs)))
        for out, tid in zip(outputs, refs):
            ref = g.tensors[tindex[tid]]
            tensors.append(TensorDesc(out, gid, ref.shape, ref.channels, ref.elem_bytes, scope))
        nodes.append(NodeSpec(gid, "grad", inputs, outputs, backward_cost_ratio * f.cost_units,
                              scope, "backward"))
        grad_of[gid] = f.id
        grad_order.append(gid)
        if t_out in loss_inputs:
            control_edges.append((loss.id, gid))

    expanded = GraphSpec(nodes=tuple(nodes), tensors=tuple(tensors),
                         control_edges=tuple(control_edges), metadata=metadata)
    serial = tuple(forward_order) + tuple(grad_order)
    return TrainingGraph(graph=expanded, serial_order=serial, grad_of=grad_of)


def input_nodes(g: GraphSpec) -> list[NodeSpec]:
    """Forward nodes with no inputs and an output: each one's output is a graph input."""
    return [n for n in g.nodes if n.phase == "forward" and not n.inputs and n.outputs]


def cross_phase_tensors(tg: TrainingGraph) -> list[str]:
    """Cross-boundary tensor ids ordered by producer serial position; derived
    once per TrainingGraph (``TrainingGraph.derived``), and each call
    returns a new list."""
    cross = tg.derived.get("cross_phase")
    if cross is None:
        cross = tg.derived["cross_phase"] = _cross_phase(tg)
    return list(cross)


def _cross_phase(tg: TrainingGraph) -> tuple[str, ...]:
    """Forward-produced tensors that a backward node reads, by (producer
    position, id), in a graph that keeps every rule (``checked_index``)."""
    ix = checked_index(tg.graph)
    rows, ids, positions = ix.nodes, ix.ids, tg._positions
    keyed = [(positions[ids[p]], t.id)
             for t, p, readers in zip(tg.graph.tensors, ix.producer, ix.consumers)
             if rows[p].phase == "forward" and any(rows[c].phase == "backward" for c in readers)]
    keyed.sort()
    return tuple(tid for _, tid in keyed)


@dataclass
class LivenessReport:
    intervals: dict  # tensor id -> ((start, end),): its one residency interval, [start, end)
    peak_bytes: int
    peak_position: int
    static_bytes: int

    def to_obj(self) -> dict:
        return {
            "version": 1,
            "static_bytes": self.static_bytes,
            "peak_bytes": self.peak_bytes,
            "peak_position": self.peak_position,
            "intervals": {tid: [list(iv) for iv in ivs]
                          for tid, ivs in sorted(self.intervals.items())},
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_obj())


def execution_order(tg: TrainingGraph) -> list[str]:
    """Serial compute order with io nodes spliced at their anchor positions:
    a swap_out after the last forward consumer of its tensor, a swap_in right
    after its trigger node. This is where io nodes act for the static
    estimator and the numeric executor alike."""
    g = tg.graph
    ix = g.index
    rows, ids, index, positions = ix.nodes, ix.ids, ix.index, tg._positions
    # Trigger nodes per swap_in, from one pass over the control edges.
    triggers: dict[str, list[str]] = {n.id: [] for n in g.nodes if n.kind == "swap_in"}
    for a, b in g.control_edges:
        if b in triggers and rows[index[a]].kind != "swap_out":
            triggers[b].append(a)
    anchored: dict[int, list[tuple[int, str]]] = {}
    for n in g.nodes:
        if n.kind == "swap_out":
            k = ix.tensor_index[n.inputs[0]]
            pos = positions[ids[ix.producer[k]]]
            for c in ix.consumers[k]:
                if rows[c].phase == "forward":
                    pos = max(pos, positions.get(ids[c], pos))
            anchored.setdefault(pos, []).append((0, n.id))
        elif n.kind == "swap_in":
            if not triggers[n.id]:
                raise GraphError(f"swap_in {n.id!r} has no trigger control edge")
            pos = max(positions[t] for t in triggers[n.id])
            anchored.setdefault(pos, []).append((1, n.id))
    order = []
    for pos, nid in enumerate(tg.serial_order):
        order.append(nid)
        for _, io_id in sorted(anchored.get(pos, [])):
            order.append(io_id)
    return order


def check_plan(g: GraphSpec, plan) -> None:
    """Reject a plan that does not belong to ``g``: one that names a swap or
    clone node, a swapped tensor or a checkpoint that the graph lacks."""
    if plan is None:
        return
    nodes, tensors = g.index.index, g.index.tensor_index
    for tid in sorted(plan.swapped):
        for nid in plan.swapped[tid]:
            if nid not in nodes:
                raise GraphError(f"plan does not match the graph: swap of tensor {tid!r} "
                                 f"names node {nid!r}, which the graph lacks")
    for nid in sorted(plan.clone_map):
        if nid not in nodes:
            raise GraphError(f"plan does not match the graph: clone node {nid!r} "
                             f"is missing from the graph")
    for tid in sorted(plan.swapped) + sorted(plan.checkpoints):
        if tid not in tensors:
            raise GraphError(f"plan does not match the graph: tensor {tid!r} "
                             f"is missing from the graph")


def residency(g: GraphSpec, starts, ends) -> list[tuple]:
    """Each tensor's residency interval [start, end), in tensor order, given
    every node's start and end per node index (``g.index``): from its
    producer's start to the latest end among its producer and its consumers.
    This is the simulator's alloc/free rule over any timeline; the static
    estimator and the memory-conservation check both read it."""
    ix = g.index
    out = []
    for p, readers in zip(ix.producer, ix.consumers):
        end = ends[p]
        for c in readers:
            if ends[c] > end:
                end = ends[c]
        out.append((starts[p], end))
    return out


@gc_paused
def static_peak_estimate(tg: TrainingGraph, plan=None) -> LivenessReport:
    """Peak of summed resident tensor bytes over the serial positions, by the
    simulator's alloc/free rule (``residency``) with every transfer instant.

    A compute node at serial position p acts over [p, p + 1); an io node that
    ``execution_order`` splices after position p acts at p + 1, between p and
    the next position. So a tensor is resident through its last consumer's
    position, or over its producer's position alone if nothing consumes it.
    With instant transfers, and every op but the loss taking time, this is
    the simulated peak. ``tg`` must be the graph a rewrite produced, and
    ``plan``, when given, the plan that produced it (``check_plan``).
    """
    check_plan(tg.graph, plan)
    g = tg.graph
    ix = checked_index(g)
    static = tg.static_bytes
    npos = len(tg.serial_order)
    if npos == 0:
        return LivenessReport(intervals={}, peak_bytes=static, peak_position=0,
                              static_bytes=static)
    positions = tg._positions
    index = ix.index
    # Per node index: where it starts and ends on the serial positions.
    starts = [0] * len(ix.ids)
    ends = starts[:]
    pos = -1
    for nid in execution_order(tg):
        i = index[nid]
        p = positions.get(nid)
        if p is None:
            starts[i] = ends[i] = pos + 1
        else:
            pos = starts[i] = p
            ends[i] = p + 1
    intervals = {}
    diff = [0] * (npos + 1)
    for t, (start, end), nbytes in zip(g.tensors, residency(g, starts, ends), ix.tensor_bytes):
        intervals[t.id] = ((start, end),)
        diff[start] += nbytes
        diff[end] -= nbytes
    resident = list(accumulate(diff[:npos]))
    peak = max(resident)
    return LivenessReport(intervals=intervals, peak_bytes=peak + static,
                          peak_position=resident.index(peak), static_bytes=static)


# ---------------------------------------------------------------------------
# TrainingGraph serialization (graph document plus the expansion extras).

def training_to_obj(tg: TrainingGraph) -> dict:
    return {
        "version": 1,
        "graph": graph_to_obj(tg.graph),
        "serial_order": list(tg.serial_order),
        "grad_of": dict(sorted(tg.grad_of.items())),
    }


# The graph is checked by graph_from_obj.
TRAINING_SCHEMA = Schema(TrainingGraph, ("version",), version=Literal[1], graph=dict)


def training_from_obj(obj) -> TrainingGraph:
    kw = {k: v for k, v in check(obj, TRAINING_SCHEMA).items() if k != "version"}
    return TrainingGraph(**kw | {"graph": graph_from_obj(kw["graph"], "graph")})


@gc_paused
def save_training_graph(tg: TrainingGraph, path) -> None:
    """Write dumps_canonical(training_to_obj(tg)), built row by row."""
    pad = "  "
    text = (f'{{\n{pad}"grad_of": {value_text(tg.grad_of, pad)},'
            f'\n{pad}"graph": {graph_text(tg.graph, pad)},'
            f'\n{pad}"serial_order": {list_text(tg.serial_order, pad)},\n{pad}"version": 1\n}}\n')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_training_graph(path) -> TrainingGraph:
    return load_document(path, "training-graph", training_from_obj)
