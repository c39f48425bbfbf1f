"""Backward expansion of forward graphs, feature-map reuse edges, the
execution order that places io nodes among the compute nodes, and the static
liveness / peak-memory estimate over that order."""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .graph import (
    IO_KINDS, GraphSpec, NodeSpec, TensorDesc, GraphError, dumps_canonical, graph_from_obj,
    graph_text, graph_to_obj, list_text, load_document, rows_text, tensor_bytes,
    validate_graph_order, value_text,
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
    ``reuse_edges`` are the (forward tensor, backward consumer) pairs that
    make feature maps live across the phase boundary.
    """

    graph: GraphSpec
    reuse_edges: tuple[tuple[str, str], ...]
    serial_order: tuple[str, ...]
    grad_of: dict = field(default_factory=dict)  # grad node id -> forward node id

    def position(self, node_id: str) -> int:
        return self._positions[node_id]

    def __post_init__(self):
        self.reuse_edges = tuple((a, b) for a, b in self.reuse_edges)
        self.serial_order = tuple(self.serial_order)
        self._positions = {nid: i for i, nid in enumerate(self.serial_order)}
        self._positions_view = MappingProxyType(self._positions)
        last = -1
        try:
            for i, nid in enumerate(self.serial_order):
                node = self.graph.node(nid)
                if node.kind in IO_KINDS:
                    raise GraphError(f"serial_order names io node {nid!r}")
                if node.phase == "forward":
                    last = i
        except KeyError:
            raise GraphError(f"serial_order names unknown node {nid!r}") from None
        if len(self._positions) < len(self.serial_order):
            twice = next(nid for i, nid in enumerate(self.serial_order)
                         if self._positions[nid] != i)
            raise GraphError(f"serial_order names node {twice!r} twice")
        omitted = next((n.id for n in self.graph.nodes
                        if n.kind not in IO_KINDS and n.id not in self._positions), None)
        if omitted is not None:
            raise GraphError(f"serial_order omits compute node {omitted!r}")
        self._boundary_position = last

    @property
    def positions(self) -> Mapping[str, int]:
        """Read-only map from each compute node in serial_order to its position."""
        return self._positions_view

    @property
    def boundary_position(self) -> int:
        """Serial position of the last forward-phase node (the loss bridge)."""
        return self._boundary_position


def expand_training_graph(g: GraphSpec, static_bytes: int = 0,
                          backward_cost_ratio: float = BACKWARD_COST_RATIO) -> TrainingGraph:
    """Add one grad node per forward op, plus a loss bridge if missing.

    grad(f) consumes the gradient contributions produced by the grads of
    f's consumers plus f's own output tensor (the reuse edge), and produces
    one gradient tensor per input of f (a single one for input nodes).
    """
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
        loss = NodeSpec(id="loss", kind="loss", inputs=terminals, outputs=(),
                        cost_units=0.0, scope="loss", phase="forward")
        nodes.append(loss)
        forward_order.append(loss.id)
    else:
        return TrainingGraph(graph=GraphSpec(metadata=dict(g.metadata)),
                             reuse_edges=(), serial_order=())

    loss_inputs = set(loss.inputs)
    forward_ops = [g.node(nid) for nid in forward_order if nid != loss.id]

    reuse_edges = []
    grad_of = {}
    grad_order = []
    for f in reversed(forward_ops):
        t_out = f.outputs[0]
        gid = f"grad/{f.id}"
        contribs = []
        for c in g.consumers(t_out):
            cn = g.node(c)
            if cn.kind == "loss":
                continue
            k = cn.inputs.index(t_out)
            contribs.append(f"grad/{c}:{k}")
        inputs = tuple(contribs) + (t_out,)
        src = g.tensor(t_out)
        if f.inputs:
            outputs = tuple(f"{gid}:{k}" for k in range(len(f.inputs)))
            for k, tid in enumerate(f.inputs):
                ref = g.tensor(tid)
                tensors.append(TensorDesc(
                    id=f"{gid}:{k}", producer=gid, shape=ref.shape,
                    channels=ref.channels, elem_bytes=ref.elem_bytes,
                    scope=f"grad/{f.scope}"))
        else:
            outputs = (f"{gid}:0",)
            tensors.append(TensorDesc(
                id=f"{gid}:0", producer=gid, shape=src.shape,
                channels=src.channels, elem_bytes=src.elem_bytes,
                scope=f"grad/{f.scope}"))
        nodes.append(NodeSpec(
            id=gid, kind="grad", inputs=inputs, outputs=outputs,
            cost_units=backward_cost_ratio * f.cost_units,
            scope=f"grad/{f.scope}", phase="backward"))
        grad_of[gid] = f.id
        grad_order.append(gid)
        reuse_edges.append((t_out, gid))
        if t_out in loss_inputs:
            control_edges.append((loss.id, gid))

    metadata = dict(g.metadata)
    metadata["static_bytes"] = static_bytes
    metadata["backward_cost_ratio"] = backward_cost_ratio
    expanded = GraphSpec(nodes=tuple(nodes), tensors=tuple(tensors),
                         control_edges=tuple(control_edges), metadata=metadata)
    serial = tuple(forward_order) + tuple(grad_order)
    reuse_edges.sort(key=lambda e: expanded.tensor(e[0]).producer)
    return TrainingGraph(graph=expanded, reuse_edges=tuple(reuse_edges),
                         serial_order=serial, grad_of=grad_of)


def count_feature_maps(tg: TrainingGraph) -> int:
    """Forward-phase tensors consumed by backward-phase nodes (swap candidates)."""
    if not any(n.phase == "backward" for n in tg.graph.nodes):
        raise GraphError("graph is not expanded: no backward nodes present")
    return len(cross_phase_tensors(tg))


def cross_phase_tensors(tg: TrainingGraph) -> list[str]:
    """Cross-boundary tensor ids ordered by producer serial position."""
    out = []
    for t in tg.graph.tensors:
        prod = tg.graph.node(t.producer)
        if prod.phase != "forward":
            continue
        if any(tg.graph.node(c).phase == "backward" for c in tg.graph.consumers(t.id)):
            out.append(t.id)
    out.sort(key=lambda tid: (tg.position(tg.graph.tensor(tid).producer), tid))
    return out


def cross_phase_edges(tg: TrainingGraph) -> list[tuple[str, int, int]]:
    """(tensor id, producer position, earliest backward-consumer position),
    sorted by producer position ascending."""
    rows = []
    for tid in cross_phase_tensors(tg):
        t = tg.graph.tensor(tid)
        cons = [tg.position(c) for c in tg.graph.consumers(tid)
                if tg.graph.node(c).phase == "backward"]
        rows.append((tid, tg.position(t.producer), min(cons)))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


@dataclass
class LivenessReport:
    intervals: dict  # tensor id -> [[start, end)]: its one residency interval
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
    positions = tg.positions
    # Trigger nodes per swap_in, from one pass over the control edges.
    triggers: dict[str, list[str]] = {n.id: [] for n in g.nodes if n.kind == "swap_in"}
    for a, b in g.control_edges:
        if b in triggers and g.node(a).kind != "swap_out":
            triggers[b].append(a)
    anchored: dict[int, list[tuple[int, str]]] = {}
    for n in g.nodes:
        if n.kind == "swap_out":
            t = g.tensor(n.inputs[0])
            pos = tg.position(t.producer)
            for c in g.consumers(n.inputs[0]):
                if g.has_node(c) and g.node(c).phase == "forward" and c in positions:
                    pos = max(pos, positions[c])
            anchored.setdefault(pos, []).append((0, n.id))
        elif n.kind == "swap_in":
            if not triggers[n.id]:
                raise GraphError(f"swap_in {n.id!r} has no trigger control edge")
            pos = max(tg.position(t) for t in triggers[n.id])
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
    for tid in sorted(plan.swapped):
        for nid in plan.swapped[tid]:
            if not g.has_node(nid):
                raise GraphError(f"plan does not match the graph: swap of tensor {tid!r} "
                                 f"names node {nid!r}, which the graph lacks")
    for nid in sorted(plan.clone_map):
        if not g.has_node(nid):
            raise GraphError(f"plan does not match the graph: clone node {nid!r} "
                             f"is missing from the graph")
    for tid in sorted(plan.swapped) + sorted(plan.checkpoints):
        if not g.has_tensor(tid):
            raise GraphError(f"plan does not match the graph: tensor {tid!r} "
                             f"is missing from the graph")


def static_peak_estimate(tg: TrainingGraph, plan=None) -> LivenessReport:
    """Peak of summed resident tensor bytes over the serial positions, by the
    simulator's alloc/free rule with every transfer instant.

    A compute node at serial position p acts over [p, p + 1); an io node that
    ``execution_order`` splices after position p acts at p + 1, between p and
    the next position. A tensor is resident from its producer's start to the
    latest end among its producer and its consumers: through its last
    consumer's position, or over its producer's position alone if nothing
    consumes it. With instant transfers, and every op but the loss taking
    time, this is the simulated peak. ``tg`` must be the graph a rewrite
    produced, and ``plan``, when given, the plan that produced it
    (``check_plan``).
    """
    check_plan(tg.graph, plan)
    g = tg.graph
    static = int(g.metadata.get("static_bytes", 0))
    npos = len(tg.serial_order)
    if npos == 0:
        return LivenessReport(intervals={}, peak_bytes=static, peak_position=0,
                              static_bytes=static)
    positions = tg.positions
    span: dict[str, tuple[int, int]] = {}
    pos = -1
    for nid in execution_order(tg):
        if nid in positions:
            pos = positions[nid]
            span[nid] = (pos, pos + 1)
        else:
            span[nid] = (pos + 1, pos + 1)
    intervals = {}
    diff = [0] * (npos + 1)
    for t in g.tensors:
        start, end = span[t.producer]
        for c in g.consumers(t.id):
            end = max(end, span[c][1])
        intervals[t.id] = [[start, end]]
        nbytes = tensor_bytes(t)
        diff[start] += nbytes
        diff[end] -= nbytes
    peak = -1
    peak_pos = 0
    cur = 0
    for pos in range(npos):
        cur += diff[pos]
        if cur > peak:
            peak = cur
            peak_pos = pos
    return LivenessReport(intervals=intervals, peak_bytes=peak + static,
                          peak_position=peak_pos, static_bytes=static)


# ---------------------------------------------------------------------------
# TrainingGraph serialization (graph document plus the expansion extras).

def training_to_obj(tg: TrainingGraph) -> dict:
    return {
        "version": 1,
        "graph": graph_to_obj(tg.graph),
        "reuse_edges": sorted([list(e) for e in tg.reuse_edges]),
        "serial_order": list(tg.serial_order),
        "grad_of": dict(sorted(tg.grad_of.items())),
    }


def training_from_obj(obj: dict) -> TrainingGraph:
    if not isinstance(obj, dict):
        raise GraphError("training-graph document must be a JSON object")
    if obj.get("version") != 1:
        raise GraphError(f"unsupported training-graph version {obj.get('version')!r}")
    return TrainingGraph(
        graph=graph_from_obj(obj["graph"]),
        reuse_edges=tuple((a, b) for a, b in obj.get("reuse_edges", ())),
        serial_order=tuple(obj.get("serial_order", ())),
        grad_of=dict(obj.get("grad_of", {})),
    )


def save_training_graph(tg: TrainingGraph, path) -> None:
    """Write dumps_canonical(training_to_obj(tg)), built row by row."""
    pad = "  "
    edges = [list_text(e, pad * 2) for e in sorted(tg.reuse_edges)]
    text = (f'{{\n{pad}"grad_of": {value_text(tg.grad_of, pad)},'
            f'\n{pad}"graph": {graph_text(tg.graph, pad)},'
            f'\n{pad}"reuse_edges": {rows_text(edges, pad)},'
            f'\n{pad}"serial_order": {list_text(tg.serial_order, pad)},\n{pad}"version": 1\n}}\n')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_training_graph(path) -> TrainingGraph:
    return load_document(path, "training-graph", training_from_obj)
