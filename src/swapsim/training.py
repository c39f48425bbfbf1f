"""Backward expansion of forward graphs, feature-map reuse edges, and
schedule-independent liveness / peak-memory estimates."""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .graph import (
    GraphSpec, NodeSpec, TensorDesc, GraphError, dumps_canonical, graph_from_obj,
    graph_text, graph_to_obj, list_text, load_document, rows_text, tensor_bytes,
    topo_order, validate_graph, value_text,
)

BACKWARD_COST_RATIO = 2.0  # grad op cost relative to its forward counterpart


@dataclass
class TrainingGraph:
    """A forward graph expanded with one grad node per forward op.

    ``serial_order`` is the canonical compute execution order (io nodes are
    never listed): forward ops in topo order, the loss bridge, then grad ops
    in exact reverse order of their forward counterparts, with any recompute
    clones spliced ahead of the grads that need them.
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
                if self.graph.node(nid).phase == "forward":
                    last = i
        except KeyError:
            raise GraphError(f"serial_order names unknown node {nid!r}") from None
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
    violations = validate_graph(g)
    if violations:
        raise GraphError(f"cannot expand invalid graph: {violations[0]}")
    if any(n.phase != "forward" for n in g.nodes):
        raise GraphError("graph already contains backward or io nodes")
    for n in g.nodes:
        if n.kind != "loss" and len(n.outputs) != 1:
            raise GraphError(f"forward op {n.id!r} must produce exactly one tensor")

    forward_order = topo_order(g)
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
    intervals: dict  # tensor id -> list of [start, end) position pairs
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


def _tensor_intervals(tg: TrainingGraph, plan) -> dict[str, list[tuple[int, int]]]:
    """Half-open residency intervals over serial positions, per tensor.

    A tensor is charged from its producer's position up to (not including)
    its last consumer's position: the consumer's own outputs are charged at
    that position instead, which keeps the estimate a positional sum rather
    than a double-counting one. Swapped tensors get the split residency
    [p, p+1) + [cmin - lb_eff, clast); lb_eff = min(lb, cmin - p - 1).
    """
    g = tg.graph
    positions = tg.positions
    swapped = {}
    lb = 1
    if plan is not None and getattr(plan, "mode", "none") == "swap":
        swapped = dict(plan.swapped)
        lb = plan.lb
        for tid in swapped:
            if not g.has_tensor(tid):
                raise GraphError(f"plan references unknown tensor {tid!r}")
    if plan is not None and getattr(plan, "mode", "none") == "recompute":
        for tid in plan.checkpoints:
            if not g.has_tensor(tid):
                raise GraphError(f"plan references unknown tensor {tid!r}")
        for clone in plan.clone_map:
            if not g.has_node(clone):
                raise GraphError(f"plan references unknown recompute node {clone!r}")

    intervals: dict[str, list[tuple[int, int]]] = {}
    for t in g.tensors:
        prod = g.node(t.producer)
        if prod.kind == "swap_in":
            continue  # folded into the swapped tensor's split residency
        if t.producer not in positions:
            continue  # io-produced tensor outside the compute order
        p = tg.position(t.producer)
        if t.id in swapped:
            entry = swapped[t.id]
            swap_in_out = f"{t.id}@in"
            if g.has_tensor(swap_in_out):
                cons = [tg.position(c) for c in g.consumers(swap_in_out)
                        if c in positions]
            else:
                cons = [tg.position(c) for c in g.consumers(t.id)
                        if g.node(c).phase == "backward" and c in positions]
            if not cons:
                intervals[t.id] = [(p, p + 1)]
                continue
            cmin, clast = min(cons), max(cons)
            lb_eff = min(lb, max(cmin - p - 1, 0))
            ivs = [(p, p + 1), (cmin - lb_eff, clast)]
            if ivs[0][1] >= ivs[1][0]:
                ivs = [(p, max(p + 1, clast))]
            intervals[t.id] = ivs
        else:
            cons = [tg.position(c) for c in g.consumers(t.id)
                    if c in positions and g.node(c).kind not in ("swap_out",)]
            end = max(cons) if cons else p + 1
            intervals[t.id] = [(p, max(end, p + 1))]
    return intervals


def static_peak_estimate(tg: TrainingGraph, plan=None) -> LivenessReport:
    """Schedule-independent peak of summed resident tensor bytes.

    For swap plans the original expanded graph and the rewritten one give the
    same answer (the split-interval rule models the swap); recompute plans
    must be evaluated on the rewritten graph so clone re-materialization is
    accounted.
    """
    g = tg.graph
    intervals = _tensor_intervals(tg, plan)
    static = int(g.metadata.get("static_bytes", 0))
    npos = len(tg.serial_order)
    if npos == 0:
        return LivenessReport(intervals={}, peak_bytes=static, peak_position=0,
                              static_bytes=static)
    diff = [0] * (npos + 1)
    for tid, ivs in intervals.items():
        nbytes = tensor_bytes(g.tensor(tid))
        for start, end in ivs:
            start = max(0, min(start, npos))
            end = max(start, min(end, npos))
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
    return LivenessReport(intervals={tid: [list(iv) for iv in ivs] for tid, ivs in intervals.items()},
                          peak_bytes=peak + static, peak_position=peak_pos,
                          static_bytes=static)


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
