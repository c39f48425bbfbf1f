"""Memory-relief graph rewrites: swap-node insertion and checkpoint recompute.

Both passes are pure transformations: they return a new TrainingGraph and a
RewritePlan describing what was inserted; the input graph is never mutated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import (
    GraphSpec, NodeSpec, TensorDesc, GraphError, Violation,
    bfs_depths, dumps_canonical, load_document, scope_matches, validate_graph,
)
from .training import TrainingGraph, cross_phase_tensors

MODES = ("swap", "recompute", "none")
CKPT_POLICIES = ("speed", "sqrt_n", "manual")
CKPT_KINDS = ("conv", "matmul")  # 'speed' policy keeps these outputs


@dataclass
class RewriteConfig:
    mode: str = "none"
    n_tensors: int = -1
    lb: int = 1
    excl_scopes: tuple[str, ...] = ()
    incl_scopes: tuple[str, ...] = ()
    ckpt_policy: str = "speed"
    manual_ckpts: tuple[str, ...] = ()

    def validate(self) -> None:
        if self.mode not in MODES:
            raise GraphError(f"unknown rewrite mode {self.mode!r}")
        if self.lb < 1:
            raise GraphError(f"lb must be >= 1, got {self.lb}")
        if self.mode != "none" and (self.n_tensors < -1 or self.n_tensors == 0):
            raise GraphError(f"n_tensors must be -1 or positive, got {self.n_tensors}")
        if self.ckpt_policy not in CKPT_POLICIES:
            raise GraphError(f"unknown checkpoint policy {self.ckpt_policy!r}")


# Table-style tuning presets: (n_tensors, lb, excl_scopes).
PRESETS = {
    "paper-c1": RewriteConfig(mode="swap", n_tensors=-1, lb=1),
    "paper-c2": RewriteConfig(mode="swap", n_tensors=500, lb=1),
    "paper-c3": RewriteConfig(mode="swap", n_tensors=-1, lb=1, excl_scopes=("synthesis/*",)),
    "paper-c4": RewriteConfig(mode="swap", n_tensors=-1, lb=20, excl_scopes=("synthesis/*",)),
}


def resolve_preset(name: str) -> RewriteConfig:
    if name not in PRESETS:
        raise GraphError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    return PRESETS[name]


@dataclass
class RewritePlan:
    mode: str = "none"
    lb: int = 1
    # tensor id -> (swap_out node, swap_in node, trigger node)
    swapped: dict = field(default_factory=dict)
    checkpoints: tuple[str, ...] = ()
    # (anchor checkpoint tensor or "", original node ids cloned in order)
    recompute_segments: tuple = ()
    clone_map: dict = field(default_factory=dict)  # clone node id -> original node id

    def added_cost_units(self, tg: TrainingGraph) -> float:
        return sum(tg.graph.node(c).cost_units for c in self.clone_map)

    def to_obj(self) -> dict:
        return {
            "version": 1,
            "mode": self.mode,
            "lb": self.lb,
            "swapped": {t: list(v) for t, v in sorted(self.swapped.items())},
            "checkpoints": sorted(self.checkpoints),
            "recompute_segments": [[a, list(ns)] for a, ns in self.recompute_segments],
            "clone_map": dict(sorted(self.clone_map.items())),
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_obj())

    @classmethod
    def from_obj(cls, obj: dict) -> "RewritePlan":
        if not isinstance(obj, dict):
            raise GraphError("plan document must be a JSON object")
        if obj.get("version") != 1:
            raise GraphError(f"unsupported plan version {obj.get('version')!r}")
        return cls(
            mode=obj.get("mode", "none"),
            lb=int(obj.get("lb", 1)),
            swapped={t: tuple(v) for t, v in obj.get("swapped", {}).items()},
            checkpoints=tuple(obj.get("checkpoints", ())),
            recompute_segments=tuple((a, tuple(ns)) for a, ns in obj.get("recompute_segments", ())),
            clone_map=dict(obj.get("clone_map", {})),
        )


def save_plan(plan: RewritePlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(plan.to_json())


def load_plan(path) -> RewritePlan:
    return load_document(path, "plan", RewritePlan.from_obj)


def _producer_scope(tg: TrainingGraph, tensor_id: str) -> str:
    return tg.graph.node(tg.graph.tensor(tensor_id).producer).scope


def select_swap_tensors(tg: TrainingGraph, cfg: RewriteConfig) -> list[str]:
    """Swap candidates ordered by ascending BFS depth of their producer.

    Candidates are the cross-phase tensors; incl_scopes (when nonempty) is a
    whitelist applied before the excl_scopes blacklist. The first n_tensors
    are taken (-1 means all); asking for more than exist is not an error.
    """
    cfg.validate()
    if cfg.mode != "swap":
        raise GraphError(f"select_swap_tensors requires mode 'swap', got {cfg.mode!r}")
    candidates = cross_phase_tensors(tg)
    if cfg.incl_scopes:
        candidates = [t for t in candidates
                      if scope_matches(_producer_scope(tg, t), cfg.incl_scopes)]
    if cfg.excl_scopes:
        candidates = [t for t in candidates
                      if not scope_matches(_producer_scope(tg, t), cfg.excl_scopes)]
    depths = bfs_depths(tg.graph)
    candidates.sort(key=lambda t: (depths[tg.graph.tensor(t).producer],
                                   tg.graph.tensor(t).producer, t))
    if cfg.n_tensors == -1:
        return candidates
    return candidates[:cfg.n_tensors]


def insert_swap_nodes(tg: TrainingGraph, selection, lb: int) -> tuple[TrainingGraph, RewritePlan]:
    """Insert one swap_out/swap_in pair per selected tensor.

    The swap_in carries a data edge to every backward consumer (one swap_in
    serves them all) and a control edge from the trigger node lb compute
    positions ahead of the earliest consumer. The trigger is clamped so it
    is never before the first backward node and always strictly before the
    consumer; for a tensor consumed by the very first backward node that
    lands on the phase-boundary (loss) node.
    """
    if lb < 1:
        raise GraphError(f"lb must be >= 1, got {lb}")
    cross = set(cross_phase_tensors(tg))
    boundary = tg.boundary_position
    first_backward = boundary + 1
    if first_backward >= len(tg.serial_order):
        raise GraphError("graph has no backward phase to swap across")

    g = tg.graph
    nodes = {n.id: n for n in g.nodes}
    tensors = list(g.tensors)
    control_edges = list(g.control_edges)
    plan = RewritePlan(mode="swap", lb=lb)

    for tid in selection:
        if tid not in cross:
            raise GraphError(f"tensor {tid!r} is not a cross-phase tensor")
        t = g.tensor(tid)
        bw_consumers = [c for c in g.consumers(tid) if g.node(c).phase == "backward"]
        cmin = min(tg.position(c) for c in bw_consumers)
        out_id = f"swap_out/{tid}"
        in_id = f"swap_in/{tid}"
        in_tensor = f"{tid}@in"
        trig_pos = min(cmin - 1, max(first_backward, cmin - lb))
        trigger = tg.serial_order[trig_pos]
        nodes[out_id] = NodeSpec(id=out_id, kind="swap_out", inputs=(tid,), outputs=(),
                                 cost_units=0.0, scope=t.scope, phase="io")
        nodes[in_id] = NodeSpec(id=in_id, kind="swap_in", inputs=(), outputs=(in_tensor,),
                                cost_units=0.0, scope=t.scope, phase="io")
        tensors.append(TensorDesc(id=in_tensor, producer=in_id, shape=t.shape,
                                  channels=t.channels, elem_bytes=t.elem_bytes,
                                  scope=t.scope))
        control_edges.append((out_id, in_id))
        control_edges.append((trigger, in_id))
        for c in bw_consumers:
            cn = nodes[c]
            nodes[c] = NodeSpec(
                id=cn.id, kind=cn.kind,
                inputs=tuple(in_tensor if x == tid else x for x in cn.inputs),
                outputs=cn.outputs, cost_units=cn.cost_units,
                scope=cn.scope, phase=cn.phase)
        plan.swapped[tid] = (out_id, in_id, trigger)

    rewritten = GraphSpec(nodes=tuple(nodes[n.id] if n.id in nodes else n for n in g.nodes)
                          + tuple(nodes[f"swap_out/{t}"] for t in plan.swapped)
                          + tuple(nodes[f"swap_in/{t}"] for t in plan.swapped),
                          tensors=tuple(tensors),
                          control_edges=tuple(control_edges),
                          metadata=dict(g.metadata))
    new_tg = TrainingGraph(graph=rewritten, reuse_edges=tg.reuse_edges,
                           serial_order=tg.serial_order, grad_of=dict(tg.grad_of))
    return new_tg, plan


def plan_checkpoints(tg: TrainingGraph, cfg: RewriteConfig) -> list[str]:
    """Checkpoint tensor set for the recompute pass.

    speed: outputs of conv/matmul ops; sqrt_n: every ceil(sqrt(L))-th
    cross-phase tensor in serial order; manual: cfg.manual_ckpts. The
    loss-adjacent tensor is always kept.
    """
    cfg.validate()
    if cfg.mode != "recompute":
        raise GraphError(f"plan_checkpoints requires mode 'recompute', got {cfg.mode!r}")
    candidates = cross_phase_tensors(tg)
    cand_set = set(candidates)
    if cfg.ckpt_policy == "speed":
        kept = {t for t in candidates
                if tg.graph.node(tg.graph.tensor(t).producer).kind in CKPT_KINDS}
    elif cfg.ckpt_policy == "sqrt_n":
        step = math.ceil(math.sqrt(len(candidates))) if candidates else 1
        kept = {t for i, t in enumerate(candidates) if (i + 1) % step == 0}
    else:
        for t in cfg.manual_ckpts:
            if t not in cand_set:
                raise GraphError(f"manual checkpoint {t!r} is not a cross-phase tensor")
        kept = set(cfg.manual_ckpts)
    for n in tg.graph.nodes:
        if n.kind == "loss":
            kept.update(t for t in n.inputs if t in cand_set)
    return sorted(kept, key=lambda t: (tg.position(tg.graph.tensor(t).producer), t))


def insert_recompute(tg: TrainingGraph, checkpoints) -> tuple[TrainingGraph, RewritePlan]:
    """Free non-checkpoint cross-phase tensors at the phase boundary and
    re-materialize them with forward-op clones ahead of each backward segment.

    Segments are delimited by checkpoint producers in serial order. A clone
    resolves its inputs recursively: checkpoints and graph-input tensors are
    read directly, anything else is cloned first (within-segment clones are
    shared). Clones keep the original kind and cost_units.
    """
    g = tg.graph
    cross = set(cross_phase_tensors(tg))
    for t in checkpoints:
        if t not in cross:
            raise GraphError(f"checkpoint {t!r} is not a cross-phase tensor")
    kept = set(checkpoints)
    input_tensors = {n.outputs[0] for n in g.nodes
                     if n.phase == "forward" and not n.inputs and n.outputs}
    boundary = tg.boundary_position
    forward_ids = list(tg.serial_order[:boundary + 1])
    backward_ids = list(tg.serial_order[boundary + 1:])

    def resident(tid: str) -> bool:
        return tid in kept or tid in input_tensors

    # Segment index per forward op: a new segment starts after each
    # checkpoint-producing op.
    seg_of: dict[str, int] = {}
    seg = 0
    for nid in forward_ids:
        seg_of[nid] = seg
        n = g.node(nid)
        if n.outputs and n.outputs[0] in kept:
            seg += 1

    nodes = {n.id: n for n in g.nodes}
    tensors = list(g.tensors)
    new_nodes: list[NodeSpec] = []
    plan = RewritePlan(mode="recompute", checkpoints=tuple(sorted(kept)))

    # Group grads by the segment of their forward op, preserving global
    # reverse order within and across groups.
    groups: list[tuple[int, list[str]]] = []
    for gid in backward_ids:
        fwd = tg.grad_of.get(gid)
        s = seg_of.get(fwd, -1)
        if groups and groups[-1][0] == s:
            groups[-1][1].append(gid)
        else:
            groups.append((s, [gid]))

    serial_backward: list[str] = []
    for s, grad_ids in groups:
        mapping: dict[str, str] = {}
        clones: list[str] = []

        def resolve(tid: str) -> str:
            if resident(tid):
                return tid
            if tid in mapping:
                return mapping[tid]
            prod = g.node(g.tensor(tid).producer)
            if prod.phase != "forward" or prod.kind == "loss":
                return tid  # backward-produced tensors are resident during backward
            if not prod.inputs and not resident(tid):
                raise GraphError(
                    f"segment needs tensor {tid!r} with no preceding checkpoint "
                    f"and no graph input to recompute from")
            ins = tuple(resolve(x) for x in prod.inputs)
            clone_id = f"{prod.id}@rc{s}"
            out_id = f"{tid}@rc{s}"
            src = g.tensor(tid)
            new_nodes.append(NodeSpec(
                id=clone_id, kind=prod.kind, inputs=ins, outputs=(out_id,),
                cost_units=prod.cost_units, scope=prod.scope, phase="backward"))
            tensors.append(TensorDesc(id=out_id, producer=clone_id, shape=src.shape,
                                      channels=src.channels, elem_bytes=src.elem_bytes,
                                      scope=src.scope))
            plan.clone_map[clone_id] = prod.id
            clones.append(clone_id)
            mapping[tid] = out_id
            return out_id

        for gid in grad_ids:
            gn = nodes[gid]
            new_inputs = []
            for tid in gn.inputs:
                prod = g.tensor(tid).producer if g.has_tensor(tid) else None
                if (prod is not None and g.node(prod).phase == "forward"
                        and not resident(tid)):
                    new_inputs.append(resolve(tid))
                else:
                    new_inputs.append(tid)
            nodes[gid] = NodeSpec(id=gn.id, kind=gn.kind, inputs=tuple(new_inputs),
                                  outputs=gn.outputs, cost_units=gn.cost_units,
                                  scope=gn.scope, phase=gn.phase)
        if clones:
            anchor = ""
            first_pos = min(tg.position(plan.clone_map[c]) for c in clones)
            for nid in reversed(forward_ids[:first_pos]):
                n = g.node(nid)
                if n.outputs and n.outputs[0] in kept:
                    anchor = n.outputs[0]
                    break
            plan.recompute_segments += ((anchor, tuple(plan.clone_map[c] for c in clones)),)
        serial_backward.extend(clones)
        serial_backward.extend(grad_ids)

    all_nodes = [nodes[nid] for nid in (n.id for n in g.nodes)]
    # Clones are spliced into the node list right where they run.
    rewritten = GraphSpec(nodes=tuple(all_nodes) + tuple(new_nodes),
                          tensors=tuple(tensors),
                          control_edges=g.control_edges,
                          metadata=dict(g.metadata))
    serial = tuple(forward_ids) + tuple(serial_backward)
    new_tg = TrainingGraph(graph=rewritten, reuse_edges=tg.reuse_edges,
                           serial_order=serial, grad_of=dict(tg.grad_of))
    return new_tg, plan


def apply_rewrite(tg: TrainingGraph, cfg: RewriteConfig) -> tuple[TrainingGraph, RewritePlan]:
    cfg.validate()
    if cfg.mode == "none":
        return tg, RewritePlan(mode="none", lb=cfg.lb)
    if cfg.mode == "swap":
        selection = select_swap_tensors(tg, cfg)
        return insert_swap_nodes(tg, selection, cfg.lb)
    checkpoints = plan_checkpoints(tg, cfg)
    return insert_recompute(tg, checkpoints)


def check_rewrite_validity(original: TrainingGraph, rewritten: TrainingGraph,
                           plan: RewritePlan) -> list[Violation]:
    """Regression guard over a rewrite: structure, bypasses, clone fidelity."""
    out = list(validate_graph(rewritten.graph))
    g0, g1 = original.graph, rewritten.graph

    for n in g0.nodes:
        if n.kind in ("swap_out", "swap_in"):
            continue
        if not g1.has_node(n.id):
            out.append(Violation("missing-node", n.id, "original compute node absent"))
            continue
        m = g1.node(n.id)
        if (m.kind, m.cost_units, m.phase) != (n.kind, n.cost_units, n.phase):
            out.append(Violation("node-changed", n.id, "kind/cost/phase changed by rewrite"))

    fwd0 = [nid for nid in original.serial_order if g0.node(nid).phase == "forward"]
    fwd1 = [nid for nid in rewritten.serial_order
            if g1.has_node(nid) and g1.node(nid).phase == "forward"]
    if fwd0 != fwd1:
        out.append(Violation("forward-order-changed", "serial_order",
                             "forward compute order differs from the original"))

    first_backward = original.boundary_position + 1
    control = set(g1.control_edges)
    for tid, entry in sorted(plan.swapped.items()):
        out_id, in_id, trigger = entry
        if not g1.has_node(out_id) or g1.node(out_id).kind != "swap_out":
            out.append(Violation("missing-swap-out", tid, f"no swap_out node {out_id!r}"))
            continue
        if tid not in g1.node(out_id).inputs:
            out.append(Violation("swap-out-input", tid, "swap_out does not consume the tensor"))
        if not g1.has_node(in_id) or g1.node(in_id).kind != "swap_in":
            out.append(Violation("missing-swap-in", tid, f"no swap_in node {in_id!r}"))
            continue
        if (out_id, in_id) not in control:
            out.append(Violation("missing-control", tid, "swap_in lacks control edge from swap_out"))
        if (trigger, in_id) not in control:
            out.append(Violation("missing-control", tid, "swap_in lacks control edge from trigger"))
        bw = [c for c in g0.consumers(tid) if g0.node(c).phase == "backward"]
        in_tensor = g1.node(in_id).outputs[0] if g1.node(in_id).outputs else None
        for c in bw:
            cn = g1.node(c) if g1.has_node(c) else None
            if cn is None:
                continue
            if tid in cn.inputs or in_tensor not in cn.inputs:
                out.append(Violation("consumer-bypasses-swap-in", c,
                                     f"backward consumer of {tid!r} not rewired through swap_in"))
        cmin = min(original.position(c) for c in bw)
        expected = original.serial_order[min(cmin - 1, max(first_backward, cmin - plan.lb))]
        if trigger != expected:
            out.append(Violation("trigger-position", tid,
                                 f"trigger {trigger!r}, expected {expected!r}"))

    for clone, orig in sorted(plan.clone_map.items()):
        if not g1.has_node(clone):
            out.append(Violation("missing-clone", clone, "recompute clone absent"))
            continue
        cn, on = g1.node(clone), g0.node(orig)
        if cn.kind != on.kind:
            out.append(Violation("clone-mismatch", clone,
                                 f"clone kind {cn.kind!r} != original {on.kind!r}"))
        if cn.cost_units != on.cost_units:
            out.append(Violation("clone-mismatch", clone, "clone cost differs from original"))
    return out
