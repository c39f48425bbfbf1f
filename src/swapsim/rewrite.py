"""Memory-relief graph rewrites: swap-node insertion and checkpoint recompute.

Both passes are pure transformations: they return a new TrainingGraph and a
RewritePlan describing what was inserted; the input graph is never mutated.
A RewriteConfig is frozen and checks its fields' annotations when it is built.
Since a rewrite is pure, ``apply_rewrite`` derives it once per (base graph,
config) while it is in use: as long as a caller holds the rewrite of a
config, the same graph and plan are returned for it again. The base keeps
them only weakly, so it never keeps a rewrite alive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import filterfalse, groupby
from operator import itemgetter
from typing import Literal, NamedTuple, get_args
from weakref import WeakValueDictionary

from .graph import (
    Count, GraphSpec, NodeSpec, TensorDesc, GraphError, Violation, Schema, bfs_depths, check,
    check_fields, dumps_canonical, extend_index, gc_paused, load_document, scope_matcher,
    validate_graph,
)
from .training import TrainingGraph, cross_phase_tensors, input_nodes

Mode = Literal["swap", "recompute", "none"]
CkptPolicy = Literal["speed", "sqrt_n", "manual"]
MODES, CKPT_POLICIES = get_args(Mode), get_args(CkptPolicy)
CKPT_KINDS = ("conv", "matmul")  # 'speed' policy keeps these outputs


@dataclass(frozen=True)
class RewriteConfig:
    mode: Mode = "none"
    n_tensors: Literal[-1] | Count = -1  # -1: every candidate
    lb: Count = 1
    excl_scopes: tuple[str, ...] = ()
    incl_scopes: tuple[str, ...] = ()
    ckpt_policy: CkptPolicy = "speed"
    manual_ckpts: tuple[str, ...] = ()

    def __post_init__(self):
        check_fields(RewriteConfig, vars(self))
        for name in ("excl_scopes", "incl_scopes", "manual_ckpts"):  # hashable, as a table key
            object.__setattr__(self, name, tuple(getattr(self, name)))


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
    """What a rewrite inserted. Construction checks ``lb`` by its annotation
    and turns the JSON lists of a plan document into tuples."""

    mode: Mode = "none"
    lb: Count = 1
    # tensor id -> (swap_out node, swap_in node, trigger node)
    swapped: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    checkpoints: tuple[str, ...] = ()
    # (anchor checkpoint tensor or "", original node ids cloned in order)
    recompute_segments: tuple[tuple[str, tuple[str, ...]], ...] = ()
    clone_map: dict[str, str] = field(default_factory=dict)  # clone node id -> original node id

    def __post_init__(self):
        check_fields(RewritePlan, {"lb": self.lb})  # the rewrites fill in the rest
        self.swapped = {t: tuple(v) for t, v in self.swapped.items()}
        self.checkpoints = tuple(self.checkpoints)
        self.recompute_segments = tuple((a, tuple(ns)) for a, ns in self.recompute_segments)

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
    def from_obj(cls, obj) -> "RewritePlan":
        return cls(**{k: v for k, v in check(obj, PLAN_SCHEMA).items() if k != "version"})


PLAN_SCHEMA = Schema(RewritePlan, ("version",), version=Literal[1])


def save_plan(plan: RewritePlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(plan.to_json())


def load_plan(path) -> RewritePlan:
    return load_document(path, "plan", RewritePlan.from_obj)


class SwapCandidate(NamedTuple):
    """A cross-phase tensor, as the swap rewrite reads it."""
    tensor: int                # its index in the tensor table
    scope: str                 # its producer's scope
    readers: tuple[int, ...]   # its backward readers' node indices, in node-list order
    first_use: int             # the earliest backward reader's serial position


def swap_candidates(tg: TrainingGraph) -> dict[str, SwapCandidate]:
    """Each cross-phase tensor by id, ordered by its producer's BFS depth
    (``bfs_depths``), then producer id, then tensor id; derived once per
    TrainingGraph (``TrainingGraph.derived``), so every swap rewrite of one
    graph shares it."""
    table = tg.derived.get("swap_candidates")
    if table is not None:
        return table
    g = tg.graph
    ix = g.index
    rows, ids, tindex = ix.nodes, ix.ids, ix.tensor_index
    depths = bfs_depths(g)
    keyed = []
    for tid in cross_phase_tensors(tg):
        k = tindex[tid]
        producer = rows[ix.producer[k]]
        readers = tuple(c for c in ix.consumers[k] if rows[c].phase == "backward")
        keyed.append((depths[producer.id], producer.id, tid, SwapCandidate(
            k, producer.scope, readers, min(tg.position(ids[c]) for c in readers))))
    keyed.sort()
    table = tg.derived["swap_candidates"] = {tid: c for _, _, tid, c in keyed}
    return table


def select_swap_tensors(tg: TrainingGraph, cfg: RewriteConfig) -> list[str]:
    """Swap candidates ordered by ascending BFS depth of their producer.

    Candidates are the cross-phase tensors (``swap_candidates``); incl_scopes
    (when nonempty) is a whitelist applied before the excl_scopes blacklist.
    The first n_tensors are taken (-1 means all); asking for more than exist
    is not an error.
    """
    if cfg.mode != "swap":
        raise GraphError(f"select_swap_tensors requires mode 'swap', got {cfg.mode!r}")
    table = swap_candidates(tg)
    candidates = list(table)
    for patterns, keep in ((cfg.incl_scopes, filter), (cfg.excl_scopes, filterfalse)):
        if patterns:
            kept = set(keep(scope_matcher(patterns), {c.scope for c in table.values()}))
            candidates = [t for t in candidates if table[t].scope in kept]
    if cfg.n_tensors == -1:
        return candidates
    return candidates[:cfg.n_tensors]


@gc_paused
def insert_swap_nodes(tg: TrainingGraph, selection, lb: Count) -> tuple[TrainingGraph, RewritePlan]:
    """Insert one swap_out/swap_in pair per selected tensor.

    The swap_in carries a data edge to every backward consumer (one swap_in
    serves them all) and a control edge from the trigger node lb compute
    positions ahead of the earliest consumer. The trigger is clamped so it
    is never before the first backward node and always strictly before the
    consumer; for a tensor consumed by the very first backward node that
    lands on the phase-boundary (loss) node.

    ``tg``'s graph must keep every rule: reading its candidates
    (``swap_candidates``, by ``bfs_depths``) raises its first violation.
    The new graph has every row. It extends ``tg``'s graph, so it takes its
    index from ``tg``'s (``GraphIndex``) and its serial order unchecked from
    ``tg`` (``TrainingGraph.extend``); a new id that ``tg``'s graph already
    has raises the new graph's first violation (``extend_index``).
    """
    plan = RewritePlan(mode="swap", lb=lb)
    first_backward = tg.boundary_position + 1
    if first_backward >= len(tg.serial_order):
        raise GraphError("graph has no backward phase to swap across")
    table = swap_candidates(tg)

    g = tg.graph
    ix = g.index
    rows, ids, serial, nt = ix.nodes, ix.ids, tg.serial_order, len(g.tensors)
    rewired: dict[str, NodeSpec] = {}  # backward consumer id -> its rewired row
    swap_outs: dict[str, NodeSpec] = {}
    swap_ins: dict[str, NodeSpec] = {}
    tensors: list[TensorDesc] = []
    control_edges: list[tuple[str, str]] = []
    moved: dict[int, int] = {}  # tensor index -> its @in tensor's index
    new_row = tuple.__new__  # a row from its field values, in order, without a Python frame

    for tid in selection:
        if tid in plan.swapped:
            raise GraphError(f"tensor {tid!r} is selected twice")
        c = table.get(tid)
        if c is None:
            raise GraphError(f"tensor {tid!r} is not a cross-phase tensor")
        t = g.tensors[c.tensor]
        out_id, in_id, in_tensor = f"swap_out/{tid}", f"swap_in/{tid}", f"{tid}@in"
        trigger = serial[min(c.first_use - 1, max(first_backward, c.first_use - lb))]
        swap_outs[tid] = new_row(NodeSpec, (out_id, "swap_out", (tid,), (), 0.0, t.scope, "io"))
        swap_ins[tid] = new_row(NodeSpec, (in_id, "swap_in", (), (in_tensor,), 0.0, t.scope, "io"))
        moved[c.tensor] = nt + len(tensors)
        tensors.append(new_row(TensorDesc, (in_tensor, in_id, *t[2:])))
        control_edges += [(out_id, in_id), (trigger, in_id)]
        for r in c.readers:
            cn = rewired.get(ids[r], rows[r])
            inputs = tuple([in_tensor if x == tid else x for x in cn.inputs])
            rewired[cn.id] = new_row(NodeSpec, (cn.id, cn.kind, inputs, *cn[3:]))
        plan.swapped[tid] = (out_id, in_id, trigger)

    added = tuple(swap_outs.values()) + tuple(swap_ins.values())
    rewritten = _derived(g, nodes=tuple(map(rewired.get, map(itemgetter(0), g.nodes), g.nodes))
                         + added,
                         tensors=g.tensors + tuple(tensors),
                         control_edges=g.control_edges + tuple(control_edges))
    index = ix.index
    extend_index(rewritten, g, added, {index[nid]: row for nid, row in rewired.items()}, moved)
    return tg.extend(rewritten), plan


def _derived(base: GraphSpec, **rows) -> GraphSpec:
    """A rewrite's graph, with ``base``'s metadata. Each of its rows copies
    the field values of a row of ``base`` or takes constants that keep the
    row rules, so when ``base`` keeps them it does too, and the rules are
    not run on it again."""
    g = GraphSpec(**rows, metadata=dict(base.metadata))
    if not base.field_violations:
        g.field_violations = []
    return g


def plan_checkpoints(tg: TrainingGraph, cfg: RewriteConfig) -> list[str]:
    """Checkpoint tensor set for the recompute pass.

    speed: outputs of conv/matmul ops; sqrt_n: every ceil(sqrt(L))-th
    cross-phase tensor in serial order; manual: cfg.manual_ckpts. The
    loss-adjacent tensor is always kept.
    """
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
    return [t for t in candidates if t in kept]  # by producer position, as candidates are


class _Segment:
    """The clones that backward segment ``s`` of ``insert_recompute`` needs,
    each made on first need and shared within the segment. ``resolve``
    recurses through a method rather than a nested function: a recursive
    closure is a function-cell reference cycle, which a stage that runs with
    the collector paused (``gc_paused``) must not leave behind."""

    def __init__(self, s: int, g: GraphSpec, resident: set, tensors: list, clone_map: dict):
        self.s, self.g, self.resident = s, g, resident
        self.tensors, self.clone_map = tensors, clone_map  # shared by every segment
        self.mapping: dict[str, str] = {}  # tensor id -> its clone's output tensor
        self.clones: list[NodeSpec] = []

    def resolve(self, tid: str) -> str:
        """The tensor the segment reads for ``tid``: ``tid`` itself when it is
        resident or not forward-produced, else its clone's output."""
        if tid in self.resident:
            return tid
        if tid in self.mapping:
            return self.mapping[tid]
        g, s = self.g, self.s
        ix = g.index
        k = ix.tensor_index[tid]
        prod = ix.nodes[ix.producer[k]]
        if prod.phase != "forward" or prod.kind == "loss":
            return tid  # backward-produced tensors are resident during backward
        if not prod.inputs:
            raise GraphError(
                f"segment needs tensor {tid!r} with no preceding checkpoint "
                f"and no graph input to recompute from")
        ins = tuple(self.resolve(x) for x in prod.inputs)
        clone_id, out_id = f"{prod.id}@rc{s}", f"{tid}@rc{s}"
        src = g.tensors[k]
        self.clones.append(NodeSpec(clone_id, prod.kind, ins, (out_id,), prod.cost_units,
                                    prod.scope, "backward"))
        self.tensors.append(TensorDesc(out_id, clone_id, src.shape, src.channels,
                                       src.elem_bytes, src.scope))
        self.clone_map[clone_id] = prod.id
        self.mapping[tid] = out_id
        return out_id


@gc_paused
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
    resident = kept | {n.outputs[0] for n in input_nodes(g)}  # graph inputs are never freed
    boundary = tg.boundary_position
    forward_ids = list(tg.serial_order[:boundary + 1])
    backward_ids = list(tg.serial_order[boundary + 1:])
    ix = g.index
    rows, index, tindex = ix.nodes, ix.index, ix.tensor_index

    # Segment index per forward op: a new segment starts after each
    # checkpoint-producing op. anchors[p] is the last checkpoint that
    # forward_ids[:p] produces ("" if none).
    seg_of: dict[str, int] = {}
    anchors = [""]
    seg = 0
    for nid in forward_ids:
        seg_of[nid] = seg
        outs = rows[index[nid]].outputs
        checkpoint = bool(outs) and outs[0] in kept
        seg += checkpoint
        anchors.append(outs[0] if checkpoint else anchors[-1])

    rewired: dict[str, NodeSpec] = {}  # grad id -> its row with recomputed inputs
    tensors = list(g.tensors)
    new_nodes: list[NodeSpec] = []
    segments = []
    plan = RewritePlan(mode="recompute", checkpoints=tuple(sorted(kept)))

    # Group consecutive grads by the segment of their forward op, preserving
    # global reverse order within and across groups.
    serial_backward: list[str] = []
    for s, group in groupby(backward_ids, key=lambda gid: seg_of.get(tg.grad_of.get(gid), -1)):
        grad_ids = list(group)
        segment = _Segment(s, g, resident, tensors, plan.clone_map)
        for gid in grad_ids:
            gn = rows[index[gid]]
            rewired[gid] = gn._replace(inputs=tuple(segment.resolve(t) if t in tindex else t
                                                    for t in gn.inputs))
        clones = [n.id for n in segment.clones]
        if clones:
            first_pos = min(tg.position(plan.clone_map[c]) for c in clones)
            segments.append((anchors[first_pos], tuple(plan.clone_map[c] for c in clones)))
        new_nodes += segment.clones
        serial_backward.extend(clones)
        serial_backward.extend(grad_ids)
    plan.recompute_segments = tuple(segments)

    # Clones follow the base rows in the node list; the serial order runs
    # each segment's clones right ahead of its grads.
    rewritten = _derived(g, nodes=tuple(rewired.get(n.id, n) for n in g.nodes) + tuple(new_nodes),
                         tensors=tuple(tensors), control_edges=g.control_edges)
    serial = tuple(forward_ids) + tuple(serial_backward)
    new_tg = TrainingGraph(graph=rewritten, serial_order=serial, grad_of=dict(tg.grad_of))
    return new_tg, plan


@gc_paused
def apply_rewrite(tg: TrainingGraph, cfg: RewriteConfig) -> tuple[TrainingGraph, RewritePlan]:
    """``tg`` rewritten by ``cfg``, and the plan of the rewrite. Mode "none"
    returns ``tg`` itself with a new plan. Otherwise the rewrite is looked up
    in ``tg``'s table of rewrites (``TrainingGraph.derived``), which holds
    each rewritten graph weakly, and the graph holds its plan: while a caller
    still holds the rewrite of ``cfg``, the same graph and plan come back,
    and once nobody does, the rewrite is built again. Both are shared, so
    neither is changed once returned."""
    if cfg.mode == "none":
        return tg, RewritePlan(mode="none", lb=cfg.lb)
    table = tg.derived.get("rewrites")
    if table is None:
        table = tg.derived["rewrites"] = WeakValueDictionary()
    rewritten = table.get(cfg)
    if rewritten is None:
        if cfg.mode == "swap":
            rewritten, plan = insert_swap_nodes(tg, select_swap_tensors(tg, cfg), cfg.lb)
        else:
            rewritten, plan = insert_recompute(tg, plan_checkpoints(tg, cfg))
        rewritten.derived["plan"] = plan
        table[cfg] = rewritten
    return rewritten, rewritten.derived["plan"]


@gc_paused
def check_rewrite_validity(original: TrainingGraph, rewritten: TrainingGraph,
                           plan: RewritePlan) -> list[Violation]:
    """Regression guard over a rewrite: structure, bypasses, clone fidelity."""
    out = list(validate_graph(rewritten.graph))
    g0, g1 = original.graph, rewritten.graph
    ix0, ix1 = g0.index, g1.index
    rows0, rows1, index1 = ix0.nodes, ix1.nodes, ix1.index

    def node1(nid: str):  # the rewritten graph's row, or None
        return rows1[index1[nid]] if nid in index1 else None

    for n in g0.nodes:
        if n.kind in ("swap_out", "swap_in"):
            continue
        m = node1(n.id)
        if m is None:
            out.append(Violation("missing-node", n.id, "original compute node absent"))
            continue
        if (m.kind, m.cost_units, m.phase) != (n.kind, n.cost_units, n.phase):
            out.append(Violation("node-changed", n.id, "kind/cost/phase changed by rewrite"))

    fwd0 = [nid for nid in original.serial_order if rows0[ix0.index[nid]].phase == "forward"]
    fwd1 = [nid for nid in rewritten.serial_order if rows1[index1[nid]].phase == "forward"]
    if fwd0 != fwd1:
        out.append(Violation("forward-order-changed", "serial_order",
                             "forward compute order differs from the original"))

    first_backward = original.boundary_position + 1
    control = set(g1.control_edges)
    for tid, entry in sorted(plan.swapped.items()):
        out_id, in_id, trigger = entry
        swap_out, swap_in = node1(out_id), node1(in_id)
        if swap_out is None or swap_out.kind != "swap_out":
            out.append(Violation("missing-swap-out", tid, f"no swap_out node {out_id!r}"))
            continue
        if tid not in swap_out.inputs:
            out.append(Violation("swap-out-input", tid, "swap_out does not consume the tensor"))
        if swap_in is None or swap_in.kind != "swap_in":
            out.append(Violation("missing-swap-in", tid, f"no swap_in node {in_id!r}"))
            continue
        if (out_id, in_id) not in control:
            out.append(Violation("missing-control", tid, "swap_in lacks control edge from swap_out"))
        if (trigger, in_id) not in control:
            out.append(Violation("missing-control", tid, "swap_in lacks control edge from trigger"))
        bw = [ix0.ids[c] for c in ix0.consumers[ix0.tensor_index[tid]]
              if rows0[c].phase == "backward"]
        in_tensor = swap_in.outputs[0] if swap_in.outputs else None
        for c in bw:
            cn = node1(c)
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
        cn = node1(clone)
        if cn is None:
            out.append(Violation("missing-clone", clone, "recompute clone absent"))
            continue
        on = g0.node(orig)
        if cn.kind != on.kind:
            out.append(Violation("clone-mismatch", clone,
                                 f"clone kind {cn.kind!r} != original {on.kind!r}"))
        if cn.cost_units != on.cost_units:
            out.append(Violation("clone-mismatch", clone, "clone cost differs from original"))
    return out
