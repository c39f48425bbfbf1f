"""Deterministic discrete-event simulator: one compute channel running the
serial order, plus FIFO D2H and H2D copy channels for swap transfers.

Scheduling rules:
  - a compute node starts when the channel is free, it is next in serial
    order, every data/control dependency has completed, and (under an
    enforced budget) its output allocation fits;
  - swap_out transfers become ready when the producing op completes, and the
    D2H channel serves them in (ready time, producer position) order;
  - a swap_in is issued into the H2D queue when its trigger completes, and
    the channel serves strictly in (issue time, earliest-consumer position)
    order, the head waiting for its matching swap_out if that is still in
    flight -- issue-order service with head-of-line waiting is how a real
    copy stream behaves, and it is what makes makespan monotone in lb;
  - device memory is allocated at node start (swap_in included) and a tensor
    is freed when its last consuming event completes (for a swapped tensor
    that last consumer is the swap_out).
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

from .graph import NodeSpec, GraphError, tensor_bytes
from .training import TrainingGraph

CHANNELS = ("compute", "d2h", "h2d")
_CHANNEL_PRIO = {"compute": 0, "d2h": 1, "h2d": 2}
TRACE_TIDS = {"compute": 0, "d2h": 1, "h2d": 2}


class InfeasibleError(GraphError):
    def __init__(self, tensor_id: str, nbytes: int, budget: int):
        super().__init__(f"infeasible: tensor {tensor_id!r} needs {nbytes} bytes, "
                         f"which can never fit in the {budget}-byte budget")
        self.tensor_id = tensor_id


class DeadlockError(GraphError):
    def __init__(self, waiting: list[str], detail: str):
        super().__init__(f"simulation deadlock; waiting nodes: {waiting}; {detail}")
        self.waiting = waiting


@dataclass
class SimConfig:
    compute_rate: float = 1e12     # cost units per second
    d2h_bw: float = 40e9           # bytes per second
    h2d_bw: float = 40e9
    xfer_latency: float = 0.0      # seconds per transfer
    gpu_budget: int = 0            # bytes; 0 = unlimited
    static_bytes: int = 0
    enforce_budget: bool = False

    def validate(self) -> None:
        if self.compute_rate <= 0 or self.d2h_bw <= 0 or self.h2d_bw <= 0:
            raise GraphError("compute_rate and bandwidths must be positive")
        if self.xfer_latency < 0:
            raise GraphError("xfer_latency must be >= 0")


def op_cost(n: NodeSpec, cfg: SimConfig) -> float:
    """Seconds on the compute channel; io nodes are charged on copy channels."""
    if n.kind in ("swap_out", "swap_in"):
        return 0.0
    return n.cost_units / cfg.compute_rate


def xfer_cost(nbytes: int, bw: float, latency: float = 0.0) -> float:
    if bw <= 0:
        raise GraphError("bandwidth must be positive")
    return latency + nbytes / bw


@dataclass
class SimReport:
    makespan: float
    events: list          # (node id, channel, start, end)
    peak_resident: int
    stalls: list          # (waiting node, blocking node or "budget", duration)
    busy: dict            # channel -> busy fraction
    phases: dict          # node id -> phase, for stall partitioning

    def to_obj(self) -> dict:
        return {
            "version": 1,
            "makespan": self.makespan,
            "peak_resident": self.peak_resident,
            "events": [[n, c, s, e] for n, c, s, e in self.events],
            "stalls": [[n, b, d] for n, b, d in self.stalls],
            "busy": {k: self.busy[k] for k in sorted(self.busy)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"


def peak_from_deltas(deltas) -> int:
    """Peak of a resident-bytes trace, sampled between timestamps: deltas at
    one instant are netted first, so zero-duration residency never registers
    (tensors live over the half-open interval [alloc, free))."""
    per_time: dict[float, int] = {}
    for when, delta in deltas:
        per_time[when] = per_time.get(when, 0) + delta
    peak = 0
    cur = 0
    for when in sorted(per_time):
        cur += per_time[when]
        peak = max(peak, cur)
    return peak


def simulate(tg: TrainingGraph, plan=None, cfg: SimConfig | None = None) -> SimReport:
    cfg = cfg or SimConfig()
    cfg.validate()
    g = tg.graph

    if cfg.enforce_budget and cfg.gpu_budget > 0:
        for t in g.tensors:
            nbytes = tensor_bytes(t)
            if cfg.static_bytes + nbytes > cfg.gpu_budget:
                raise InfeasibleError(t.id, nbytes, cfg.gpu_budget)

    # Dependency bookkeeping over data + control edges. For swap_in nodes the
    # trigger dependencies (issue) are tracked separately from the swap_out
    # dependency (data availability).
    pending: dict[str, int] = {n.id: 0 for n in g.nodes}
    succ: dict[str, list[str]] = {n.id: [] for n in g.nodes}
    for a, b in g.edges():
        pending[b] += 1
        succ[a].append(b)
    latest_dep: dict[str, tuple[float, str]] = {}  # node -> (end, dep id)
    issue_pending: dict[str, int] = {n.id: 0 for n in g.nodes if n.kind == "swap_in"}
    for a, b in g.edges():
        if b in issue_pending and g.node(a).kind != "swap_out":
            issue_pending[b] += 1

    refcount = {t.id: len(g.consumers(t.id)) for t in g.tensors}
    tensor_size = {t.id: tensor_bytes(t) for t in g.tensors}
    serial = list(tg.serial_order)
    swap_nodes = [n for n in g.nodes if n.kind in ("swap_out", "swap_in")]

    # Earliest backward consumer position per swap_in, for the H2D queue key.
    in_consumer_pos: dict[str, int] = {}
    out_producer_pos: dict[str, int] = {}
    positions = tg.positions
    for n in swap_nodes:
        if n.kind == "swap_in":
            cons = [positions[c] for t in n.outputs for c in g.consumers(t)
                    if c in positions]
            in_consumer_pos[n.id] = min(cons) if cons else 0
        else:
            out_producer_pos[n.id] = positions.get(g.tensor(n.inputs[0]).producer, 0)

    resident = 0
    mem_deltas: list[tuple[float, int]] = []
    completed: set[str] = set()
    events: list[tuple[str, str, float, float]] = []
    stalls: list[tuple[str, str, float]] = []

    heap: list[tuple[float, int, str, str]] = []  # (end, channel prio, node, channel)
    d2h_queue: list[tuple[float, int, str]] = []
    h2d_queue: list[tuple[float, int, str]] = []
    channel_free = {"compute": True, "d2h": True, "h2d": True}
    busy_time = {"compute": 0.0, "d2h": 0.0, "h2d": 0.0}
    compute_idx = 0
    last_compute_end = 0.0
    budget_blocked = False
    now = 0.0

    def fits(extra: int) -> bool:
        if not cfg.enforce_budget or cfg.gpu_budget <= 0:
            return True
        return cfg.static_bytes + resident + extra <= cfg.gpu_budget

    def allocate(tids, when: float):
        nonlocal resident
        for tid in tids:
            resident += tensor_size[tid]
            mem_deltas.append((when, tensor_size[tid]))

    def release(tid: str, when: float):
        nonlocal resident
        resident -= tensor_size[tid]
        mem_deltas.append((when, -tensor_size[tid]))

    def finish_outputs(node: NodeSpec, when: float):
        # Outputs nobody consumes are transient; drop them at completion.
        for tid in node.outputs:
            if refcount[tid] == 0:
                release(tid, when)

    def consume_inputs(node: NodeSpec, when: float):
        for tid in node.inputs:
            refcount[tid] -= 1
            if refcount[tid] == 0:
                release(tid, when)

    def start(node_id: str, channel: str, start_t: float, dur: float):
        nonlocal last_compute_end
        heapq.heappush(heap, (start_t + dur, _CHANNEL_PRIO[channel], node_id, channel))
        channel_free[channel] = False
        busy_time[channel] += dur
        events.append((node_id, channel, start_t, start_t + dur))

    def try_start(when: float) -> bool:
        nonlocal compute_idx, budget_blocked, last_compute_end
        progressed = False
        # Compute channel: strictly the next node in serial order.
        if channel_free["compute"] and compute_idx < len(serial):
            nid = serial[compute_idx]
            node = g.node(nid)
            if pending[nid] == 0:
                need = sum(tensor_size[t] for t in node.outputs)
                if fits(need):
                    if when > last_compute_end:
                        blocking = "budget" if budget_blocked else \
                            latest_dep.get(nid, (0.0, ""))[1]
                        stalls.append((nid, blocking, when - last_compute_end))
                    allocate(node.outputs, when)
                    start(nid, "compute", when, op_cost(node, cfg))
                    compute_idx += 1
                    budget_blocked = False
                    progressed = True
                else:
                    budget_blocked = True
        if channel_free["d2h"] and d2h_queue:
            ready, _, nid = d2h_queue[0]
            if ready <= when:
                heapq.heappop(d2h_queue)
                node = g.node(nid)
                nbytes = tensor_size[node.inputs[0]]
                start(nid, "d2h", when, xfer_cost(nbytes, cfg.d2h_bw, cfg.xfer_latency))
                progressed = True
        if channel_free["h2d"] and h2d_queue:
            _, _, nid = h2d_queue[0]
            # Issue-order service: the head may still wait on its swap_out.
            if pending[nid] == 0:
                node = g.node(nid)
                need = sum(tensor_size[t] for t in node.outputs)
                if fits(need):
                    heapq.heappop(h2d_queue)
                    allocate(node.outputs, when)
                    start(nid, "h2d", when, xfer_cost(need, cfg.h2d_bw, cfg.xfer_latency))
                    progressed = True
                else:
                    budget_blocked = True
        return progressed

    # Seed transfers whose enqueue conditions are vacuously satisfied.
    for n in swap_nodes:
        if n.kind == "swap_out" and pending[n.id] == 0:
            heapq.heappush(d2h_queue, (0.0, out_producer_pos[n.id], n.id))
        elif n.kind == "swap_in" and issue_pending[n.id] == 0:
            heapq.heappush(h2d_queue, (0.0, in_consumer_pos[n.id], n.id))

    while try_start(now):
        pass
    total = len(g.nodes)
    while len(completed) < total:
        if not heap:
            waiting = sorted(set(serial[compute_idx:compute_idx + 1])
                             | {nid for _, _, nid in d2h_queue}
                             | {nid for _, _, nid in h2d_queue})
            detail = "budget wait with nothing in flight to free" if budget_blocked \
                else "unsatisfiable dependencies"
            raise DeadlockError(waiting, detail)
        # Drain every completion at this timestamp before starting new work,
        # so frees at time T are visible to allocations at time T.
        now = heap[0][0]
        while heap and heap[0][0] == now:
            end, _, nid, channel = heapq.heappop(heap)
            node = g.node(nid)
            completed.add(nid)
            channel_free[channel] = True
            if channel == "compute":
                last_compute_end = end
            consume_inputs(node, end)
            finish_outputs(node, end)
            for m in sorted(succ[nid]):
                pending[m] -= 1
                prev = latest_dep.get(m)
                if prev is None or (end, nid) > prev:
                    latest_dep[m] = (end, nid)
                kind_m = g.node(m).kind
                if kind_m == "swap_out" and pending[m] == 0:
                    heapq.heappush(d2h_queue, (end, out_producer_pos[m], m))
                elif kind_m == "swap_in" and node.kind != "swap_out":
                    issue_pending[m] -= 1
                    if issue_pending[m] == 0:
                        heapq.heappush(h2d_queue, (end, in_consumer_pos[m], m))
        while try_start(now):
            pass

    makespan = max((e for _, _, _, e in events), default=0.0)
    events.sort(key=lambda ev: (ev[2], _CHANNEL_PRIO[ev[1]], ev[0]))
    busy = {ch: (busy_time[ch] / makespan if makespan > 0 else 0.0) for ch in CHANNELS}
    return SimReport(
        makespan=makespan, events=events,
        peak_resident=peak_from_deltas(mem_deltas) + cfg.static_bytes,
        stalls=stalls, busy=busy,
        phases={n.id: n.phase for n in g.nodes},
    )


def stall_report(r: SimReport) -> dict[str, float]:
    """Idle gaps on the compute channel, split by the phase of the next
    compute node: forward, boundary (the first backward node), backward."""
    first_backward = None
    for nid, channel, _, _ in r.events:
        if channel == "compute" and r.phases.get(nid) == "backward":
            first_backward = nid
            break
    out = {"forward": 0.0, "boundary": 0.0, "backward": 0.0}
    for nid, _, duration in r.stalls:
        phase = r.phases.get(nid, "forward")
        if nid == first_backward:
            out["boundary"] += duration
        elif phase == "backward":
            out["backward"] += duration
        else:
            out["forward"] += duration
    return out


def emit_trace(r: SimReport, path) -> None:
    """Chrome trace event format: one complete ("X") event per sim event,
    one tid per channel, timestamps in microseconds."""
    trace = [
        {
            "name": nid, "ph": "X",
            "ts": start * 1e6, "dur": (end - start) * 1e6,
            "pid": 0, "tid": TRACE_TIDS[channel],
        }
        for nid, channel, start, end in r.events
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(trace, sort_keys=True, indent=2) + "\n")


def epoch_time(iter_seconds: float, iterations: int, host_preproc_seconds: float = 0.0) -> float:
    """Epoch wall time: host preprocessing pipelines with device compute, so
    each iteration costs the larger of the two."""
    if iterations < 1:
        raise GraphError(f"iterations must be >= 1, got {iterations}")
    return iterations * max(iter_seconds, host_preproc_seconds)


def sweep(tg: TrainingGraph, rewrite_cfgs, sim_cfgs) -> list[dict]:
    """One summary row per (rewrite config, sim config) cell, sorted by
    (n_tensors, lb, mode, bandwidths). Infeasible cells report their error
    in-row; the sweep continues."""
    from .rewrite import apply_rewrite

    rewrite_cfgs = list(rewrite_cfgs)
    sim_cfgs = list(sim_cfgs)
    if not rewrite_cfgs or not sim_cfgs:
        raise GraphError("sweep grid is empty")
    rows = []
    for rcfg in rewrite_cfgs:
        rewritten, plan = apply_rewrite(tg, rcfg)
        for scfg in sim_cfgs:
            key = (rcfg.n_tensors, rcfg.lb, rcfg.mode, scfg.d2h_bw, scfg.h2d_bw)
            row = {
                "n_tensors": rcfg.n_tensors, "lb": rcfg.lb, "mode": rcfg.mode,
                "d2h_bw": scfg.d2h_bw, "h2d_bw": scfg.h2d_bw,
                "swapped": len(plan.swapped),
            }
            try:
                rep = simulate(rewritten, plan, scfg)
                srep = stall_report(rep)
                row.update(makespan=rep.makespan, peak_resident=rep.peak_resident,
                           boundary_stall=srep["boundary"],
                           backward_stall=srep["backward"], error="")
            except GraphError as exc:
                row.update(makespan=None, peak_resident=None,
                           boundary_stall=None, backward_stall=None, error=str(exc))
            rows.append((key, row))
    rows.sort(key=lambda kr: kr[0])
    return [row for _, row in rows]


def calibrate_compute_rate(tg: TrainingGraph, plan, cfg: SimConfig,
                           target_makespan: float, tol: float = 1e-3) -> float:
    """Binary-search the compute_rate that puts the simulated makespan at the
    target; makespan is monotone non-increasing in compute_rate."""
    if target_makespan <= 0:
        raise GraphError("target makespan must be positive")

    def run(rate: float) -> float:
        c = SimConfig(compute_rate=rate, d2h_bw=cfg.d2h_bw, h2d_bw=cfg.h2d_bw,
                      xfer_latency=cfg.xfer_latency, gpu_budget=cfg.gpu_budget,
                      static_bytes=cfg.static_bytes, enforce_budget=cfg.enforce_budget)
        return simulate(tg, plan, c).makespan

    lo, hi = 1.0, 1.0
    while run(hi) > target_makespan:
        hi *= 4.0
        if hi > 1e30:
            raise GraphError("target makespan unreachable: transfers alone exceed it")
    while run(lo) < target_makespan:
        lo /= 4.0
        if lo < 1e-30:
            raise GraphError("target makespan unreachable at any compute rate")
    for _ in range(80):
        mid = (lo * hi) ** 0.5
        if run(mid) > target_makespan:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + tol:
            break
    return (lo * hi) ** 0.5
