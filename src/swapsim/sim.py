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
    that last consumer is the swap_out);
  - the peak is sampled once per instant, after that instant's frees and
    allocations, so a tensor alive for zero time never registers (tensors
    live over the half-open interval [alloc, free));
  - the model's static bytes (``TrainingGraph.static_bytes``) are resident
    throughout; ``SimConfig`` describes only the machine, and its field
    annotations are its value rules, checked when it is built.

The event loop (``_run``) keeps times, not reports: each node's start and
end, the compute stalls (node, gap, whether the budget held that node), the
busy seconds per channel, the peak and the makespan. ``_report`` builds the
``SimReport`` from them after the run: it sorts the events and names each
stall's blocker from the end times and the node's dependencies. The stall
seconds by phase are summed once per run, from the raw stalls
(``_stall_phases``), for the report and for a ``sweep`` row alike.
``calibrate_compute_rate`` reads only the makespan and ``sweep`` only the
makespan, the peak and the phases, so neither builds a report.

Each run works on a compiled view (``_CompiledGraph``) of a graph that keeps
every rule (else its first violation is raised, as ``checked_index`` does).
The view holds the simulator's own columns (channel, cost, tensor indices,
allocated bytes, dependency counts, copy-queue keys, a compute node's
control sources) over the graph's shared index, with its node numbers.
Ties in the copy queues, among a stall's latest dependencies and among
events break on (time, channel priority, node id), comparing the id
strings, so they break the same however the nodes are numbered. Every
view is built from the graph's index (``_CompiledGraph``), whether the
index was built from the rows or a swap rewrite derived it from its base's,
and a training graph keeps its view once one is built
(``TrainingGraph.derived``). A run that deadlocks with no budget wait to
explain it raises a cycle in the graph's edges, if there is one, in
``validate_graph``'s words.

In free-run mode calibration runs a few interpolated probes and answers the
bisection's comparisons from the bounds they set, since makespan does not
rise with the compute rate; under an enforced budget it runs every probe.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import astuple, dataclass, field, fields
from functools import partial
from itertools import compress
from operator import is_not, itemgetter

from .graph import (Count, GraphError, NodeSpec, Positive, Size, check_fields, checked_index,
                    dumps_canonical, gc_paused, validate_graph)
from .training import TrainingGraph, check_plan

CHANNELS = ("compute", "d2h", "h2d")
# Node kind -> index into CHANNELS, which is also the channel's tie-break
# priority; every other kind runs on compute (0).
_KIND_CHANNEL = {"swap_out": 1, "swap_in": 2}
CALIBRATION_TOL = 1e-3  # relative width of the final compute_rate bracket
_GUESSES = 6  # interpolated calibration probes, at most
_STEP = 1 + CALIBRATION_TOL / 64  # how far past its estimate each one lands
_TOP_RATE = 4.0 ** 49  # the calibration bracket's last rate


class InfeasibleError(GraphError):
    def __init__(self, tensor_id: str, nbytes: int, budget: int):
        super().__init__(f"infeasible: tensor {tensor_id!r} needs {nbytes} bytes, "
                         f"which can never fit in the {budget}-byte budget")
        self.tensor_id = tensor_id


class DeadlockError(GraphError):
    def __init__(self, waiting: list[str], detail: str):
        super().__init__(f"simulation deadlock; waiting nodes: {waiting}; {detail}")
        self.waiting = waiting


@dataclass(frozen=True)
class SimConfig:
    compute_rate: Positive = 1e12  # cost units per second
    d2h_bw: Positive = 40e9        # bytes per second
    h2d_bw: Positive = 40e9
    xfer_latency: float = 0.0      # seconds per transfer
    gpu_budget: Size = 0           # bytes; 0 = unlimited
    enforce_budget: bool = False

    def __post_init__(self):
        check_fields(SimConfig, vars(self))

    @property
    def limited(self) -> bool:
        """Whether a run holds to the budget: it is enforced, and not 0."""
        return self.enforce_budget and self.gpu_budget > 0


def op_cost(n: NodeSpec, cfg: SimConfig) -> float:
    """Seconds on the compute channel; io nodes, which the graph's row rules
    hold to cost 0, are charged on copy channels."""
    return n.cost_units / cfg.compute_rate


def xfer_cost(nbytes: Size, bw: Positive, latency: float = 0.0) -> float:
    check_fields(xfer_cost, locals())
    return latency + nbytes / bw


@dataclass
class SimReport:
    makespan: float
    events: list          # (node id, channel, start, end)
    peak_resident: int
    stalls: list          # (waiting node, blocking node or "budget", duration)
    busy: dict            # channel -> busy fraction
    phases: dict = field(compare=False, repr=False)  # stall seconds by phase (stall_report)

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
        return dumps_canonical(self.to_obj())


class _CompiledGraph:
    """The simulator's columns over a graph's index, built from the index
    for every graph and reused for every run on it, with the index's node
    numbers. Queue, stall-blocker and event ties break on the node ids,
    which follow the numbers only in a graph built from its rows. No rule
    is checked here."""

    __slots__ = ("graph", "static_bytes", "ids", "channel", "cost_units", "inputs", "outputs",
                 "out_bytes", "succ", "pending", "issue_pending", "tensor_size", "refcount",
                 "serial", "position", "queue_key", "d2h_seed", "h2d_seed", "control_src")

    def __init__(self, tg: TrainingGraph):
        g = tg.graph
        ix = g.index
        ids, rows, index = ix.ids, ix.nodes, ix.index
        consumers, producer, n = ix.consumers, ix.producer, len(rows)
        self.graph, self.static_bytes, self.ids = g, tg.static_bytes, ids
        self.channel = chan = [_KIND_CHANNEL.get(r.kind, 0) for r in rows]
        self.cost_units = list(map(itemgetter(4), rows))  # 0 on io nodes
        self.serial = serial = list(map(index.__getitem__, tg.serial_order))
        self.position = position = [None] * n
        for p, i in enumerate(serial):
            position[i] = p
        self.tensor_size = size = ix.tensor_bytes
        # Per node, the tensors it reads and writes, one entry per data edge,
        # in tensor order, the bytes it allocates and its data successors
        # (its outputs' readers, in tensor order).
        self.inputs = inputs = [()] * n
        self.outputs = outputs = [()] * n
        self.out_bytes = out_bytes = [0] * n
        self.succ = succ = [()] * n
        for k, (p, readers) in enumerate(zip(producer, consumers)):
            outputs[p] += (k,)
            out_bytes[p] += size[k]
            succ[p] += readers
            for c in readers:
                inputs[c] += (k,)
        self.refcount = list(map(len, consumers))
        self.pending = pending = list(map(len, inputs))
        self.issue_pending = issue = [0] * n
        # Then each node's control successors, in edge order, and a compute
        # node's control sources, for its stalls' blockers. A swap_in, which
        # reads no tensor, is issued by its control edges from other nodes
        # than swap_outs.
        self.control_src = sources = {}
        for a, b in g.control_edges:
            ia, ib = index[a], index[b]
            succ[ia] += (ib,)
            pending[ib] += 1
            if chan[ib] == 0:
                sources[ib] = sources.get(ib, ()) + (ia,)
            elif chan[ib] == 2 and chan[ia] != 1:
                issue[ib] += 1

        # Queue keys of the io nodes: a swap_out's producer position, a
        # swap_in's earliest reader position (0 when there is none). Those
        # whose enqueue conditions hold from the start are the seeds, kept
        # sorted, so heaps.
        self.queue_key = key = [0] * n
        self.d2h_seed, self.h2d_seed = d2h, h2d = [], []
        not_none = partial(is_not, None)
        for i in compress(range(n), chan):
            if chan[i] == 2:
                readers = consumers[outputs[i][0]]
                key[i] = min(filter(not_none, map(position.__getitem__, readers)), default=0)
                if issue[i] == 0:
                    h2d.append((0.0, key[i], ids[i], i))
            else:
                key[i] = position[producer[inputs[i][0]]] or 0
                if pending[i] == 0:
                    d2h.append((0.0, key[i], ids[i], i))
        d2h.sort()
        h2d.sort()


def _view(tg: TrainingGraph) -> _CompiledGraph:
    """``tg``'s compiled view, built once ``tg``'s graph keeps every rule
    (``checked_index``), and kept by ``tg`` once built."""
    view = tg.derived.get("compiled_view")
    if view is None:
        checked_index(tg.graph)
        view = tg.derived["compiled_view"] = _CompiledGraph(tg)
    return view


def _check_feasible(v: _CompiledGraph, cfg: SimConfig) -> None:
    """Under an enforced budget, raise InfeasibleError for the first tensor
    that can never fit beside the static bytes. The answer depends on the
    view and the budget only, so it is checked once per run (``_report``, a
    sweep cell) or calibration, not per probe."""
    if cfg.limited:
        static, budget = v.static_bytes, cfg.gpu_budget
        for t, nbytes in zip(v.graph.tensors, v.tensor_size):
            if static + nbytes > budget:
                raise InfeasibleError(t.id, nbytes, budget)


def _run(v: _CompiledGraph, cfg: SimConfig, rate: float):
    """Run the event loop on a compiled view at compute ``rate`` (the other
    settings from ``cfg``), keeping only times. Returns the makespan (the
    clock at the last completion), each node's start and end (lists by
    node number), the peak resident bytes (static bytes excluded), the
    compute stalls as (node, gap, whether the node failed its own budget
    check during the gap) and the busy seconds per channel, summed in start
    order. ``_report`` builds the report from these after the run.
    The caller has checked that every tensor can fit (``_check_feasible``)."""
    limited = cfg.limited
    static, budget = v.static_bytes, cfg.gpu_budget
    d2h_bw, h2d_bw, latency = cfg.d2h_bw, cfg.h2d_bw, cfg.xfer_latency

    ids, chan, cost, succ = v.ids, v.channel, v.cost_units, v.succ
    inputs, outputs, size = v.inputs, v.outputs, v.tensor_size
    out_bytes, key, serial = v.out_bytes, v.queue_key, v.serial
    pending = v.pending[:]
    issue_pending = v.issue_pending[:]
    refcount = v.refcount[:]
    d2h_queue = v.d2h_seed[:]
    h2d_queue = v.h2d_seed[:]
    heap: list[tuple[float, int, int]] = []  # (end, channel, node)
    heappush, heappop = heapq.heappush, heapq.heappop

    n_serial, n_nodes = len(serial), len(ids)
    start, finish = [0.0] * n_nodes, [0.0] * n_nodes
    stalls: list[tuple[int, float, bool]] = []
    resident = 0
    peak = 0
    free = [True, True, True]
    busy = [0.0, 0.0, 0.0]
    compute_idx = 0
    last_compute_end = 0.0
    # Whether the budget held the next compute node itself (for its stall),
    # and whether it held any channel (for a deadlock's detail), since the
    # last compute start.
    held = budget_blocked = False
    done = 0
    now = 0.0
    while True:
        # Start what can start at `now`. One pass is enough: starting work
        # on one channel frees no other channel and no bytes.
        # Compute channel: strictly the next node in serial order.
        if free[0] and compute_idx < n_serial:
            i = serial[compute_idx]
            if pending[i] == 0:
                if not limited or static + resident + out_bytes[i] <= budget:
                    if now > last_compute_end:
                        stalls.append((i, now - last_compute_end, held))
                    resident += out_bytes[i]
                    dur = cost[i] / rate
                    start[i] = now
                    end = finish[i] = now + dur
                    heappush(heap, (end, 0, i))
                    free[0] = False
                    busy[0] += dur
                    compute_idx += 1
                    held = budget_blocked = False
                else:
                    held = budget_blocked = True
        if free[1] and d2h_queue and d2h_queue[0][0] <= now:
            i = heappop(d2h_queue)[3]
            dur = latency + size[inputs[i][0]] / d2h_bw
            start[i] = now
            end = finish[i] = now + dur
            heappush(heap, (end, 1, i))
            free[1] = False
            busy[1] += dur
        if free[2] and h2d_queue:
            i = h2d_queue[0][3]
            # Issue-order service: the head may still wait on its swap_out.
            if pending[i] == 0:
                need = out_bytes[i]
                if not limited or static + resident + need <= budget:
                    heappop(h2d_queue)
                    resident += need
                    dur = latency + need / h2d_bw
                    start[i] = now
                    end = finish[i] = now + dur
                    heappush(heap, (end, 2, i))
                    free[2] = False
                    busy[2] += dur
                else:
                    budget_blocked = True
        if done == n_nodes:
            break
        if not heap:
            # A view's graph keeps every rule but acyclicity, so a deadlock that no
            # budget wait explains is checked for a cycle, and only such a one.
            violations = [] if budget_blocked else validate_graph(v.graph)
            if violations:
                raise GraphError(str(violations[0]))
            waiting = sorted(set(serial[compute_idx:compute_idx + 1])
                             | {e[3] for e in d2h_queue} | {e[3] for e in h2d_queue},
                             key=ids.__getitem__)
            detail = "budget wait with nothing in flight to free" if budget_blocked \
                else "unsatisfiable dependencies"
            raise DeadlockError([ids[i] for i in waiting], detail)
        # Every free and allocation at `now` is done once the clock moves on.
        if heap[0][0] != now and resident > peak:
            peak = resident
        # Drain every completion at this timestamp before starting new work,
        # so frees at time T are visible to allocations at time T.
        now = heap[0][0]
        while heap and heap[0][0] == now:
            end, channel, i = heappop(heap)
            done += 1
            free[channel] = True
            if channel == 0:
                last_compute_end = end
            for k in inputs[i]:
                refcount[k] -= 1
                if refcount[k] == 0:
                    resident -= size[k]
            # Outputs nobody consumes are transient; drop them at completion.
            for k in outputs[i]:
                if refcount[k] == 0:
                    resident -= size[k]
            from_swap_out = chan[i] == 1
            for m in succ[i]:
                pending[m] -= 1
                if chan[m] == 1:
                    if pending[m] == 0:
                        heappush(d2h_queue, (end, key[m], ids[m], m))
                elif chan[m] == 2 and not from_swap_out:
                    issue_pending[m] -= 1
                    if issue_pending[m] == 0:
                        heappush(h2d_queue, (end, key[m], ids[m], m))

    return now, start, finish, max(peak, resident), stalls, busy


def _report(v: _CompiledGraph, cfg: SimConfig) -> SimReport:
    """Run ``v`` at ``cfg`` and assemble the report from the recorded times:
    the events in (start, channel priority, node id) order; each stall's
    blocker, ``"budget"`` when the budget held the node, else its data or
    control dependency with the largest (end, id), else ``""``; and the
    busy seconds over the makespan."""
    _check_feasible(v, cfg)
    makespan, start, end, peak, raw_stalls, busy_time = _run(v, cfg, cfg.compute_rate)
    ids, chan, inputs, control_src = v.ids, v.channel, v.inputs, v.control_src
    producer = v.graph.index.producer
    # (start, channel, id) are all distinct. Sorting on the start alone
    # first, by float comparisons, leaves the full sort only the ties.
    events = list(zip(start, chan, ids, end))
    events.sort(key=itemgetter(0))
    events.sort()
    stalls = []
    for i, gap, blocked in raw_stalls:
        if blocked:
            stalls.append((ids[i], "budget", gap))
            continue
        # (end, id) of the latest dependency, "" if none; two plain loops
        # cost less per stall than chaining the data and control sources.
        latest = (0.0, "")
        for k in inputs[i]:
            dep = (end[producer[k]], ids[producer[k]])
            if dep > latest:
                latest = dep
        for d in control_src.get(i, ()):
            dep = (end[d], ids[d])
            if dep > latest:
                latest = dep
        stalls.append((ids[i], latest[1], gap))
    return SimReport(
        makespan=makespan,
        events=[(nid, CHANNELS[c], s, e) for s, c, nid, e in events],
        peak_resident=peak + v.static_bytes,
        stalls=stalls,
        busy={ch: (busy_time[c] / makespan if makespan > 0 else 0.0)
              for c, ch in enumerate(CHANNELS)},
        phases=_stall_phases(v, raw_stalls),
    )


def _stall_phases(v: _CompiledGraph, stalls) -> dict[str, float]:
    """A run's compute stalls (``_run``'s (node, gap, held) list) summed by
    the phase of the node that waited: forward, boundary (the first backward
    node in serial order) or backward."""
    rows = v.graph.index.nodes
    boundary = next((i for i in v.serial if rows[i].phase == "backward"), None)
    out = {"forward": 0.0, "boundary": 0.0, "backward": 0.0}
    for i, gap, _ in stalls:
        if i == boundary:
            out["boundary"] += gap
        elif rows[i].phase == "backward":
            out["backward"] += gap
        else:
            out["forward"] += gap
    return out


@gc_paused
def simulate(tg: TrainingGraph, plan=None, cfg: SimConfig | None = None) -> SimReport:
    """Simulate one iteration of ``tg``. ``plan``, when given, must be the
    plan that produced ``tg``: every node and tensor it names has to exist
    (``check_plan``)."""
    cfg = cfg or SimConfig()
    check_plan(tg.graph, plan)
    return _report(_view(tg), cfg)


def stall_report(r: SimReport) -> dict[str, float]:
    """Idle gaps on the compute channel, split by the phase of the compute
    node that waited: forward, boundary (the first backward node in serial
    order), backward."""
    return dict(r.phases)


def emit_trace(r: SimReport, path) -> None:
    """Chrome trace event format: one complete ("X") event per sim event,
    one tid per channel (its index in CHANNELS), timestamps in microseconds."""
    trace = [
        {
            "name": nid, "ph": "X",
            "ts": start * 1e6, "dur": (end - start) * 1e6,
            "pid": 0, "tid": CHANNELS.index(channel),
        }
        for nid, channel, start, end in r.events
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(trace))


def epoch_time(iter_seconds: float, iterations: Count, host_preproc_seconds: float = 0.0) -> float:
    """Epoch wall time: host preprocessing pipelines with device compute, so
    each iteration costs the larger of the two."""
    check_fields(epoch_time, locals())
    return iterations * max(iter_seconds, host_preproc_seconds)


@gc_paused
def sweep(tg: TrainingGraph, rewrite_cfgs, sim_cfgs) -> list[dict]:
    """One summary row per (rewrite config, sim config) cell, keyed and
    sorted by every ``RewriteConfig`` field, in field order, then the
    bandwidths; the tuple fields are lists. A rewrite config that raises
    reports its error in each of its rows, with ``swapped`` and the results
    null; a cell that is infeasible or deadlocks reports its error in its
    row, with the results null; either way the sweep goes on with the grid.
    A cell is one run (``_run``), whose makespan, peak and stall phases
    (``_stall_phases``) make its row; no report is built. Each rewrite
    keeps its view once built (``_view``), so one view serves all its sim
    configs."""
    from .rewrite import RewriteConfig, apply_rewrite

    names = [f.name for f in fields(RewriteConfig)]
    rewrite_cfgs = list(rewrite_cfgs)
    sim_cfgs = list(sim_cfgs)
    if not rewrite_cfgs or not sim_cfgs:
        raise GraphError("sweep grid is empty")
    rows = []
    for rcfg in rewrite_cfgs:
        try:
            rewritten, plan = apply_rewrite(tg, rcfg)
            swapped, error = len(plan.swapped), ""
        except GraphError as exc:
            swapped, error = None, str(exc)
        for scfg in sim_cfgs:
            row = {k: list(v) if type(v) is tuple else v for k, v in zip(names, astuple(rcfg))}
            row |= {
                "d2h_bw": scfg.d2h_bw, "h2d_bw": scfg.h2d_bw, "swapped": swapped,
                "makespan": None, "peak_resident": None,
                "boundary_stall": None, "backward_stall": None, "error": error,
            }
            if swapped is not None:
                try:
                    view = _view(rewritten)
                    _check_feasible(view, scfg)
                    makespan, _, _, peak, stalls, _ = _run(view, scfg, scfg.compute_rate)
                    phases = _stall_phases(view, stalls)
                    row.update(makespan=makespan, peak_resident=peak + view.static_bytes,
                               boundary_stall=phases["boundary"], backward_stall=phases["backward"])
                except GraphError as exc:
                    row["error"] = str(exc)
            rows.append(row)
    rows.sort(key=itemgetter(*names, "d2h_bw", "h2d_bw"))
    return rows


@gc_paused
def calibrate_compute_rate(tg: TrainingGraph, plan, cfg: SimConfig,
                           target_makespan: Positive) -> float:
    """Binary-search the compute_rate that puts the simulated makespan at the
    target, to within CALIBRATION_TOL: a bracket of powers of 4 around 1.0,
    then bisection in log-rate; the bisection alone defines the returned
    rate. The graph keeps its view once built (``_view``), so the probes
    and any later run of it share one. Each run passes its rate straight to
    the event loop (``_run``), with ``cfg`` for the other settings, and
    reads only the makespan: no config and no report is built per run.

    Under an enforced budget every comparison of the bisection runs its
    rate: makespan need not fall as the rate rises there, and a
    DeadlockError has to be raised at the probe that meets it.

    Without one, makespan is non-increasing in compute_rate, so one run
    answers for every rate on its side of the target. Three bounds hold
    what the runs showed: the largest rate known to run longer than the
    target (at first, the largest whose compute time alone does), and the
    smallest known to run within it and shorter than it (the bracket's
    lower end tests "shorter", the bisection "longer"). A comparison they
    answer is not run. The first one they cannot answer is preceded by a
    few interpolated probes: at compute_units / target, then secant steps
    in 1/rate through the last two runs (makespan = compute_units / rate +
    overhead), each stepped just past its estimate so that the next lands
    on the other side of the target, until the unknown band is narrower
    than CALIBRATION_TOL / 16 or _GUESSES runs are made; a secant that meets
    the target at no finite rate before any run has come in within it makes
    the next probe the bracket's last rate, whose one run answers every
    bracket comparison below it. After them only a rate strictly inside
    the band runs. The returned rate, and any error, are those of running
    every probe; calibrating the 192^3 U-Net's paper-c1 asks about 39
    rates and runs 4."""
    check_fields(calibrate_compute_rate, {"target_makespan": target_makespan})
    check_plan(tg.graph, plan)
    view = _view(tg)
    # An InfeasibleError, which no rate changes, is raised before any probe.
    _check_feasible(view, cfg)
    target = target_makespan
    compute_units = math.fsum(view.cost_units)
    free_run = not cfg.limited
    # Every rate <= slow runs longer than the target, every rate >= at_most
    # within it and every rate >= below shorter. The compute channel runs
    # one node at a time, so no run is shorter than compute_units / rate;
    # summing n durations in floats loses at most about n * 2**-53 of that,
    # far inside the 1e-9 margin of the first bound.
    slow, at_most, below = compute_units / (target * (1 + 1e-9)), math.inf, math.inf
    guessed = False

    def probe(rate: float) -> float:
        nonlocal slow, at_most, below
        makespan = _run(view, cfg, rate)[0]
        if makespan > target:
            slow = max(slow, rate)
        else:
            at_most = min(at_most, rate)
            if makespan < target:
                below = min(below, rate)
        return makespan

    def guess() -> None:
        nonlocal guessed
        guessed = True
        rate, slope, last = compute_units / target, compute_units, None
        for _ in range(_GUESSES):
            if not slow < rate < at_most or at_most < slow * (1 + CALIBRATION_TOL / 16):
                return
            x, makespan = 1 / rate, probe(rate)
            if last is not None:
                slope = (makespan - last[1]) / (x - last[0])
            if not slope > 0:
                return
            last, x = (x, makespan), x + (target - makespan) / slope
            rate = 1 / x if x > 0 else 0.0  # 0.0: the line meets the target at no finite rate
            rate = rate * _STEP if makespan > target else rate / _STEP
            if not rate and at_most == math.inf:  # no run has come in within the target:
                rate = _TOP_RATE  # one run answers every comparison of the bracket below it
            if not slow < rate < at_most:
                rate = (slow * at_most) ** 0.5

    def answer(rate: float, short: bool) -> bool:
        """Whether the makespan at ``rate`` falls short of the target
        (``short``), else whether it exceeds it."""
        if not free_run:
            makespan = _run(view, cfg, rate)[0]
            return makespan < target if short else makespan > target
        if not guessed and slow < rate < (below if short else at_most):
            guess()
        if slow < rate < (below if short else at_most):
            probe(rate)
        return rate >= below if short else rate <= slow

    lo, hi = 1.0, 1.0
    while answer(hi, False):
        if hi == _TOP_RATE:  # the bracket's last rate still runs too long
            alone = "compute alone exceeds it at every rate up to 4**49" \
                if compute_units / hi > target else "transfers alone exceed it"
            raise GraphError(f"target makespan unreachable: {alone}")
        hi *= 4.0
    while answer(lo, True):
        lo /= 4.0
        if lo < 1e-30:
            raise GraphError("target makespan unreachable at any compute rate")
    for _ in range(80):
        mid = (lo * hi) ** 0.5
        if answer(mid, False):
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + CALIBRATION_TOL:
            break
    return (lo * hi) ** 0.5
