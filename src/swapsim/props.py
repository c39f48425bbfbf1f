"""Randomized invariant suite: dependency soundness, memory conservation,
swap soundness, peak/lb monotonicity, determinism, and a brute-force
schedule oracle. Shared by the ``verify`` subcommand and the test suite.

``run_invariant_suite`` fans its independent instances out over every CPU
the process may use (``os.sched_getaffinity``), at most one worker per
``INSTANCES_PER_WORKER`` instances, by ``os.fork``: worker ``k`` of ``w``
(the parent is worker 0) takes instances ``k, k + w, ...``. Fewer than
two workers' worth of instances, one CPU (``taskset -c 0``) or a platform
without ``sched_getaffinity`` runs the suite in-process, and a fork that
fails leaves its share to the parent. Results merge by instance index, so
the returned dict is the same as from one process. On Python 3.12 and
later, ``os.fork`` in a process with other threads (numpy's BLAS threads,
once ``verify``'s numeric checks ran) warns ``DeprecationWarning``; the
suite has been run on CPython 3.11.7 only, which does not.
"""
from __future__ import annotations

import itertools
import os
import pickle
import random
import signal

from .graph import GraphError, GraphSpec, NodeSpec, Size, TensorDesc, check_fields, tensor_bytes
from .training import (
    TrainingGraph, cross_phase_tensors, expand_training_graph, residency, static_peak_estimate,
)
from .rewrite import RewriteConfig, RewritePlan, select_swap_tensors, insert_swap_nodes
from .sim import SimConfig, SimReport, op_cost, simulate, xfer_cost

_SCOPES = ("a/x", "a/y", "b/x", "b/y")
LB_GRID = (1, 2, 3, 5, 8)  # the lookaheads check_lb_monotonicity simulates
# The largest rewrite the brute-force schedule oracle enumerates: its
# orderings grow as (swaps!)^2, and each one is scheduled over every node.
ORACLE_MAX_SWAPS, ORACLE_MAX_NODES = 3, 30
# The fewest instances worth a worker process of their own: 25 instances
# take about 60 ms on a 2-core x86 VM, a fork and reap about 2 ms.
INSTANCES_PER_WORKER = 25


def random_forward_graph(rng: random.Random) -> GraphSpec:
    """Small random layered DAG: 1-input ops plus occasional 2-input concats."""
    n_ops = rng.randint(3, 10)
    nodes = []
    tensors = []
    avail: list[str] = []

    def emit(i, kind, inputs):
        nid = f"n{i:02d}"
        tid = f"v{i:02d}"
        nodes.append(NodeSpec(id=nid, kind=kind, inputs=tuple(inputs), outputs=(tid,),
                              cost_units=rng.randint(1, 20) * 1.0,
                              scope=rng.choice(_SCOPES) + f"/{nid}", phase="forward"))
        tensors.append(TensorDesc(id=tid, producer=nid, shape=(rng.randint(8, 64),),
                                  channels=1, elem_bytes=4,
                                  scope=nodes[-1].scope))
        avail.append(tid)

    emit(0, "conv", [])
    for i in range(1, n_ops):
        if len(avail) >= 2 and rng.random() < 0.25:
            picks = rng.sample(avail, 2)
            emit(i, "concat", picks)
        else:
            emit(i, "conv", [rng.choice(avail[-3:])])
    return GraphSpec(nodes=tuple(nodes), tensors=tuple(tensors))


def random_instance(seed: int):
    """(expanded tg, rewritten tg, plan, sim config) for one random scenario."""
    rng = random.Random(seed)
    g = random_forward_graph(rng)
    tg = expand_training_graph(g)
    candidates = cross_phase_tensors(tg)
    cfg = RewriteConfig(
        mode="swap",
        n_tensors=rng.choice([-1, rng.randint(1, max(1, len(candidates)))]),
        lb=rng.randint(1, 6),
        excl_scopes=tuple(rng.sample(["a/*", "b/*"], rng.randint(0, 1))),
    )
    selection = select_swap_tensors(tg, cfg)
    rewritten, plan = insert_swap_nodes(tg, selection, cfg.lb)
    sim_cfg = SimConfig(compute_rate=rng.choice([1.0, 5.0, 20.0]),
                        d2h_bw=rng.choice([50.0, 200.0, 1000.0]),
                        h2d_bw=rng.choice([50.0, 200.0, 1000.0]),
                        xfer_latency=rng.choice([0.0, 0.05]))
    return tg, rewritten, plan, sim_cfg


def _event_map(report):
    return {nid: (start, end) for nid, _, start, end in report.events}


def check_dependency_soundness(tg: TrainingGraph, report) -> list[str]:
    ev = _event_map(report)
    bad = []
    for u, v in tg.graph.edges():
        if ev[u][1] > ev[v][0] + 1e-12:
            bad.append(f"edge {u}->{v}: end {ev[u][1]} > start {ev[v][0]}")
    return bad


def derive_resident_trace(tg: TrainingGraph, report) -> list[tuple[float, int]]:
    """(time, resident bytes) trace re-derived from events alone: each tensor
    is resident over its ``residency`` interval on the events' start and end
    times. Deltas at one instant are netted, matching the simulator's
    sampling convention."""
    g = tg.graph
    ev = _event_map(report)
    starts = [ev[nid][0] for nid in g.index.ids]
    ends = [ev[nid][1] for nid in g.index.ids]
    per_time: dict[float, int] = {}
    for (start, end), nbytes in zip(residency(g, starts, ends), g.index.tensor_bytes):
        per_time[start] = per_time.get(start, 0) + nbytes
        per_time[end] = per_time.get(end, 0) - nbytes
    trace = []
    cur = 0
    for when in sorted(per_time):
        cur += per_time[when]
        trace.append((when, cur))
    return trace


def check_memory_conservation(tg: TrainingGraph, report, cfg: SimConfig) -> list[str]:
    trace = derive_resident_trace(tg, report)
    bad = []
    if any(resident < 0 for _, resident in trace):
        bad.append("derived resident bytes went negative")
    derived_peak = max((resident for _, resident in trace), default=0) + tg.static_bytes
    if derived_peak != report.peak_resident:
        bad.append(f"derived peak {derived_peak} != reported {report.peak_resident}")
    if cfg.limited and report.peak_resident > cfg.gpu_budget:
        bad.append(f"peak {report.peak_resident} exceeds enforced budget {cfg.gpu_budget}")
    return bad


def check_swap_soundness(tg: TrainingGraph, plan: RewritePlan, report) -> list[str]:
    g = tg.graph
    ev = _event_map(report)
    bad = []
    for tid, (out_id, in_id, _) in sorted(plan.swapped.items()):
        producer = g.tensor(tid).producer
        if ev[out_id][0] < ev[producer][1] - 1e-12:
            bad.append(f"swap_out of {tid} starts before its producer ends")
        in_tensor = g.node(in_id).outputs[0]
        consumer_starts = [ev[c][0] for c in g.consumers(in_tensor)]
        if consumer_starts and ev[in_id][1] > min(consumer_starts) + 1e-12:
            bad.append(f"swap_in of {tid} finishes after its earliest consumer starts")
    return bad


def check_peak_monotonicity(tg: TrainingGraph, rng: random.Random) -> list[str]:
    """Growing the swap set never raises the static peak (fixed lb)."""
    candidates = cross_phase_tensors(tg)
    if not candidates:
        return []
    lb = rng.randint(1, 4)
    small = rng.sample(candidates, rng.randint(0, len(candidates) - 1)) if len(candidates) > 1 else []
    extra = [t for t in candidates if t not in small]
    big = small + rng.sample(extra, rng.randint(1, len(extra)))

    def peak(subset):
        rewritten, plan = insert_swap_nodes(tg, subset, lb)
        return static_peak_estimate(rewritten, plan).peak_bytes

    p_small, p_big = peak(small), peak(big)
    if p_big > p_small:
        return [f"peak grew from {p_small} to {p_big} when the swap set grew"]
    return []


def check_lb_monotonicity(tg: TrainingGraph, selection, sim_cfg: SimConfig) -> list[str]:
    makespans = []
    for lb in LB_GRID:
        rewritten, plan = insert_swap_nodes(tg, selection, lb)
        makespans.append(simulate(rewritten, plan, sim_cfg).makespan)
    for prev, cur in zip(makespans, makespans[1:]):
        if cur > prev + 1e-9:
            return [f"makespan increased with lb: {makespans}"]
    return []


def check_determinism(tg: TrainingGraph, plan, report, cfg: SimConfig) -> list[str]:
    """``report``, a run of ``tg`` under ``cfg``, equals a run of a copy of
    ``tg`` built anew from its rows. Every view is built from its graph's
    index (``sim._view``), so for a swap rewrite this checks the index
    derived from its base's against the one the copy builds from its rows."""
    g = tg.graph
    rows = TrainingGraph(GraphSpec(g.nodes, g.tensors, g.control_edges, dict(g.metadata)),
                         tg.serial_order, dict(tg.grad_of))
    if simulate(rows, plan, cfg) == report:
        return []
    return ["a run of the graph differs from a run of a copy built from its rows"]


# ---------------------------------------------------------------------------
# Brute-force schedule oracle: enumerate transfer orderings, schedule each by
# fixpoint, keep the FIFO-consistent ones, compare makespans with the sim.

class _ForcedSchedule:
    """Every node's (start, end) when each node waits for the nodes in
    ``after``: its predecessors, then the node before it on its channel
    (transfers) or in serial order (compute), found by fixpoint. ``end``
    recurses through a method rather than a nested function: a recursive
    closure is a function-cell reference cycle, left for the collector."""

    def __init__(self, after: dict, durations: dict):
        self.after, self.durations = after, durations
        self.times: dict[str, tuple[float, float]] = {}
        self.visiting: set[str] = set()

    def end(self, nid: str) -> float:
        if nid in self.times:
            return self.times[nid][1]
        if nid in self.visiting:
            raise ValueError("ordering cycle")
        self.visiting.add(nid)
        ready = 0.0
        for p in self.after[nid]:
            ready = max(ready, self.end(p))
        self.visiting.discard(nid)
        self.times[nid] = span = (ready, ready + self.durations[nid])
        return span[1]


def _fifo_realizable(order, ready, pos, times) -> bool:
    """Replay the FIFO queue's decision rule against a candidate schedule:
    when the channel frees, it must pick the lowest (ready, position, id) key
    among the transfers already ready, waiting if none is."""
    remaining = list(order)
    free_t = 0.0
    for expected in order:
        avail = [y for y in remaining if ready(y) <= free_t + 1e-12]
        if not avail:
            free_t = min(ready(y) for y in remaining)
            avail = [y for y in remaining if ready(y) <= free_t + 1e-12]
        pick = min(avail, key=lambda y: (ready(y), pos[y], y))
        if pick != expected:
            return False
        free_t = times[expected][1]
        remaining.remove(expected)
    return True


def _oracle_reaches(tg: TrainingGraph, plan: RewritePlan) -> bool:
    """Whether the rewrite is small enough for ``brute_force_makespans``."""
    return len(plan.swapped) <= ORACLE_MAX_SWAPS and len(tg.graph.nodes) <= ORACLE_MAX_NODES


def brute_force_makespans(tg: TrainingGraph, plan: RewritePlan, cfg: SimConfig) -> list[float]:
    """Makespans of every FIFO-realizable transfer ordering (exhaustive), for
    a rewrite within the oracle's reach (``_oracle_reaches``)."""
    g = tg.graph
    if not _oracle_reaches(tg, plan):
        raise GraphError(f"schedule oracle: {len(plan.swapped)} swaps and {len(g.nodes)} nodes "
                         f"exceed its limit of {ORACLE_MAX_SWAPS} swaps and "
                         f"{ORACLE_MAX_NODES} nodes")
    outs = sorted(v[0] for v in plan.swapped.values())
    ins = sorted(v[1] for v in plan.swapped.values())
    prod_pos = {}
    cons_pos = {}
    for tid, (out_id, in_id, _) in plan.swapped.items():
        prod_pos[out_id] = tg.position(g.tensor(tid).producer)
        in_tensor = g.node(in_id).outputs[0]
        cons_pos[in_id] = min(tg.position(c) for c in g.consumers(in_tensor))

    # Per node: its duration, and the nodes it waits for in any ordering.
    durations, preds = {}, {n.id: [] for n in g.nodes}
    for n in g.nodes:
        if n.kind == "swap_out":
            durations[n.id] = xfer_cost(tensor_bytes(g.tensor(n.inputs[0])), cfg.d2h_bw,
                                        cfg.xfer_latency)
        elif n.kind == "swap_in":
            durations[n.id] = xfer_cost(tensor_bytes(g.tensor(n.outputs[0])), cfg.h2d_bw,
                                        cfg.xfer_latency)
        else:
            durations[n.id] = op_cost(n, cfg)
    for a, b in g.edges():
        preds[b].append(a)
    for prev, nid in zip(tg.serial_order, tg.serial_order[1:]):
        preds[nid].append(prev)

    results = []
    for d2h_order in itertools.permutations(outs):
        for h2d_order in itertools.permutations(ins):
            after = dict(preds)
            for order in (d2h_order, h2d_order):
                for prev, nid in zip(order, order[1:]):
                    after[nid] = preds[nid] + [prev]
            schedule = _ForcedSchedule(after, durations)
            try:
                for n in g.nodes:
                    schedule.end(n.id)
            except ValueError:
                continue
            times = schedule.times

            def ready_out(nid):
                producer = g.tensor(g.node(nid).inputs[0]).producer
                return times[producer][1]

            def issue_in(nid):
                triggers = [a for a, b in g.control_edges
                            if b == nid and g.node(a).kind != "swap_out"]
                return max(times[a][1] for a in triggers)

            # H2D serves strictly in issue order, so the realized order is
            # the sort by (issue time, consumer position, id).
            h2d_ok = list(h2d_order) == sorted(
                h2d_order, key=lambda y: (issue_in(y), cons_pos[y], y))
            if h2d_ok and _fifo_realizable(d2h_order, ready_out, prod_pos, times):
                results.append(max(e for _, e in times.values()))
    return results


def check_schedule_oracle(rewritten: TrainingGraph, plan: RewritePlan, report: SimReport,
                          cfg: SimConfig) -> list[str]:
    """Whether every FIFO-consistent schedule of ``rewritten`` under ``cfg``
    ends at the makespan of its simulation ``report``."""
    if not _oracle_reaches(rewritten, plan):
        return []
    oracle = brute_force_makespans(rewritten, plan, cfg)
    if not oracle:
        return ["brute-force oracle found no FIFO-consistent schedule"]
    for m in oracle:
        if abs(m - report.makespan) > 1e-9:
            return [f"sim makespan {report.makespan} != oracle makespan {m}"]
    return []


def make_broken_swap_variant(tg: TrainingGraph):
    """Deliberately corrupt an all-swap rewrite: delete one swap_in and wire
    its consumers back to the swapped-out tensor. Running this numerically
    must raise a use-after-swap error; it exists as a negative fixture."""
    from .rewrite import resolve_preset, apply_rewrite

    rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
    victim = sorted(plan.swapped)[0]
    _, in_id, _ = plan.swapped[victim]
    g = rewritten.graph
    in_tensor = g.node(in_id).outputs[0]
    broken_nodes = []
    for n in g.nodes:
        if n.id == in_id:
            continue
        broken_nodes.append(NodeSpec(
            id=n.id, kind=n.kind,
            inputs=tuple(victim if t == in_tensor else t for t in n.inputs),
            outputs=n.outputs, cost_units=n.cost_units, scope=n.scope, phase=n.phase))
    broken = TrainingGraph(
        graph=GraphSpec(nodes=tuple(broken_nodes),
                        tensors=tuple(t for t in g.tensors if t.id != in_tensor),
                        control_edges=tuple(e for e in g.control_edges if in_id not in e),
                        metadata=dict(g.metadata)),
        serial_order=rewritten.serial_order, grad_of=dict(rewritten.grad_of))
    return broken, plan


def _instance_checks(i: int, seed: int) -> tuple[int, int, list[str]]:
    """Run every check on instance ``i`` of the suite at ``seed``: (checks
    run, schedule-oracle runs, failure descriptions)."""
    failures: list[str] = []
    checks = 0
    oracle_runs = 0
    inst_seed = seed * 100_003 + i
    rng = random.Random(inst_seed ^ 0x5EED)
    tg, rewritten, plan, sim_cfg = random_instance(inst_seed)
    report = simulate(rewritten, plan, sim_cfg)
    for name, bad in (
        ("dependency-soundness", check_dependency_soundness(rewritten, report)),
        ("memory-conservation", check_memory_conservation(rewritten, report, sim_cfg)),
        ("swap-soundness", check_swap_soundness(rewritten, plan, report)),
        ("peak-monotonicity", check_peak_monotonicity(tg, rng)),
        ("determinism", check_determinism(rewritten, plan, report, sim_cfg)),
    ):
        checks += 1
        failures.extend(f"[{name}] instance {i}: {msg}" for msg in bad)
    candidates = cross_phase_tensors(tg)
    lb_sel = candidates[:min(4, len(candidates))]
    checks += 1
    failures.extend(f"[lb-monotonicity] instance {i}: {msg}"
                    for msg in check_lb_monotonicity(tg, lb_sel, sim_cfg))
    if _oracle_reaches(rewritten, plan):
        checks += 1
        oracle_runs += 1
        failures.extend(f"[schedule-oracle] instance {i}: {msg}"
                        for msg in check_schedule_oracle(rewritten, plan, report, sim_cfg))
    return checks, oracle_runs, failures


def _share(indices, seed: int) -> list[tuple[int, tuple]]:
    """(index, result) of each of ``indices`` in turn, up to the first
    instance that raises: ``run_invariant_suite`` runs that one again
    in-process, in index order, so that it raises there."""
    done = []
    for i in indices:
        try:
            done.append((i, _instance_checks(i, seed)))
        except Exception:
            break
    return done


def _worker(indices, seed: int, fd: int):
    """A forked worker's whole life: pickle its share's results into the
    pipe ``fd`` and exit by ``os._exit``, so that it never returns into its
    parent's stack, runs no atexit handler and flushes no inherited stdio."""
    code = 1
    try:
        with open(fd, "wb") as out:
            pickle.dump(_share(indices, seed), out)
        code = 0
    finally:
        os._exit(code)


def run_invariant_suite(instances: Size = 200, seed: int = 0) -> dict:
    """Run all randomized checks; returns counts plus failure descriptions.

    The instances run on the parent and forked workers (see the module
    docstring). Each worker stops at its first instance that raises; the
    parent merges the results by instance index and then runs, in-process
    and in index order, every instance whose result did not come back (a
    worker's that raised, was killed or never started). So the returned
    dict, and an exception with its message, are the same as from one
    process. No child outlives the call: each is reaped, killed first if
    it is still running."""
    check_fields(run_invariant_suite, {"instances": instances})
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(cpus, instances // INSTANCES_PER_WORKER))
    running = {}  # pid -> the read end of its pipe, until it is reaped
    results = {}
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the share runs in-process
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _worker(range(k, instances, workers), seed, w)
            os.close(w)
            running[pid] = open(r, "rb")
        results.update(_share(range(0, instances, workers), seed))
        for pid, reader in list(running.items()):
            data = reader.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            reader.close()
            if os.waitstatus_to_exitcode(status) == 0:
                results.update(pickle.loads(data))
    finally:
        for pid, reader in running.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    checks = oracle_runs = 0
    failures: list[str] = []
    for i in range(instances):
        if i not in results:
            results[i] = _instance_checks(i, seed)
        n_checks, n_oracle, bad = results[i]
        checks += n_checks
        oracle_runs += n_oracle
        failures += bad
    return {"instances": instances, "checks": checks,
            "oracle_runs": oracle_runs, "failures": failures}
