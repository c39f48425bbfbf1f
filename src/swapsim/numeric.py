"""Toy-scale numeric executor: actually runs training graphs on small dense
arrays, asserting device-residency discipline at every read. This is the
oracle proving that swap and recompute rewrites preserve computed values
exactly (same arithmetic, same order, bit-identical results).

Toy op semantics live in one table, ``_TOY_OPS``: for each forward node kind,
its forward rule and its backward rule on flat float64 arrays. Every walker
(``run_numeric``, the gradient check's forward-only pass and its kink probe)
runs ops through it. The loss node sums the squares of its inputs.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .graph import GraphError, element_count
from .training import TrainingGraph, cross_phase_tensors, execution_order, input_nodes

MAX_ELEMENTS = 10_000
KINK_TOL = 1e-6


class UseAfterSwapError(GraphError):
    def __init__(self, tensor_id: str, node_id: str, where: str):
        super().__init__(f"use-after-swap: node {node_id!r} read tensor {tensor_id!r} "
                         f"which is {where}, not device-resident")
        self.tensor_id = tensor_id


def _node_params(node_id: str) -> tuple[float, float]:
    """Deterministic per-op affine coefficients, stable across runs/seeds."""
    h = zlib.crc32(node_id.encode())
    a = 0.7 + 0.6 * ((h & 0xFFFF) / 0xFFFF)
    b = -0.5 + ((h >> 16) / 0xFFFF)
    return a, b


def _base_node_id(node_id: str) -> str:
    """Recompute clones reuse the original op's coefficients."""
    return node_id.split("@rc")[0]


def _input_values(g, seed: int, overrides=None):
    values = {}
    for n in input_nodes(g):
        tid = n.outputs[0]
        if overrides and tid in overrides:
            values[tid] = np.asarray(overrides[tid], dtype=np.float64).copy()
        else:
            rng = np.random.default_rng((seed, zlib.crc32(n.id.encode())))
            values[tid] = rng.standard_normal(element_count(g.tensor(tid)))
    return values


def _affine_forward(xs, n_out: int, node_id: str) -> np.ndarray:
    a, b = _node_params(node_id)
    x = xs[0]
    n_in = x.size
    if n_in >= n_out:
        reps = -(-n_in // n_out)
        padded = np.zeros(reps * n_out)
        padded[:n_in] = x
        return a * padded.reshape(reps, n_out).sum(axis=0) + b
    reps = -(-n_out // n_in)
    return a * np.tile(x, reps)[:n_out] + b


def _affine_backward(dy: np.ndarray, y, in_sizes, node_id: str) -> list[np.ndarray]:
    a, _ = _node_params(node_id)
    n_in, n_out = in_sizes[0], dy.size
    if n_in >= n_out:
        reps = -(-n_in // n_out)
        return [(a * np.tile(dy, reps)[:n_in]).copy()]
    reps = -(-n_out // n_in)
    padded = np.zeros(reps * n_in)
    padded[:n_out] = dy
    return [a * padded.reshape(reps, n_in).sum(axis=0)]


def _pool_forward(xs, n_out: int, node_id: str) -> np.ndarray:
    k = xs[0].size // n_out
    return xs[0][:k * n_out].reshape(n_out, k).mean(axis=1)


def _pool_backward(dy: np.ndarray, y, in_sizes, node_id: str) -> list[np.ndarray]:
    k = in_sizes[0] // dy.size
    return [np.repeat(dy / k, k)[:in_sizes[0]]]


def _concat_backward(dy: np.ndarray, y, in_sizes, node_id: str) -> list[np.ndarray]:
    return [dy[end - size:end].copy() for size, end in zip(in_sizes, accumulate(in_sizes))]


class _ToyOp(NamedTuple):
    # (input values, output size, node id whose coefficients apply) -> output value
    forward: Callable
    # (output gradient, output value, input sizes, node id) -> one gradient per input
    backward: Callable


class _OpTable(dict):
    def __missing__(self, kind: str):
        raise GraphError(f"no toy semantic for node kind {kind!r}")


_TOY_OPS = _OpTable({
    # size-mapping elementwise affine a*x + b, x folded or tiled to the output size
    **dict.fromkeys(("conv", "matmul", "upsample", "source", "sink", "recompute"),
                    _ToyOp(_affine_forward, _affine_backward)),
    "activation": _ToyOp(lambda xs, n_out, nid: np.maximum(xs[0], 0.0),
                         lambda dy, y, in_sizes, nid: [dy * (y > 0.0)]),
    "norm": _ToyOp(lambda xs, n_out, nid: xs[0] - xs[0].mean(),
                   lambda dy, y, in_sizes, nid: [dy - dy.mean()]),
    # block mean, window n_in / n_out
    "pool": _ToyOp(_pool_forward, _pool_backward),
    # concatenation in input order
    "concat": _ToyOp(lambda xs, n_out, nid: np.concatenate(xs), _concat_backward),
})


class _Tape:
    """Device/host tensor state with residency discipline."""

    def __init__(self):
        self.device: dict[str, np.ndarray] = {}
        self.host: dict[str, np.ndarray] = {}

    def read(self, tensor_id: str, node_id: str) -> np.ndarray:
        if tensor_id in self.device:
            return self.device[tensor_id]
        where = "host-resident" if tensor_id in self.host else "freed"
        raise UseAfterSwapError(tensor_id, node_id, where)

    def write(self, tensor_id: str, value: np.ndarray) -> None:
        self.device[tensor_id] = value

    def swap_out(self, tensor_id: str, node_id: str) -> None:
        if tensor_id not in self.device:
            raise UseAfterSwapError(tensor_id, node_id, "already gone")
        self.host[tensor_id] = self.device.pop(tensor_id)

    def swap_in(self, src_id: str, dst_id: str, node_id: str) -> None:
        if src_id not in self.host:
            raise UseAfterSwapError(src_id, node_id, "missing from host buffer")
        self.device[dst_id] = self.host[src_id].copy()

    def free(self, tensor_id: str) -> None:
        self.device.pop(tensor_id, None)


def _forward_op(g, tape: _Tape, n, params_id: str) -> list[np.ndarray]:
    """Run forward op ``n`` by its table rule, with the coefficients of node
    ``params_id``; returns the input values it read."""
    xs = [tape.read(tid, n.id) for tid in n.inputs]
    out_id = n.outputs[0]
    tape.write(out_id, _TOY_OPS[n.kind].forward(xs, element_count(g.tensor(out_id)), params_id))
    return xs


def _loss(tape: _Tape, n) -> float:
    """The loss node's value: the sum of squares over its inputs."""
    total = 0.0
    for tid in n.inputs:
        x = tape.read(tid, n.id)
        total += float(np.dot(x, x))
    return total


def _check_sizes(g) -> None:
    for t in g.tensors:
        n = element_count(t)
        if n > MAX_ELEMENTS:
            raise GraphError(f"tensor {t.id!r} has {n} elements; the numeric "
                             f"executor is capped at {MAX_ELEMENTS}")


def run_numeric(tg: TrainingGraph, plan=None, seed: int = 0,
                inputs=None) -> tuple[float, dict[str, np.ndarray]]:
    """Execute the graph on toy tensors; returns (loss, per-input gradients).

    Gradient keys are the output tensors of the graph's input nodes. Any
    read of a swapped-out or freed tensor raises UseAfterSwapError.
    """
    g = tg.graph
    _check_sizes(g)
    tape = _Tape()
    for tid, val in _input_values(g, seed, inputs).items():
        tape.write(tid, val)

    loss_node = next((n for n in g.nodes if n.kind == "loss"), None)
    loss_inputs = set(loss_node.inputs) if loss_node else set()
    recompute_free: set[str] = set()
    if plan is not None and getattr(plan, "mode", "none") == "recompute":
        kept = set(plan.checkpoints)
        input_tensors = {n.outputs[0] for n in input_nodes(g)}
        recompute_free = set(cross_phase_tensors(tg)) - kept - input_tensors

    loss_value = 0.0
    for nid in execution_order(tg):
        n = g.node(nid)
        kind = n.kind
        if kind == "swap_out":
            tape.swap_out(n.inputs[0], nid)
        elif kind == "swap_in":
            dst = n.outputs[0]
            src = dst[:-len("@in")] if dst.endswith("@in") else dst
            tape.swap_in(src, dst, nid)
        elif kind == "loss":
            loss_value = _loss(tape, n)
            for tid in sorted(recompute_free):
                tape.free(tid)
        elif kind == "grad":
            _run_grad(tg, n, tape, loss_inputs)
        elif n.inputs:  # a forward op or its recompute clone; input values are on the tape
            _forward_op(g, tape, n, _base_node_id(nid))

    grads: dict[str, np.ndarray] = {}
    for n in input_nodes(g):
        gid = f"grad/{n.id}:0"
        if g.has_tensor(gid):
            grads[n.outputs[0]] = tape.read(gid, "<result>")
    return loss_value, grads


def _run_grad(tg: TrainingGraph, n, tape: _Tape, loss_inputs) -> None:
    g = tg.graph
    fid = tg.grad_of.get(n.id)
    if fid is None:
        raise GraphError(f"grad node {n.id!r} has no forward counterpart recorded")
    f = g.node(fid)
    reuse_id = None
    incoming = None
    for tid in n.inputs:
        producer = g.node(g.tensor(tid).producer)
        if producer.kind == "grad":
            contrib = tape.read(tid, n.id)
            incoming = contrib.copy() if incoming is None else incoming + contrib
        else:
            reuse_id = tid
    if reuse_id is None:
        raise GraphError(f"grad node {n.id!r} lacks its reuse-edge input")
    reuse_val = tape.read(reuse_id, n.id)
    if incoming is None:
        incoming = np.zeros_like(reuse_val)
    if f.outputs and f.outputs[0] in loss_inputs:
        incoming = incoming + 2.0 * reuse_val

    if not f.inputs:
        tape.write(n.outputs[0], incoming)
        return
    in_sizes = [element_count(g.tensor(t)) for t in n.outputs]
    for out_id, value in zip(n.outputs, _TOY_OPS[f.kind].backward(incoming, reuse_val,
                                                                  in_sizes, f.id)):
        tape.write(out_id, value)


def _forward_loss(tg: TrainingGraph, inputs, look=None) -> float:
    """Forward-only evaluation of the loss, used by the finite-difference
    check; ``look(n, xs)``, if given, sees each op with its input values."""
    g = tg.graph
    tape = _Tape()
    for tid, val in _input_values(g, 0, inputs).items():
        tape.write(tid, val)
    loss_value = 0.0
    for nid in tg.serial_order:
        n = g.node(nid)
        if n.phase != "forward":
            break
        if n.kind == "loss":
            loss_value += _loss(tape, n)
        elif n.inputs:
            xs = _forward_op(g, tape, n, n.id)
            if look is not None:
                look(n, xs)
    return loss_value


@dataclass
class GradCheckReport:
    max_rel_error: float
    seed_used: int
    resampled: bool


def _kink_distance(tg: TrainingGraph, inputs) -> float:
    """Smallest |activation input| reached during a forward pass."""
    closest = [float("inf")]

    def look(n, xs) -> None:
        if n.kind == "activation":
            closest.append(float(np.abs(xs[0]).min()))

    _forward_loss(tg, inputs, look)
    return min(closest)


def grad_check(tg: TrainingGraph, seed: int = 0, eps: float = 1e-5,
               inputs=None) -> GradCheckReport:
    """Max relative error between analytic gradients and central differences.

    Sample points that land an activation input on its kink are resampled
    (reported via ``resampled``/``seed_used``).
    """
    if eps <= 0:
        raise GraphError("eps must be positive")
    g = tg.graph
    _check_sizes(g)

    seed_used = seed
    resampled = False
    point = dict(_input_values(g, seed, inputs))
    for _ in range(16):
        if _kink_distance(tg, point) > max(KINK_TOL, 2 * eps):
            break
        resampled = True
        seed_used += 101
        point = dict(_input_values(g, seed_used, None))
    _, analytic = run_numeric(tg, None, seed_used, inputs=point)

    worst = 0.0
    for tid, garr in sorted(analytic.items()):
        base = point[tid]
        for j in range(base.size):
            bumped = dict(point)
            plus = base.copy(); plus[j] += eps
            minus = base.copy(); minus[j] -= eps
            bumped[tid] = plus
            lp = _forward_loss(tg, bumped)
            bumped[tid] = minus
            lm = _forward_loss(tg, bumped)
            numeric = (lp - lm) / (2 * eps)
            denom = max(abs(garr[j]), abs(numeric), 1e-12)
            worst = max(worst, abs(garr[j] - numeric) / denom)
    if not np.isfinite(worst):
        raise GraphError("gradient check produced non-finite values")
    return GradCheckReport(max_rel_error=worst, seed_used=seed_used, resampled=resampled)


def equivalence_check(tg: TrainingGraph, variants, seeds) -> list[dict]:
    """Run baseline and each (label, rewritten graph, plan) variant per seed;
    deviation is the max abs difference over the loss and all gradients.
    Use-after-swap failures surface in the row's ``error`` field."""
    rows = []
    baselines = {s: run_numeric(tg, None, s) for s in seeds}
    for label, var_tg, plan in variants:
        worst = 0.0
        error = ""
        for s in seeds:
            base_loss, base_grads = baselines[s]
            try:
                loss, grads = run_numeric(var_tg, plan, s)
            except GraphError as exc:
                error = str(exc)
                worst = float("inf")
                break
            worst = max(worst, abs(loss - base_loss))
            for tid, arr in base_grads.items():
                if tid not in grads:
                    error = f"missing gradient for {tid!r}"
                    worst = float("inf")
                    break
                worst = max(worst, float(np.max(np.abs(arr - grads[tid]))) if arr.size else 0.0)
            if error:
                break
        rows.append({"label": label, "deviation": worst, "error": error})
    return rows
