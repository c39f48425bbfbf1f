"""Toy-scale numeric executor: actually runs training graphs on small dense
arrays, asserting device-residency discipline at every read. This is the
oracle proving that swap and recompute rewrites preserve computed values
exactly (same arithmetic, same order, bit-identical results).

Toy op semantics live in one table, ``_TOY_OPS``: for each forward node kind,
its forward rule, its backward rule and the output widths that the forward
rule can make from its input widths, which ``_check_sizes`` checks once per
graph, before its first walk. Every value is a row block, a 2-D float64
array of shape (rows, width) holding one sample per row, and row r of each
output depends only on row r of the inputs: the rules reduce along axis 1
and tile, repeat and concatenate along it. One walk, ``_execute``,
carries a block through the tape, the loss and the kink probe.
``run_numeric`` runs a one-row block; ``grad_check`` evaluates its central
differences ``_BLOCK_ROWS`` perturbations per forward pass, and
``equivalence_check`` runs its seeds ``_BLOCK_ROWS`` at a time.

The loss node sums the squares of its inputs with one ``np.dot`` per row, so
every row carries the bits a single sample gets. Row-wise ``sum`` and
``mean`` over axis 1 keep those bits as well; ``einsum`` over the block does
not match ``np.dot``.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .graph import GraphError, Positive, Size, check_fields, element_count
from .training import TrainingGraph, cross_phase_tensors, execution_order, input_nodes

MAX_ELEMENTS = 10_000
KINK_TOL = 1e-6
# Rows per forward pass: grad_check's perturbations, equivalence_check's seeds.
_BLOCK_ROWS = 64


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


def _input_block(g, seeds: tuple[Size, ...], overrides=None) -> dict[str, np.ndarray]:
    """One row per seed for each graph input; an override (a 1-D value)
    fills every row of its input."""
    check_fields(_input_block, {"seeds": seeds})
    values = {}
    for n in input_nodes(g):
        tid = n.outputs[0]
        if overrides and tid in overrides:
            values[tid] = np.tile(np.asarray(overrides[tid], dtype=np.float64), (len(seeds), 1))
        else:
            key, width = zlib.crc32(n.id.encode()), element_count(g.tensor(tid))
            values[tid] = np.stack([np.random.default_rng((s, key)).standard_normal(width)
                                    for s in seeds])
    return values


def _affine_forward(xs, n_out: int, node_id: str) -> np.ndarray:
    a, b = _node_params(node_id)
    x = xs[0]
    rows, n_in = x.shape
    if n_in >= n_out:
        reps = -(-n_in // n_out)
        padded = np.zeros((rows, reps * n_out))
        padded[:, :n_in] = x
        return a * padded.reshape(rows, reps, n_out).sum(axis=1) + b
    reps = -(-n_out // n_in)
    return a * np.tile(x, (1, reps))[:, :n_out] + b


def _affine_backward(dy: np.ndarray, y, in_sizes, node_id: str) -> list[np.ndarray]:
    a, _ = _node_params(node_id)
    (rows, n_out), n_in = dy.shape, in_sizes[0]
    if n_in >= n_out:
        reps = -(-n_in // n_out)
        return [a * np.tile(dy, (1, reps))[:, :n_in]]
    reps = -(-n_out // n_in)
    padded = np.zeros((rows, reps * n_in))
    padded[:, :n_out] = dy
    return [a * padded.reshape(rows, reps, n_in).sum(axis=1)]


def _pool_forward(xs, n_out: int, node_id: str) -> np.ndarray:
    rows, n_in = xs[0].shape
    k = n_in // n_out
    return xs[0][:, :k * n_out].reshape(rows, n_out, k).mean(axis=2)


def _pool_backward(dy: np.ndarray, y, in_sizes, node_id: str) -> list[np.ndarray]:
    k = in_sizes[0] // dy.shape[1]
    return [np.repeat(dy / k, k, axis=1)[:, :in_sizes[0]]]


def _concat_backward(dy: np.ndarray, y, in_sizes, node_id: str) -> list[np.ndarray]:
    return [dy[:, end - size:end].copy() for size, end in zip(in_sizes, accumulate(in_sizes))]


def _same_width(in_sizes) -> tuple[int, int]:
    return in_sizes[0], in_sizes[0]


class _ToyOp(NamedTuple):
    # (input blocks, output width, node id whose coefficients apply) -> output block
    forward: Callable
    # (output gradient block, output block, input widths, node id) -> one gradient block per input
    backward: Callable
    # input widths -> (least, largest) output width that the forward rule can
    # make; None when it makes any width
    widths: Callable | None = None


_NOT_TOY_OPS = frozenset({"swap_out", "swap_in", "loss", "grad"})  # the walk runs these


class _OpTable(dict):
    def __missing__(self, kind: str):
        raise GraphError(f"no toy semantic for node kind {kind!r}")


_TOY_OPS = _OpTable({
    # size-mapping elementwise affine a*x + b, x folded or tiled to the output size
    **dict.fromkeys(("conv", "matmul", "upsample", "source", "sink", "recompute"),
                    _ToyOp(_affine_forward, _affine_backward)),
    "activation": _ToyOp(lambda xs, n_out, nid: np.maximum(xs[0], 0.0),
                         lambda dy, y, in_sizes, nid: [dy * (y > 0.0)], _same_width),
    "norm": _ToyOp(lambda xs, n_out, nid: xs[0] - xs[0].mean(axis=1, keepdims=True),
                   lambda dy, y, in_sizes, nid: [dy - dy.mean(axis=1, keepdims=True)],
                   _same_width),
    # block mean, window n_in / n_out
    "pool": _ToyOp(_pool_forward, _pool_backward, lambda in_sizes: (1, in_sizes[0])),
    # concatenation in input order
    "concat": _ToyOp(lambda xs, n_out, nid: np.concatenate(xs, axis=1), _concat_backward,
                     lambda in_sizes: (sum(in_sizes),) * 2),
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


def _loss(tape: _Tape, n, rows: int) -> np.ndarray:
    """The loss node's value per row: the sum of squares over its inputs."""
    total = np.zeros(rows)
    for tid in n.inputs:
        total += [np.dot(x, x) for x in tape.read(tid, n.id)]
    return total


def _check_sizes(tg: TrainingGraph) -> None:
    """Raise GraphError for the first tensor past ``MAX_ELEMENTS``, or else
    for the first op whose output width its toy rule cannot make from its
    input widths (``_ToyOp.widths``). Checked once per graph: a graph that
    passes is marked in ``TrainingGraph.derived``."""
    if "numeric_sizes" in tg.derived:
        return
    g = tg.graph
    for t in g.tensors:
        n = element_count(t)
        if n > MAX_ELEMENTS:
            raise GraphError(f"tensor {t.id!r} has {n} elements; the numeric "
                             f"executor is capped at {MAX_ELEMENTS}")
    tindex = g.index.tensor_index
    for n in g.nodes:
        if n.kind in _NOT_TOY_OPS or not (n.inputs and n.outputs):
            continue  # run by the walk itself, or not run
        widths = _TOY_OPS[n.kind].widths
        ks = widths and [tindex.get(t) for t in (*n.inputs, n.outputs[0])]
        if not ks or None in ks:
            continue  # any width, or a tensor that the walk reports missing
        *in_sizes, out = (element_count(g.tensors[k]) for k in ks)
        least, largest = widths(in_sizes)
        if not least <= out <= largest:
            need = least if least == largest else f"at most {largest}"  # every width is >= 1
            raise GraphError(f"node {n.id!r}: a {n.kind} of inputs with {in_sizes} elements "
                             f"makes {need} elements, but its output {n.outputs[0]!r} has {out}")
    tg.derived["numeric_sizes"] = True


def _execute(tg: TrainingGraph, block, rows: int, plan=None, backward: bool = True,
             look=None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Walk the graph once on a block of ``rows`` input rows; returns (loss
    per row, gradient block per graph input). Without ``backward`` the walk
    stops at the first backward node and returns no gradients; ``look(n,
    xs)``, if given, sees each forward op with its input values."""
    g = tg.graph
    _check_sizes(tg)
    tape = _Tape()
    for tid, val in block.items():
        tape.write(tid, val)

    loss_node = next((n for n in g.nodes if n.kind == "loss"), None)
    loss_inputs = set(loss_node.inputs) if loss_node else set()
    recompute_free: set[str] = set()
    if plan is not None and getattr(plan, "mode", "none") == "recompute":
        kept = set(plan.checkpoints)
        input_tensors = {n.outputs[0] for n in input_nodes(g)}
        recompute_free = set(cross_phase_tensors(tg)) - kept - input_tensors

    loss = np.zeros(rows)
    for nid in execution_order(tg):
        n = g.node(nid)
        kind = n.kind
        if n.phase == "backward" and not backward:
            return loss, {}
        if kind == "swap_out":
            tape.swap_out(n.inputs[0], nid)
        elif kind == "swap_in":
            dst = n.outputs[0]
            src = dst[:-len("@in")] if dst.endswith("@in") else dst
            tape.swap_in(src, dst, nid)
        elif kind == "loss":
            loss = _loss(tape, n, rows)
            for tid in sorted(recompute_free):
                tape.free(tid)
        elif kind == "grad":
            _run_grad(tg, n, tape, loss_inputs)
        elif n.inputs:  # a forward op or its recompute clone; input values are on the tape
            xs = _forward_op(g, tape, n, _base_node_id(nid))
            if look is not None:
                look(n, xs)

    grads: dict[str, np.ndarray] = {}
    if backward:
        for n in input_nodes(g):
            gid = f"grad/{n.id}:0"
            if g.has_tensor(gid):
                grads[n.outputs[0]] = tape.read(gid, "<result>")
    return loss, grads


def run_numeric(tg: TrainingGraph, plan=None, seed: int = 0,
                inputs=None) -> tuple[float, dict[str, np.ndarray]]:
    """Execute the graph on toy tensors; returns (loss, per-input gradients).

    Gradient keys are the output tensors of the graph's input nodes. Any
    read of a swapped-out or freed tensor raises UseAfterSwapError.
    """
    loss, grads = _execute(tg, _input_block(tg.graph, [seed], inputs), 1, plan)
    return float(loss[0]), {tid: grad[0] for tid, grad in grads.items()}


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


@dataclass
class GradCheckReport:
    max_rel_error: float
    seed_used: int
    resampled: bool


def _kink_distance(tg: TrainingGraph, point) -> float:
    """Smallest |activation input| reached during a forward pass."""
    closest = [float("inf")]

    def look(n, xs) -> None:
        if n.kind == "activation":
            closest.append(float(np.abs(xs[0]).min()))

    _execute(tg, point, 1, backward=False, look=look)
    return min(closest)


def grad_check(tg: TrainingGraph, seed: int = 0, eps: Positive = 1e-5,
               inputs=None) -> GradCheckReport:
    """Max relative error between analytic gradients and central differences.

    Sample points that land an activation input on its kink are resampled
    (reported via ``resampled``/``seed_used``).
    """
    check_fields(grad_check, {"eps": eps})
    g = tg.graph
    seed_used = seed
    resampled = False
    point = _input_block(g, [seed], inputs)
    for _ in range(16):
        if _kink_distance(tg, point) > max(KINK_TOL, 2 * eps):
            break
        resampled = True
        seed_used += 101
        point = _input_block(g, [seed_used])
    _, analytic = _execute(tg, point, 1)

    # One block per run of input elements: rows [0, k) bump element lo + r
    # up by eps, rows [k, 2k) bump it down.
    worst = 0.0
    step = _BLOCK_ROWS // 2
    for tid, garr in sorted(analytic.items()):
        width = garr.shape[1]
        for lo in range(0, width, step):
            js = np.arange(lo, min(lo + step, width))
            k = js.size
            block = {t: np.repeat(v, 2 * k, axis=0) for t, v in point.items()}
            block[tid][np.arange(k), js] += eps
            block[tid][np.arange(k, 2 * k), js] -= eps
            loss, _ = _execute(tg, block, 2 * k, backward=False)
            numeric = (loss[:k] - loss[k:]) / (2 * eps)
            exact = garr[0, js]
            denom = np.maximum(np.maximum(np.abs(exact), np.abs(numeric)), 1e-12)
            block_worst = (np.abs(exact - numeric) / denom).max()
            if not np.isfinite(block_worst):
                raise GraphError("gradient check produced non-finite values")
            worst = max(worst, block_worst)
    return GradCheckReport(max_rel_error=worst, seed_used=seed_used, resampled=resampled)


def equivalence_check(tg: TrainingGraph, variants, seeds: tuple[Size, ...]) -> list[dict]:
    """Run baseline and each (label, rewritten graph, plan) variant on every
    seed, ``_BLOCK_ROWS`` seeds per pass, once every seed is checked by its
    annotation; deviation is the max abs difference over the loss and all
    gradients. Use-after-swap failures surface in the row's ``error`` field."""
    variants, seeds = list(variants), list(seeds)
    check_fields(equivalence_check, {"seeds": seeds})
    rows = [{"label": label, "deviation": 0.0, "error": ""} for label, _, _ in variants]
    for lo in range(0, len(seeds), _BLOCK_ROWS):
        chunk = seeds[lo:lo + _BLOCK_ROWS]
        base_loss, base_grads = _execute(tg, _input_block(tg.graph, chunk), len(chunk))
        for row, (_, var_tg, plan) in zip(rows, variants):
            if row["error"]:
                continue
            try:
                loss, grads = _execute(var_tg, _input_block(var_tg.graph, chunk), len(chunk),
                                       plan)
            except GraphError as exc:
                row.update(deviation=float("inf"), error=str(exc))
                continue
            missing = [tid for tid in base_grads if tid not in grads]
            if missing:
                row.update(deviation=float("inf"), error=f"missing gradient for {missing[0]!r}")
                continue
            # np.max and np.maximum keep a NaN, which Python's max would drop.
            deviation = np.max([np.abs(loss - base_loss).max(),
                                *(np.abs(arr - grads[tid]).max()
                                  for tid, arr in base_grads.items() if arr.size)])
            row["deviation"] = float(np.maximum(row["deviation"], deviation))
    return rows
