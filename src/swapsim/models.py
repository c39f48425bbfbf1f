"""Workload generators: a parameterized 3D U-Net and linear chains.

Costs are abstract work units on a roofline-style model: compute-bound ops
are charged their flops, memory-bound ops the bytes they move scaled by a
flops-per-byte balance. The constants below are the calibration surface for
timing scenarios; byte sizes are exact per tensor shape. Every size a generator
takes is a ``Count`` (an integer >= 1), checked on entry by its annotation.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Count, GraphSpec, NodeSpec, TensorDesc, GraphError, check_fields, gc_paused

# Device balance: abstract flops per byte moved. Memory-bound ops cost
# bytes * MEM_BALANCE so they compare sanely against conv flops.
MEM_BALANCE = 16.0

# Elementwise/reduction passes over the full tensor per op kind. Framework-era
# unfused instance normalization runs a long chain of reduction and broadcast
# kernels, so it is charged far more traffic than a single read/write.
NORM_PASSES = 16
ACT_PASSES = 2
CONCAT_PASSES = 3
LOSS_PASSES = 2
POOL_WINDOW = 8      # 2x2x2
CONV_KERNEL = 27     # 3x3x3
UPSAMPLE_KERNEL = 27  # stride-2 transposed conv, 3x3x3


def _mem_cost(elems: int, elem_bytes: int, passes: int) -> float:
    return float(elems) * elem_bytes * passes * MEM_BALANCE


def conv_cost(voxels_out: int, c_in: int, c_out: int, kernel: int = CONV_KERNEL) -> float:
    return 2.0 * kernel * voxels_out * c_in * c_out


def upsample_cost(voxels_in: int, c_in: int, c_out: int) -> float:
    return 2.0 * UPSAMPLE_KERNEL * voxels_in * c_in * c_out


@dataclass(frozen=True)
class UNetParams:
    dims: tuple[Count, Count, Count]
    in_channels: Count = 4
    base_filters: Count = 64
    depth: Count = 5
    elem_bytes: Count = 4
    convs_per_level: Count = 2

    def __post_init__(self):
        check_fields(UNetParams, vars(self))
        if self.depth < 2:
            raise GraphError(f"depth must be >= 2, got {self.depth}")
        divisor = 2 ** (self.depth - 1)
        for d in self.dims:
            if d % divisor:
                raise GraphError(
                    f"dim {d} not divisible by 2^(depth-1) = {divisor}; pooling halves extents per level")


class _Builder:
    def __init__(self, elem_bytes: int):
        self.nodes: list[NodeSpec] = []
        self.tensors: list[TensorDesc] = []
        self.elem_bytes = elem_bytes

    def add(self, node_id: str, kind: str, inputs: list[str], shape: tuple[int, ...],
            channels: int, cost: float) -> str:
        out = f"{node_id}:0"
        self.nodes.append(NodeSpec(node_id, kind, tuple(inputs), (out,), cost, node_id))
        self.tensors.append(TensorDesc(out, node_id, shape, channels, self.elem_bytes, node_id))
        return out

    def graph(self, metadata: dict) -> GraphSpec:
        return GraphSpec(nodes=tuple(self.nodes), tensors=tuple(self.tensors),
                         metadata=metadata)


def _conv_block(b: _Builder, scope: str, cur: str, voxels: int, shape, c_in: int,
                c_out: int, convs: int) -> str:
    for i in range(1, convs + 1):
        cin = c_in if i == 1 else c_out
        cur = b.add(f"{scope}/conv{i}", "conv", [cur], shape, c_out,
                    conv_cost(voxels, cin, c_out))
        cur = b.add(f"{scope}/norm{i}", "norm", [cur], shape, c_out,
                    _mem_cost(voxels * c_out, b.elem_bytes, NORM_PASSES))
        cur = b.add(f"{scope}/act{i}", "activation", [cur], shape, c_out,
                    _mem_cost(voxels * c_out, b.elem_bytes, ACT_PASSES))
    return cur


@gc_paused
def gen_unet3d(p: UNetParams) -> GraphSpec:
    """Forward-only 3D U-Net: analysis path, bottleneck, synthesis path, loss.

    Extents halve and filters double per analysis level; the synthesis path
    mirrors that, with a shortcut concat from the same-numbered analysis
    level. Output is deterministic for equal params.
    """
    b = _Builder(p.elem_bytes)

    def extents(level: int) -> tuple[int, int, int]:
        return tuple(d // (2 ** level) for d in p.dims)

    def voxels(level: int) -> int:
        e = extents(level)
        return e[0] * e[1] * e[2]

    def filters(level: int) -> int:
        return p.base_filters * (2 ** level)

    cur = b.add("source", "source", [], tuple(p.dims), p.in_channels, 0.0)
    shortcuts: dict[int, str] = {}
    for k in range(p.depth):
        c_in = p.in_channels if k == 0 else filters(k - 1)
        cur = _conv_block(b, f"analysis/l{k}", cur, voxels(k), extents(k),
                          c_in, filters(k), p.convs_per_level)
        if k < p.depth - 1:
            shortcuts[k] = cur
            cur = b.add(f"analysis/l{k}/pool", "pool", [cur], extents(k + 1), filters(k),
                        _mem_cost(voxels(k) * filters(k), p.elem_bytes, 1)
                        + 2.0 * voxels(k + 1) * filters(k) * POOL_WINDOW)

    bottom = p.depth - 1
    cur = _conv_block(b, "bottleneck", cur, voxels(bottom), extents(bottom),
                      filters(bottom), filters(bottom), p.convs_per_level)

    for k in range(p.depth - 2, -1, -1):
        up = b.add(f"synthesis/l{k}/upsample", "upsample", [cur], extents(k), filters(k),
                   upsample_cost(voxels(k + 1), filters(k + 1), filters(k)))
        cat = b.add(f"synthesis/l{k}/concat", "concat", [shortcuts[k], up],
                    extents(k), 2 * filters(k),
                    _mem_cost(voxels(k) * 2 * filters(k), p.elem_bytes, CONCAT_PASSES))
        cur = _conv_block(b, f"synthesis/l{k}", cat, voxels(k), extents(k),
                          2 * filters(k), filters(k), p.convs_per_level)

    b.nodes.append(NodeSpec("loss", "loss", (cur,), (),
                            _mem_cost(voxels(0) * filters(0), p.elem_bytes, LOSS_PASSES), "loss"))
    return b.graph({
        "generator": "unet3d",
        "dims": list(p.dims), "in_channels": p.in_channels,
        "base_filters": p.base_filters, "depth": p.depth,
        "elem_bytes": p.elem_bytes, "convs_per_level": p.convs_per_level,
    })


@gc_paused
def gen_chain(n: Count, bytes_per_tensor: Count = 1024, cost_per_op: float = 1.0,
              kinds: tuple[str, ...] = ("conv",)) -> GraphSpec:
    """Linear forward chain of n op nodes with uniform tensor sizes and costs.

    ``kinds`` is cycled over the ops, so mixed chains (e.g. conv/activation)
    can be produced for checkpoint-policy tests.
    """
    check_fields(gen_chain, locals())
    if not kinds:
        raise GraphError(f"kinds must name at least one node kind, got {kinds!r}")
    nodes = []
    tensors = []
    for i in range(n):
        node_id, tensor_id, scope = f"op{i}", f"t{i}", f"chain/op{i}"
        inputs = () if i == 0 else (f"t{i-1}",)
        nodes.append(NodeSpec(node_id, kinds[i % len(kinds)], inputs, (tensor_id,), cost_per_op,
                              scope))
        tensors.append(TensorDesc(tensor_id, node_id, (bytes_per_tensor,), 1, 1, scope))
    return GraphSpec(nodes=tuple(nodes), tensors=tuple(tensors), metadata={
        "generator": "chain", "n": n, "bytes_per_tensor": bytes_per_tensor,
        "cost_per_op": cost_per_op,
    })
