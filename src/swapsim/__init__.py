"""Training-graph memory modeling: swap-out/swap-in and recompute graph
rewrites, a schedule-independent liveness estimator, a deterministic
compute/copy-channel simulator, and a toy numeric executor that proves the
rewrites preserve computation."""

from .graph import (
    GraphError, GraphSpec, NodeSpec, TensorDesc, Violation, bfs_depths,
    element_count, load_graph, save_graph, tensor_bytes, validate_graph,
)
from .models import UNetParams, gen_chain, gen_unet3d
from .training import (
    LivenessReport, TrainingGraph, cross_phase_tensors, expand_training_graph,
    load_training_graph, save_training_graph, static_peak_estimate,
)
from .rewrite import (
    PRESETS, RewriteConfig, RewritePlan, apply_rewrite, check_rewrite_validity,
    insert_recompute, insert_swap_nodes, load_plan, plan_checkpoints,
    resolve_preset, save_plan, select_swap_tensors,
)
from .sim import (
    DeadlockError, InfeasibleError, SimConfig, SimReport, calibrate_compute_rate,
    emit_trace, epoch_time, op_cost, simulate, stall_report, sweep, xfer_cost,
)

# The numeric oracle needs numpy, which only verification uses; its names
# are resolved on first access (PEP 562) so that importing swapsim stays cheap.
_NUMERIC_NAMES = (
    "GradCheckReport", "UseAfterSwapError", "equivalence_check", "grad_check", "run_numeric",
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["numeric", *_NUMERIC_NAMES]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _NUMERIC_NAMES:
        from . import numeric
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
