"""Command-line front end: generate, rewrite, simulate, sweep, verify.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import math
import sys
from argparse import SUPPRESS
from dataclasses import replace
from functools import partial
from typing import Literal

from .graph import (GraphError, Schema, check, check_fields, check_value, dumps_canonical,
                    load_document, load_graph, save_graph, validate_graph)
from .models import UNetParams, gen_chain, gen_unet3d
from .training import (expand_training_graph, load_training_graph, save_training_graph,
                       static_peak_estimate)
from .rewrite import (CKPT_POLICIES, MODES, PRESETS, RewriteConfig, apply_rewrite, check_rewrite_validity,
                      load_plan, resolve_preset, save_plan)
from .sim import (SimConfig, calibrate_compute_rate, emit_trace, epoch_time,
                  simulate, stall_report, sweep)

LINKS = {
    "nvlink1": (40e9, 40e9),  # 80 GB/s bidirectional split across directions
    "pcie3": (16e9, 16e9),    # 32 GB/s bidirectional split across directions
}


# simulate arguments whose name is not their option's
_FLAGS = {"graph": "GRAPH", "plan": "PLAN", "xfer_latency": "--latency", "gpu_budget": "--budget"}


class UsageError(ValueError):
    """Bad invocation rather than a domain failure; exits with code 2. Raised
    while a document is loaded, it is a bad value in that file (code 1)."""

_IEC = {"kib": 2**10, "mib": 2**20, "gib": 2**30, "tib": 2**40}
_SI = {"kb": 1e3, "mb": 1e6, "gb": 1e9, "tb": 1e12, "b": 1.0}


def parse_bytes(text: str) -> int:
    """A byte count such as ``512``, ``1.5e9`` or ``16GiB``; finite and >= 0."""
    s = str(text).strip().lower().replace(" ", "")
    number, mult = s, 1.0
    for suffix, m in sorted({**_IEC, **_SI}.items(), key=lambda kv: -len(kv[0])):
        if s.endswith(suffix):
            number, mult = s[:-len(suffix)], m
            break
    try:
        value = float(number) * mult
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise UsageError(f"invalid byte count {text!r}: expected a finite number >= 0 "
                         f"with an optional unit such as GiB or GB")
    return int(value)


def fmt_bytes(n: int) -> str:
    return f"{n} B ({n / 1e9:.3f} GB, {n / 2**30:.3f} GiB)"


def parse_seed_spec(text: str) -> list[int]:
    seeds: list[int] = []
    try:
        for part in str(text).split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..")
                seeds.extend(range(int(lo), int(hi) + 1))
            elif part:
                seeds.append(int(part))
    except ValueError:
        raise UsageError(f"invalid seed spec {text!r}: expected seeds such as 1..20 "
                         f"or 1,3,5") from None
    if not seeds:
        raise UsageError(f"no seeds in spec {text!r}")
    return seeds


def _csv(text: str, kind: type) -> list:
    try:
        return [kind(x.strip()) for x in str(text).split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"invalid {kind.__name__} list {text!r}") from None


def _names(value) -> tuple[str, ...]:
    """Scope patterns or node ids: a comma-separated flag or a scenario list."""
    if isinstance(value, str):
        value = value.split(",")
    return tuple(s for s in value if s)


# A scenario's sections take the fields of the configs they build, under
# the same names, plus the keys that exist only in scenario files.
_REWRITE = Schema(RewriteConfig, preset=str)
_SIM = Schema(SimConfig, gpu_budget=str | float, link=str, calibrate=Schema(
    None, ("preset", "target_seconds"), preset=str, target_seconds=float))
_GENERATORS = {"unet3d": Schema(UNetParams, ("kind",), kind=str),
               # kinds also takes the comma-separated spelling of the flag
               "chain": Schema(gen_chain, ("kind",), kind=str, kinds=str | tuple[str, ...])}
_SCENARIO = Schema(None, ("generator",), generator=dict, rewrite=_REWRITE, sim=_SIM,
                   static_bytes=str | float, outputs=Schema(None, trace=str, report=str))


def _expander(m):
    """``expand_training_graph`` with the arguments that a scenario or the
    parsed flags give (``static_bytes`` as a byte count such as ``1GiB``,
    and ``backward_cost_ratio``), checked by their annotations before any
    graph is read; an argument the mapping lacks keeps the library default."""
    kw = {k: m[k] for k in ("static_bytes", "backward_cost_ratio") if k in m}
    if "static_bytes" in kw:
        kw["static_bytes"] = parse_bytes(kw["static_bytes"])
    check_fields(expand_training_graph, kw)
    return partial(expand_training_graph, **kw)


def _rewrite_config(m) -> RewriteConfig:
    """A rewrite config from a scenario's ``rewrite`` object or the parsed
    flags; keys the mapping lacks keep RewriteConfig's defaults. A preset
    sets every key, so it takes none of them beside it."""
    kw = {k: m[k] for k in _REWRITE.types if k != "preset" and k in m}
    if m.get("preset") is not None:
        if kw:
            raise UsageError(f"preset {m['preset']!r} sets every rewrite key, so it takes "
                             f"no {', '.join(kw)}")
        return resolve_preset(m["preset"])
    for k in ("excl_scopes", "incl_scopes", "manual_ckpts"):
        if k in kw:
            kw[k] = _names(kw[k])
    return RewriteConfig(**kw)


def _flag_rewrite_config(m) -> RewriteConfig:
    """``_rewrite_config`` of the ``rewrite`` or ``sweep`` flags, whose mode
    defaults to the CLI's own ``swap`` (the library's is none)."""
    return _rewrite_config(m if "preset" in m else {"mode": "swap"} | m)


def _sim_config(m) -> SimConfig:
    """A simulator config from a scenario's ``sim`` object or the parsed
    flags; keys the mapping lacks keep SimConfig's defaults. A ``link``
    preset sets both bandwidths, so it takes neither of them beside it."""
    kw = {k: m[k] for k in _SIM.types if k not in ("gpu_budget", "link", "calibrate") and k in m}
    if m.get("link"):
        if m["link"] not in LINKS:
            raise UsageError(f"unknown link preset {m['link']!r}; "
                             f"expected one of {sorted(LINKS)}")
        if kw.keys() & {"d2h_bw", "h2d_bw"}:
            raise UsageError(f"link {m['link']!r} sets both bandwidths, so it takes "
                             f"no d2h_bw or h2d_bw")
        kw["d2h_bw"], kw["h2d_bw"] = LINKS[m["link"]]
    return SimConfig(**kw, gpu_budget=parse_bytes(m.get("gpu_budget") or 0))


def _generated_graph(m):
    """The forward graph of a scenario's ``generator`` object or the parsed
    ``generate`` flags; keys the mapping lacks, and empty ``kinds``, keep
    the defaults of UNetParams and gen_chain."""
    kw = {k: m[k] for k in _GENERATORS[m["kind"]].types if k != "kind" and k in m}
    if m["kind"] == "unet3d":
        return gen_unet3d(UNetParams(**kw | {"dims": tuple(kw["dims"])}))
    kinds = _names(kw.pop("kinds", ()))
    if kinds:
        kw["kinds"] = kinds
    return gen_chain(**kw)


def cmd_generate(args) -> int:
    g = _generated_graph(vars(args))
    save_graph(g, args.output)
    print(f"wrote {args.output}: {len(g.nodes)} nodes, {len(g.tensors)} tensors")
    return 0


def cmd_rewrite(args) -> int:
    m = vars(args)
    expand, cfg = _expander(m), _flag_rewrite_config(m)
    tg = expand(load_graph(args.graph))
    rewritten, plan = apply_rewrite(tg, cfg)
    violations = check_rewrite_validity(tg, rewritten, plan)
    if violations:
        raise GraphError(f"rewrite produced an invalid graph: {violations[0]}")
    save_training_graph(rewritten, args.out_graph)
    save_plan(plan, args.out_plan)
    liveness = static_peak_estimate(rewritten, plan)
    print(f"mode: {plan.mode}")
    print(f"swapped feature maps: {len(plan.swapped)}")
    print(f"checkpoints: {len(plan.checkpoints)}")
    print(f"recompute clones: {len(plan.clone_map)}")
    print(f"static peak estimate: {fmt_bytes(liveness.peak_bytes)}")
    if args.liveness:
        with open(args.liveness, "w", encoding="utf-8") as fh:
            fh.write(liveness.to_json())
        print(f"wrote liveness report {args.liveness}")
    print(f"wrote {args.out_graph} and {args.out_plan}")
    return 0


def _scenario_from_obj(sc) -> tuple:
    """A scenario document's training graph, rewrite config, simulator config,
    calibration (rewrite config, target seconds) or None, and output paths."""
    gen = check(sc, _SCENARIO)["generator"]
    check_value(gen.get("kind"), Literal[tuple(_GENERATORS)], "generator.kind")
    expand = _expander(sc)
    tg = expand(_generated_graph(check(gen, _GENERATORS[gen["kind"]], "generator")))
    cfg = _rewrite_config(sc.get("rewrite", {}))
    sm = sc.get("sim", {})
    sim_cfg = _sim_config(sm)
    cal = sm.get("calibrate")
    calibration = (_rewrite_config({"preset": cal["preset"]}), cal["target_seconds"]) if cal \
        else None
    outputs = sc.get("outputs", {})
    return tg, cfg, sim_cfg, calibration, outputs.get("trace"), outputs.get("report")


def cmd_simulate(args) -> int:
    """Flags and a scenario file each give a graph, its plan, a simulator
    config, a calibration (graph, plan, target seconds) or None, and output
    paths; one path runs them. A scenario calibrates on its own rewrite, and
    it takes no other simulate argument, each of which is absent from
    ``args`` unless given."""
    m = vars(args)
    calibration = None
    if "scenario" in m:
        given = sorted(_FLAGS.get(k, "--" + k.replace("_", "-"))
                       for k in m.keys() - {"command", "func", "scenario"})
        if given:
            raise UsageError(f"--scenario takes no other simulate argument; got {', '.join(given)}")
        tg, cfg, sim_cfg, calibration, trace, report_path = load_document(
            args.scenario, "scenario", _scenario_from_obj)
        if calibration:  # (rewrite config, target seconds)
            calibration = (*apply_rewrite(tg, calibration[0]), calibration[1])
        tg, plan = apply_rewrite(tg, cfg)
    else:
        tg = load_training_graph(m["graph"])
        violations = validate_graph(tg.graph)
        if violations:
            raise GraphError(f"training-graph file {m['graph']}: invalid graph: {violations[0]}")
        plan = load_plan(m["plan"]) if "plan" in m else None
        sim_cfg = _sim_config(m)
        if "calibrate_target" in m:
            calibration = (tg, plan, m["calibrate_target"])
        trace, report_path = m.get("trace"), m.get("report")
    if calibration:
        *cal, target = calibration  # (graph, plan), target seconds
        sim_cfg = replace(sim_cfg, compute_rate=calibrate_compute_rate(*cal, sim_cfg, target))
        print(f"calibrated compute_rate: {sim_cfg.compute_rate:.6g} units/s")
    report = simulate(tg, plan, sim_cfg)
    phases = stall_report(report)
    print(f"makespan: {report.makespan:.6f} s")
    print(f"peak resident: {fmt_bytes(report.peak_resident)}")
    print(f"stalls: forward {phases['forward']:.6f} s, "
          f"boundary {phases['boundary']:.6f} s, backward {phases['backward']:.6f} s")
    for ch in ("compute", "d2h", "h2d"):
        print(f"busy[{ch}]: {report.busy[ch]:.3f}")
    if "iterations" in m:
        total = epoch_time(report.makespan, m["iterations"], m.get("host_preproc", 0.0))
        print(f"epoch estimate: {total:.3f} s over {m['iterations']} iterations")
    if trace:
        emit_trace(report, trace)
        print(f"wrote trace {trace}")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote report {report_path}")
    return 0


def cmd_sweep(args) -> int:
    """Each preset is a row of its own; any rewrite flag given adds the grid
    ``--n-tensors`` x ``--lb`` with the other rewrite flags given, and an
    axis left out keeps RewriteConfig's default. The sim cells are
    ``--link`` x ``--bw``, so a link beside a bandwidth is refused."""
    m = vars(args)
    expand = _expander(m)
    rewrite_cfgs = [_rewrite_config({"preset": p}) for p in _csv(m.get("presets", ""), str)]
    # The RewriteConfig fields given (sweep's own key is presets, not preset).
    grid = {k: m[k] for k in _REWRITE.types if m.get(k)}
    if grid:
        nts, lbs = ([{k: v} for v in _csv(grid.pop(k), int)] if k in grid else [{}]
                    for k in ("n_tensors", "lb"))
        rewrite_cfgs += [_flag_rewrite_config(grid | nt | lb) for nt in nts for lb in lbs]
    if not rewrite_cfgs:
        raise UsageError("empty sweep grid: give --presets or a rewrite flag")

    links = [{"link": name} for name in _csv(m.get("link", ""), str)] or [{}]
    bws = [{"d2h_bw": b, "h2d_bw": b} for b in _csv(m.get("bw", ""), float)] or [{}]
    sim_cfgs = [_sim_config(m | link | bw) for link in links for bw in bws]

    tg = expand(load_graph(args.graph))
    rows = sweep(tg, rewrite_cfgs, sim_cfgs)
    header = list(rows[0])  # the row keys, in sim.sweep's order

    def cell(v) -> str:
        if isinstance(v, list):  # scope patterns
            return ",".join(v) or "-"
        return "-" if v is None else f"{v:g}" if isinstance(v, float) else str(v)

    def fmt_row(values):
        return "  ".join(cell(v).ljust(max(len(h), 12)) for v, h in zip(values, header))

    print("\n".join([fmt_row(header)] + [fmt_row(row.values()) for row in rows]))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical({"version": 1, "rows": rows}))
        print(f"wrote {args.output}")
    return 0


def cmd_verify(args) -> int:
    from .numeric import equivalence_check, grad_check
    from .props import make_broken_swap_variant, run_invariant_suite

    m = vars(args)
    seeds = parse_seed_spec(m["seeds"])
    check_fields(equivalence_check, {"seeds": seeds})
    suite_kw = {k: m[k] for k in ("instances", "seed") if k in m}
    check_fields(run_invariant_suite, suite_kw)
    failures: list[str] = []

    chain_tg = expand_training_graph(gen_chain(8, bytes_per_tensor=48,
                                               kinds=("conv", "activation", "norm")))
    unet_tg = expand_training_graph(gen_unet3d(UNetParams(
        dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2, convs_per_level=1)))
    cfgs = {preset: resolve_preset(preset) for preset in sorted(PRESETS)} | {
        f"recompute-{policy}": RewriteConfig(mode="recompute", ckpt_policy=policy)
        for policy in ("speed", "sqrt_n")}

    for label, tg in (("chain", chain_tg), ("unet-toy", unet_tg)):
        variants = [(name, *apply_rewrite(tg, cfg)) for name, cfg in cfgs.items()]
        if label == "chain" and "inject_use_after_swap" in m:
            variants.append(("injected-broken-plan",) + make_broken_swap_variant(chain_tg))
        for row in equivalence_check(tg, variants, seeds):
            if row["error"] or row["deviation"] != 0.0:
                failures.append(f"equivalence[{label}/{row['label']}]: "
                                f"deviation={row['deviation']} {row['error']}")
        for seed in seeds[:3]:
            rep = grad_check(tg, seed=seed)
            if rep.max_rel_error >= 1e-4:
                failures.append(f"grad-check[{label}] seed {seed}: {rep.max_rel_error}")

    suite = run_invariant_suite(**suite_kw)
    failures.extend(suite["failures"])
    print(f"invariant suite: {suite['instances']} instances, {suite['checks']} checks, "
          f"{suite['oracle_runs']} schedule-oracle runs")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"verify: all checks passed ({len(seeds)} seeds)")
    return 0


def _rewrite_flags(p: argparse.ArgumentParser, knob: type) -> None:
    """The flags that ``rewrite`` and ``sweep`` share: RewriteConfig's
    fields, ``--n-tensors`` and ``--lb`` read by ``knob``, and the training
    graph's static bytes and backward cost ratio (``_expander``)."""
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--n-tensors", type=knob)
    p.add_argument("--lb", type=knob)
    p.add_argument("--excl-scopes")
    p.add_argument("--incl-scopes")
    p.add_argument("--ckpt-policy", choices=CKPT_POLICIES)
    p.add_argument("--manual-ckpts")
    p.add_argument("--static-bytes")
    p.add_argument("--backward-cost-ratio", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Model training graphs under a GPU memory budget: swap/recompute "
                    "rewrites plus a deterministic schedule simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag is absent from the namespace unless given (SUPPRESS), so the
    # builders above apply the library defaults and value rules to flags and
    # scenario files alike. The defaults of the CLI's own are output paths,
    # verify's --seeds and rewrite and sweep's mode (_flag_rewrite_config).

    p_gen = sub.add_parser("generate", help="generate a workload graph file")
    gen_sub = p_gen.add_subparsers(dest="workload", required=True)
    p_unet = gen_sub.add_parser("unet", help="3D U-Net forward graph", argument_default=SUPPRESS)
    p_unet.add_argument("--dims", type=int, nargs=3, required=True)
    p_unet.add_argument("--in-channels", type=int)
    p_unet.add_argument("--base-filters", type=int)
    p_unet.add_argument("--depth", type=int)
    p_unet.add_argument("--elem-bytes", type=int)
    p_unet.add_argument("--convs-per-level", type=int)
    p_unet.add_argument("-o", "--output", required=True)
    p_unet.set_defaults(func=cmd_generate, kind="unet3d")
    p_chain = gen_sub.add_parser("chain", help="linear chain graph", argument_default=SUPPRESS)
    p_chain.add_argument("--n", type=int, required=True)
    p_chain.add_argument("--bytes-per-tensor", type=int)
    p_chain.add_argument("--cost", dest="cost_per_op", metavar="COST", type=float)
    p_chain.add_argument("--kinds")
    p_chain.add_argument("-o", "--output", required=True)
    p_chain.set_defaults(func=cmd_generate, kind="chain")

    p_rw = sub.add_parser("rewrite", help="expand to a training graph and apply a rewrite",
                          argument_default=SUPPRESS)
    p_rw.add_argument("graph")
    p_rw.add_argument("--preset", choices=sorted(PRESETS))
    _rewrite_flags(p_rw, int)
    p_rw.add_argument("--out-graph", default="training_graph.json")
    p_rw.add_argument("--out-plan", default="plan.json")
    p_rw.add_argument("--liveness", default=None,
                      help="write the per-tensor residency intervals as JSON")
    p_rw.set_defaults(func=cmd_rewrite)

    p_sim = sub.add_parser("simulate", help="simulate a rewritten training graph",
                           argument_default=SUPPRESS)
    p_sim.add_argument("graph", nargs="?")
    p_sim.add_argument("plan", nargs="?")
    p_sim.add_argument("--scenario",
                       help="scenario file binding generator, rewrite and sim configs")
    p_sim.add_argument("--compute-rate", type=float)
    p_sim.add_argument("--d2h-bw", type=float)
    p_sim.add_argument("--h2d-bw", type=float)
    p_sim.add_argument("--link", choices=sorted(LINKS))
    p_sim.add_argument("--latency", dest="xfer_latency", metavar="LATENCY", type=float)
    p_sim.add_argument("--budget", dest="gpu_budget", metavar="BUDGET")
    p_sim.add_argument("--enforce-budget", action="store_true")
    p_sim.add_argument("--calibrate-target", type=float)
    p_sim.add_argument("--trace")
    p_sim.add_argument("--report")
    p_sim.add_argument("--iterations", type=int,
                       help="also print the epoch-time estimate for N iterations")
    p_sim.add_argument("--host-preproc", type=float)
    p_sim.set_defaults(func=cmd_simulate)

    p_sw = sub.add_parser("sweep", help="simulate a grid of rewrite/sim configurations",
                          argument_default=SUPPRESS)
    p_sw.add_argument("graph")
    p_sw.add_argument("--presets")
    _rewrite_flags(p_sw, str)  # --n-tensors and --lb as comma-separated lists
    p_sw.add_argument("--bw")
    p_sw.add_argument("--link")
    p_sw.add_argument("--compute-rate", type=float)
    p_sw.add_argument("--latency", dest="xfer_latency", metavar="LATENCY", type=float)
    p_sw.add_argument("-o", "--output", default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="equivalence, gradient and invariant suites",
                           argument_default=SUPPRESS)
    p_ver.add_argument("--seeds", default="1..20")
    p_ver.add_argument("--instances", type=int)
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--inject-use-after-swap", action="store_true")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and not vars(args).keys() & {"scenario", "graph"}:
        parser.error("simulate needs GRAPH PLAN or --scenario")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
