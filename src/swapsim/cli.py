"""Command-line front end: generate, rewrite, simulate, sweep, verify.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import math
import sys

from .graph import (GraphError, dumps_canonical, load_document, load_graph, save_graph,
                    validate_graph)
from .models import UNetParams, gen_chain, gen_unet3d
from .training import (BACKWARD_COST_RATIO, expand_training_graph, load_training_graph,
                       save_training_graph, static_peak_estimate)
from .rewrite import (PRESETS, RewriteConfig, apply_rewrite, check_rewrite_validity,
                      load_plan, resolve_preset, save_plan)
from .sim import (SimConfig, calibrate_compute_rate, emit_trace, epoch_time,
                  simulate, stall_report, sweep)

LINKS = {
    "nvlink1": (40e9, 40e9),  # 80 GB/s bidirectional split across directions
    "pcie3": (16e9, 16e9),    # 32 GB/s bidirectional split across directions
}


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
        return [kind(x) for x in str(text).split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"invalid {kind.__name__} list {text!r}") from None


def _names(value) -> tuple[str, ...]:
    """Scope patterns or node ids: a comma-separated flag or a scenario list."""
    if isinstance(value, str):
        value = value.split(",")
    return tuple(s for s in value if s)


def _rewrite_config(m) -> RewriteConfig:
    """A rewrite config from a scenario's ``rewrite`` object or the parsed
    flags; keys the mapping lacks keep RewriteConfig's defaults."""
    if m.get("preset") is not None:
        return resolve_preset(m["preset"])
    kw = {k: m[k] for k in ("mode", "n_tensors", "lb", "ckpt_policy") if k in m}
    kw.update({k: _names(m[k]) for k in ("excl_scopes", "incl_scopes", "manual_ckpts")
               if k in m})
    return RewriteConfig(**kw)


def _sim_config(m) -> SimConfig:
    """A simulator config from a scenario's ``sim`` object or the parsed
    flags; keys the mapping lacks keep SimConfig's defaults, and a ``link``
    preset sets both bandwidths."""
    kw = {k: m[k] for k in ("compute_rate", "d2h_bw", "h2d_bw", "xfer_latency") if k in m}
    if m.get("link"):
        if m["link"] not in LINKS:
            raise UsageError(f"unknown link preset {m['link']!r}; "
                             f"expected one of {sorted(LINKS)}")
        kw["d2h_bw"], kw["h2d_bw"] = LINKS[m["link"]]
    return SimConfig(**kw, gpu_budget=parse_bytes(m.get("gpu_budget") or 0),
                     enforce_budget=bool(m.get("enforce_budget")))


def _generated_graph(m):
    """The forward graph of a scenario's ``generator`` object or the parsed
    ``generate`` flags; keys the mapping lacks, and empty ``kinds``, keep
    the defaults of UNetParams and gen_chain."""
    if m["kind"] == "unet3d":
        kw = {k: m[k] for k in ("in_channels", "base_filters", "depth", "elem_bytes",
                                "convs_per_level") if k in m}
        return gen_unet3d(UNetParams(dims=tuple(m["dims"]), **kw))
    if m["kind"] == "chain":
        kw = {k: m[k] for k in ("bytes_per_tensor", "cost_per_op") if k in m}
        kinds = _names(m.get("kinds", ()))
        if kinds:
            kw["kinds"] = kinds
        return gen_chain(m["n"], **kw)
    raise GraphError(f"unknown generator kind {m.get('kind')!r}")


def cmd_generate(args) -> int:
    g = _generated_graph(vars(args))
    save_graph(g, args.output)
    print(f"wrote {args.output}: {len(g.nodes)} nodes, {len(g.tensors)} tensors")
    return 0


def cmd_rewrite(args) -> int:
    tg = expand_training_graph(load_graph(args.graph), static_bytes=parse_bytes(args.static_bytes),
                               backward_cost_ratio=args.backward_cost_ratio)
    rewritten, plan = apply_rewrite(tg, _rewrite_config(vars(args)))
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
    g = _generated_graph(sc["generator"])
    tg = expand_training_graph(g, static_bytes=parse_bytes(sc.get("static_bytes", 0)))
    cfg = _rewrite_config(sc.get("rewrite", {}))
    cfg.validate()
    sm = sc.get("sim", {})
    if "static_bytes" in sm:
        raise GraphError('"sim.static_bytes" moved to the top-level "static_bytes"')
    sim_cfg = _sim_config(sm)
    sim_cfg.validate()
    cal = sm.get("calibrate")
    calibration = (_rewrite_config({"preset": cal.get("preset")}),
                   float(cal["target_seconds"])) if cal else None
    outputs = sc.get("outputs", {})
    return tg, cfg, sim_cfg, calibration, outputs.get("trace"), outputs.get("report")


def cmd_simulate(args) -> int:
    """Flags and a scenario file each give a graph, its plan, a simulator
    config, a calibration (graph, plan, target seconds) or None, and output
    paths; one path runs them. A scenario calibrates on its own rewrite."""
    calibration = None
    if args.scenario:
        tg, cfg, sim_cfg, calibration, trace, report_path = load_document(
            args.scenario, "scenario", _scenario_from_obj)
        if calibration:  # (rewrite config, target seconds)
            calibration = (*apply_rewrite(tg, calibration[0]), calibration[1])
        tg, plan = apply_rewrite(tg, cfg)
    else:
        tg = load_training_graph(args.graph)
        violations = validate_graph(tg.graph)
        if violations:
            raise GraphError(f"training-graph file {args.graph}: invalid graph: {violations[0]}")
        plan = load_plan(args.plan) if args.plan else None
        sim_cfg = _sim_config(vars(args))
        if args.calibrate_target is not None:
            calibration = (tg, plan, args.calibrate_target)
        trace, report_path = args.trace, args.report
    if calibration:
        cal_tg, cal_plan, target = calibration
        sim_cfg.compute_rate = calibrate_compute_rate(cal_tg, cal_plan, sim_cfg, target)
        print(f"calibrated compute_rate: {sim_cfg.compute_rate:.6g} units/s")
    report = simulate(tg, plan, sim_cfg)
    phases = stall_report(report)
    print(f"makespan: {report.makespan:.6f} s")
    print(f"peak resident: {fmt_bytes(report.peak_resident)}")
    print(f"stalls: forward {phases['forward']:.6f} s, "
          f"boundary {phases['boundary']:.6f} s, backward {phases['backward']:.6f} s")
    for ch in ("compute", "d2h", "h2d"):
        print(f"busy[{ch}]: {report.busy[ch]:.3f}")
    if not args.scenario and args.iterations is not None:
        total = epoch_time(report.makespan, args.iterations, args.host_preproc)
        print(f"epoch estimate: {total:.3f} s over {args.iterations} iterations")
    if trace:
        emit_trace(report, trace)
        print(f"wrote trace {trace}")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote report {report_path}")
    return 0


def cmd_sweep(args) -> int:
    tg = expand_training_graph(load_graph(args.graph), static_bytes=parse_bytes(args.static_bytes))

    rewrite_cfgs: list[RewriteConfig] = []
    if args.presets:
        rewrite_cfgs.extend(resolve_preset(p.strip()) for p in args.presets.split(",") if p.strip())
    if args.lb or args.n_tensors:
        # A grid axis left out keeps RewriteConfig's default.
        lbs = [{"lb": lb} for lb in _csv(args.lb, int)] if args.lb else [{}]
        nts = [{"n_tensors": nt} for nt in _csv(args.n_tensors, int)] if args.n_tensors else [{}]
        for nt in nts:
            for lb in lbs:
                rewrite_cfgs.append(_rewrite_config({"mode": args.mode, **nt, **lb,
                                                     "excl_scopes": args.excl_scopes}))
    if not rewrite_cfgs:
        raise UsageError("empty sweep grid: give --presets or --lb/--n-tensors")

    if args.link:
        sims = [{"link": name.strip()} for name in args.link.split(",") if name.strip()]
    elif args.bw:
        sims = [{"d2h_bw": b, "h2d_bw": b} for b in _csv(args.bw, float)]
    else:
        sims = [{}]
    sim_cfgs = [_sim_config({**vars(args), **m}) for m in sims]

    rows = sweep(tg, rewrite_cfgs, sim_cfgs)
    header = ["n_tensors", "lb", "mode", "d2h_bw", "h2d_bw", "swapped",
              "makespan", "peak_resident", "boundary_stall", "backward_stall", "error"]
    widths = [max(len(h), 12) for h in header]

    def fmt_row(values):
        cells = [f"{v:g}" if isinstance(v, float) else str(v) for v in values]
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = [fmt_row(header)]
    for row in rows:
        lines.append(fmt_row([row[h] if row[h] is not None else "-" for h in header]))
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical({"version": 1, "rows": rows}))
        print(f"wrote {args.output}")
    return 0


def cmd_verify(args) -> int:
    from .numeric import equivalence_check, grad_check
    from .props import make_broken_swap_variant, run_invariant_suite

    seeds = parse_seed_spec(args.seeds)
    failures: list[str] = []

    chain_tg = expand_training_graph(gen_chain(8, bytes_per_tensor=48,
                                               kinds=("conv", "activation", "norm")))
    unet_tg = expand_training_graph(gen_unet3d(UNetParams(
        dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2, convs_per_level=1)))

    for label, tg in (("chain", chain_tg), ("unet-toy", unet_tg)):
        variants = []
        for preset in sorted(PRESETS):
            variants.append((preset,) + apply_rewrite(tg, resolve_preset(preset)))
        for policy in ("speed", "sqrt_n"):
            cfg = _rewrite_config({"mode": "recompute", "ckpt_policy": policy})
            variants.append((f"recompute-{policy}",) + apply_rewrite(tg, cfg))
        if label == "chain" and args.inject_use_after_swap:
            variants.append(("injected-broken-plan",) + make_broken_swap_variant(chain_tg))
        for row in equivalence_check(tg, variants, seeds):
            if row["error"] or row["deviation"] != 0.0:
                failures.append(f"equivalence[{label}/{row['label']}]: "
                                f"deviation={row['deviation']} {row['error']}")
        for seed in seeds[:3]:
            rep = grad_check(tg, seed=seed)
            if rep.max_rel_error >= 1e-4:
                failures.append(f"grad-check[{label}] seed {seed}: {rep.max_rel_error}")

    suite = run_invariant_suite(instances=args.instances, seed=args.seed)
    failures.extend(suite["failures"])
    print(f"invariant suite: {suite['instances']} instances, {suite['checks']} checks, "
          f"{suite['oracle_runs']} schedule-oracle runs")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"verify: all checks passed ({len(seeds)} seeds)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Model training graphs under a GPU memory budget: swap/recompute "
                    "rewrites plus a deterministic schedule simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a workload graph file")
    gen_sub = p_gen.add_subparsers(dest="workload", required=True)
    p_unet = gen_sub.add_parser("unet", help="3D U-Net forward graph")
    p_unet.add_argument("--dims", type=int, nargs=3, required=True)
    # Generator flags left out are absent from the namespace (SUPPRESS), so
    # that _generated_graph applies the library defaults to flags and
    # scenario files alike.
    p_unet.add_argument("--in-channels", type=int, default=argparse.SUPPRESS)
    p_unet.add_argument("--base-filters", type=int, default=argparse.SUPPRESS)
    p_unet.add_argument("--depth", type=int, default=argparse.SUPPRESS)
    p_unet.add_argument("--elem-bytes", type=int, default=argparse.SUPPRESS)
    p_unet.add_argument("--convs-per-level", type=int, default=argparse.SUPPRESS)
    p_unet.add_argument("-o", "--output", required=True)
    p_unet.set_defaults(func=cmd_generate, kind="unet3d")
    p_chain = gen_sub.add_parser("chain", help="linear chain graph")
    p_chain.add_argument("--n", type=int, required=True)
    p_chain.add_argument("--bytes-per-tensor", type=int, default=argparse.SUPPRESS)
    p_chain.add_argument("--cost", dest="cost_per_op", metavar="COST", type=float,
                         default=argparse.SUPPRESS)
    p_chain.add_argument("--kinds", default=argparse.SUPPRESS)
    p_chain.add_argument("-o", "--output", required=True)
    p_chain.set_defaults(func=cmd_generate, kind="chain")

    p_rw = sub.add_parser("rewrite", help="expand to a training graph and apply a rewrite")
    p_rw.add_argument("graph")
    p_rw.add_argument("--preset", choices=sorted(PRESETS), default=None)
    # As for generate: flags left out keep the config dataclasses' defaults,
    # except --mode, whose CLI default is swap.
    p_rw.add_argument("--mode", choices=["swap", "recompute", "none"], default="swap")
    p_rw.add_argument("--n-tensors", type=int, default=argparse.SUPPRESS)
    p_rw.add_argument("--lb", type=int, default=argparse.SUPPRESS)
    p_rw.add_argument("--excl-scopes", default=argparse.SUPPRESS)
    p_rw.add_argument("--incl-scopes", default=argparse.SUPPRESS)
    p_rw.add_argument("--ckpt-policy", choices=["speed", "sqrt_n", "manual"],
                      default=argparse.SUPPRESS)
    p_rw.add_argument("--manual-ckpts", default=argparse.SUPPRESS)
    p_rw.add_argument("--static-bytes", default="0")
    p_rw.add_argument("--backward-cost-ratio", type=float, default=BACKWARD_COST_RATIO)
    p_rw.add_argument("--out-graph", default="training_graph.json")
    p_rw.add_argument("--out-plan", default="plan.json")
    p_rw.add_argument("--liveness", default=None,
                      help="write the per-tensor residency intervals as JSON")
    p_rw.set_defaults(func=cmd_rewrite)

    p_sim = sub.add_parser("simulate", help="simulate a rewritten training graph")
    p_sim.add_argument("graph", nargs="?")
    p_sim.add_argument("plan", nargs="?")
    p_sim.add_argument("--scenario", default=None,
                       help="scenario file binding generator, rewrite and sim configs")
    p_sim.add_argument("--compute-rate", type=float, default=argparse.SUPPRESS)
    p_sim.add_argument("--d2h-bw", type=float, default=argparse.SUPPRESS)
    p_sim.add_argument("--h2d-bw", type=float, default=argparse.SUPPRESS)
    p_sim.add_argument("--link", choices=sorted(LINKS), default=None)
    p_sim.add_argument("--latency", dest="xfer_latency", metavar="LATENCY", type=float,
                       default=argparse.SUPPRESS)
    p_sim.add_argument("--budget", dest="gpu_budget", metavar="BUDGET", default="")
    p_sim.add_argument("--enforce-budget", action="store_true")
    p_sim.add_argument("--calibrate-target", type=float, default=None)
    p_sim.add_argument("--trace", default=None)
    p_sim.add_argument("--report", default=None)
    p_sim.add_argument("--iterations", type=int, default=None,
                       help="also print the epoch-time estimate for N iterations")
    p_sim.add_argument("--host-preproc", type=float, default=0.0)
    p_sim.set_defaults(func=cmd_simulate)

    p_sw = sub.add_parser("sweep", help="simulate a grid of rewrite/sim configurations")
    p_sw.add_argument("graph")
    p_sw.add_argument("--presets", default="")
    p_sw.add_argument("--mode", choices=["swap", "recompute", "none"], default="swap")
    p_sw.add_argument("--n-tensors", default="")
    p_sw.add_argument("--lb", default="")
    p_sw.add_argument("--excl-scopes", default="")
    p_sw.add_argument("--bw", default="")
    p_sw.add_argument("--link", default="")
    p_sw.add_argument("--compute-rate", type=float, default=argparse.SUPPRESS)
    p_sw.add_argument("--latency", dest="xfer_latency", metavar="LATENCY", type=float,
                      default=argparse.SUPPRESS)
    p_sw.add_argument("--static-bytes", default="0")
    p_sw.add_argument("-o", "--output", default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="equivalence, gradient and invariant suites")
    p_ver.add_argument("--seeds", default="1..20")
    p_ver.add_argument("--instances", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--inject-use-after-swap", action="store_true")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and not args.scenario and not args.graph:
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
