"""swapsim host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload chain-scale --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --trace 1

One workload per run; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.
``--all`` runs every workload in its own process and prints one row per
workload. Traces and full results are written under ``.perfbench/``.
See perfbench/README.md for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from harness import Recorder, Tally, capture, median, now, peak_rss_kib, ratio
from workloads import WORKLOADS, import_swapsim_cli

SETUP_REPEATS = 7
PYTHON_START_REPEATS = 5
OUT_DIR = ".perfbench"

# The --all table: each workload's headline metrics, by name and unit.
HEADLINE_METRICS = (
    ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("error_rate", "ratio"),
    ("cli_p50_s", "s"), ("cli_tail_s", "s"), ("sim_events_per_s", "events/s"),
    ("calibrate_s", "s"), ("chain_pipeline_s", "s"), ("chain_scaling_x", "ratio"),
    ("verify_s", "s"), ("pass_s", "s"), ("key_op_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here at all."""


def load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"no BENCHMARK.json in {root}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def use_checkout_sources(root: str) -> str:
    """Import swapsim from this checkout's src/ and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "swapsim", "__init__.py")):
        raise BenchError(f"no swapsim sources under {src}")
    sys.path.insert(0, src)
    return src


def check_imported_from(src: str) -> None:
    import swapsim
    if not os.path.abspath(swapsim.__file__).startswith(os.path.abspath(src) + os.sep):
        raise BenchError(f"swapsim was imported from {swapsim.__file__}, not {src}")


def probe_setup(root: str, src: str, workload: str, seed: int) -> None:
    """One timed set-up in this fresh process: import plus input generation."""
    start = now()
    numpy_loaded = import_swapsim_cli()
    imported = now()
    check_imported_from(src)
    w = WORKLOADS[workload](root, seed)
    try:
        w.setup(Recorder(workload, tracing=False))
        done = now()
    finally:
        w.cleanup()
    print(json.dumps({"setup_s": done - start, "import_s": imported - start,
                      "numpy_loaded": int(numpy_loaded)}))


class SetupProbes:
    """Set-up timed in fresh processes, several times per run."""

    def __init__(self, root: str, src: str, workload: str, seed: int):
        self.argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
                     "--probe-setup", "--workload", workload, "--seed", str(seed)]
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=src)
        self.results: list[dict] = []

    def take(self) -> None:
        rc, _, out = capture(self.argv, self.root, self.env)
        if rc != 0:
            raise BenchError(f"set-up probe exited with {rc}")
        self.results.append(json.loads(out.strip().splitlines()[-1]))

    def summary(self) -> dict:
        while len(self.results) < SETUP_REPEATS:
            self.take()
        return {"setup_s": median(p["setup_s"] for p in self.results),
                "import.swapsim_s": median(p["import_s"] for p in self.results),
                "import.numpy_loaded": max(p["numpy_loaded"] for p in self.results)}


def measure_python_start(root: str) -> float:
    walls = []
    for _ in range(PYTHON_START_REPEATS):
        rc, wall, _ = capture([sys.executable, "-c", "pass"], root)
        if rc != 0:
            raise BenchError("bare interpreter start failed")
        walls.append(wall)
    return median(walls)


def run_passes(workload, rec: Recorder, tally: Tally, probes: SetupProbes, args) -> int:
    """Repeat passes for ``args.seconds``; returns the number completed.

    With --trace 1, untraced and traced passes alternate. Set-up probes are
    spread evenly over the run, so that a burst of load from elsewhere on
    the machine cannot cover all of them.
    """
    min_passes = max(workload.min_passes, 2 if args.trace else 1)
    start = now()
    last = 0.0
    passes = 0
    while passes < min_passes or now() - start + last <= args.seconds:
        if len(probes.results) < SETUP_REPEATS * min(1.0, (now() - start) / args.seconds):
            probes.take()
        traced = bool(args.trace) and passes % 2 == 1
        rec.tracing, rec.pass_index, tally.traced = traced, passes, traced
        begun = now()
        try:
            workload.run_pass(rec, tally, first=passes == 0)
        except Exception:
            traceback.print_exc()
            tally.op(False, f"pass {passes}: {traceback.format_exc(limit=3)}")
            break
        last = now() - begun
        tally.end_pass()
        passes += 1
    return passes


def layer_metrics(self_times: dict) -> dict:
    """Median self time per traced call, by span name. A stage run at two
    sizes, one twice the other, is named at the larger size and also gives
    ``<name>_s.scaling_x``, the ratio of the two medians."""
    by_name: dict[str, dict[int, float]] = {}
    for (name, size), times in self_times.items():
        if not name.startswith("bench."):  # the benchmark's own grouping spans
            by_name.setdefault(name, {})[size] = median(times)
    out = {}
    for name, sizes in sorted(by_name.items()):
        out[f"{name}_s"] = sizes[max(sizes)]
        sized = sorted(s for s in sizes if s > 0)
        if len(sized) == 2 and sized[1] == 2 * sized[0]:
            out[f"{name}_s.scaling_x"] = ratio(sizes[sized[1]], sizes[sized[0]])
    return out


def run_workload(root: str, src: str, spec: dict, args) -> dict:
    workload = WORKLOADS[args.workload](root, args.seed)
    probes = SetupProbes(root, src, args.workload, args.seed)
    probes.take()
    python_start = measure_python_start(root) if args.trace else 0.0

    rec = Recorder(args.workload, tracing=bool(args.trace))
    rec.pass_index = -1
    tally = Tally()
    try:
        workload.setup(rec)
        check_imported_from(src)
        passes = run_passes(workload, rec, tally, probes, args)
    finally:
        workload.cleanup()
    if not passes:
        raise BenchError(f"{args.workload}: no pass completed; {tally.messages}")
    setup = probes.summary()

    rss_mib = (peak_rss_kib() if workload.in_process else tally.child_peak_kib) / 1024.0
    end_to_end = {"setup_s": setup["setup_s"], "peak_rss_mib": rss_mib,
                  "pass_s": min(tally.samples["pass"]), "key_op_s": workload.key_op(tally)}
    headline = {"setup_s": setup["setup_s"], "peak_rss_mib": rss_mib,
                "error_rate": ratio(tally.failed, tally.attempted),
                **workload.headline(tally)}
    per_layer = {"import.python_s": python_start,
                 "import.swapsim_s": setup["import.swapsim_s"],
                 "import.numpy_loaded": setup["import.numpy_loaded"],
                 **{k: v / passes for k, v in tally.counts.items()},
                 **tally.simulated}
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    if args.trace:
        self_times = rec.self_times()
        per_layer.update(layer_metrics(self_times))
        traced_passes = tally.traced_samples["pass"]
        per_layer["trace.overhead_s"] = min(traced_passes) - min(tally.samples["pass"])
        simulated_events = tally.counts.get("sim.events", 0) / passes * len(traced_passes)
        per_layer["sim.us_per_event"] = ratio(
            1e6 * sum(sum(t) for (name, _), t in self_times.items() if name == "sim.simulate"),
            simulated_events)
        rec.write_chrome_trace(os.path.join(root, OUT_DIR, f"trace-{args.workload}.json"))

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "fingerprint": tally.fingerprint,
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.messages, "end_to_end": end_to_end, "headline": headline,
        "per_layer": per_layer, "samples": tally.samples, "setup_probes": probes.results,
    }
    with open(os.path.join(root, OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    # A per-layer metric of a stage this workload does not run reads 0.
    if args.trace:
        source, listed = {**headline, **per_layer}, spec["per_layer"]
    else:
        source, listed = end_to_end, spec["end_to_end"]
    metrics = {m["name"]: {"value": source.get(m["name"], 0), "unit": m["unit"]}
               for m in listed}
    print_summary(result, metrics)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_summary(result: dict, metrics: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['passes']} passes, {result['attempted']} operations, "
          f"{result['failed']} failed")
    print(f"fingerprint: {result['fingerprint']}")
    for message in result["failures"]:
        print(f"FAIL {message}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if result["trace"]:
        for name, value in sorted(result["per_layer"].items()):
            if name not in metrics:
                print(f"  {name:40s} {value:.6g}")


def run_all(root: str, args) -> int:
    """Every workload in its own process; one table row per workload."""
    rows = []
    ok = True
    for name in WORKLOADS:
        rc, _, out = capture([sys.executable, os.path.join(root, "perfbench", "run.py"),
                              "--workload", name, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)],
                             root, timeout=600)
        print(out, end="")
        if rc != 0:
            print(f"{name}: exited with {rc}", file=sys.stderr)
            ok = False
            continue
        with open(os.path.join(root, OUT_DIR, f"result-{name}-trace{args.trace}.json"),
                  encoding="utf-8") as fh:
            result = json.load(fh)
        ok = ok and result["correct"]
        rows.append(result)
    print()
    width = max(len(n) for n, _ in HEADLINE_METRICS) + 2
    print("workload".ljust(16) + "".join(n.rjust(width) for n, _ in HEADLINE_METRICS))
    print("".ljust(16) + "".join(f"[{u}]".rjust(width) for _, u in HEADLINE_METRICS))
    for r in rows:
        values = {**r["headline"], **r["end_to_end"]}
        cells = [f"{values[n]:.6g}" if n in values else "-" for n, _ in HEADLINE_METRICS]
        print(r["workload"].ljust(16) + "".join(c.rjust(width) for c in cells))
    for r in rows:
        print(f"{r['workload']}: fingerprint {r['fingerprint']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")

    root = os.getcwd()
    try:
        spec = load_spec(root)
        src = use_checkout_sources(root)
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.probe_setup:
            probe_setup(root, src, args.workload, args.seed)
            return 0
        if args.all:
            return run_all(root, args)
        line = run_workload(root, src, spec, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
