"""The four benchmark workloads.

Each workload is a closed loop in one process: one caller that waits for
every call (or CLI subprocess) to finish before starting the next. A pass is
one run over the workload's fixed operation mix; the runner repeats passes
for the measuring time. ``setup`` is the import plus input generation that
``setup_s`` times; swapsim is imported there, not at module level, so that
the import is part of what is timed.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

from checker import (check_budget, check_calibrated, check_schedule, edges_of_document,
                     edges_of_graph)
from harness import Recorder, Tally, median, now, percentile, ratio, spawn

GIB = 2**30
TARGET_S = 4.726            # README calibration target, seconds per iteration
XFER_LATENCY = 1e-5         # README scenario transfer latency
LINKS = (("nvlink1", 40e9), ("pcie3", 16e9))
BUDGET = 16 * GIB
CLI_TAIL_PERCENTILE = 75    # cli_tail_s; needs CLI_MIN_PASSES * 5 >= 40 samples
CLI_MIN_PASSES = 8
CHAIN_SIZES = (4000, 8000)
CHAIN_KINDS = ("conv", "norm", "activation")
NUMERIC_SIZES = (1000, 2000)
VERIFY_SEEDS = tuple(range(1, 21))   # swapsim verify --seeds 1..20
VERIFY_INSTANCES = 200               # swapsim verify --instances 200
# The 13 seeded swap cells of unet-sweep draw their knobs from these values.
SEEDED_N_TENSORS = (-1, -1, -1, -1, -1, -1, 1, 8, 16, 24, 36, 48, 64)
SEEDED_LB = (1, 2, 4, 6, 8, 10, 13, 16, 20, 24, 28, 32, 40)
SEEDED_EXCL_SCOPES = ((), ("synthesis/*",), ("analysis/l0/*",),
                      ("synthesis/l0/*", "synthesis/l1/*")) * 3 + ((),)


def timed_op(rec: Recorder, tally: Tally, name: str, fn, *args, size: int = 0,
             check=None, **kwargs):
    """One operation: its wall time, and whether its output passes ``check``
    (a function returning violation strings)."""
    start = now()
    out = rec.call(name, fn, *args, size=size, **kwargs)
    seconds = now() - start
    tally.check(f"{name}@{size}" if size else name, check(out) if check else [])
    return out, seconds


def private_dir(root: str, label: str) -> str:
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=base)


def import_swapsim_cli() -> bool:
    """What every swapsim command imports first; True if numpy came with it."""
    import swapsim.cli  # noqa: F401
    return "numpy" in sys.modules


class Workload:
    name = ""
    min_passes = 1
    in_process = True      # False when the work runs in child processes

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.dir = None        # private temp dir, if the workload writes files

    def setup(self, rec: Recorder) -> None:
        """Import and generate inputs."""

    def run_pass(self, rec: Recorder, tally: Tally, first: bool) -> None:
        raise NotImplementedError

    def cleanup(self) -> None:
        if self.dir:
            shutil.rmtree(self.dir, ignore_errors=True)

    def key_op(self, tally: Tally) -> float:
        """Best-of-N host time of the workload's key operation."""
        raise NotImplementedError

    def headline(self, tally: Tally) -> dict:
        """The workload's own end-to-end metrics, by their documented names."""
        return {}


# ---------------------------------------------------------------------------

README_SCENARIO = {
    "generator": {"kind": "unet3d", "dims": [192, 192, 192], "in_channels": 4},
    "rewrite": {"preset": "paper-c4"},
    "sim": {"link": "nvlink1", "xfer_latency": 1e-5,
            "calibrate": {"preset": "paper-c1", "target_seconds": 4.726}},
    "outputs": {"trace": "scenario-trace.json", "report": "scenario-report.json"},
}

CLI_COMMANDS = (
    ("cli.generate", ["generate", "unet", "--dims", "192", "192", "192", "-o", "unet.json"]),
    ("cli.rewrite", ["rewrite", "unet.json", "--preset", "paper-c4", "--out-graph", "tg.json",
                     "--out-plan", "plan.json", "--liveness", "live.json"]),
    ("cli.simulate", ["simulate", "tg.json", "plan.json", "--link", "nvlink1",
                      "--calibrate-target", "4.726", "--trace", "trace.json",
                      "--report", "report.json", "--iterations", "171"]),
    ("cli.sweep", ["sweep", "unet.json", "--presets", "paper-c1,paper-c2,paper-c3,paper-c4",
                   "--compute-rate", "1.345e13", "--link", "nvlink1", "-o", "table.json"]),
    ("cli.scenario", ["simulate", "--scenario", "scenario.json"]),
)
# Simulated outputs that enter the fingerprint, in a fixed order.
CLI_OUTPUTS = ("plan.json", "live.json", "report.json", "trace.json", "table.json",
               "scenario-report.json", "scenario-trace.json")
SWAPSIM_MAIN = "import sys; from swapsim.cli import main; sys.exit(main())"


def same_graph(a, b) -> bool:
    """Equal up to the order of nodes, tensors and control edges, which the
    on-disk format canonicalises."""
    def key(g):
        return (sorted(g.nodes, key=lambda n: n.id), sorted(g.tensors, key=lambda t: t.id),
                sorted(g.control_edges), g.metadata)
    return key(a) == key(b)


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class CliWalkthrough(Workload):
    """The README walkthrough as fresh ``swapsim`` processes."""

    name = "cli-walkthrough"
    min_passes = CLI_MIN_PASSES
    in_process = False

    def setup(self, rec: Recorder) -> None:
        import_swapsim_cli()
        self.dir = private_dir(self.root, self.name)
        with open(os.path.join(self.dir, "scenario.json"), "w", encoding="utf-8") as fh:
            json.dump(README_SCENARIO, fh, indent=2)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def swapsim(self, rec: Recorder, tally: Tally, name: str, argv: list[str], cwd: str):
        rc, wall, peak_kib, err = rec.call(
            name, spawn, [sys.executable, "-c", SWAPSIM_MAIN, *argv], cwd, self.env)
        tally.child_peak_kib = max(tally.child_peak_kib, peak_kib)
        problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()[-300:]}"]
        return wall, problems

    def check_outputs(self, name: str, cwd: str) -> list[str]:
        """Checks on what the command just wrote."""
        def path(f):
            return os.path.join(cwd, f)
        if name == "cli.simulate" or name == "cli.scenario":
            # The README scenario builds the same training graph as steps 1-2.
            node_ids, edges = edges_of_document(read_json(path("tg.json")))
            report = read_json(path("report.json" if name == "cli.simulate"
                                    else "scenario-report.json"))
            bad = check_schedule(report["events"], report["makespan"], node_ids, edges)
            if name == "cli.simulate":
                bad += check_calibrated(report["makespan"], TARGET_S)
            return bad
        if name == "cli.sweep":
            rows = read_json(path("table.json"))["rows"]
            bad = [f"sweep row error: {r['error']}" for r in rows if r["error"]]
            return bad + ([] if len(rows) == 4 else [f"{len(rows)} sweep rows, expected 4"])
        if name == "cli.rewrite":
            return [] if read_json(path("live.json"))["peak_bytes"] > 0 else ["empty liveness"]
        return []

    def run_pass(self, rec: Recorder, tally: Tally, first: bool) -> None:
        cwd = tempfile.mkdtemp(prefix="pass-", dir=self.dir)
        shutil.copy(os.path.join(self.dir, "scenario.json"), cwd)
        total = 0.0
        for name, argv in CLI_COMMANDS:
            wall, problems = self.swapsim(rec, tally, name, argv, cwd)
            total += wall
            tally.sample("command", wall)
            tally.sample(f"command:{name}", wall)
            tally.check(name, problems or self.check_outputs(name, cwd))
        tally.sample("pass", total)
        for f in CLI_OUTPUTS:
            with open(os.path.join(cwd, f), "rb") as fh:
                tally.hash(f, fh.read())
        tally.count("cli.bytes_written", sum(
            os.path.getsize(os.path.join(cwd, f)) for f in os.listdir(cwd)
            if f != "scenario.json"))
        if first:
            self.simulate_twice(rec, tally, cwd)
        shutil.rmtree(cwd)

    def simulate_twice(self, rec: Recorder, tally: Tally, cwd: str) -> None:
        """Step 3 again in a fresh process must write byte-identical files."""
        argv = [a.replace("report.json", "report2.json").replace("trace.json", "trace2.json")
                for a in CLI_COMMANDS[2][1]]
        _, problems = self.swapsim(rec, tally, "bench.determinism", argv, cwd)
        for a, b in (("report.json", "report2.json"), ("trace.json", "trace2.json")):
            with open(os.path.join(cwd, a), "rb") as fa, open(os.path.join(cwd, b), "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{a} differs between two identical runs")
        tally.check("determinism", problems)

    def key_op(self, tally: Tally) -> float:
        """The median command's best-of-N time."""
        return median(min(tally.samples[f"command:{name}"]) for name, _ in CLI_COMMANDS)

    def headline(self, tally: Tally) -> dict:
        commands = tally.samples["command"]
        return {"cli_p50_s": median(commands),
                "cli_tail_s": percentile(commands, CLI_TAIL_PERCENTILE),
                "cli_samples": len(commands)}


# ---------------------------------------------------------------------------

class UnetSweep(Workload):
    """Many short simulations of the paper's U-Net: calibration, a free-run
    grid and the same grid under an enforced 16 GiB budget."""

    name = "unet-sweep"
    SIZES = (192, 208)
    PRESETS = ("paper-c1", "paper-c2", "paper-c3", "paper-c4")

    def setup(self, rec: Recorder) -> None:
        import_swapsim_cli()
        from swapsim import (RewriteConfig, UNetParams, apply_rewrite, expand_training_graph,
                             gen_unet3d, resolve_preset)
        self.tgs = {}
        for d in self.SIZES:
            g = rec.call("models.gen", gen_unet3d, UNetParams(dims=(d, d, d)), size=d)
            self.tgs[d] = rec.call("training.expand", expand_training_graph, g, size=d)
        rewrites = [(p, resolve_preset(p)) for p in self.PRESETS]
        rewrites += [(f"recompute-{p}", RewriteConfig(mode="recompute", ckpt_policy=p))
                     for p in ("speed", "sqrt_n")]
        # A Latin-hypercube sample: every seed uses the same values of each
        # knob, paired differently, so the seed changes the combinations but
        # hardly the total work of a pass.
        rng = random.Random(self.seed)
        knobs = [list(SEEDED_N_TENSORS), list(SEEDED_LB), list(SEEDED_EXCL_SCOPES)]
        for values in knobs:
            rng.shuffle(values)
        for i, (n_tensors, lb, excl) in enumerate(zip(*knobs)):
            cfg = RewriteConfig(mode="swap", n_tensors=n_tensors, lb=lb, excl_scopes=excl)
            rewrites.append((f"seeded-{i}", cfg))
        self.rewrites = rewrites
        self.c1 = apply_rewrite(self.tgs[192], resolve_preset("paper-c1"))

    def sim_config(self, rate: float, bw: float, budget: bool):
        from swapsim import SimConfig
        return SimConfig(compute_rate=rate, d2h_bw=bw, h2d_bw=bw, xfer_latency=XFER_LATENCY,
                         gpu_budget=BUDGET if budget else 0, enforce_budget=budget)

    @staticmethod
    def cell(rec: Recorder, tg, rcfg, scfg):
        """apply_rewrite + simulate + stall_report; deadlock and infeasible
        verdicts are model results, returned rather than raised."""
        from swapsim import DeadlockError, InfeasibleError, apply_rewrite, simulate, stall_report
        rewritten, plan = rec.call("rewrite.apply", apply_rewrite, tg, rcfg)
        try:
            report = rec.call("sim.simulate", simulate, rewritten, plan, scfg)
        except DeadlockError:
            return rewritten, plan, None, None, "deadlock"
        except InfeasibleError:
            return rewritten, plan, None, None, "infeasible"
        return rewritten, plan, report, rec.call("sim.stall_report", stall_report, report), ""

    def run_pass(self, rec: Recorder, tally: Tally, first: bool) -> None:
        from swapsim import calibrate_compute_rate, simulate
        nvlink = self.sim_config(1.0, 40e9, False)
        rate, calibrate_s = timed_op(rec, tally, "sim.calibrate", calibrate_compute_rate,
                                     *self.c1, nvlink, TARGET_S)
        tally.sample("calibrate", calibrate_s)
        report = simulate(*self.c1, self.sim_config(rate, 40e9, False))
        tally.check("calibrated run", check_calibrated(report.makespan, TARGET_S)
                    + check_schedule(report.events, report.makespan,
                                     [n.id for n in self.c1[0].graph.nodes],
                                     edges_of_graph(self.c1[0].graph)))
        tally.hash("rate", repr(rate))
        cells_s = 0.0
        for budget in (False, True):
            for size, tg in self.tgs.items():
                for label, rcfg in self.rewrites:
                    for link, bw in LINKS:
                        scfg = self.sim_config(rate, bw, budget)
                        start = now()
                        rewritten, plan, report, stalls, verdict = rec.call(
                            "bench.cell", self.cell, rec, tg, rcfg, scfg)
                        seconds = now() - start
                        cells_s += seconds
                        tally.sample("cell", seconds)
                        key = f"{size}/{label}/{link}/{'budget' if budget else 'free'}"
                        tally.count("sim.cells", 1)
                        tally.count("rewrite.nodes_added",
                                    len(rewritten.graph.nodes) - len(tg.graph.nodes))
                        tally.hash(key + "/plan", plan.to_json())
                        if verdict:
                            tally.count(f"sim.{verdict}_cells", 1)
                            tally.hash(key + "/verdict", verdict)
                            tally.op()
                            continue
                        self.record_report(tally, key, rewritten, report, stalls, budget)
                        if size == 192 and link == "nvlink1" and not budget \
                                and label in self.PRESETS:
                            c = label[-1]
                            tally.simulated[f"sim.makespan_c{c}"] = report.makespan
                            tally.simulated[f"sim.peak_c{c}"] = report.peak_resident
                            tally.simulated[f"sim.boundary_stall_c{c}"] = stalls["boundary"]
                            if first and c == "1":
                                self.simulate_twice(tally, rewritten, plan, scfg, report)
        tally.sample("pass", calibrate_s + cells_s)

    @staticmethod
    def record_report(tally, key, rewritten, report, stalls, budget) -> None:
        tally.count("sim.events", len(report.events))
        tally.hash(key + "/report", report.to_json())
        tally.hash(key + "/stalls", stalls)
        bad = check_schedule(report.events, report.makespan,
                             [n.id for n in rewritten.graph.nodes], edges_of_graph(rewritten.graph))
        if budget:
            bad += check_budget(report.peak_resident, BUDGET)
        tally.check(key, bad)

    @staticmethod
    def simulate_twice(tally, rewritten, plan, scfg, report) -> None:
        from swapsim import simulate
        again = simulate(rewritten, plan, scfg)
        tally.check("determinism", [] if again.to_json() == report.to_json()
                    else ["paper-c1 192^3 report differs between two identical runs"])

    def key_op(self, tally: Tally) -> float:
        return min(tally.samples["calibrate"])

    def headline(self, tally: Tally) -> dict:
        # Events of completed cells over the host time of all cells, untraced
        # passes only; every pass simulates the same events.
        events = tally.counts.get("sim.events", 0) / len(tally.pass_digests)
        return {"sim_events_per_s": ratio(events * len(tally.samples["pass"]),
                                          sum(tally.samples["cell"])),
                "calibrate_s": median(tally.samples["calibrate"])}


# ---------------------------------------------------------------------------

class ChainScale(Workload):
    """The CLI's rewrite+simulate path on long mixed chains, at two sizes."""

    name = "chain-scale"
    min_passes = 2      # best-of-N needs two passes to shed a burst of outside load

    def setup(self, rec: Recorder) -> None:
        import_swapsim_cli()
        from swapsim import RewriteConfig, SimConfig, resolve_preset
        self.rewrites = (("swap", resolve_preset("paper-c1")),
                         ("recompute", RewriteConfig(mode="recompute", ckpt_policy="sqrt_n")))
        self.sim_cfg = SimConfig(compute_rate=1e12, d2h_bw=40e9, h2d_bw=40e9,
                                 xfer_latency=XFER_LATENCY)
        self.dir = private_dir(self.root, self.name)

    def run_pass(self, rec: Recorder, tally: Tally, first: bool) -> None:
        total = 0.0
        for n in CHAIN_SIZES:
            seconds = rec.call("bench.pipeline", self.pipeline, rec, tally, n, first, size=n)
            tally.sample(f"pipeline@{n}", seconds)
            total += seconds
        tally.sample("pass", total)

    def pipeline(self, rec: Recorder, tally: Tally, n: int, first: bool) -> float:
        from swapsim import (apply_rewrite, check_rewrite_validity, expand_training_graph,
                             gen_chain, load_graph, load_training_graph, save_graph,
                             save_training_graph, simulate, static_peak_estimate)
        total = 0.0

        def stage(name, fn, *args, check=None):
            nonlocal total
            out, seconds = timed_op(rec, tally, name, fn, *args, size=n, check=check)
            total += seconds
            return out

        graph_path = os.path.join(self.dir, f"chain{n}.json")
        tg_path = os.path.join(self.dir, f"chain{n}-training.json")
        g = stage("models.gen", gen_chain, n, 4096, 1e5, CHAIN_KINDS)
        stage("graph.save", save_graph, g, graph_path)
        g = stage("graph.load", load_graph, graph_path,
                  check=lambda loaded: [] if same_graph(loaded, g)
                  else ["graph changed on save/load"])
        tg = stage("training.expand", expand_training_graph, g)
        for label, cfg in self.rewrites:
            rewritten, plan = stage(f"rewrite.{label}", apply_rewrite, tg, cfg)
            tally.count("rewrite.nodes_added", len(rewritten.graph.nodes) - len(tg.graph.nodes))
            stage(f"rewrite.validity_{label}", check_rewrite_validity, tg, rewritten, plan,
                  check=lambda violations: [str(v) for v in violations])
            liveness = stage("training.liveness", static_peak_estimate, rewritten, plan)
            stage("training.save", save_training_graph, rewritten, tg_path)
            loaded = stage("training.load", load_training_graph, tg_path, check=lambda t: (
                [] if same_graph(t.graph, rewritten.graph)
                and (t.serial_order, sorted(t.reuse_edges), t.grad_of)
                == (rewritten.serial_order, sorted(rewritten.reuse_edges), rewritten.grad_of)
                else ["training graph changed on save/load"]))
            report = stage("sim.simulate", simulate, loaded, plan, self.sim_cfg,
                           check=lambda r: check_schedule(
                               r.events, r.makespan, [x.id for x in loaded.graph.nodes],
                               edges_of_graph(loaded.graph)))
            tally.count("sim.events", len(report.events))
            key = f"{n}/{label}"
            tally.hash(key + "/plan", plan.to_json())
            tally.hash(key + "/liveness", liveness.to_json())
            tally.hash(key + "/report", report.to_json())
            if first and n == CHAIN_SIZES[0] and label == "swap":
                again = simulate(loaded, plan, self.sim_cfg)
                tally.check("determinism", [] if again.to_json() == report.to_json()
                            else [f"{key} report differs between two identical runs"])
        return total

    def key_op(self, tally: Tally) -> float:
        return min(tally.samples[f"pipeline@{CHAIN_SIZES[-1]}"])

    def headline(self, tally: Tally) -> dict:
        small, large = (median(tally.samples[f"pipeline@{n}"]) for n in CHAIN_SIZES)
        return {"chain_pipeline_s": large, "chain_scaling_x": ratio(large, small)}


# ---------------------------------------------------------------------------

class VerifySuite(Workload):
    """The calls ``swapsim verify --seeds 1..20 --instances 200`` makes, plus
    the numeric executor on swap-all chains at two sizes."""

    name = "verify-suite"

    def setup(self, rec: Recorder) -> None:
        import_swapsim_cli()
        from swapsim import (PRESETS, RewriteConfig, UNetParams, apply_rewrite,
                             expand_training_graph, gen_chain, gen_unet3d, resolve_preset,
                             run_numeric)
        import swapsim.props  # noqa: F401
        toys = (
            ("chain", rec.call("models.gen", gen_chain, 8, bytes_per_tensor=48,
                               kinds=("conv", "activation", "norm"))),
            ("unet-toy", rec.call("models.gen", gen_unet3d, UNetParams(
                dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2, convs_per_level=1))),
        )
        self.toys = []
        for label, g in toys:
            tg = rec.call("training.expand", expand_training_graph, g)
            variants = [(p,) + apply_rewrite(tg, resolve_preset(p)) for p in sorted(PRESETS)]
            variants += [(f"recompute-{p}",) + apply_rewrite(
                tg, RewriteConfig(mode="recompute", ckpt_policy=p)) for p in ("speed", "sqrt_n")]
            self.toys.append((label, tg, variants))
        self.chains = {}
        for n in NUMERIC_SIZES:
            tg = rec.call("training.expand", expand_training_graph,
                          rec.call("models.gen", gen_chain, n, 16, 1.0, CHAIN_KINDS))
            rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
            self.chains[n] = (rewritten, plan, run_numeric(tg, None, 0))

    @staticmethod
    def numeric_bytes(result) -> bytes:
        loss, grads = result
        return repr(loss).encode() + b"".join(
            tid.encode() + grads[tid].tobytes() for tid in sorted(grads))

    def run_pass(self, rec: Recorder, tally: Tally, first: bool) -> None:
        from swapsim import equivalence_check, grad_check, run_numeric
        from swapsim.props import run_invariant_suite
        total = 0.0
        for label, tg, variants in self.toys:
            rows, seconds = timed_op(
                rec, tally, "numeric.equivalence", equivalence_check, tg, variants,
                list(VERIFY_SEEDS), check=lambda rows: [
                    f"{label}/{r['label']}: deviation {r['deviation']} {r['error']}"
                    for r in rows if r["error"] or r["deviation"] != 0.0])
            total += seconds
            tally.hash(f"{label}/equivalence", rows)
            for s in VERIFY_SEEDS[:3]:
                rep, seconds = timed_op(
                    rec, tally, "numeric.grad_check", grad_check, tg, seed=s,
                    check=lambda r: [] if r.max_rel_error < 1e-4
                    else [f"{label} seed {s}: gradient error {r.max_rel_error}"])
                total += seconds
                tally.hash(f"{label}/grad/{s}", repr(rep))
        suite, seconds = timed_op(rec, tally, "props.invariant_suite", run_invariant_suite,
                                  instances=VERIFY_INSTANCES, seed=self.seed,
                                  check=lambda s: s["failures"])
        total += seconds
        tally.hash("suite", suite)
        tally.count("props.checks", suite["checks"])
        tally.count("props.oracle_runs", suite["oracle_runs"])
        for n, (rewritten, plan, expected) in self.chains.items():
            result, seconds = timed_op(
                rec, tally, "numeric.run_numeric", run_numeric, rewritten, plan, 0, size=n,
                check=lambda r: [] if self.numeric_bytes(r) == self.numeric_bytes(expected)
                else [f"swap-all chain of {n} ops changes loss or gradients"])
            total += seconds
            tally.hash(f"numeric/{n}", self.numeric_bytes(result))
            if first and n == NUMERIC_SIZES[0]:
                again = run_numeric(rewritten, plan, 0)
                tally.check("determinism", [] if self.numeric_bytes(again)
                            == self.numeric_bytes(result)
                            else [f"run_numeric on {n} ops differs between two identical runs"])
        tally.sample("pass", total)

    def key_op(self, tally: Tally) -> float:
        return min(tally.samples["pass"])

    def headline(self, tally: Tally) -> dict:
        return {"verify_s": median(tally.samples["pass"])}


WORKLOADS = {w.name: w for w in (CliWalkthrough, UnetSweep, ChainScale, VerifySuite)}
