import argparse
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from swapsim import cli as cli_mod
from swapsim.cli import (UsageError, _scenario_from_obj, build_parser, main, parse_bytes,
                         parse_seed_spec)
from swapsim.graph import load_document, load_graph
from swapsim.rewrite import RewriteConfig, load_plan
from swapsim.sim import SimConfig, sweep
from swapsim.training import expand_training_graph, load_training_graph

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParsers:
    def test_iec_and_si_suffixes(self):
        assert parse_bytes("16GiB") == 16 * 2**30
        assert parse_bytes("16GB") == 16 * 10**9
        assert parse_bytes("512") == 512
        assert parse_bytes("1.5e9") == 1_500_000_000

    @pytest.mark.parametrize("text", ["abc", "", "GiB", "inf", "-inf", "nan", "1e400",
                                      "1e400kib", "-1", "-1GiB", "1x"])
    def test_bad_byte_counts_are_usage_errors(self, text):
        with pytest.raises(UsageError, match="invalid byte count"):
            parse_bytes(text)

    def test_seed_specs(self):
        assert parse_seed_spec("1..4") == [1, 2, 3, 4]
        assert parse_seed_spec("7") == [7]
        assert parse_seed_spec("1,3,5") == [1, 3, 5]


def subparsers(parser, path=()):
    """(command path, parser) of every parser under ``parser``, itself included."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from subparsers(child, path + (name,))


# The defaults of the CLI's own: output paths and verify's seeds.
CLI_DEFAULTS = {("rewrite", "out_graph"), ("rewrite", "out_plan"), ("rewrite", "liveness"),
                ("sweep", "output"), ("verify", "seeds")}


class TestParserDefaults:
    def test_every_flag_is_absent_unless_given(self):
        """No flag restates a library default, so the config builders and
        the library apply them; only the CLI's own defaults are set."""
        found = set()
        for path, parser in subparsers(build_parser()):
            assert parser._defaults.keys() <= {"func", "kind"}, path  # set_defaults keys
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    continue
                if action.default is not argparse.SUPPRESS:
                    found.add((" ".join(path), action.dest))
        assert found == CLI_DEFAULTS

    def test_swap_is_the_cli_mode_default_once(self, toy_graph, tmp_path, capsys):
        """``swap`` is stated once, and both rewrite and a sweep grid take it."""
        assert inspect.getsource(cli_mod).count('"swap"') == 1
        og, op = tmp_path / "tg.json", tmp_path / "plan.json"
        assert run(capsys, "rewrite", str(toy_graph), "--lb", "2", "--out-graph", str(og),
                   "--out-plan", str(op))[0] == 0
        assert json.loads(op.read_text())["mode"] == "swap"
        out = tmp_path / "table.json"
        assert run(capsys, "sweep", str(toy_graph), "--lb", "2", "-o", str(out))[0] == 0
        assert [r["mode"] for r in json.loads(out.read_text())["rows"]] == ["swap"]


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of every ``swapsim`` command in README's shell blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.lstrip().startswith("swapsim ")]


def test_readme_commands_parse():
    """Every ``swapsim`` command in README's shell blocks parses, each flag
    spelt in full (argparse would take a prefix), so a renamed or dropped
    flag fails here rather than leaving the docs wrong."""
    parsers = dict(subparsers(build_parser()))
    commands = readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        build_parser().parse_args(argv)
        parser = parsers.get(tuple(argv[:2])) or parsers[tuple(argv[:1])]
        for flag in (a.split("=")[0] for a in argv if a.startswith("-")):
            assert flag in parser._option_string_actions, (argv, flag)


def test_readme_tuning_flags_parse_alike_under_rewrite_and_sweep():
    """Every flag that README's "Explicit tuning flags" sentence names is
    taken by both ``rewrite`` and ``sweep``, into the same field."""
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"Explicit tuning flags are available instead of presets:(.*?)\. A ",
                         text, re.S).group(1)
    flags = [f.split()[0] for f in re.findall(r"`(--[a-z-]+)", sentence)]
    assert len(flags) >= 7
    parsers = dict(subparsers(build_parser()))
    for flag in flags:
        dests = {name: parsers[(name,)]._option_string_actions[flag].dest
                 for name in ("rewrite", "sweep")
                 if flag in parsers[(name,)]._option_string_actions}
        assert len(dests) == 2 and len(set(dests.values())) == 1, (flag, dests)


class TestGenerate:
    def test_unet_writes_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc, _, _ = run(capsys, "generate", "unet", "--dims", "16", "16", "16",
                       "--in-channels", "1", "--base-filters", "1", "--depth", "2",
                       "-o", str(out))
        assert rc == 0
        assert out.exists()

    def test_chain(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        rc, stdout, _ = run(capsys, "generate", "chain", "--n", "8", "-o", str(out))
        assert rc == 0
        assert "8 nodes" in stdout

    def test_bad_dims_exit_nonzero(self, tmp_path, capsys):
        rc, _, err = run(capsys, "generate", "unet", "--dims", "100", "100", "100",
                         "--depth", "5", "-o", str(tmp_path / "g.json"))
        assert rc == 1
        assert "100" in err


@pytest.fixture()
def toy_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc, _, _ = run(capsys, "generate", "unet", "--dims", "8", "8", "8",
                   "--in-channels", "1", "--base-filters", "1", "--depth", "2",
                   "--convs-per-level", "1", "-o", str(out))
    assert rc == 0
    return out


class TestRewrite:
    def test_preset_c4(self, toy_graph, tmp_path, capsys):
        og, op = tmp_path / "tg.json", tmp_path / "plan.json"
        rc, stdout, _ = run(capsys, "rewrite", str(toy_graph), "--preset", "paper-c4",
                            "--out-graph", str(og), "--out-plan", str(op))
        assert rc == 0
        plan = json.loads(op.read_text())
        assert plan["lb"] == 20
        assert not any(t.startswith("synthesis/") for t in plan["swapped"])

    def test_mode_none_empty_swap_set(self, toy_graph, tmp_path, capsys):
        og, op = tmp_path / "tg.json", tmp_path / "plan.json"
        rc, stdout, _ = run(capsys, "rewrite", str(toy_graph), "--mode", "none",
                            "--out-graph", str(og), "--out-plan", str(op))
        assert rc == 0
        assert json.loads(op.read_text())["swapped"] == {}
        assert "swapped feature maps: 0" in stdout

    def test_n_tensors_clamps_to_candidates(self, toy_graph, tmp_path, capsys):
        og, op = tmp_path / "tg.json", tmp_path / "plan.json"
        rc, stdout, _ = run(capsys, "rewrite", str(toy_graph), "--n-tensors", "500",
                            "--lb", "1", "--out-graph", str(og), "--out-plan", str(op))
        assert rc == 0
        assert len(json.loads(op.read_text())["swapped"]) == 16

    def test_unknown_preset_is_usage_error(self, toy_graph, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rewrite", str(toy_graph), "--preset", "paper-c9"])
        assert exc.value.code == 2

    def test_outputs_are_deterministic(self, toy_graph, tmp_path, capsys):
        files = []
        for tag in ("a", "b"):
            og, op = tmp_path / f"tg{tag}.json", tmp_path / f"plan{tag}.json"
            rc, _, _ = run(capsys, "rewrite", str(toy_graph), "--preset", "paper-c1",
                           "--out-graph", str(og), "--out-plan", str(op))
            assert rc == 0
            files.append((og.read_bytes(), op.read_bytes()))
        assert files[0] == files[1]


@pytest.fixture()
def rewritten(toy_graph, tmp_path, capsys):
    og, op = tmp_path / "tg.json", tmp_path / "plan.json"
    rc, _, _ = run(capsys, "rewrite", str(toy_graph), "--preset", "paper-c1",
                   "--out-graph", str(og), "--out-plan", str(op))
    assert rc == 0
    return og, op


class TestSimulate:
    def test_simulate_with_trace(self, rewritten, tmp_path, capsys):
        og, op = rewritten
        trace = tmp_path / "trace.json"
        rc, stdout, _ = run(capsys, "simulate", str(og), str(op),
                            "--compute-rate", "1e6", "--d2h-bw", "1e6",
                            "--h2d-bw", "1e6", "--trace", str(trace))
        assert rc == 0
        assert "makespan" in stdout
        events = json.loads(trace.read_text())
        assert events and all(ev["ph"] == "X" for ev in events)

    def test_slower_link_is_never_faster(self, rewritten, capsys):
        og, op = rewritten

        def makespan(link):
            rc, stdout, _ = run(capsys, "simulate", str(og), str(op),
                                "--compute-rate", "1e6", "--link", link)
            assert rc == 0
            return float(next(l for l in stdout.splitlines()
                              if l.startswith("makespan")).split()[1])

        assert makespan("pcie3") >= makespan("nvlink1")

    def test_budget_violation_on_unrewritten_full_unet(self, tmp_path, capsys):
        # 192^3 defaults exceed a 16 GiB device; with no rewrite the run
        # cannot proceed once the budget is enforced.
        g = tmp_path / "g.json"
        rc, _, _ = run(capsys, "generate", "unet", "--dims", "192", "192", "192",
                       "-o", str(g))
        assert rc == 0
        og, op = tmp_path / "tg.json", tmp_path / "plan.json"
        rc, _, _ = run(capsys, "rewrite", str(g), "--mode", "none",
                       "--out-graph", str(og), "--out-plan", str(op))
        assert rc == 0
        rc, _, err = run(capsys, "simulate", str(og), str(op),
                         "--budget", "16GiB", "--enforce-budget")
        assert rc == 1
        assert "deadlock" in err or "infeasible" in err

    def test_scenario_file(self, tmp_path, capsys):
        scenario = {
            "generator": {"kind": "chain", "n": 6, "bytes_per_tensor": 4096},
            "rewrite": {"preset": "paper-c1"},
            "sim": {"compute_rate": 10.0, "d2h_bw": 1e5, "h2d_bw": 1e5},
            "outputs": {"report": str(tmp_path / "rep.json")},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        rc, stdout, _ = run(capsys, "simulate", "--scenario", str(path))
        assert rc == 0
        assert (tmp_path / "rep.json").exists()

    def test_flags_and_scenario_give_the_same_report(self, tmp_path, capsys):
        g, og, op = tmp_path / "g.json", tmp_path / "tg.json", tmp_path / "plan.json"
        assert run(capsys, "generate", "unet", "--dims", "32", "32", "32", "-o", str(g))[0] == 0
        assert run(capsys, "rewrite", str(g), "--preset", "paper-c4",
                   "--out-graph", str(og), "--out-plan", str(op))[0] == 0
        rc, _, _ = run(capsys, "simulate", str(og), str(op), "--link", "nvlink1",
                       "--latency", "1e-5", "--report", str(tmp_path / "flags.json"))
        assert rc == 0
        scenario = {
            "generator": {"kind": "unet3d", "dims": [32, 32, 32]},
            "rewrite": {"preset": "paper-c4"},
            "sim": {"link": "nvlink1", "xfer_latency": 1e-5},
            "outputs": {"report": str(tmp_path / "scenario.json")},
        }
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(scenario))
        assert run(capsys, "simulate", "--scenario", str(path))[0] == 0
        assert (tmp_path / "scenario.json").read_bytes() == (tmp_path / "flags.json").read_bytes()

    def test_static_bytes_set_at_rewrite_reach_simulate(self, tmp_path, capsys):
        g, og, op = tmp_path / "g.json", tmp_path / "tg.json", tmp_path / "plan.json"
        assert run(capsys, "generate", "chain", "--n", "4", "-o", str(g))[0] == 0
        assert run(capsys, "rewrite", str(g), "--preset", "paper-c1", "--static-bytes", "1GiB",
                   "--out-graph", str(og), "--out-plan", str(op))[0] == 0
        rc, stdout, _ = run(capsys, "simulate", str(og), str(op))
        assert rc == 0
        assert f"peak resident: {2**30 + 4096} B" in stdout
        rc, _, err = run(capsys, "simulate", str(og), str(op), "--budget", "1GiB",
                         "--enforce-budget")
        assert rc == 1
        assert err.startswith("error: infeasible")

    def test_simulate_has_no_static_bytes_flag(self, rewritten, capsys):
        og, op = rewritten
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(og), str(op), "--static-bytes", "1GiB"])
        assert exc.value.code == 2

    def test_scenario_static_bytes_reach_the_report(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        scenario = {
            "generator": {"kind": "chain", "n": 4},
            "rewrite": {"preset": "paper-c1"},
            "static_bytes": "1GiB",
            "outputs": {"report": str(report)},
        }
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(scenario))
        rc, stdout, _ = run(capsys, "simulate", "--scenario", str(path))
        assert rc == 0
        assert f"peak resident: {2**30 + 4096} B" in stdout
        assert json.loads(report.read_text())["peak_resident"] == 2**30 + 4096

    def test_chain_kinds_spellings_give_the_flags_report(self, tmp_path, capsys):
        g, og, op = tmp_path / "g.json", tmp_path / "tg.json", tmp_path / "plan.json"
        flags = tmp_path / "flags.json"
        assert run(capsys, "generate", "chain", "--n", "6", "--kinds", "conv",
                   "-o", str(g))[0] == 0
        assert run(capsys, "rewrite", str(g), "--preset", "paper-c1",
                   "--out-graph", str(og), "--out-plan", str(op))[0] == 0
        assert run(capsys, "simulate", str(og), str(op), "--report", str(flags))[0] == 0
        for i, kinds in enumerate(("conv", ["conv"])):
            report = tmp_path / f"scenario{i}.json"
            scenario = {
                "generator": {"kind": "chain", "n": 6, "kinds": kinds},
                "rewrite": {"preset": "paper-c1"},
                "outputs": {"report": str(report)},
            }
            path = tmp_path / f"sc{i}.json"
            path.write_text(json.dumps(scenario))
            assert run(capsys, "simulate", "--scenario", str(path))[0] == 0
            assert report.read_bytes() == flags.read_bytes()


class TestSweep:
    def test_presets_grid(self, toy_graph, tmp_path, capsys):
        out = tmp_path / "table.json"
        rc, stdout, _ = run(capsys, "sweep", str(toy_graph),
                            "--presets", "paper-c1,paper-c2,paper-c3,paper-c4",
                            "--compute-rate", "1e6", "-o", str(out))
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 4

    def test_lb_grid_non_increasing(self, toy_graph, capsys):
        rc, stdout, _ = run(capsys, "sweep", str(toy_graph),
                            "--lb", "1,5,20", "--compute-rate", "1e4",
                            "--bw", "5e4")
        assert rc == 0
        header, *lines = stdout.splitlines()
        spans = [float(l.split()[header.split().index("makespan")]) for l in lines]
        assert spans == sorted(spans, reverse=True)

    def test_static_bytes_add_to_every_peak(self, toy_graph, tmp_path, capsys):
        tables = []
        for extra in ([], ["--static-bytes", "1GiB"]):
            out = tmp_path / f"table{len(tables)}.json"
            rc, _, _ = run(capsys, "sweep", str(toy_graph), "--lb", "1,2",
                           "--compute-rate", "1e4", "-o", str(out), *extra)
            assert rc == 0
            tables.append(json.loads(out.read_text())["rows"])
        plain, static = tables
        assert len(plain) == len(static) == 2
        assert [r["peak_resident"] + 2**30 for r in plain] == \
            [r["peak_resident"] for r in static]

    def test_empty_grid_usage_error(self, toy_graph, capsys):
        rc, _, err = run(capsys, "sweep", str(toy_graph))
        assert rc == 2
        assert "empty sweep grid" in err

    def test_presets_and_mode_are_rows_of_their_own(self, toy_graph, tmp_path, capsys):
        out = tmp_path / "table.json"
        rc, stdout, _ = run(capsys, "sweep", str(toy_graph), "--presets", "paper-c1,paper-c3",
                            "--mode", "recompute", "-o", str(out))
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [(r["mode"], r["excl_scopes"]) for r in rows] == [
            ("recompute", []), ("swap", []), ("swap", ["synthesis/*"])]
        assert len(stdout.splitlines()) == 1 + 3 + 1  # header, rows, "wrote"

    def test_checkpoint_policy_is_one_recompute_row(self, toy_graph, tmp_path, capsys):
        """``--ckpt-policy`` alone, as ``rewrite`` takes it, makes one grid
        cell: the row that the library's sweep gives for that config."""
        out = tmp_path / "table.json"
        rc, _, _ = run(capsys, "sweep", str(toy_graph), "--mode", "recompute",
                       "--ckpt-policy", "sqrt_n", "-o", str(out))
        assert rc == 0
        tg = expand_training_graph(load_graph(toy_graph))
        expected = sweep(tg, [RewriteConfig(mode="recompute", ckpt_policy="sqrt_n")],
                         [SimConfig()])
        assert json.loads(out.read_text())["rows"] == expected
        assert [r["mode"] for r in expected] == ["recompute"]

    def test_scope_filter_alone_is_one_swap_row(self, toy_graph, tmp_path, capsys):
        out = tmp_path / "table.json"
        rc, stdout, _ = run(capsys, "sweep", str(toy_graph), "--excl-scopes", "synthesis/*",
                            "-o", str(out))
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [(r["mode"], r["excl_scopes"], r["incl_scopes"]) for r in rows] == [
            ("swap", ["synthesis/*"], [])]
        header, row = stdout.splitlines()[:2]
        assert dict(zip(header.split(), row.split()))["excl_scopes"] == "synthesis/*"


class TestVerify:
    def test_default_toy_suite_passes(self, capsys):
        rc, stdout, _ = run(capsys, "verify", "--seeds", "1..3", "--instances", "8")
        assert rc == 0
        assert "all checks passed" in stdout

    def test_seed_range_accepted(self, capsys):
        rc, stdout, _ = run(capsys, "verify", "--seeds", "1..5", "--instances", "2")
        assert rc == 0
        assert "(5 seeds)" in stdout

    def test_injected_broken_plan_fails_naming_use_after_swap(self, capsys):
        rc, _, err = run(capsys, "verify", "--seeds", "1", "--instances", "1",
                         "--inject-use-after-swap")
        assert rc == 1
        assert "use-after-swap" in err


class TestImport:
    def python(self, code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_does_not_load_numpy(self):
        assert self.python("import sys, swapsim, swapsim.cli; "
                           "print('numpy' in sys.modules)") == "False"

    def test_numeric_names_resolve_on_access(self):
        names = ("GradCheckReport", "UseAfterSwapError", "equivalence_check",
                 "grad_check", "run_numeric")
        out = self.python(
            "import swapsim, swapsim.numeric as n\n"
            f"names = {names!r}\n"
            "star = {}\n"
            "exec('from swapsim import *', star)\n"
            "print(all(getattr(swapsim, k) is getattr(n, k) is star[k] for k in names))")
        assert out == "True"


class TestDocumentsMeetTheirSchemas:
    def test_written_documents_and_readme_scenario_load(self, toy_graph, tmp_path, capsys):
        """What generate and rewrite write, and the README's scenario, pass
        the strict loaders, so the writers, the docs and the schemas agree."""
        assert len(load_graph(toy_graph).nodes) == 17
        og, op = tmp_path / "tg.json", tmp_path / "plan.json"
        for mode, flags in (("swap", ["--preset", "paper-c4"]),
                            ("recompute", ["--mode", "recompute", "--ckpt-policy", "sqrt_n"])):
            assert run(capsys, "rewrite", str(toy_graph), *flags, "--static-bytes", "1KiB",
                       "--out-graph", str(og), "--out-plan", str(op))[0] == 0
            tg, plan = load_training_graph(og), load_plan(op)
            assert (tg.static_bytes, plan.mode) == (1024, mode)
            assert sorted(tg.reuse_edges) == sorted(
                (tg.graph.node(f).outputs[0], gid) for gid, f in tg.grad_of.items())
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        path = tmp_path / "scenario.json"
        path.write_text(blocks[0], encoding="utf-8")
        _, cfg, sim_cfg, calibration, trace, report = load_document(
            path, "scenario", _scenario_from_obj)
        assert (cfg.lb, sim_cfg.xfer_latency, calibration[1], trace, report) == \
            (20, 1e-5, 4.726, "trace.json", "report.json")


_DROP = object()


def edited(path, value=_DROP):
    """An edit that sets the item at ``path`` (a sequence of keys) to value, or drops it."""
    def change(doc):
        *parents, last = path
        obj = doc
        for key in parents:
            obj = obj[key]
        if value is _DROP:
            del obj[last]
        else:
            obj[last] = value
        return doc
    return change


def node_edited(node_id, key, value):
    """An edit that sets ``key`` of the training graph's node ``node_id``."""
    def change(doc):
        next(n for n in doc["graph"]["nodes"] if n["id"] == node_id)[key] = value
        return doc
    return change


def corrupt(src, dst, change):
    """Write dst as the JSON document of src passed through change."""
    with open(src, encoding="utf-8") as fh:
        doc = change(json.load(fh))
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(dst)


@pytest.fixture()
def probe_files(rewritten, tmp_path, capsys):
    """A U-Net training graph and plan, a chain graph and training graph, and
    malformed copies of them."""
    chain = tmp_path / "chain.json"
    rc, _, _ = run(capsys, "generate", "chain", "--n", "4", "-o", str(chain))
    assert rc == 0
    chain_tg, chain_plan = tmp_path / "chain_tg.json", tmp_path / "chain_plan.json"
    rc, _, _ = run(capsys, "rewrite", str(chain), "--preset", "paper-c1",
                   "--out-graph", str(chain_tg), "--out-plan", str(chain_plan))
    assert rc == 0
    og, op = rewritten
    files = {"tg": str(og), "plan": str(op), "chain": str(chain), "chain_tg": str(chain_tg),
             "chain_plan": str(chain_plan)}
    bad = {
        "node_no_id": (chain, edited(("nodes", 0, "id"))),
        "node_row_list": (chain, edited(("nodes", 0), ["op0", "conv"])),
        "node_cost_huge": (chain, edited(("nodes", 0, "cost_units"), 10 ** 400)),
        "tg_list": (chain_tg, lambda doc: []),
        "tg_row_list": (chain_tg, edited(("graph", "tensors", 1), [])),
        "tg_no_graph": (chain_tg, edited(("graph",))),
        "shape_null": (chain_tg, edited(("graph", "tensors", 0, "shape"), None)),
        "serial_unknown": (chain_tg, edited(("serial_order", 0), "no-such-op")),
        "serial_omits": (chain_tg, edited(("serial_order", 1))),
        "serial_twice": (chain_tg, edited(("serial_order", 1), "op0")),
        "cost_nan": (chain_tg, edited(("graph", "nodes", 1, "cost_units"), float("nan"))),
        "cost_str": (chain_tg, edited(("graph", "nodes", 1, "cost_units"), "1e3")),
        "cost_bool": (chain_tg, edited(("graph", "nodes", 1, "cost_units"), True)),
        "cost_huge": (chain_tg, edited(("graph", "nodes", 1, "cost_units"), 10 ** 400)),
        "plan_lb_neg": (chain_plan, edited(("lb",), -3)),
        "plan_lb_frac": (chain_plan, edited(("lb",), 2.7)),
        "plan_lb_bool": (chain_plan, edited(("lb",), True)),
        "input_ghost": (chain_tg, edited(("graph", "nodes", 0, "inputs"), ["ghost"])),
        "swap_out_no_input": (chain_tg, node_edited("swap_out/t0", "inputs", [])),
        "producer_ghost": (chain_tg, edited(("graph", "tensors", 0, "producer"), "ghost")),
        "extent_nan": (chain_tg, edited(("graph", "tensors", 0, "shape", 0), float("nan"))),
        "extent_frac": (chain_tg, edited(("graph", "tensors", 0, "shape", 0), 2.5)),
        "elem_bytes_neg": (chain_tg, edited(("graph", "tensors", 0, "elem_bytes"), -4)),
        "channels_bool": (chain_tg, edited(("graph", "tensors", 0, "channels"), True)),
        "static_str": (chain_tg, edited(("graph", "metadata", "static_bytes"), "abc")),
        "static_neg": (chain_tg, edited(("graph", "metadata", "static_bytes"), -1)),
        "static_bool": (chain_tg, edited(("graph", "metadata", "static_bytes"), True)),
        "plan_list": (chain_plan, lambda doc: []),
        "plan_bogus": (chain_plan, lambda doc: {
            **doc, "swapped": {**doc["swapped"], "bogus": doc["swapped"]["t0"]}}),
        "node_cost_unit": (chain_tg, edited(("graph", "nodes", 0, "cost_unit"), 1.0)),
        "node_scope_int": (chain_tg, edited(("graph", "nodes", 0, "scope"), 3)),
        "tg_reuse_edges": (chain_tg, edited(("reuse_edges",), [["t0", "grad/op0"]])),
        "plan_banana": (chain_plan, edited(("mode",), "banana")),
        "plan_swaped": (chain_plan, lambda doc: {
            **{k: v for k, v in doc.items() if k != "swapped"}, "swaped": doc["swapped"]}),
        "plan_two_items": (chain_plan, edited(("swapped", "t0"), ["swap_out/t0", "swap_in/t0"])),
    }
    for name, (src, change) in bad.items():
        files[name] = corrupt(src, tmp_path / f"{name}.json", change)
    chain_scenario = {"generator": {"kind": "chain", "n": 4}}
    scenarios = {
        "sc_empty": {},
        "sc_list": [],
        "sc_rate_str": {**chain_scenario, "sim": {"compute_rate": "fast"}},
        "sc_rate_huge": {**chain_scenario, "sim": {"compute_rate": 10**400}},
        "sc_link_unknown": {**chain_scenario, "sim": {"link": "bogus"}},
        "sc_sim_static": {**chain_scenario, "sim": {"static_bytes": "1GiB"}},
        "sc_static_abc": {**chain_scenario, "static_bytes": "abc"},
        "sc_rewrte": {**chain_scenario, "rewrte": {"mode": "swap"}},
        "sc_bugdet": {**chain_scenario, "sim": {"enforce_bugdet": True}},
        "sc_enforce_str": {**chain_scenario, "sim": {"enforce_budget": "false",
                                                     "gpu_budget": "4KiB"}},
        "sc_report_int": {**chain_scenario, "outputs": {"report": 1}},
        "sc_n_bool": {"generator": {"kind": "chain", "n": True}},
        "sc_bytes_frac": {"generator": {"kind": "chain", "n": 4, "bytes_per_tensor": 1.5}},
        "sc_dims_0": {"generator": {"kind": "unet3d", "dims": [0, 16, 16]}},
        "sc_scope_int": {**chain_scenario, "rewrite": {"mode": "swap", "excl_scopes": ["a/*", 3]}},
        "sc_calibrate_no_preset": {**chain_scenario,
                                   "sim": {"calibrate": {"target_seconds": 1.0}}},
        "sc_preset_lb": {**chain_scenario, "rewrite": {"preset": "paper-c4", "lb": 3}},
        "sc_link_d2h_bw": {**chain_scenario, "sim": {"link": "pcie3", "d2h_bw": 5.0}},
    }
    for name, doc in scenarios.items():
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return files


# Each probe must end in a one-line message with exit code 1 or 2, never a
# traceback or a hang. The first word is the subcommand.
BAD_INPUT_PROBES = {
    "compute-rate-nan": (["simulate", "{tg}", "{plan}", "--compute-rate", "nan"], "compute_rate"),
    "d2h-bw-inf": (["simulate", "{tg}", "{plan}", "--d2h-bw", "inf"], "d2h_bw"),
    "latency-nan": (["simulate", "{tg}", "{plan}", "--latency", "nan"], "xfer_latency"),
    "calibrate-target-nan": (["simulate", "{tg}", "{plan}", "--calibrate-target", "nan"],
                             "wrong value type at target_makespan: expected a finite number > 0, "
                             "got nan"),
    "calibrate-target-0": (["simulate", "{tg}", "{plan}", "--calibrate-target", "0"],
                           "wrong value type at target_makespan: expected a finite number > 0, "
                           "got 0.0"),
    "iterations-0": (["simulate", "{tg}", "{plan}", "--iterations", "0"], "iterations"),
    "plan-of-other-graph": (["simulate", "{chain_tg}", "{plan}"], "plan does not match"),
    "budget-abc": (["simulate", "{tg}", "{plan}", "--budget", "abc"], "invalid byte count 'abc'"),
    "budget-inf": (["simulate", "{tg}", "{plan}", "--budget", "inf", "--enforce-budget"],
                   "invalid byte count 'inf'"),
    "budget-negative": (["simulate", "{tg}", "{plan}", "--budget=-1GiB"], "invalid byte count"),
    "static-bytes-1e400": (["sweep", "{chain}", "--presets", "paper-c1", "--static-bytes",
                            "1e400"], "invalid byte count '1e400'"),
    "graph-static-bytes-str": (["simulate", "{static_str}", "{chain_plan}"],
                               "static_str.json: wrong value type at static_bytes: expected an "
                               "integer >= 0, got 'abc'"),
    "graph-static-bytes-negative": (["simulate", "{static_neg}", "{chain_plan}"],
                                    "wrong value type at static_bytes: expected an integer >= 0, "
                                    "got -1"),
    "graph-static-bytes-bool": (["simulate", "{static_bool}", "{chain_plan}"],
                                "wrong value type at static_bytes: expected an integer >= 0, "
                                "got True"),
    "rewrite-static-bytes-nan": (["rewrite", "{chain_tg}", "--static-bytes", "nan"],
                                 "invalid byte count 'nan'"),
    "host-preproc-nan": (["simulate", "{tg}", "{plan}", "--iterations", "3",
                          "--host-preproc", "nan"], "host_preproc_seconds"),
    "host-preproc-inf": (["simulate", "{tg}", "{plan}", "--iterations", "3",
                          "--host-preproc", "inf"], "host_preproc_seconds"),
    "graph-node-no-id": (["sweep", "{node_no_id}", "--presets", "paper-c1"],
                         "node_no_id.json: missing key 'id'"),
    "graph-cost-units-huge": (["sweep", "{node_cost_huge}", "--presets", "paper-c1"],
                              "node_cost_huge.json: wrong value type at nodes[0].cost_units: "
                              "expected a finite number >= 0, got 1000000000"),
    "graph-node-row-list": (["sweep", "{node_row_list}", "--presets", "paper-c1"],
                            "node_row_list.json: wrong value type"),
    "training-doc-list": (["simulate", "{tg_list}", "{plan}"], "tg_list.json"),
    "training-row-list": (["simulate", "{tg_row_list}", "{plan}"],
                          "tg_row_list.json: wrong value type"),
    "training-no-graph": (["simulate", "{tg_no_graph}", "{plan}"],
                          "tg_no_graph.json: missing key 'graph'"),
    "shape-null": (["simulate", "{shape_null}", "{plan}"], "shape_null.json: wrong value type"),
    "serial-order-unknown-node": (["simulate", "{serial_unknown}", "{plan}"],
                                  "unknown node 'no-such-op'"),
    "serial-order-omits-node": (["simulate", "{serial_omits}", "{chain_plan}"],
                                "serial_order omits compute node 'op1'"),
    "serial-order-node-twice": (["simulate", "{serial_twice}", "{chain_plan}"],
                                "serial_order names node 'op0' twice"),
    "plan-unknown-tensor": (["simulate", "{chain_tg}", "{plan_bogus}"],
                            "tensor 'bogus' is missing from the graph"),
    "plan-list": (["simulate", "{chain_tg}", "{plan_list}"], "plan_list.json"),
    "cost-units-nan": (["simulate", "{cost_nan}", "{chain_plan}"],
                       "at graph.nodes[1].cost_units: expected a finite number >= 0, got nan"),
    "cost-units-string": (["simulate", "{cost_str}", "{chain_plan}"],
                          "cost_str.json: wrong value type at graph.nodes[1].cost_units: expected "
                          "a finite number >= 0, got '1e3'"),
    "cost-units-bool": (["simulate", "{cost_bool}", "{chain_plan}"],
                        "at graph.nodes[1].cost_units: expected a finite number >= 0, got True"),
    "cost-units-huge": (["simulate", "{cost_huge}", "{chain_plan}"],
                        "cost_huge.json: wrong value type at graph.nodes[1].cost_units: "
                        "expected a finite number >= 0, got 1000000000"),
    "plan-lb-negative": (["simulate", "{chain_tg}", "{plan_lb_neg}"],
                         "plan_lb_neg.json: wrong value type at lb: expected an integer >= 1, "
                         "got -3"),
    "plan-lb-fraction": (["simulate", "{chain_tg}", "{plan_lb_frac}"],
                         "plan_lb_frac.json: wrong value type at lb: expected an integer >= 1, "
                         "got 2.7"),
    "plan-lb-bool": (["simulate", "{chain_tg}", "{plan_lb_bool}"],
                     "plan_lb_bool.json: wrong value type at lb: expected an integer >= 1, "
                     "got True"),
    "graph-input-unknown": (["simulate", "{input_ghost}", "{chain_plan}"],
                            "[dangling-tensor] grad/op0: consumes tensor 'ghost'"),
    "swap-out-no-input": (["simulate", "{swap_out_no_input}", "{chain_plan}"],
                          "swap_out_no_input.json: wrong arity at graph.nodes[13]: a swap_out "
                          "reads 1 and writes 0 tensors, got 0 and 0"),
    "graph-producer-unknown": (["simulate", "{producer_ghost}", "{chain_plan}"],
                               "[producer-mismatch] grad/op0:0: declared producer 'ghost'"),
    "shape-extent-nan": (["simulate", "{extent_nan}", "{chain_plan}"],
                         "at graph.tensors[0].shape[0]: expected an integer >= 1, got nan"),
    "shape-extent-fraction": (["simulate", "{extent_frac}", "{chain_plan}"],
                              "at graph.tensors[0].shape[0]: expected an integer >= 1, got 2.5"),
    "elem-bytes-negative": (["simulate", "{elem_bytes_neg}", "{chain_plan}"],
                            "at graph.tensors[0].elem_bytes: expected an integer >= 1, got -4"),
    "channels-bool": (["simulate", "{channels_bool}", "{chain_plan}"],
                      "at graph.tensors[0].channels: expected an integer >= 1, got True"),
    "scenario-empty": (["simulate", "--scenario", "{sc_empty}"],
                       "sc_empty.json: missing key 'generator'"),
    "scenario-list": (["simulate", "--scenario", "{sc_list}"], "sc_list.json: wrong value type"),
    "scenario-compute-rate-str": (["simulate", "--scenario", "{sc_rate_str}"],
                                  "sc_rate_str.json: wrong value type"),
    "scenario-compute-rate-huge-int": (["simulate", "--scenario", "{sc_rate_huge}"],
                                       "wrong value type at sim.compute_rate: expected a "
                                       "finite number > 0, got 1000"),
    "scenario-link-unknown": (["simulate", "--scenario", "{sc_link_unknown}"],
                              "sc_link_unknown.json: bad value: unknown link preset 'bogus'"),
    "scenario-sim-static-bytes": (["simulate", "--scenario", "{sc_sim_static}"],
                                  "sc_sim_static.json: unknown key 'static_bytes' in sim"),
    "scenario-static-bytes-abc": (["simulate", "--scenario", "{sc_static_abc}"],
                                  "sc_static_abc.json: bad value: invalid byte count 'abc'"),
    "scenario-key-misspelt": (["simulate", "--scenario", "{sc_rewrte}"],
                              "sc_rewrte.json: unknown key 'rewrte'"),
    "scenario-sim-key-misspelt": (["simulate", "--scenario", "{sc_bugdet}"],
                                  "sc_bugdet.json: unknown key 'enforce_bugdet' in sim"),
    "scenario-enforce-budget-str": (["simulate", "--scenario", "{sc_enforce_str}"],
                                    "wrong value type at sim.enforce_budget: expected true or "
                                    "false, got 'false'"),
    "scenario-report-int": (["simulate", "--scenario", "{sc_report_int}"],
                            "wrong value type at outputs.report: expected a string, got 1"),
    "scenario-chain-n-bool": (["simulate", "--scenario", "{sc_n_bool}"],
                              "wrong value type at generator.n: expected an integer >= 1, "
                              "got True"),
    "scenario-bytes-per-tensor-fraction": (["simulate", "--scenario", "{sc_bytes_frac}"],
                                           "wrong value type at generator.bytes_per_tensor: "
                                           "expected an integer >= 1, got 1.5"),
    "scenario-unet-dims-0": (["simulate", "--scenario", "{sc_dims_0}"],
                             "wrong value type at generator.dims[0]: expected an integer >= 1, "
                             "got 0"),
    "scenario-excl-scope-int": (["simulate", "--scenario", "{sc_scope_int}"],
                                "wrong value type at rewrite.excl_scopes[1]: expected a string, "
                                "got 3"),
    "scenario-calibrate-no-preset": (["simulate", "--scenario", "{sc_calibrate_no_preset}"],
                                     "missing key 'preset' in sim.calibrate"),
    "scenario-preset-and-lb": (["simulate", "--scenario", "{sc_preset_lb}"],
                               "bad value: preset 'paper-c4' sets every rewrite key, so it "
                               "takes no lb"),
    "rewrite-preset-and-lb": (["rewrite", "{chain}", "--preset", "paper-c4", "--lb", "3"],
                              "usage error: preset 'paper-c4' sets every rewrite key, so it "
                              "takes no lb"),
    "scenario-and-report": (["simulate", "--scenario", "{sc_rewrte}", "--report", "r.json"],
                            "usage error: --scenario takes no other simulate argument; "
                            "got --report"),
    "training-node-unknown-key": (["simulate", "{node_cost_unit}", "{chain_plan}"],
                                  "node_cost_unit.json: unknown key 'cost_unit' in "
                                  "graph.nodes[0]"),
    "training-node-scope-int": (["simulate", "{node_scope_int}", "{chain_plan}"],
                                "wrong value type at graph.nodes[0].scope: expected a string, "
                                "got 3"),
    "training-reuse-edges": (["simulate", "{tg_reuse_edges}", "{chain_plan}"],
                             "tg_reuse_edges.json: unknown key 'reuse_edges'"),
    "plan-mode-unknown": (["simulate", "{chain_tg}", "{plan_banana}"],
                          "wrong value type at mode: expected Literal['swap', 'recompute', "
                          "'none'], got 'banana'"),
    "plan-key-misspelt": (["simulate", "{chain_tg}", "{plan_swaped}"],
                          "plan_swaped.json: unknown key 'swaped'"),
    "plan-swapped-two-items": (["simulate", "{chain_tg}", "{plan_two_items}"],
                               "wrong value type at swapped: expected "
                               "dict[str, tuple[str, str, str]], got an object"),
    "link-and-d2h-bw": (["simulate", "{tg}", "{plan}", "--link", "pcie3", "--d2h-bw", "1e3"],
                        "usage error: link 'pcie3' sets both bandwidths, so it takes no d2h_bw "
                        "or h2d_bw"),
    "sweep-link-and-bw": (["sweep", "{chain}", "--presets", "paper-c1", "--link", "pcie3",
                           "--bw", "1e9"],
                          "usage error: link 'pcie3' sets both bandwidths, so it takes no "
                          "d2h_bw or h2d_bw"),
    "scenario-link-and-d2h-bw": (["simulate", "--scenario", "{sc_link_d2h_bw}"],
                                 "bad value: link 'pcie3' sets both bandwidths, so it takes no "
                                 "d2h_bw or h2d_bw"),
    "sweep-link-unknown": (["sweep", "{chain}", "--presets", "paper-c1", "--link", "foo"],
                           "usage error: unknown link preset 'foo'"),
    "sweep-bw-abc": (["sweep", "{chain}", "--presets", "paper-c1", "--bw", "abc"],
                     "usage error: invalid float list 'abc'"),
    "sweep-lb-x": (["sweep", "{chain}", "--lb", "x"], "usage error: invalid int list 'x'"),
    "sweep-compute-rate-0": (["sweep", "{chain}", "--presets", "paper-c1", "--compute-rate", "0"],
                             "error: wrong value type at compute_rate: expected a finite number "
                             "> 0, got 0.0"),
    "sweep-bw-0": (["sweep", "{chain}", "--presets", "paper-c1", "--bw", "0"],
                   "error: wrong value type at d2h_bw: expected a finite number > 0, got 0.0"),
    "verify-seeds-x..y": (["verify", "--seeds", "x..y"], "usage error: invalid seed spec 'x..y'"),
    "verify-seeds-1..2..3": (["verify", "--seeds", "1..2..3"],
                             "usage error: invalid seed spec '1..2..3'"),
    "verify-seeds-negative": (["verify", "--seeds=-1"],
                              "error: wrong value type at seeds[0]: expected an integer >= 0, "
                              "got -1"),
    "verify-seeds-negative-range": (["verify", "--seeds=-3..-1"],
                                    "error: wrong value type at seeds[0]: expected an integer "
                                    ">= 0, got -3"),
    "verify-instances-negative": (["verify", "--seeds", "1", "--instances=-3"],
                                  "error: wrong value type at instances: expected an integer "
                                  ">= 0, got -3"),
    "rewrite-backward-cost-ratio-nan": (["rewrite", "{chain}", "--preset", "paper-c1",
                                         "--backward-cost-ratio", "nan"],
                                        "error: wrong value type at backward_cost_ratio: "
                                        "expected a finite number >= 0, got nan"),
    "rewrite-backward-cost-ratio-negative": (["rewrite", "{chain}", "--preset", "paper-c1",
                                              "--backward-cost-ratio=-1"],
                                             "error: wrong value type at backward_cost_ratio: "
                                             "expected a finite number >= 0, got -1.0"),
    "rewrite-backward-cost-ratio-inf": (["rewrite", "{chain}", "--preset", "paper-c1",
                                         "--backward-cost-ratio", "inf"],
                                        "error: wrong value type at backward_cost_ratio: "
                                        "expected a finite number >= 0, got inf"),
}


class TestBadInput:
    @pytest.mark.parametrize("name", sorted(BAD_INPUT_PROBES))
    def test_probe_ends_in_one_line_error(self, name, probe_files):
        argv, needle = BAD_INPUT_PROBES[name]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        code = "import sys; from swapsim.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code] + [a.format(**probe_files) for a in argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode in (1, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(("error:", "usage error:"))
        assert proc.returncode == (2 if lines[0].startswith("usage error:") else 1)
        assert needle in lines[0]
