import gc
import hashlib
import json
import math
import re
import weakref
from dataclasses import fields, replace

import pytest

from swapsim import props as props_mod
from swapsim.cli import _scenario_from_obj, main
from swapsim.graph import (GraphError, GraphSpec, NodeSpec, TensorDesc, save_graph,
                           validate_graph)
from swapsim.models import UNetParams, gen_chain, gen_unet3d
from swapsim.props import (
    ORACLE_MAX_SWAPS, brute_force_makespans, check_dependency_soundness,
    check_memory_conservation, check_schedule_oracle, check_swap_soundness, random_instance,
    run_invariant_suite,
)
from swapsim.rewrite import (RewriteConfig, RewritePlan, apply_rewrite, insert_swap_nodes,
                             resolve_preset, save_plan)
from swapsim.sim import (
    DeadlockError, InfeasibleError, SimConfig, calibrate_compute_rate, emit_trace,
    epoch_time, op_cost, simulate, stall_report, sweep, xfer_cost,
)
from swapsim.training import (TrainingGraph, expand_training_graph, load_training_graph,
                              save_training_graph, static_peak_estimate)

TOY = UNetParams(dims=(8, 8, 8), in_channels=1, base_filters=1, depth=2,
                 convs_per_level=1)


class TestCosts:
    def test_op_cost_scales_with_rate(self):
        n = NodeSpec(id="x", kind="conv", cost_units=10.0)
        assert op_cost(n, SimConfig(compute_rate=10.0)) == 1.0

    def test_io_nodes_cost_nothing_on_compute(self):
        n = NodeSpec(id="s", kind="swap_out", phase="io")
        assert op_cost(n, SimConfig()) == 0.0

    def test_zero_cost(self):
        n = NodeSpec(id="x", kind="conv", cost_units=0.0)
        assert op_cost(n, SimConfig()) == 0.0

    def test_xfer_full_volume(self):
        assert xfer_cost(113_246_208, 40e9, 10e-6) == pytest.approx(2841.2e-6, abs=5e-8)

    def test_xfer_zero_bytes_is_latency(self):
        assert xfer_cost(0, 40e9, 1e-5) == 1e-5

    def test_xfer_halves_with_double_bandwidth(self):
        assert xfer_cost(1000, 2000.0) == xfer_cost(1000, 1000.0) / 2

    @pytest.mark.parametrize("bw", [math.nan, math.inf, 0.0, -1.0])
    def test_xfer_rejects_a_bandwidth_that_is_not_positive(self, bw):
        with pytest.raises(GraphError, match=re.escape(
                f"wrong value type at bw: expected a finite number > 0, got {bw!r}")):
            xfer_cost(1000, bw)


class TestSimulate:
    def test_chain_no_plan_makespan_is_cost_sum(self):
        tg = expand_training_graph(gen_chain(2, cost_per_op=1.0))
        total_units = sum(n.cost_units for n in tg.graph.nodes)
        r = simulate(tg, None, SimConfig(compute_rate=2.0))
        assert r.makespan == pytest.approx(total_units / 2.0)
        assert r.stalls == []

    def test_boundary_stall_when_outs_drain_slowly(self):
        # bandwidth low enough that swap-outs outlive the forward pass: the
        # first backward node waits at the phase boundary.
        tg = expand_training_graph(gen_chain(4, bytes_per_tensor=10_000, cost_per_op=1.0))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        r = simulate(rewritten, plan, SimConfig(compute_rate=1.0, d2h_bw=500.0, h2d_bw=500.0))
        phases = stall_report(r)
        assert phases["boundary"] > 0
        first_backward = next(nid for nid in rewritten.serial_order
                              if rewritten.graph.node(nid).phase == "backward")
        assert any(n == first_backward for n, _, _ in r.stalls)

    def test_zero_communication_run_has_zero_stalls(self):
        tg = expand_training_graph(gen_chain(5))
        phases = stall_report(simulate(tg, None, SimConfig()))
        assert phases == {"forward": 0.0, "boundary": 0.0, "backward": 0.0}

    def test_stall_accounting_identity(self):
        tg = expand_training_graph(gen_chain(6, bytes_per_tensor=5000, cost_per_op=2.0))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        cfg = SimConfig(compute_rate=1.0, d2h_bw=900.0, h2d_bw=700.0)
        r = simulate(rewritten, plan, cfg)
        busy = sum(e - s for nid, ch, s, e in r.events if ch == "compute")
        stalled = sum(d for _, _, d in r.stalls)
        assert busy + stalled == pytest.approx(r.makespan)

    def test_determinism_byte_identical(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c4"))
        cfg = SimConfig(compute_rate=100.0, d2h_bw=1e6, h2d_bw=1e6)
        assert simulate(rewritten, plan, cfg).to_json() == \
            simulate(rewritten, plan, cfg).to_json()

    def test_soundness_checks_on_unet_preset(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c3"))
        cfg = SimConfig(compute_rate=1000.0, d2h_bw=5e4, h2d_bw=5e4)
        r = simulate(rewritten, plan, cfg)
        assert check_dependency_soundness(rewritten, r) == []
        assert check_memory_conservation(rewritten, r, cfg) == []
        assert check_swap_soundness(rewritten, plan, r) == []

    def test_schedule_matches_brute_force_oracle(self):
        tg = expand_training_graph(gen_chain(4, bytes_per_tensor=3000, cost_per_op=2.0))
        rewritten, plan = insert_swap_nodes(tg, ["t0", "t1", "t2"], lb=2)
        cfg = SimConfig(compute_rate=1.0, d2h_bw=1500.0, h2d_bw=800.0)
        assert check_schedule_oracle(rewritten, plan, simulate(rewritten, plan, cfg), cfg) == []

    def test_oracle_costs_each_transfer_once(self, monkeypatch):
        """The oracle works out each io node's duration once per call, not
        once for each of its 36 orderings."""
        tg = expand_training_graph(gen_chain(4, bytes_per_tensor=3000, cost_per_op=2.0))
        rewritten, plan = insert_swap_nodes(tg, ["t0", "t1", "t2"], lb=2)
        cfg = SimConfig(compute_rate=1.0, d2h_bw=1500.0, h2d_bw=800.0)
        calls = []
        monkeypatch.setattr(props_mod, "xfer_cost", lambda *a: calls.append(a) or xfer_cost(*a))
        assert brute_force_makespans(rewritten, plan, cfg) == [27.75]
        assert len(calls) == 6

    def test_oracle_leaves_no_cycle(self):
        """Run with the collector off, the oracle leaves nothing unreachable."""
        _, rewritten, plan, cfg = random_instance(2)
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert brute_force_makespans(rewritten, plan, cfg)
            found = gc.collect()
        finally:
            (gc.enable if was else gc.disable)()
        assert found == 0

    def test_conservation_flags_a_peak_one_byte_off(self):
        _, rewritten, plan, cfg = random_instance(0)
        r = simulate(rewritten, plan, cfg)
        assert check_memory_conservation(rewritten, r, cfg) == []
        for off in (-1, 1):
            bad = replace(r, peak_resident=r.peak_resident + off)
            assert check_memory_conservation(rewritten, bad, cfg) == [
                f"derived peak {r.peak_resident} != reported {bad.peak_resident}"]


class TestZeroCostNetting:
    """Ops that take no time: the peak at an instant nets every free and
    allocation made at it. The peaks were pinned from the earlier simulator,
    which netted a logged (time, delta) trace after the run."""

    @staticmethod
    def free_of_cost(g, node_ids):
        return replace(g, nodes=tuple(n._replace(cost_units=0.0) if n.id in node_ids else n
                                      for n in g.nodes))

    def test_chain_middle_op(self):
        tg = expand_training_graph(self.free_of_cost(gen_chain(3), {"op1"}))
        cfg = SimConfig(compute_rate=1.0)
        r = simulate(tg, None, cfg)
        # grad/op1 frees grad/op2:0 and t1 at the instant grad/op1:0 is born.
        assert [(s, e) for nid, _, s, e in r.events if nid == "grad/op1"] == [(4.0, 4.0)]
        assert r.peak_resident == 4096
        assert check_memory_conservation(tg, r, cfg) == []

    @pytest.mark.parametrize("seed, peak", [(0, 1484), (1, 496), (8, 1072), (9, 1340),
                                            (10, 656)])
    def test_random_instances(self, seed, peak):
        _, rewritten, plan, cfg = random_instance(seed)
        free = [nid for nid in rewritten.serial_order
                if rewritten.graph.node(nid).kind != "loss"][::3]
        tg = replace(rewritten, graph=self.free_of_cost(rewritten.graph, set(free)))
        r = simulate(tg, plan, cfg)
        assert r.peak_resident == peak
        assert check_memory_conservation(tg, r, cfg) == []


class TestBudget:
    def test_single_tensor_never_fits(self):
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=4096))
        with pytest.raises(InfeasibleError, match="t0"):
            simulate(tg, None, SimConfig(gpu_budget=1000, enforce_budget=True))

    def test_calibration_checks_a_tensor_that_never_fits_before_any_probe(self, monkeypatch):
        import swapsim.sim as sim_mod
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=4096))
        monkeypatch.setattr(sim_mod, "_run", lambda *args: pytest.fail("a probe ran"))
        with pytest.raises(InfeasibleError, match="t0"):
            calibrate_compute_rate(tg, None, SimConfig(gpu_budget=1000, enforce_budget=True),
                                   1.0)

    def test_unswapped_graph_deadlocks_under_budget(self):
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=1000))
        with pytest.raises(DeadlockError):
            simulate(tg, None, SimConfig(gpu_budget=2500, enforce_budget=True))

    def test_swap_plan_fits_same_budget(self):
        # Backward needs incoming grad + reused tensor + produced grad: 3B.
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=1000))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        cfg = SimConfig(compute_rate=1.0, d2h_bw=1e5, h2d_bw=1e5,
                        gpu_budget=3000, enforce_budget=True)
        r = simulate(rewritten, plan, cfg)
        assert r.peak_resident <= 3000

    def test_budget_ignored_when_not_enforced(self):
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=1000))
        r = simulate(tg, None, SimConfig(gpu_budget=10, enforce_budget=False))
        assert r.peak_resident > 10


class TestTrace:
    def test_single_event_report(self, tmp_path):
        tg = expand_training_graph(gen_chain(1))
        r = simulate(tg, None, SimConfig())
        path = tmp_path / "t.json"
        emit_trace(r, path)
        events = json.loads(path.read_text())
        assert all(ev["ph"] == "X" for ev in events)
        assert len(events) == len(r.events)

    def test_channel_tid_mapping(self, tmp_path):
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=2000))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        r = simulate(rewritten, plan, SimConfig(compute_rate=1.0, d2h_bw=1e4, h2d_bw=1e4))
        path = tmp_path / "t.json"
        emit_trace(r, path)
        events = json.loads(path.read_text())
        tids = {ev["tid"] for ev in events}
        assert tids == {0, 1, 2}
        by_name = {ev["name"]: ev["tid"] for ev in events}
        assert by_name["op0"] == 0
        assert by_name["swap_out/t0"] == 1
        assert by_name["swap_in/t0"] == 2

    def test_re_emission_is_byte_identical(self, tmp_path):
        tg = expand_training_graph(gen_chain(4, bytes_per_tensor=512))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        r = simulate(rewritten, plan, SimConfig(compute_rate=3.0, d2h_bw=1e4, h2d_bw=1e4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_trace(r, p1)
        emit_trace(r, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestEpochTime:
    def test_compute_bound(self):
        assert epoch_time(4.0, 171, 1.0) == 684.0

    def test_host_bound(self):
        assert epoch_time(0.5, 387, 1.0) == 387.0

    def test_iteration_ratio(self):
        t = 3.917
        assert epoch_time(t, 171) / epoch_time(t, 387) == pytest.approx(171 / 387)

    def test_iterations_validated(self):
        with pytest.raises(GraphError):
            epoch_time(1.0, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_seconds_validated(self, bad):
        with pytest.raises(GraphError, match="host_preproc_seconds"):
            epoch_time(1.0, 3, bad)
        with pytest.raises(GraphError, match="iter_seconds"):
            epoch_time(bad, 3)


def _base_with_a_swap_in_node():
    tg = expand_training_graph(gen_chain(4))
    g = tg.graph
    return TrainingGraph(
        GraphSpec(g.nodes + (NodeSpec("swap_in/t0", "swap_in", (), ("y",), 0.0, "", "io"),),
                  g.tensors + (TensorDesc("y", "swap_in/t0", (2,), 1, 4),),
                  g.control_edges, dict(g.metadata)),
        tg.serial_order, dict(tg.grad_of))


def _forward_only():
    g = gen_chain(4)
    return TrainingGraph(g, tuple(n.id for n in g.nodes))


class TestSweep:
    def test_preset_grid_has_four_rows(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        cfgs = [resolve_preset(p) for p in
                ("paper-c1", "paper-c2", "paper-c3", "paper-c4")]
        rows = sweep(tg, cfgs, [SimConfig(compute_rate=100.0, d2h_bw=1e6, h2d_bw=1e6)])
        assert len(rows) == 4
        assert all(row["error"] == "" for row in rows)

    def test_lb_grid_makespan_non_increasing(self):
        tg = expand_training_graph(gen_chain(8, bytes_per_tensor=4000, cost_per_op=1.0))
        cfgs = [RewriteConfig(mode="swap", n_tensors=-1, lb=lb) for lb in (1, 5, 20)]
        rows = sweep(tg, cfgs, [SimConfig(compute_rate=1.0, d2h_bw=2000.0, h2d_bw=2000.0)])
        spans = [row["makespan"] for row in sorted(rows, key=lambda r: r["lb"])]
        assert spans[0] >= spans[1] >= spans[2]

    def test_bandwidth_drop_never_speeds_up(self):
        tg = expand_training_graph(gen_chain(6, bytes_per_tensor=4000))
        cfgs = [resolve_preset("paper-c1")]
        rows = sweep(tg, cfgs, [SimConfig(compute_rate=1.0, d2h_bw=bw, h2d_bw=bw)
                                for bw in (40e3, 16e3)])
        fast = next(r for r in rows if r["d2h_bw"] == 40e3)
        slow = next(r for r in rows if r["d2h_bw"] == 16e3)
        assert slow["makespan"] >= fast["makespan"]

    def test_empty_grid_rejected(self):
        tg = expand_training_graph(gen_chain(2))
        with pytest.raises(GraphError, match="empty"):
            sweep(tg, [], [SimConfig()])

    def test_infeasible_cell_reported_in_row(self):
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=1000))
        rows = sweep(tg, [RewriteConfig(mode="none")],
                     [SimConfig(gpu_budget=10, enforce_budget=True)])
        assert rows[0]["makespan"] is None
        assert "infeasible" in rows[0]["error"]

    REWRITE_ERRORS = {
        "node-id-taken": (_base_with_a_swap_in_node, resolve_preset("paper-c1"),
                          "[duplicate-node-id] swap_in/t0: node id appears more than once"),
        "no-backward-phase": (_forward_only, resolve_preset("paper-c1"),
                              "graph has no backward phase to swap across"),
        "bad-manual-checkpoint": (lambda: expand_training_graph(gen_chain(4)),
                                  RewriteConfig(mode="recompute", ckpt_policy="manual",
                                                manual_ckpts=("nope",)),
                                  "manual checkpoint 'nope' is not a cross-phase tensor"),
    }

    @pytest.mark.parametrize("case", sorted(REWRITE_ERRORS))
    def test_rewrite_error_reported_in_its_rows(self, case):
        """A rewrite config that raises fills each of its rows with the
        error, and the grid's other configs still run."""
        build, bad, message = self.REWRITE_ERRORS[case]
        tg = build()
        sim_cfgs = [SimConfig(), SimConfig(d2h_bw=1e9, h2d_bw=1e9)]
        rows = sweep(tg, [bad, RewriteConfig()], sim_cfgs)
        assert len(rows) == 4
        failed = [r for r in rows if r["mode"] == bad.mode]
        assert [r["error"] for r in failed] == [message, message]
        assert all(r[k] is None for r in failed for k in (
            "swapped", "makespan", "peak_resident", "boundary_stall", "backward_stall"))
        assert {r["d2h_bw"]: (r["error"], r["swapped"], r["makespan"])
                for r in rows if r["mode"] == "none"} \
            == {c.d2h_bw: ("", 0, simulate(tg, None, c).makespan) for c in sim_cfgs}


def _event_scan_phases(tg, r) -> dict[str, float]:
    """The stall split as it was once read off the events: the boundary is
    the first backward compute event in (start, channel, id) order."""
    node = tg.graph.node
    first = next((nid for nid, ch, _, _ in r.events
                  if ch == "compute" and node(nid).phase == "backward"), None)
    out = {"forward": 0.0, "boundary": 0.0, "backward": 0.0}
    for nid, _, gap in r.stalls:
        out["boundary" if nid == first else
            "backward" if node(nid).phase == "backward" else "forward"] += gap
    return out


PHASE_REWRITES = (resolve_preset("paper-c1"), RewriteConfig(mode="swap", lb=3),
                  RewriteConfig(mode="recompute", ckpt_policy="sqrt_n"))


def _phase_cells():
    """(seed, expanded graph, rewrite config, its rewrite and plan or the
    GraphError it raised, sim configs) over random_instance 0..299: each of
    PHASE_REWRITES, run free and at 80% of its rewrite's static peak."""
    for seed in range(300):
        tg, _, _, cfg = random_instance(seed)
        for rcfg in PHASE_REWRITES:
            try:
                rewritten, plan = apply_rewrite(tg, rcfg)
            except GraphError as exc:
                yield seed, tg, rcfg, exc, [cfg]
                continue
            budget = int(static_peak_estimate(rewritten).peak_bytes * 0.8)
            yield seed, tg, rcfg, (rewritten, plan), \
                [cfg, replace(cfg, gpu_budget=budget, enforce_budget=True)]


class TestStallPhases:
    def test_a_zero_cost_tie_at_the_boundary_is_the_boundary_stall(self):
        """grad/op10 costs nothing and starts at the instant grad/op11, the
        first backward node in serial order, does; its id sorts first, but
        the stall is grad/op11's, at the boundary."""
        tg = expand_training_graph(gen_chain(12, 64, 0.0, ("conv",)))
        rcfg = RewriteConfig(mode="swap", incl_scopes=("chain/op11",))
        cfg = SimConfig(compute_rate=1e3, d2h_bw=1e3, h2d_bw=1e3)
        r = simulate(*apply_rewrite(tg, rcfg), cfg)
        starts = {nid: s for nid, ch, s, _ in r.events if ch == "compute"}
        assert starts["grad/op10"] == starts["grad/op11"]
        assert r.stalls == [("grad/op11", "swap_in/t11", 0.128)]
        assert stall_report(r) == {"forward": 0.0, "boundary": 0.128, "backward": 0.0}
        row, = sweep(tg, [rcfg], [cfg])
        assert (row["boundary_stall"], row["backward_stall"]) == (0.128, 0.0)

    def test_the_event_scan_agrees_where_no_zero_cost_node_ties(self):
        checked = at_boundary = 0
        for seed, _, rcfg, rewrite, cfgs in _phase_cells():
            if isinstance(rewrite, GraphError):
                continue
            for cfg in cfgs:
                try:
                    r = simulate(*rewrite, cfg)
                except GraphError:
                    continue
                phases = stall_report(r)
                assert phases == _event_scan_phases(rewrite[0], r), (seed, rcfg, cfg)
                checked += 1
                at_boundary += phases["boundary"] > 0
        assert (checked, at_boundary) == (1009, 709)  # the other cells raise

    def test_sweep_rows_are_the_runs_of_their_cells(self):
        """Each sweep row holds what simulate and stall_report give for its
        cell, or the error that the rewrite or the run raised."""
        for seed, tg, rcfg, rewrite, cfgs in _phase_cells():
            expected = []
            for cfg in cfgs:
                if isinstance(rewrite, GraphError):
                    expected.append((None, None, None, None, str(rewrite)))
                    continue
                try:
                    r = simulate(*rewrite, cfg)
                except GraphError as exc:
                    expected.append((None, None, None, None, str(exc)))
                    continue
                phases = stall_report(r)
                expected.append((r.makespan, r.peak_resident, phases["boundary"],
                                 phases["backward"], ""))
            rows = sweep(tg, [rcfg], cfgs)
            assert [(row["makespan"], row["peak_resident"], row["boundary_stall"],
                     row["backward_stall"], row["error"]) for row in rows] == expected, seed

    def test_sweep_builds_no_report(self, monkeypatch):
        import swapsim.sim as sim_mod
        calls = []
        real_report = sim_mod._report
        monkeypatch.setattr(sim_mod, "_report", lambda *a: calls.append(a) or real_report(*a))
        rows = sweep(_pin_tg(True), PIN_REWRITES.values(), [_pin_cfg(True), _pin_cfg(False)])
        assert len(rows) == 10 and any(row["makespan"] is not None for row in rows)
        assert calls == []


# SHA-256 of outputs on the toy U-Net, recorded before the simulator ran on a
# compiled integer-indexed view; any change to scheduling, tie-breaking or
# float evaluation order shows up here.
PIN_REWRITES = {p: resolve_preset(p) for p in ("paper-c1", "paper-c2", "paper-c3", "paper-c4")}
PIN_REWRITES["recompute-speed"] = RewriteConfig(mode="recompute", ckpt_policy="speed")
PIN_REPORT_SHA = {
    ("paper-c1", False): "93ae56ab06c1434b5c1520910b0b43f32edb90fc2e9e8737e3ffb0d274f4387c",
    ("paper-c1", True): "dbfeb010aa29701b534f1e670c5f9889d40601dd4e9c06d5325adc19a9dc3126",
    ("paper-c2", False): "93ae56ab06c1434b5c1520910b0b43f32edb90fc2e9e8737e3ffb0d274f4387c",
    ("paper-c2", True): "dbfeb010aa29701b534f1e670c5f9889d40601dd4e9c06d5325adc19a9dc3126",
    ("paper-c3", False): "f7892d793149a1c5c4ce3a8b6bbfcaf830f6d17dcd2b6dc45d93d23f6a16f3a1",
    ("paper-c3", True): "b47ff3b5f2466e239f1fd742c8e36e3bcbcc3ae574f6136d6ff4c27a9d17eab2",
    ("paper-c4", False): "b3f80d55123341bc88ec66283c49a2aee34341963be346b3f3ca41edda445aa3",
    ("paper-c4", True): "019cac22317a5ef7d12249c6973fcbcade6e1c47169e1a4f5e51d353e239544c",
    ("recompute-speed", False): "d4f3b2fd90a585a6e8325930488a6175ff503788391ccd5b8d015540a7e74639",
    ("recompute-speed", True): "886a50bf7abf31fb2d08282fbb2ff7ed3f412a443d917136cd838916bb4e637d",
}
# The rows name every RewriteConfig field; without ckpt_policy and
# manual_ckpts they hash to the rows pinned before, f6f838ac...
PIN_SWEEP_SHA = "bd6e97fe47d11742ca68f61ce25191a50449e45c80dcbc7caadf527f9e767b2f"


def _pin_tg(budget: bool):
    # 16 KiB with 1 KiB static: c1-c4 fit (c4 exactly at the budget),
    # recompute deadlocks, so both outcomes are pinned.
    return expand_training_graph(gen_unet3d(TOY), static_bytes=1024 if budget else 0)


def _pin_cfg(budget: bool) -> SimConfig:
    return SimConfig(compute_rate=1e6, d2h_bw=2e4, h2d_bw=1e4, xfer_latency=1e-3,
                     gpu_budget=16384 if budget else 0, enforce_budget=budget)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize("budget", [False, True], ids=["free", "budget"])
    @pytest.mark.parametrize("name", sorted(PIN_REWRITES))
    def test_report_json_pinned(self, name, budget):
        rewritten, plan = apply_rewrite(_pin_tg(budget), PIN_REWRITES[name])
        try:
            out = simulate(rewritten, plan, _pin_cfg(budget)).to_json()
        except GraphError as exc:
            out = f"error: {exc}"
        assert _sha(out) == PIN_REPORT_SHA[(name, budget)]

    @pytest.mark.parametrize("budget", [False, True], ids=["free", "budget"])
    def test_calibrated_rate_pinned(self, budget):
        rewritten, plan = apply_rewrite(_pin_tg(budget), PIN_REWRITES["paper-c1"])
        rate = calibrate_compute_rate(rewritten, plan, _pin_cfg(budget), 10.0)
        assert repr(rate) == "727226.828641178"

    def test_sweep_rows_pinned(self):
        # Static bytes belong to the graph, so the free and budget cells are
        # two sweeps; rows were pinned interleaved, free first, per key.
        free, budget = (sweep(_pin_tg(b), PIN_REWRITES.values(), [_pin_cfg(b)])
                        for b in (False, True))
        rows = [row for pair in zip(free, budget) for row in pair]
        assert _sha(json.dumps(rows, sort_keys=True)) == PIN_SWEEP_SHA

    def test_sweep_rows_name_every_rewrite_field(self):
        """Recompute rows that differ only in their checkpoint policy name
        it and sort by it, and the rows' keys start with the config's fields."""
        tg = expand_training_graph(gen_chain(16, 1000, 1000.0))
        rcfgs = [RewriteConfig(mode="recompute", ckpt_policy=p) for p in ("sqrt_n", "speed")]
        rows = sweep(tg, rcfgs, [SimConfig()])
        assert [list(r)[:7] for r in rows] == [[f.name for f in fields(RewriteConfig)]] * 2
        assert [(r["ckpt_policy"], r["manual_ckpts"], r["peak_resident"]) for r in rows] == \
            [("speed", [], 17000), ("sqrt_n", [], 9000)]

    def test_sweep_rows_name_their_scope_filters(self):
        """paper-c1 and paper-c3 differ only in their excluded scopes, which
        their rows name and sort by, whatever the order they are given in."""
        rcfgs = [resolve_preset("paper-c3"), RewriteConfig(mode="swap", incl_scopes=("x/*",)),
                 resolve_preset("paper-c1")]
        rows = sweep(_pin_tg(False), rcfgs, [_pin_cfg(False)])
        assert [(r["excl_scopes"], r["incl_scopes"]) for r in rows] == \
            [([], []), ([], ["x/*"]), (["synthesis/*"], [])]


def stall_blocker_faults(tg, report) -> list[str]:
    """``report``'s stalls worked out again from its events and ``tg``'s
    data and control edges, without the simulator. The compute nodes run in
    serial order; one that starts after the previous one ends (the first,
    after 0.0) stalls for the gap. A node that starts when its last
    dependency ends is blocked by the dependency with the largest (end, id),
    or "" when it has none; one that starts later, with the channel free
    and every dependency done, can only have been held by the budget, and
    its blocker is "budget"."""
    times = {nid: (start, end) for nid, _, start, end in report.events}
    deps: dict = {}
    for a, b in tg.graph.edges():
        deps.setdefault(b, []).append(a)
    expected, last_end = [], 0.0
    for nid in tg.serial_order:
        start, end = times[nid]
        if start > last_end:
            expected.append((nid, start - last_end))
        last_end = end
    faults = []
    if [(nid, gap) for nid, _, gap in report.stalls] != expected:
        faults.append(f"stalls {report.stalls} != {expected}")
    for nid, blocker, _ in report.stalls:
        end, latest = max(((times[d][1], d) for d in deps.get(nid, ())), default=(0.0, ""))
        if end < times[nid][0]:
            latest = "budget"
        if blocker != latest:
            faults.append(f"{nid}: blocker {blocker!r}, expected {latest!r}")
    return faults


class TestStallBlockers:
    """Every stall and its blocker, checked against ``stall_blocker_faults``."""

    @staticmethod
    def check(tg, plan, cfg) -> tuple[list[str], int]:
        """The faults of one run, and its stalls whose blocker is a node."""
        try:
            r = simulate(tg, plan, cfg)
        except GraphError:
            return [], 0
        return (stall_blocker_faults(tg, r),
                sum(b not in ("", "budget") for _, b, _ in r.stalls))

    # (share of the static peak enforced as the budget, stalls whose blocker
    # is a node among the runs that finish); most budgeted runs raise.
    @pytest.mark.parametrize("share, stalls", [(None, 594), (0.8, 145), (0.7, 80)],
                             ids=["free", "budget80", "budget70"])
    def test_random_instances(self, share, stalls):
        faults, checked = [], 0
        for seed in range(300):
            _, rewritten, plan, cfg = random_instance(seed)
            if share is not None:
                budget = int(static_peak_estimate(rewritten).peak_bytes * share)
                cfg = replace(cfg, gpu_budget=budget, enforce_budget=True)
            found, n = self.check(rewritten, plan, cfg)
            faults += [f"seed {seed}: {f}" for f in found]
            checked += n
        assert faults == []
        assert checked == stalls

    @pytest.mark.parametrize("budget", [False, True], ids=["free", "budget"])
    @pytest.mark.parametrize("name", sorted(PIN_REWRITES))
    def test_toy_unet_cells(self, name, budget):
        rewritten, plan = apply_rewrite(_pin_tg(budget), PIN_REWRITES[name])
        assert self.check(rewritten, plan, _pin_cfg(budget))[0] == []

    def test_two_dependencies_that_end_at_once(self):
        """grad/op0 waits for swap_out/t2 (a control edge of the loaded
        base) and for swap_in/t0 (added by the rewrite, so numbered after
        every base node), which both end at 17.0: the larger id names it."""
        tg = expand_training_graph(gen_chain(3, bytes_per_tensor=1024, cost_per_op=1.0))
        g = tg.graph
        out = NodeSpec("swap_out/t2", "swap_out", ("t2",), (), 0.0, "", "io")
        base = TrainingGraph(GraphSpec(g.nodes + (out,), g.tensors,
                                       g.control_edges + (("swap_out/t2", "grad/op0"),),
                                       dict(g.metadata)),
                             tg.serial_order, dict(tg.grad_of))
        rewritten, plan = insert_swap_nodes(base, ["t0"], 1)
        assert rewritten.graph.index.derived
        cfg = SimConfig(compute_rate=1.0, d2h_bw=128.0, h2d_bw=128.0)
        r = simulate(rewritten, plan, cfg)
        ends = {nid: end for nid, _, _, end in r.events}
        assert ends["swap_out/t2"] == ends["swap_in/t0"] == 17.0
        assert r.stalls == [("grad/op0", "swap_out/t2", 10.0)]
        assert stall_blocker_faults(rewritten, r) == []


class TestCompileOnce:
    @pytest.fixture()
    def counts(self, monkeypatch):
        """Count compiled-view builds, each from a graph's index, and
        event-loop runs."""
        import swapsim.sim as sim_mod
        real_init, real_run = sim_mod._CompiledGraph.__init__, sim_mod._run
        counts = {"builds": 0, "runs": 0}

        def init(view, tg):
            counts["builds"] += 1
            real_init(view, tg)

        def run(view, cfg, rate):
            counts["runs"] += 1
            return real_run(view, cfg, rate)

        monkeypatch.setattr(sim_mod._CompiledGraph, "__init__", init)
        monkeypatch.setattr(sim_mod, "_run", run)
        return counts

    def test_calibrate_builds_one_view(self, counts):
        tg = expand_training_graph(gen_unet3d(TOY))
        rewritten, plan = apply_rewrite(tg, PIN_REWRITES["paper-c1"])
        calibrate_compute_rate(rewritten, plan, _pin_cfg(False), 10.0)
        assert counts == {"builds": 1, "runs": 5}  # the rewrite's view alone
        assert "compiled_view" not in tg.derived

    def test_calibrate_runs_only_probes_that_can_meet_the_target(self, counts):
        # 192^3 paper-c1 on NVLink at the README's target: the bisection asks
        # about 39 rates; four interpolated probes answer every question.
        tg = expand_training_graph(gen_unet3d(UNetParams(dims=(192, 192, 192))))
        rewritten, plan = apply_rewrite(tg, resolve_preset("paper-c1"))
        nvlink = SimConfig(compute_rate=1.0, d2h_bw=40e9, h2d_bw=40e9)
        calibrate_compute_rate(rewritten, plan, nvlink, 4.726)
        assert counts == {"builds": 1, "runs": 4}

    def test_sweep_builds_one_view_per_rewrite(self, counts):
        tg = expand_training_graph(gen_unet3d(TOY))
        sim_cfgs = [SimConfig(compute_rate=1e6, d2h_bw=bw, h2d_bw=bw) for bw in (1e4, 2e4, 4e4)]
        configs = [*PIN_REWRITES.values(), RewriteConfig()]
        rows = sweep(tg, configs, sim_cfgs)
        assert len(rows) == 18
        # One view per swap config and for recompute, and the base graph's,
        # for the "none" config.
        assert counts == {"builds": 6, "runs": 18}
        assert tg.derived["compiled_view"] is not None

    def test_expanded_graph_simulated_twice_builds_one_view(self, counts):
        tg = expand_training_graph(gen_chain(4))
        simulate(tg, None, SimConfig())
        simulate(tg, None, SimConfig())
        assert counts == {"builds": 1, "runs": 2}
        assert tg.derived["compiled_view"] is not None

    def test_loaded_graph_simulated_twice_builds_one_view(self, counts, tmp_path):
        rewritten, plan = apply_rewrite(expand_training_graph(gen_unet3d(TOY)),
                                        PIN_REWRITES["paper-c1"])
        save_training_graph(rewritten, tmp_path / "tg.json")
        loaded = load_training_graph(tmp_path / "tg.json")
        simulate(loaded, plan, _pin_cfg(False))
        simulate(loaded, plan, _pin_cfg(False))
        assert counts == {"builds": 1, "runs": 2}

    def test_cli_calibrated_simulate_builds_one_view(self, counts, tmp_path, capsys):
        """``swapsim simulate --calibrate-target`` calibrates and simulates
        the loaded graph on one view."""
        rewritten, plan = apply_rewrite(expand_training_graph(gen_unet3d(TOY)),
                                        PIN_REWRITES["paper-c1"])
        save_training_graph(rewritten, tmp_path / "tg.json")
        save_plan(plan, tmp_path / "plan.json")
        assert main(["simulate", str(tmp_path / "tg.json"), str(tmp_path / "plan.json"),
                     "--calibrate-target", "10"]) == 0
        assert "calibrated compute_rate" in capsys.readouterr().out
        assert counts["builds"] == 1

    def test_swap_rewrite_simulated_twice_builds_its_view_once(self, counts):
        tg = expand_training_graph(gen_unet3d(TOY))
        rewritten, plan = apply_rewrite(tg, PIN_REWRITES["paper-c1"])
        first = simulate(rewritten, plan, _pin_cfg(False))
        assert simulate(rewritten, plan, _pin_cfg(False)) == first
        assert counts == {"builds": 1, "runs": 2}

    def test_calibrated_then_simulated_builds_its_view_once(self, counts):
        tg = expand_training_graph(gen_unet3d(TOY))
        rewritten, plan = apply_rewrite(tg, PIN_REWRITES["paper-c4"])
        calibrate_compute_rate(rewritten, plan, _pin_cfg(False), 10.0)
        simulate(rewritten, plan, _pin_cfg(True))
        assert counts["builds"] == 1

    def test_recompute_rewrite_simulated_twice_builds_one_view(self, counts):
        """A graph built from its rows keeps the view it builds."""
        tg = expand_training_graph(gen_unet3d(TOY))
        rewritten, plan = apply_rewrite(tg, PIN_REWRITES["recompute-speed"])
        simulate(rewritten, plan, _pin_cfg(False))
        simulate(rewritten, plan, _pin_cfg(False))
        assert counts == {"builds": 1, "runs": 2}


class TestKeptViewsFreeWithTheirGraph:
    """A training graph keeps its view, which holds the graph's rows but
    nothing that refers back to the training graph, so reference counting
    frees both once it is dropped: no collection is needed, and none is run."""

    @pytest.fixture()
    def collector_off(self):
        was = gc.isenabled()
        gc.disable()
        yield
        if was:
            gc.enable()

    @staticmethod
    def assert_freed(build) -> None:
        """Simulate the (graph, plan) that ``build`` returns, then drop it."""
        tg, plan = build()
        simulate(tg, plan, _pin_cfg(False))
        assert tg.derived["compiled_view"] is not None
        graph, training = weakref.ref(tg.graph), weakref.ref(tg)
        del tg, plan
        assert graph() is None and training() is None

    def test_expanded_graph(self, collector_off):
        self.assert_freed(lambda: (expand_training_graph(gen_unet3d(TOY)), None))

    def test_loaded_graph(self, collector_off, tmp_path):
        save_training_graph(expand_training_graph(gen_unet3d(TOY)), tmp_path / "tg.json")
        self.assert_freed(lambda: (load_training_graph(tmp_path / "tg.json"), None))

    @pytest.mark.parametrize("name", ["recompute-speed", "paper-c1"])
    def test_rewrite_then_its_base(self, collector_off, name):
        """The base and its rewrite each keep the view built from their index."""
        base = [expand_training_graph(gen_unet3d(TOY))]
        self.assert_freed(lambda: apply_rewrite(base[0], PIN_REWRITES[name]))
        self.assert_freed(lambda: (base.pop(), None))


# The compute rates that reach the event loop when paper-c1 on the toy U-Net
# is calibrated to 10 s: under a budget every probe of the bisection runs;
# free-running, four interpolated probes and one bisection probe run.
BUDGET_PROBES = [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
                 1048576.0, 1.0, 1024.0, 32768.0, 185363.80004736633, 440871.8997605395]
BISECTION_PROBES = [679917.4164288685, 844360.7551570106, 757690.9549283818,
                    717751.5423365022, 737450.914647384, 727534.5568326113,
                    722626.4943037381, 725076.3727282621, 726304.4248128008,
                    726919.2306107645]


@pytest.mark.parametrize("budget, probes", [
    (False, [551219.2, 724994.4928451176, 727510.398615562, 727543.6807095344,
             727534.5568326113]),
    (True, BUDGET_PROBES + BISECTION_PROBES)], ids=["free", "budget"])
def test_calibration_does_no_report_work(monkeypatch, budget, probes):
    """Each probe passes its rate straight to the event loop and reads only
    the makespan: no report is built and no config is made per probe."""
    import swapsim.sim as sim_mod
    rewritten, plan = apply_rewrite(_pin_tg(budget), PIN_REWRITES["paper-c1"])
    cfg = _pin_cfg(budget)
    real_run, rates, configs = sim_mod._run, [], []

    def run(view, run_cfg, rate):
        assert run_cfg is cfg
        rates.append(rate)
        return real_run(view, run_cfg, rate)

    def report(*args):
        raise AssertionError("calibration built a report")

    real_post_init = SimConfig.__post_init__
    monkeypatch.setattr(sim_mod, "_run", run)
    monkeypatch.setattr(sim_mod, "_report", report)
    monkeypatch.setattr(SimConfig, "__post_init__",
                        lambda c: configs.append(c) or real_post_init(c))
    assert repr(calibrate_compute_rate(rewritten, plan, cfg, 10.0)) == "727226.828641178"
    assert rates == probes
    assert configs == []


def test_a_swap_in_is_issued_by_its_trigger_alone():
    """A swap_in reads no tensor: its trigger's control edge issues it, and
    its swap_out's makes it wait without issuing it. A graph that gives it a
    data edge breaks the io-arity rule, and is not simulated."""
    import swapsim.sim as sim_mod
    rewritten, plan = insert_swap_nodes(expand_training_graph(gen_chain(3)), ["t0"], 1)
    view = sim_mod._view(rewritten)
    i = view.ids.index("swap_in/t0")
    assert (view.pending[i], view.issue_pending[i]) == (2, 1)
    g = rewritten.graph
    nodes = tuple(n._replace(inputs=("t1",)) if n.id == "swap_in/t0" else n for n in g.nodes)
    loaded = TrainingGraph(GraphSpec(nodes, g.tensors, g.control_edges, dict(g.metadata)),
                           rewritten.serial_order, dict(rewritten.grad_of))
    with pytest.raises(GraphError, match=re.escape(
            "[io-arity] swap_in/t0: wrong arity at nodes[8]: a swap_in reads 0 and writes 1 "
            "tensors, got 1 and 1")):
        simulate(loaded, plan)


def _reference_calibration(tg, plan, cfg, target, tol=1e-3):
    """calibrate_compute_rate's bracket and bisection, simulating every probe."""
    def run(rate):
        return simulate(tg, plan, replace(cfg, compute_rate=rate)).makespan

    lo, hi = 1.0, 1.0
    while run(hi) > target:
        if hi * 4.0 > 1e30:
            if math.fsum(n.cost_units for n in tg.graph.nodes) / hi > target:
                raise GraphError("target makespan unreachable: "
                                 "compute alone exceeds it at every rate up to 4**49")
            raise GraphError("target makespan unreachable: transfers alone exceed it")
        hi *= 4.0
    while run(lo) < target:
        lo /= 4.0
        if lo < 1e-30:
            raise GraphError("target makespan unreachable at any compute rate")
    for _ in range(80):
        mid = (lo * hi) ** 0.5
        if run(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + tol:
            break
    return (lo * hi) ** 0.5


def _looped_chain() -> TrainingGraph:
    """A 3-op chain with a control edge back from grad/op0 to op1."""
    tg = expand_training_graph(gen_chain(3))
    g = tg.graph
    return TrainingGraph(GraphSpec(g.nodes, g.tensors, g.control_edges + (("grad/op0", "op1"),),
                                   dict(g.metadata)),
                         tg.serial_order, dict(tg.grad_of))


CYCLE = "[cycle] grad/op0: node participates in a cycle"


def test_a_cycle_has_validate_graphs_words_at_every_entry_point():
    """A run that deadlocks on a cycle raises the cycle, as ``validate_graph``
    words it, from simulate, calibration and every rewrite of a sweep."""
    looped = _looped_chain()
    assert [str(v) for v in validate_graph(looped.graph)] == [CYCLE]
    for cfg in (SimConfig(), SimConfig(gpu_budget=1 << 30, enforce_budget=True)):
        with pytest.raises(GraphError) as exc:
            simulate(looped, None, cfg)
        assert type(exc.value) is GraphError and str(exc.value) == CYCLE
        with pytest.raises(GraphError) as exc:
            calibrate_compute_rate(looped, None, cfg, 1.0)
        assert str(exc.value) == CYCLE
    rcfgs = [RewriteConfig(mode="none"), resolve_preset("paper-c1"),
             RewriteConfig(mode="recompute")]
    assert [row["error"] for row in sweep(looped, rcfgs, [SimConfig()])] == [CYCLE] * 3


@pytest.mark.parametrize("budget", [False, True], ids=["free", "budget"])
def test_an_unreachable_target_names_what_exceeds_it(budget):
    """The bracket's error says whether the compute time alone exceeds the
    target at its last rate, 4**49, or only the transfers do."""
    tg = expand_training_graph(gen_chain(3))
    rewritten, plan = insert_swap_nodes(tg, ["t0"], 1)
    cfg = SimConfig(d2h_bw=1e-3, h2d_bw=1e-3, gpu_budget=1 << 30, enforce_budget=budget)
    with pytest.raises(GraphError, match=r"^target makespan unreachable: compute alone "
                                         r"exceeds it at every rate up to 4\*\*49$"):
        calibrate_compute_rate(tg, None, cfg, 1e-40)
    with pytest.raises(GraphError, match="^target makespan unreachable: transfers alone "
                                         "exceed it$"):
        calibrate_compute_rate(rewritten, plan, cfg, 1.0)


def test_an_unreachable_target_runs_the_bracket_once_at_its_last_rate(monkeypatch):
    """When the secant meets the target at no finite rate and no run has come
    in within it, one run at the bracket's last rate, 4**49, answers every
    bracket comparison below it: two runs in all, where the reference runs
    all 50 bracket rates, with the same error."""
    import swapsim.sim as sim_mod
    rewritten, plan = insert_swap_nodes(expand_training_graph(gen_chain(3)), ["t0"], 1)
    cfg = SimConfig(d2h_bw=1e-3, h2d_bw=1e-3)
    real_run, rates = sim_mod._run, []
    monkeypatch.setattr(sim_mod, "_run", lambda view, c, rate: rates.append(rate)
                        or real_run(view, c, rate))
    outcome = _outcome(calibrate_compute_rate, rewritten, plan, cfg, 1.0)
    assert rates == [9.0, 4.0 ** 49]
    assert outcome == _outcome(_reference_calibration, rewritten, plan, cfg, 1.0) == \
        (GraphError, "target makespan unreachable: transfers alone exceed it")


def _outcome(calibrate, *args):
    try:
        return repr(calibrate(*args))
    except GraphError as exc:
        return type(exc), str(exc)


class TestCalibrationOracle:
    """Calibration gives the rate, or the error, of the same bisection
    simulating every probe, although a free run answers most of the
    bisection's comparisons from a few interpolated probes."""

    @pytest.mark.parametrize("budget", [False, True], ids=["free", "budget"])
    @pytest.mark.parametrize("name", sorted(PIN_REWRITES) + ["recompute-sqrt_n"])
    def test_toy_unet_matches_reference(self, name, budget):
        rcfg = PIN_REWRITES.get(name) or RewriteConfig(mode="recompute", ckpt_policy="sqrt_n")
        rewritten, plan = apply_rewrite(_pin_tg(budget), rcfg)
        cfg = _pin_cfg(budget)
        for target in (1e-3, 0.5, 10.0, 1e4):
            args = (rewritten, plan, cfg, target)
            assert _outcome(calibrate_compute_rate, *args) == \
                _outcome(_reference_calibration, *args)

    @pytest.mark.parametrize("seed", range(300))
    def test_random_instance_matches_reference(self, seed):
        """At three multiples of the instance's makespan and at its makespan
        at rate 1e30, about its transfers alone, where a secant step can
        meet the target only at an infinite rate."""
        _, rewritten, plan, cfg = random_instance(seed)
        makespan = simulate(rewritten, plan, cfg).makespan
        floor = simulate(rewritten, plan, replace(cfg, compute_rate=1e30)).makespan
        for target in (0.3 * makespan, makespan, 1.7 * makespan, floor):
            args = (rewritten, plan, cfg, target)
            assert _outcome(calibrate_compute_rate, *args) == \
                _outcome(_reference_calibration, *args)

    def test_free_run_deadlock_matches_reference(self):
        """A control edge back from grad/op0 to op1 closes a cycle, which a
        free run meets at any rate: the first probe raises it in
        ``validate_graph``'s words."""
        looped = _looped_chain()
        for target in (1e-3, 1.0, 1e3):
            args = (looped, None, SimConfig(), target)
            outcome = _outcome(calibrate_compute_rate, *args)
            assert outcome == (GraphError, CYCLE)
            assert outcome == _outcome(_reference_calibration, *args)
        # At the bracket's last rate, 4**49, the compute time alone still
        # exceeds this target, so no rate is run: the bracket's error.
        with pytest.raises(GraphError, match=r"^target makespan unreachable: compute alone "
                                             r"exceeds it at every rate up to 4\*\*49$"):
            calibrate_compute_rate(looped, None, SimConfig(), 1e-40)

    @pytest.mark.parametrize("seed", range(300))
    def test_random_instance_makespan_never_rises_with_rate(self, seed):
        """The property that lets one probe answer for every rate on its side:
        in a free run, makespan is non-increasing in compute_rate."""
        _, rewritten, plan, cfg = random_instance(seed)
        makespans = [simulate(rewritten, plan, replace(cfg, compute_rate=cfg.compute_rate
                                                       * 2.0 ** (k / 8))).makespan
                     for k in range(-80, 81)]
        assert all(a >= b for a, b in zip(makespans, makespans[1:]))


def _with_row(g, rows: str, row_id: str, **fields):
    """``g`` with the fields of row ``row_id`` of its ``rows`` replaced."""
    return replace(g, **{rows: tuple(r._replace(**fields) if r.id == row_id else r
                                     for r in getattr(g, rows))})


def _raised(run, *args) -> str:
    with pytest.raises(GraphError) as exc:
        run(*args)
    return str(exc.value)


# One row per structural fault, put in a 4-op chain's graph: the fault, and
# the graph's full validate_graph list. A duplicate node id also shows a
# tensor listed by two rows.
STRUCTURAL_FAULTS = {
    "missing-producer": (
        lambda g: _with_row(g, "tensors", "t1", producer="ghost"),
        ["[producer-mismatch] t1: declared producer 'ghost' but produced by 'op1'"]),
    "producer-not-outputting": (
        lambda g: _with_row(g, "tensors", "t1", producer="op0"),
        ["[producer-mismatch] t1: declared producer 'op0' but produced by 'op1'"]),
    "input-missing": (
        lambda g: _with_row(g, "nodes", "op2", inputs=("ghost",)),
        ["[dangling-tensor] op2: consumes tensor 'ghost' with no producer"]),
    "output-missing": (
        lambda g: _with_row(g, "nodes", "op1", outputs=("t1", "ghost")),
        ["[dangling-tensor] op1: produces tensor 'ghost' missing from the tensor table"]),
    "duplicate-node-id": (
        lambda g: replace(g, nodes=g.nodes + (g.node("op1")._replace(cost_units=100.0),)),
        ["[duplicate-node-id] op1: node id appears more than once",
         "[multi-producer] t1: more than one node produces this tensor"]),
    "tensor-nobody-outputs": (
        lambda g: replace(g, tensors=g.tensors + (g.tensor("t1")._replace(id="t9"),)),
        ["[no-producer] t9: no node lists this tensor as an output"]),
    "duplicate-tensor-id": (
        lambda g: replace(g, tensors=g.tensors + (g.tensor("t1"),)),
        ["[duplicate-tensor-id] t1: tensor id appears more than once"]),
    "control-edge-to-unknown-node": (
        lambda g: replace(g, control_edges=g.control_edges + (("ghost", "op2"),)),
        ["[control-edge-unknown-node] ghost: control edge ('ghost', 'op2') references "
         "unknown node"]),
}

# Each entry point's prefix, and what it reports, run on the faulty training
# graph, the faulty forward graph and a path to write to. A sweep of mode
# "none" reports in-row; every other entry point raises.
ENTRY_POINTS = {
    "validate_graph": ("", lambda tg, forward, path: str(validate_graph(tg.graph)[0])),
    "save_graph": ("refusing to save invalid graph: ",
                   lambda tg, forward, path: _raised(save_graph, tg.graph, path)),
    "expand_training_graph": ("cannot expand invalid graph: ",
                              lambda tg, forward, path: _raised(expand_training_graph, forward)),
    "simulate": ("", lambda tg, forward, path: _raised(simulate, tg, None, SimConfig())),
    "calibrate_compute_rate": ("", lambda tg, forward, path: _raised(
        calibrate_compute_rate, tg, None, SimConfig(), 1.0)),
    "static_peak_estimate": ("", lambda tg, forward, path: _raised(static_peak_estimate, tg)),
    "sweep": ("", lambda tg, forward, path: sweep(
        tg, [RewriteConfig()], [SimConfig()])[0]["error"]),
    "apply_rewrite-swap": ("", lambda tg, forward, path: _raised(
        apply_rewrite, tg, resolve_preset("paper-c1"))),
    "apply_rewrite-recompute": ("", lambda tg, forward, path: _raised(
        apply_rewrite, tg, RewriteConfig(mode="recompute", ckpt_policy="sqrt_n"))),
}


class TestInputChecks:
    def test_negative_instance_count_rejected(self):
        with pytest.raises(GraphError, match="wrong value type at instances: expected an "
                                             "integer >= 0, got -3"):
            run_invariant_suite(instances=-3)

    def test_schedule_oracle_refuses_a_rewrite_past_its_limit(self):
        tg, rewritten, plan, cfg = random_instance(3)  # 6 swaps: 518,400 orderings
        assert len(plan.swapped) > ORACLE_MAX_SWAPS
        with pytest.raises(GraphError, match=re.escape(
                f"schedule oracle: 6 swaps and {len(rewritten.graph.nodes)} nodes exceed its "
                f"limit of 3 swaps and 30 nodes")):
            brute_force_makespans(rewritten, plan, cfg)
        assert check_schedule_oracle(rewritten, plan, simulate(rewritten, plan, cfg), cfg) == []

    @pytest.mark.parametrize("field", ["compute_rate", "d2h_bw", "h2d_bw", "xfer_latency"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(GraphError, match=f"wrong value type at {field}: expected a finite "
                                             f"number .*, got {value!r}$"):
            SimConfig(**{field: value})

    # Each setting's rule is its annotation, checked where the config is
    # built: by the library, from flags, or from a scenario file's key path.
    BAD_SETTINGS = {
        "rewrite-lb-fraction": (lambda: RewriteConfig(mode="swap", lb=2.5),
                                "at lb: expected an integer >= 1, got 2.5"),
        "rewrite-n-tensors-0": (lambda: RewriteConfig(mode="swap", n_tensors=0),
                                "at n_tensors: expected Literal[-1] or an integer >= 1, got 0"),
        "rewrite-mode-unknown": (lambda: RewriteConfig(mode="swop"),
                                 "at mode: expected Literal['swap', 'recompute', 'none'], "
                                 "got 'swop'"),
        "plan-lb-0": (lambda: RewritePlan(mode="swap", lb=0),
                      "at lb: expected an integer >= 1, got 0"),
        "sim-budget-negative": (lambda: SimConfig(gpu_budget=-1, enforce_budget=True),
                                "at gpu_budget: expected an integer >= 0, got -1"),
        "sim-enforce-str": (lambda: SimConfig(enforce_budget="false"),
                            "at enforce_budget: expected true or false, got 'false'"),
        "sim-compute-rate-0": (lambda: SimConfig(compute_rate=0),
                               "at compute_rate: expected a finite number > 0, got 0"),
        "sim-latency-past-float": (lambda: SimConfig(xfer_latency=2**1024),
                                   f"at xfer_latency: expected a finite number >= 0, "
                                   f"got {2**1024}"),
        "unet-dims-float": (lambda: UNetParams(dims=(16.0, 16, 16)),
                            "at dims[0]: expected an integer >= 1, got 16.0"),
        "unet-dims-0": (lambda: UNetParams(dims=(16, 0, 16)),
                        "at dims[1]: expected an integer >= 1, got 0"),
        "unet-dims-two": (lambda: UNetParams(dims=(16, 16)),
                          "at dims: expected tuple[Count, Count, Count], got (16, 16)"),
        "rewrite-scope-int": (lambda: RewriteConfig(excl_scopes=("a/*", 3)),
                              "at excl_scopes[1]: expected a string, got 3"),
        "unet-depth-1": (lambda: UNetParams(dims=(16, 16, 16), depth=1),
                         "depth must be >= 2, got 1"),
        "chain-bytes-fraction": (lambda: gen_chain(3, bytes_per_tensor=2.5),
                                 "at bytes_per_tensor: expected an integer >= 1, got 2.5"),
        "chain-kinds-empty": (lambda: gen_chain(3, kinds=()),
                              "kinds must name at least one node kind, got ()"),
        "scenario-lb-0": (lambda: _scenario_from_obj({"generator": {"kind": "chain", "n": 4},
                                                      "rewrite": {"lb": 0}}),
                          "at rewrite.lb: expected an integer >= 1, got 0"),
        "scenario-compute-rate-0": (lambda: _scenario_from_obj({
            "generator": {"kind": "chain", "n": 4}, "sim": {"compute_rate": 0}}),
            "at sim.compute_rate: expected a finite number > 0, got 0"),
    }

    @pytest.mark.parametrize("name", sorted(BAD_SETTINGS))
    def test_bad_setting_rejected_when_built(self, name):
        build, message = self.BAD_SETTINGS[name]
        with pytest.raises(GraphError, match=re.escape(message) + "$"):
            build()

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), -1.0])
    def test_bad_cost_units_rejected(self, cost):
        tg = expand_training_graph(gen_chain(3))
        g = tg.graph
        nodes = tuple(n._replace(cost_units=cost) if n.id == "op1" else n for n in g.nodes)
        bad = replace(tg, graph=replace(g, nodes=nodes))
        message = re.escape(f"[wrong-type] op1: wrong value type at nodes[1].cost_units: "
                            f"expected a finite number >= 0, got {cost!r}")
        with pytest.raises(GraphError, match=message):
            simulate(bad, None, SimConfig())
        with pytest.raises(GraphError, match=message):
            calibrate_compute_rate(bad, None, SimConfig(), 1.0)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("fault", sorted(STRUCTURAL_FAULTS))
    def test_structural_fault_reported_in_one_wording(self, fault, entry, tmp_path):
        """Every entry point reports the first entry of the graph's
        validate_graph list, after its own prefix, and returns nothing."""
        corrupt, listed = STRUCTURAL_FAULTS[fault]
        forward = gen_chain(4)
        tg = expand_training_graph(forward)
        bad = replace(tg, graph=corrupt(tg.graph))
        assert [str(v) for v in validate_graph(bad.graph)] == listed
        prefix, report = ENTRY_POINTS[entry]
        assert report(bad, corrupt(forward), tmp_path / "g.json") == prefix + listed[0]

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, -1.0])
    def test_calibrate_rejects_bad_target(self, target):
        tg = expand_training_graph(gen_chain(2))
        with pytest.raises(GraphError, match=re.escape(
                f"wrong value type at target_makespan: expected a finite number > 0, "
                f"got {target!r}")):
            calibrate_compute_rate(tg, None, SimConfig(), target)

    def test_plan_from_another_graph_rejected(self):
        unet = expand_training_graph(gen_unet3d(TOY))
        _, unet_plan = apply_rewrite(unet, PIN_REWRITES["paper-c1"])
        chain = expand_training_graph(gen_chain(4))
        first = unet_plan.swapped[sorted(unet_plan.swapped)[0]][0]
        with pytest.raises(GraphError, match=f"names node '{first}'"):
            simulate(chain, unet_plan, SimConfig())
        with pytest.raises(GraphError, match="plan does not match"):
            calibrate_compute_rate(chain, unet_plan, SimConfig(), 1.0)

    def test_plan_clone_missing_rejected(self):
        tg = expand_training_graph(gen_unet3d(TOY))
        rewritten, plan = apply_rewrite(tg, PIN_REWRITES["recompute-speed"])
        assert plan.clone_map
        simulate(rewritten, plan, SimConfig())
        with pytest.raises(GraphError, match="clone node"):
            simulate(tg, plan, SimConfig())
