"""The invariant suite's fan-out over CPUs: forked workers return the same
dict, the same failures and the same exceptions as one process, and leave
no process behind."""
import os
import signal
import time

import pytest

import swapsim.props as props
import swapsim.graph as graph_mod
from swapsim.cli import main
from swapsim.props import run_invariant_suite


@pytest.fixture()
def cpus(monkeypatch):
    """Set the CPUs the process may use, as ``os.sched_getaffinity`` reports
    them: one runs the suite in-process, three fork whenever the instances
    allow it, on any machine."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return use


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [0, 1])
def test_all_cpus_give_the_one_cpu_dict(cpus, seed):
    forked = run_invariant_suite(instances=200, seed=seed)
    assert_no_child_left()
    cpus(1)
    assert forked == run_invariant_suite(instances=200, seed=seed)


def test_workers_take_interleaved_shares(cpus, monkeypatch):
    """With three workers the parent runs instances 0, 3, 6, ... itself."""
    ran, real = [], props._instance_checks
    monkeypatch.setattr(props, "_instance_checks", lambda i, seed: ran.append(i) or real(i, seed))
    cpus(3)
    run_invariant_suite(instances=75, seed=1)
    assert ran == list(range(0, 75, 3))
    assert_no_child_left()


@pytest.mark.parametrize("instances, workers", [(0, 1), (5, 1), (49, 1), (50, 2), (75, 3),
                                                (200, 3)])
def test_one_worker_per_25_instances_at_most(cpus, monkeypatch, instances, workers):
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    cpus(3)
    assert run_invariant_suite(instances=instances, seed=0)["instances"] == instances
    assert len(forks) == workers - 1
    assert_no_child_left()


def test_a_mutant_fails_alike_in_workers(cpus, monkeypatch):
    """A derivation of an index from its base's that doubles every compute
    cost fails the determinism check on the same instances, in the same
    order, forked or not."""
    derive = graph_mod.GraphIndex.__init__

    def slow(ix, g, base=None, *delta):
        derive(ix, g, base, *delta)
        if base is not None:  # a derivation, not a build from rows
            ix.nodes = tuple(n._replace(cost_units=2 * n.cost_units) for n in ix.nodes)

    monkeypatch.setattr(graph_mod.GraphIndex, "__init__", slow)
    cpus(3)
    forked = run_invariant_suite(instances=60, seed=1)["failures"]
    assert_no_child_left()
    cpus(1)
    assert forked == run_invariant_suite(instances=60, seed=1)["failures"]
    assert len(forked) >= 60


def test_an_instance_that_raises_in_a_worker_raises_in_the_parent(cpus, monkeypatch):
    """Instances 31 and 50 are in the two children's shares, 45 in the
    parent's; the lowest, 31, raises as it does in one process."""
    real = props.random_instance

    def broken(inst_seed):
        i = inst_seed - 100_003
        if i in (31, 45, 50):
            raise ValueError(f"instance {i} is broken")
        return real(inst_seed)

    monkeypatch.setattr(props, "random_instance", broken)
    for n in (3, 1):
        cpus(n)
        with pytest.raises(ValueError) as exc:
            run_invariant_suite(instances=75, seed=1)
        assert type(exc.value) is ValueError and str(exc.value) == "instance 31 is broken"
        assert_no_child_left()


def test_a_killed_worker_loses_nothing(cpus, monkeypatch):
    parent, real = os.getpid(), props._instance_checks

    def mortal(i, seed):
        if i == 7 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(i, seed)

    monkeypatch.setattr(props, "_instance_checks", mortal)
    cpus(3)
    forked = run_invariant_suite(instances=75, seed=2)
    assert_no_child_left()
    cpus(1)
    assert forked == run_invariant_suite(instances=75, seed=2)


def test_a_fork_that_fails_leaves_the_share_in_process(cpus, monkeypatch):
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    cpus(3)
    monkeypatch.setattr(os, "fork", no_fork)
    unforked = run_invariant_suite(instances=75, seed=1)
    cpus(1)
    assert unforked == run_invariant_suite(instances=75, seed=1)


def test_an_interrupted_parent_kills_and_reaps_its_children(cpus, monkeypatch):
    """Each child would stop its share after 40 s; the parent does not wait."""
    parent = os.getpid()

    def interrupted(i, seed):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(40)
        raise ValueError("a child outlived its parent's call")

    monkeypatch.setattr(props, "_instance_checks", interrupted)
    cpus(3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_invariant_suite(instances=75, seed=1)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_verify_prints_the_same_bytes_on_one_cpu_and_on_several(cpus, capsys):
    outputs = []
    for n in (3, 1):
        cpus(n)
        rc = main(["verify", "--seeds", "1..3", "--instances", "60"])
        outputs.append((rc, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert_no_child_left()
