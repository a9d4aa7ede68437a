"""Unit tests for the discrete-event simulator."""

import types
import weakref

import pytest

from repro.errors import SimulationError
from repro.hw import Trace
from repro.hw.event_sim import DurationScaling, Simulator


def test_single_task_runs_for_duration():
    sim = Simulator()
    res = sim.resource("cpu")
    t = sim.submit("work", res, 10.0)
    end = sim.drain()
    assert sim.starts[t] == 0.0
    assert sim.ends[t] == 10.0
    assert end == sim.now == 10.0


def test_serial_dependency_chain():
    sim = Simulator()
    res = sim.resource("cpu")
    a = sim.submit("a", res, 5.0)
    b = sim.submit("b", res, 7.0, deps=[a])
    c = sim.submit("c", res, 3.0, deps=[b])
    sim.drain()
    assert sim.starts[b] == 5.0
    assert sim.starts[c] == 12.0
    assert sim.ends[c] == 15.0


def test_capacity_one_serializes_independent_tasks():
    sim = Simulator()
    res = sim.resource("link")
    t1 = sim.submit("x", res, 4.0)
    t2 = sim.submit("y", res, 4.0)
    sim.drain()
    assert (sim.starts[t1], sim.starts[t2]) == (0.0, 4.0)


def test_diamond_dependency_joins():
    sim = Simulator()
    cpu, pcie, gpu = sim.resource("cpu"), sim.resource("pcie"), \
        sim.resource("gpu")
    root = sim.submit("root", gpu, 1.0)
    left = sim.submit("left", cpu, 5.0, deps=[root])
    right = sim.submit("right", pcie, 3.0, deps=[root])
    join = sim.submit("join", gpu, 2.0, deps=[left, right])
    sim.drain()
    assert sim.starts[join] == 6.0  # max(1+5, 1+3)
    assert sim.ends[join] == 8.0


def test_cross_resource_overlap():
    sim = Simulator()
    cpu = sim.resource("cpu")
    gpu = sim.resource("gpu")
    a = sim.submit("cpu-work", cpu, 10.0)
    b = sim.submit("gpu-work", gpu, 10.0)
    end = sim.drain()
    assert end == 10.0
    assert sim.starts[a] == sim.starts[b] == 0.0


def test_negative_duration_rejected():
    sim = Simulator()
    res = sim.resource("cpu")
    with pytest.raises(SimulationError):
        sim.submit("bad", res, -1.0)


def test_non_finite_duration_rejected():
    """A NaN or infinite task would poison every later time."""
    sim = Simulator()
    res = sim.resource("cpu")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(SimulationError, match="finite"):
            sim.submit("bad", res, bad)
    sim.submit("ok", res, 1.0)
    assert sim.drain() == 1.0


def test_duplicate_resource_same_capacity_is_shared():
    """Every resource runs one task at a time, so a name is one resource."""
    sim = Simulator()
    a = sim.resource("cpu")
    assert sim.resource("cpu") == a != sim.resource("gpu")
    assert sim.resource_names == ("cpu", "gpu")


def test_perturb_hook_invalid_duration_raises():
    for mult in (-1.0, float("nan")):
        sim = Simulator(perturb=DurationScaling(mult, 1.0))
        sim.submit("bad", sim.resource("cpu"), 1.0)
        with pytest.raises(SimulationError, match="'bad'"):
            sim.drain()


def test_zero_duration_tasks_complete():
    sim = Simulator()
    res = sim.resource("cpu")
    a = sim.submit("zero", res, 0.0)
    b = sim.submit("next", res, 1.0, deps=[a])
    end = sim.drain()
    assert sim.ends[a] == 0.0
    assert sim.starts[b] == 0.0
    assert end == 1.0


def test_dependency_on_completed_task():
    """A run re-times the whole recording, tasks timed before included."""
    sim = Simulator()
    res = sim.resource("cpu")
    a = sim.submit("a", res, 1.0)
    sim.drain()
    b = sim.submit("b", res, 1.0, deps=[a])
    sim.drain()
    assert sim.starts[b] == 1.0
    assert sim.ends == [1.0, 2.0]


def test_busy_time_accounting():
    sim = Simulator()
    res = sim.resource("cpu")
    sim.submit("a", res, 4.0)
    sim.submit("b", res, 6.0)
    sim.drain()
    assert Trace.from_simulator(sim).busy_time("cpu") == pytest.approx(10.0)


def test_many_tasks_fifo_fairness():
    sim = Simulator()
    res = sim.resource("cpu")
    tasks = [sim.submit(f"t{i}", res, 1.0) for i in range(20)]
    sim.drain()
    starts = [sim.starts[t] for t in tasks]
    assert starts == [float(i) for i in range(20)]


def test_run_stays_a_wrappable_method(monkeypatch):
    """Outside tools wrap ``Simulator.run`` per class and key per-instance
    state weakly: ``run`` is a plain function, ``drain`` goes through
    it, and simulators are hashable and weak-referenceable."""
    original = vars(Simulator)["run"]
    assert isinstance(original, types.FunctionType)
    calls = []
    monkeypatch.setattr(Simulator, "run",
                        lambda self: calls.append(self) or original(self))
    sim = Simulator()
    sim.submit("a", sim.resource("cpu"), 1.0)
    assert sim.drain() == 1.0
    assert calls == [sim] and len(sim.all_tasks) == 1
    assert weakref.ref(sim)() is sim and hash(sim) == hash(sim)


# -- compiled graphs ----------------------------------------------------------

def test_retime_validates_durations_and_hooks():
    sim = Simulator()
    cpu, gpu = sim.resource("cpu"), sim.resource("gpu")
    a = sim.submit("a", cpu, 2.0)
    sim.submit("b", gpu, 3.0, deps=[a])
    graph = sim.compile()
    assert graph.retime([2.0, 3.0]) == ([0.0, 2.0], [2.0, 5.0], 5.0)
    assert graph.retime([2.0, 3.0], DurationScaling(2.0, 1.0)) == \
        ([0.0, 4.0], [4.0, 7.0], 7.0)
    with pytest.raises(SimulationError, match="3 durations for 2 tasks"):
        graph.retime([1.0, 1.0, 1.0])
    with pytest.raises(SimulationError, match="'a'"):
        graph.retime([2.0, 3.0], DurationScaling(-1.0, 1.0))
    with pytest.raises(SimulationError, match="'b'"):
        graph.retime([2.0, float("inf")], DurationScaling(1.0, 1.0))


class TestSimulatorFailureModes:
    def test_cycles_impossible_through_public_api(self):
        """submit() takes only already-created tasks as deps, so dependency
        cycles cannot be expressed -- the DAG property holds by
        construction."""
        sim = Simulator()
        res = sim.resource("cpu")
        a = sim.submit("a", res, 1.0)
        b = sim.submit("b", res, 1.0, deps=[a])
        end = sim.drain()
        assert end == 2.0
        assert sim.starts[b] == 1.0

    def test_submit_rejects_unknown_ids(self):
        """A dep must be an earlier task id and a resource a handed-out
        id; negative indexing must not wire a task to the last one."""
        sim = Simulator()
        res = sim.resource("cpu")
        a = sim.submit("a", res, 1.0)
        for deps in ([-1], [a + 1], [a, 5]):
            with pytest.raises(SimulationError, match="earlier task ids"):
                sim.submit("x", res, 1.0, deps=deps)
        for bad in (7, -1):
            with pytest.raises(SimulationError, match="unknown resource"):
                sim.submit("x", bad, 1.0)
        # Rejected submits leave no trace in the graph.
        assert len(sim.all_tasks) == 1 and sim.dependents == [[]]
        assert sim.drain() == 1.0
