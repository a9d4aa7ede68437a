"""Unit tests for the discrete-event simulator."""

import pytest

from repro.errors import SimulationError
from repro.hw.event_sim import (DurationScaling, GraphRecorder, Simulator,
                                 TaskState)


def test_single_task_runs_for_duration():
    sim = Simulator()
    res = sim.resource("cpu")
    t = sim.submit("work", res, 10.0)
    end = sim.drain()
    assert t.state is TaskState.DONE
    assert t.start_time == 0.0
    assert t.end_time == 10.0
    assert end == 10.0


def test_serial_dependency_chain():
    sim = Simulator()
    res = sim.resource("cpu")
    a = sim.submit("a", res, 5.0)
    b = sim.submit("b", res, 7.0, deps=[a])
    c = sim.submit("c", res, 3.0, deps=[b])
    sim.drain()
    assert b.start_time == 5.0
    assert c.start_time == 12.0
    assert c.end_time == 15.0


def test_capacity_one_serializes_independent_tasks():
    sim = Simulator()
    res = sim.resource("link")
    t1 = sim.submit("x", res, 4.0)
    t2 = sim.submit("y", res, 4.0)
    sim.drain()
    assert {t1.start_time, t2.start_time} == {0.0, 4.0}


def test_capacity_two_runs_in_parallel():
    sim = Simulator()
    res = sim.resource("pool", capacity=2)
    t1 = sim.submit("x", res, 4.0)
    t2 = sim.submit("y", res, 4.0)
    end = sim.drain()
    assert t1.start_time == 0.0 and t2.start_time == 0.0
    assert end == 4.0


def test_diamond_dependency_joins():
    sim = Simulator()
    cpu = sim.resource("cpu", capacity=2)
    gpu = sim.resource("gpu")
    root = sim.submit("root", gpu, 1.0)
    left = sim.submit("left", cpu, 5.0, deps=[root])
    right = sim.submit("right", cpu, 3.0, deps=[root])
    join = sim.submit("join", gpu, 2.0, deps=[left, right])
    sim.drain()
    assert join.start_time == 6.0  # max(1+5, 1+3)
    assert join.end_time == 8.0


def test_cross_resource_overlap():
    sim = Simulator()
    cpu = sim.resource("cpu")
    gpu = sim.resource("gpu")
    a = sim.submit("cpu-work", cpu, 10.0)
    b = sim.submit("gpu-work", gpu, 10.0)
    end = sim.drain()
    assert end == 10.0
    assert a.start_time == b.start_time == 0.0


def test_priority_orders_queued_tasks():
    sim = Simulator()
    res = sim.resource("cpu")
    blocker = sim.submit("blocker", res, 5.0)
    low = sim.submit("low", res, 1.0, deps=[blocker], priority=10)
    high = sim.submit("high", res, 1.0, deps=[blocker], priority=0)
    sim.drain()
    assert high.start_time < low.start_time


def test_completion_callback_spawns_new_task():
    sim = Simulator()
    res = sim.resource("cpu")
    spawned = []

    def follow_up(task):
        spawned.append(sim.submit("child", res, 2.0))

    sim.submit("parent", res, 3.0).on_complete(follow_up)
    end = sim.drain()
    assert end == 5.0
    assert spawned[0].start_time == 3.0


def test_negative_duration_rejected():
    sim = Simulator()
    res = sim.resource("cpu")
    with pytest.raises(SimulationError):
        sim.submit("bad", res, -1.0)


def test_duplicate_resource_same_capacity_is_shared():
    sim = Simulator()
    a = sim.resource("cpu", capacity=2)
    b = sim.resource("cpu", capacity=2)
    assert a is b


def test_duplicate_resource_capacity_mismatch_raises():
    sim = Simulator()
    sim.resource("cpu", capacity=2)
    with pytest.raises(SimulationError):
        sim.resource("cpu", capacity=3)


def test_scheduling_event_in_past_raises():
    sim = Simulator()
    sim.after(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_run_until_in_the_past_raises_and_keeps_the_clock():
    sim = Simulator()
    res = sim.resource("cpu")
    sim.submit("long", res, 100.0)
    sim.run(until=10.0)
    with pytest.raises(SimulationError, match="past"):
        sim.run(until=5.0)
    assert sim.now == 10.0
    with pytest.raises(SimulationError):
        sim.at(6.0, lambda: None)


def test_run_until_pauses_and_resumes():
    sim = Simulator()
    res = sim.resource("cpu")
    t = sim.submit("long", res, 100.0)
    sim.run(until=50.0)
    assert sim.now == 50.0
    assert t.state is TaskState.RUNNING
    sim.run()
    assert t.state is TaskState.DONE
    assert sim.now == 100.0


def test_run_until_boundary_is_closed():
    """Events at exactly ``until`` fire before the loop pauses."""
    sim = Simulator()
    res = sim.resource("cpu")
    t = sim.submit("exact", res, 50.0)
    sim.run(until=50.0)
    assert t.state is TaskState.DONE
    assert t.end_time == 50.0
    assert sim.now == 50.0


def test_run_until_fires_same_instant_cascades():
    """Zero-delay follow-ups scheduled *at* the boundary also run."""
    sim = Simulator()
    res = sim.resource("cpu")
    spawned = []
    sim.submit("parent", res, 10.0).on_complete(
        lambda task: spawned.append(sim.submit("child", res, 0.0)))
    sim.run(until=10.0)
    assert spawned and spawned[0].state is TaskState.DONE
    assert sim.now == 10.0


def test_run_until_advances_clock_when_queue_drains_early():
    sim = Simulator()
    res = sim.resource("cpu")
    sim.submit("short", res, 3.0)
    assert sim.run(until=100.0) == 100.0
    assert sim.now == 100.0
    # Scheduling before the advanced clock is now (correctly) in the past.
    with pytest.raises(SimulationError):
        sim.at(50.0, lambda: None)


def test_run_until_preserves_equal_time_order_across_pause():
    """Pausing must not reshuffle same-time events: a paused-then-resumed
    run executes callbacks in the same order as an uninterrupted one."""
    def build(order):
        sim = Simulator()
        for tag in ("a", "b", "c"):
            sim.at(20.0, lambda tag=tag: order.append(tag))
        return sim

    uninterrupted: list[str] = []
    build(uninterrupted).run()

    paused: list[str] = []
    sim = build(paused)
    # Pause strictly before the events, then at several boundaries.
    sim.run(until=5.0)
    sim.run(until=19.0)
    assert paused == []
    sim.run(until=20.0)
    assert paused == uninterrupted == ["a", "b", "c"]


def test_run_until_repeated_same_boundary_is_idempotent():
    sim = Simulator()
    res = sim.resource("cpu")
    t = sim.submit("long", res, 100.0)
    sim.run(until=40.0)
    assert sim.run(until=40.0) == 40.0
    assert t.state is TaskState.RUNNING
    sim.run()
    assert t.end_time == 100.0


def test_perturb_hook_scales_at_start_time():
    """The duration hook sees the task at its *start*; queued tasks that
    start inside a later window get the later scaling."""
    windows = {"first": 2.0, "second": 3.0}

    def perturb(task, now):
        return task.duration * windows[task.name]

    sim = Simulator(perturb=perturb)
    res = sim.resource("cpu")
    a = sim.submit("first", res, 10.0)
    b = sim.submit("second", res, 10.0)   # queued behind a
    sim.drain()
    assert a.end_time - a.start_time == 20.0
    assert b.start_time == 20.0
    assert b.end_time - b.start_time == 30.0


def test_perturb_hook_invalid_duration_raises():
    sim = Simulator(perturb=lambda task, now: -1.0)
    res = sim.resource("cpu")
    sim.submit("bad", res, 1.0)
    with pytest.raises(SimulationError):
        sim.drain()


def test_zero_duration_tasks_complete():
    sim = Simulator()
    res = sim.resource("cpu")
    a = sim.submit("zero", res, 0.0)
    b = sim.submit("next", res, 1.0, deps=[a])
    end = sim.drain()
    assert a.state is TaskState.DONE
    assert b.start_time == 0.0
    assert end == 1.0


def test_dependency_on_completed_task():
    sim = Simulator()
    res = sim.resource("cpu")
    a = sim.submit("a", res, 1.0)
    sim.drain()
    b = sim.submit("b", res, 1.0, deps=[a])
    sim.drain()
    assert b.state is TaskState.DONE
    assert b.start_time == 1.0


def test_busy_time_accounting():
    sim = Simulator()
    res = sim.resource("cpu", capacity=2)
    sim.submit("a", res, 4.0)
    sim.submit("b", res, 6.0)
    sim.drain()
    assert res.busy_time == pytest.approx(10.0)


def test_many_tasks_fifo_fairness():
    sim = Simulator()
    res = sim.resource("cpu")
    tasks = [sim.submit(f"t{i}", res, 1.0) for i in range(20)]
    sim.drain()
    starts = [t.start_time for t in tasks]
    assert starts == sorted(starts)
    assert starts == [float(i) for i in range(20)]


# -- compiled graphs ----------------------------------------------------------

def test_recorder_rejects_what_the_compiled_loop_cannot_reproduce():
    rec = GraphRecorder()
    with pytest.raises(SimulationError, match="capacity-1"):
        rec.resource("cpu", capacity=2)
    res = rec.resource("cpu")
    with pytest.raises(SimulationError, match="priority 0"):
        rec.submit("urgent", res, 1.0, priority=-1)
    with pytest.raises(SimulationError, match="negative duration"):
        rec.submit("bad", res, -1.0)


def test_retime_validates_durations_and_hooks():
    rec = GraphRecorder()
    cpu, gpu = rec.resource("cpu"), rec.resource("gpu")
    a = rec.submit("a", cpu, 2.0)
    rec.submit("b", gpu, 3.0, deps=[a])
    graph = rec.compile()
    assert graph.retime([2.0, 3.0]) == ([2.0, 5.0], 5.0)
    assert graph.retime([2.0, 3.0], DurationScaling(2.0, 1.0)) == \
        ([4.0, 7.0], 7.0)
    with pytest.raises(SimulationError, match="3 durations for 2 tasks"):
        graph.retime([1.0, 1.0, 1.0])
    with pytest.raises(SimulationError, match="'a'"):
        graph.retime([2.0, 3.0], DurationScaling(-1.0, 1.0))
    with pytest.raises(SimulationError, match="'b'"):
        graph.retime([2.0, 3.0],
                     lambda task, now: float("nan") if now else 1.0)


def test_retime_calls_a_plain_hook_with_each_task_at_its_start():
    rec = GraphRecorder()
    cpu = rec.resource("cpu")
    first = rec.submit("first", cpu, 10.0)
    rec.submit("second", cpu, 10.0, deps=[first])
    seen = []

    def perturb(task, now):
        seen.append((task.name, task.resource.name, task.duration, now))
        return task.duration * (2.0 if now else 1.0)

    assert rec.compile().retime(rec.durations, perturb) == ([10.0, 30.0], 30.0)
    assert seen == [("first", "cpu", 10.0, 0.0), ("second", "cpu", 10.0, 10.0)]
