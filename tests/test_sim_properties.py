"""Property-based tests of the discrete-event simulator's invariants.

Random task DAGs are generated and these invariants checked:

- capacity: a resource never runs two tasks at once;
- makespan lower bounds: end time >= critical path through dependencies,
  and >= per-resource total work;
- conservation: every submitted task runs exactly once for its duration;
- a resource's traced busy time never exceeds the run's span.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Simulator, Trace
from repro.hw.units import GBps, TFLOPS, ms, seconds, tokens_per_second, us_to_s


@st.composite
def task_dags(draw):
    """A random DAG: durations, resource assignment, backward-only edges."""
    n = draw(st.integers(2, 18))
    n_resources = draw(st.integers(1, 3))
    durations = [draw(st.floats(0.5, 50.0)) for __ in range(n)]
    assignment = [draw(st.integers(0, n_resources - 1)) for __ in range(n)]
    edges = []
    for i in range(1, n):
        for j in range(i):
            if draw(st.booleans()) and draw(st.booleans()):
                edges.append((j, i))
    return n_resources, durations, assignment, edges


def _run(n_resources, durations, assignment, edges):
    sim = Simulator()
    resources = [sim.resource(f"r{i}") for i in range(n_resources)]
    tasks = []
    deps_of = {i: [] for i in range(len(durations))}
    for j, i in edges:
        deps_of[i].append(j)
    for i, (dur, res) in enumerate(zip(durations, assignment)):
        tasks.append(sim.submit(
            f"t{i}", resources[res], dur,
            deps=[tasks[j] for j in deps_of[i]],
        ))
    end = sim.drain()
    return sim, tasks, end, deps_of


@settings(max_examples=60, deadline=None)
@given(task_dags())
def test_property_all_tasks_complete_with_exact_durations(dag):
    sim, tasks, end, __ = _run(*dag)
    for t, dur in zip(tasks, dag[1]):
        assert sim.ends[t] - sim.starts[t] == pytest.approx(dur)


@settings(max_examples=60, deadline=None)
@given(task_dags())
def test_property_dependencies_respected(dag):
    sim, tasks, __, deps_of = _run(*dag)
    for i, deps in deps_of.items():
        for j in deps:
            assert sim.starts[tasks[i]] >= sim.ends[tasks[j]] - 1e-9


@settings(max_examples=60, deadline=None)
@given(task_dags())
def test_property_capacity_never_exceeded(dag):
    n_resources, __, assignment, __ = dag
    sim, tasks, __, __ = _run(*dag)
    for r_idx in range(n_resources):
        intervals = [
            (sim.starts[t], sim.ends[t])
            for t, a in zip(tasks, assignment) if a == r_idx
        ]
        points = sorted({p for iv in intervals for p in iv})
        for lo, hi in zip(points, points[1:]):
            mid = (lo + hi) / 2
            running = sum(1 for s, e in intervals if s <= mid < e)
            assert running <= 1


@settings(max_examples=60, deadline=None)
@given(task_dags())
def test_property_makespan_lower_bounds(dag):
    n_resources, durations, assignment, __ = dag
    __, __, end, deps_of = _run(*dag)

    # Critical path bound.
    longest = {}
    for i in range(len(durations)):
        preds = deps_of[i]
        longest[i] = durations[i] + max((longest[j] for j in preds), default=0.0)
    assert end >= max(longest.values()) - 1e-6

    # Per-resource work bound.
    for r_idx in range(n_resources):
        work = sum(d for d, a in zip(durations, assignment) if a == r_idx)
        assert end >= work - 1e-6


@settings(max_examples=40, deadline=None)
@given(task_dags())
def test_property_trace_busy_time_bounded_by_span(dag):
    sim, __, end, __ = _run(*dag)
    trace = Trace.from_simulator(sim)
    for r_idx in range(dag[0]):
        busy = trace.busy_time(f"r{r_idx}")
        assert busy <= end + 1e-6
        assert 0.0 <= trace.utilization(f"r{r_idx}") <= 1.0 + 1e-9


class TestUnits:
    def test_conversions(self):
        assert GBps(1) == 1e9
        assert TFLOPS(2) == 2e12
        assert ms(3) == 3000.0
        assert seconds(1) == 1e6
        assert us_to_s(1e6) == 1.0

    def test_tokens_per_second(self):
        assert tokens_per_second(10, seconds(2)) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            tokens_per_second(1, 0.0)
