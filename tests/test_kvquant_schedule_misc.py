"""Simulator edge cases: dependency cycles and rejected submits."""

import pytest

from repro.errors import SimulationError
from repro.hw import Simulator


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
