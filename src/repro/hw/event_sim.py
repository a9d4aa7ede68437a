"""Discrete-event simulator for heterogeneous hardware.

This is the execution substrate for every performance experiment in the
reproduction.  The simulator models *time only*: each task occupies one
resource (a GPU stream, a CPU socket's thread pool, a PCIe link, the host
launch thread...) for a precomputed duration.  Durations come from the
roofline cost models in :mod:`repro.hw.roofline`.

Key properties:

- a :class:`Simulator` records tasks and resources under int ids; a task
  may depend only on tasks recorded before it, so the graph is a DAG;
- a task becomes *ready* only when all its dependencies finish, and every
  resource runs one task at a time, in the order tasks became ready;
- :meth:`CompiledGraph.retime` times a frozen topology for any
  durations with the FIFO event loop, so a topology priced many times
  (an Expert Deferral or per-kernel decode step's) is recorded once;
- every task's `(resource, start, end)` triple is recorded, giving exact
  utilization and overlap accounting for the timeline figures.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..errors import SimulationError


@dataclass(frozen=True)
class DurationScaling:
    """Duration hook scaling ``cpu*`` tasks by ``cpu_mult``, ``pcie*`` ones
    by ``pcie_mult`` (:meth:`repro.faults.StepPerturbation.sim_hook`)."""

    cpu_mult: float
    pcie_mult: float

    def multiplier(self, resource: str) -> float:
        """The factor tasks on the resource named ``resource`` scale by."""
        if resource.startswith("cpu"):
            return self.cpu_mult
        return self.pcie_mult if resource.startswith("pcie") else 1.0


class Simulator:
    """Records a task graph, then times it.

    :meth:`resource` and :meth:`submit` hand out int ids.  :meth:`run`
    times every recorded task from zero; afterwards :attr:`now` is the
    final time and task ``t`` ran from ``starts[t]`` to ``ends[t]``.  Its
    name is ``names[t]`` and its resource ``resource_names[res[t]]``.

    Durations must be finite and non-negative.  ``perturb``, when given,
    scales them by resource; fault injection (:mod:`repro.faults`) uses
    it to stretch CPU/PCIe tasks without the task-graph builders knowing.
    Scaled durations must be finite and non-negative too.
    """

    def __init__(self, perturb: Optional[DurationScaling] = None) -> None:
        self.now = 0.0
        self.perturb = perturb
        self.resource_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.res: list[int] = []
        self.durations: list[float] = []
        self.deps: list[tuple[int, ...]] = []
        self.dependents: list[list[int]] = []
        self.starts: list[float] = []
        self.ends: list[float] = []

    @property
    def resource_names(self) -> tuple[str, ...]:
        """Resource names, indexed by resource id."""
        return tuple(self.resource_ids)

    @property
    def all_tasks(self) -> range:
        """Every task id, in submission order."""
        return range(len(self.names))

    def resource(self, name: str) -> int:
        """The id of the resource called ``name``, created on first use."""
        return self.resource_ids.setdefault(name, len(self.resource_ids))

    def submit(self, name: str, resource: int, duration: float,
               deps: Iterable[int] = ()) -> int:
        """Record a task that runs ``duration`` us on ``resource`` once every
        task in ``deps`` has ended; returns its id."""
        task, deps = len(self.names), tuple(deps)
        if not 0.0 <= duration < math.inf:
            raise SimulationError(
                f"task {name!r} has invalid duration {duration!r}; "
                f"durations must be finite and >= 0")
        if not 0 <= resource < len(self.resource_ids):
            raise SimulationError(
                f"task {name!r} names unknown resource id {resource!r}")
        for dep in deps:
            if not 0 <= dep < task:
                raise SimulationError(
                    f"task {name!r} (id {task}) may only depend on earlier "
                    f"task ids, got {list(deps)}")
        for dep in deps:
            self.dependents[dep].append(task)
        self.names.append(name)
        self.res.append(resource)
        self.durations.append(float(duration))
        self.deps.append(deps)
        self.dependents.append([])
        return task

    def compile(self) -> "CompiledGraph":
        """The recorded topology, frozen for :meth:`CompiledGraph.retime`."""
        return CompiledGraph(
            self.resource_names, tuple(self.names), tuple(self.res),
            tuple(map(tuple, self.dependents)), tuple(map(len, self.deps)),
            tuple(t for t, deps in enumerate(self.deps) if not deps))

    def scaled_durations(self) -> list[float]:
        """The recorded durations, scaled by ``perturb`` when one is set."""
        if self.perturb is None:
            return self.durations
        return _scaled(self.durations, self.res, self.resource_names,
                       self.names, self.perturb)

    def run(self) -> float:
        """Time every recorded task from zero; returns the final time."""
        self.starts, self.ends, self.now = self.compile().retime(
            self.scaled_durations())
        return self.now

    def drain(self) -> float:
        """Run to completion (through :meth:`run`, so a wrapper installed
        on ``run`` sees every timing)."""
        return self.run()


def _checked(duration: float, name: str) -> float:
    """A scaled duration, rejected unless finite and >= 0."""
    if not math.isfinite(duration) or duration < 0:
        raise SimulationError(
            f"perturb hook returned invalid duration {duration!r} "
            f"for task {name!r}"
        )
    return duration


def _scaled(durations: Sequence[float], res: Sequence[int],
            resources: Sequence[str], names: Sequence[str],
            perturb: DurationScaling) -> list[float]:
    """Task ``t``'s duration times ``perturb``'s multiplier for resource
    ``resources[res[t]]``, checked by :func:`_checked`."""
    mult = [perturb.multiplier(name) for name in resources]
    return [_checked(d * mult[r], name)
            for d, r, name in zip(durations, res, names)]


@dataclass(frozen=True)
class CompiledGraph:
    """A task-graph topology: task ``t`` runs on resource ``res[t]`` (named
    ``resources[res[t]]``), waits for ``n_deps[t]`` tasks and releases
    ``dependents[t]``; ``roots`` are the tasks without dependencies."""

    resources: tuple[str, ...]
    names: tuple[str, ...]
    res: tuple[int, ...]
    dependents: tuple[tuple[int, ...], ...]
    n_deps: tuple[int, ...]
    roots: tuple[int, ...]

    def retime(self, durations: Sequence[float],
               perturb: Optional[DurationScaling] = None,
               ) -> tuple[list[float], list[float], float]:
        """Each task's start and end time and the final time, task ``t``
        lasting ``durations[t]`` scaled by ``perturb``.  Durations must be
        finite and non-negative (:meth:`Simulator.submit` checks them).
        """
        if len(durations) != len(self.res):
            raise SimulationError(
                f"{len(durations)} durations for {len(self.res)} tasks")
        if perturb is not None:
            durations = _scaled(durations, self.res, self.resources,
                                self.names, perturb)
        return self._event_loop(durations)

    def _event_loop(self, durations: Sequence[float],
                    ) -> tuple[list[float], list[float], float]:
        """The FIFO event loop.

        Events fire in ``(time, seq)`` order, ``seq`` being scheduling
        order: a task's end, then each resource dispatch it makes.  Ends
        still in the future wait on a heap; events due now (dispatches,
        ends of zero-length tasks) skip it and go to a FIFO.  Heap events
        due now were all scheduled before the clock reached now, so firing
        them first and then the FIFO is exactly ``(time, seq)`` order.
        """
        res, dependents = self.res, self.dependents
        starts = [0.0] * len(res)
        ends = [0.0] * len(res)
        remaining = list(self.n_deps)
        queues: list[deque[int]] = [deque() for __ in self.resources]
        busy = [False] * len(self.resources)
        # Zero-delay FIFO: task t ends now, ~r dispatches resource r.  None
        # is queued for a busy r: r's next end fires after it, so a no-op.
        ready: deque[int] = deque(~res[t] for t in self.roots)
        for t in self.roots:
            queues[res[t]].append(t)
        events: list[tuple[float, int, int]] = []   # (end, seq, task)
        push, pop = heapq.heappush, heapq.heappop
        now, seq = 0.0, 0
        while True:
            if ready:
                t = ready.popleft()
            elif events:     # advance; every end due now precedes the FIFO
                now, __, t = pop(events)
                while events and events[0][0] == now:
                    ready.append(pop(events)[2])
            else:
                break
            if t < 0:
                r = ~t
                if busy[r]:
                    continue
            else:
                ends[t] = now
                r = res[t]
                for s in dependents[t]:
                    left = remaining[s] = remaining[s] - 1
                    if not left:
                        queues[res[s]].append(s)
                        if not busy[res[s]]:
                            ready.append(~res[s])
                busy[r] = False
            queue = queues[r]
            if queue:
                t = queue.popleft()
                busy[r] = True
                starts[t] = now
                end = now + durations[t]
                if end == now:
                    ready.append(t)
                else:
                    push(events, (end, seq, t))
                    seq += 1
        return starts, ends, now
