"""Discrete-event simulator for heterogeneous hardware.

This is the execution substrate for every performance experiment in the
reproduction.  The simulator models *time only*: each :class:`Task` occupies
one slot of a :class:`Resource` (a GPU stream, a CPU socket's thread pool, a
PCIe link, the host launch thread...) for a precomputed duration.  Durations
come from the roofline cost models in :mod:`repro.hw.roofline`.

Key properties:

- tasks form a DAG: a task becomes *ready* only when all dependencies finish;
- resources have integer capacity and FIFO-with-priority queues;
- completion callbacks may create new tasks, enabling reactive schedulers
  (the asynchronous CPU-GPU scheduler and the dynamic MoE work queue both
  rely on this);
- every task's `(resource, start, end)` triple is recorded, giving exact
  utilization and overlap accounting for the timeline figures.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Optional, Sequence

from ..errors import SimulationError


class TaskState(Enum):
    PENDING = "pending"      # waiting on dependencies
    QUEUED = "queued"        # ready, waiting for a resource slot
    RUNNING = "running"
    DONE = "done"


# Enum member lookups are slow; the event loop's hot paths use these.
_PENDING, _QUEUED, _RUNNING, _DONE = TaskState


class Task:
    """A unit of simulated work bound to one resource.

    ``duration`` is in microseconds.  ``deps`` are tasks that must complete
    before this one may start queuing.  ``on_complete`` callbacks fire at the
    task's end time and may submit further tasks.
    """

    __slots__ = (
        "name", "resource", "duration", "priority", "state", "start_time",
        "end_time", "_remaining_deps", "_dependents", "_on_complete",
    )

    def __init__(
        self,
        name: str,
        resource: "Resource",
        duration: float,
        priority: int = 0,
    ) -> None:
        if duration < 0:
            raise SimulationError(f"task {name!r} has negative duration {duration}")
        self.name = name
        self.resource = resource
        self.duration = float(duration)
        self.priority = priority
        self.state = _PENDING
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._remaining_deps = 0
        self._dependents: list[Task] = []
        self._on_complete: list[Callable[[Task], None]] = []

    def on_complete(self, fn: Callable[["Task"], None]) -> "Task":
        """Register a callback invoked (at simulated end time) on completion."""
        if self.state is _DONE:
            raise SimulationError(f"task {self.name!r} already completed")
        self._on_complete.append(fn)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task({self.name!r}, res={self.resource.name!r}, "
            f"dur={self.duration:.2f}us, state={self.state.value})"
        )


class Resource:
    """A capacity-limited execution resource (device queue, link, thread pool)."""

    def __init__(self, sim: "Simulator", name: str, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError(f"resource {name!r} needs positive capacity")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_flight = 0
        self._queue: list[tuple[int, int, Task]] = []  # (priority, seq, task)
        self._seq = itertools.count()
        self.busy_time = 0.0  # accumulated task-occupancy (us * slots)

    def _enqueue(self, task: Task) -> None:
        task.state = _QUEUED
        heapq.heappush(self._queue, (task.priority, next(self._seq), task))
        # Defer dispatch to the event loop so that all tasks becoming ready
        # at the same instant enter the queue before any slot is assigned --
        # otherwise priorities would be ignored among same-time arrivals.
        self.sim._ready.append((Resource._dispatch, self))

    def _dispatch(self) -> None:
        queue = self._queue
        while queue and self._in_flight < self.capacity:
            self._start(heapq.heappop(queue)[2])

    def _start(self, task: Task) -> None:
        sim = self.sim
        self._in_flight += 1
        task.state = _RUNNING
        task.start_time = now = sim.now
        duration = (task.duration if sim.perturb is None else _checked(
            float(sim.perturb(task, now)), task.name))
        sim._post(now + duration, self._finish, task)

    def _finish(self, task: Task) -> None:
        task.state = _DONE
        task.end_time = self.sim.now
        self.busy_time += task.end_time - task.start_time
        self._in_flight -= 1
        for dep in task._dependents:
            dep._remaining_deps -= 1
            if not dep._remaining_deps and dep.state is _PENDING:
                dep.resource._enqueue(dep)
        for fn in task._on_complete:
            fn(task)
        self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name!r}, cap={self.capacity})"


class Simulator:
    """Event loop: timed callbacks plus task bookkeeping.

    Events fire in ``(time, seq)`` order, ``seq`` being scheduling order.
    Future events wait on a heap of ``(time, seq, fn, arg)`` tuples;
    events scheduled *at* the current instant (every zero-delay enqueue
    and dispatch) skip the heap and go to a FIFO.  Heap events due now
    were all scheduled before the clock reached now, so firing them
    first and then the FIFO is exactly ``(time, seq)`` order.

    ``perturb``, when given, is a duration hook ``(task, now) -> duration``
    consulted at each task's *start* time; fault injection
    (:mod:`repro.faults`) uses it to stretch CPU/PCIe tasks inside
    degradation windows without the task-graph builders knowing.  The hook
    must return a finite, non-negative duration.
    """

    def __init__(
        self,
        perturb: Optional[Callable[[Task, float], float]] = None,
    ) -> None:
        self.now = 0.0
        self.perturb = perturb
        self._events: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._ready: deque[tuple[Callable[[Any], None], Any]] = deque()
        self._seq = itertools.count()
        self.all_tasks: list[Task] = []
        self._resources: dict[str, Resource] = {}

    # -- resources ----------------------------------------------------------

    def resource(self, name: str, capacity: int = 1) -> Resource:
        """Create (or fetch) a named resource."""
        if name in self._resources:
            existing = self._resources[name]
            if existing.capacity != capacity:
                raise SimulationError(
                    f"resource {name!r} already exists with capacity "
                    f"{existing.capacity}, requested {capacity}"
                )
            return existing
        res = Resource(self, name, capacity)
        self._resources[name] = res
        return res

    @property
    def resources(self) -> dict[str, Resource]:
        return dict(self._resources)

    # -- events -------------------------------------------------------------

    def at(self, time: float, fn: Callable[[], None]) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past ({time} < now={self.now})"
            )
        self._post(time, _call, fn)

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        self.at(self.now + delay, fn)

    def _post(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` at ``time`` (never earlier than now)."""
        if time == self.now:
            self._ready.append((fn, arg))
        else:
            heapq.heappush(self._events, (time, next(self._seq), fn, arg))

    # -- tasks --------------------------------------------------------------

    def submit(
        self,
        name: str,
        resource: Resource,
        duration: float,
        deps: Iterable[Task] = (),
        priority: int = 0,
    ) -> Task:
        """Create a task and wire its dependencies.

        The task queues on its resource as soon as all ``deps`` are done
        (immediately if they already are, or if there are none).
        """
        task = Task(name, resource, duration, priority)
        self.all_tasks.append(task)
        for dep in deps:
            if dep.state is not _DONE:
                dep._dependents.append(task)
                task._remaining_deps += 1
        if task._remaining_deps == 0:
            # Defer enqueue to the event loop so that submission order inside
            # a callback does not depend on Python evaluation order.
            self._ready.append((_enqueue_if_pending, task))
        return task

    @property
    def completed_tasks(self) -> list[Task]:
        """All tasks that have finished executing, in submission order."""
        return [t for t in self.all_tasks if t.state is _DONE]

    # -- main loop ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or simulated ``until``).

        ``until`` is a **closed** boundary: every event scheduled at
        exactly ``until`` fires -- including callbacks those events
        themselves schedule at the same instant -- before the loop
        pauses, and the clock lands on exactly ``until`` even if the
        queue drains earlier.  Strictly-later events are left in place
        without re-insertion, so their relative order is stable across
        pause/resume (fault windows land on exact boundaries, so this
        edge is defined and tested rather than heap-order dependent).

        Returns the final simulated time.  An ``until`` before the
        current time raises :class:`SimulationError`: that instant has
        already been simulated.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until the past ({until} < now={self.now})"
            )
        events, ready, pop = self._events, self._ready, heapq.heappop
        now = self.now
        while True:
            if events and events[0][0] == now:
                __, __, fn, arg = pop(events)
            elif ready:
                fn, arg = ready.popleft()
            elif events and (until is None or events[0][0] <= until):
                self.now = now = events[0][0]
                continue
            else:
                break
            fn(arg)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def drain(self) -> float:
        """Run to completion and verify no task is left unfinished.

        A stuck task indicates a dependency cycle or an unsatisfiable wait.
        """
        end = self.run()
        stuck = [t for t in self.all_tasks if t.state is not _DONE]
        if stuck:
            raise SimulationError(f"{len(stuck)} tasks never completed: {stuck[:5]}")
        return end


def _call(fn: Callable[[], None]) -> None:
    fn()


def _enqueue_if_pending(task: Task) -> None:
    if task.state is _PENDING:
        task.resource._enqueue(task)


def _checked(duration: float, name: str) -> float:
    """A ``perturb`` hook's duration, rejected unless finite and >= 0."""
    if not math.isfinite(duration) or duration < 0:
        raise SimulationError(
            f"perturb hook returned invalid duration {duration!r} "
            f"for task {name!r}"
        )
    return duration


@dataclass
class Barrier:
    """Convenience: a zero-duration task used to join many predecessors."""

    task: Task

    @classmethod
    def join(cls, sim: Simulator, name: str, resource: Resource,
             deps: Iterable[Task]) -> "Barrier":
        return cls(sim.submit(name, resource, 0.0, deps=deps))


@dataclass(frozen=True)
class DurationScaling:
    """Duration hook scaling ``cpu*`` tasks by ``cpu_mult``, ``pcie*`` ones
    by ``pcie_mult``.  It ignores ``now``, so retimes apply it up front."""

    cpu_mult: float
    pcie_mult: float

    def multiplier(self, resource: str) -> float:
        """The factor tasks on the resource named ``resource`` scale by."""
        if resource.startswith("cpu"):
            return self.cpu_mult
        return self.pcie_mult if resource.startswith("pcie") else 1.0

    def __call__(self, task: Task, now: float) -> float:
        return task.duration * self.multiplier(task.resource.name)


class GraphRecorder:
    """Stands in for a :class:`Simulator` in task-graph builders, recording
    int resource/task ids and each task's duration; :meth:`compile` freezes
    the topology.  Only what :meth:`CompiledGraph.retime` reproduces exactly
    is accepted: capacity-1 resources and priority-0 (FIFO) tasks."""

    def __init__(self) -> None:
        self.resources: dict[str, int] = {}
        self.names: list[str] = []
        self.res: list[int] = []
        self.durations: list[float] = []
        self.dependents: list[list[int]] = []
        self.n_deps: list[int] = []

    def resource(self, name: str, capacity: int = 1) -> int:
        if capacity != 1:
            raise SimulationError(f"{name!r}: only capacity-1 compiles")
        return self.resources.setdefault(name, len(self.resources))

    def submit(self, name: str, resource: int, duration: float,
               deps: Iterable[int] = (), priority: int = 0) -> int:
        if duration < 0:
            raise SimulationError(f"{name!r}: negative duration {duration}")
        if priority != 0:
            raise SimulationError(f"{name!r}: only priority 0 compiles")
        task, deps = len(self.res), tuple(deps)
        for dep in deps:
            self.dependents[dep].append(task)
        self.names.append(name)
        self.res.append(resource)
        self.durations.append(float(duration))
        self.dependents.append([])
        self.n_deps.append(len(deps))
        return task

    def compile(self) -> "CompiledGraph":
        return CompiledGraph(
            tuple(self.resources), tuple(self.names), tuple(self.res),
            tuple(map(tuple, self.dependents)), tuple(self.n_deps),
            tuple(t for t, n in enumerate(self.n_deps) if not n))


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
               perturb: Optional[Callable[[Task, float], float]] = None,
               ) -> tuple[list[float], float]:
        """Each task's end time and the final time, task ``t`` lasting
        ``durations[t]``: what :meth:`Simulator.drain` gives, events firing
        in the same order with the same float operations and ``perturb``
        honoured (a plain hook is called with a :class:`Task` at its start).
        """
        res, dependents = self.res, self.dependents
        if len(durations) != len(res):
            raise SimulationError(
                f"{len(durations)} durations for {len(res)} tasks")
        hook = None
        if type(perturb) is DurationScaling:     # exactly: it ignores now
            mult = [perturb.multiplier(name) for name in self.resources]
            durations = [_checked(d * mult[r], name) for d, r, name
                         in zip(durations, res, self.names)]
        elif perturb is not None:
            sim = Simulator()
            objs = [sim.resource(name) for name in self.resources]

            def hook(t: int, now: float) -> float:
                task = Task(self.names[t], objs[res[t]], durations[t])
                return _checked(float(perturb(task, now)), task.name)

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
                end = now + (durations[t] if hook is None else hook(t, now))
                if end == now:
                    ready.append(t)
                else:
                    push(events, (end, seq, t))
                    seq += 1
        return ends, now
