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
from typing import Any, Callable, Iterable, Optional

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
        "name", "resource", "duration", "priority", "meta",
        "state", "start_time", "end_time",
        "_remaining_deps", "_dependents", "_on_complete",
    )

    def __init__(
        self,
        name: str,
        resource: "Resource",
        duration: float,
        priority: int = 0,
        meta: Optional[dict] = None,
    ) -> None:
        if duration < 0:
            raise SimulationError(f"task {name!r} has negative duration {duration}")
        self.name = name
        self.resource = resource
        self.duration = float(duration)
        self.priority = priority
        self.meta = meta or {}
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
        duration = (task.duration if sim.perturb is None
                     else sim._effective_duration(task))
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

    def _effective_duration(self, task: Task) -> float:
        """The duration a task occupies its resource, under ``perturb``."""
        duration = float(self.perturb(task, self.now))
        if not math.isfinite(duration) or duration < 0:
            raise SimulationError(
                f"perturb hook returned invalid duration {duration!r} "
                f"for task {task.name!r}"
            )
        return duration

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
        meta: Optional[dict] = None,
    ) -> Task:
        """Create a task and wire its dependencies.

        The task queues on its resource as soon as all ``deps`` are done
        (immediately if they already are, or if there are none).
        """
        task = Task(name, resource, duration, priority, meta)
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

        Returns the final simulated time.
        """
        events, ready, pop = self._events, self._ready, heapq.heappop
        if until is not None and until < self.now and (events or ready):
            self.now = until     # everything left is due after ``until``
            return self.now
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


@dataclass
class Barrier:
    """Convenience: a zero-duration task used to join many predecessors."""

    task: Task

    @classmethod
    def join(cls, sim: Simulator, name: str, resource: Resource,
             deps: Iterable[Task]) -> "Barrier":
        return cls(sim.submit(name, resource, 0.0, deps=deps))
