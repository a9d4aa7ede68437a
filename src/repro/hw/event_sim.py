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
  durations, so a topology priced many times (a decode step's) is
  recorded once.  A *contention-free* topology, in which no task ever
  waits for its resource, is timed by one critical-path pass; any other
  runs the FIFO event loop.  Both give bit-identical times;
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
        """The recorded topology, frozen for :meth:`CompiledGraph.retime`
        once it is decided whether the graph is contention-free."""
        return self._frozen(_critical_path_preds(
            len(self.resource_ids), self.res, self.deps))

    def _frozen(self, preds: Optional[Preds]) -> "CompiledGraph":
        return CompiledGraph(
            self.resource_names, tuple(self.names), tuple(self.res),
            tuple(map(tuple, self.dependents)), tuple(map(len, self.deps)),
            tuple(t for t, deps in enumerate(self.deps) if not deps), preds)

    def scaled_durations(self) -> list[float]:
        """The recorded durations, scaled by ``perturb`` when one is set."""
        if self.perturb is None:
            return self.durations
        return _scaled(self.durations, self.res, self.resource_names,
                       self.names, self.perturb)

    def run(self) -> float:
        """Time every recorded task from zero; returns the final time.

        A recording is timed once, so it is frozen undecided and takes the
        event loop: deciding whether a graph is contention-free costs more
        than the critical-path pass saves on a single timing.
        """
        self.starts, self.ends, self.now = self._frozen(None).retime(
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


# Every task's transitively reduced dependencies, split as ``(first,
# rest)``: task t depends on ``first[t]`` and each of ``rest[t]``.  A
# root's ``first`` is the task count, a slot the pass keeps at 0.0.
Preds = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _critical_path_preds(n_res: int, res: Sequence[int],
                         deps: Sequence[tuple[int, ...]],
                         ) -> Optional[Preds]:
    """Every task's transitively reduced dependencies if the graph is
    contention-free, else None.

    A graph is contention-free when, on every resource, each task is
    reachable from the task recorded on that resource before it.  Then
    the tasks on a resource form a chain, and a task's ancestors on a
    resource are a prefix of that chain: ``before[t][r]``, the latest
    task on ``r`` that ``t`` depends on directly or transitively (-1 for
    none), stands for all of them.  So ``t`` passes when ``before[t]``
    names the previous task on its resource, and a dependency ``d`` is
    implied by another one exactly when some dependency's ``before``
    reaches ``d`` on ``d``'s resource.
    """
    n = len(res)
    last = [-1] * n_res            # latest task recorded on each resource
    before: list[list[int]] = []
    first: list[int] = []
    rest: list[tuple[int, ...]] = []
    for t, (r, ds) in enumerate(zip(res, deps)):
        if len(ds) == 1:
            seen = before[ds[0]][:]
        elif ds:
            seen = list(map(max, *[before[d] for d in ds]))
            ds = [d for d in ds if seen[res[d]] < d]
        else:
            seen = [-1] * n_res
        for d in ds:               # kept dependencies sit on distinct chains
            seen[res[d]] = d
        if seen[r] != last[r]:
            return None
        last[r] = t
        before.append(seen)
        first.append(ds[0] if ds else n)
        rest.append(tuple(ds[1:]))
    return tuple(first), tuple(rest)


@dataclass(frozen=True)
class CompiledGraph:
    """A task-graph topology: task ``t`` runs on resource ``res[t]`` (named
    ``resources[res[t]]``), waits for ``n_deps[t]`` tasks and releases
    ``dependents[t]``; ``roots`` are the tasks without dependencies.
    ``preds`` holds every task's transitively reduced dependencies as
    ``(first, rest)`` when the graph is contention-free (no task ever
    waits for its resource), else None."""

    resources: tuple[str, ...]
    names: tuple[str, ...]
    res: tuple[int, ...]
    dependents: tuple[tuple[int, ...], ...]
    n_deps: tuple[int, ...]
    roots: tuple[int, ...]
    preds: Optional[Preds]

    def retime(self, durations: Sequence[float],
               perturb: Optional[DurationScaling] = None,
               ) -> tuple[list[float], list[float], float]:
        """Each task's start and end time and the final time, task ``t``
        lasting ``durations[t]`` scaled by ``perturb``.  Durations must be
        finite and non-negative (:meth:`Simulator.submit` checks them).

        A contention-free graph takes :meth:`_critical_path`, any other
        :meth:`_event_loop`; the two agree bit for bit wherever both apply.
        """
        if len(durations) != len(self.res):
            raise SimulationError(
                f"{len(durations)} durations for {len(self.res)} tasks")
        if perturb is not None:
            durations = _scaled(durations, self.res, self.resources,
                                self.names, perturb)
        if self.preds is None:
            return self._event_loop(durations)
        return self._critical_path(durations)

    def _critical_path(self, durations: Sequence[float],
                       ) -> tuple[list[float], list[float], float]:
        """One forward pass: each task starts at its dependencies' latest
        end.

        In a contention-free graph a task's resource is idle by the time
        its last dependency ends, since every earlier task on it is an
        ancestor and every later one a descendant; so the event loop
        starts it then, at the end time of the event that readied it.
        ``max`` picks that same float and each end is the same
        ``start + duration`` add, so the times match the loop bit for bit,
        and the final time is the latest end, the loop's last event.
        """
        n = len(durations)
        starts = [0.0] * n
        ends = [0.0] * (n + 1)
        first, rest = self.preds
        for t, a, more, duration in zip(range(n), first, rest, durations):
            start = ends[a]
            if more:
                for d in more:
                    if ends[d] > start:
                        start = ends[d]
            starts[t] = start
            ends[t] = start + duration
        ends.pop()
        return starts, ends, max(ends, default=0.0)

    def _event_loop(self, durations: Sequence[float],
                    ) -> tuple[list[float], list[float], float]:
        """The FIFO event loop, for graphs where tasks queue.

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
