"""Golden test: the event loop fires events in exact ``(time, seq)`` order.

:class:`RefSimulator` below is a minimal reference loop: one heap of
``(time, seq, closure)`` events, every event (zero-delay enqueues and
dispatches included) going through that heap.  Random task DAGs and
decode-step graphs run through both it and
:class:`repro.hw.event_sim.Simulator`; every task must get the same
resource, start and end time in both.  Random FIFO DAGs and decode graphs
also run through the compiled re-timer
(:meth:`repro.hw.event_sim.CompiledGraph.retime`), which must give every
task the same end time.
"""

import heapq
import itertools
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import StepPerturbation
from repro.hw import Simulator, paper_testbed
from repro.hw.event_sim import GraphRecorder, TaskState
from repro.sched import DecodeScheduleConfig, GpuExecutor, LaunchMode
from repro.sched.decode import _retime_decode_chain, build_decode_step
from repro.sched.workload import DecodeLayerWork


class _RefTask:
    def __init__(self, name, resource, duration, priority):
        self.name = name
        self.resource = resource
        self.duration = float(duration)
        self.priority = priority
        self.state = TaskState.PENDING
        self.start_time = None
        self.end_time = None
        self.remaining = 0
        self.dependents = []
        self.callbacks = []

    def on_complete(self, fn):
        self.callbacks.append(fn)
        return self


class _RefResource:
    def __init__(self, sim, name, capacity):
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_flight = 0
        self.queue = []
        self.seq = itertools.count()

    def enqueue(self, task):
        task.state = TaskState.QUEUED
        heapq.heappush(self.queue, (task.priority, next(self.seq), task))
        self.sim.after(0.0, self.dispatch)

    def dispatch(self):
        while self.in_flight < self.capacity and self.queue:
            self.start(heapq.heappop(self.queue)[2])

    def start(self, task):
        self.in_flight += 1
        task.state = TaskState.RUNNING
        task.start_time = self.sim.now
        duration = task.duration
        if self.sim.perturb is not None:
            duration = float(self.sim.perturb(task, self.sim.now))
        self.sim.after(duration, lambda: self.finish(task))

    def finish(self, task):
        task.state = TaskState.DONE
        task.end_time = self.sim.now
        self.in_flight -= 1
        for dep in task.dependents:
            dep.remaining -= 1
            if dep.remaining == 0 and dep.state is TaskState.PENDING:
                dep.resource.enqueue(dep)
        for fn in task.callbacks:
            fn(task)
        self.dispatch()


class RefSimulator:
    """Reference loop: a single ``(time, seq)`` heap of closures."""

    def __init__(self, perturb=None):
        self.now = 0.0
        self.perturb = perturb
        self.events = []
        self.seq = itertools.count()
        self.all_tasks = []
        self.resources = {}

    def resource(self, name, capacity=1):
        if name not in self.resources:
            self.resources[name] = _RefResource(self, name, capacity)
        return self.resources[name]

    def after(self, delay, fn):
        heapq.heappush(self.events, (self.now + delay, next(self.seq), fn))

    def submit(self, name, resource, duration, deps=(), priority=0):
        task = _RefTask(name, resource, duration, priority)
        self.all_tasks.append(task)
        pending = [d for d in deps if d.state is not TaskState.DONE]
        task.remaining = len(pending)
        for dep in pending:
            dep.dependents.append(task)
        if not pending:
            self.after(0.0, lambda: self._enqueue_if_pending(task))
        return task

    @staticmethod
    def _enqueue_if_pending(task):
        if task.state is TaskState.PENDING:
            task.resource.enqueue(task)

    def run(self, until=None):
        while self.events:
            if until is not None and self.events[0][0] > until:
                self.now = until
                return self.now
            self.now, __, fn = heapq.heappop(self.events)
            fn()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def drain(self):
        return self.run()


def _timeline(sim):
    return [(t.name, t.resource.name, t.start_time, t.end_time)
            for t in sim.all_tasks]


# -- random DAGs --------------------------------------------------------------

durations = st.one_of(st.just(0.0), st.sampled_from([1.0, 2.5, 4.0]),
                      st.floats(0.0, 20.0))


@st.composite
def task_programs(draw):
    """Waves of tasks: wave 0 at time 0, each later wave submitted after a
    ``run(until)`` pause.  Some tasks spawn a child on completion."""
    caps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    pauses = sorted(draw(st.lists(st.floats(0.0, 60.0), max_size=3)))
    waves = []
    n_prev = 0
    for __ in range(len(pauses) + 1):
        n = draw(st.integers(1, 10))
        tasks = []
        for i in range(n):
            deps = draw(st.lists(st.integers(0, n_prev + i - 1), max_size=3)
                        ) if n_prev + i else []
            child = draw(st.none() | st.tuples(
                st.integers(0, len(caps) - 1), durations, st.integers(0, 3),
                st.booleans()))
            tasks.append((draw(st.integers(0, len(caps) - 1)), draw(durations),
                          draw(st.integers(0, 3)), deps, child))
        waves.append(tasks)
        n_prev += n
    return caps, pauses, waves


def _run_program(sim, program):
    caps, pauses, waves = program
    resources = [sim.resource(f"r{i}", capacity=c) for i, c in enumerate(caps)]
    submitted = []

    def spawn(parent, child):
        res, dur, prio, depend_on_first = child
        parent.on_complete(lambda task: sim.submit(
            f"child:{task.name}", resources[res], dur,
            deps=submitted[:1] if depend_on_first else (), priority=prio))

    for w, wave in enumerate(waves):
        for res, dur, prio, deps, child in wave:
            task = sim.submit(f"t{len(submitted)}", resources[res], dur,
                              deps=[submitted[d] for d in deps],
                              priority=prio)
            if child is not None:
                spawn(task, child)
            submitted.append(task)
        if w < len(pauses):
            sim.run(until=max(pauses[w], sim.now))
    sim.drain()
    return _timeline(sim), sim.now


@settings(max_examples=150, deadline=None)
@given(task_programs())
def test_random_dags_match_reference_loop(program):
    assert _run_program(Simulator(), program) == \
        _run_program(RefSimulator(), program)


# -- the compiled re-timer on FIFO DAGs -------------------------------------

def _late_slowdown(task, now):
    """A plain ``(task, now)`` hook whose answer depends on start time."""
    return task.duration * 1.5 if now >= 50.0 else task.duration


hooks = st.one_of(
    st.none(),
    st.just(_late_slowdown),
    st.tuples(st.floats(1.0, 3.0), st.floats(0.2, 1.0)).map(
        lambda s: StepPerturbation(cpu_scale=s[0], pcie_scale=s[1]).sim_hook()),
)


@st.composite
def fifo_dags(draw):
    """Random DAGs of what the re-timer compiles: capacity-1 resources,
    priority-0 tasks, everything submitted before the run."""
    n_res = draw(st.integers(1, 3))
    tasks = []
    for i in range(draw(st.integers(1, 30))):
        deps = draw(st.lists(st.integers(0, i - 1), max_size=3)) if i else []
        tasks.append((draw(st.integers(0, n_res - 1)), draw(durations), deps))
    return n_res, tasks


def _submit_dag(sim, dag):
    n_res, tasks = dag
    resources = [sim.resource(name) for name in ("cpu", "pcie", "gpu")[:n_res]]
    submitted = []
    for res, dur, deps in tasks:
        submitted.append(sim.submit(f"t{len(submitted)}", resources[res], dur,
                                    deps=[submitted[d] for d in deps]))


@settings(max_examples=150, deadline=None)
@given(fifo_dags(), hooks)
# Two tasks end at t=1.  Both must finish before the FIFO dispatch that
# the first one's finish queued, or the tasks started at t=1 swap seq
# and the two waiting on resource 0 swap places at t=3.
@example(dag=(3, [(0, 1.0, []), (1, 1.0, []), (1, 2.0, []), (2, 2.0, [0]),
                  (0, 1.0, [3]), (0, 1.0, [2])]), hook=None)
def test_compiled_dags_match_reference_loop(dag, hook):
    ref = RefSimulator(perturb=hook)
    _submit_dag(ref, dag)
    ref.drain()
    rec = GraphRecorder()
    _submit_dag(rec, dag)
    ends, total = rec.compile().retime(rec.durations, hook)
    assert (ends, total) == ([t.end_time for t in ref.all_tasks], ref.now)


# -- decode-step graphs -------------------------------------------------------

layer_works = st.builds(
    DecodeLayerWork,
    gpu_attn_us=st.floats(1.0, 80.0),
    gpu_shared_us=st.floats(0.0, 40.0),
    cpu_routed_us=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
    transfer_bytes=st.floats(1e3, 1e6),
    n_gpu_kernels=st.integers(1, 12),
)


def _run_decode(sim, works, config, machine, n_steps):
    ex = GpuExecutor(sim, machine, config.launch_mode)
    deps, carried = [], None
    for t in range(n_steps):
        end, carried = build_decode_step(sim, ex, works, config, machine,
                                         step_deps=deps, step_idx=t,
                                         carried_deferred=carried)
        deps = [end]
    sim.drain()
    return _timeline(sim), sim.now


@settings(max_examples=60, deadline=None)
@given(st.lists(layer_works, min_size=1, max_size=5),
       st.sampled_from(list(LaunchMode)), st.booleans(),
       st.sampled_from([0, 2]), st.integers(1, 3), hooks)
def test_decode_chains_match_reference_loop(works, mode, overlap, n_deferred,
                                            n_steps, hook):
    machine = paper_testbed("a100")
    config = DecodeScheduleConfig(launch_mode=mode, overlap_cpu_gpu=overlap,
                                  top_k=6, n_deferred=n_deferred)
    got = _run_decode(Simulator(perturb=hook), works, config, machine, n_steps)
    want = _run_decode(RefSimulator(perturb=hook), works, config, machine,
                       n_steps)
    assert got == want
    assert all(math.isfinite(end) for *__, end in got[0])
    # The compiled re-timer: same end time for every task, same total.
    ends, total, __ = _retime_decode_chain(works, config, machine, n_steps,
                                           hook)
    assert (ends, total) == ([end for *__, end in want[0]], want[1])
