"""Golden test: the simulator fires events in exact ``(time, seq)`` order.

:class:`RefSimulator` below is a minimal reference loop: one heap of
``(time, seq, closure)`` events, every event (zero-delay enqueues and
dispatches included) going through that heap.  Random task DAGs and the
task graphs the schedulers build (decode steps, prefill chunks, the
multi-GPU pipeline stages) run through both it and
:class:`repro.hw.event_sim.Simulator`; every task must get the same
resource, start and end time in both, and both must end at the same
time, both when ``Simulator.run`` times the recording and when its
compiled graph (:meth:`repro.hw.event_sim.CompiledGraph.retime`) is
re-timed.
"""

import heapq
import itertools
import math
import re
from collections import deque
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphCaptureError, SchedulingError, SimulationError
from repro.faults import StepPerturbation
from repro.hw import Simulator, paper_testbed
from repro.hw.event_sim import DurationScaling
from repro.sched import DecodeScheduleConfig, GpuExecutor, LaunchMode
from repro.sched import decode, multi_gpu, prefill
from repro.sched.decode import _retime_decode_chain, build_decode_step
from repro.sched.multi_gpu import (PipelineConfig, simulate_pipelined_decode,
                                   simulate_pipelined_prefill)
from repro.sched.prefill import simulate_prefill
from repro.sched.workload import DecodeLayerWork, PrefillLayerWork


class _RefTask:
    def __init__(self, name, resource, duration):
        self.name = name
        self.resource = resource
        self.duration = float(duration)
        self.done = self.queued = False
        self.start_time = None
        self.end_time = None
        self.remaining = 0
        self.dependents = []


class _RefResource:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.busy = False
        self.queue = deque()

    def enqueue(self, task):
        task.queued = True
        self.queue.append(task)
        self.sim.after(0.0, self.dispatch)

    def dispatch(self):
        if not self.busy and self.queue:
            self.start(self.queue.popleft())

    def start(self, task):
        self.busy = True
        task.start_time = self.sim.now
        duration = task.duration
        if self.sim.perturb is not None:
            duration *= self.sim.perturb.multiplier(self.name)
        self.sim.after(duration, lambda: self.finish(task))

    def finish(self, task):
        task.done = True
        task.end_time = self.sim.now
        self.busy = False
        for dep in task.dependents:
            dep.remaining -= 1
            if dep.remaining == 0 and not dep.queued:
                dep.resource.enqueue(dep)
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

    def resource(self, name):
        if name not in self.resources:
            self.resources[name] = _RefResource(self, name)
        return self.resources[name]

    def after(self, delay, fn):
        heapq.heappush(self.events, (self.now + delay, next(self.seq), fn))

    def submit(self, name, resource, duration, deps=()):
        task = _RefTask(name, resource, duration)
        self.all_tasks.append(task)
        pending = [d for d in deps if not d.done]
        task.remaining = len(pending)
        for dep in pending:
            dep.dependents.append(task)
        if not pending:
            self.after(0.0, lambda: self._enqueue_if_pending(task))
        return task

    @staticmethod
    def _enqueue_if_pending(task):
        if not task.queued:
            task.resource.enqueue(task)

    def drain(self):
        while self.events:
            self.now, __, fn = heapq.heappop(self.events)
            fn()
        return self.now


def _timeline(sim):
    """Every task's ``(name, resource, start, end)`` and the final time."""
    if isinstance(sim, RefSimulator):
        rows = [(t.name, t.resource.name, t.start_time, t.end_time)
                for t in sim.all_tasks]
    else:
        rows = [(sim.names[t], sim.resource_names[sim.res[t]], sim.starts[t],
                 sim.ends[t]) for t in sim.all_tasks]
    return rows, sim.now


def _retimed(sim):
    """``sim``'s recording re-timed through its compiled graph, as a
    :func:`_timeline`."""
    starts, ends, final = sim.compile().retime(sim.durations, sim.perturb)
    return [(sim.names[t], sim.resource_names[sim.res[t]], starts[t], ends[t])
            for t in sim.all_tasks], final


def _both(module, build, *args):
    """``build(*args)`` timed by ``module``'s simulator, then by the
    reference loop standing in for it; also checks that re-timing the
    compiled graph gives the same timeline.  Returns both timelines."""
    sim = build(*args)
    got = _timeline(sim)
    assert _retimed(sim) == got
    with mock.patch.object(module, "Simulator", RefSimulator):
        want = _timeline(build(*args))
    return got, want


# -- random DAGs --------------------------------------------------------------

durations = st.one_of(st.just(0.0), st.sampled_from([1.0, 2.5, 4.0]),
                      st.floats(0.0, 20.0))

hooks = st.one_of(
    st.none(),
    st.tuples(st.floats(1.0, 3.0), st.floats(0.2, 1.0)).map(
        lambda s: StepPerturbation(cpu_scale=s[0], pcie_scale=s[1]).sim_hook()),
)


@st.composite
def fifo_dags(draw):
    """Random DAGs: tasks on up to three resources, each depending on up
    to three earlier tasks."""
    n_res = draw(st.integers(1, 3))
    tasks = []
    for i in range(draw(st.integers(1, 30))):
        deps = draw(st.lists(st.integers(0, i - 1), max_size=3)) if i else []
        tasks.append((draw(st.integers(0, n_res - 1)), draw(durations), deps))
    return n_res, tasks


@st.composite
def contention_free_dags(draw):
    """Random DAGs in which each task also depends on the previous task
    on its resource, so no task waits for its resource.  Durations
    repeat and include zeros, so ends tie."""
    n_res = draw(st.integers(1, 3))
    last = [None] * n_res
    tasks = []
    for i in range(draw(st.integers(1, 30))):
        res = draw(st.integers(0, n_res - 1))
        deps = draw(st.lists(st.integers(0, i - 1), max_size=3)) if i else []
        if last[res] is not None:
            deps.insert(draw(st.integers(0, len(deps))), last[res])
        last[res] = i
        tasks.append((res, draw(durations), deps))
    return n_res, tasks


def _record_dag(sim, dag):
    n_res, tasks = dag
    resources = [sim.resource(name) for name in ("cpu", "pcie", "gpu")[:n_res]]
    submitted = []
    for res, dur, deps in tasks:
        submitted.append(sim.submit(f"t{len(submitted)}", resources[res], dur,
                                    deps=[submitted[d] for d in deps]))
    return sim


def _run_dag(sim, dag):
    _record_dag(sim, dag).drain()
    return _timeline(sim)


@settings(max_examples=300, deadline=None)
@given(st.one_of(fifo_dags(), contention_free_dags()), hooks)
# Two tasks end at t=1.  Both must finish before the FIFO dispatch that
# the first one's finish queued, or the tasks started at t=1 swap seq
# and the two waiting on resource 0 swap places at t=3.
@example(dag=(3, [(0, 1.0, []), (1, 1.0, []), (1, 2.0, []), (2, 2.0, [0]),
                  (0, 1.0, [3]), (0, 1.0, [2])]), hook=None)
# Three ends due at t=1 fire in the order they were scheduled, so t3
# (released by t1) queues on resource 0 before t4 (released by t2).
@example(dag=(3, [(0, 1.0, []), (1, 1.0, []), (2, 1.0, []), (0, 1.0, [1]),
                  (0, 1.0, [2])]), hook=None)
# Zero-length tasks tie at t=0 and t=1 across all three resources, none
# of them waiting for its resource.
@example(dag=(3, [(0, 0.0, []), (1, 0.0, [0]), (2, 1.0, [0]),
                  (0, 0.0, [1, 0]), (1, 1.0, [2, 1]), (2, 0.0, [4, 2])]),
         hook=None)
def test_compiled_dags_match_reference_loop(dag, hook):
    sim = Simulator(perturb=hook)
    want = _run_dag(RefSimulator(perturb=hook), dag)
    assert _run_dag(sim, dag) == want
    assert _retimed(sim) == want


def test_tasks_queueing_on_a_resource_take_the_event_loop():
    """Two independent tasks on one resource: the second waits."""
    sim = Simulator()
    cpu = sim.resource("cpu")
    sim.submit("a", cpu, 1.0)
    sim.submit("b", cpu, 1.0)
    assert _retimed(sim) == ([("a", "cpu", 0.0, 1.0), ("b", "cpu", 1.0, 2.0)],
                             2.0)


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
    return _timeline(sim)


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
    # The tiled re-time of the cached topology: same times, same total.
    starts, ends, total, __ = _retime_decode_chain(works, config, machine,
                                                   n_steps, hook)
    assert (starts, ends, total) == ([row[2] for row in want[0]],
                                     [row[3] for row in want[0]], want[1])


# -- the per-layer recurrence of CUDA-graph steps without deferral ----------

recurrence_works = st.builds(
    DecodeLayerWork,
    gpu_attn_us=st.one_of(st.just(0.0), st.floats(0.0, 80.0)),
    gpu_shared_us=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    cpu_routed_us=st.one_of(st.just(0.0), st.floats(-5.0, 300.0)),
    transfer_bytes=st.one_of(st.just(0.0), st.floats(1e3, 1e6)),
    n_gpu_kernels=st.integers(1, 12),
)

scalings = st.one_of(hooks, st.builds(DurationScaling, st.floats(0.0, 4.0),
                                      st.floats(0.0, 4.0)))


def _graph_config(overlap=True, mode=LaunchMode.CUDA_GRAPH, n_deferred=0):
    return DecodeScheduleConfig(launch_mode=mode, overlap_cpu_gpu=overlap,
                                top_k=6, n_deferred=n_deferred)


@st.composite
def shared_recurrence_works(draw):
    """Layers picked from a pool of at most three work objects, so one
    object repeats at several positions as a preset's dense and MoE
    layers do."""
    pool = draw(st.lists(recurrence_works, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=12))
    return [pool[i] for i in picks]


@settings(max_examples=350, deadline=None)
@given(st.one_of(st.lists(recurrence_works, min_size=1, max_size=8),
                 shared_recurrence_works()),
       st.booleans(), scalings, st.integers(1, 5), st.integers(0, 3))
def test_graph_recurrence_matches_recorded_chain(works, overlap, perturb,
                                                 n_steps, warmup_steps):
    """Independent layers, or layers repeating a few shared objects (the
    recurrence derives each distinct object once and reuses it)."""
    machine, config = paper_testbed("a100"), _graph_config(overlap)
    steps = warmup_steps + n_steps
    __, ends, total, ids = _retime_decode_chain(works, config, machine, steps,
                                                perturb)
    heads = [ends[t] for t in ids]
    got = decode._graph_head_ends(works, config, machine, steps, perturb)
    assert got == heads and got[-1] == total
    boundary = heads[warmup_steps - 1] if warmup_steps else 0.0
    price = decode._simulated_step_us.__wrapped__(
        tuple(works), config, machine, n_steps, warmup_steps, perturb)
    assert price == (total - boundary) / n_steps


_GOOD = DecodeLayerWork(30.0, 12.0, 250.0, 7168 * 4.0, 9)


@pytest.mark.parametrize("works, perturb, error", [
    ([_GOOD, DecodeLayerWork(-1.0, 12.0, 250.0, 1e4, 9)], None,
     GraphCaptureError),
    ([_GOOD, DecodeLayerWork(30.0, -1.0, 250.0, 1e4, 9)], None,
     GraphCaptureError),
    ([DecodeLayerWork(math.inf, 12.0, 250.0, 1e4, 9)], None, SimulationError),
    ([_GOOD, DecodeLayerWork(30.0, 12.0, math.inf, 1e4, 9)], None,
     SimulationError),
    ([_GOOD, DecodeLayerWork(30.0, math.nan, 250.0, 1e4, 9)], None,
     SimulationError),
    ([DecodeLayerWork(30.0, 12.0, math.nan, 1e4, 9)], None, SimulationError),
    ([_GOOD, DecodeLayerWork(30.0, 12.0, 250.0, math.inf, 9)], None,
     SimulationError),
    ([_GOOD], DurationScaling(1e308, 1.0), SimulationError),   # overflows
    ([_GOOD], DurationScaling(1.0, -2.0), SimulationError),
    ([_GOOD], DurationScaling(math.nan, 1.0), SimulationError),
    ([], None, SchedulingError),
    ([_GOOD, DecodeLayerWork(30.0, 12.0, math.nan, 1e4, 9)] * 2, None,
     SimulationError),     # a repeated invalid layer object
])
def test_graph_recurrence_raises_like_the_recorded_step(works, perturb,
                                                        error):
    """Invalid durations leave the recurrence to the recorded step, so
    the price raises the recorder's error, message included."""
    machine, config = paper_testbed("a100"), _graph_config()
    assert decode._graph_head_ends(works, config, machine, 3, perturb) is None
    with pytest.raises(error) as recorded:
        _retime_decode_chain(works, config, machine, 3, perturb)
    with pytest.raises(error, match=re.escape(str(recorded.value))):
        decode._simulated_step_us.__wrapped__(tuple(works), config, machine,
                                              1, 2, perturb)


@pytest.mark.parametrize("config, recorded", [
    (_graph_config(), False),
    (_graph_config(overlap=False), False),
    (_graph_config(n_deferred=2), True),
    (_graph_config(mode=LaunchMode.PER_KERNEL_CPP), True),
    (_graph_config(mode=LaunchMode.PER_KERNEL_PYTHON), True),
])
def test_only_graph_steps_without_deferral_skip_the_recording(config,
                                                              recorded):
    works = (_GOOD, DecodeLayerWork(31.0, 0.0, 0.0, 0.0, 4), _GOOD)
    with mock.patch.object(decode, "_retime_decode_chain",
                           wraps=decode._retime_decode_chain) as retime, \
            mock.patch.object(decode, "_decode_topology",
                              wraps=decode._decode_topology) as topology:
        decode._simulated_step_us.__wrapped__(works, config,
                                              paper_testbed("a100"), 4, 2,
                                              None)
    assert retime.called == topology.called == recorded


# -- prefill chunks and multi-GPU stage graphs -------------------------------

prefill_works = st.builds(
    PrefillLayerWork,
    gpu_attn_us=st.floats(1.0, 400.0),
    gpu_shared_us=st.floats(0.0, 200.0),
    cpu_routed_us=st.one_of(st.just(0.0), st.floats(1.0, 3000.0)),
    transfer_bytes=st.floats(1e3, 1e7),
    n_gpu_kernels=st.integers(1, 12),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(prefill_works, min_size=1, max_size=4),
                min_size=1, max_size=3),
       st.sampled_from(list(LaunchMode)), st.booleans())
def test_prefill_chunks_match_reference_loop(chunks, mode, overlap):
    got, want = _both(prefill, simulate_prefill, chunks, mode,
                      paper_testbed("a100"), overlap)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 3),
       st.lists(prefill_works, min_size=8, max_size=8), st.integers(1, 3))
def test_pipelined_stage_graphs_match_reference_loop(n_layers, n_chunks,
                                                     n_stages, pool, n_tokens):
    machine, config = paper_testbed("a100"), PipelineConfig(n_stages)
    chunks = [pool[c:c + n_layers] for c in range(n_chunks)]
    got, want = _both(multi_gpu, simulate_pipelined_prefill, chunks,
                      machine, config)
    assert got == want
    decode_works = [DecodeLayerWork(w.gpu_attn_us, w.gpu_shared_us,
                                    w.cpu_routed_us, w.transfer_bytes,
                                    w.n_gpu_kernels) for w in chunks[0]]
    got, want = _both(multi_gpu, simulate_pipelined_decode, decode_works,
                      machine, config, n_tokens)
    assert got == want
