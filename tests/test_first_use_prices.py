"""First-use prices against the recorded and simulated references.

A cold serving price derives each of its inputs once and records no task
graph, and must still give the float the recorded path gives:

- a prefill pass in CUDA-graph mode is timed by the per-layer recurrence
  (:func:`repro.sched.prefill.prefill_elapsed_us`), bit for bit as
  ``simulate_prefill(...).now``; other launch modes and invalid
  durations take the recorder, with its own error;
- ``scheduling_penalty``'s unit-chunk baseline is a closed form for
  integer loads;
- ``moe_layer_time_us`` prices each distinct expert load once;
- a fleet's replica epochs share each stage split;
- the serving price of a prefill bucket is Fig. 11's number,
  ``run_prefill(...).elapsed_us``.
"""

import math
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KTRANSFORMERS, run_prefill, run_prefill_us
from repro.core.engine import _prefill_chunks
from repro.errors import GraphCaptureError, SchedulingError, SimulationError
from repro.faults import FaultPlan, ReplicaFault
from repro.hw import KT_AMX, KT_AVX512, paper_testbed
from repro.hw.spec import single_socket_testbed
from repro.model import DS2, DS3, QW2, MoETransformer, tiny_config
from repro.moe import numa
from repro.moe.numa import MoELayerDims, NumaStrategy, moe_layer_time_us
from repro.moe.scheduling import WorkItem, dynamic_schedule, static_schedule
from repro.sched import LaunchMode, prefill
from repro.sched.multi_gpu import stage_boundary_bytes, staged_interval_us
from repro.sched.prefill import prefill_elapsed_us, simulate_prefill
from repro.sched.workload import PrefillLayerWork, scheduling_penalty
from repro.serving import (BatchCostModel, BatchSchedulerConfig,
                           ContinuousBatchingServer, FleetConfig, FleetRouter,
                           GenerationRequest, InferenceSession, TimedRequest)
from repro.serving import pricing
from repro.tensor.dtypes import BF16

MACHINE = paper_testbed()
PRESETS = {"ds3": DS3, "ds2": DS2, "qw2": QW2}


# -- prefill passes by recurrence ---------------------------------------------

def _recorded_and_recurrence(works_per_chunk, mode, machine, overlap):
    """``simulate_prefill(...).now`` and the pass function's float, with
    whether the pass function recorded."""
    recorded = simulate_prefill(works_per_chunk, mode, machine, overlap).now
    with mock.patch.object(prefill, "simulate_prefill",
                           wraps=simulate_prefill) as record:
        got = prefill_elapsed_us(works_per_chunk, mode, machine, overlap)
    return recorded, got, record.called


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.sampled_from([16, 64, 256]),
       st.data(), st.booleans(), st.integers(0, 3),
       st.sampled_from([None, "torch-vendor"]))
def test_preset_prefill_recurrence_matches_recording(name, chunk, data,
                                                     overlap, seed, backend):
    """Real preset works (dense layers first, one shared MoE object per
    chunk) over one to three chunks, overlap on and off."""
    prompt_len = data.draw(st.integers(1, 3 * chunk), label="prompt_len")
    system = replace(KTRANSFORMERS, overlap_cpu_gpu=overlap)
    machine, works = _prefill_chunks(system, PRESETS[name], MACHINE, BF16,
                                     prompt_len, chunk, seed, backend)
    recorded, got, did_record = _recorded_and_recurrence(
        works, system.launch_mode, machine, overlap)
    assert got == recorded and not did_record
    assert run_prefill_us(system, PRESETS[name], MACHINE, BF16, prompt_len,
                          chunk, seed, backend) == run_prefill(
        system, PRESETS[name], MACHINE, BF16, prompt_len, chunk, seed,
        backend).elapsed_us


durations = st.one_of(st.just(0.0), st.floats(0.0, 3000.0))
prefill_works = st.builds(
    PrefillLayerWork,
    gpu_attn_us=durations,
    gpu_shared_us=durations,
    cpu_routed_us=st.one_of(st.just(0.0), st.just(-1.0), durations),
    transfer_bytes=st.one_of(st.just(0.0), st.floats(0.0, 1e7)),
    n_gpu_kernels=st.integers(1, 60),
)


@st.composite
def shared_chunks(draw):
    """One to three chunks whose layers repeat objects from a pool of at
    most three works, as a preset's dense and MoE layers do."""
    pool = draw(st.lists(prefill_works, min_size=1, max_size=3))
    return [[pool[i] for i in draw(st.lists(
                st.integers(0, len(pool) - 1), min_size=1, max_size=8))]
            for __ in range(draw(st.integers(1, 3)))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.lists(prefill_works, min_size=1, max_size=6),
                          min_size=1, max_size=3), shared_chunks()),
       st.sampled_from(list(LaunchMode)), st.booleans())
def test_prefill_recurrence_matches_recording(chunks, mode, overlap):
    """Independent or repeated layer objects, dense layers and zero
    durations; only graph mode skips the recording."""
    machine = paper_testbed("a100")
    recorded, got, did_record = _recorded_and_recurrence(chunks, mode,
                                                         machine, overlap)
    assert got == recorded
    assert did_record == (mode is not LaunchMode.CUDA_GRAPH)


_GOOD = PrefillLayerWork(300.0, 40.0, 2500.0, 7168 * 512 * 2.0, 45)


@pytest.mark.parametrize("chunks, error", [
    ([[_GOOD, PrefillLayerWork(-1.0, 40.0, 2500.0, 1e5, 45)]],
     GraphCaptureError),
    ([[_GOOD], [PrefillLayerWork(300.0, -1.0, 2500.0, 1e5, 45)]],
     GraphCaptureError),
    ([[PrefillLayerWork(math.inf, 40.0, 2500.0, 1e5, 45)]], SimulationError),
    ([[PrefillLayerWork(math.nan, 40.0, 0.0, 0.0, 45)]], SimulationError),
    ([[_GOOD, PrefillLayerWork(300.0, 40.0, math.nan, 1e5, 45)]],
     SimulationError),
    ([[_GOOD, PrefillLayerWork(300.0, 40.0, math.inf, 1e5, 45)]],
     SimulationError),
    ([[_GOOD, PrefillLayerWork(300.0, math.nan, 2500.0, 1e5, 45)]],
     SimulationError),
    ([[_GOOD, PrefillLayerWork(300.0, 40.0, 2500.0, math.inf, 45)]],
     SimulationError),
    ([[_GOOD], [PrefillLayerWork(300.0, 40.0, math.nan, 1e5, 45)] * 2],
     SimulationError),     # a repeated invalid layer object
    ([[_GOOD], []], SchedulingError),
    ([], SchedulingError),
])
def test_prefill_recurrence_raises_like_the_recording(chunks, error):
    """Invalid durations leave the pass to the recorder, which raises
    its own error, message included."""
    with pytest.raises(error) as recorded:
        simulate_prefill(chunks, LaunchMode.CUDA_GRAPH, MACHINE, True)
    with pytest.raises(error, match=re.escape(str(recorded.value))):
        prefill_elapsed_us(chunks, LaunchMode.CUDA_GRAPH, MACHINE, True)


# -- closed-form scheduling baseline ------------------------------------------

def _reference_penalty(counts, n_threads, dynamic):
    """``scheduling_penalty`` with its unit-chunk baseline simulated."""
    items = [WorkItem(float(t), e) for e, t in enumerate(counts) if t > 0]
    if not items:
        return 1.0
    baseline = dynamic_schedule(items, n_threads, chunk_us=1.0,
                                barrier_us=0.0, per_chunk_overhead_us=0.0)
    if dynamic:
        policy = dynamic_schedule(items, n_threads, chunk_us=4.0,
                                  barrier_us=0.0, per_chunk_overhead_us=0.05)
    else:
        policy = static_schedule(items, n_threads, barrier_us=0.0)
    if baseline.makespan_us <= 0:
        return 1.0
    return max(1.0, policy.makespan_us / baseline.makespan_us)


loads = st.lists(st.integers(0, 400), min_size=0, max_size=64)


@settings(max_examples=200, deadline=None)
@given(loads, st.integers(1, 72), st.booleans())
def test_closed_form_baseline_matches_unit_chunk_schedule(counts, n_threads,
                                                          dynamic):
    items = [WorkItem(float(t), e) for e, t in enumerate(counts) if t > 0]
    unit = dynamic_schedule(items, n_threads, chunk_us=1.0, barrier_us=0.0,
                            per_chunk_overhead_us=0.0).makespan_us
    assert unit == float(-(-sum(counts) // n_threads))
    assert (scheduling_penalty(counts, n_threads, dynamic)
            == _reference_penalty(counts, n_threads, dynamic))


@pytest.mark.parametrize("counts", [[2.5, 1.0, 7.25], [0.5], [3, 1.5]])
def test_fractional_loads_keep_the_simulated_baseline(counts):
    for dynamic in (True, False):
        assert (scheduling_penalty(counts, 4, dynamic)
                == _reference_penalty(counts, 4, dynamic))


def test_penalty_rejects_bad_thread_counts():
    with pytest.raises(SchedulingError, match="n_threads"):
        scheduling_penalty([3, 1], 0, dynamic=True)


# -- expert GEMM time once per distinct load ----------------------------------

DIMS = MoELayerDims(7168, 2048, BF16)


def _reference_layer_time(expert_tokens, profile, machine, strategy,
                          streaming_access, select_profile):
    """``moe_layer_time_us`` with one ``expert_time_us`` per expert."""
    prof = select_profile or (lambda t: profile)
    active = [int(t) for t in expert_tokens if t > 0]
    if not active:
        return 0.0
    if strategy is NumaStrategy.OBLIVIOUS:
        cpu = numa.oblivious_cpu(machine, streaming_access=streaming_access)
        return sum(numa.expert_time_us(prof(t), t, DIMS, cpu)
                   for t in active)
    if strategy is NumaStrategy.EXPERT_PARALLEL:
        loads = [0.0] * machine.sockets
        for expert_id, t in enumerate(expert_tokens):
            if t > 0:
                loads[expert_id % machine.sockets] += numa.expert_time_us(
                    prof(int(t)), int(t), DIMS, machine.cpu)
        return max(loads)
    shards = machine.sockets
    per_socket = sum(numa.expert_time_us(prof(t), t, DIMS, machine.cpu,
                                         tp_shards=shards) for t in active)
    if shards == 1:
        return per_socket
    comm = numa.cross_socket_transfer_time_us(
        sum(active) * DIMS.hidden * 2.0 * (shards - 1) / shards,
        machine.interconnect)
    return per_socket + comm


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=0, max_size=64),
       st.sampled_from(list(NumaStrategy)), st.booleans(), st.booleans(),
       st.booleans())
def test_layer_time_matches_per_expert_reference(counts, strategy, dual,
                                                 streaming, selected):
    machine = MACHINE if dual else single_socket_testbed()
    select = ((lambda t: KT_AMX if t >= 4 else KT_AVX512) if selected
              else None)
    with mock.patch.object(numa, "expert_time_us",
                           wraps=numa.expert_time_us) as timed:
        got = moe_layer_time_us(counts, DIMS, KT_AVX512, machine, strategy,
                                streaming_access=streaming,
                                select_profile=select)
    assert got == _reference_layer_time(counts, KT_AVX512, machine, strategy,
                                        streaming, select)
    assert timed.call_count == len({t for t in counts if t > 0})


# -- stage splits shared across fleet epochs ----------------------------------

FLEET_SESSION = InferenceSession(MoETransformer(tiny_config("tiny-qw")), QW2)


def _request(arrival_us, prompt_len):
    prompt = [(i * 7 + prompt_len) % 61 + 1 for i in range(prompt_len)]
    return TimedRequest(arrival_us=arrival_us, request=GenerationRequest(
        prompt, max_new_tokens=3))


def test_fleet_epochs_derive_each_stage_split_once(monkeypatch):
    """Four pipelined replicas plus the killed one's restart: five cost
    models ask for the same splits, and each is derived once."""
    servers = []

    def make_server():
        servers.append(ContinuousBatchingServer(FLEET_SESSION,
                                                BatchSchedulerConfig(
                                                    kv_budget_tokens=2048,
                                                    max_batch_size=4,
                                                    pipeline_stages=2)))
        return servers[-1]

    derived = []

    def counted(works, config, machine, pipeline):
        derived.append((tuple(works), config))
        return staged_interval_us(works, config, machine, pipeline)

    monkeypatch.setattr(pricing, "staged_interval_us", counted)
    pricing._stage_split.cache_clear()
    kill = FaultPlan(replicas=(ReplicaFault(2e5, 3e6, replica=0),))
    workload = [_request(i * 1e4, 24 + 8 * (i % 3)) for i in range(8)]
    workload += [_request(4e6 + i * 1e4, 24 + 8 * (i % 3)) for i in range(8)]
    stats = FleetRouter(make_server, FleetConfig(n_replicas=4),
                        fault_plan=kill).replay(workload)
    assert len(stats.epoch_stats) == 5     # servers[0] is the router's probe
    asked = []
    for server in servers:
        costs = server.costs
        for shape, factors in costs._pipeline_factors.items():
            works = costs._works_for(shape)
            config = (costs._hybrid_schedule_config() if shape.chunk
                      else costs._schedule_config())
            asked.append((tuple(works), config))
            assert factors == (
                staged_interval_us(works, config, costs.machine,
                                   costs._pipeline) / costs._price(shape),
                stage_boundary_bytes(works, costs._pipeline))
    assert len(derived) == len(set(derived))      # each split derived once
    assert set(derived) == set(asked)
    assert len(derived) < len(asked)              # though epochs shared them


# -- the serving price is Fig. 11's number ------------------------------------

@pytest.mark.parametrize("backend", [None, "torch-vendor"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_prefill_bucket_price_is_the_recorded_pass(name, backend):
    """Every bucket's serving price equals ``run_prefill``'s recorded
    ``elapsed_us``, so serving and Fig. 11 share one number."""
    session = InferenceSession(MoETransformer(tiny_config("tiny-qw")),
                               PRESETS[name])
    pricing._prefill_pass_us.cache_clear()
    costs = BatchCostModel(session, backend=backend)
    for bucket in BatchCostModel.PREFILL_BUCKETS:
        assert costs.batched_prefill_us(bucket) == run_prefill(
            session.system, session.preset, costs.machine, session.dtype,
            prompt_len=bucket, backend=backend).elapsed_us
