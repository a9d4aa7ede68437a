"""The serving cost model's one step pricer against a hand-composed grid.

``BatchCostModel.decode_step_us`` prices every decode iteration --
plain, carrying a prefill chunk, under an expert-cache outcome, and
fault-perturbed -- through one shape-keyed pricer.  These tests rebuild
each priced task graph directly from the workload lowerings
(:func:`batched_decode_works`, :func:`hybrid_chunk_works`,
:func:`apply_expert_cache`, :func:`merge_hybrid_work` /
:func:`chunk_only_work`) and price it with
:func:`batched_step_time_us`; the pricer must return the *same float*,
in any call order, and count the kernels of the works it priced.
"""

import copy
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import batched_decode_works, hybrid_chunk_works
from repro.errors import ConfigError
from repro.faults import StepPerturbation
from repro.model import DS3, QW2, MoETransformer, tiny_config
from repro.moe.expert_cache import CacheStepResult
from repro.sched import decode
from repro.sched.decode import DecodeScheduleConfig, batched_step_time_us
from repro.sched.workload import (
    ExpertGemmDispatch,
    apply_expert_cache,
    chunk_only_work,
    merge_hybrid_work,
)
from repro.serving import BatchCostModel, InferenceSession, StepShape
from repro.serving import pricing

DISPATCH_MODES = ("legacy", "per-expert", "grouped", "auto")

# Expert Deferral on, so decode steps and chunk-carrying steps run under
# different schedules (mixed iterations disable deferral).
SESSION = InferenceSession(MoETransformer(tiny_config("tiny-qw")), QW2,
                           n_deferred=1)
# One model per dispatch mode, shared across examples: warm memos must
# keep returning the reference floats.
MODELS = {mode: BatchCostModel(SESSION, gemm_dispatch=mode)
          for mode in DISPATCH_MODES}


def _bucket(value, buckets):
    return next((b for b in buckets if value <= b), buckets[-1])


def _reference(mode, context_lens, chunk_tokens, cache_step, pert):
    """(price, layer works) composed straight from the lowerings."""
    c = SESSION
    machine = c.machine
    decode_cfg = DecodeScheduleConfig(
        launch_mode=c.system.launch_mode,
        overlap_cpu_gpu=c.system.overlap_cpu_gpu,
        top_k=c.preset.top_k, n_deferred=SESSION.n_deferred)
    batch = len(context_lens)
    works = []
    if batch:
        ctx = _bucket(max(context_lens), BatchCostModel.CTX_BUCKETS)
        works, _ = batched_decode_works(c.system, c.preset, machine, c.dtype,
                                        context_lens=[ctx] * batch)
    if batch and cache_step is not None and cache_step.total_tokens:
        base = works
        layer_tokens = batch * c.preset.top_k
        hit_tokens = round(layer_tokens * round(
            20 * cache_step.hit_tokens / cache_step.total_tokens) / 20)
        n_hit = cache_step.n_hit_experts

        def reprice(dispatch):
            return [w if w.cpu_routed_us <= 0.0 else apply_expert_cache(
                        w, c.preset, machine, c.dtype,
                        total_tokens=layer_tokens, hit_tokens=hit_tokens,
                        n_hit_experts=n_hit, dispatch=dispatch)
                    for w in base]

        dispatch = None
        if mode != "legacy" and n_hit:
            contig = round(8 * cache_step.layout_contiguity) / 8
            arm = mode
            if mode == "auto":
                per = batched_step_time_us(reprice(ExpertGemmDispatch(
                    "per-expert", contig)), decode_cfg, machine)
                grp = batched_step_time_us(reprice(ExpertGemmDispatch(
                    "grouped", contig)), decode_cfg, machine)
                arm = "grouped" if grp <= per else "per-expert"
            dispatch = ExpertGemmDispatch(arm, contig)
        works = reprice(dispatch)
    cfg = decode_cfg
    if chunk_tokens:
        chunk = _bucket(chunk_tokens, BatchCostModel.CHUNK_BUCKETS)
        chunk_works, _ = hybrid_chunk_works(
            c.system, c.preset, machine, c.dtype, chunk_tokens=chunk,
            batch_size=batch)
        works = ([merge_hybrid_work(d, w) for d, w in zip(works, chunk_works)]
                 if batch else [chunk_only_work(w) for w in chunk_works])
        cfg = replace(decode_cfg, n_deferred=0)
    price = batched_step_time_us(
        works, cfg, machine,
        perturb=None if pert.prices_identity else pert.sim_hook())
    if cache_step is not None:
        price += cache_step.stall_us
    return price, works


def _kernel_count(works):
    moe_layers = sum(1 for w in works if w.cpu_routed_us > 0)
    return sum(w.n_gpu_kernels for w in works) + moe_layers + 1


@st.composite
def step_cases(draw):
    batch = draw(st.integers(min_value=0, max_value=6))
    context_lens = draw(st.lists(st.integers(min_value=1, max_value=5000),
                                 min_size=batch, max_size=batch))
    chunk_tokens = draw(st.one_of(st.just(0),
                                  st.integers(min_value=1, max_value=3000)))
    if not batch and not chunk_tokens:
        chunk_tokens = draw(st.integers(min_value=1, max_value=3000))
    cache_step = None
    if batch and draw(st.booleans()):
        total = draw(st.sampled_from([0, batch * QW2.top_k]))
        hits = draw(st.one_of(st.just(0), st.just(total),
                              st.integers(min_value=0, max_value=total)))
        n_hit = (draw(st.integers(min_value=1,
                                  max_value=min(hits, QW2.n_experts)))
                 if hits else 0)
        cache_step = CacheStepResult(
            step=0, hit_tokens=hits, miss_tokens=total - hits,
            n_hit_experts=n_hit, uploads=(), evictions=(),
            bytes_transferred=0.0, transfer_us=0.0,
            stall_us=draw(st.sampled_from([0.0, 17.5])),
            layout_contiguity=draw(st.floats(min_value=0.0, max_value=1.0)))
    pert = StepPerturbation(
        cpu_scale=draw(st.sampled_from([1.0, 1.3])),
        pcie_scale=draw(st.sampled_from([1.0, 0.5, 0.02])),
        numa_scale=draw(st.sampled_from([1.0, 1.2])),
        jitter_scale=draw(st.sampled_from([1.0, 1.02])))
    mode = draw(st.sampled_from(DISPATCH_MODES))
    return mode, context_lens, chunk_tokens, cache_step, pert


@settings(max_examples=60, deadline=None)
@given(case=step_cases())
def test_pricer_matches_composed_reference(case):
    mode, context_lens, chunk_tokens, cache_step, pert = case
    costs = MODELS[mode]
    want, works = _reference(mode, context_lens, chunk_tokens, cache_step,
                             pert)
    got = costs.decode_step_us(context_lens, chunk_tokens=chunk_tokens,
                               cache_step=cache_step, pert=pert)
    assert got == want
    shape = costs.step_shape(context_lens, chunk_tokens, cache_step)
    assert costs._works_for(shape) == works
    assert costs.step_kernel_count(shape) == _kernel_count(works)
    # A precomputed shape prices the same graph (stall left to the caller).
    stall = cache_step.stall_us if cache_step is not None else 0.0
    assert costs.decode_step_us(shape, pert=pert) + stall == got


@settings(max_examples=10, deadline=None)
@given(cases=st.lists(step_cases(), min_size=2, max_size=6),
       seed=st.integers(min_value=0, max_value=2**16))
def test_memo_order_does_not_change_prices(cases, seed):
    def price(model, case):
        _, context_lens, chunk_tokens, cache_step, pert = case
        return model.decode_step_us(context_lens, chunk_tokens=chunk_tokens,
                                    cache_step=cache_step, pert=pert)

    for mode in DISPATCH_MODES:
        first = BatchCostModel(SESSION, gemm_dispatch=mode)
        second = BatchCostModel(SESSION, gemm_dispatch=mode)
        in_order = [price(first, case) for case in cases]
        order = list(range(len(cases)))
        random.Random(seed).shuffle(order)
        shuffled = {i: price(second, cases[i]) for i in order}
        assert [shuffled[i] for i in range(len(cases))] == in_order


class TestStepShape:
    """The shape key partitions steps exactly as the graph cache needs."""

    @staticmethod
    def _outcome(hits, total, n_hit, contiguity=1.0):
        return CacheStepResult(
            step=0, hit_tokens=hits, miss_tokens=total - hits,
            n_hit_experts=n_hit, uploads=(), evictions=(),
            bytes_transferred=0.0, transfer_us=0.0, stall_us=0.0,
            layout_contiguity=contiguity)

    def test_buckets(self):
        costs = MODELS["legacy"]
        assert costs.step_shape([60, 61, 62]) == StepShape(3, 64)
        assert costs.step_shape([300], 17) == StepShape(1, 1024, 32)
        assert costs.step_shape([], 5000) == StepShape(0, 0, 2048)

    def test_cache_outcomes_are_distinct_shapes(self):
        costs = MODELS["legacy"]
        lens = [64] * 4
        uncached = costs.step_shape(lens)
        idle = costs.step_shape(lens, cache_step=self._outcome(0, 0, 0))
        cold = costs.step_shape(lens, cache_step=self._outcome(0, 32, 0))
        assert idle.cache == ()
        assert cold.cache == (0, 0, None, None)
        assert len({uncached, idle, cold}) == 3
        # ... while idle and uncached steps price the same graph.
        assert costs.decode_step_us(idle) == costs.decode_step_us(uncached)

    def test_dispatch_arm_in_shape(self):
        outcome = self._outcome(16, 32, 4, contiguity=0.5)
        assert MODELS["legacy"].step_shape([64] * 4, cache_step=outcome) \
            .cache == (10, 4, None, None)
        assert MODELS["grouped"].step_shape([64] * 4, cache_step=outcome) \
            .cache == (10, 4, "grouped", 4)
        auto = MODELS["auto"].step_shape([64] * 4, cache_step=outcome)
        assert auto.cache[2] in ("per-expert", "grouped")

    def test_chunk_only_ignores_cache(self):
        costs = MODELS["auto"]
        assert costs.step_shape([], 64, self._outcome(16, 32, 4)) == \
            StepShape(0, 0, 64)

    def test_rejects_empty_and_negative(self):
        costs = MODELS["legacy"]
        with pytest.raises(ConfigError):
            costs.step_shape([])
        with pytest.raises(ConfigError):
            costs.step_shape([64], -1)


def test_unknown_dispatch_lists_the_choices():
    with pytest.raises(ConfigError, match="'per-expert'"):
        BatchCostModel(SESSION, gemm_dispatch="magic")


# -- repeated layers: a shape's works are built once per distinct layer ------

# No Expert Deferral, so the steps price through the per-layer recurrence.
LAYER_SESSIONS = {p.name: InferenceSession(
    MoETransformer(tiny_config("tiny-qw")), p) for p in (DS3, QW2)}


def _per_layer_works(session, shape):
    """A shape's works built position by position from a copy of every
    base and chunk layer, so no two positions share an object."""
    c, machine = session, session.machine
    batch, ctx, chunk, cache = shape
    works = []
    if batch:
        works = [copy.copy(w) for w in batched_decode_works(
            c.system, c.preset, machine, c.dtype,
            context_lens=[ctx] * batch)[0]]
    if cache:
        hit, n_hit, arm, contig = cache
        layer_tokens = batch * c.preset.top_k
        dispatch = None if arm is None else ExpertGemmDispatch(arm,
                                                               contig / 8)
        works = [w if w.cpu_routed_us <= 0.0 else apply_expert_cache(
                     w, c.preset, machine, c.dtype,
                     total_tokens=layer_tokens,
                     hit_tokens=round(layer_tokens * hit / 20),
                     n_hit_experts=n_hit, dispatch=dispatch)
                 for w in works]
    if chunk:
        chunk_works = [copy.copy(w) for w in hybrid_chunk_works(
            c.system, c.preset, machine, c.dtype, chunk_tokens=chunk,
            batch_size=batch)[0]]
        works = ([merge_hybrid_work(d, w) for d, w in zip(works, chunk_works)]
                 if batch else [chunk_only_work(w) for w in chunk_works])
    return works


@pytest.mark.parametrize("batch, chunk", [(4, 0), (4, 128), (0, 128)],
                         ids=["decode", "chunked", "chunk-only"])
@pytest.mark.parametrize("mode", ["legacy", "per-expert", "grouped"])
@pytest.mark.parametrize("preset", sorted(LAYER_SESSIONS))
def test_works_are_built_once_per_distinct_layer(preset, mode, batch, chunk,
                                                 monkeypatch):
    """DS3 (dense + MoE layers) and QW2 (MoE only) shapes equal the
    position-by-position reference, price the same float, and reprice
    each distinct base MoE layer object exactly once."""
    session = LAYER_SESSIONS[preset]
    costs = BatchCostModel(session, gemm_dispatch=mode)
    repriced = []

    def counting(work, *args, **kwargs):
        repriced.append(work)
        return apply_expert_cache(work, *args, **kwargs)

    monkeypatch.setattr(pricing, "apply_expert_cache", counting)
    cache = None
    if batch:
        cache = (10, 3, None, None) if mode == "legacy" else (10, 3, mode, 4)
    shape = StepShape(batch, 256 if batch else 0, chunk, cache)
    works = costs._works_for(shape)
    reference = _per_layer_works(session, shape)
    assert works == reference
    layers = (costs._decode_layers(batch, 256)[0] if batch
              else costs._chunk_layers(0, chunk)[0])
    moe = {id(w) for w in layers if w.cpu_routed_us > 0.0}
    assert sorted(map(id, repriced)) == (sorted(moe) if batch else [])
    assert len({id(w) for w in works}) == len({id(w) for w in layers})
    cfg = (costs._hybrid_schedule_config() if chunk
           else costs._schedule_config())
    price = decode._simulated_step_us.__wrapped__(
        tuple(reference), cfg, costs.machine, 4, 2, None)
    assert costs.decode_step_us(shape) == price
    assert costs.step_kernel_count(shape) == _kernel_count(reference)
