"""Graph-cache, grouped-dispatch, and warmup-refactor tests (hypothesis).

Four contracts the graph-captured decode path rests on:

- **capture-once**: for any lookup sequence, a key pays capture cost at
  most once per residency -- a mirror LRU model agrees with the cache on
  every hit/miss/eviction decision, and a replay never bills capture;
- **determinism**: the cache is a pure function of its call history, so
  two caches fed the same sequence return bit-identical lookups, and a
  re-capture after eviction costs exactly what the first capture did;
- **pricing**: the per-expert and grouped GEMM dispatch arms reprice
  cache-hit work with the documented kernel counts and monotone
  fragmentation penalty, while ``dispatch=None`` stays bit-identical to
  the legacy single-blob model;
- **warmup refactor**: the single-simulation warmup in
  ``batched_step_time_us`` reproduces the explicit two-simulation
  formula bit-for-bit, perturbed or not, deferred or not.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import KT_AVX512, paper_testbed
from repro.hw.event_sim import DurationScaling
from repro.model import QW2
from repro.moe import NumaStrategy
from repro.moe.expert_cache import ExpertCacheConfig, ExpertCacheManager
from repro.sched import (
    DecodeScheduleConfig,
    ExpertGemmDispatch,
    GraphCache,
    GraphCacheConfig,
    LaunchMode,
    batched_step_time_us,
    decode_layer_work,
)
from repro.sched.decode import simulate_decode
from repro.sched.workload import (
    FRAGMENTED_STREAM_PENALTY,
    GROUPED_GATHER_US_PER_EXPERT,
    apply_expert_cache,
)
from repro.tensor import BF16
from repro.errors import ConfigError

MACHINE = paper_testbed("a100")


# ---------------------------------------------------------------------------
# GraphCacheConfig bucketing
# ---------------------------------------------------------------------------

class TestBucketing:
    """batch_bucket() pads up to the smallest covering bucket."""

    def test_exact_and_padded(self):
        cfg = GraphCacheConfig(batch_buckets=(1, 2, 4, 8))
        assert cfg.batch_bucket(1) == 1
        assert cfg.batch_bucket(3) == 4
        assert cfg.batch_bucket(8) == 8

    def test_beyond_last_clamps(self):
        cfg = GraphCacheConfig(batch_buckets=(1, 4))
        assert cfg.batch_bucket(100) == 4

    def test_invalid_batch_rejected(self):
        with pytest.raises(ConfigError):
            GraphCacheConfig().batch_bucket(0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            GraphCacheConfig(batch_buckets=())
        with pytest.raises(ConfigError):
            GraphCacheConfig(batch_buckets=(4, 2))
        with pytest.raises(ConfigError):
            GraphCacheConfig(max_graphs=0)
        with pytest.raises(ConfigError):
            GraphCacheConfig(instantiation_us=-1.0)


# ---------------------------------------------------------------------------
# GraphCache unit behaviour
# ---------------------------------------------------------------------------

class TestGraphCache:
    """Capture/replay/evict accounting on hand-picked sequences."""

    def make(self, max_graphs=2):
        return GraphCache(GraphCacheConfig(max_graphs=max_graphs), MACHINE)

    def test_first_lookup_captures_second_replays(self):
        cache = self.make()
        first = cache.lookup(("a",), n_kernels=10)
        assert first.captured and first.capture_us == cache.capture_cost_us(10)
        second = cache.lookup(("a",), n_kernels=10)
        assert not second.captured and second.capture_us == 0.0
        assert cache.captures == 1 and cache.replays == 1

    def test_capture_cost_formula(self):
        cache = self.make()
        lat = MACHINE.gpu.kernel_launch_latency_us
        inst = cache.config.instantiation_us
        assert cache.capture_cost_us(7) == 7 * lat + inst
        with pytest.raises(ConfigError):
            cache.capture_cost_us(0)

    def test_lru_evicts_coldest(self):
        cache = self.make(max_graphs=2)
        cache.lookup(("a",), 5)
        cache.lookup(("b",), 5)
        cache.lookup(("a",), 5)          # refresh a: b is now coldest
        look = cache.lookup(("c",), 5)
        assert look.evicted == ("b",)
        assert cache.n_cached == 2 and cache.evictions == 1
        # b was evicted: touching it again is a fresh capture.
        assert cache.lookup(("b",), 5).captured

    def test_recapture_cost_identical(self):
        cache = self.make(max_graphs=1)
        first = cache.lookup(("a",), 9)
        cache.lookup(("b",), 3)          # evicts a
        again = cache.lookup(("a",), 9)
        assert again.captured and again.capture_us == first.capture_us


# ---------------------------------------------------------------------------
# Hypothesis: mirror-LRU model agreement + determinism
# ---------------------------------------------------------------------------

@st.composite
def lookup_sequences(draw):
    """A (max_graphs, [(key, n_kernels)]) pair over a small key pool."""
    max_graphs = draw(st.integers(1, 4))
    keys = draw(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    n_kernels = draw(st.integers(1, 50))
    return max_graphs, [((k,), n_kernels) for k in keys]


@given(lookup_sequences())
@settings(max_examples=200, deadline=None)
def test_fuzz_capture_once_per_residency(seq):
    """The cache agrees with a plain ordered-dict LRU on every decision."""
    max_graphs, lookups = seq
    cache = GraphCache(GraphCacheConfig(max_graphs=max_graphs), MACHINE)
    model: dict[tuple, None] = {}          # insertion order == recency
    for key, n_kernels in lookups:
        look = cache.lookup(key, n_kernels)
        if key in model:                   # model predicts a replay
            assert not look.captured and look.capture_us == 0.0
            model.pop(key)
            model[key] = None
        else:                              # model predicts a capture
            assert look.captured
            assert look.capture_us == cache.capture_cost_us(n_kernels)
            if len(model) >= max_graphs:
                coldest = next(iter(model))
                assert look.evicted == coldest
                model.pop(coldest)
            else:
                assert look.evicted is None
            model[key] = None
        assert cache.n_cached == len(model) <= max_graphs


@given(lookup_sequences())
@settings(max_examples=100, deadline=None)
def test_fuzz_lookup_determinism(seq):
    """Two caches fed the same history return bit-identical lookups."""
    max_graphs, lookups = seq
    a = GraphCache(GraphCacheConfig(max_graphs=max_graphs), MACHINE)
    b = GraphCache(GraphCacheConfig(max_graphs=max_graphs), MACHINE)
    for key, n_kernels in lookups:
        assert a.lookup(key, n_kernels) == b.lookup(key, n_kernels)
    assert (a.captures, a.replays, a.evictions) == \
        (b.captures, b.replays, b.evictions)


@given(lookup_sequences())
@settings(max_examples=100, deadline=None)
def test_fuzz_recapture_price_stable(seq):
    """Every capture of a given (key, n_kernels) costs the same amount."""
    max_graphs, lookups = seq
    cache = GraphCache(GraphCacheConfig(max_graphs=max_graphs), MACHINE)
    seen: dict[tuple, float] = {}
    for key, n_kernels in lookups:
        look = cache.lookup(key, n_kernels)
        if look.captured:
            assert seen.setdefault(key, look.capture_us) == look.capture_us


# ---------------------------------------------------------------------------
# Dispatch pricing arms
# ---------------------------------------------------------------------------

def _base_work(batch=16, ctx=256):
    return decode_layer_work(
        QW2, MACHINE, BF16, context_len=ctx, cpu_profile=KT_AVX512,
        numa_strategy=NumaStrategy.TENSOR_PARALLEL,
        kernels_per_layer=45, batch_size=batch,
    )


class TestDispatchPricing:
    """apply_expert_cache arms: kernel counts, penalties, legacy identity."""

    def test_legacy_none_is_bit_identical(self):
        work = _base_work()
        a = apply_expert_cache(work, QW2, MACHINE, BF16, 64, 48, 6)
        b = apply_expert_cache(work, QW2, MACHINE, BF16, 64, 48, 6,
                               dispatch=None)
        assert a == b
        assert a.n_gpu_kernels == work.n_gpu_kernels

    def test_per_expert_adds_n_hit_kernels(self):
        work = _base_work()
        out = apply_expert_cache(work, QW2, MACHINE, BF16, 64, 48, 6,
                                 dispatch=ExpertGemmDispatch("per-expert"))
        assert out.n_gpu_kernels == work.n_gpu_kernels + 6
        legacy = apply_expert_cache(work, QW2, MACHINE, BF16, 64, 48, 6)
        # Splitting one blob into 6 floored kernels can only cost more.
        assert out.gpu_shared_us >= legacy.gpu_shared_us

    def test_grouped_adds_one_kernel_plus_gather(self):
        work = _base_work()
        out = apply_expert_cache(
            work, QW2, MACHINE, BF16, 64, 48, 6,
            dispatch=ExpertGemmDispatch("grouped", layout_contiguity=1.0))
        assert out.n_gpu_kernels == work.n_gpu_kernels + 1
        legacy = apply_expert_cache(work, QW2, MACHINE, BF16, 64, 48, 6)
        gather = GROUPED_GATHER_US_PER_EXPERT * 6
        assert out.gpu_shared_us == pytest.approx(
            legacy.gpu_shared_us + gather)

    def test_grouped_cost_monotone_in_fragmentation(self):
        work = _base_work()
        costs = [
            apply_expert_cache(
                work, QW2, MACHINE, BF16, 64, 48, 6,
                dispatch=ExpertGemmDispatch("grouped", layout_contiguity=c),
            ).gpu_shared_us
            for c in (1.0, 0.5, 0.0)
        ]
        assert costs[0] <= costs[1] <= costs[2]
        assert FRAGMENTED_STREAM_PENALTY > 0

    def test_bad_dispatch_rejected(self):
        with pytest.raises(ValueError):
            ExpertGemmDispatch("blocked")
        with pytest.raises(ValueError):
            ExpertGemmDispatch("grouped", layout_contiguity=1.5)


# ---------------------------------------------------------------------------
# Arena slots and layout contiguity
# ---------------------------------------------------------------------------

def _manager(capacity=6, n_layers=2, n_experts=8):
    cfg = ExpertCacheConfig(
        n_layers=n_layers, n_experts=n_experts, expert_bytes=1e6,
        vram_budget_bytes=capacity * 1e6, max_uploads_per_step=8)
    return ExpertCacheManager(cfg, MACHINE.interconnect)


class TestArenaSlots:
    """Slot assignment invariants behind layout_contiguity."""

    def test_warm_start_slots_unique_and_bounded(self):
        mgr = _manager()
        mgr.warm_start([{0, 1, 2}, {3, 4}])
        slots = mgr.arena_slots()
        assert len(slots) == 5
        values = sorted(slots.values())
        assert values == sorted(set(values))
        assert all(0 <= s < 6 for s in values)

    def test_warm_start_contiguous_layout(self):
        mgr = _manager()
        mgr.warm_start([{0, 1, 2, 3}, set()])
        counts = np.zeros((2, 8), dtype=np.int64)
        counts[0, :4] = 5
        result = mgr.step(counts)
        assert result.layout_contiguity == 1.0

    def test_contiguity_in_unit_interval_under_churn(self):
        rng = np.random.default_rng(3)
        mgr = _manager(capacity=4)
        for _ in range(30):
            counts = rng.integers(0, 4, size=(2, 8))
            result = mgr.step(counts)
            assert 0.0 <= result.layout_contiguity <= 1.0
            slots = mgr.arena_slots()
            assert len(set(slots.values())) == len(slots)
            assert all(0 <= s < 4 for s in slots.values())
            assert len(slots) == mgr.n_resident

    def test_single_hit_expert_is_fully_contiguous(self):
        mgr = _manager()
        mgr.warm_start([{2}, set()])
        counts = np.zeros((2, 8), dtype=np.int64)
        counts[0, 2] = 7
        assert mgr.step(counts).layout_contiguity == 1.0


# ---------------------------------------------------------------------------
# Warmup refactor regression pin
# ---------------------------------------------------------------------------

def _works(n_layers=4, batch=8):
    return [_base_work(batch=batch, ctx=128)] * n_layers


def _crc_scale(resource: str) -> float:
    """Deterministic jitter: a scale from a digest of the resource name."""
    return 1.0 + (zlib.crc32(resource.encode()) % 100) / 1000.0


# Deterministic fault hook stretching cpu and pcie tasks by their jitter.
_crc_perturb = DurationScaling(_crc_scale("cpu"), _crc_scale("pcie"))


@pytest.mark.parametrize("mode", [LaunchMode.PER_KERNEL_PYTHON,
                                  LaunchMode.PER_KERNEL_CPP,
                                  LaunchMode.CUDA_GRAPH])
@pytest.mark.parametrize("n_deferred", [0, 2])
@pytest.mark.parametrize("perturb", [None, _crc_perturb],
                         ids=["None", "_crc_perturb"])
def test_single_sim_warmup_matches_two_sim_formula(mode, n_deferred, perturb):
    """The refactored warmup equals pricing the prefix in its own sim."""
    works = _works()
    config = DecodeScheduleConfig(launch_mode=mode, overlap_cpu_gpu=True,
                                  top_k=QW2.top_k, n_deferred=n_deferred)
    n_steps, warmup = 3, 2
    got = batched_step_time_us(works, config, MACHINE, n_steps=n_steps,
                               warmup_steps=warmup, perturb=perturb)
    full = simulate_decode(works, config, MACHINE, warmup + n_steps,
                           perturb=perturb).now
    prefix = simulate_decode(works, config, MACHINE, warmup,
                             perturb=perturb).now
    assert got == (full - prefix) / n_steps


def test_zero_warmup_is_plain_average():
    works = _works()
    config = DecodeScheduleConfig(launch_mode=LaunchMode.CUDA_GRAPH,
                                  overlap_cpu_gpu=True, top_k=QW2.top_k)
    got = batched_step_time_us(works, config, MACHINE, n_steps=4,
                               warmup_steps=0)
    assert got == simulate_decode(works, config, MACHINE, 4).now / 4
