"""Tests for chunked prefill: hybrid pricing, chunk scheduler, KV holds."""

import numpy as np
import pytest

from repro.core import KTRANSFORMERS, batched_decode_works, hybrid_chunk_works
from repro.errors import ConfigError
from repro.faults import FaultInjector, canonical_chaos_plan
from repro.hw.spec import paper_testbed
from repro.kernels import DEFAULT_ARI_THRESHOLD
from repro.model import DS3, QW2, MoETransformer, tiny_config
from repro.sched.decode import DecodeScheduleConfig, batched_step_time_us
from repro.sched.workload import (
    batched_expert_counts,
    chunk_only_work,
    hybrid_chunk_layer_work,
    merge_hybrid_work,
)
from repro.serving import (
    BatchCostModel,
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    InferenceSession,
    poisson_workload,
)
from repro.serving.continuous import serving_expert_cache
from repro.serving.resilience import ResilienceConfig
from repro.tensor import BF16


@pytest.fixture(scope="module")
def machine():
    return paper_testbed("a100")


@pytest.fixture(scope="module")
def session():
    model = MoETransformer(tiny_config("tiny-qw"))
    return InferenceSession(model, DS3)


def _workload(n, interarrival_us, prompt_len=16, new_tokens=6, seed=7):
    return poisson_workload(
        n_requests=n, mean_interarrival_us=interarrival_us,
        prompt_len=prompt_len, max_new_tokens=new_tokens,
        vocab_size=64, seed=seed,
    )


def _timings(stats):
    return [(t.arrival_us, t.start_us, t.first_token_us, t.finish_us,
             t.prompt_tokens, t.generated_tokens, t.timed_out)
            for t in stats.timings]


class TestHybridChunkPricing:
    """The counts-level marginal pricing behind hybrid iterations."""

    def test_marginal_nonnegative_and_bounded(self, machine):
        """Chunk marginal CPU cost is >= 0 and <= the chunk priced alone."""
        alone, _ = hybrid_chunk_works(
            KTRANSFORMERS, QW2, machine, BF16, chunk_tokens=64, batch_size=0)
        piggy, _ = hybrid_chunk_works(
            KTRANSFORMERS, QW2, machine, BF16, chunk_tokens=64, batch_size=16)
        for a, p in zip(alone, piggy):
            assert p.cpu_routed_us >= 0.0
            assert p.cpu_routed_us <= a.cpu_routed_us + 1e-9

    def test_piggybacking_discount_in_saturated_regime(self, machine):
        """A near-capacity QW2 decode batch streams most experts already,
        so the chunk's marginal expert bill is well below its standalone
        bill -- the whole point of decode piggybacking."""
        alone, _ = hybrid_chunk_works(
            KTRANSFORMERS, QW2, machine, BF16, chunk_tokens=256, batch_size=0)
        piggy, _ = hybrid_chunk_works(
            KTRANSFORMERS, QW2, machine, BF16, chunk_tokens=256,
            batch_size=16)
        moe_alone = sum(w.cpu_routed_us for w in alone)
        moe_piggy = sum(w.cpu_routed_us for w in piggy)
        assert moe_piggy < 0.8 * moe_alone

    def test_combined_counts_reconstruct(self, machine):
        """Summary counts are decode + chunk routed token counts."""
        work, summary = hybrid_chunk_layer_work(
            QW2, machine, BF16, chunk_tokens=32, batch_size=8,
            avx512_profile=KTRANSFORMERS.decode_kernel,
            amx_profile=KTRANSFORMERS.prefill_kernel,
            numa_strategy=KTRANSFORMERS.numa_strategy,
            kernels_per_layer=KTRANSFORMERS.decode_kernels_per_layer,
        )
        assert sum(summary.expert_token_counts) == (8 + 32) * QW2.top_k
        assert summary.batch_size == 8
        decode_counts = batched_expert_counts(QW2, 8)
        # Chunk tokens add on top of (never replace) the decode counts.
        assert all(c >= d for c, d in
                   zip(summary.expert_token_counts, decode_counts))
        assert work.transfer_bytes > 0 and work.gpu_attn_us > 0

    def test_validation(self, machine):
        with pytest.raises(ValueError):
            hybrid_chunk_layer_work(
                QW2, machine, BF16, chunk_tokens=0, batch_size=4,
                avx512_profile=KTRANSFORMERS.decode_kernel,
                amx_profile=KTRANSFORMERS.prefill_kernel,
                numa_strategy=KTRANSFORMERS.numa_strategy,
                kernels_per_layer=1)
        with pytest.raises(ValueError):
            hybrid_chunk_layer_work(
                QW2, machine, BF16, chunk_tokens=8, batch_size=-1,
                avx512_profile=KTRANSFORMERS.decode_kernel,
                amx_profile=KTRANSFORMERS.prefill_kernel,
                numa_strategy=KTRANSFORMERS.numa_strategy,
                kernels_per_layer=1)

    def test_merge_adds_chunk_on_top(self, machine):
        decode_works, _ = batched_decode_works(
            KTRANSFORMERS, QW2, machine, BF16, context_lens=[64] * 8)
        chunk_works, _ = hybrid_chunk_works(
            KTRANSFORMERS, QW2, machine, BF16, chunk_tokens=32, batch_size=8)
        merged = [merge_hybrid_work(d, c)
                  for d, c in zip(decode_works, chunk_works)]
        for d, c, m in zip(decode_works, chunk_works, merged):
            assert m.gpu_attn_us == pytest.approx(d.gpu_attn_us
                                                  + c.gpu_attn_us)
            assert m.cpu_routed_us == pytest.approx(d.cpu_routed_us
                                                    + c.cpu_routed_us)
            assert m.n_gpu_kernels == d.n_gpu_kernels
        only = chunk_only_work(chunk_works[-1])
        assert only.cpu_routed_us == chunk_works[-1].cpu_routed_us

    def test_hybrid_step_costs_more_than_decode_less_than_sum(self, machine):
        """One mixed iteration beats running the chunk as its own step."""
        decode_works, _ = batched_decode_works(
            KTRANSFORMERS, QW2, machine, BF16, context_lens=[64] * 16)
        chunk_works, _ = hybrid_chunk_works(
            KTRANSFORMERS, QW2, machine, BF16, chunk_tokens=128,
            batch_size=16)
        config = DecodeScheduleConfig(
            launch_mode=KTRANSFORMERS.launch_mode,
            overlap_cpu_gpu=KTRANSFORMERS.overlap_cpu_gpu,
            top_k=QW2.top_k)
        alone = batched_step_time_us(
            [chunk_only_work(c) for c in chunk_works], config, machine)
        hybrid = batched_step_time_us(
            [merge_hybrid_work(d, c)
             for d, c in zip(decode_works, chunk_works)], config, machine)
        pure = batched_step_time_us(decode_works, config, machine)
        assert pure < hybrid < pure + alone


class TestBatchCostModelHybrid:
    """Memoized hybrid pricing on the serving cost model."""

    def test_matches_sched_level_function(self, session):
        """BatchCostModel.decode_step_us with a chunk is bit-identical to
        merging each layer's decode and chunk works and pricing the merged
        works through sched.decode.batched_step_time_us."""
        costs = BatchCostModel(session)
        got = costs.decode_step_us([64] * 8, chunk_tokens=32)
        c = session
        decode_works, _ = batched_decode_works(
            c.system, c.preset, c.machine, c.dtype, context_lens=[64] * 8)
        chunk_works, _ = hybrid_chunk_works(
            c.system, c.preset, c.machine, c.dtype, chunk_tokens=32,
            batch_size=8)
        merged = [merge_hybrid_work(d, w)
                  for d, w in zip(decode_works, chunk_works)]
        want = batched_step_time_us(
            merged, costs._hybrid_schedule_config(), c.machine)
        assert got == want

    def test_memoized_by_buckets(self, session):
        costs = BatchCostModel(session)
        a = costs.decode_step_us([64] * 4, chunk_tokens=17)
        b = costs.decode_step_us([60] * 4, chunk_tokens=30)   # same buckets
        assert a == b
        assert len(costs._prices) == 1
        costs.decode_step_us([64] * 4, chunk_tokens=33)   # next chunk bucket
        assert len(costs._prices) == 2

    def test_chunk_only_supported(self, session):
        """A chunk-only iteration prices; piggybacking the chunk on a
        decode batch costs more than the decode step alone but less than
        running the chunk as its own step."""
        costs = BatchCostModel(session)
        alone = costs.decode_step_us([], chunk_tokens=64)
        assert alone > 0
        hybrid = costs.decode_step_us([64] * 8, chunk_tokens=64)
        decode = costs.decode_step_us([64] * 8)
        assert decode < hybrid < decode + alone

    def test_chunk_tokens_must_be_positive(self, session):
        costs = BatchCostModel(session)
        with pytest.raises(ConfigError):
            costs.decode_step_us([64], chunk_tokens=-1)

    def test_hybrid_window_extends_decode_window(self, session):
        costs = BatchCostModel(session)
        assert (costs.attn_window_us([64] * 4, chunk_tokens=128)
                > costs.attn_window_us([64] * 4))

    def test_hybrid_dispatch_summary_combines(self, session):
        costs = BatchCostModel(session)
        s = costs.dispatch_summary([64] * 8, chunk_tokens=32)
        preset = session.preset
        assert sum(s.expert_token_counts) == (8 + 32) * preset.top_k


class TestChunkSchedulerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BatchSchedulerConfig(prefill_chunk_tokens=0)
        with pytest.raises(ConfigError):
            BatchSchedulerConfig(prefill_chunk_tokens=-5)
        cfg = BatchSchedulerConfig(prefill_chunk_tokens=64)
        assert cfg.prefill_chunk_tokens == 64


class TestChunkStateMachine:
    """The per-request chunk state machine inside the server loop."""

    def test_prompt_prefills_across_iterations(self, session):
        """A prompt larger than the chunk budget takes several iterations
        to become decodable; mid-prefill it holds KV without emitting."""
        server = ContinuousBatchingServer(session, BatchSchedulerConfig(
            kv_budget_tokens=256, max_batch_size=4, prefill_chunk_tokens=4))
        wl = _workload(1, 1000, prompt_len=16, new_tokens=3)
        stats = server.replay(list(wl))
        points = server.timeline.points
        # 16-token prompt at 4 tokens/iteration: 4 chunk-only iterations
        # (batch of 1, all prefilling), then 3 decode iterations.
        assert [p.chunk_tokens for p in points] == [4, 4, 4, 4, 0, 0, 0]
        assert [p.n_prefilling for p in points] == [1, 1, 1, 0, 0, 0, 0]
        # KV occupancy grows chunk by chunk, then token by token; the
        # final point records after the finished request frees its pages.
        assert [p.kv_used_tokens for p in points] == [4, 8, 12, 16, 17, 18,
                                                      0]
        (t,) = stats.timings
        assert t.generated_tokens == 3
        assert not t.timed_out
        # Pool fully drained at the end.
        assert server.pool.n_slots == 0
        assert server.pool.used_tokens == 0
        assert server._reserved_pages == 0

    def test_hybrid_iterations_carry_decodes(self, session):
        """A later arrival prefills in chunks while the first request
        keeps decoding -- no monolithic stall in between."""
        server = ContinuousBatchingServer(session, BatchSchedulerConfig(
            kv_budget_tokens=256, max_batch_size=4, prefill_chunk_tokens=8))
        wl = [t for t in _workload(2, 1, prompt_len=16, new_tokens=8)]
        stats = server.replay(list(wl))
        hybrid = [p for p in server.timeline.points
                  if p.chunk_tokens > 0 and p.batch_size > p.n_prefilling]
        assert hybrid, "expected mixed decode+chunk iterations"
        assert server.timeline.n_hybrid_iterations == len(hybrid)
        assert all(t.generated_tokens == 8 for t in stats.timings)

    def test_decode_priority_reserves_budget_for_decodes(self, session):
        """Each decoding request is charged against the iteration
        budget, so hybrid iterations give prefill only the remainder."""
        wl = list(_workload(3, 1, prompt_len=32, new_tokens=12))
        server = ContinuousBatchingServer(session, BatchSchedulerConfig(
            kv_budget_tokens=512, max_batch_size=4, prefill_chunk_tokens=8))
        server.replay(list(wl))
        chunks = [p.chunk_tokens for p in server.timeline.points
                  if p.batch_size > p.n_prefilling > 0]
        assert chunks, "no hybrid iterations observed"
        # Hybrid iterations give up budget to the decoding requests
        # (chunks below 8).
        assert any(c < 8 for c in chunks)

    def test_fresh_covered_queue_takes_monolithic_path(self, session):
        """chunk >= kv budget: every admission wave is fully covered, so
        the chunked scheduler reproduces the monolithic server exactly."""
        wl = list(_workload(8, 200_000, prompt_len=16, new_tokens=6))
        mono = ContinuousBatchingServer(session, BatchSchedulerConfig(
            kv_budget_tokens=1024, max_batch_size=8))
        want = _timings(mono.replay(list(wl)))
        chunked = ContinuousBatchingServer(session, BatchSchedulerConfig(
            kv_budget_tokens=1024, max_batch_size=8,
            prefill_chunk_tokens=1024))
        got = _timings(chunked.replay(list(wl)))
        assert got == want
        assert chunked.timeline.n_chunked_iterations == 0

    def test_chunked_replay_deterministic(self, session):
        wl = list(_workload(6, 50_000, prompt_len=24, new_tokens=5))

        def run():
            server = ContinuousBatchingServer(session, BatchSchedulerConfig(
                kv_budget_tokens=512, max_batch_size=4,
                prefill_chunk_tokens=8))
            return _timings(server.replay(list(wl)))

        assert run() == run()

    def test_first_token_after_full_prefill(self, session):
        """TTFT in chunked mode is the end of the iteration after the
        last chunk lands, never earlier."""
        server = ContinuousBatchingServer(session, BatchSchedulerConfig(
            kv_budget_tokens=256, max_batch_size=2, prefill_chunk_tokens=4))
        stats = server.replay(list(_workload(1, 1000, prompt_len=12,
                                             new_tokens=2)))
        (t,) = stats.timings
        third_iter = server.timeline.points[2].t_us
        assert t.first_token_us > third_iter


class TestMidPrefillShedding:
    """Timeout shedding understands requests stuck mid-prefill."""

    def test_mid_prefill_timeout_sheds_and_frees_kv(self, session):
        # 64-token prompt at 1 token/iteration would take 64 iterations;
        # the decode timeout cuts it off mid-prefill.
        server = ContinuousBatchingServer(
            session,
            BatchSchedulerConfig(kv_budget_tokens=256, max_batch_size=2,
                                 prefill_chunk_tokens=1),
            resilience=ResilienceConfig(decode_timeout_us=2e6))
        stats = server.replay(list(_workload(1, 1000, prompt_len=64,
                                             new_tokens=4)))
        (t,) = stats.timings
        assert t.timed_out
        assert t.generated_tokens == 0
        assert t.first_token_us == t.finish_us
        assert t.arrival_us <= t.start_us <= t.first_token_us
        assert stats.faults.timed_out_requests == 1
        # Pages held across chunks were freed exactly once.
        assert server.pool.n_slots == 0
        assert server.pool.used_tokens == 0
        assert server._reserved_pages == 0
        # Shed requests count against goodput.
        from repro.serving import ServingSLO
        g = stats.goodput(ServingSLO(ttft_ms=1e9, tpot_ms=1e9))
        assert g["attainment"] == 0.0

    def test_shed_unblocks_admission(self, session):
        """Freed mid-prefill pages admit the queued request."""
        server = ContinuousBatchingServer(
            session,
            BatchSchedulerConfig(kv_budget_tokens=80, max_batch_size=2,
                                 prefill_chunk_tokens=1),
            resilience=ResilienceConfig(decode_timeout_us=2e6))
        wl = list(_workload(2, 1000, prompt_len=64, new_tokens=2))
        stats = server.replay(wl)
        assert len(stats.timings) == 2
        shed = [t for t in stats.timings if t.timed_out]
        assert shed, "expected at least one mid-prefill shed"
        assert server.pool.n_slots == 0
        assert server._reserved_pages == 0


class TestChunkedWithCacheAndFaults:
    """Hybrid iterations compose with the expert cache and chaos arms."""

    def _chaos_server(self, session, chunk):
        preset = session.preset
        cache = serving_expert_cache(
            session,
            vram_budget_bytes=24 * preset.expert_bytes(session.dtype))
        cfg = BatchSchedulerConfig(kv_budget_tokens=512, max_batch_size=4,
                                   prefill_chunk_tokens=chunk)
        return ContinuousBatchingServer(
            session, cfg, expert_cache=cache,
            fault_injector=FaultInjector(canonical_chaos_plan()),
            resilience=ResilienceConfig(queue_timeout_us=60e6,
                                        decode_timeout_us=150e6))

    def test_chunked_chaos_bit_reproducible(self, session):
        wl = list(_workload(5, 100_000, prompt_len=24, new_tokens=4))

        def run():
            server = self._chaos_server(session, chunk=8)
            stats = server.replay(list(wl))
            return (_timings(stats), stats.faults.upload_failures,
                    server.timeline.n_iterations,
                    server.cache_timeline.n_iterations)

        r1, r2 = run(), run()
        assert r1 == r2
        # Cache timeline stays aligned with the batch timeline even
        # through chunk-only iterations (zero-activity points).
        assert r1[2] == r1[3]

    def test_cache_hybrid_pricing_identity_composes(self, session):
        """Identity perturbation + zero-cache outcome reduce the hybrid
        cached/perturbed variants to the plain hybrid price."""
        from repro.faults.injector import IDENTITY_PERTURBATION
        costs = BatchCostModel(session)
        plain = costs.decode_step_us([64] * 4, chunk_tokens=16)
        assert costs.decode_step_us([64] * 4, chunk_tokens=16,
                                    pert=IDENTITY_PERTURBATION) == plain
