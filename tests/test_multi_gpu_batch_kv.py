"""Tests for multi-GPU pipelining, batched decode, and KV offloading costs."""

import pytest

from repro.core import KTRANSFORMERS, decode_works, run_decode
from repro.errors import ConfigError, SchedulingError
from repro.hw import Trace, paper_testbed
from repro.model import DS3, QW2
from repro.sched import (
    PipelineConfig,
    gpu_kv_budget_tokens,
    kv_bytes_per_token_layer,
    kv_cache_total_bytes,
    kv_offload_step_cost,
    prefill_layer_work,
    simulate_pipelined_decode,
    simulate_pipelined_prefill,
    vram_per_stage_bytes,
)
from repro.tensor import BF16

MACHINE = paper_testbed("a100")


def _prefill_works(n_chunks=4):
    work = prefill_layer_work(
        DS3, MACHINE, BF16, 512, KTRANSFORMERS.prefill_kernel,
        KTRANSFORMERS.numa_strategy, 45,
    )
    return [[work] * 8 for __ in range(n_chunks)]


class TestPipelineConfig:
    def test_stage_assignment_balanced(self):
        cfg = PipelineConfig(2)
        stages = [cfg.stage_of(i, 8) for i in range(8)]
        assert stages == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_uneven_layers(self):
        cfg = PipelineConfig(3)
        stages = [cfg.stage_of(i, 7) for i in range(7)]
        assert stages == [0, 0, 0, 1, 1, 1, 2]
        assert max(stages) < 3

    def test_invalid(self):
        with pytest.raises(SchedulingError):
            PipelineConfig(0)

    def test_vram_split(self):
        assert vram_per_stage_bytes(40e9, PipelineConfig(2)) == 20e9
        with pytest.raises(SchedulingError):
            vram_per_stage_bytes(-1.0, PipelineConfig(2))


class TestPipelinedExecution:
    def test_prefill_uses_all_stages(self):
        sim = simulate_pipelined_prefill(_prefill_works(), MACHINE,
                                         PipelineConfig(2))
        trace = Trace.from_simulator(sim)
        assert trace.busy_time("gpu0") > 0
        assert trace.busy_time("gpu1") > 0

    def test_prefill_gpu_work_overlaps_across_stages(self):
        sim = simulate_pipelined_prefill(_prefill_works(), MACHINE,
                                         PipelineConfig(2))
        trace = Trace.from_simulator(sim)
        assert trace.overlap_time("gpu0", "gpu1") > 0

    def test_cpu_bound_prefill_does_not_scale_with_stages(self):
        """The shared CPU expert pool serializes: wall time ~ unchanged."""
        t1 = simulate_pipelined_prefill(_prefill_works(), MACHINE,
                                        PipelineConfig(1)).now
        t2 = simulate_pipelined_prefill(_prefill_works(), MACHINE,
                                        PipelineConfig(2)).now
        assert t2 < t1 * 1.05
        assert t2 > t1 * 0.7

    def test_decode_latency_not_improved_by_pipeline(self):
        works = decode_works(KTRANSFORMERS, DS3, MACHINE, BF16, 128)[:8]
        t1 = simulate_pipelined_decode(works, MACHINE, PipelineConfig(1), 2).now
        t2 = simulate_pipelined_decode(works, MACHINE, PipelineConfig(2), 2).now
        assert t2 >= t1 * 0.99  # serial traversal; extra hops cost a bit

    def test_empty_inputs_rejected(self):
        with pytest.raises(SchedulingError):
            simulate_pipelined_prefill([], MACHINE, PipelineConfig(1))
        with pytest.raises(SchedulingError):
            simulate_pipelined_decode([], MACHINE, PipelineConfig(1), 1)


class TestBatchedDecode:
    def test_small_batches_gain_little(self):
        """MoE batching is weak at small batches: batch 8 activates ~5x
        more experts (8*top_k assignments over 64 experts), so per-step
        weight traffic grows almost as fast as the batch."""
        r1 = run_decode(KTRANSFORMERS, QW2, MACHINE, BF16, n_tokens=4,
                        batch_size=1)
        r8 = run_decode(KTRANSFORMERS, QW2, MACHINE, BF16, n_tokens=4,
                        batch_size=8)
        assert r8.tokens == 32
        assert 1.3 <= r8.tokens_per_s / r1.tokens_per_s <= 3.0

    def test_large_batches_amortize_expert_weights(self):
        """Once every expert is active anyway (batch*top_k >> n_experts),
        extra sequences ride along nearly free."""
        r8 = run_decode(KTRANSFORMERS, QW2, MACHINE, BF16, n_tokens=2,
                        batch_size=8)
        r64 = run_decode(KTRANSFORMERS, QW2, MACHINE, BF16, n_tokens=2,
                         batch_size=64)
        assert r64.tokens_per_s > 3 * r8.tokens_per_s
        # Per-step time grows far slower than the 8x batch growth.
        assert r64.elapsed_us < r8.elapsed_us * 3

    def test_large_batch_flips_kernel_to_amx(self):
        """QW-2: batch 64 -> 8 tokens/expert -> prefill (AMX) kernel."""
        small = decode_works(KTRANSFORMERS, QW2, MACHINE, BF16, 32,
                             batch_size=1)
        # The work values differ if a different kernel was selected.
        big = decode_works(KTRANSFORMERS, QW2, MACHINE, BF16, 32,
                           batch_size=64)
        assert big[-1].cpu_routed_us != small[-1].cpu_routed_us * 64

    def test_invalid_batch_rejected(self):
        from repro.sched import decode_layer_work
        from repro.moe import NumaStrategy
        from repro.hw import KT_AVX512
        with pytest.raises(ValueError):
            decode_layer_work(QW2, MACHINE, BF16, 32, KT_AVX512,
                              NumaStrategy.TENSOR_PARALLEL, 45, batch_size=0)


class TestKVOffloadCost:
    def test_mla_cache_much_smaller(self):
        assert (kv_bytes_per_token_layer(DS3)
                < kv_bytes_per_token_layer(QW2) / 10)

    def test_total_bytes(self):
        total = kv_cache_total_bytes(DS3, 1000)
        assert total == pytest.approx(DS3.kv_rank * 2 * 1000 * DS3.n_layers)

    def test_budget_shrinks_with_weights(self):
        small = gpu_kv_budget_tokens(QW2, MACHINE, weight_bytes=10e9)
        big = gpu_kv_budget_tokens(QW2, MACHINE, weight_bytes=30e9)
        assert small > big >= 0

    def test_no_offload_within_budget(self):
        cost = kv_offload_step_cost(QW2, MACHINE, 1000, weight_bytes=16e9)
        assert cost.offloaded_tokens == 0
        assert cost.fetch_us_per_layer == 0.0

    def test_offload_cliff_beyond_budget(self):
        weights = QW2.gpu_params * 2.0
        budget = gpu_kv_budget_tokens(QW2, MACHINE, weights)
        inside = kv_offload_step_cost(QW2, MACHINE, budget, weights)
        outside = kv_offload_step_cost(QW2, MACHINE, budget * 2, weights)
        assert outside.offloaded_tokens > 0
        assert outside.total_us_per_layer > 1.5 * inside.total_us_per_layer

    def test_mla_quantized_never_offloads_at_long_context(self):
        """Int4 DS-3 weights leave enough VRAM that MLA's latent cache
        holds 100k+ tokens entirely on the GPU."""
        weights = DS3.gpu_params * DS3.quant_dtype.bytes_per_element
        cost = kv_offload_step_cost(DS3, MACHINE, 100_000, weights)
        assert cost.offloaded_tokens == 0

    def test_mha_offloads_far_earlier_than_mla(self):
        weights = 16e9
        mha_budget = gpu_kv_budget_tokens(QW2, MACHINE, weights)
        mla_budget = gpu_kv_budget_tokens(DS3, MACHINE, weights)
        assert mla_budget > 5 * mha_budget

    def test_negative_context_rejected(self):
        with pytest.raises(ConfigError):
            kv_offload_step_cost(QW2, MACHINE, -1, 1e9)
