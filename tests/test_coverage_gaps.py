"""Focused tests for paths not covered by the larger suites."""

import numpy as np
import pytest

from repro.bench import quant_machine_and_dtype, table1_models
from repro.bench.runner import fig7_kernel_crossover
from repro.core import KTRANSFORMERS
from repro.errors import ConfigError, InjectionError, SchedulingError
from repro.hw import Simulator, Trace, paper_testbed
from repro.inject import make_kernel
from repro.kernels import AMXKernel, AVX512Kernel, HybridKernel
from repro.model import DS2, DS3, QW2, ModelPreset
from repro.moe import FusedMoE, fuse_expert, make_expert
from repro.sched import (
    GpuExecutor,
    LaunchMode,
    build_prefill_chunk,
    prefill_layer_work,
    simulate_prefill,
)
from repro.tensor import BF16, INT4, INT8

MACHINE = paper_testbed("a100")


class TestPresetsByteHelpers:
    def test_expert_bytes_scaling(self):
        assert DS3.expert_bytes(INT4) < DS3.expert_bytes(INT8) < \
            DS3.expert_bytes(BF16)
        assert DS3.expert_bytes(BF16) == 3 * 7168 * 2048 * 2

    def test_cpu_dram_bytes(self):
        assert DS3.cpu_dram_bytes(BF16) == pytest.approx(
            58 * 256 * DS3.expert_bytes(BF16))

    def test_gpu_layer_bytes(self):
        assert DS3.gpu_layer_bytes(BF16) == pytest.approx(17e9 * 2 / 61)

    def test_shared_expert_bytes_qw2_large(self):
        """QW-2's shared expert has a 20480-wide intermediate."""
        assert QW2.shared_expert_bytes(BF16) > 5 * QW2.expert_bytes(BF16)

    def test_dense_layers(self):
        assert DS3.n_dense_layers == 3
        assert DS2.n_dense_layers == 1
        assert QW2.n_dense_layers == 0

    def test_quant_machine_and_dtype(self):
        machine, dt = quant_machine_and_dtype(DS3)
        assert "4080" in machine.gpu.name
        assert dt is INT4


class TestRunnerHelpers:
    def test_table1_rows(self):
        rows = table1_models()
        assert len(rows) == 3
        assert rows[0][0] == "DS3"

    def test_fig7_custom_presets(self):
        data = fig7_kernel_crossover(tokens_sweep=(1, 16), presets=(QW2,))
        assert set(data) == {"qw2"}
        assert len(data["qw2"]) == 2


class TestPrefillBuilder:
    def _work(self):
        return prefill_layer_work(
            QW2, MACHINE, BF16, 256, KTRANSFORMERS.prefill_kernel,
            KTRANSFORMERS.numa_strategy, 45,
        )

    def test_single_chunk(self):
        sim = simulate_prefill([[self._work()] * 4], LaunchMode.CUDA_GRAPH,
                               MACHINE, overlap_cpu_gpu=True)
        trace = Trace.from_simulator(sim)
        assert trace.count("cpu") == 4
        assert sim.now > 0

    def test_chunks_serialize(self):
        one = simulate_prefill([[self._work()] * 3], LaunchMode.CUDA_GRAPH,
                               MACHINE, True).now
        two = simulate_prefill([[self._work()] * 3] * 2,
                               LaunchMode.CUDA_GRAPH, MACHINE, True).now
        assert two > 1.9 * one

    def test_empty_chunk_rejected(self):
        sim = Simulator()
        ex = GpuExecutor(sim, MACHINE, LaunchMode.CUDA_GRAPH)
        with pytest.raises(SchedulingError):
            build_prefill_chunk(sim, ex, [], MACHINE, True, [])

    def test_no_chunks_rejected(self):
        with pytest.raises(SchedulingError):
            simulate_prefill([], LaunchMode.CUDA_GRAPH, MACHINE, True)

    def test_overlap_no_slower(self):
        works = [[self._work()] * 4]
        seq = simulate_prefill(works, LaunchMode.CUDA_GRAPH, MACHINE, False).now
        ovl = simulate_prefill(works, LaunchMode.CUDA_GRAPH, MACHINE, True).now
        assert ovl <= seq


class TestInjectKernelFactory:
    def test_backends(self):
        assert isinstance(make_kernel("AMX"), AMXKernel)
        assert isinstance(make_kernel("avx512"), AVX512Kernel)
        assert isinstance(make_kernel("Hybrid_AMX_AVX512"), HybridKernel)

    def test_unknown(self):
        with pytest.raises(InjectionError):
            make_kernel("neon")


class TestFusedWeights:
    def test_fused_nbytes_close_to_sum(self):
        expert = make_expert(32, 48, np.random.default_rng(0))
        fe = fuse_expert(expert)
        # gate+up fused padding may add a little, never double.
        assert fe.nbytes() <= expert.nbytes() * 1.3
        assert fe.intermediate_size == 48

    def test_fused_moe_nbytes_positive(self):
        experts = [make_expert(32, 48, np.random.default_rng(i))
                   for i in range(2)]
        moe = FusedMoE(experts, AMXKernel())
        assert moe.n_experts == 2
        assert moe.hidden_size == 32


class TestGpuExecutorDetails:
    def test_sync_point_names(self):
        sim = Simulator()
        ex = GpuExecutor(sim, MACHINE, LaunchMode.PER_KERNEL_CPP)
        ex.sync_point("probe")
        sim.drain()
        assert "sync:probe" in sim.names

    def test_negative_kernel_duration_rejected(self):
        from repro.errors import GraphCaptureError
        sim = Simulator()
        ex = GpuExecutor(sim, MACHINE, LaunchMode.PER_KERNEL_CPP)
        with pytest.raises(GraphCaptureError):
            ex.kernel("bad", -1.0, 1)

    def test_graph_replay_cost_scales_with_kernels(self):
        sim = Simulator()
        ex = GpuExecutor(sim, MACHINE, LaunchMode.CUDA_GRAPH)
        ex.begin_step()
        few = ex.kernel("few", 100.0, 1)
        many = ex.kernel("many", 100.0, 100)
        sim.drain()
        assert sim.durations[many] > sim.durations[few]

    def test_begin_step_resets_per_step(self):
        sim = Simulator()
        ex = GpuExecutor(sim, MACHINE, LaunchMode.CUDA_GRAPH)
        first = ex.begin_step()
        second = ex.begin_step(deps=[first])
        sim.drain()
        assert first is not second
        assert sim.starts[second] >= sim.ends[first]


class TestModelPresetValidation:
    def test_custom_preset_construction(self):
        p = ModelPreset(
            name="custom", display_name="Custom", hidden=1024,
            moe_intermediate=512, n_layers=4, n_moe_layers=4, n_experts=16,
            top_k=2, n_shared_experts=1, shared_intermediate=512,
            n_heads=8, kv_rank=0, vocab_size=1000, gpu_params=1e9,
            quant_dtype=INT8, deferred_experts_bf16=0,
            deferred_experts_quant=0,
        )
        assert p.cpu_params == 4 * 16 * 3 * 1024 * 512
        assert p.total_params > p.cpu_params
