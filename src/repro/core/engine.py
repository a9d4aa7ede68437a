"""End-to-end throughput engine: lower a model onto a machine and measure.

`KTRANSFORMERS` is the system profile of this paper (hybrid AMX/AVX-512
kernels, one CUDA graph per step, NUMA-aware tensor parallelism, async
CPU-GPU overlap).  ``run_prefill`` / ``run_decode`` execute any
:class:`~repro.baselines.base.SystemProfile` on any Table 1 preset and
machine, returning throughput plus the full execution trace -- every
figure in Section 6 is produced through these two entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..baselines.base import SystemProfile
from ..errors import ConfigError
from ..hw.event_sim import Simulator
from ..hw.spec import MachineSpec
from ..hw.trace import Trace
from ..hw.units import tokens_per_second
from ..kernels.backend import (
    KT_AMX_AVX512_BACKEND,
    KernelBackend,
    resolve_backend,
)
from ..model.presets import ModelPreset
from ..moe.numa import NumaStrategy
from ..sched.cuda_graph import LaunchMode
from ..sched.decode import DecodeScheduleConfig, simulate_decode
from ..sched.prefill import prefill_elapsed_us, simulate_prefill
from ..sched.workload import (
    BatchedDispatchSummary,
    DecodeLayerWork,
    HybridChunkWork,
    PrefillLayerWork,
    ari_selection_for,
    batched_decode_layer_work,
    decode_layer_work,
    hybrid_chunk_layer_work,
    prefill_layer_work,
)
from ..tensor.dtypes import BF16, DType

# The paper system's kernels come off the registry's default backend --
# the same KT_AMX/KT_AVX512 profile objects as always, now with a single
# owner.
KTRANSFORMERS = SystemProfile(
    name="ktransformers",
    display_name="KTransformers",
    prefill_kernel=KT_AMX_AVX512_BACKEND.throughput_profile,
    decode_kernel=KT_AMX_AVX512_BACKEND.latency_profile,
    launch_mode=LaunchMode.CUDA_GRAPH,
    numa_strategy=NumaStrategy.TENSOR_PARALLEL,
    overlap_cpu_gpu=True,
    dynamic_scheduling=True,
    decode_kernels_per_layer=45,
    prefill_kernels_per_layer=45,
)


@dataclass
class ThroughputResult:
    """Outcome of one simulated prefill or decode run."""

    system: str
    model: str
    phase: str
    tokens: int
    elapsed_us: float
    trace: Trace

    @property
    def tokens_per_s(self) -> float:
        return tokens_per_second(self.tokens, self.elapsed_us)

    def utilization(self, resource: str) -> float:
        return self.trace.utilization(resource)


def _dense_decode_work(moe_work: DecodeLayerWork) -> DecodeLayerWork:
    """A dense (non-MoE) layer: GPU-only, no routed experts."""
    return DecodeLayerWork(
        gpu_attn_us=moe_work.gpu_attn_us,
        gpu_shared_us=0.0,
        cpu_routed_us=0.0,
        transfer_bytes=0.0,
        n_gpu_kernels=moe_work.n_gpu_kernels,
    )


def decode_works(
    system: SystemProfile,
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType,
    context_len: int,
    batch_size: int = 1,
    backend: "str | KernelBackend | None" = None,
) -> list[DecodeLayerWork]:
    """Per-layer decode work: dense layers first, then MoE layers.

    ``backend`` selects a registry :class:`KernelBackend` (by name or
    object) for the kernel lanes and launch constants; ``None`` keeps the
    system profile's kernels, which the default backend matches
    bit-for-bit.
    """
    backend = resolve_backend(backend)
    if backend is not None:
        machine = backend.apply_launch(machine)
    # ARI-aware dispatch also applies to batched decode: large batches push
    # per-expert token counts past the latency/throughput crossover.
    selection = ari_selection_for(machine, system.decode_kernel,
                                  system.prefill_kernel, None, backend)
    tokens_per_expert = batch_size * preset.top_k / preset.n_experts
    kernel = selection.select_profile(tokens_per_expert)
    moe = decode_layer_work(
        preset, machine, dtype, context_len,
        cpu_profile=kernel,
        numa_strategy=system.numa_strategy,
        kernels_per_layer=system.decode_kernels_per_layer,
        batch_size=batch_size,
    )
    dense = _dense_decode_work(moe)
    return [dense] * preset.n_dense_layers + [moe] * preset.n_moe_layers


def run_decode(
    system: SystemProfile,
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType = BF16,
    n_tokens: int = 32,
    context_len: int = 32,
    n_deferred: int | None = None,
    batch_size: int = 1,
    backend: "str | KernelBackend | None" = None,
) -> ThroughputResult:
    """Simulate decoding ``n_tokens`` steps of ``batch_size`` sequences.

    ``n_deferred`` enables Expert Deferral (None or 0 disables it; the
    paper's per-model defaults live on the preset).  ``backend`` selects a
    registry :class:`KernelBackend` for kernels and launch constants.
    Reported throughput counts ``n_tokens * batch_size`` generated tokens.
    """
    backend = resolve_backend(backend)
    if backend is not None:
        machine = backend.apply_launch(machine)
    works = decode_works(system, preset, machine, dtype, context_len,
                         batch_size=batch_size, backend=backend)
    config = DecodeScheduleConfig(
        launch_mode=system.launch_mode,
        overlap_cpu_gpu=system.overlap_cpu_gpu,
        top_k=preset.top_k,
        n_deferred=n_deferred or 0,
    )
    sim = simulate_decode(works, config, machine, n_tokens)
    return _result(system, preset, "decode", n_tokens * batch_size, sim)


def batched_decode_works(
    system: SystemProfile,
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType,
    context_lens: Sequence[int],
    ari_threshold: int | None = None,
    seed: int = 0,
    backend: "str | KernelBackend | None" = None,
) -> tuple[list[DecodeLayerWork], BatchedDispatchSummary]:
    """Per-layer work of one multi-request decode step (continuous batching).

    Unlike :func:`decode_works`, kernel dispatch happens per expert over
    the batch's *aggregated* token counts, so a big enough batch shifts
    individual experts from the latency to the throughput kernel even
    while others stay below the crossover.  ``backend`` selects a
    registry backend for the lanes and launch constants; ``None`` keeps
    the system profile's kernels.
    """
    backend = resolve_backend(backend)
    if backend is not None:
        machine = backend.apply_launch(machine)
    kwargs = {} if ari_threshold is None else {"ari_threshold": ari_threshold}
    moe, summary = batched_decode_layer_work(
        preset, machine, dtype, context_lens,
        avx512_profile=system.decode_kernel,
        amx_profile=system.prefill_kernel,
        numa_strategy=system.numa_strategy,
        kernels_per_layer=system.decode_kernels_per_layer,
        seed=seed,
        backend=backend,
        **kwargs,
    )
    dense = _dense_decode_work(moe)
    works = [dense] * preset.n_dense_layers + [moe] * preset.n_moe_layers
    return works, summary


def hybrid_chunk_works(
    system: SystemProfile,
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType,
    chunk_tokens: int,
    batch_size: int,
    ari_threshold: int | None = None,
    seed: int = 0,
    backend: "str | KernelBackend | None" = None,
) -> tuple[list[HybridChunkWork], BatchedDispatchSummary]:
    """Per-layer marginal work of piggybacking a prefill chunk on decode.

    Lowers :func:`repro.sched.workload.hybrid_chunk_layer_work` across the
    preset's layer stack: dense layers carry only the chunk's attention
    (no routed experts), MoE layers carry the chunk's marginal
    routed-expert time over a ``batch_size``-request decode batch.  Merge
    the result with :func:`batched_decode_works` output via
    :func:`repro.sched.workload.merge_hybrid_work` to price a mixed
    iteration; ``batch_size == 0`` prices a chunk-only iteration.
    ``backend`` selects a registry backend; ``None`` keeps the system
    profile's kernels.
    """
    backend = resolve_backend(backend)
    if backend is not None:
        machine = backend.apply_launch(machine)
    kwargs = {} if ari_threshold is None else {"ari_threshold": ari_threshold}
    moe, summary = hybrid_chunk_layer_work(
        preset, machine, dtype, chunk_tokens, batch_size,
        avx512_profile=system.decode_kernel,
        amx_profile=system.prefill_kernel,
        numa_strategy=system.numa_strategy,
        kernels_per_layer=system.decode_kernels_per_layer,
        seed=seed,
        backend=backend,
        **kwargs,
    )
    dense = HybridChunkWork(
        gpu_attn_us=moe.gpu_attn_us,
        gpu_shared_us=0.0,
        cpu_routed_us=0.0,
        transfer_bytes=0.0,
        n_gpu_kernels=moe.n_gpu_kernels,
    )
    works = [dense] * preset.n_dense_layers + [moe] * preset.n_moe_layers
    return works, summary


def _prefill_chunks(
    system: SystemProfile,
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType,
    prompt_len: int,
    chunk_tokens: int,
    seed: int,
    backend: "str | KernelBackend | None",
) -> tuple[MachineSpec, list[list[PrefillLayerWork]]]:
    """The machine a prefill runs on (``backend``'s launch constants
    applied) and each chunk's per-layer work: dense layers first, then
    MoE layers."""
    if prompt_len <= 0:
        raise ConfigError("prompt_len must be positive")
    backend = resolve_backend(backend)
    if backend is not None:
        machine = backend.apply_launch(machine)
    selection = ari_selection_for(machine, system.decode_kernel,
                                  system.prefill_kernel, None, backend)
    chunks: list[int] = []
    remaining = prompt_len
    while remaining > 0:
        take = min(chunk_tokens, remaining)
        chunks.append(take)
        remaining -= take

    works_per_chunk: list[list[PrefillLayerWork]] = []
    for i, size in enumerate(chunks):
        # ARI-aware dispatch (Section 3.2): short chunks route so few
        # tokens to each expert that the low-latency lane wins.
        tokens_per_expert = size * preset.top_k / preset.n_experts
        kernel = selection.select_profile(tokens_per_expert)
        moe = prefill_layer_work(
            preset, machine, dtype, size,
            cpu_profile=kernel,
            numa_strategy=system.numa_strategy,
            kernels_per_layer=system.prefill_kernels_per_layer,
            dynamic_scheduling=system.dynamic_scheduling,
            seed=seed + i,
        )
        dense = PrefillLayerWork(
            gpu_attn_us=moe.gpu_attn_us,
            gpu_shared_us=0.0,
            cpu_routed_us=0.0,
            transfer_bytes=0.0,
            n_gpu_kernels=moe.n_gpu_kernels,
        )
        works_per_chunk.append(
            [dense] * preset.n_dense_layers + [moe] * preset.n_moe_layers
        )
    return machine, works_per_chunk


def run_prefill(
    system: SystemProfile,
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType = BF16,
    prompt_len: int = 1024,
    chunk_tokens: int = 2048,
    seed: int = 0,
    backend: "str | KernelBackend | None" = None,
) -> ThroughputResult:
    """Simulate prefilling a ``prompt_len``-token prompt in chunks.

    ``backend`` selects a registry :class:`KernelBackend`; ``None`` keeps
    the system profile's kernels (matched bit-for-bit by the default
    backend).  The pass is recorded as a task graph, so the result
    carries its full trace; :func:`run_prefill_us` gives the same
    ``elapsed_us`` without recording.
    """
    machine, works_per_chunk = _prefill_chunks(
        system, preset, machine, dtype, prompt_len, chunk_tokens, seed,
        backend)
    sim = simulate_prefill(works_per_chunk, system.launch_mode, machine,
                           system.overlap_cpu_gpu)
    return _result(system, preset, "prefill", prompt_len, sim)


def run_prefill_us(
    system: SystemProfile,
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType = BF16,
    prompt_len: int = 1024,
    chunk_tokens: int = 2048,
    seed: int = 0,
    backend: "str | KernelBackend | None" = None,
) -> float:
    """``run_prefill(...).elapsed_us``, timed without recording a task
    graph where the launch mode allows
    (:func:`~repro.sched.prefill.prefill_elapsed_us`)."""
    machine, works_per_chunk = _prefill_chunks(
        system, preset, machine, dtype, prompt_len, chunk_tokens, seed,
        backend)
    return prefill_elapsed_us(works_per_chunk, system.launch_mode, machine,
                              system.overlap_cpu_gpu)


def _result(system: SystemProfile, preset: ModelPreset, phase: str,
            tokens: int, sim: Simulator) -> ThroughputResult:
    return ThroughputResult(
        system=system.name,
        model=preset.name,
        phase=phase,
        tokens=tokens,
        elapsed_us=sim.now,
        trace=Trace.from_simulator(sim),
    )
