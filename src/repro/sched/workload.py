"""Lowering model presets into per-layer simulated work descriptions.

The performance simulator never allocates 671B parameters: a
:class:`~repro.model.presets.ModelPreset` plus a machine spec is lowered
into per-layer GPU/CPU durations and transfer sizes, which the schedulers
then arrange into task graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..hw.roofline import CPUKernelProfile, gpu_kernel_time_us
from ..hw.spec import MachineSpec
from ..kernels.backend import AriSelection, KernelBackend
from ..kernels.dispatch import DEFAULT_ARI_THRESHOLD
from ..model.presets import ModelPreset
from ..moe.numa import MoELayerDims, NumaStrategy, moe_layer_time_us
from ..moe.router import RouterConfig, balanced_synthetic_logits, route
from ..moe.scheduling import WorkItem, dynamic_schedule, static_schedule
from ..tensor.dtypes import DType

ACTIVATION_BYTES = 2  # BF16 activations cross PCIe


def kv_token_bytes(preset: ModelPreset) -> float:
    """KV-cache bytes one token occupies in one layer under ``preset``.

    MLA presets (``kv_rank > 0``) store the compressed latent; MHA-style
    presets store full K and V.  This is the unit behind both the decode
    attention traffic model below and the serving engine's preemption
    swap pricing (KV pages moved over PCIe are
    ``tokens * kv_token_bytes * n_layers``).
    """
    if preset.kv_rank > 0:
        return float(preset.kv_rank * ACTIVATION_BYTES)
    return float(2 * preset.hidden * ACTIVATION_BYTES)


@dataclass(frozen=True, slots=True)
class DecodeLayerWork:
    """Simulated durations for one layer's single-token decode step.

    Slotted: the step-price memo keeps the works of every distinct
    priced graph alive (:func:`repro.sched.decode.batched_step_time_us`).
    """

    gpu_attn_us: float          # attention + dense projections on GPU
    gpu_shared_us: float        # shared experts on GPU
    cpu_routed_us: float        # all routed experts on CPU
    transfer_bytes: float       # activations each way over PCIe
    n_gpu_kernels: int          # kernel launches this layer issues

    def cpu_split(self, immediate: int, deferred: int, top_k: int
                  ) -> tuple[float, float]:
        """Split routed-expert time between immediate and deferred sets."""
        total = immediate + deferred
        if total != top_k:
            raise ValueError(f"immediate+deferred={total} != top_k={top_k}")
        frac = immediate / top_k
        return self.cpu_routed_us * frac, self.cpu_routed_us * (1.0 - frac)


@dataclass(frozen=True)
class PrefillLayerWork:
    """Simulated durations for one layer over a prefill chunk."""

    gpu_attn_us: float
    gpu_shared_us: float
    cpu_routed_us: float
    transfer_bytes: float
    n_gpu_kernels: int


def decode_layer_work(
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType,
    context_len: int,
    cpu_profile: CPUKernelProfile,
    numa_strategy: NumaStrategy,
    kernels_per_layer: int,
    batch_size: int = 1,
    seed: int = 0,
) -> DecodeLayerWork:
    """Per-layer work of one decode step at the given context length.

    ``batch_size > 1`` models the paper's "few requests per batch" local
    scenario: weights stream once per step while serving every sequence,
    so per-token cost drops and per-expert token counts rise (which is what
    eventually flips the hybrid kernel back to AMX).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    gpu = machine.gpu
    layer_bytes = preset.gpu_layer_bytes(dtype)
    shared_bytes = preset.shared_expert_bytes(dtype)
    attn_bytes = max(layer_bytes - shared_bytes, layer_bytes * 0.3)
    # KV cache traffic: MLA reads the latent, MHA full K/V (per sequence).
    kv_bytes = context_len * kv_token_bytes(preset)
    # Decode is memory-bound on GPU: flops ~ 2 * bytes/elem per sequence.
    gpu_attn_us = gpu_kernel_time_us(
        flops=2.0 * batch_size * (attn_bytes / dtype.bytes_per_element),
        bytes_moved=attn_bytes + batch_size * kv_bytes,
        gpu=gpu,
    )
    gpu_shared_us = gpu_kernel_time_us(
        flops=2.0 * batch_size * (shared_bytes / dtype.bytes_per_element),
        bytes_moved=shared_bytes,
        gpu=gpu,
    ) if shared_bytes > 0 else 0.0

    if batch_size == 1:
        # One token activates exactly top_k routed experts, one token each.
        counts = np.zeros(preset.n_experts, dtype=int)
        counts[np.linspace(0, preset.n_experts - 1, preset.top_k,
                           dtype=int)] = 1
    else:
        rng = np.random.default_rng(seed)
        cfg = RouterConfig(n_experts=preset.n_experts, top_k=preset.top_k)
        routing = route(balanced_synthetic_logits(batch_size, cfg, rng), cfg)
        counts = routing.expert_token_counts(preset.n_experts)
    dims = MoELayerDims(preset.hidden, preset.moe_intermediate, dtype)
    cpu_routed_us = moe_layer_time_us(counts, dims, cpu_profile, machine,
                                      numa_strategy)

    return DecodeLayerWork(
        gpu_attn_us=gpu_attn_us,
        gpu_shared_us=gpu_shared_us,
        cpu_routed_us=cpu_routed_us,
        transfer_bytes=float(batch_size * preset.hidden * ACTIVATION_BYTES),
        n_gpu_kernels=kernels_per_layer,
    )


@dataclass(frozen=True)
class BatchedDispatchSummary:
    """ARI kernel-dispatch outcome of one *batched* MoE decode layer.

    Aggregating per-expert token counts across the batch is what moves the
    AVX-512/AMX crossover (Fig. 7): requests that individually route 1
    token to an expert can jointly push it past ``ari_threshold``.  This
    summary records the decision per expert so tests and benchmarks can
    observe the shift.
    """

    batch_size: int
    ari_threshold: int
    expert_token_counts: tuple[int, ...]
    kernel_names: tuple[str, ...]     # per expert: "amx" | "avx512" | "idle"

    @property
    def n_active(self) -> int:
        return sum(1 for t in self.expert_token_counts if t > 0)

    @property
    def n_amx(self) -> int:
        return sum(1 for k in self.kernel_names if k == "amx")

    @property
    def n_avx512(self) -> int:
        return sum(1 for k in self.kernel_names if k == "avx512")

    @property
    def max_tokens_per_expert(self) -> int:
        return max(self.expert_token_counts, default=0)

    @property
    def dominant_kernel(self) -> str:
        return "amx" if self.n_amx >= self.n_avx512 else "avx512"


def batched_expert_counts(preset: ModelPreset, batch_size: int,
                          seed: int = 0) -> np.ndarray:
    """Aggregated per-expert token counts of one batched decode step.

    ``batch_size == 1`` reproduces the deterministic single-token layout
    used by :func:`decode_layer_work`; larger batches run an actual routing
    pass so aggregation (and its imbalance) is realistic.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if batch_size == 1:
        counts = np.zeros(preset.n_experts, dtype=int)
        counts[np.linspace(0, preset.n_experts - 1, preset.top_k,
                           dtype=int)] = 1
        return counts
    rng = np.random.default_rng(seed)
    cfg = RouterConfig(n_experts=preset.n_experts, top_k=preset.top_k)
    routing = route(balanced_synthetic_logits(batch_size, cfg, rng), cfg)
    return routing.expert_token_counts(preset.n_experts)


def ari_selection_for(
    machine: MachineSpec,
    avx512_profile: CPUKernelProfile,
    amx_profile: CPUKernelProfile,
    ari_threshold: int | None = None,
    backend: KernelBackend | None = None,
) -> AriSelection:
    """Resolve the shared ARI selector for one pricing call site.

    With a ``backend``, selection comes straight off the registry entry
    (its lanes, labels, and calibrated crossover, with the machine's
    AMX-capability fallback applied); without one, the legacy explicit
    profile pair is wrapped in the same :class:`AriSelection` -- so every
    call site classifies through one implementation and the historical
    copy-pasted ``select()`` closures cannot diverge again.
    """
    if backend is not None:
        return backend.selection(machine, ari_threshold=ari_threshold)
    if amx_profile.uses_amx and not machine.cpu.has_amx:
        amx_profile = avx512_profile
    return AriSelection(
        latency_profile=avx512_profile,
        throughput_profile=amx_profile,
        ari_threshold=(DEFAULT_ARI_THRESHOLD if ari_threshold is None
                       else ari_threshold),
    )


def batched_decode_layer_work(
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType,
    context_lens: Sequence[int],
    avx512_profile: CPUKernelProfile,
    amx_profile: CPUKernelProfile,
    numa_strategy: NumaStrategy,
    kernels_per_layer: int,
    ari_threshold: int | None = None,
    seed: int = 0,
    backend: KernelBackend | None = None,
) -> tuple[DecodeLayerWork, BatchedDispatchSummary]:
    """Price one MoE layer of a multi-request (continuous-batching) step.

    Differences from :func:`decode_layer_work` with ``batch_size > 1``:

    - per-expert token counts are aggregated across the whole batch
      *before* kernel dispatch, and each expert's GEMM pair is priced once
      over its coalesced token count (weights stream from DRAM once per
      expert per step, not once per request);
    - kernel selection is per expert through the registry's shared
      :class:`~repro.kernels.backend.AriSelection`: experts whose
      aggregated count exceeds the ARI threshold switch from the
      backend's latency lane to its throughput lane (the paper's
      AVX-512 -> AMX crossover under the default backend), exactly like
      :class:`repro.kernels.dispatch.HybridKernel`;
    - attention KV traffic sums over each request's own context length.

    ``backend`` (a :class:`~repro.kernels.backend.KernelBackend`)
    overrides the explicit profile pair; ``None`` keeps the legacy
    arguments, which the default registry backend reproduces
    bit-for-bit.  Returns the priced layer work plus the dispatch
    decisions.
    """
    batch_size = len(context_lens)
    if batch_size <= 0:
        raise ValueError("context_lens must not be empty")
    selection = ari_selection_for(machine, avx512_profile, amx_profile,
                                  ari_threshold, backend)
    gpu = machine.gpu
    layer_bytes = preset.gpu_layer_bytes(dtype)
    shared_bytes = preset.shared_expert_bytes(dtype)
    attn_bytes = max(layer_bytes - shared_bytes, layer_bytes * 0.3)
    kv_bytes = sum(context_len * kv_token_bytes(preset)
                   for context_len in context_lens)
    gpu_attn_us = gpu_kernel_time_us(
        flops=2.0 * batch_size * (attn_bytes / dtype.bytes_per_element),
        bytes_moved=attn_bytes + kv_bytes,
        gpu=gpu,
    )
    gpu_shared_us = gpu_kernel_time_us(
        flops=2.0 * batch_size * (shared_bytes / dtype.bytes_per_element),
        bytes_moved=shared_bytes,
        gpu=gpu,
    ) if shared_bytes > 0 else 0.0

    counts = batched_expert_counts(preset, batch_size, seed=seed)

    dims = MoELayerDims(preset.hidden, preset.moe_intermediate, dtype)
    cpu_routed_us = moe_layer_time_us(
        counts, dims, selection.latency_profile, machine, numa_strategy,
        select_profile=selection.select_profile,
    )

    summary = BatchedDispatchSummary(
        batch_size=batch_size,
        ari_threshold=selection.ari_threshold,
        expert_token_counts=tuple(int(t) for t in counts),
        kernel_names=selection.kernel_names(counts),
    )
    work = DecodeLayerWork(
        gpu_attn_us=gpu_attn_us,
        gpu_shared_us=gpu_shared_us,
        cpu_routed_us=cpu_routed_us,
        transfer_bytes=float(batch_size * preset.hidden * ACTIVATION_BYTES),
        n_gpu_kernels=kernels_per_layer,
    )
    return work, summary


# A fully-hit layer still pays gating/dispatch on the CPU control thread;
# the floor also keeps the task-graph builder from degenerating the layer
# to its dense (no-transfer, no-merge) shape.
MIN_CPU_DISPATCH_US = 0.05

# Grouped-GEMM dispatch calibration: per-expert cost of gathering tokens
# into the packed (expert-major) activation layout the grouped kernel
# wants, and the HBM-traffic penalty of streaming a fully *fragmented*
# resident-expert layout (strided weight reads defeat coalescing; a
# contiguous arena reads at full stream bandwidth).
GROUPED_GATHER_US_PER_EXPERT = 0.2
FRAGMENTED_STREAM_PENALTY = 0.35


@dataclass(frozen=True)
class ExpertGemmDispatch:
    """How GPU-resident (cache-hit) expert GEMMs are dispatched.

    ``mode="per-expert"`` launches one streamed GEMM per hit expert --
    ``n_hit_experts`` kernels, each paying the launch latency and the
    minimum-kernel-duration floor.  ``mode="grouped"`` packs every hit
    expert into a single grouped-GEMM kernel (the CoX-MoE-style coalesced
    dispatch): one launch, but a gather/packing overhead per expert and
    layout-aware weight streaming -- ``layout_contiguity`` is the fraction
    of the hit experts that sit in consecutive cache-arena slots (1.0 =
    one contiguous stream, 0.0 = fully fragmented), reported by
    :class:`repro.moe.expert_cache.ExpertCacheManager`.
    """

    mode: str
    layout_contiguity: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("per-expert", "grouped"):
            raise ValueError(f"unknown dispatch mode {self.mode!r}")
        if not 0.0 <= self.layout_contiguity <= 1.0:
            raise ValueError("layout_contiguity must be in [0, 1]")


def apply_expert_cache(
    work: DecodeLayerWork,
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType,
    total_tokens: int,
    hit_tokens: int,
    n_hit_experts: int,
    dispatch: ExpertGemmDispatch | None = None,
) -> DecodeLayerWork:
    """Reprice a batched MoE decode layer under an expert-cache outcome.

    ``hit_tokens`` of the layer's ``total_tokens`` routed tokens land on
    GPU-resident experts: their GEMMs leave the CPU bill (which scales
    linearly with routed tokens -- per-expert GEMMs sum) and are instead
    priced on the GPU roofline, streaming the ``n_hit_experts`` resident
    experts' weights from HBM.  Misses keep the CPU (AMX/AVX-512) price.
    Transfer stall for non-overlapped prefetches is added by the step
    pricer (:meth:`repro.serving.pricing.BatchCostModel.decode_step_us`),
    not here.

    ``dispatch`` selects how the hit-expert GEMMs reach the GPU.  ``None``
    (legacy) keeps the original single-blob pricing: one roofline estimate
    for all hit work, with the layer's kernel count unchanged -- the
    launch-blind model the pre-graph goldens pin.  An explicit
    :class:`ExpertGemmDispatch` makes launches visible: ``"per-expert"``
    adds ``n_hit_experts`` kernels (each floored and launch-priced by the
    scheduler), ``"grouped"`` adds exactly one kernel plus gather overhead
    and a fragmentation-scaled streaming penalty.
    """
    if total_tokens <= 0:
        raise ValueError("total_tokens must be positive")
    if not 0 <= hit_tokens <= total_tokens:
        raise ValueError("hit_tokens must be within [0, total_tokens]")
    if n_hit_experts < 0 or (hit_tokens > 0 and n_hit_experts == 0):
        raise ValueError("n_hit_experts inconsistent with hit_tokens")
    miss_fraction = 1.0 - hit_tokens / total_tokens
    cpu_routed_us = max(work.cpu_routed_us * miss_fraction, MIN_CPU_DISPATCH_US)
    gpu_routed_us = 0.0
    extra_kernels = 0
    if hit_tokens > 0:
        per_token_flops = 2.0 * 3.0 * preset.hidden * preset.moe_intermediate
        flops = hit_tokens * per_token_flops
        bytes_moved = n_hit_experts * preset.expert_bytes(dtype)
        if dispatch is None:
            gpu_routed_us = gpu_kernel_time_us(
                flops=flops, bytes_moved=bytes_moved, gpu=machine.gpu,
            )
        elif dispatch.mode == "per-expert":
            # One streamed GEMM per resident expert: the roofline floor
            # and launch latency apply to every kernel individually.
            gpu_routed_us = n_hit_experts * gpu_kernel_time_us(
                flops=flops / n_hit_experts,
                bytes_moved=bytes_moved / n_hit_experts,
                gpu=machine.gpu,
            )
            extra_kernels = n_hit_experts
        else:
            fragmentation = 1.0 - dispatch.layout_contiguity
            gpu_routed_us = gpu_kernel_time_us(
                flops=flops,
                bytes_moved=bytes_moved
                * (1.0 + FRAGMENTED_STREAM_PENALTY * fragmentation),
                gpu=machine.gpu,
            ) + GROUPED_GATHER_US_PER_EXPERT * n_hit_experts
            extra_kernels = 1
    return DecodeLayerWork(
        gpu_attn_us=work.gpu_attn_us,
        gpu_shared_us=work.gpu_shared_us + gpu_routed_us,
        cpu_routed_us=cpu_routed_us,
        transfer_bytes=work.transfer_bytes,
        n_gpu_kernels=work.n_gpu_kernels + extra_kernels,
    )


@dataclass(frozen=True)
class HybridChunkWork:
    """Marginal per-layer work a prefill chunk adds to one decode iteration.

    A *hybrid* (chunked-prefill + decode) iteration runs the in-flight
    decode batch's tokens and a prompt chunk's tokens through every layer
    together.  The CPU expert bill is dominated by streaming each active
    expert's weights from DRAM once per step, so chunk tokens that route
    to experts the decode batch already activates are nearly free: their
    GEMMs coalesce onto weights that are streaming anyway.
    ``cpu_routed_us`` is therefore the *marginal* routed-expert time of
    the combined iteration over the decode batch alone -- the decode
    batch's own :class:`DecodeLayerWork` stays priced exactly as before
    (so expert-cache repricing composes unchanged) and the chunk rides on
    top via :func:`merge_hybrid_work`.
    """

    gpu_attn_us: float          # the chunk's prefill-style attention
    gpu_shared_us: float        # shared experts over the chunk's tokens
    cpu_routed_us: float        # marginal routed-expert time (coalesced)
    transfer_bytes: float       # chunk activations each way over PCIe
    n_gpu_kernels: int


def hybrid_chunk_layer_work(
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType,
    chunk_tokens: int,
    batch_size: int,
    avx512_profile: CPUKernelProfile,
    amx_profile: CPUKernelProfile,
    numa_strategy: NumaStrategy,
    kernels_per_layer: int,
    ari_threshold: int | None = None,
    seed: int = 0,
    backend: KernelBackend | None = None,
) -> tuple[HybridChunkWork, BatchedDispatchSummary]:
    """Price one MoE layer's share of a prefill chunk piggybacked on decode.

    The chunk's per-expert token counts (an actual routing pass, like
    :func:`prefill_layer_work`) are *summed with* the decode batch's
    counts before pricing, and kernel dispatch is ARI-per-expert over the
    combined counts through the same shared
    :class:`~repro.kernels.backend.AriSelection` the batched decode path
    uses -- chunk tokens can push a decode-warm expert past the
    backend's latency/throughput crossover exactly like extra batch
    would (``backend=None`` keeps the explicit profile pair).  The
    returned work carries the combined cost *minus* the decode batch's
    own cost (clamped at zero: per-expert kernel switches can make the
    coalesced GEMM marginally cheaper), so
    ``merge_hybrid_work(decode_work, chunk_work)`` reproduces the
    combined iteration while leaving the decode-side pricing -- and any
    expert-cache repricing of it -- untouched.

    ``batch_size == 0`` prices a chunk-only iteration (nothing decodable
    yet): the marginal equals the chunk's full routed-expert time.

    Returns the chunk work plus the *combined* dispatch summary
    (``batch_size`` in the summary is the decode batch; token counts and
    kernel names reflect decode + chunk together).
    """
    if chunk_tokens <= 0:
        raise ValueError("chunk_tokens must be positive")
    if batch_size < 0:
        raise ValueError("batch_size must be >= 0")
    selection = ari_selection_for(machine, avx512_profile, amx_profile,
                                  ari_threshold, backend)
    gpu = machine.gpu
    layer_bytes = preset.gpu_layer_bytes(dtype)
    shared_bytes = preset.shared_expert_bytes(dtype)
    attn_bytes = max(layer_bytes - shared_bytes, layer_bytes * 0.3)
    weights_per_elem = dtype.bytes_per_element
    # Chunk attention is prefill-style compute-bound: O(chunk) GEMMs plus
    # O(chunk^2) scores (the decode batch's attention is priced in its own
    # DecodeLayerWork; weights stream once for the merged kernel).
    attn_flops = (
        2.0 * chunk_tokens * (attn_bytes / weights_per_elem)
        + 2.0 * chunk_tokens * chunk_tokens * preset.hidden
    )
    gpu_attn_us = gpu_kernel_time_us(attn_flops, attn_bytes, gpu)
    gpu_shared_us = gpu_kernel_time_us(
        2.0 * chunk_tokens * (shared_bytes / weights_per_elem),
        shared_bytes, gpu,
    ) if shared_bytes > 0 else 0.0

    decode_counts = (batched_expert_counts(preset, batch_size, seed=seed)
                     if batch_size > 0
                     else np.zeros(preset.n_experts, dtype=int))
    rng = np.random.default_rng(seed)
    cfg = RouterConfig(n_experts=preset.n_experts, top_k=preset.top_k)
    routing = route(balanced_synthetic_logits(chunk_tokens, cfg, rng), cfg)
    chunk_counts = routing.expert_token_counts(preset.n_experts)
    combined = decode_counts + chunk_counts

    dims = MoELayerDims(preset.hidden, preset.moe_intermediate, dtype)
    combined_us = moe_layer_time_us(
        combined, dims, selection.latency_profile, machine, numa_strategy,
        select_profile=selection.select_profile,
    )
    decode_us = moe_layer_time_us(
        decode_counts, dims, selection.latency_profile, machine,
        numa_strategy, select_profile=selection.select_profile,
    ) if batch_size > 0 else 0.0

    summary = BatchedDispatchSummary(
        batch_size=batch_size,
        ari_threshold=selection.ari_threshold,
        expert_token_counts=tuple(int(t) for t in combined),
        kernel_names=selection.kernel_names(combined),
    )
    work = HybridChunkWork(
        gpu_attn_us=gpu_attn_us,
        gpu_shared_us=gpu_shared_us,
        cpu_routed_us=max(combined_us - decode_us, 0.0),
        transfer_bytes=float(chunk_tokens * preset.hidden * ACTIVATION_BYTES),
        n_gpu_kernels=kernels_per_layer,
    )
    return work, summary


def merge_hybrid_work(decode: DecodeLayerWork,
                      chunk: HybridChunkWork) -> DecodeLayerWork:
    """One layer of a mixed iteration: decode batch plus a prefill chunk.

    Durations add (the chunk's ``cpu_routed_us`` is already marginal over
    the decode batch, so the sum reproduces the combined coalesced
    pricing); the kernel count stays the decode step's -- the chunk's
    work rides the same single CUDA graph rather than launching its own
    stream.
    """
    return DecodeLayerWork(
        gpu_attn_us=decode.gpu_attn_us + chunk.gpu_attn_us,
        gpu_shared_us=decode.gpu_shared_us + chunk.gpu_shared_us,
        cpu_routed_us=decode.cpu_routed_us + chunk.cpu_routed_us,
        transfer_bytes=decode.transfer_bytes + chunk.transfer_bytes,
        n_gpu_kernels=decode.n_gpu_kernels,
    )


def chunk_only_work(chunk: HybridChunkWork) -> DecodeLayerWork:
    """A chunk-only iteration's layer work (no decodable requests yet)."""
    return DecodeLayerWork(
        gpu_attn_us=chunk.gpu_attn_us,
        gpu_shared_us=chunk.gpu_shared_us,
        cpu_routed_us=chunk.cpu_routed_us,
        transfer_bytes=chunk.transfer_bytes,
        n_gpu_kernels=chunk.n_gpu_kernels,
    )


def prefill_layer_work(
    preset: ModelPreset,
    machine: MachineSpec,
    dtype: DType,
    chunk_tokens: int,
    cpu_profile: CPUKernelProfile,
    numa_strategy: NumaStrategy,
    kernels_per_layer: int,
    dynamic_scheduling: bool = True,
    seed: int = 0,
    backend: KernelBackend | None = None,
) -> PrefillLayerWork:
    """Per-layer work of prefilling a chunk of ``chunk_tokens`` tokens.

    Expert token counts are drawn from an actual routing pass over balanced
    synthetic logits, so prefill imbalance (and the benefit of dynamic work
    scheduling) is realistic rather than assumed.  ``backend`` replaces
    ``cpu_profile`` with the registry backend's throughput lane (resolved
    against the machine's AMX capability); ``None`` keeps the explicit
    profile.
    """
    if backend is not None:
        _, cpu_profile = backend.resolve_profiles(machine)
    gpu = machine.gpu
    layer_bytes = preset.gpu_layer_bytes(dtype)
    shared_bytes = preset.shared_expert_bytes(dtype)
    attn_bytes = max(layer_bytes - shared_bytes, layer_bytes * 0.3)
    weights_per_elem = dtype.bytes_per_element
    # Prefill attention is compute-bound: O(chunk) GEMMs + O(chunk^2) scores.
    attn_flops = (
        2.0 * chunk_tokens * (attn_bytes / weights_per_elem)
        + 2.0 * chunk_tokens * chunk_tokens * preset.hidden
    )
    gpu_attn_us = gpu_kernel_time_us(attn_flops, attn_bytes, gpu)
    gpu_shared_us = gpu_kernel_time_us(
        2.0 * chunk_tokens * (shared_bytes / weights_per_elem),
        shared_bytes, gpu,
    ) if shared_bytes > 0 else 0.0

    rng = np.random.default_rng(seed)
    cfg = RouterConfig(n_experts=preset.n_experts, top_k=preset.top_k)
    routing = route(balanced_synthetic_logits(chunk_tokens, cfg, rng), cfg)
    counts = routing.expert_token_counts(preset.n_experts)
    dims = MoELayerDims(preset.hidden, preset.moe_intermediate, dtype)
    ideal_us = moe_layer_time_us(counts, dims, cpu_profile, machine,
                                 numa_strategy, streaming_access=True)
    penalty = scheduling_penalty(counts, machine.cpu.cores,
                                 dynamic=dynamic_scheduling)
    return PrefillLayerWork(
        gpu_attn_us=gpu_attn_us,
        gpu_shared_us=gpu_shared_us,
        cpu_routed_us=ideal_us * penalty,
        transfer_bytes=float(chunk_tokens * preset.hidden * ACTIVATION_BYTES),
        n_gpu_kernels=kernels_per_layer,
    )


def scheduling_penalty(expert_token_counts: np.ndarray, n_threads: int,
                       dynamic: bool) -> float:
    """Makespan inflation of a thread-scheduling policy over perfect balance.

    Work items are proportional to each active expert's token load; the
    penalty is the policy's simulated makespan over the dynamic-chunked
    optimum, applied multiplicatively to the ideal (fully-parallel) layer
    time.
    """
    items = [
        WorkItem(float(t), e)
        for e, t in enumerate(expert_token_counts) if t > 0
    ]
    if not items:
        return 1.0
    if dynamic:
        policy = dynamic_schedule(items, n_threads, chunk_us=4.0,
                                  barrier_us=0.0, per_chunk_overhead_us=0.05)
    else:
        policy = static_schedule(items, n_threads, barrier_us=0.0)
    loads = [item.duration_us for item in items]
    if all(load.is_integer() for load in loads):
        # Integer loads split into unit chunks of exactly 1.0, so the
        # unit-chunk work queue's makespan is ceil(N / threads) exactly.
        baseline_us = float(-(-int(sum(loads)) // n_threads))
    else:
        baseline_us = dynamic_schedule(
            items, n_threads, chunk_us=1.0, barrier_us=0.0,
            per_chunk_overhead_us=0.0).makespan_us
    if baseline_us <= 0:
        return 1.0
    return max(1.0, policy.makespan_us / baseline_us)
