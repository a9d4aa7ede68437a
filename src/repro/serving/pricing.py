"""Serving prices: the scheduler config and the one step pricer.

:class:`BatchCostModel` prices every serving path on the simulated
machine: the continuous-batching engine's decode iterations and prefill
passes, batch-1 serving (the engine at ``max_batch_size=1``), and the
streaming prices of :meth:`~repro.serving.session.InferenceSession.
generate` (``session.costs`` is a default-configured instance).
:class:`BatchSchedulerConfig` carries the policy knobs of the
iteration-level scheduler, including the pricing ones the cost model is
built from; :class:`StepShape` is the memo key of one priced iteration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

from ..core.engine import (batched_decode_works, hybrid_chunk_works,
                           run_prefill_us)
from ..errors import ConfigError
from ..faults.injector import IDENTITY_PERTURBATION, StepPerturbation
from ..hw.roofline import pcie_transfer_time_us
from ..kernels.backend import KernelBackend, resolve_backend
from ..model.paged import DEFAULT_PAGE_TOKENS
from ..moe.expert_cache import CacheStepResult
from ..sched.cuda_graph import GraphCacheConfig
from ..sched.decode import (
    DecodeScheduleConfig,
    batched_step_time_us,
    kv_swap_transfer_us,
)
from ..sched.multi_gpu import (
    PipelineConfig,
    stage_boundary_bytes,
    staged_interval_us,
)
from ..sched.workload import (
    BatchedDispatchSummary,
    DecodeLayerWork,
    ExpertGemmDispatch,
    HybridChunkWork,
    apply_expert_cache,
    chunk_only_work,
    kv_token_bytes,
    merge_hybrid_work,
)

if TYPE_CHECKING:
    from ..hw.spec import InterconnectSpec
    from .session import InferenceSession

# How GPU-resident expert GEMMs are priced (see BatchSchedulerConfig).
GEMM_DISPATCH_MODES = ("legacy", "per-expert", "grouped", "auto")


@functools.lru_cache(maxsize=256)
def _prefill_pass_us(system, preset, machine, dtype, backend,
                     prompt_len: int) -> float:
    """One prefill pass's ``run_prefill(...).elapsed_us``, timed without
    recording (:func:`~repro.core.engine.run_prefill_us`) and memoized per
    process by value: every cost model pricing the same inputs -- each
    fleet replica epoch builds its own -- shares one pass per bucket, and
    the backend and the machine it applied key every entry."""
    return run_prefill_us(system, preset, machine, dtype,
                          prompt_len=prompt_len, backend=backend)


@functools.lru_cache(maxsize=256)
def _decode_works(system, preset, machine, dtype, backend,
                  ari_threshold: int | None, batch: int, ctx: int
                  ) -> tuple[tuple[DecodeLayerWork, ...],
                             BatchedDispatchSummary]:
    """Base decode works of ``batch`` requests at context ``ctx``,
    memoized per process by value like :func:`_prefill_pass_us`; the
    works come back as a tuple, so no cost model can change a shared
    entry."""
    works, summary = batched_decode_works(
        system, preset, machine, dtype, context_lens=[ctx] * batch,
        ari_threshold=ari_threshold, backend=backend)
    return tuple(works), summary


@functools.lru_cache(maxsize=256)
def _stage_split(works: tuple[DecodeLayerWork, ...],
                 config: DecodeScheduleConfig, machine, pipeline: PipelineConfig,
                 price: float) -> tuple[float, tuple[float, ...]]:
    """``(staged interval / price, stage-boundary bytes)`` of one step's
    clean works, memoized per process by value like
    :func:`~repro.sched.decode.batched_step_time_us`: each fleet replica
    epoch's cost model derives the same splits, so they are derived once."""
    return (staged_interval_us(works, config, machine, pipeline) / price,
            stage_boundary_bytes(works, pipeline))


def _per_distinct(build, *columns) -> list:
    """``[build(*row) for row in zip(*columns)]``, calling ``build`` once
    per distinct row of objects and reusing its result at every position
    the row repeats at.  Rows key on object identity, never on value, so
    equal-valued works (``-0.0`` against ``0.0``, or a NaN) cannot share
    a result that a per-position build would not have given."""
    keys = list(zip(*[map(id, column) for column in columns]))
    built: dict[tuple[int, ...], object] = {}
    for key, row in zip(keys, zip(*columns)):
        if key not in built:
            built[key] = build(*row)
    return [built[key] for key in keys]


def _check_gemm_dispatch(mode: str) -> None:
    if mode not in GEMM_DISPATCH_MODES:
        raise ConfigError(
            f"unknown gemm_dispatch {mode!r}; expected one of "
            + ", ".join(map(repr, GEMM_DISPATCH_MODES)))


@dataclass(frozen=True)
class BatchSchedulerConfig:
    """Policy knobs of the iteration-level scheduler.

    ``kv_budget_tokens`` is the shared KV/VRAM allowance backing every
    concurrent request; admission reserves ``prompt + max_new_tokens``
    worth of pages up front so an admitted request can never be evicted
    mid-flight.  ``max_batch_size`` caps the decode batch regardless of
    budget.

    ``prefill_chunk_tokens`` enables chunked prefill: each iteration
    co-schedules at most that many prompt tokens alongside the decode
    batch (``None`` keeps the monolithic boundary pass).  A fresh
    admission wave whose total prompt tokens fit the budget still runs
    as one monolithic pass, so a budget of ``kv_budget_tokens`` is
    guaranteed to reproduce the un-chunked scheduler exactly.  Each
    decoding request's token counts against the chunk budget first
    (prefill gets the remainder, possibly zero): Sarathi-style
    stall-free batching.

    ``graph_cache`` attaches a CUDA-graph capture cache
    (:class:`~repro.sched.cuda_graph.GraphCacheConfig`): decode batches
    pad up to capture buckets, first use of a step shape pays a capture
    stall, and ``graph_*`` counters land in the stats.  ``None`` keeps the
    legacy free-replay pricing bit-for-bit.  ``gemm_dispatch`` selects
    how GPU-resident (expert-cache-hit) expert GEMMs are priced:
    ``"legacy"`` (single undifferentiated blob, the pre-graph goldens),
    ``"per-expert"`` (one launch per hit expert), ``"grouped"`` (single
    grouped kernel with layout-aware streaming), or ``"auto"`` (the cost
    model prices both arms and picks the cheaper per cache outcome).

    ``pipeline_stages`` shards the layer stack across that many GPUs
    (contiguous balanced stages, :class:`repro.sched.PipelineConfig`):
    decode iterations price as the steady-state pipelined interval plus
    stage-boundary activation handoffs over PCIe, composing with the
    expert cache, chunked prefill, graph capture, and fault
    perturbations.  ``1`` (the default) keeps the single-GPU pricing
    bit-for-bit.

    ``backend`` names a registered
    :class:`~repro.kernels.backend.KernelBackend` (or passes one
    directly): the cost model prices every step with that backend's
    kernel lanes, ARI crossover, and launch constants.  ``None`` keeps
    the system profile's kernels, which the default
    ``"kt-amx-avx512"`` backend reproduces bit-for-bit -- switching
    backends is pure configuration.  Unknown names raise
    :class:`ValueError` at construction time listing the registered
    choices.
    """

    kv_budget_tokens: int = 8192
    max_batch_size: int = 32
    page_tokens: int = DEFAULT_PAGE_TOKENS
    ari_threshold: int | None = None   # None -> backend's calibrated crossover
    prefill_chunk_tokens: int | None = None   # None -> monolithic prefill
    graph_cache: GraphCacheConfig | None = None   # None -> free replay
    gemm_dispatch: str = "legacy"
    pipeline_stages: int = 1
    backend: "str | KernelBackend | None" = None   # None -> system kernels

    def __post_init__(self) -> None:
        if self.kv_budget_tokens <= 0:
            raise ConfigError("kv_budget_tokens must be positive")
        if self.max_batch_size <= 0:
            raise ConfigError("max_batch_size must be positive")
        if self.page_tokens <= 0:
            raise ConfigError("page_tokens must be positive")
        if (self.prefill_chunk_tokens is not None
                and self.prefill_chunk_tokens <= 0):
            raise ConfigError("prefill_chunk_tokens must be positive")
        _check_gemm_dispatch(self.gemm_dispatch)
        if self.pipeline_stages <= 0:
            raise ConfigError("pipeline_stages must be positive")
        # Fail fast on typo'd backend names: raises ValueError listing
        # the registered backends.
        resolve_backend(self.backend)


class StepShape(NamedTuple):
    """Memo key of one priced iteration: everything its task graph depends on.

    ``batch`` is the decode batch size (0 for a chunk-only iteration:
    nothing decodable yet), ``ctx`` its longest context's bucket (0 with
    no batch), ``chunk`` the co-scheduled prefill chunk's bucket (0: no
    chunk).  ``cache`` is the expert cache's outcome: ``None`` when the
    cache was not consulted (none attached, cache-bypass, or a chunk-only
    iteration), ``()`` when it saw no routed tokens, else ``(hit-rate
    bucket, hit experts, dispatch arm, contiguity bucket)`` -- the arm is
    ``None`` (with no contiguity bucket) under legacy blob pricing.
    Fault perturbations stretch durations, not the graph, so they are
    not part of the shape; the shape doubles as the CUDA-graph key.
    """

    batch: int
    ctx: int
    chunk: int = 0
    cache: tuple | None = None


class BatchCostModel:
    """Caches simulated batched prefill/decode step costs.

    Every decode iteration -- plain, carrying a prefill chunk, under an
    expert-cache outcome, or fault-perturbed -- is priced by the one
    pricer :meth:`decode_step_us`.  It buckets the iteration into a
    :class:`StepShape`; the shape's layer works are built once (base
    decode works, then :func:`~repro.sched.workload.apply_expert_cache`,
    then :func:`~repro.sched.workload.merge_hybrid_work`, or
    :func:`~repro.sched.workload.chunk_only_work` for an empty batch) and
    each ``(shape, perturbation price key)`` is simulated once via
    :func:`~repro.sched.decode.batched_step_time_us`.  Batched prefill
    cost is keyed by the total prompt tokens of the co-admitted requests,
    bucketed by ``PREFILL_BUCKETS``; each bucket costs one whole pass
    (prefill is overhead-dominated, so cost is flat across a bucket, not
    proportional to tokens).
    """

    CTX_BUCKETS = (64, 256, 1024, 4096)
    PREFILL_BUCKETS = (32, 128, 512, 2048, 8192)
    CHUNK_BUCKETS = (16, 32, 64, 128, 256, 512, 1024, 2048)

    HIT_RATE_BUCKETS = 20        # cached-step pricing quantizes hit rate
    CONTIG_BUCKETS = 8           # dispatch pricing quantizes layout contiguity

    def __init__(self, session: InferenceSession,
                 ari_threshold: int | None = None,
                 gemm_dispatch: str = "legacy",
                 pipeline_stages: int = 1,
                 backend: "str | KernelBackend | None" = None) -> None:
        _check_gemm_dispatch(gemm_dispatch)
        if pipeline_stages <= 0:
            raise ConfigError("pipeline_stages must be positive")
        self.session = session
        self.backend = resolve_backend(backend)
        # The backend's launch constants apply to every priced step; with
        # no backend (or one that overrides nothing, like the default)
        # this is the session's machine spec object itself, keeping the
        # float paths bit-identical.
        self.machine = (self.backend.apply_launch(session.machine)
                        if self.backend is not None
                        else session.machine)
        self.ari_threshold = ari_threshold
        self.gemm_dispatch = gemm_dispatch
        self.pipeline_stages = pipeline_stages
        self._pipeline = (PipelineConfig(pipeline_stages)
                          if pipeline_stages > 1 else None)
        # Marginal chunk layer works (with their ARI dispatch summaries),
        # keyed by (batch, chunk bucket); base decode works are shared
        # per process (_decode_works).
        self._chunks: dict[tuple[int, int], tuple[
            list[HybridChunkWork], BatchedDispatchSummary]] = {}
        # Every priced shape's layer works, and its simulated price per
        # perturbation price key (None: unperturbed).
        self._works: dict[StepShape, list[DecodeLayerWork]] = {}
        self._prices: dict[tuple[StepShape, tuple | None], float] = {}
        # (stage ratio, boundary activation bytes) per clean step shape.
        self._pipeline_factors: dict[
            StepShape, tuple[float, tuple[float, ...]]] = {}
        self._prefill: dict[int, float] = {}

    @staticmethod
    def _bucket(value: int, buckets: tuple[int, ...]) -> int:
        for b in buckets:
            if value <= b:
                return b
        return buckets[-1]

    def _schedule_config(self) -> DecodeScheduleConfig:
        session = self.session
        return DecodeScheduleConfig(
            launch_mode=session.system.launch_mode,
            overlap_cpu_gpu=session.system.overlap_cpu_gpu,
            top_k=session.preset.top_k,
            n_deferred=session.n_deferred,
        )

    def _hybrid_schedule_config(self) -> DecodeScheduleConfig:
        """Mixed iterations run with Expert Deferral disabled.

        A prefill chunk keeps nearly every expert active (Section 4.1), so
        deferring "inactive" experts against the next step has nothing to
        defer to; the rest of the schedule (launch mode, overlap) is the
        decode config's.
        """
        return replace(self._schedule_config(), n_deferred=0)

    # -- step shapes ---------------------------------------------------------

    def step_shape(self, context_lens: list[int], chunk_tokens: int = 0,
                   cache_step: CacheStepResult | None = None) -> StepShape:
        """Bucket one iteration into its :class:`StepShape`.

        ``chunk_tokens`` is the co-scheduled prefill chunk (0: none;
        sizes past the largest bucket price as that bucket).  An empty
        ``context_lens`` is a chunk-only iteration, which the expert
        cache never sees.  ``cache_step`` is the expert cache's outcome
        for this iteration: its hit rate is quantized to
        1/``HIT_RATE_BUCKETS`` and its layout contiguity to
        1/``CONTIG_BUCKETS``, and the GEMM dispatch arm is resolved
        (``"auto"`` prices the per-expert and grouped arms and keeps the
        cheaper).
        """
        if chunk_tokens < 0:
            raise ConfigError("chunk_tokens must be >= 0 (0: no chunk)")
        chunk = (self._bucket(chunk_tokens, self.CHUNK_BUCKETS)
                 if chunk_tokens else 0)
        if not context_lens:
            if not chunk:
                raise ConfigError("decode step needs at least one request")
            return StepShape(0, 0, chunk)
        batch = len(context_lens)
        ctx = self._bucket(max(context_lens), self.CTX_BUCKETS)
        if cache_step is None:
            return StepShape(batch, ctx, chunk)
        if cache_step.total_tokens == 0:
            return StepShape(batch, ctx, chunk, ())
        hit = round(self.HIT_RATE_BUCKETS * cache_step.hit_tokens
                    / cache_step.total_tokens)
        n_hit = cache_step.n_hit_experts
        if self.gemm_dispatch == "legacy" or n_hit == 0:
            return StepShape(batch, ctx, chunk, (hit, n_hit, None, None))
        contig = round(self.CONTIG_BUCKETS * cache_step.layout_contiguity)
        arm = self.gemm_dispatch
        if arm == "auto":
            # Both arms priced clean, without the chunk, once per
            # quantized outcome (then memo hits).
            per = self._price(StepShape(
                batch, ctx, 0, (hit, n_hit, "per-expert", contig)))
            grp = self._price(StepShape(
                batch, ctx, 0, (hit, n_hit, "grouped", contig)))
            arm = "grouped" if grp <= per else "per-expert"
        return StepShape(batch, ctx, chunk, (hit, n_hit, arm, contig))

    def _decode_layers(
        self, batch: int, ctx: int,
    ) -> tuple[tuple[DecodeLayerWork, ...], BatchedDispatchSummary]:
        session = self.session
        return _decode_works(session.system, session.preset, self.machine,
                             session.dtype, self.backend, self.ari_threshold,
                             batch, ctx)

    def _chunk_layers(
        self, batch: int, chunk: int,
    ) -> tuple[list[HybridChunkWork], BatchedDispatchSummary]:
        """Per-layer marginal chunk works, memoized on (batch, chunk bucket).

        Chunk sizes are bucketed like context lengths; the largest bucket
        prices every bigger chunk (serving configs should keep
        ``prefill_chunk_tokens`` at or below it).
        """
        key = (batch, chunk)
        if key not in self._chunks:
            session = self.session
            self._chunks[key] = hybrid_chunk_works(
                session.system, session.preset, self.machine, session.dtype,
                chunk_tokens=chunk, batch_size=batch,
                ari_threshold=self.ari_threshold,
                backend=self.backend,
            )
        return self._chunks[key]

    def _works_for(self, shape: StepShape) -> list[DecodeLayerWork]:
        """The layer works of one shape (memoized).

        Built in order: base decode works; MoE layers repriced for the
        cache outcome (hits as GPU expert work, misses on the CPU); then
        the chunk's marginal works merged on top -- the chunk's experts
        stay on the CPU (prefill streams every active expert from DRAM
        regardless of GPU residency).  An empty batch is the chunk alone.
        A preset's layers of one kind share one work object, so each of
        these builds runs once per distinct layer object
        (:func:`_per_distinct`) and the repeated layers share its result.
        """
        works = self._works.get(shape)
        if works is not None:
            return works
        batch, ctx, chunk, cache = shape
        if not batch:
            works = _per_distinct(chunk_only_work,
                                  self._chunk_layers(0, chunk)[0])
        elif chunk:
            works = _per_distinct(merge_hybrid_work,
                                  self._works_for(shape._replace(chunk=0)),
                                  self._chunk_layers(batch, chunk)[0])
        elif cache:
            hit, n_hit, arm, contig = cache
            session = self.session
            layer_tokens = batch * session.preset.top_k
            hit_tokens = round(layer_tokens * hit / self.HIT_RATE_BUCKETS)
            dispatch = (None if arm is None else
                        ExpertGemmDispatch(arm, contig / self.CONTIG_BUCKETS))
            works = _per_distinct(
                lambda w: w if w.cpu_routed_us <= 0.0 else apply_expert_cache(
                    w, session.preset, self.machine, session.dtype,
                    total_tokens=layer_tokens, hit_tokens=hit_tokens,
                    n_hit_experts=n_hit, dispatch=dispatch,
                ),
                self._decode_layers(batch, ctx)[0])
        else:       # cache not consulted, or idle: the plain decode graph
            works = list(self._decode_layers(batch, ctx)[0])
        self._works[shape] = works
        return works

    # -- pricing -------------------------------------------------------------

    def _price(self, shape: StepShape,
               pert: StepPerturbation = IDENTITY_PERTURBATION) -> float:
        """Simulated steady-state cost of one shape (memoized).

        Perturbations key on their ``price_key``; an identity one prices
        with no duration hook at all, so a run with an empty fault plan is
        bit-identical to one with no injector.
        """
        pk = None if pert.prices_identity else pert.price_key()
        price = self._prices.get((shape, pk))
        if price is None:
            price = self._prices[shape, pk] = batched_step_time_us(
                self._works_for(shape),
                (self._hybrid_schedule_config() if shape.chunk
                 else self._schedule_config()),
                self.machine,
                perturb=None if pk is None else pert.sim_hook(),
            )
        return price

    def decode_step_us(self, context_lens: "list[int] | StepShape",
                       chunk_tokens: int = 0,
                       cache_step: CacheStepResult | None = None,
                       pert: StepPerturbation = IDENTITY_PERTURBATION
                       ) -> float:
        """Steady-state cost of one decode iteration.

        ``context_lens`` are the decode batch's context lengths (empty
        for a chunk-only iteration).  ``chunk_tokens`` prices a
        co-scheduled prefill chunk (0: none), ``cache_step`` reprices the
        MoE layers under the expert cache's outcome and adds its
        non-overlapped prefetch stall on top, and ``pert`` reruns the
        task graph under a fault perturbation -- stragglers/NUMA
        contention stretch CPU tasks and PCIe degradation stretches
        transfers *inside* the overlap structure (a slower link may hide
        behind attention rather than adding linearly).  An identity
        perturbation prices exactly the unperturbed float.

        ``context_lens`` may instead be a :class:`StepShape` from
        :meth:`step_shape`, which already carries the chunk and cache
        outcome: the engine builds each iteration's shape once and keys
        its CUDA graph on it too.
        """
        shape = (context_lens if isinstance(context_lens, StepShape)
                 else self.step_shape(context_lens, chunk_tokens, cache_step))
        cost = self._price(shape, pert)
        if cache_step is not None:
            cost += cache_step.stall_us
        return cost

    def attn_window_us(self, context_lens: list[int],
                       chunk_tokens: int = 0) -> float:
        """GPU attention time of one iteration -- the prefetch window.

        A chunk's prefill-style attention extends the window behind which
        expert-cache uploads can hide.
        """
        works = self._works_for(self.step_shape(context_lens, chunk_tokens))
        return sum(w.gpu_attn_us for w in works)

    def dispatch_summary(self, context_lens: list[int],
                         chunk_tokens: int = 0) -> BatchedDispatchSummary:
        """The ARI dispatch decisions behind one iteration.

        With a chunk, the combined (decode + chunk) dispatch.
        """
        batch, ctx, chunk, _ = self.step_shape(context_lens, chunk_tokens)
        if chunk:
            return self._chunk_layers(batch, chunk)[1]
        return self._decode_layers(batch, ctx)[1]

    def step_kernel_count(self, shape: StepShape) -> int:
        """Kernel count of one shape's captured step.

        What a CUDA-graph capture walks: every layer's attention +
        shared/expert kernel groups (``n_gpu_kernels``, including any
        dispatch-added expert GEMM launches), one merge per MoE layer,
        and the LM head -- counted over the shape's priced works.
        """
        works = self._works_for(shape)
        moe_layers = sum(1 for w in works if w.cpu_routed_us > 0)
        return sum(w.n_gpu_kernels for w in works) + moe_layers + 1

    # -- pipeline-stage pricing ----------------------------------------------

    def pipeline_factors(self, context_lens: list[int],
                         chunk_tokens: int = 0
                         ) -> tuple[float, tuple[float, ...]]:
        """Stage-split ratio and boundary bytes for one iteration shape.

        The ratio is ``staged interval / unsplit serial cost`` over the
        step's *clean* layer works (:func:`repro.sched.staged_interval_us`
        against :func:`repro.sched.decode.batched_step_time_us`) -- it is
        structural per step shape, so expert-cache repricing, fault
        perturbations, and clock jitter (which scale the whole step)
        compose multiplicatively through it.  The stage-boundary
        activation bytes come back raw for the caller to price on the
        link of the moment (possibly fault-degraded).  Single-stage
        models return ``(1.0, ())`` without touching any memo.
        """
        if self._pipeline is None:
            return 1.0, ()
        shape = self.step_shape(context_lens, chunk_tokens)
        factors = self._pipeline_factors.get(shape)
        if factors is None:
            factors = self._pipeline_factors[shape] = _stage_split(
                tuple(self._works_for(shape)),
                (self._hybrid_schedule_config() if shape.chunk
                 else self._schedule_config()),
                self.machine, self._pipeline, self._price(shape))
        return factors

    def staged_step_us(self, cost: float, context_lens: list[int],
                       chunk_tokens: int, link: InterconnectSpec
                       ) -> tuple[float, float]:
        """One priced iteration repriced for the pipeline-stage split.

        Returns ``(cost * stage ratio + boundary handoffs, handoffs)`` in
        µs: the ratio carries whatever cache repricing, fault perturbation
        and jitter ``cost`` already absorbed, while the stage-boundary
        transfers are priced on ``link`` (the serving loop passes the
        possibly fault-degraded link of the moment).
        """
        ratio, boundary = self.pipeline_factors(context_lens, chunk_tokens)
        xfer = sum(pcie_transfer_time_us(b, link) for b in boundary)
        return cost * ratio + xfer, xfer

    def prefill_bucket(self, prompt_tokens: int) -> int:
        """The ``PREFILL_BUCKETS`` entry whose pass prices ``prompt_tokens``."""
        return self._bucket(prompt_tokens, self.PREFILL_BUCKETS)

    def batched_prefill_us(self, total_prompt_tokens: int) -> float:
        """One prefill pass over all co-admitted prompts' tokens."""
        if total_prompt_tokens <= 0:
            raise ConfigError("prefill needs at least one token")
        session = self.session
        bucket = self._bucket(total_prompt_tokens, self.PREFILL_BUCKETS)
        if bucket not in self._prefill:
            self._prefill[bucket] = _prefill_pass_us(
                session.system, session.preset, self.machine, session.dtype,
                self.backend, bucket)
        cost = self._prefill[bucket]
        if total_prompt_tokens > self.PREFILL_BUCKETS[-1]:
            cost *= total_prompt_tokens / self.PREFILL_BUCKETS[-1]
        return cost

    # -- preemption pricing --------------------------------------------------

    def kv_swap_bytes(self, n_tokens: int) -> float:
        """Bytes one swap direction moves for ``n_tokens`` of KV context.

        The per-token unit comes from
        :func:`repro.sched.workload.kv_token_bytes` (MLA latent for
        ``kv_rank > 0`` presets, full K/V otherwise) scaled by the
        preset's layer count -- every layer's cache pages travel.
        """
        preset = self.session.preset
        return n_tokens * kv_token_bytes(preset) * preset.n_layers

    def swap_transfer_us(self, n_tokens: int, link=None) -> float:
        """One-way PCIe time to move ``n_tokens`` of KV context.

        ``link`` defaults to the machine's interconnect; the serving loop
        passes the fault-degraded link active on the serving clock, so a
        chaos window makes swap-preemption dearer exactly when the bus is
        congested (and the auto mechanism shifts toward recompute).
        """
        session = self.session
        if link is None:
            link = self.machine.interconnect
        return kv_swap_transfer_us(
            n_tokens, kv_token_bytes(session.preset),
            session.preset.n_layers, link)

    def recompute_resume_us(self, n_tokens: int) -> float:
        """Estimated cost of re-prefilling ``n_tokens`` of context.

        Recompute-preempted requests resume through the ordinary
        (chunked) prefill scheduler, so the estimate reuses the memoized
        :meth:`batched_prefill_us` -- the same pricing the resumed
        request's monolithic re-prefill would actually pay.
        """
        if n_tokens <= 0:
            return 0.0
        return self.batched_prefill_us(n_tokens)
