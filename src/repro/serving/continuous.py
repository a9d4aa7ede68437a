"""Iteration-level continuous batching over the discrete-event simulator.

:class:`ContinuousBatchingServer` recomposes the running batch at every
decode iteration (Orca-style); with ``BatchSchedulerConfig(
max_batch_size=1)`` it is the paper's batch-1 local deployment, FIFO
with one request in flight.  Every price comes from
:class:`~repro.serving.pricing.BatchCostModel`.  The loop:

- an **admission queue** holds arrived requests; at each iteration
  boundary the scheduler admits as many as fit the KV **token budget**
  (tracked as page reservations against a shared
  :class:`~repro.model.paged.PagedKVPool`) and the batch-size cap;
- newly admitted requests are **prefilled together** in one batched pass
  -- simulated prefill cost is dominated by fixed per-pass overheads, so
  co-admission amortizes it the way real engines batch prompt tokens;
- each **decode iteration** generates one token for every in-flight
  request.  The step is priced by
  :func:`~repro.sched.workload.batched_decode_layer_work`: per-expert
  token counts are aggregated across the batch before ARI kernel
  dispatch, so batching visibly moves the AVX-512/AMX crossover (Fig. 7)
  and CPU expert GEMMs are coalesced per expert;
- finished requests free their KV pages immediately, unblocking the next
  admission.

Prefill is scheduled two ways.  By default it runs as its own batched
pass at the iteration boundary, stalling in-flight decodes for its
duration -- the classic continuous-batching trade reflected in the TPOT
tail.  With ``BatchSchedulerConfig(prefill_chunk_tokens=...)`` the
scheduler instead splits each admitted prompt into fixed token-budget
chunks and co-schedules one chunk per iteration *alongside* the decode
batch (Sarathi-style hybrid iterations), so decodes never stall for a
full prompt.  Mixed iterations are priced at the per-expert token-count
level (:func:`~repro.sched.workload.hybrid_chunk_layer_work`): the
decode batch already streams its active experts' weights from DRAM every
step, so chunk tokens routed to those experts coalesce onto GEMMs that
are running anyway and only the *marginal* expert work is billed --
that piggybacking is what makes chunking affordable under the paper's
weight-streaming-dominated CPU cost model.  A chunk budget at least as
large as every co-admitted fresh prompt degenerates to the monolithic
pass bit-for-bit.

With a :class:`~repro.serving.priority.PriorityConfig` attached, the
admission queue becomes priority-aware: candidates (arrived requests plus
previously preempted ones awaiting resume) are ranked by *effective*
priority -- the request's class improved one step per ``aging_us`` of
waiting, so BATCH work can never be starved permanently -- and when a
higher-class candidate is blocked by the batch cap (the SLO-risk signal)
or by KV-pool pressure, the scheduler may **preempt** the
lowest-effective-priority in-flight victim.  Eviction uses one of two
mechanisms, chosen per victim by a cost model: **swap** moves the
victim's KV pages to host memory over PCIe (priced via
:func:`~repro.sched.decode.kv_swap_transfer_us` on the possibly
fault-degraded link) and re-uploads them on resume; **recompute** frees
the pages outright and re-prefills the victim's context (prompt plus
every token already emitted) through the ordinary chunked-prefill path
when it resumes.  A single-priority workload under a priority config --
or no config at all -- reproduces the FIFO scheduler bit-for-bit:
candidate ranking degenerates to arrival order and no preemption trigger
can fire.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError, KVCacheError
from ..faults.injector import IDENTITY_PERTURBATION, FaultInjector
from ..hw.roofline import overlapped_transfer_stall_us, pcie_transfer_time_us
from ..hw.spec import InterconnectSpec
from ..kernels.backend import KernelBackend
from ..model.paged import PagedKVPool
from ..moe.expert_cache import ExpertCacheConfig, ExpertCacheManager
from ..sched.cuda_graph import GraphCache
from ..sched.kv_offload import kv_page_transfer_us
from .controller import ControllerConfig, ControllerStats, OnlineController
from .metrics import (
    BatchTimeline,
    ExpertCacheTimeline,
    FaultStats,
    GraphStats,
    PipelineStats,
    PreemptionStats,
    RequestTiming,
    ServingStats,
    SessionStats,
)
from .prefix_cache import (
    KVTierConfig,
    MatchProbe,
    PrefixCacheConfig,
    RadixPrefixCache,
)
from .pricing import BatchCostModel, BatchSchedulerConfig, StepShape
from .priority import PriorityConfig
from .resilience import DegradationTracker, ResilienceConfig, RetryState
from .session import InferenceSession
from .traffic import TimedRequest

# Synchronous re-upload attempts the *naive* (no-ResilienceConfig) server
# makes per failed expert upload, each stalling the whole batch for the
# full PCIe transfer on the degraded link.
NAIVE_UPLOAD_ATTEMPTS = 8

# Per-expert token counts of the representative MoE layer for one decode
# iteration; lets benchmarks inject non-stationary routing into the server.
RoutingStream = Callable[[int, int], np.ndarray]   # (iteration, batch) -> counts


def serving_expert_cache(
    session: InferenceSession,
    vram_budget_bytes: float,
    **overrides,
) -> ExpertCacheManager:
    """An :class:`ExpertCacheManager` sized for a session's cost preset.

    The serving cost model prices one representative MoE layer replicated
    across the model, so the serving-side cache covers one layer of the
    preset's experts; ``overrides`` patch any :class:`ExpertCacheConfig`
    policy field (``ewma_alpha``, ``admit_margin``, ...).
    """
    config = ExpertCacheConfig(
        n_layers=1,
        n_experts=session.preset.n_experts,
        expert_bytes=session.preset.expert_bytes(session.dtype),
        vram_budget_bytes=vram_budget_bytes,
        **overrides,
    )
    return ExpertCacheManager(config, session.machine.interconnect)


@dataclass
class _InFlight:
    """Bookkeeping of one admitted request.

    The chunk state machine lives in ``prefilled``: a request holds its
    full KV-page reservation from admission but is only *decodable* once
    ``prefill_target`` tokens are in KV (monolithic mode covers the
    whole prompt in the admission iteration; chunked mode advances
    ``prefilled`` one chunk share at a time).

    Preemption extends the state machine: a preempted request leaves the
    active batch with its page reservation released.  ``swapped`` marks
    the swap mechanism (KV stashed host-side under the old slot id,
    restored on resume); the recompute mechanism instead zeroes
    ``prefilled``/``context_len`` and raises ``prefill_target`` to
    ``prompt_len + emitted`` so the ordinary prefill scheduler rebuilds
    the full context -- prompt plus already-emitted tokens -- on resume.
    ``prefill_target`` equals ``prompt_len`` until a recompute
    preemption, so un-preempted scheduling is bit-identical to before.

    ``shared_tokens`` is the page-aligned prompt prefix served from the
    radix prefix cache at admission: those tokens never enter this
    request's own slot (they live in refcounted cache pages), so the
    slot holds ``context_len - shared_tokens`` tokens and preemption
    swap/recompute sizing works on that difference.  Always 0 without a
    prefix-cache config, keeping the sessionless engine bit-identical.
    """

    timed: TimedRequest
    slot: int
    reserved_pages: int
    target_tokens: int          # tokens to emit (session.output_length)
    start_us: float             # admission time (first prefill work)
    context_len: int            # prefilled + emitted so far
    prompt_len: int
    prefill_target: int = 0     # tokens that must be in KV to decode
    prefilled: int = 0
    emitted: int = 0
    first_token_us: float = field(default=0.0)
    preempt_count: int = 0
    swapped: bool = False       # True while preempted via the swap mechanism
    shared_tokens: int = 0      # prompt tokens pinned in the prefix cache

    @property
    def decodable(self) -> bool:
        """Whether the full context is in KV (request can emit tokens)."""
        return self.prefilled >= self.prefill_target


def _arrived(pending: list[TimedRequest], clock: float) -> int:
    """Count of the arrival-descending ``pending`` stack due by ``clock``."""
    return len(pending) - bisect_left(pending, -clock,
                                      key=lambda t: -t.arrival_us)


class ContinuousBatchingServer:
    """The serving engine: iteration-level batching over one cost model.

    ``replay(workload)`` serves a :class:`TimedRequest` workload and
    returns its :class:`~repro.serving.metrics.ServingStats`; the
    per-iteration batch size, KV occupancy, mid-prefill count and
    co-scheduled chunk size are additionally recorded on :attr:`timeline`.
    ``BatchSchedulerConfig(max_batch_size=1)`` serves the paper's batch-1
    local deployment: FIFO, each request's prefill pass then its decode
    steps, the next request queueing until the previous one finishes.

    With ``BatchSchedulerConfig(prefill_chunk_tokens=...)`` prompts
    prefill in per-iteration chunks co-scheduled with the decode batch
    (hybrid iterations priced via
    ``BatchCostModel.decode_step_us(context_lens, chunk_tokens=...)``);
    partially-prefilled requests hold their full KV reservation but emit
    nothing until the last chunk lands, and the decode timeout sheds
    them like runaway decodes.

    With a ``fault_injector`` attached, every decode iteration is priced
    under the perturbation active on the serving clock and planned expert
    uploads can fail in transit.  Without a ``resilience`` policy the
    server is the *naive* arm: it re-uploads failed experts synchronously
    (:data:`NAIVE_UPLOAD_ATTEMPTS` blocking transfers stalling the whole
    batch) and never sheds load.  With a :class:`ResilienceConfig` it
    retries off the critical path with capped exponential backoff, sheds
    queue/decode-timeout violators, and degrades to cache-bypass (all
    experts priced on the CPU) when failures persist; everything is
    surfaced on ``stats.faults``.

    With a ``priorities`` :class:`~repro.serving.priority.PriorityConfig`
    the admission queue is ranked by aged effective priority and blocked
    high-class candidates may preempt the worst in-flight victim via
    swap or recompute (see the module docstring); preemption counters
    land on ``stats.preemptions`` and per-class latency breakdowns in
    ``stats.summary()``.  Preempted requests remain subject to the
    resilience policy's decode timeout while parked, so preemption and
    shedding compose: a victim that cannot resume in time is shed with
    its pages already released (freed exactly once).

    With a ``prefix_cache`` :class:`~repro.serving.prefix_cache.
    PrefixCacheConfig` the server becomes session-aware: admission
    probes a page-granular radix tree of previously served prompts,
    pins the longest cached prefix by reference, and reserves/prefills
    only the fresh suffix -- multi-turn conversations skip re-prefilling
    their history, composing with chunked prefill (the suffix chunks
    like any prompt), priorities (preemption sizes swap/recompute on
    the slot-resident suffix; the pinned prefix survives eviction), and
    faults (tier transfers price on the degraded link).  A ``kv_tier``
    :class:`~repro.serving.prefix_cache.KVTierConfig` adds the host-DRAM
    layer: idle sessions' cached pages park off-GPU (off the critical
    path) and swap back in on -- or, with prefetch, *ahead of* -- the
    session's next turn, with the think-time EWMA predicting when.
    Reuse/tier counters land on ``stats.sessions`` and the timeline;
    ``prefix_cache=None`` (the default) is bit-identical to the
    sessionless engine.

    With a ``controller`` :class:`~repro.serving.controller.
    ControllerConfig` the engine self-tunes: an
    :class:`~repro.serving.controller.OnlineController` observes
    windowed signals at every iteration boundary and adapts
    ``prefill_chunk_tokens`` / ``max_batch_size`` at runtime via
    bounded hill-climbing with guarded rollback (see the controller
    module docstring).  Knob moves install a replacement frozen config
    between iterations, so every pricing memo stays valid; decision
    counters land on ``stats.controller`` and ``controller=None`` (the
    default) is bit-identical to the static-config engine.
    """

    def __init__(self, session: InferenceSession,
                 config: BatchSchedulerConfig | None = None,
                 expert_cache: ExpertCacheManager | None = None,
                 routing_stream: Optional[RoutingStream] = None,
                 fault_injector: FaultInjector | None = None,
                 resilience: ResilienceConfig | None = None,
                 priorities: PriorityConfig | None = None,
                 prefix_cache: PrefixCacheConfig | None = None,
                 kv_tier: KVTierConfig | None = None,
                 controller: ControllerConfig | None = None) -> None:
        self.session = session
        self.config = config or BatchSchedulerConfig()
        self.priorities = priorities
        self.costs = self._make_costs()
        # The pool tracks token occupancy only; K/V payloads stay tiny.
        self.pool = PagedKVPool(
            n_heads=1, head_dim=1,
            budget_tokens=self.config.kv_budget_tokens,
            page_tokens=self.config.page_tokens,
        )
        self.expert_cache = expert_cache
        self._routing_stream = routing_stream
        if routing_stream is not None and expert_cache is None:
            raise ConfigError("routing_stream requires an expert_cache")
        self.stats = ServingStats()
        self.timeline = BatchTimeline(
            kv_budget_tokens=self.pool.budget_tokens)
        self.cache_timeline: ExpertCacheTimeline | None = None
        if expert_cache is not None:
            self.cache_timeline = ExpertCacheTimeline()
            self.stats.expert_cache = self.cache_timeline
        self.fault_injector = fault_injector
        self.resilience = resilience
        self.fault_stats = FaultStats()
        if fault_injector is not None or resilience is not None:
            self.stats.faults = self.fault_stats
        self._degradation: DegradationTracker | None = None
        if (resilience is not None and fault_injector is not None
                and expert_cache is not None):
            self._degradation = DegradationTracker(resilience)
        self._retries: list[RetryState] = []
        self._reserved_pages = 0
        self._iteration = 0
        self.preempt_stats = PreemptionStats()
        if priorities is not None:
            self.stats.preemptions = self.preempt_stats
        self._preempted: list[_InFlight] = []
        self._preempt_stall_us = 0.0
        self.graph_cache: GraphCache | None = self._make_graph_cache()
        self.graph_stats: GraphStats | None = None
        if (self.config.graph_cache is not None
                or self.config.gemm_dispatch != "legacy"):
            # Attached only when a graph/dispatch feature is on, so legacy
            # configs keep their summaries (and goldens) unchanged.
            self.graph_stats = GraphStats()
            self.stats.graphs = self.graph_stats
        self.pipeline_stats: PipelineStats | None = None
        if self.config.pipeline_stages > 1:
            # Attached only when the layer stack is actually sharded, so
            # single-stage configs keep their summaries (and goldens)
            # unchanged.
            self.pipeline_stats = PipelineStats(
                n_stages=self.config.pipeline_stages)
            self.stats.pipeline = self.pipeline_stats
        if kv_tier is not None and prefix_cache is None:
            raise ConfigError("kv_tier requires a prefix_cache config")
        self.kv_tier = kv_tier
        self.prefix_cache: RadixPrefixCache | None = None
        self.session_stats: SessionStats | None = None
        if prefix_cache is not None:
            self.prefix_cache = RadixPrefixCache(self.pool, prefix_cache,
                                                 kv_tier)
            # Attached only when the prefix cache is on, so sessionless
            # configs keep their summaries (and goldens) unchanged.
            self.session_stats = SessionStats()
            self.stats.sessions = self.session_stats
        self._tier_stall_us = 0.0
        # Per-session think-time EWMA state for ahead-of-turn swap-in.
        self._session_last_finish: dict[str, float] = {}
        self._session_think: dict[str, float] = {}
        self._predicted_next: dict[str, float] = {}
        self._controller: OnlineController | None = None
        self.controller_stats: ControllerStats | None = None
        if controller is not None:
            # Attached only when the control plane is on, so static
            # configs keep their summaries (and goldens) unchanged.
            self.controller_stats = ControllerStats()
            self.stats.controller = self.controller_stats
            self._controller = OnlineController(
                controller,
                base_chunk=self.config.prefill_chunk_tokens,
                base_batch=self.config.max_batch_size,
                stats=self.controller_stats)

    # -- kernel backend ------------------------------------------------------

    def _make_costs(self) -> BatchCostModel:
        """The step cost model for the config's pricing knobs."""
        return BatchCostModel(
            self.session,
            ari_threshold=self.config.ari_threshold,
            gemm_dispatch=self.config.gemm_dispatch,
            pipeline_stages=self.config.pipeline_stages,
            backend=self.config.backend)

    def _make_graph_cache(self) -> GraphCache | None:
        """The capture cache under the active backend's launch constants.

        Capture pricing sees the cost model's (launch-adjusted) machine,
        plus the backend's ``graph_instantiation_us`` override when it
        carries one; ``graph_cache=None`` configs price replay as free,
        exactly as before.
        """
        if self.config.graph_cache is None:
            return None
        graph_config = self.config.graph_cache
        backend = self.costs.backend
        if (backend is not None
                and backend.launch.graph_instantiation_us is not None):
            graph_config = replace(
                graph_config,
                instantiation_us=backend.launch.graph_instantiation_us)
        return GraphCache(graph_config, self.costs.machine)

    def rebind_backend(self, backend: "str | KernelBackend | None") -> None:
        """Re-point a *fresh* server's pricing at another kernel backend.

        Replica factories are zero-argument (:class:`~repro.serving.
        fleet.FleetRouter` calls them once per replica epoch), so
        mixed-hardware fleets bind each replica's backend by rebuilding
        the cost model and graph cache on the just-created server.
        Refuses once any request has been served: pricing memos must
        never mix backends.
        """
        if self._iteration or self.stats.timings or self.stats.shed:
            raise ConfigError(
                "rebind_backend requires a fresh server (no served work)")
        self.config = replace(self.config, backend=backend)
        self.costs = self._make_costs()
        self.graph_cache = self._make_graph_cache()

    # -- admission ----------------------------------------------------------

    def _request_pages(self, timed: TimedRequest, shared: int = 0) -> int:
        prompt_len = len(np.atleast_1d(timed.request.prompt))
        return self.pool.pages_needed(
            prompt_len + timed.request.max_new_tokens - shared)

    def _pages_in_use(self) -> int:
        """Pages committed right now: request reservations + cache pages.

        Admission must leave room for both -- the radix cache's
        GPU-resident pages live in the same pool as request slots.
        Zero cache term without a prefix cache, so the sessionless
        budget check is unchanged.
        """
        cached = (self.prefix_cache.gpu_pages
                  if self.prefix_cache is not None else 0)
        return self._reserved_pages + cached

    def _prompt_tuple(self, timed: TimedRequest) -> tuple:
        """The request's prompt as the radix cache's token-tuple key."""
        return tuple(int(t) for t in np.atleast_1d(timed.request.prompt))

    def _effective(self, timed: TimedRequest, clock: float) -> int:
        """The candidate's aged priority class (0 when priorities are off)."""
        if self.priorities is None:
            return 0
        return self.priorities.effective_priority(
            int(timed.priority), timed.arrival_us, clock)

    def _next_candidate(self, pending: list[TimedRequest], clock: float):
        """Highest-ranked admission candidate, or ``None``.

        Candidates are previously preempted requests awaiting resume plus
        arrived queue entries, ranked by
        ``(effective priority, arrival, resume-before-new)``; ties keep
        the FIFO pop order, so a single priority class degenerates to
        strict arrival order.  Returns ``("resume", _InFlight)`` or
        ``("new", index into pending)``.
        """
        best = None
        best_key = None
        for a in self._preempted:
            key = (self._effective(a.timed, clock), a.timed.arrival_us, 0)
            if best_key is None or key < best_key:
                best_key, best = key, ("resume", a)
        for idx in range(len(pending) - 1, -1, -1):
            timed = pending[idx]
            if timed.arrival_us > clock:
                break
            key = (self._effective(timed, clock), timed.arrival_us, 1)
            if best_key is None or key < best_key:
                best_key, best = key, ("new", idx)
            if self.priorities is None:
                break           # FIFO: only the queue head is a candidate
        return best

    def _make_room(self, active: list[_InFlight], timed: TimedRequest,
                   clock: float, pages_needed: int) -> bool:
        """Try to free capacity for a blocked candidate by preempting.

        The victim is the in-flight request with the *worst* effective
        priority -- strictly worse than the candidate's, so same-class
        traffic never preempts itself (the bit-identity guarantee) and an
        aged BATCH request stops being evictable by fresh INTERACTIVE
        arrivals.  Victims below ``max_preemptions`` evictions only;
        latest-started wins ties (least work in flight to redo).  When
        the candidate is blocked on KV pages (``pages_needed > 0``) a
        feasibility precheck ensures the eligible victims can actually
        cover the deficit before any eviction happens, so preemptions are
        never wasted.  Returns whether a victim was evicted.
        """
        if self.priorities is None or not self.priorities.preemption:
            return False
        cand_eff = self._effective(timed, clock)
        eligible = [
            a for a in active
            if a.preempt_count < self.priorities.max_preemptions
            and self._effective(a.timed, clock) > cand_eff
        ]
        if not eligible:
            return False
        if pages_needed:
            freeable = sum(a.reserved_pages for a in eligible)
            if (self._pages_in_use() - freeable + pages_needed
                    > self.pool.budget_pages):
                return False
        victim = max(eligible, key=lambda a: (
            self._effective(a.timed, clock), a.start_us, a.slot))
        self._preempt(victim, clock)
        active[:] = [a for a in active if a is not victim]
        return True

    def _choose_mechanism(self, victim: _InFlight, clock: float) -> str:
        """Swap vs recompute for this victim, per config and cost model.

        ``auto`` compares the round-trip PCIe cost of moving the victim's
        KV context out and back (on the link active *now* -- degraded
        links tilt toward recompute) against the estimated cost of
        re-prefilling the full context on resume, and picks the cheaper.
        """
        mech = self.priorities.mechanism
        if mech != "auto":
            return mech
        slot_tokens = victim.context_len - victim.shared_tokens
        if slot_tokens == 0:
            return "recompute"      # nothing in this slot: freeing is free
        swap_us = 2.0 * self.costs.swap_transfer_us(
            slot_tokens, self._link_at(clock))
        rec_us = self.costs.recompute_resume_us(
            victim.prompt_len + victim.emitted - victim.shared_tokens)
        return "swap" if swap_us <= rec_us else "recompute"

    def _link_at(self, clock: float) -> InterconnectSpec:
        """The (possibly fault-degraded) PCIe link on the serving clock."""
        link = self.costs.machine.interconnect
        if self.fault_injector is None:
            return link
        pert = self.fault_injector.perturbation_at(clock, self._iteration)
        return pert.degrade_link(link)

    def _preempt(self, victim: _InFlight, clock: float) -> None:
        """Evict one in-flight request, releasing its KV reservation.

        Swap stashes the victim's pages host-side (both transfer legs
        stall the serving clock via ``_preempt_stall_us``); recompute
        frees them and rewinds the prefill state machine so the full
        context re-prefills on resume.  Either way the reservation
        returns to the admission budget immediately.
        """
        self.preempt_stats.preemptions += 1
        victim.preempt_count += 1
        mechanism = self._choose_mechanism(victim, clock)
        if mechanism == "swap":
            n_tokens = self.pool.swap_out(victim.slot)
            victim.swapped = True
            stall = self.costs.swap_transfer_us(n_tokens,
                                                self._link_at(clock))
            self.preempt_stats.swaps += 1
            self.preempt_stats.swap_out_bytes += self.costs.kv_swap_bytes(
                n_tokens)
            self.preempt_stats.swap_stall_us += stall
            self._preempt_stall_us += stall
        else:
            self.pool.free(victim.slot)
            victim.swapped = False
            self.preempt_stats.recomputes += 1
            # Only the slot-resident suffix is discarded: the shared
            # prefix stays pinned in the cache across the preemption,
            # so resume re-prefills from shared_tokens, not zero.
            self.preempt_stats.recompute_tokens += (
                victim.context_len - victim.shared_tokens)
            victim.prefill_target = victim.prompt_len + victim.emitted
            victim.prefilled = victim.shared_tokens
            victim.context_len = victim.shared_tokens
        self._reserved_pages -= victim.reserved_pages
        self._preempted.append(victim)

    def _resume(self, a: _InFlight, clock: float) -> None:
        """Bring a preempted request back into the active batch.

        Swapped victims re-upload their stashed KV into fresh pages (the
        second transfer leg, priced on the link active now); recompute
        victims just reopen an empty slot -- their context rebuilds
        through the ordinary prefill scheduler.  The page reservation is
        re-taken in full, so mid-flight growth stays safe exactly as for
        a fresh admission.
        """
        self._preempted = [p for p in self._preempted if p is not a]
        if a.swapped:
            n_tokens = a.context_len - a.shared_tokens
            a.slot = self.pool.swap_in(a.slot)
            a.swapped = False
            stall = self.costs.swap_transfer_us(n_tokens,
                                                self._link_at(clock))
            self.preempt_stats.swap_in_bytes += self.costs.kv_swap_bytes(
                n_tokens)
            self.preempt_stats.swap_stall_us += stall
            self._preempt_stall_us += stall
        else:
            a.slot = self.pool.allocate()
        self._reserved_pages += a.reserved_pages
        self.preempt_stats.resumes += 1

    def _admit(self, pending: list[TimedRequest], active: list[_InFlight],
               clock: float) -> None:
        """Admit/resume candidates that fit the budget and batch cap.

        Candidates are taken in effective-priority order (strict arrival
        order without a priority config) with head-of-line blocking: the
        first candidate that cannot be placed -- even after any permitted
        preemptions -- stops admission, which combined with aging
        guarantees no class waits forever.  Admission appends to
        ``active`` in candidate order, preserving the FIFO scheduler's
        exact behaviour for single-class traffic.
        """
        while True:
            cand = self._next_candidate(pending, clock)
            if cand is None:
                return
            kind, ref = cand
            timed = ref.timed if kind == "resume" else pending[ref]
            while len(active) >= self.config.max_batch_size:
                if not self._make_room(active, timed, clock, pages_needed=0):
                    return
            need = (ref.reserved_pages if kind == "resume"
                    else self._request_pages(timed))
            if kind == "new" and need > self.pool.budget_pages:
                raise KVCacheError(
                    f"request needs {need} KV pages but the pool budget is "
                    f"{self.pool.budget_pages}; raise kv_budget_tokens"
                )
            # Longest-prefix probe: cached pages shrink the reservation
            # to the fresh suffix, host-parked pages add unpark pages.
            probe = MatchProbe(0, 0)
            if kind == "new" and self.prefix_cache is not None:
                probe = self.prefix_cache.probe(self._prompt_tuple(timed))
                if probe.matched_tokens:
                    need = self._request_pages(timed, probe.matched_tokens)
            extra = self.pool.pages_needed(probe.unpark_tokens)
            while self._pages_in_use() + need + extra > self.pool.budget_pages:
                deficit = (self._pages_in_use() + need + extra
                           - self.pool.budget_pages)
                if (self.prefix_cache is not None
                        and self.prefix_cache.evict_pages(
                            deficit, clock, protect=probe.nodes) > 0):
                    continue
                if self._make_room(active, timed, clock,
                                   pages_needed=need + extra):
                    continue
                if probe.matched_tokens:
                    # Reuse itself is what blocks placement (the pinned
                    # prefix plus the suffix exceed what preemption can
                    # free): fall back to a no-reuse admission.
                    probe = MatchProbe(0, 0)
                    need = self._request_pages(timed)
                    extra = 0
                    continue
                return
            if kind == "resume":
                self._resume(ref, clock)
                active.append(ref)
                continue
            del pending[ref]
            prompt = np.atleast_1d(np.asarray(timed.request.prompt))
            matched = 0
            if probe.matched_tokens:
                matched, unparked = self.prefix_cache.acquire(
                    self._prompt_tuple(timed), clock)
                if unparked:
                    self._tier_swap_in(timed, unparked, clock)
            self._observe_session(timed, clock)
            if self.session_stats is not None:
                self.session_stats.prompt_tokens_total += len(prompt)
                if matched:
                    self.session_stats.prefix_hits += 1
                    self.session_stats.prefill_tokens_avoided += matched
                else:
                    self.session_stats.prefix_misses += 1
            slot = self.pool.allocate()
            self._reserved_pages += need
            # KV pages fill as prefill progresses: the monolithic pass
            # appends the whole prompt in the admission iteration, the
            # chunked scheduler one chunk share at a time.  A cached
            # prefix counts as already prefilled -- its pages are live
            # cache references, so only the suffix enters this slot.
            active.append(_InFlight(
                timed=timed, slot=slot, reserved_pages=need,
                target_tokens=self.session.output_length(timed.request),
                start_us=clock, context_len=matched, prompt_len=len(prompt),
                prefill_target=len(prompt),
                prefilled=matched, shared_tokens=matched,
            ))

    # -- session tier: swap-in pricing, prediction, release ------------------

    def _tier_swap_in(self, timed: TimedRequest, unparked: int,
                      clock: float) -> None:
        """Price the swap-in of ``unparked`` host-parked prefix tokens.

        The transfer crosses the (possibly fault-degraded) PCIe link at
        :func:`~repro.sched.kv_offload.kv_page_transfer_us` pricing.
        With prefetch on and a think-time prediction for the session,
        the transfer is modelled as launched ahead of the predicted
        turn (never before the session's previous turn finished), so an
        accurate prediction hides the transfer entirely -- only the
        non-hidden remainder stalls the serving clock, accumulated in
        ``_tier_stall_us`` exactly like preemption swap traffic.  A turn
        arriving *before* the scheduled prefetch launch degrades to an
        on-demand swap-in starting now, never a wait for the schedule.
        """
        xfer = kv_page_transfer_us(self.session.preset, unparked,
                                   self._link_at(clock))
        sid = timed.session_id
        if (self.kv_tier is not None and self.kv_tier.prefetch
                and sid is not None and sid in self._predicted_next):
            start = max(self._session_last_finish.get(sid, 0.0),
                        self._predicted_next[sid] - xfer)
            start = min(start, clock)
        else:
            start = clock
        stall = max(0.0, start + xfer - clock)
        ss = self.session_stats
        if stall == 0.0:
            ss.prefetch_hits += 1
        ss.swap_in_stall_us += stall
        self._tier_stall_us += stall

    def _observe_session(self, timed: TimedRequest, clock: float) -> None:
        """Update the session's think-time EWMA from this turn's arrival."""
        sid = timed.session_id
        if sid is None or self.kv_tier is None:
            return
        last = self._session_last_finish.get(sid)
        if last is None:
            return
        think = max(0.0, timed.arrival_us - last)
        prev = self._session_think.get(sid)
        alpha = self.kv_tier.think_ewma_alpha
        self._session_think[sid] = (
            think if prev is None else alpha * think + (1 - alpha) * prev)

    def _predict_next_turn(self, a: _InFlight, clock: float) -> None:
        """At turn finish, predict the session's next arrival (if any EWMA)."""
        sid = a.timed.session_id
        if sid is None or self.kv_tier is None:
            return
        self._session_last_finish[sid] = clock
        think = self._session_think.get(sid)
        if think is not None:
            self._predicted_next[sid] = clock + think

    def _release_prefix(self, a: _InFlight, clock: float,
                        insert: bool) -> None:
        """Insert the finished prompt into the cache, then drop its pins.

        Insert runs first (``insert=False`` for shed/timed-out requests)
        so the request's own references protect its shared prefix while
        the insert makes room; the new node may claim at most the pages
        left over after every live reservation and the cache's current
        footprint.
        """
        if self.prefix_cache is None:
            return
        prompt = self._prompt_tuple(a.timed)
        if insert:
            headroom = (self.pool.budget_pages - self._reserved_pages
                        - self.prefix_cache.gpu_pages)
            self.prefix_cache.insert(prompt, clock,
                                     max_new_pages=max(0, headroom))
        if a.shared_tokens:
            self.prefix_cache.release(prompt, a.shared_tokens, clock)

    def _sync_session_stats(self) -> None:
        """Mirror the cache's cumulative counters into the run stats."""
        ss = self.session_stats
        c = self.prefix_cache
        ss.inserted_tokens = c.inserted_tokens
        ss.evicted_tokens = c.evicted_tokens
        ss.parked_tokens = c.parked_tokens
        ss.unparked_tokens = c.unparked_tokens
        ss.dropped_host_tokens = c.dropped_host_tokens
        # Park (swap-out) runs off the critical path; only swap-in ever
        # stalls the clock.  Bytes are priced at the preemption-swap
        # unit, so tier and preemption traffic are directly comparable.
        ss.swap_out_bytes = self.costs.kv_swap_bytes(c.parked_tokens)
        ss.swap_in_bytes = self.costs.kv_swap_bytes(c.unparked_tokens)
        ss.peak_host_tokens = max(ss.peak_host_tokens, c.host_tokens)
        ss.peak_gpu_cached_tokens = max(ss.peak_gpu_cached_tokens,
                                        c.gpu_tokens)

    # -- serving loop -------------------------------------------------------

    def replay(self, workload: list[TimedRequest]) -> ServingStats:
        """Serve a workload with continuous batching; returns aggregate stats."""
        if not workload:
            raise ConfigError("empty workload")
        # Stack with the earliest arrival on top (pop from the end).
        pending = sorted(workload, key=lambda t: -t.arrival_us)
        active: list[_InFlight] = []
        clock = 0.0

        decode_timeout = (self.resilience.decode_timeout_us
                          if self.resilience is not None else None)
        while pending or active or self._preempted:
            self._shed_stale(pending, clock)
            if decode_timeout is not None and self._preempted:
                # Preempted requests age against the same decode deadline
                # as running ones (measured from first admission): a
                # victim parked past the timeout is shed, not resumed.
                self._shed_stalled_preempted(clock, decode_timeout)
            if not pending and not active and not self._preempted:
                break
            self._admit(pending, active, clock)
            # Swap-out/swap-in PCIe traffic from this admission round
            # stalls the serving clock before any prefill/decode work.
            if self._preempt_stall_us:
                clock += self._preempt_stall_us
                self._preempt_stall_us = 0.0
            # Host-tier swap-in traffic from this admission round stalls
            # the clock too (only the prefetch-unhidden remainder).
            if self._tier_stall_us:
                clock += self._tier_stall_us
                self._tier_stall_us = 0.0
            if self.kv_tier is not None:
                # Parking runs off the critical path: idle sessions'
                # pages drain to host DRAM without stalling the clock.
                self.prefix_cache.park_idle(clock)
            if not active:
                blocked = ((pending and pending[-1].arrival_us <= clock)
                           or (not pending and self._preempted))
                if blocked:
                    # Nothing in flight, yet the best candidate could
                    # not be placed: only prefix-cache pages can be in
                    # the way.  Drain the cache and retry; a candidate
                    # blocked even then can never be placed.
                    if (self.prefix_cache is not None
                            and self.prefix_cache.evict_pages(
                                self.pool.budget_pages, clock) > 0):
                        continue
                    raise KVCacheError(
                        "admission deadlock: prefix pages pinned by "
                        "preempted requests exceed the KV budget")
                if not pending:
                    break
                # Nothing in flight and nothing admissible: jump to the
                # next arrival (the budget check above guarantees any
                # single request fits an empty pool).
                clock = pending[-1].arrival_us
                continue
            if decode_timeout is not None:
                # Load shedding for requests stuck mid-prefill: they hold
                # KV pages without emitting, so a stalled prefill can
                # starve admission exactly like a runaway decode.
                active = self._shed_stalled_prefills(active, clock,
                                                     decode_timeout)
                if not active:
                    continue

            prefill_us, chunk_tokens, assignments = self._plan_prefill(active)
            clock += prefill_us
            decoding = [a for a in active if a.decodable]

            # One iteration: every decodable request emits a token, and
            # (in chunked mode) up to chunk_tokens prompt tokens prefill
            # alongside.  Requests completing prefill via a chunk become
            # decodable next iteration; the monolithic pass above already
            # marked its requests decodable this iteration.
            step_us, capture_us = self._decode_step_us(
                [a.context_len for a in decoding], clock,
                chunk_tokens=chunk_tokens)
            clock += step_us
            self._iteration += 1
            for a, share in assignments:
                self.pool.append_placeholder(a.slot, share)
                a.prefilled += share
                a.context_len += share
            finished: set[int] = set()
            for a in decoding:
                a.emitted += 1
                a.context_len += 1
                self.pool.append_placeholder(a.slot, 1)
                if a.emitted == 1:
                    a.first_token_us = clock
                if a.emitted >= a.target_tokens:
                    self._finish(a, clock)
                    finished.add(id(a))
                elif (decode_timeout is not None
                      and clock - a.start_us > decode_timeout):
                    # Load shedding: cut off a request decoding past its
                    # deadline; its pages free immediately for admission.
                    self.fault_stats.timed_out_requests += 1
                    self._finish(a, clock, timed_out=True)
                    finished.add(id(a))
            self.timeline.record(
                clock, batch_size=len(active),
                kv_used_tokens=self.pool.used_tokens,
                n_prefilling=sum(1 for a in active if not a.decodable),
                chunk_tokens=chunk_tokens,
                n_preempted=len(self._preempted),
                graph_capture_us=capture_us,
                prefix_cached_tokens=(self.prefix_cache.gpu_tokens
                                      if self.prefix_cache is not None
                                      else 0),
                host_parked_tokens=(self.prefix_cache.host_tokens
                                    if self.prefix_cache is not None
                                    else 0))
            if self.session_stats is not None:
                self._sync_session_stats()
            if finished:
                active = [a for a in active if id(a) not in finished]
            if self._controller is not None:
                # Live knob mutation at the iteration boundary: the
                # controller observes this iteration's signals; any
                # returned override installs a validated replacement
                # config that the next iteration's planning reads.
                moves = self._controller.tick(
                    clock, self.stats, queue_depth=_arrived(pending, clock))
                if moves:
                    self.config = replace(self.config, **moves)
        if self.session_stats is not None:
            self._sync_session_stats()
        return self.stats

    def _chunk_budget(self, n_decoding: int) -> float:
        """This iteration's prefill token budget under the chunk policy."""
        budget = self.config.prefill_chunk_tokens
        if budget is None:
            return float("inf")     # monolithic: always fully covered
        if self.config.chunk_policy == "decode-priority":
            # Each decoding request's token counts against the shared
            # iteration budget first; prefill gets the remainder.  When
            # nothing is decodable the full budget applies, so prefill
            # always makes progress.
            return max(budget - n_decoding, 0)
        return budget

    def _plan_prefill(
        self, active: list[_InFlight],
    ) -> tuple[float, int, list[tuple[_InFlight, int]]]:
        """Plan this iteration's prefill work over the active requests.

        Returns ``(monolithic_pass_us, chunk_tokens, assignments)``.  A
        *fresh* prefill queue (no request mid-prefill) whose total
        remaining tokens fit the chunk budget runs as one monolithic
        batched pass -- the un-chunked scheduler's exact path, requests
        decodable this same iteration.  Otherwise prompt tokens are
        assigned FIFO (oldest admission first) up to the budget and the
        chunk is co-scheduled with the decode batch.
        """
        prefilling = [a for a in active if not a.decodable]
        if not prefilling:
            return 0.0, 0, []
        budget = self._chunk_budget(len(active) - len(prefilling))
        remaining = sum(a.prefill_target - a.prefilled for a in prefilling)
        if (budget >= remaining
                and all(a.prefilled == a.shared_tokens for a in prefilling)):
            # Fresh queue (nothing mid-chunk; cached prefixes count as
            # already prefilled): one monolithic pass over the fresh
            # suffixes only -- reuse composes with chunked prefill by
            # shrinking `remaining` on both paths identically.
            for a in prefilling:
                self.pool.append_placeholder(a.slot,
                                             a.prefill_target - a.prefilled)
                a.prefilled = a.prefill_target
                a.context_len = a.prefill_target
            return self.costs.batched_prefill_us(remaining), 0, []
        assignments: list[tuple[_InFlight, int]] = []
        left = budget
        for a in prefilling:
            if left <= 0:
                break
            share = int(min(a.prefill_target - a.prefilled, left))
            assignments.append((a, share))
            left -= share
        return 0.0, sum(share for _, share in assignments), assignments

    def _shed_stalled_prefills(self, active: list[_InFlight], clock: float,
                               timeout: float) -> list[_InFlight]:
        """Shed mid-prefill requests older than the decode timeout.

        A shed request emitted nothing: its timing records zero generated
        tokens with ``first_token_us`` pinned to the shed time, and its
        KV pages (including already-prefilled chunks) free immediately.
        Never fires under the monolithic scheduler -- prefill completes
        in the admission iteration there.
        """
        kept: list[_InFlight] = []
        for a in active:
            if not a.decodable and clock - a.start_us > timeout:
                self.fault_stats.timed_out_requests += 1
                a.first_token_us = clock
                self._finish(a, clock, timed_out=True)
            else:
                kept.append(a)
        return kept

    def _shed_stale(self, pending: list[TimedRequest], clock: float) -> None:
        """Shed queued requests whose wait exceeds the queue timeout.

        The timeout applies in arrival order regardless of priority
        class; each shed arrival is recorded on the stats so the goodput
        accounting window still covers it.
        """
        if self.resilience is None or self.resilience.queue_timeout_us is None:
            return
        timeout = self.resilience.queue_timeout_us
        while pending and clock - pending[-1].arrival_us > timeout:
            timed = pending.pop()
            self.fault_stats.shed_requests += 1
            self.stats.record_shed(timed.arrival_us, int(timed.priority))

    def _shed_stalled_preempted(self, clock: float, timeout: float) -> None:
        """Shed preempted requests parked past the decode timeout.

        A preempted request holds no KV pages, but its host-side swap
        stash (if any) is discarded and its timing recorded as timed out
        -- tokens emitted before the preemption stay counted, and
        ``first_token_us`` pins to the shed time when nothing was ever
        emitted.  Pages were already released at preemption, so nothing
        is freed here (freed-exactly-once).
        """
        kept: list[_InFlight] = []
        for a in self._preempted:
            if clock - a.start_us > timeout:
                self.fault_stats.timed_out_requests += 1
                self.preempt_stats.shed_while_preempted += 1
                if a.swapped:
                    self.pool.discard_swapped(a.slot)
                self._release_prefix(a, clock, insert=False)
                if a.emitted == 0:
                    a.first_token_us = clock
                self._record_timing(a, clock, timed_out=True)
            else:
                kept.append(a)
        self._preempted = kept

    def _decode_step_us(self, context_lens: list[int], clock: float,
                        chunk_tokens: int = 0) -> tuple[float, float]:
        """Price one iteration; returns ``(cost, capture stall in it)``.

        Without a graph cache this is exactly :meth:`_priced_step_us`
        (pipelined) with no capture.  With one, the decode batch first
        pads up to its capture bucket (padding slots run real kernels, so
        the padded batch's full step cost is charged -- priced honestly),
        the step is priced, and then the graph for the step's
        :class:`StepShape` is looked up: a cold shape pays a capture stall
        on top of the step cost (visible in TTFT/TPOT), a warm one
        replays for free.  Fault perturbations stretch task *durations*,
        not the kernel topology, so they are not part of the shape -- a
        perturbed step replays the same graph.
        """
        if self.graph_cache is None:
            cost, _ = self._priced_step_us(context_lens, clock, chunk_tokens)
            return (self._apply_pipeline(cost, context_lens, chunk_tokens,
                                         clock), 0.0)
        padded = list(context_lens)
        if padded:
            bucket = self.graph_cache.config.batch_bucket(len(padded))
            pad = bucket - len(padded)
            if pad:
                padded.extend([max(padded)] * pad)
                self.graph_stats.padding_tokens += pad
        cost, shape = self._priced_step_us(padded, clock, chunk_tokens)
        cost = self._apply_pipeline(cost, padded, chunk_tokens, clock)
        look = self.graph_cache.lookup(
            shape, self.costs.step_kernel_count(shape))
        self.graph_stats.captures = self.graph_cache.captures
        self.graph_stats.replays = self.graph_cache.replays
        self.graph_stats.evictions = self.graph_cache.evictions
        if look.captured:
            self.graph_stats.capture_stall_us += look.capture_us
        return cost + look.capture_us, look.capture_us

    def _apply_pipeline(self, cost: float, context_lens: list[int],
                        chunk_tokens: int, clock: float) -> float:
        """Reprice one iteration for the pipeline-stage split.

        ``cost * stage ratio + boundary handoffs``: the ratio carries
        whatever cache repricing, fault perturbation, and jitter the
        priced cost already absorbed (they scale the whole step), while
        the stage-boundary activation transfers are priced fresh on the
        clock's possibly fault-degraded link.  The graph caller applies
        this *before* any capture stall -- capture is a one-off host-side
        cost the stage overlap cannot hide or divide.  A no-op (returns
        ``cost`` untouched) for single-stage configs.
        """
        if self.pipeline_stats is None:
            return cost
        if not context_lens and not chunk_tokens:
            return cost
        ratio, boundary = self.costs.pipeline_factors(context_lens,
                                                      chunk_tokens)
        link = self._link_at(clock)
        xfer = sum(pcie_transfer_time_us(b, link) for b in boundary)
        staged = cost * ratio + xfer
        ps = self.pipeline_stats
        ps.staged_iterations += 1
        ps.serial_us += cost
        ps.staged_us += staged
        ps.interstage_transfer_us += xfer
        return staged

    def _priced_step_us(self, context_lens: list[int], clock: float,
                        chunk_tokens: int = 0) -> tuple[float, StepShape]:
        """Price one iteration, consulting the expert cache if any.

        Returns the cost and the iteration's :class:`StepShape` -- the
        graph-cache key and kernel count derive from it.
        ``chunk_tokens > 0`` marks a hybrid iteration: the chunk's
        marginal expert work rides on top of the decode batch's pricing
        below.  An empty ``context_lens`` (chunk-only iteration: nothing
        decodable yet) skips every cache interaction -- prefill streams
        each active expert from DRAM regardless of GPU residency, so the
        cache neither observes routing nor uploads -- and records a
        zero-activity cache point to keep the timelines aligned.

        With a cache attached, the iteration's per-expert token counts
        (from the injected routing stream, or the cost model's dispatch
        summary) update the EWMA residency state; hits are priced as GPU
        expert work, misses stay on the CPU, and planned uploads prefetch
        behind the attention window with only the non-overlapped
        remainder stalling the step.

        With a fault injector attached, the whole iteration is priced
        under the perturbation active at ``clock`` (same degraded link
        for upload stall accounting), planned uploads can fail in
        transit (handled per the resilience policy -- see the class
        docstring), and the iteration cost picks up this step's clock
        jitter last, outside the memoized pricing.
        """
        costs = self.costs
        pert = (self.fault_injector.perturbation_at(clock, self._iteration)
                if self.fault_injector is not None else IDENTITY_PERTURBATION)
        if not context_lens or self.expert_cache is None:
            shape = costs.step_shape(context_lens, chunk_tokens)
            cost = costs.decode_step_us(shape, pert=pert) * pert.jitter_scale
            if not context_lens and self.cache_timeline is not None:
                self._record_idle_cache(clock + cost)
            return cost, shape
        if self._degradation is not None and self._degradation.bypassing:
            # Graceful degradation under a persistently failing cache:
            # all routed experts priced on the CPU, no residency update
            # and no uploads attempted (so no upload faults).
            self._degradation.tick_bypass()
            self.fault_stats.degraded_iterations += 1
            shape = costs.step_shape(context_lens, chunk_tokens)
            cost = costs.decode_step_us(shape, pert=pert) * pert.jitter_scale
            self._record_idle_cache(clock + cost)
            return cost, shape

        if self._routing_stream is not None:
            counts = np.asarray(
                self._routing_stream(self._iteration, len(context_lens)))
        else:
            counts = np.asarray(
                costs.dispatch_summary(context_lens).expert_token_counts)
        window = costs.attn_window_us(context_lens, chunk_tokens)
        link = pert.degrade_link(self.expert_cache.interconnect)
        result = self.expert_cache.step(counts, overlap_window_us=window,
                                        link=link)

        extra_stall = 0.0
        had_failures = False
        if self.resilience is not None and self._retries:
            stall, abandoned = self._process_retries(clock, window, link)
            extra_stall += stall
            had_failures = had_failures or abandoned
        failed: tuple[tuple[int, int], ...] = ()
        if self.fault_injector is not None and result.uploads:
            failed = self.fault_injector.failed_uploads(
                clock, self._iteration, result.uploads)
        if failed:
            had_failures = True
            self.fault_stats.upload_failures += len(failed)
            for layer, expert in failed:
                self.expert_cache.fail_upload(layer, expert)
            if self.resilience is None:
                extra_stall += self._naive_retry_stall_us(clock, failed, link)
            else:
                retry = self.resilience.retry
                for layer, expert in failed:
                    due = clock + retry.delay_us(
                        1, key=(self._iteration, layer, expert))
                    self._retries.append(RetryState(layer, expert, 1, due))

        shape = costs.step_shape(context_lens, chunk_tokens, result)
        arm = shape.cache[2] if shape.cache else None
        if self.graph_stats is not None and arm is not None:
            if arm == "grouped":
                self.graph_stats.grouped_gemm_iterations += 1
                self.graph_stats.grouped_gemm_launches_saved += (
                    max(0, result.n_hit_experts - 1)
                    * self.session.preset.n_moe_layers)
            else:
                self.graph_stats.per_expert_iterations += 1

        cost = costs.decode_step_us(shape, pert=pert) + result.stall_us
        cost += extra_stall
        if extra_stall:
            self.fault_stats.fault_stall_us += extra_stall
        cost *= pert.jitter_scale
        self.cache_timeline.record(
            clock + cost,
            hit_tokens=result.hit_tokens, miss_tokens=result.miss_tokens,
            uploads=len(result.uploads), evictions=len(result.evictions),
            bytes_transferred=result.bytes_transferred,
            stall_us=result.stall_us,
        )
        if self._degradation is not None:
            self._degradation.observe(had_failures, clock, self.fault_stats)
            if self._degradation.bypassing and self._retries:
                # Entering degraded mode orphans in-flight retries: the
                # cache is bypassed, so completing them buys nothing.
                self.fault_stats.retries_abandoned += len(self._retries)
                self._retries.clear()
        return cost, shape

    def _record_idle_cache(self, t_us: float) -> None:
        """A zero-activity expert-cache timeline point (cache unused)."""
        self.cache_timeline.record(
            t_us, hit_tokens=0, miss_tokens=0, uploads=0,
            evictions=0, bytes_transferred=0.0, stall_us=0.0,
        )

    def _process_retries(self, clock: float, window_us: float,
                         link: InterconnectSpec) -> tuple[float, bool]:
        """Run upload retries whose backoff expired; returns (stall, gave_up).

        A successful retry re-admits the expert (if it still fits) and
        pays only the non-overlapped remainder of its transfer -- it
        rides the prefetch window like a planned upload.  A failing
        retry re-enqueues with the next backoff delay until the policy's
        attempt cap, then is abandoned (feeding the degradation
        tracker).
        """
        due = [r for r in self._retries if r.due_us <= clock]
        if not due:
            return 0.0, False
        keep = [r for r in self._retries if r.due_us > clock]
        retry = self.resilience.retry
        expert_bytes = self.expert_cache.config.expert_bytes
        stall = 0.0
        abandoned = False
        for r in due:
            self.fault_stats.record_retry(r.attempt)
            fails = self.fault_injector.retry_fails(
                clock, self._iteration, r.layer, r.expert, r.attempt)
            if not fails:
                self.fault_stats.retries_succeeded += 1
                if self.expert_cache.admit(r.layer, r.expert):
                    stall += overlapped_transfer_stall_us(
                        expert_bytes, link, window_us)
            elif r.attempt >= retry.max_retries:
                self.fault_stats.retries_abandoned += 1
                abandoned = True
            else:
                nxt = r.attempt + 1
                keep.append(RetryState(
                    r.layer, r.expert, nxt,
                    clock + retry.delay_us(
                        nxt, key=(self._iteration, r.layer, r.expert)),
                ))
        self._retries = keep
        return stall, abandoned

    def _naive_retry_stall_us(
        self, clock: float, failed: tuple[tuple[int, int], ...],
        link: InterconnectSpec,
    ) -> float:
        """Blocking synchronous re-uploads: the naive arm's failure mode.

        Every failed expert is re-uploaded immediately and synchronously
        -- each attempt stalls the *whole batch* for the full PCIe
        transfer on the (possibly degraded) link, compounding exactly the
        congestion that failed the upload in the first place.
        """
        expert_bytes = self.expert_cache.config.expert_bytes
        xfer = pcie_transfer_time_us(expert_bytes, link)
        stall = 0.0
        for layer, expert in failed:
            for attempt in range(1, NAIVE_UPLOAD_ATTEMPTS + 1):
                self.fault_stats.record_retry(attempt)
                stall += xfer
                if not self.fault_injector.retry_fails(
                        clock, self._iteration, layer, expert, attempt):
                    self.fault_stats.retries_succeeded += 1
                    self.expert_cache.admit(layer, expert)
                    break
            else:
                self.fault_stats.retries_abandoned += 1
        return stall

    def _finish(self, a: _InFlight, clock: float,
                timed_out: bool = False) -> None:
        """Release an active request's pages and record its timing.

        With a prefix cache, the finished prompt is inserted (so the
        session's next turn can reuse it) before the request's own
        prefix pins are released; timed-out requests release without
        inserting.  The session's next-turn prediction updates here --
        finish time is when the user starts thinking.
        """
        self.pool.free(a.slot)
        self._reserved_pages -= a.reserved_pages
        self._release_prefix(a, clock, insert=not timed_out)
        self._predict_next_turn(a, clock)
        self._record_timing(a, clock, timed_out)

    def _record_timing(self, a: _InFlight, clock: float,
                       timed_out: bool = False) -> None:
        """Record one request's lifecycle timing (no page bookkeeping)."""
        self.stats.add(RequestTiming(
            arrival_us=a.timed.arrival_us,
            start_us=a.start_us,
            first_token_us=a.first_token_us,
            finish_us=clock,
            prompt_tokens=len(np.atleast_1d(a.timed.request.prompt)),
            generated_tokens=a.emitted,
            timed_out=timed_out,
            priority=int(a.timed.priority),
        ))
