"""Iteration-level continuous batching over the discrete-event simulator.

:class:`ContinuousBatchingServer` recomposes the running batch at every
decode iteration (Orca-style); with ``BatchSchedulerConfig(
max_batch_size=1)`` it is the paper's batch-1 local deployment, FIFO
with one request in flight.  Every price comes from
:class:`~repro.serving.pricing.BatchCostModel`.  At each iteration
boundary the scheduler admits arrived requests that fit the KV **token
budget** (page reservations against a shared
:class:`~repro.model.paged.PagedKVPool`) and the batch-size cap; each
**decode iteration** then emits one token for every in-flight request,
priced with per-expert token counts aggregated across the batch (so
batching moves the AVX-512/AMX crossover of Fig. 7), and finished
requests free their pages immediately.

Prefill runs by default as one batched pass at the iteration boundary,
stalling in-flight decodes for its duration (fixed per-pass overheads
dominate, so co-admission amortizes it).  With
``BatchSchedulerConfig(prefill_chunk_tokens=...)`` each prompt instead
splits into token-budget chunks co-scheduled *alongside* the decode
batch (Sarathi-style hybrid iterations): the decode batch already
streams its active experts' weights from DRAM, so only the chunk's
*marginal* expert work is billed
(:func:`~repro.sched.workload.hybrid_chunk_layer_work`).  A chunk budget
covering every co-admitted fresh prompt degenerates to the monolithic
pass bit-for-bit.

Three optional subsystems each live in the module that holds their
config and are built only when configured, attaching their own stats to
:class:`~repro.serving.metrics.ServingStats`:

- :class:`~repro.serving.priority.PriorityScheduler` ranks admission
  candidates by aged priority and preempts (swap or recompute) for
  blocked higher-class ones (``stats.preemptions``);
- :class:`~repro.serving.prefix_cache.SessionCache` reuses cached
  prompt prefixes and parks idle sessions in the host KV tier
  (``stats.sessions``);
- :class:`~repro.serving.resilience.UploadFaults` fails, retries and
  degrades expert uploads under a fault injector (``stats.faults``).

The loop itself keeps admission, prefill planning, step pricing (expert
cache, CUDA-graph cache, pipeline stages), finish, and the load shedding
of a :class:`~repro.serving.resilience.ResilienceConfig`'s queue and
decode timeouts.  Preempted requests keep aging against the decode
timeout, so one that cannot resume in time is shed with its pages
already released (freed exactly once).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError, KVCacheError
from ..faults.injector import (
    IDENTITY_PERTURBATION,
    FaultInjector,
    StepPerturbation,
)
from ..hw.spec import InterconnectSpec
from ..kernels.backend import KernelBackend
from ..model.paged import PagedKVPool
from ..moe.expert_cache import ExpertCacheConfig, ExpertCacheManager
from ..sched.cuda_graph import GraphCache
from .controller import ControllerConfig, ControllerStats, OnlineController
from .metrics import (
    BatchTimeline,
    ExpertCacheTimeline,
    GraphStats,
    PipelineStats,
    RequestTiming,
    ServingStats,
)
from .prefix_cache import (
    KVTierConfig,
    MatchProbe,
    PrefixCacheConfig,
    RadixPrefixCache,
    SessionCache,
)
from .pricing import BatchCostModel, BatchSchedulerConfig, StepShape
from .priority import PriorityConfig, PriorityScheduler
from .resilience import ResilienceConfig, UploadFaults
from .session import InferenceSession
from .traffic import TimedRequest

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

    A request holds its full KV-page reservation from admission but is
    only *decodable* once ``prefill_target`` tokens are in KV
    (``prefilled`` advances by the whole prompt in monolithic mode, one
    chunk share at a time in chunked mode).  ``prefill_target`` equals
    ``prompt_len`` until a recompute preemption raises it to ``prompt_len
    + emitted`` (see :class:`~repro.serving.priority.PriorityScheduler`;
    ``swapped`` marks a swap preemption instead).  ``shared_tokens`` is
    the page-aligned prompt prefix pinned in the radix prefix cache:
    those tokens live in refcounted cache pages, so the request's own
    slot holds ``context_len - shared_tokens`` tokens.  ``prompt_tokens``
    is the prompt as the cache's key, built once per admission.  Without
    a prefix cache both stay empty.
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
    prompt_tokens: tuple = ()

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
    per-iteration batch size, KV occupancy, mid-prefill count and chunk
    size land on :attr:`timeline`.  Each optional argument switches on
    one subsystem (see the module docstring): ``expert_cache`` (with an
    optional ``routing_stream``), ``fault_injector`` and
    ``resilience``, ``priorities``, ``prefix_cache`` (with an optional
    ``kv_tier``), and ``controller``, which adapts
    ``prefill_chunk_tokens`` / ``max_batch_size`` between iterations by
    installing a replacement frozen config, so every pricing memo stays
    valid.  Every subsystem left unconfigured (the default) is
    bit-identical to the engine without it and adds no stats.
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
        if routing_stream is not None and expert_cache is None:
            raise ConfigError("routing_stream requires an expert_cache")
        if kv_tier is not None and prefix_cache is None:
            raise ConfigError("kv_tier requires a prefix_cache config")
        self.session = session
        self.config = config or BatchSchedulerConfig()
        self.costs = self._make_costs()
        self.pool = PagedKVPool(self.config.kv_budget_tokens,
                                self.config.page_tokens)
        self.expert_cache = expert_cache
        self._routing_stream = routing_stream
        self.fault_injector = fault_injector
        self._reserved_pages = 0
        self._iteration = 0
        self.stats = ServingStats()
        self.timeline = BatchTimeline(
            kv_budget_tokens=self.pool.budget_tokens)
        # Optional subsystems and their stats exist only when configured,
        # so unconfigured summaries (and goldens) stay unchanged.
        self.cache_timeline: ExpertCacheTimeline | None = None
        if expert_cache is not None:
            self.cache_timeline = ExpertCacheTimeline()
            self.stats.expert_cache = self.cache_timeline
        self.faults: UploadFaults | None = None
        if fault_injector is not None or resilience is not None:
            self.faults = UploadFaults(fault_injector, resilience,
                                       expert_cache, self.stats)
        # Load shedding compares against these; an unset timeout never
        # fires, so shedding (counted on self.faults) needs a policy.
        self._queue_timeout_us = self._decode_timeout_us = math.inf
        if resilience is not None:
            self._queue_timeout_us = resilience.queue_timeout_us or math.inf
            self._decode_timeout_us = (resilience.decode_timeout_us
                                       or math.inf)
        self.priority: PriorityScheduler | None = None
        if priorities is not None:
            self.priority = PriorityScheduler(priorities, self)
        self.sessions: SessionCache | None = None
        self.prefix_cache: RadixPrefixCache | None = None
        if prefix_cache is not None:
            self.sessions = SessionCache(self, prefix_cache, kv_tier)
            self.prefix_cache = self.sessions.cache
        self.graph_cache: GraphCache | None = self._make_graph_cache()
        self.graph_stats: GraphStats | None = None
        if (self.config.graph_cache is not None
                or self.config.gemm_dispatch != "legacy"):
            self.graph_stats = GraphStats()
            self.stats.graphs = self.graph_stats
        self.pipeline_stats: PipelineStats | None = None
        if self.config.pipeline_stages > 1:
            self.pipeline_stats = PipelineStats(
                n_stages=self.config.pipeline_stages)
            self.stats.pipeline = self.pipeline_stats
        self._controller: OnlineController | None = None
        self.controller_stats: ControllerStats | None = None
        if controller is not None:
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

        Capture pricing sees the cost model's (launch-adjusted) machine
        and the backend's ``graph_instantiation_us`` override, if any.
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
        prompt_len = timed.request.prompt_len
        return self.pool.pages_needed(
            prompt_len + timed.request.max_new_tokens - shared)

    def _pages_in_use(self) -> int:
        """Pages committed now: reservations plus the cache's GPU pages."""
        cached = (self.prefix_cache.gpu_pages
                  if self.prefix_cache is not None else 0)
        return self._reserved_pages + cached

    def _evict_cached(self, n_pages: int, clock: float,
                      protect: tuple = ()) -> bool:
        """Evict up to ``n_pages`` prefix-cache pages; whether any freed."""
        return (self.prefix_cache is not None
                and self.prefix_cache.evict_pages(n_pages, clock,
                                                  protect=protect) > 0)

    @property
    def _preempted(self) -> list[_InFlight]:
        """Preempted requests awaiting resume (none without priorities)."""
        return self.priority.preempted if self.priority is not None else []

    def link_at(self, clock: float) -> InterconnectSpec:
        """The (possibly fault-degraded) PCIe link on the serving clock."""
        link = self.costs.machine.interconnect
        if self.fault_injector is None:
            return link
        return self.fault_injector.link_at(clock, link)

    def _perturbation(self, clock: float) -> StepPerturbation:
        """The fault perturbation active on the serving clock."""
        if self.fault_injector is None:
            return IDENTITY_PERTURBATION
        return self.fault_injector.perturbation_at(clock, self._iteration)

    def _next_candidate(self, pending: list[TimedRequest], clock: float):
        """Next admission candidate: ``("new", index into pending)``,
        ``("resume", _InFlight)`` (priority scheduler only) or ``None``.
        """
        if self.priority is not None:
            return self.priority.next_candidate(pending, clock)
        if pending and pending[-1].arrival_us <= clock:
            return "new", len(pending) - 1
        return None

    def _make_room(self, active: list[_InFlight], timed: TimedRequest,
                   clock: float, page_deficit: int = 0) -> bool:
        """Preempt one victim for a blocked candidate; whether one was."""
        if self.priority is None:
            return False
        freed = self.priority.make_room(active, timed, clock, page_deficit)
        self._reserved_pages -= freed
        return freed > 0

    def _admit(self, pending: list[TimedRequest], active: list[_InFlight],
               clock: float) -> None:
        """Admit/resume candidates that fit the budget and batch cap.

        Head-of-line blocking: the first candidate that cannot be placed
        -- even after any permitted preemptions -- stops admission, which
        with priority aging guarantees no class waits forever.
        """
        while True:
            cand = self._next_candidate(pending, clock)
            if cand is None:
                return
            kind, ref = cand
            timed = ref.timed if kind == "resume" else pending[ref]
            while len(active) >= self.config.max_batch_size:
                if not self._make_room(active, timed, clock):
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
            probe, tokens = MatchProbe(0, 0), ()
            if kind == "new" and self.prefix_cache is not None:
                tokens = tuple(np.atleast_1d(timed.request.prompt).tolist())
                probe = self.prefix_cache.probe(tokens)
                if probe.matched_tokens:
                    need = self._request_pages(timed, probe.matched_tokens)
            extra = self.pool.pages_needed(probe.unpark_tokens)
            while self._pages_in_use() + need + extra > self.pool.budget_pages:
                deficit = (self._pages_in_use() + need + extra
                           - self.pool.budget_pages)
                if self._evict_cached(deficit, clock, protect=probe.nodes):
                    continue
                if self._make_room(active, timed, clock, deficit):
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
                self.priority.resume(ref, clock)
                self._reserved_pages += ref.reserved_pages
                active.append(ref)
                continue
            del pending[ref]
            prompt_len = timed.request.prompt_len
            matched = (self.sessions.admit(timed, tokens, probe, clock)
                       if self.sessions is not None else 0)
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
                start_us=clock, context_len=matched, prompt_len=prompt_len,
                prefill_target=prompt_len,
                prefilled=matched, shared_tokens=matched,
                prompt_tokens=tokens,
            ))

    # -- serving loop -------------------------------------------------------

    def replay(self, workload: list[TimedRequest]) -> ServingStats:
        """Serve a workload with continuous batching; returns aggregate stats."""
        if not workload:
            raise ConfigError("empty workload")
        # Stack with the earliest arrival on top (pop from the end).
        pending = sorted(workload, key=lambda t: -t.arrival_us)
        active: list[_InFlight] = []
        clock = 0.0
        preempted = self._preempted     # mutated in place by the scheduler

        while pending or active or preempted:
            self._shed_stale(pending, clock)
            if self.priority is not None:
                self._shed_stalled_preempted(clock)
            if not pending and not active and not preempted:
                break
            self._admit(pending, active, clock)
            # PCIe swap traffic from this admission round (preemption
            # swaps, then host-tier swap-ins) stalls the serving clock
            # before any prefill/decode work; parking idle sessions
            # runs off the critical path.
            if self.priority is not None:
                clock += self.priority.take_stall()
            if self.sessions is not None:
                clock += self.sessions.take_stall()
                self.sessions.park_idle(clock)
            if not active:
                blocked = ((pending and pending[-1].arrival_us <= clock)
                           or (not pending and preempted))
                if blocked:
                    # Nothing in flight, yet the best candidate could
                    # not be placed: only prefix-cache pages can be in
                    # the way.  Drain the cache and retry; a candidate
                    # blocked even then can never be placed.
                    if self._evict_cached(self.pool.budget_pages, clock):
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
            # Load shedding for requests stuck mid-prefill: they hold KV
            # pages without emitting, so a stalled prefill can starve
            # admission exactly like a runaway decode.
            active = self._shed_stalled_prefills(active, clock)
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
                elif clock - a.start_us > self._decode_timeout_us:
                    # Load shedding: cut off a request decoding past its
                    # deadline; its pages free immediately for admission.
                    self.faults.stats.timed_out_requests += 1
                    self._finish(a, clock, timed_out=True)
                    finished.add(id(a))
            cached, parked = (self.sessions.sample()
                              if self.sessions is not None else (0, 0))
            self.timeline.record(
                clock, batch_size=len(active),
                kv_used_tokens=self.pool.used_tokens,
                n_prefilling=sum(1 for a in active if not a.decodable),
                chunk_tokens=chunk_tokens,
                n_preempted=len(preempted),
                graph_capture_us=capture_us,
                prefix_cached_tokens=cached,
                host_parked_tokens=parked)
            if finished:
                active = [a for a in active if id(a) not in finished]
            if self._controller is not None:
                # Knob moves install a validated replacement config
                # that the next iteration's planning reads.
                moves = self._controller.tick(
                    clock, self.stats, queue_depth=_arrived(pending, clock))
                if moves:
                    self.config = replace(self.config, **moves)
        if self.sessions is not None:
            self.sessions.sample()
        return self.stats

    def _plan_prefill(
        self, active: list[_InFlight],
    ) -> tuple[float, int, list[tuple[_InFlight, int]]]:
        """Plan this iteration's prefill work over the active requests.

        Returns ``(monolithic_pass_us, chunk_tokens, assignments)``.
        Sarathi-style stall-free budgeting: each decoding request's token
        counts against the chunk budget first and prefill gets the
        remainder (the full budget when nothing decodes, so prefill
        always progresses).  A *fresh* prefill queue (no request
        mid-prefill) whose total remaining tokens fit that budget runs as
        one monolithic batched pass -- the un-chunked scheduler's exact
        path, requests decodable this same iteration.  Otherwise prompt
        tokens are assigned FIFO (oldest admission first) up to the
        budget and the chunk is co-scheduled with the decode batch.
        """
        prefilling = [a for a in active if not a.decodable]
        if not prefilling:
            return 0.0, 0, []
        budget = self.config.prefill_chunk_tokens
        if budget is None:
            budget = math.inf       # monolithic: always fully covered
        else:
            budget = max(budget - (len(active) - len(prefilling)), 0)
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

    def _shed_stalled_prefills(self, active: list[_InFlight],
                               clock: float) -> list[_InFlight]:
        """Shed mid-prefill requests older than the decode timeout.

        Their ``first_token_us`` pins to the shed time unless they emitted
        before a recompute preemption, and their KV pages (prefilled chunks
        included) free immediately.  Never fires under the monolithic
        scheduler, where prefill completes on admission.
        """
        timeout = self._decode_timeout_us
        stalled = [a for a in active
                   if clock - a.start_us > timeout and not a.decodable]
        if not stalled:
            return active
        for a in stalled:
            self.faults.stats.timed_out_requests += 1
            if a.emitted == 0:
                a.first_token_us = clock
            self._finish(a, clock, timed_out=True)
        gone = {id(a) for a in stalled}
        return [a for a in active if id(a) not in gone]

    def _shed_stale(self, pending: list[TimedRequest], clock: float) -> None:
        """Shed queued requests waiting past the queue timeout, in arrival
        order; each shed arrival is recorded for the goodput window."""
        while (pending
               and clock - pending[-1].arrival_us > self._queue_timeout_us):
            timed = pending.pop()
            self.faults.stats.shed_requests += 1
            self.stats.record_shed(timed.arrival_us, int(timed.priority))

    def _shed_stalled_preempted(self, clock: float) -> None:
        """Shed preempted requests parked past the decode timeout."""
        for a in self.priority.pop_stalled(clock, self._decode_timeout_us):
            self.faults.stats.timed_out_requests += 1
            if self.sessions is not None:
                self.sessions.release(a, clock, self._reserved_pages,
                                      insert=False)
            if a.emitted == 0:
                a.first_token_us = clock
            self._record_timing(a, clock, timed_out=True)

    def _decode_step_us(self, context_lens: list[int], clock: float,
                        chunk_tokens: int = 0) -> tuple[float, float]:
        """Price one iteration; returns ``(cost, capture stall in it)``.

        With a graph cache, the decode batch first pads up to its capture
        bucket (padding slots run real kernels and are charged), then the
        graph for the step's :class:`StepShape` is looked up: a cold
        shape pays a capture stall on top of the step cost, a warm one
        replays for free.  Fault perturbations stretch task *durations*,
        not the kernel topology, so a perturbed step replays the same
        graph.
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

        :meth:`BatchCostModel.staged_step_us` on the clock's possibly
        fault-degraded link, applied *before* any capture stall, which
        the stage overlap cannot hide.  Returns ``cost`` untouched for
        single-stage configs.
        """
        if self.pipeline_stats is None:
            return cost
        if not context_lens and not chunk_tokens:
            return cost
        staged, xfer = self.costs.staged_step_us(
            cost, context_lens, chunk_tokens, self.link_at(clock))
        ps = self.pipeline_stats
        ps.staged_iterations += 1
        ps.serial_us += cost
        ps.staged_us += staged
        ps.interstage_transfer_us += xfer
        return staged

    def _priced_step_us(self, context_lens: list[int], clock: float,
                        chunk_tokens: int = 0) -> tuple[float, StepShape]:
        """Price one iteration, consulting the expert cache if any.

        Returns the cost and the iteration's :class:`StepShape` (the
        graph-cache key).  ``chunk_tokens > 0`` marks a hybrid iteration.
        A chunk-only iteration (empty ``context_lens``) streams every
        active expert from DRAM regardless of residency, so it skips the
        cache and records a zero-activity cache point to keep the
        timelines aligned.  Otherwise the iteration's per-expert token
        counts (routing stream, or the cost model's dispatch summary)
        update the cache; hits price as GPU work, misses stay on the CPU,
        and planned uploads prefetch behind the attention window.  The
        whole iteration prices under the fault perturbation active at
        ``clock``; :class:`UploadFaults` adds the stall of failed uploads
        (or bypasses the cache while degraded), and the step's clock
        jitter applies last, outside the memoized pricing.
        """
        costs = self.costs
        pert = self._perturbation(clock)
        if (not context_lens or self.expert_cache is None
                or (self.faults is not None
                    and self.faults.bypass_iteration())):
            shape = costs.step_shape(context_lens, chunk_tokens)
            cost = costs.decode_step_us(shape, pert=pert) * pert.jitter_scale
            if self.cache_timeline is not None:
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
        if self.faults is not None:
            extra_stall = self.faults.upload_stall_us(
                clock, self._iteration, result.uploads, window, link)

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
        cost *= pert.jitter_scale
        self.cache_timeline.record(
            clock + cost,
            hit_tokens=result.hit_tokens, miss_tokens=result.miss_tokens,
            uploads=len(result.uploads), evictions=len(result.evictions),
            bytes_transferred=result.bytes_transferred,
            stall_us=result.stall_us,
        )
        return cost, shape

    def _record_idle_cache(self, t_us: float) -> None:
        """A zero-activity expert-cache timeline point (cache unused)."""
        self.cache_timeline.record(
            t_us, hit_tokens=0, miss_tokens=0, uploads=0,
            evictions=0, bytes_transferred=0.0, stall_us=0.0,
        )

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
        if self.sessions is not None:
            self.sessions.release(a, clock, self._reserved_pages,
                                  insert=not timed_out)
            self.sessions.end_turn(a.timed, clock)
        self._record_timing(a, clock, timed_out)

    def _record_timing(self, a: _InFlight, clock: float,
                       timed_out: bool = False) -> None:
        """Record one request's lifecycle timing (no page bookkeeping)."""
        self.stats.add(RequestTiming(
            arrival_us=a.timed.arrival_us,
            start_us=a.start_us,
            first_token_us=a.first_token_us,
            finish_us=clock,
            prompt_tokens=a.timed.request.prompt_len,
            generated_tokens=a.emitted,
            timed_out=timed_out,
            priority=int(a.timed.priority),
        ))
