"""Property/fuzz tests for ``ContinuousBatchingServer.replay`` invariants.

Across randomized Poisson workloads, KV budgets, and batch caps, the
iteration-level scheduler must uphold its contracts:

- KV pages in use never exceed the pool budget (admission reserves
  ``prompt + max_new_tokens`` up front, so in-flight growth is safe);
- every admitted request eventually finishes -- nothing is dropped or
  starved, whatever the arrival pattern;
- admission never reorders requests: the queue is strict FIFO with
  blocking (a request that does not fit blocks later ones rather than
  being overtaken), so start times are monotone in arrival order;
- per-request timestamps are monotone
  (arrival <= start <= first token <= finish).

Configs randomly enable chunked prefill (small chunk budgets force
multi-chunk prompts and hybrid iterations), so every property above also
holds for the chunked scheduler, including under fault plans; a separate
property checks chunked replays conserve tokens and emit exactly what
the monolithic scheduler emits.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    ClockJitter,
    CpuStraggler,
    FaultInjector,
    FaultPlan,
    PcieDegradation,
    UploadFailureWindow,
    canonical_chaos_plan,
)
from repro.model import DS3, MoETransformer, tiny_config
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    InferenceSession,
    KVTierConfig,
    PrefixCacheConfig,
    Priority,
    PriorityConfig,
    multi_turn_workload,
    poisson_workload,
    serving_expert_cache,
)
from repro.tensor import BF16

_SESSION = None


def get_session():
    global _SESSION
    if _SESSION is None:
        model = MoETransformer(tiny_config("tiny-qw"))
        _SESSION = InferenceSession(model, DS3)
    return _SESSION


workload_strategy = st.fixed_dictionaries({
    "n_requests": st.integers(2, 10),
    "mean_interarrival_us": st.sampled_from([1e3, 1e4, 1e5, 1e6]),
    "prompt_len": st.integers(4, 24),
    "max_new_tokens": st.integers(2, 8),
    "seed": st.integers(0, 10_000),
})
config_strategy = st.fixed_dictionaries({
    "kv_budget_tokens": st.sampled_from([64, 128, 256, 512]),
    "max_batch_size": st.integers(1, 8),
    # None = monolithic boundary passes; small chunks force multi-chunk
    # prefills and hybrid iterations through every property below.
    "prefill_chunk_tokens": st.none() | st.sampled_from([4, 8, 16, 32, 64]),
})


def _replay(wl_params, cfg_params, expert_cache=None):
    session = get_session()
    workload = poisson_workload(vocab_size=64, **wl_params)
    server = ContinuousBatchingServer(
        session, BatchSchedulerConfig(**cfg_params),
        expert_cache=expert_cache)
    stats = server.replay(list(workload))
    return workload, server, stats


def _assert_invariants(workload, server, stats, cfg_params):
    # Every admitted request eventually finishes.
    assert stats.n_requests == len(workload)
    # All KV pages and reservations are released at the end.
    assert server.pool.n_slots == 0
    assert server.pool.used_tokens == 0
    assert server._reserved_pages == 0
    # KV occupancy never exceeded the budget, batch never exceeded the cap.
    for p in server.timeline.points:
        assert p.kv_used_tokens <= server.pool.budget_tokens
        assert p.batch_size <= cfg_params["max_batch_size"]
    # Per-request timestamps are monotone.
    for t in stats.timings:
        assert t.arrival_us <= t.start_us <= t.first_token_us <= t.finish_us
        if t.generated_tokens > 1:
            assert t.finish_us > t.first_token_us
    # FIFO admission: start times are monotone in arrival order (ties in
    # arrival keep whatever order admission produced within a batch).
    ordered = sorted(stats.timings, key=lambda t: t.arrival_us)
    starts = [t.start_us for t in ordered]
    assert all(a <= b + 1e-9 for a, b in zip(starts, starts[1:]))
    # The simulated clock only moves forward.
    points = server.timeline.points
    assert all(b.t_us > a.t_us for a, b in zip(points, points[1:]))


@settings(max_examples=12, deadline=None)
@given(wl=workload_strategy, cfg=config_strategy)
def test_replay_invariants(wl, cfg):
    workload, server, stats = _replay(wl, cfg)
    _assert_invariants(workload, server, stats, cfg)


@settings(max_examples=6, deadline=None)
@given(wl=workload_strategy, cfg=config_strategy,
       capacity=st.integers(4, 48))
def test_replay_invariants_with_expert_cache(wl, cfg, capacity):
    cache = serving_expert_cache(
        get_session(), vram_budget_bytes=capacity * DS3.expert_bytes(BF16))
    workload, server, stats = _replay(wl, cfg, expert_cache=cache)
    _assert_invariants(workload, server, stats, cfg)
    # Cache invariants: bounded residency, sane hit rates, one cache
    # observation per decode iteration.
    assert cache.n_resident <= cache.config.capacity_experts
    assert server.cache_timeline.n_iterations == server.timeline.n_iterations
    for p in server.cache_timeline.points:
        assert 0.0 <= p.hit_rate <= 1.0
        assert p.stall_us >= 0.0
    summary = stats.summary()
    assert 0.0 <= summary["cache_hit_rate"] <= 1.0
    assert np.isfinite(summary["cache_stall_ms"])


@settings(max_examples=4, deadline=None)
@given(wl=workload_strategy, cfg=config_strategy)
def test_replay_deterministic(wl, cfg):
    """Identical inputs give identical ServingStats (ISSUE 2 satellite)."""
    _, _, s1 = _replay(wl, cfg)
    _, _, s2 = _replay(wl, cfg)
    assert s1.timings == s2.timings
    assert s1.summary() == s2.summary()


fault_plan_strategy = st.builds(
    lambda seed, frac, slow, prob, sigma: FaultPlan(
        seed=seed,
        pcie=(PcieDegradation(0.0, 20e6, bandwidth_fraction=frac),),
        stragglers=(CpuStraggler(5e5, 10e6, slowdown=slow),),
        upload_failures=(UploadFailureWindow(0.0, 15e6, probability=prob),),
        jitter=ClockJitter(sigma=sigma),
    ),
    seed=st.integers(0, 10_000),
    frac=st.floats(0.05, 1.0),
    slow=st.floats(1.0, 3.0),
    prob=st.floats(0.0, 1.0),
    sigma=st.floats(0.0, 0.1),
)


@settings(max_examples=6, deadline=None)
@given(wl=workload_strategy, cfg=config_strategy, plan=fault_plan_strategy,
       capacity=st.integers(4, 24))
def test_replay_invariants_under_fault_plan(wl, cfg, plan, capacity):
    """Chaos replay (naive arm): scheduling invariants survive any plan,
    and the perturbed run itself replays bit-identically."""
    def run():
        cache = serving_expert_cache(
            get_session(), vram_budget_bytes=capacity * DS3.expert_bytes(BF16))
        workload = poisson_workload(vocab_size=64, **wl)
        server = ContinuousBatchingServer(
            get_session(), BatchSchedulerConfig(**cfg),
            expert_cache=cache, fault_injector=FaultInjector(plan))
        return workload, server, server.replay(list(workload))

    workload, server, stats = run()
    # The naive arm never sheds, so the fault-free invariants hold whole.
    _assert_invariants(workload, server, stats, cfg)
    assert stats.faults is not None
    assert stats.faults.shed_requests == 0
    # Same plan, same workload: bit-identical replay, faults included.
    _, _, again = run()
    assert stats.timings == again.timings
    assert stats.summary() == again.summary()


@settings(max_examples=6, deadline=None)
@given(wl=workload_strategy,
       kv=st.sampled_from([128, 256, 512]),
       batch=st.integers(1, 8),
       chunk=st.sampled_from([4, 8, 16, 32]))
def test_chunked_conserves_tokens(wl, kv, batch, chunk):
    """Chunking changes *when* prompts prefill, never *what* is emitted:
    per-request token counts match the monolithic replay exactly, and
    both conserve the functional model's generated token values."""
    def run(chunk_tokens):
        workload = poisson_workload(vocab_size=64, **wl)
        server = ContinuousBatchingServer(
            get_session(),
            BatchSchedulerConfig(kv_budget_tokens=kv, max_batch_size=batch,
                                 prefill_chunk_tokens=chunk_tokens))
        return workload, server.replay(list(workload))

    workload, mono = run(None)
    _, chunked = run(chunk)

    def counts(stats):
        return [(t.arrival_us, t.prompt_tokens, t.generated_tokens,
                 t.timed_out)
                for t in sorted(stats.timings, key=lambda t: t.arrival_us)]

    assert counts(chunked) == counts(mono)
    # Token conservation: every replay emits exactly the token sequence
    # the functional model generates for each prompt -- the scheduler
    # cannot drop, duplicate, or invent tokens.
    expected = sum(len(get_session().generate(t.request).tokens)
                   for t in workload)
    assert sum(t.generated_tokens for t in chunked.timings) == expected
    assert sum(t.generated_tokens for t in mono.timings) == expected


priority_config_strategy = st.builds(
    PriorityConfig,
    aging_us=st.none() | st.sampled_from([1e6, 10e6, 100e6]),
    preemption=st.booleans(),
    mechanism=st.sampled_from(["auto", "swap", "recompute"]),
    max_preemptions=st.integers(1, 3),
)


def _with_priorities(workload, seed):
    """Reassign each request's priority class pseudo-randomly."""
    rng = np.random.default_rng(seed)
    classes = [Priority(int(c)) for c in rng.integers(0, 3, len(workload))]
    return [dataclasses.replace(t, priority=c)
            for t, c in zip(workload, classes)]


@settings(max_examples=10, deadline=None)
@given(wl=workload_strategy, cfg=config_strategy,
       prio=priority_config_strategy, prio_seed=st.integers(0, 1000))
def test_priority_preemption_invariants(wl, cfg, prio, prio_seed):
    """ISSUE 5 fuzz: random priorities/preemption uphold every contract.

    Token conservation (preemption reorders, never drops or duplicates),
    pages freed exactly once across swap/recompute (pool and stash fully
    drained, reservations zeroed), budget/cap respected, and timestamps
    monotone.
    """
    session = get_session()
    workload = _with_priorities(
        poisson_workload(vocab_size=64, **wl), prio_seed)
    server = ContinuousBatchingServer(
        session, BatchSchedulerConfig(**cfg), priorities=prio)
    stats = server.replay(list(workload))

    assert stats.n_requests == len(workload)
    # Pages freed exactly once: no residual slots, stash, or reservations.
    assert server.pool.n_slots == 0
    assert server.pool.used_tokens == 0
    assert server.pool.n_swapped == 0
    assert server.pool.swapped_tokens == 0
    assert server._reserved_pages == 0
    assert not server._preempted
    for p in server.timeline.points:
        assert p.kv_used_tokens <= server.pool.budget_tokens
        assert p.batch_size <= cfg["max_batch_size"]
    for t in stats.timings:
        assert t.arrival_us <= t.start_us <= t.first_token_us <= t.finish_us
    # Token conservation against the functional model.
    expected = sum(len(session.generate(t.request).tokens)
                   for t in workload)
    assert sum(t.generated_tokens for t in stats.timings) == expected
    # Preemption ledger balances: every eviction is a swap or recompute,
    # and every evicted request either resumed or was shed while parked.
    p = stats.preemptions
    assert p.swaps + p.recomputes == p.preemptions
    assert p.resumes + p.shed_while_preempted == p.preemptions
    assert p.swap_in_bytes <= p.swap_out_bytes


@settings(max_examples=8, deadline=None)
@given(wl=workload_strategy, cfg=config_strategy,
       prio=priority_config_strategy,
       klass=st.sampled_from(list(Priority)))
def test_single_priority_is_fifo_bit_identical(wl, cfg, prio, klass):
    """ISSUE 5: one priority class => the FIFO scheduler, bit for bit.

    With every request in the same class there is never a strict
    effective-priority gap, so no preemption fires and the replay --
    timings, summary, timeline -- must equal ``priorities=None`` exactly,
    whatever the PriorityConfig says.
    """
    def run(priorities):
        workload = [dataclasses.replace(t, priority=klass)
                    for t in poisson_workload(vocab_size=64, **wl)]
        server = ContinuousBatchingServer(
            get_session(), BatchSchedulerConfig(**cfg),
            priorities=priorities)
        return server, server.replay(list(workload))

    server_f, fifo = run(None)
    server_p, prio_stats = run(prio)
    assert prio_stats.preemptions.preemptions == 0
    assert prio_stats.timings == fifo.timings
    assert server_p.timeline.as_dict() == server_f.timeline.as_dict()


@settings(max_examples=4, deadline=None)
@given(wl=workload_strategy, cfg=config_strategy,
       prio=priority_config_strategy, seed=st.integers(0, 10_000),
       capacity=st.integers(4, 24))
def test_single_priority_fifo_identity_under_chaos(wl, cfg, prio, seed,
                                                   capacity):
    """The bit-identity guarantee survives ``canonical_chaos_plan``: the
    fault substreams are consumed identically whether or not a (single
    class, hence inert) PriorityConfig is installed."""
    def run(priorities):
        cache = serving_expert_cache(
            get_session(), vram_budget_bytes=capacity * DS3.expert_bytes(BF16))
        workload = poisson_workload(vocab_size=64, **wl)
        server = ContinuousBatchingServer(
            get_session(), BatchSchedulerConfig(**cfg), expert_cache=cache,
            fault_injector=FaultInjector(canonical_chaos_plan(seed)),
            priorities=priorities)
        return server.replay(list(workload))

    fifo = run(None)
    prio_stats = run(prio)
    assert prio_stats.preemptions.preemptions == 0
    assert prio_stats.timings == fifo.timings
    assert prio_stats.summary() == {
        k: v for k, v in fifo.summary().items()}


# -- ISSUE 7: session serving (radix prefix cache + host KV tier) ------------

session_workload_strategy = st.fixed_dictionaries({
    "n_sessions": st.integers(1, 3),
    "n_turns": st.integers(1, 4),
    "system_tokens": st.integers(4, 40),
    "user_tokens": st.integers(2, 12),
    "assistant_tokens": st.integers(0, 8),
    "max_new_tokens": st.integers(2, 6),
    "mean_think_us": st.sampled_from([0.0, 1e5, 5e6, 20e6]),
    "service_allowance_us": st.sampled_from([0.0, 1e6, 10e6]),
    "seed": st.integers(0, 10_000),
})
tier_strategy = st.none() | st.builds(
    KVTierConfig,
    host_budget_tokens=st.sampled_from([64, 1024, 65536]),
    idle_park_us=st.sampled_from([0.0, 1e6, 30e6]),
    prefetch=st.booleans(),
)


def _session_cfg(wl, cfg):
    """Raise the sampled KV budget to fit the workload's largest turn.

    Multi-turn prompts grow with turn count; a budget smaller than one
    request is a ConfigError by design (admission can never succeed),
    which is not the property under test here.
    """
    worst = (wl["system_tokens"] + wl["n_turns"] * wl["user_tokens"]
             + (wl["n_turns"] - 1) * wl["assistant_tokens"]
             + wl["max_new_tokens"])
    floor = -(-worst // 16) * 16
    out = dict(cfg)
    out["kv_budget_tokens"] = max(cfg["kv_budget_tokens"], floor)
    return out


@settings(max_examples=10, deadline=None)
@given(wl=session_workload_strategy, cfg=config_strategy,
       capacity=st.none() | st.sampled_from([64, 256]),
       tier=tier_strategy)
def test_session_replay_invariants(wl, cfg, capacity, tier):
    """ISSUE 7 fuzz: prefix reuse changes *cost*, never correctness.

    Across random conversational workloads, chunk configs, cache
    capacities, and tier policies: every turn finishes, timestamps stay
    monotone, tokens are conserved against the functional model, the
    prefix tree drains to zero references, and pool occupancy ends at
    exactly the cache's resident footprint (request pages freed exactly
    once -- the pool's double-free guard would raise otherwise).
    """
    session = get_session()
    cfg = _session_cfg(wl, cfg)
    workload = multi_turn_workload(vocab_size=64, **wl)
    server = ContinuousBatchingServer(
        session, BatchSchedulerConfig(**cfg),
        prefix_cache=PrefixCacheConfig(capacity_tokens=capacity),
        kv_tier=tier)
    stats = server.replay(list(workload))

    assert stats.n_requests == len(workload)
    for t in stats.timings:
        assert t.arrival_us <= t.start_us <= t.first_token_us <= t.finish_us
    # Token conservation against the functional model: skipping cached
    # prefill never changes what is emitted.
    expected = sum(len(session.generate(t.request).tokens)
                   for t in workload)
    assert sum(t.generated_tokens for t in stats.timings) == expected
    # The tree drained: no outstanding pins, pool holds only the cache.
    cache = server.prefix_cache
    assert cache.total_refs == 0
    assert server._reserved_pages == 0
    assert server.pool.used_tokens == cache.gpu_tokens
    # Budget respected throughout, cache occupancy included.
    for p in server.timeline.points:
        assert p.kv_used_tokens <= server.pool.budget_tokens
        assert p.prefix_cached_tokens >= 0
        assert p.host_parked_tokens >= 0
    # Session accounting is self-consistent.
    s = stats.sessions
    assert s is not None
    assert s.prefix_hits + s.prefix_misses == len(workload)
    assert 0.0 <= s.reuse_fraction < 1.0
    assert s.prefill_tokens_avoided <= s.prompt_tokens_total
    if tier is None:
        assert s.parked_tokens == 0 and s.swap_out_bytes == 0


@settings(max_examples=6, deadline=None)
@given(wl=session_workload_strategy, cfg=config_strategy,
       tier=tier_strategy)
def test_session_replay_deterministic(wl, cfg, tier):
    """Same workload, same configs: bit-identical stats, sessions
    summary included (EWMA prediction and LRU tie-breaks are
    deterministic)."""
    cfg = _session_cfg(wl, cfg)

    def run():
        workload = multi_turn_workload(vocab_size=64, **wl)
        server = ContinuousBatchingServer(
            get_session(), BatchSchedulerConfig(**cfg),
            prefix_cache=PrefixCacheConfig(), kv_tier=tier)
        return server.replay(list(workload))

    s1, s2 = run(), run()
    assert s1.timings == s2.timings
    assert s1.summary() == s2.summary()


# -- ISSUE 8: cross-feature matrix (every serving feature, combined) ----------

feature_matrix_strategy = st.fixed_dictionaries({
    "pipeline_stages": st.sampled_from([1, 2, 3]),
    "expert_cache": st.booleans(),
    "prefill_chunk_tokens": st.none() | st.sampled_from([16, 64]),
    "prefix_cache": st.booleans(),
    "graph_cache": st.booleans(),
    "priorities": st.booleans(),
    "faults": st.booleans(),
    "fault_seed": st.integers(0, 10_000),
    "prio_seed": st.integers(0, 1_000),
})


def _matrix_server(wl, cfg, features):
    """One server with the sampled feature combination enabled."""
    from repro.sched import GraphCacheConfig

    session = get_session()
    cache = (serving_expert_cache(
        session, vram_budget_bytes=16 * DS3.expert_bytes(BF16))
        if features["expert_cache"] else None)
    injector = (FaultInjector(canonical_chaos_plan(features["fault_seed"]))
                if features["faults"] else None)
    return ContinuousBatchingServer(
        session,
        BatchSchedulerConfig(
            kv_budget_tokens=cfg["kv_budget_tokens"],
            max_batch_size=cfg["max_batch_size"],
            prefill_chunk_tokens=features["prefill_chunk_tokens"],
            pipeline_stages=features["pipeline_stages"],
            graph_cache=(GraphCacheConfig(batch_buckets=(1, 2, 4, 8))
                         if features["graph_cache"] else None)),
        expert_cache=cache,
        fault_injector=injector,
        prefix_cache=(PrefixCacheConfig()
                      if features["prefix_cache"] else None),
        priorities=(PriorityConfig(preemption=True)
                    if features["priorities"] else None))


@settings(max_examples=14, deadline=None)
@given(wl=session_workload_strategy, cfg=config_strategy,
       features=feature_matrix_strategy)
def test_feature_matrix_invariants(wl, cfg, features):
    """ISSUE 8 fuzz: every feature combination upholds every contract.

    Expert cache x chunked prefill x priorities x prefix cache x graph
    cache x pipeline stages x chaos: whatever is enabled together, the
    replay conserves tokens against the functional model, frees every
    page exactly once (pool drained to the cache's resident footprint,
    reservations and swap stash zeroed), respects the KV budget and
    batch cap, keeps timestamps monotone, and replays bit-identically
    under the same seed.
    """
    session = get_session()
    cfg = _session_cfg(wl, cfg)

    def run():
        workload = _with_priorities(
            multi_turn_workload(vocab_size=64, **wl), features["prio_seed"])
        server = _matrix_server(wl, cfg, features)
        return workload, server, server.replay(list(workload))

    workload, server, stats = run()

    # Every turn finishes; nothing is dropped by any feature combo.
    assert stats.n_requests == len(workload)
    # Token conservation against the functional model.
    expected = sum(len(session.generate(t.request).tokens)
                   for t in workload)
    assert sum(t.generated_tokens for t in stats.timings) == expected
    # Pages freed exactly once, whatever combination of prefix pins,
    # preemption stashes, and chunk state was live mid-run: request
    # slots all drained (only the prefix cache's resident pages stay),
    # reservations and swap stash zeroed.
    assert server._reserved_pages == 0
    assert server.pool.n_swapped == 0
    assert server.pool.swapped_tokens == 0
    if server.prefix_cache is None:
        assert server.pool.n_slots == 0
        assert server.pool.used_tokens == 0
    else:
        assert server.prefix_cache.total_refs == 0
        assert server.pool.used_tokens == server.prefix_cache.gpu_tokens
    # Budget/cap respected throughout; the clock only moves forward.
    for p in server.timeline.points:
        assert p.kv_used_tokens <= server.pool.budget_tokens
        assert p.batch_size <= cfg["max_batch_size"]
    points = server.timeline.points
    assert all(b.t_us > a.t_us for a, b in zip(points, points[1:]))
    for t in stats.timings:
        assert t.arrival_us <= t.start_us <= t.first_token_us <= t.finish_us
    # Pipeline accounting only exists when stages were configured, and
    # never counts more staged iterations than iterations.
    if features["pipeline_stages"] > 1:
        assert stats.pipeline is not None
        assert stats.pipeline.staged_iterations <= len(points)
        assert stats.pipeline.staged_us > 0 or \
            stats.pipeline.staged_iterations == 0
    else:
        assert stats.pipeline is None
        assert "pipeline_stages" not in stats.summary()

    # Same seed, same features: bit-identical replay.
    _, _, again = run()
    assert stats.timings == again.timings
    assert stats.summary() == again.summary()


fleet_matrix_strategy = st.fixed_dictionaries({
    "n_replicas": st.integers(1, 3),
    "policy": st.sampled_from(
        ["round-robin", "least-loaded", "session-affinity",
         "priority-spill"]),
    "on_kill": st.sampled_from(["resubmit", "shed"]),
    "fault": st.sampled_from(["none", "kill", "drain"]),
    "pipeline_stages": st.sampled_from([1, 2]),
    "prefix_cache": st.booleans(),
})


@settings(max_examples=10, deadline=None)
@given(wl=session_workload_strategy, cfg=config_strategy,
       fleet=fleet_matrix_strategy)
def test_fleet_matrix_invariants(wl, cfg, fleet):
    """ISSUE 8 fuzz, fleet level: routing x faults x features.

    Whatever policy and replica-fault combination runs, every submitted
    request is accounted for exactly once (finished or shed -- resubmits
    never lose or duplicate), per-replica routed counts sum to the
    assignment count, and the whole fleet replay is bit-identical under
    the same seed.
    """
    from repro.faults import ReplicaFault
    from repro.serving import FleetConfig, FleetRouter

    cfg = _session_cfg(wl, cfg)
    plan = None
    if fleet["fault"] != "none":
        plan = FaultPlan(replicas=(
            ReplicaFault(2e5, 5e6, replica=0, kind=fleet["fault"]),))

    def run():
        workload = multi_turn_workload(vocab_size=64, **wl)
        router = FleetRouter(
            lambda: ContinuousBatchingServer(
                get_session(),
                BatchSchedulerConfig(
                    kv_budget_tokens=cfg["kv_budget_tokens"],
                    max_batch_size=cfg["max_batch_size"],
                    pipeline_stages=fleet["pipeline_stages"]),
                prefix_cache=(PrefixCacheConfig()
                              if fleet["prefix_cache"] else None)),
            FleetConfig(n_replicas=fleet["n_replicas"],
                        policy=fleet["policy"],
                        on_kill=fleet["on_kill"]),
            fault_plan=plan)
        return workload, router.replay(list(workload))

    workload, stats = run()

    # Conservation: every submission finishes or is shed, exactly once.
    assert stats.n_requests + stats.n_shed == len(workload)
    if fleet["on_kill"] == "resubmit" or fleet["fault"] != "kill":
        assert stats.n_shed == 0
        assert stats.n_requests == len(workload)
    assert stats.shed_on_kill == stats.n_shed
    # Routing accounting: every assignment went to a real replica.
    assert sum(stats.routed) == len(stats.assignments)
    assert sum(stats.routed) >= len(workload)
    assert all(0 <= a[3] < fleet["n_replicas"] for a in stats.assignments)
    # Drains never create casualties.
    if fleet["fault"] == "drain":
        assert stats.kills == 0
        assert stats.resubmitted == 0

    _, again = run()
    assert stats.timings == again.timings
    assert stats.summary() == again.summary()


# -- ISSUE 9: online controller (self-tuning control plane) -------------------

from repro.serving import ControllerConfig, ServingSLO  # noqa: E402

controller_strategy = st.builds(
    ControllerConfig,
    slo=st.builds(ServingSLO,
                  ttft_ms=st.sampled_from([100.0, 2000.0, 1e6]),
                  tpot_ms=st.sampled_from([100.0, 500.0, 1e6])),
    window_us=st.sampled_from([2e5, 1e6, 5e6]),
    warmup_windows=st.integers(0, 2),
    ewma_alpha=st.sampled_from([0.3, 0.5, 1.0]),
    rollback_tolerance=st.sampled_from([0.0, 0.05, 0.2]),
    shed_penalty=st.sampled_from([0.0, 2.0]),
    chunk_ladder=st.just((8, 16, 32, 64)),
    batch_ladder=st.sampled_from([(), (2, 4, 8)]),
)


@settings(max_examples=8, deadline=None)
@given(wl=workload_strategy, cfg=config_strategy, ctrl=controller_strategy)
def test_controller_adaptive_bit_reproducible(wl, cfg, ctrl):
    """ISSUE 9 fuzz: same seed, same controller => bit-identical runs
    (timings, summary, and the full decision trace), and the adaptive
    engine still upholds the scheduler contracts -- every request
    finishes, pages drain, the KV budget holds, and the batch size
    never exceeds the largest cap the controller may set."""
    def run():
        workload = poisson_workload(vocab_size=64, **wl)
        server = ContinuousBatchingServer(
            get_session(), BatchSchedulerConfig(**cfg), controller=ctrl)
        return workload, server, server.replay(list(workload))

    workload, server, stats = run()
    assert stats.n_requests == len(workload)
    assert server.pool.n_slots == 0
    assert server.pool.used_tokens == 0
    assert server._reserved_pages == 0
    batch_cap = max((cfg["max_batch_size"],) + ctrl.batch_ladder)
    for p in server.timeline.points:
        assert p.kv_used_tokens <= server.pool.budget_tokens
        assert p.batch_size <= batch_cap
    for t in stats.timings:
        assert t.arrival_us <= t.start_us <= t.first_token_us <= t.finish_us
    # The live config never leaves the controller's ladders (plus the
    # base values it started from).
    assert server.config.prefill_chunk_tokens in (
        ctrl.chunk_ladder + (cfg["prefill_chunk_tokens"],))
    assert server.config.max_batch_size in (
        ctrl.batch_ladder + (cfg["max_batch_size"],))
    # Control accounting is consistent with the trace.
    c = stats.controller
    assert c is not None
    assert len(c.decisions) == c.windows
    assert c.rollbacks <= c.moves
    assert stats.summary()["ctrl_windows"] == float(c.windows)

    _, _, again = run()
    assert stats.timings == again.timings
    assert stats.summary() == again.summary()
    assert c.trace() == again.controller.trace()


# -- controller queue depth: O(log N) arrived count ---------------------------

from repro.serving import GenerationRequest, TimedRequest  # noqa: E402
from repro.serving.continuous import _arrived  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(arrivals=st.lists(st.integers(0, 20).map(float), max_size=30),
       deletions=st.lists(st.integers(0, 10**6), max_size=12))
def test_arrived_count_matches_linear_scan(arrivals, deletions):
    """The engine's pending stack is arrival-descending and admission
    deletes from its interior or pops its head; the bisected count of
    arrived requests equals the linear scan at, between and beyond
    every arrival (ties included)."""
    request = GenerationRequest(prompt=np.array([1]), max_new_tokens=1)
    pending = sorted((TimedRequest(a, request) for a in arrivals),
                     key=lambda t: -t.arrival_us)
    for d in deletions:
        if not pending:
            break
        del pending[d % len(pending)]
    points = sorted(set(arrivals)) or [0.0]
    clocks = (points + [(a + b) / 2 for a, b in zip(points, points[1:])]
              + [points[0] - 1.0, points[-1] + 1.0])
    for clock in clocks:
        assert _arrived(pending, clock) == sum(
            1 for t in pending if t.arrival_us <= clock)
