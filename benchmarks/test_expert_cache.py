"""Dynamic hot-expert cache vs. static placement under a hot-set shift.

Two-phase workload: traffic concentrates on one hot expert set, then
shifts to a disjoint set mid-run (the non-stationarity HybriMoE observes
in real serving).  Static placement is profiled offline on phase A and
pinned; the dynamic :class:`~repro.moe.ExpertCacheManager` starts from
the *same* plan and manages residency online with EWMA-weighted LRU and
PCIe-prefetched uploads.

Two levels are measured and emitted to ``benchmarks/BENCH_expert_cache.json``:

1. **Policy sweep** (multi-layer, pure cache policy): per-step hit-rate
   trajectories of static vs. dynamic vs. the clairvoyant oracle.
2. **Serving sweep** (DS-3-scale costs through the continuous-batching
   server): the same two-phase routing injected into two cache-enabled
   servers -- one frozen at the phase-A plan, one dynamic -- comparing
   post-shift hit rate, priced decode step time, and end-to-end
   ``ServingStats`` (cache hit-rate/eviction metrics included).

Headline acceptance: after the shift the dynamic cache recovers >= 80%
of the oracle hit rate, and its decode step is strictly faster than
static placement's.
"""

import json
from pathlib import Path

import numpy as np

from repro.bench import format_table
from repro.hw.spec import paper_testbed
from repro.model import DS3, MoETransformer, tiny_config
from repro.moe import (
    ExpertCacheConfig,
    ExpertCacheManager,
    oracle_hit_rate,
    plan_gpu_residency,
)
from repro.moe.expert_cache import CacheStepResult
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    InferenceSession,
    poisson_workload,
    serving_expert_cache,
)

OUT_PATH = Path(__file__).parent / "BENCH_expert_cache.json"
MACHINE = paper_testbed("a100")
MB = 1e6

# -- policy sweep configuration --------------------------------------------
POL_LAYERS, POL_EXPERTS, POL_CAPACITY = 4, 64, 32
POL_STEPS_PER_PHASE = 60
POL_TOKENS = 96
POL_HOT_A = tuple(range(0, 8))
POL_HOT_B = tuple(range(16, 24))

# -- serving sweep configuration -------------------------------------------
SRV_CAPACITY = 24                   # experts resident on the GPU
SRV_HOT_A = tuple(range(0, 16))
SRV_HOT_B = tuple(range(128, 144))
SRV_HOT_MASS = 0.85
SRV_SHIFT_ITERATION = 24
SRV_ADAPT_ITERATIONS = 15           # grace window after the shift


def _hot_probs(n_experts, hot, hot_mass=SRV_HOT_MASS):
    probs = np.full(n_experts, (1.0 - hot_mass) / (n_experts - len(hot)))
    probs[list(hot)] = hot_mass / len(hot)
    return probs


def _phase_counts(rng, n_layers, n_experts, hot, tokens):
    probs = _hot_probs(n_experts, hot)
    return np.stack([rng.multinomial(tokens, probs) for _ in range(n_layers)])


def _policy_sweep():
    """Static vs dynamic vs oracle hit rates across the hot-set shift."""
    rng = np.random.default_rng(42)
    stream = (
        [_phase_counts(rng, POL_LAYERS, POL_EXPERTS, POL_HOT_A, POL_TOKENS)
         for _ in range(POL_STEPS_PER_PHASE)]
        + [_phase_counts(rng, POL_LAYERS, POL_EXPERTS, POL_HOT_B, POL_TOKENS)
           for _ in range(POL_STEPS_PER_PHASE)]
    )
    phase_a = sum(stream[:POL_STEPS_PER_PHASE])
    phase_b = sum(stream[POL_STEPS_PER_PHASE:])

    plan = plan_gpu_residency(phase_a, vram_budget_bytes=POL_CAPACITY * MB,
                              expert_bytes=MB)
    static_resident = np.zeros((POL_LAYERS, POL_EXPERTS), dtype=bool)
    for layer, experts in enumerate(plan.gpu_resident):
        static_resident[layer, list(experts)] = True

    cache = ExpertCacheManager(
        ExpertCacheConfig(n_layers=POL_LAYERS, n_experts=POL_EXPERTS,
                          expert_bytes=MB,
                          vram_budget_bytes=POL_CAPACITY * MB),
        MACHINE.interconnect)
    cache.warm_start(plan)

    static_rates, dynamic_rates = [], []
    for counts in stream:
        total = counts.sum()
        static_rates.append(counts[static_resident].sum() / total)
        dynamic_rates.append(cache.step(counts).hit_rate)

    steady = slice(POL_STEPS_PER_PHASE + SRV_ADAPT_ITERATIONS, None)
    return {
        "config": {"layers": POL_LAYERS, "experts": POL_EXPERTS,
                   "capacity_experts": POL_CAPACITY,
                   "steps_per_phase": POL_STEPS_PER_PHASE},
        "static_hit_rates": static_rates,
        "dynamic_hit_rates": dynamic_rates,
        "oracle_pre_shift": oracle_hit_rate(phase_a, POL_CAPACITY),
        "oracle_post_shift": oracle_hit_rate(phase_b, POL_CAPACITY),
        "static_post_shift": float(np.mean(static_rates[steady])),
        "dynamic_post_shift": float(np.mean(dynamic_rates[steady])),
        "evictions": cache.total_evictions,
        "bytes_transferred": cache.total_bytes_transferred,
    }


def _make_stream(seed):
    """Deterministic per-iteration routing with a mid-run hot-set shift."""

    def stream(iteration, batch):
        rng = np.random.default_rng(seed * 1_000_003 + iteration)
        hot = SRV_HOT_A if iteration < SRV_SHIFT_ITERATION else SRV_HOT_B
        return rng.multinomial(batch * DS3.top_k,
                               _hot_probs(DS3.n_experts, hot))

    return stream


def _phase_a_plan(session):
    """Offline profile of phase-A traffic (what static placement pins)."""
    rng = np.random.default_rng(7)
    popularity = sum(
        rng.multinomial(12 * DS3.top_k, _hot_probs(DS3.n_experts, SRV_HOT_A))
        for _ in range(50)
    )[np.newaxis, :]
    expert_bytes = DS3.expert_bytes(session.dtype)
    return plan_gpu_residency(popularity,
                              vram_budget_bytes=SRV_CAPACITY * expert_bytes,
                              expert_bytes=expert_bytes)


def _run_server(session, plan, dynamic):
    expert_bytes = DS3.expert_bytes(session.dtype)
    # An infinite admission margin freezes the warm-started plan: that is
    # exactly "static placement" expressed as a degenerate cache policy.
    overrides = {} if dynamic else {"admit_margin": float("inf")}
    cache = serving_expert_cache(
        session, vram_budget_bytes=SRV_CAPACITY * expert_bytes, **overrides)
    cache.warm_start(plan)
    workload = poisson_workload(
        n_requests=24, mean_interarrival_us=10.0, prompt_len=16,
        max_new_tokens=30, vocab_size=64, seed=5)
    server = ContinuousBatchingServer(
        session,
        BatchSchedulerConfig(kv_budget_tokens=640, max_batch_size=12),
        expert_cache=cache, routing_stream=_make_stream(seed=11))
    stats = server.replay(workload)
    return server, stats


def _steady_hit_rate(timeline):
    pts = timeline.points[SRV_SHIFT_ITERATION + SRV_ADAPT_ITERATIONS:]
    hits = sum(p.hit_tokens for p in pts)
    total = hits + sum(p.miss_tokens for p in pts)
    return hits / total, len(pts)


def _price_step(server, hit_rate, n_hit_experts, batch=12, ctx=64):
    """Post-shift decode step cost at the measured hit rate."""
    tokens = batch * DS3.top_k
    hit_tokens = round(hit_rate * tokens)
    res = CacheStepResult(
        step=0, hit_tokens=hit_tokens, miss_tokens=tokens - hit_tokens,
        n_hit_experts=n_hit_experts if hit_tokens else 0,
        uploads=(), evictions=(), bytes_transferred=0.0,
        transfer_us=0.0, stall_us=0.0)
    return server.costs.decode_step_us([ctx] * batch, cache_step=res)


def _serving_sweep():
    model = MoETransformer(tiny_config("tiny-qw"))
    session = InferenceSession(model, DS3)
    plan = _phase_a_plan(session)

    static_server, static_stats = _run_server(session, plan, dynamic=False)
    dyn_server, dyn_stats = _run_server(session, plan, dynamic=True)

    static_hit, n_steady = _steady_hit_rate(static_server.cache_timeline)
    dyn_hit, _ = _steady_hit_rate(dyn_server.cache_timeline)

    # Clairvoyant bound over the post-shift routing actually injected.
    stream = _make_stream(seed=11)
    post_counts = sum(
        stream(i, 12) for i in range(SRV_SHIFT_ITERATION,
                                     SRV_SHIFT_ITERATION + 30))
    oracle = oracle_hit_rate(post_counts[np.newaxis, :], SRV_CAPACITY)

    static_step_us = _price_step(static_server, static_hit,
                                 n_hit_experts=max(1, round(static_hit * 16)))
    dyn_step_us = _price_step(dyn_server, dyn_hit, n_hit_experts=SRV_CAPACITY)

    return {
        "config": {"capacity_experts": SRV_CAPACITY,
                   "shift_iteration": SRV_SHIFT_ITERATION,
                   "adapt_iterations": SRV_ADAPT_ITERATIONS,
                   "steady_iterations": n_steady,
                   "hot_mass": SRV_HOT_MASS},
        "static": {"summary": static_stats.summary(),
                   "timeline": static_server.cache_timeline.as_dict()},
        "dynamic": {"summary": dyn_stats.summary(),
                    "timeline": dyn_server.cache_timeline.as_dict()},
        "post_shift": {
            "oracle_hit_rate": oracle,
            "static_hit_rate": static_hit,
            "dynamic_hit_rate": dyn_hit,
            "oracle_recovery": dyn_hit / oracle,
            "static_decode_step_us": static_step_us,
            "dynamic_decode_step_us": dyn_step_us,
            "decode_step_speedup": static_step_us / dyn_step_us,
        },
    }


def _sweep():
    return {"policy": _policy_sweep(), "serving": _serving_sweep()}


def test_expert_cache(run_once):
    results = run_once(_sweep)
    OUT_PATH.write_text(json.dumps(results, indent=2))

    pol, srv = results["policy"], results["serving"]
    post = srv["post_shift"]
    print()
    print(format_table(
        ["policy (post-shift)", "hit rate", "of oracle"],
        [("static placement", pol["static_post_shift"],
          pol["static_post_shift"] / pol["oracle_post_shift"]),
         ("dynamic cache", pol["dynamic_post_shift"],
          pol["dynamic_post_shift"] / pol["oracle_post_shift"]),
         ("oracle", pol["oracle_post_shift"], 1.0)],
        title="Expert-cache policy sweep (4 layers x 64 experts, hot-set shift)",
    ))
    print(format_table(
        ["serving (post-shift)", "hit rate", "decode step (ms)"],
        [("static placement", post["static_hit_rate"],
          post["static_decode_step_us"] / 1e3),
         ("dynamic cache", post["dynamic_hit_rate"],
          post["dynamic_decode_step_us"] / 1e3),
         ("oracle", post["oracle_hit_rate"], float("nan"))],
        title=(f"DS-3-scale serving, {SRV_CAPACITY} GPU-resident experts "
               f"(dynamic recovers {post['oracle_recovery']:.0%} of oracle, "
               f"step {post['decode_step_speedup']:.2f}x faster)"),
    ))

    # -- policy level: the dynamic cache tracks the shift, statics don't.
    assert pol["dynamic_post_shift"] >= 0.8 * pol["oracle_post_shift"]
    assert pol["static_post_shift"] < 0.5 * pol["dynamic_post_shift"]
    assert pol["evictions"] > 0

    # -- serving level: headline acceptance criteria.
    assert post["oracle_recovery"] >= 0.8
    assert post["dynamic_decode_step_us"] < post["static_decode_step_us"]
    assert post["dynamic_hit_rate"] > post["static_hit_rate"]

    # Cache metrics are visible in both servers' ServingStats.
    for which in ("static", "dynamic"):
        summary = srv[which]["summary"]
        assert "cache_hit_rate" in summary
        assert 0.0 <= summary["cache_hit_rate"] <= 1.0
    # The frozen plan never uploads after warm start; the dynamic one does.
    assert srv["static"]["summary"]["cache_uploads"] == 0.0
    assert srv["dynamic"]["summary"]["cache_uploads"] > 0.0
    # Dynamic residency management does not hurt end-to-end throughput.
    assert (srv["dynamic"]["summary"]["tokens_per_s"]
            >= 0.99 * srv["static"]["summary"]["tokens_per_s"])
