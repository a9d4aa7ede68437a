"""Golden regression tests: pinned simulated throughputs.

These widen the safety net around the calibration: beyond the ratio bands
(tested elsewhere), the *absolute* simulated numbers for a few canonical
configurations are pinned with a 15% tolerance, so an accidental change to
any cost constant, scheduler rule, or workload lowering shows up even if it
happens to preserve the ratios.

If a deliberate recalibration moves these numbers, update the goldens and
record the change in EXPERIMENTS.md.
"""

import dataclasses
import hashlib

import pytest

from repro.baselines import FIDDLER, LLAMACPP
from repro.core import KTRANSFORMERS, run_decode, run_prefill
from repro.faults import FaultPlan
from repro.hw import paper_testbed
from repro.model import DS2, DS3, QW2, MoETransformer, tiny_config
from repro.serving import (
    ROUTING_POLICIES, BatchCostModel, InferenceSession, PriorityConfig,
)
from repro.tensor import BF16, INT4

MACHINE = paper_testbed("a100")
MACHINE_4080 = paper_testbed("4080")
TOL = 0.15

GOLDEN_DECODE_TPS = {
    ("ktransformers", "ds3"): 6.16,
    ("ktransformers", "ds2"): 12.19,
    ("ktransformers", "qw2"): 22.28,
    ("fiddler", "ds3"): 1.84,
    ("llamacpp", "ds3"): 3.91,
}

GOLDEN_PREFILL_TPS = {
    ("ktransformers", "ds3", 2048): 464.6,
    ("ktransformers", "qw2", 2048): 2690.0,
    ("fiddler", "ds3", 2048): 131.6,
    ("llamacpp", "ds3", 2048): 83.0,
}

SYSTEMS = {s.name: s for s in (FIDDLER, LLAMACPP, KTRANSFORMERS)}
PRESETS = {p.name: p for p in (DS3, DS2, QW2)}


@pytest.mark.parametrize("system,model", sorted(GOLDEN_DECODE_TPS))
def test_golden_decode(system, model):
    expected = GOLDEN_DECODE_TPS[(system, model)]
    r = run_decode(SYSTEMS[system], PRESETS[model], MACHINE, BF16, n_tokens=6)
    assert r.tokens_per_s == pytest.approx(expected, rel=TOL)


@pytest.mark.parametrize("system,model,plen", sorted(GOLDEN_PREFILL_TPS))
def test_golden_prefill(system, model, plen):
    expected = GOLDEN_PREFILL_TPS[(system, model, plen)]
    r = run_prefill(SYSTEMS[system], PRESETS[model], MACHINE, BF16,
                    prompt_len=plen)
    assert r.tokens_per_s == pytest.approx(expected, rel=TOL)


def test_golden_deferral_ds3():
    r = run_decode(KTRANSFORMERS, DS3, MACHINE, BF16, n_tokens=6,
                   n_deferred=3)
    assert r.tokens_per_s == pytest.approx(8.21, rel=TOL)


def test_golden_quantized_ds3_4080():
    r = run_decode(KTRANSFORMERS, DS3, MACHINE_4080, INT4, n_tokens=6)
    assert r.tokens_per_s == pytest.approx(15.43, rel=TOL)


def test_golden_intro_fiddler_prefill():
    """The introduction's motivating number: Fiddler-style prefill on DS-3
    runs at ~70 tokens/s; our simulated Fiddler lands in that regime."""
    r = run_prefill(FIDDLER, DS3, MACHINE, BF16, prompt_len=8192)
    assert 60.0 <= r.tokens_per_s <= 180.0


# Serving-engine pricing pins (DS-3 costs on the A100 testbed).  These are
# what BENCH_serving / BENCH_expert_cache numbers are built from, so a
# pricing refactor that shifts them must be deliberate and recorded.
GOLDEN_DECODE_STEP_US = {
    (1, 64): 162_222.0,
    (8, 64): 801_589.0,
    (16, 256): 1_485_880.0,
}

GOLDEN_BATCHED_PREFILL_US = {
    128: 3_950_184.0,
    2048: 4_407_961.0,
}


@pytest.fixture(scope="module")
def batch_costs():
    model = MoETransformer(tiny_config("tiny-qw"))
    return BatchCostModel(InferenceSession(model, DS3))


@pytest.mark.parametrize("batch,ctx", sorted(GOLDEN_DECODE_STEP_US))
def test_golden_batched_decode_step(batch_costs, batch, ctx):
    expected = GOLDEN_DECODE_STEP_US[(batch, ctx)]
    assert batch_costs.decode_step_us([ctx] * batch) == pytest.approx(
        expected, rel=TOL)


@pytest.mark.parametrize("tokens", sorted(GOLDEN_BATCHED_PREFILL_US))
def test_golden_batched_prefill(batch_costs, tokens):
    expected = GOLDEN_BATCHED_PREFILL_US[tokens]
    assert batch_costs.batched_prefill_us(tokens) == pytest.approx(
        expected, rel=TOL)


# Hybrid (chunked prefill + decode) iteration pricing pins.  DS-3 costs:
# the chunk pays nearly the full expert-streaming bill here because a
# 256-expert pool is far from saturated at batch 8/16 -- which is exactly
# why BENCH_chunked_prefill uses QW2 costs for its headline claim.
GOLDEN_HYBRID_STEP_US = {
    (8, 64, 128): 3_976_719.0,
    (16, 256, 512): 4_078_125.0,
    (0, 0, 256): 4_191_587.0,     # chunk-only iteration, no decodes
}


@pytest.mark.parametrize("batch,ctx,chunk", sorted(GOLDEN_HYBRID_STEP_US))
def test_golden_hybrid_step(batch_costs, batch, ctx, chunk):
    expected = GOLDEN_HYBRID_STEP_US[(batch, ctx, chunk)]
    assert batch_costs.decode_step_us(
        [ctx] * batch, chunk_tokens=chunk) == pytest.approx(expected, rel=TOL)
    # A hybrid step must cost strictly more than the pure decode step it
    # extends, and strictly less than decode + a standalone chunk pass.
    if batch:
        decode = batch_costs.decode_step_us([ctx] * batch)
        alone = batch_costs.decode_step_us([], chunk_tokens=chunk)
        hybrid = batch_costs.decode_step_us([ctx] * batch, chunk_tokens=chunk)
        assert decode < hybrid < decode + alone


# Preemption resume-pricing pins (ISSUE 5).  Swap moves the victim's KV
# pages over PCIe (microseconds per leg on a clean A100 link); recompute
# re-prefills the context through the overhead-dominated prefill pass
# (seconds) -- the ~4-orders-of-magnitude gap is why the auto mechanism
# swaps on a healthy link and only tilts to recompute when chaos
# degrades PCIe.
GOLDEN_SWAP_TRANSFER_US = {
    64: 132.9,
    1024: 2_006.8,
    8192: 15_998.8,
}

GOLDEN_RECOMPUTE_RESUME_US = {
    64: 3_950_184.0,
    1024: 4_407_961.0,
}


@pytest.mark.parametrize("tokens", sorted(GOLDEN_SWAP_TRANSFER_US))
def test_golden_swap_transfer(batch_costs, tokens):
    expected = GOLDEN_SWAP_TRANSFER_US[tokens]
    assert batch_costs.swap_transfer_us(tokens) == pytest.approx(
        expected, rel=TOL)
    # Both legs move the same bytes: tokens * per-layer KV unit * layers.
    from repro.sched.workload import kv_token_bytes
    assert batch_costs.kv_swap_bytes(tokens) == pytest.approx(
        tokens * kv_token_bytes(DS3) * DS3.n_layers)


@pytest.mark.parametrize("tokens", sorted(GOLDEN_RECOMPUTE_RESUME_US))
def test_golden_recompute_resume(batch_costs, tokens):
    expected = GOLDEN_RECOMPUTE_RESUME_US[tokens]
    assert batch_costs.recompute_resume_us(tokens) == pytest.approx(
        expected, rel=TOL)
    # Resume pricing reuses the prefill memo the actual re-prefill pays.
    assert (batch_costs.recompute_resume_us(tokens)
            == batch_costs.batched_prefill_us(tokens))


def test_golden_intro_fiddler_decode():
    """Intro: 4.68 tokens/s decode for the Fiddler-style baseline; our
    simulated Fiddler is in the same few-tokens-per-second regime."""
    r = run_decode(FIDDLER, DS3, MACHINE, BF16, n_tokens=6)
    assert 1.0 <= r.tokens_per_s <= 6.0


# --- Canonical chaos scenario (repro.faults) -------------------------------
# One pinned fault storm through the full serving stack.  The stochastic
# draws are seeded, so the fault *counters* are exact integers; the times
# carry the usual calibration tolerance.  A change to any fault-window
# constant, retry stream, or perturbed pricing path moves these.

def test_golden_perturbed_decode_step(batch_costs):
    """Mid-storm perturbation reprices the (8, 64) decode step ~1.44x."""
    from repro.faults import StepPerturbation
    pert = StepPerturbation(cpu_scale=1.3, pcie_scale=0.02, numa_scale=1.2)
    assert batch_costs.decode_step_us([64] * 8, pert=pert) == \
        pytest.approx(1_153_919.0, rel=TOL)
    # Identity perturbation must be the *same float*, not merely close.
    assert (batch_costs.decode_step_us([64] * 8, pert=StepPerturbation())
            == batch_costs.decode_step_us([64] * 8))


def _replay(session, chaos=False, sched=None, plan=None, tagged=False,
            fleet=None, **server):
    """One replay of the seed-11 scenario: DS-3 costs, a 512-token KV
    budget, batch cap 4, 8 Poisson requests.  ``chaos`` adds a 12-expert
    cache, the canonical fault plan and a lenient resilience policy;
    ``tagged`` gives the requests session ids; ``fleet`` routes them
    through a 1-replica fleet under that policy."""
    from repro.faults import FaultInjector, canonical_chaos_plan
    from repro.serving import (
        BatchSchedulerConfig, ContinuousBatchingServer, FleetConfig,
        FleetRouter, ResilienceConfig, poisson_workload, serving_expert_cache,
    )
    if chaos:
        plan = canonical_chaos_plan()
        server = {"expert_cache": serving_expert_cache(
                      session, vram_budget_bytes=12 * DS3.expert_bytes(BF16)),
                  "resilience": ResilienceConfig(queue_timeout_us=60e6,
                                                 decode_timeout_us=150e6),
                  **server}

    def make_server():
        return ContinuousBatchingServer(
            session, BatchSchedulerConfig(kv_budget_tokens=512,
                                          max_batch_size=4, **(sched or {})),
            fault_injector=FaultInjector(plan) if plan is not None else None,
            **server)

    wl = poisson_workload(n_requests=8, mean_interarrival_us=1e6,
                          prompt_len=16, max_new_tokens=8, vocab_size=64,
                          seed=11)
    if tagged:
        wl = [dataclasses.replace(t, session_id=f"s{i % 3}")
              for i, t in enumerate(wl)]
    if fleet is not None:
        return FleetRouter(make_server, FleetConfig(n_replicas=1,
                                                    policy=fleet)).replay(wl)
    return make_server().replay(wl)


@pytest.fixture(scope="module")
def session():
    return InferenceSession(MoETransformer(tiny_config("tiny-qw")), DS3)


def _chaos_replay(session, resilience=None):
    return _replay(session, chaos=True, resilience=resilience).summary()


def test_golden_chaos_naive_arm(session):
    s = _chaos_replay(session)
    assert s["fault_upload_failures"] == 26.0
    assert s["fault_retries_attempted"] == 123.0
    assert s["fault_retries_succeeded"] == 18.0
    assert s["fault_shed_requests"] == 0.0      # the naive arm never sheds
    assert s["fault_degraded_entries"] == 0.0   # ... and never degrades
    assert s["fault_stall_ms"] == pytest.approx(16928.9, rel=TOL)
    assert s["tpot_p50_ms"] == pytest.approx(2202.6, rel=TOL)
    assert s["ttft_p95_ms"] == pytest.approx(32407.5, rel=TOL)


def test_golden_chaos_hardened_arm(session):
    from repro.serving import ResilienceConfig
    s = _chaos_replay(session, ResilienceConfig(queue_timeout_us=8e6,
                                                decode_timeout_us=30e6))
    assert s["fault_upload_failures"] == 16.0
    assert s["fault_shed_requests"] == 3.0
    assert s["fault_degraded_entries"] == 1.0
    assert s["fault_degraded_iterations"] == 11.0
    # Async retries ride the prefetch window: ~0.1s of stall vs. the
    # naive arm's ~17s of blocking re-uploads.
    assert s["fault_stall_ms"] == pytest.approx(96.7, rel=TOL)
    assert s["requests"] == 5.0                 # completed = submitted - shed
    assert s["ttft_p95_ms"] == pytest.approx(10624.8, rel=TOL)


# --- Feature-off matrix ----------------------------------------------------
# Every serving feature is off by default, and switched off explicitly (or
# made inert) it must leave the engine's floats untouched.  Each row
# replays the scenario above, clean and under the fault storm unless it
# says otherwise, drops its own summary keys, and hashes its timings and
# summary.  The digests were recorded from the default engine, so a
# change that moves the default and its explicit-off twin alike fails
# here too.  ``repr`` round-trips floats: the digest is bit-exact.

MATRIX_DIGEST = {False: "8538f471e80c0f23", True: "5b5a6dc7b703187f"}
BASELINE_SUMMARY_KEYS = {
    "queue_p95_ms", "requests", "requests_per_s", "tokens_per_s",
    "tpot_p50_ms", "tpot_p95_ms", "tpot_p99_ms",
    "ttft_p50_ms", "ttft_p95_ms", "ttft_p99_ms"}
MATRIX_ROWS = [
    ("baseline", {}),
    ("chunk-covering", {"sched": {"prefill_chunk_tokens": 512}}),
    ("graph-off", {"sched": {"graph_cache": None, "gemm_dispatch": "legacy"}}),
    ("prefix-off", {"prefix_cache": None, "kv_tier": None}),
    ("prefix-off-tagged", {"prefix_cache": None, "kv_tier": None,
                           "tagged": True}),
    ("pipeline-one-stage", {"sched": {"pipeline_stages": 1}}),
    ("priority-single-class", {"priorities": PriorityConfig()}),
    ("priority-no-preempt", {"priorities": PriorityConfig(
        aging_us=None, preemption=False)}),
    ("controller-off", {"controller": None}),
    ("backend-default", {"sched": {"backend": "kt-amx-avx512"}}),
]


@pytest.mark.parametrize("row,chaos,drop", [
    *(pytest.param(row, chaos, None,
                   id=f"{name}-{'chaos' if chaos else 'clean'}")
      for name, row in MATRIX_ROWS for chaos in (False, True)),
    *(pytest.param({"fleet": policy}, False, "fleet_",
                   id=f"fleet-1-replica-{policy}-clean")
      for policy in sorted(ROUTING_POLICIES)),
    pytest.param({"plan": FaultPlan.empty()}, False, "fault_",
                 id="faults-empty-plan-clean"),
])
def test_golden_feature_off_matrix(session, row, chaos, drop):
    stats = _replay(session, chaos, **row)
    timings = [(t.arrival_us, t.start_us, t.first_token_us, t.finish_us,
                t.generated_tokens, t.timed_out) for t in stats.timings]
    summary = sorted((k, v) for k, v in stats.summary().items()
                     if drop is None or not k.startswith(drop))
    digest = hashlib.sha256(repr((timings, summary)).encode()).hexdigest()
    assert digest[:16] == MATRIX_DIGEST[chaos], timings
    if not row:
        # The default engine reports no session, controller or prefix
        # stats; under chaos it adds only the cache and fault counters.
        assert stats.sessions is None and stats.controller is None
        assert {k for k, _ in summary
                if not k.startswith(("cache_", "fault_"))} == \
            BASELINE_SUMMARY_KEYS


def test_golden_multi_turn_untagged_matches_poisson_shape():
    """The multi-turn generator is deterministic: same seed, same
    workload -- arrival times, prompts, and session tags included."""
    from repro.serving import multi_turn_workload
    kw = dict(n_sessions=2, n_turns=3, system_tokens=8, user_tokens=4,
              assistant_tokens=4, max_new_tokens=4, vocab_size=64,
              mean_think_us=1e6, service_allowance_us=1e6, seed=3)
    a, b = multi_turn_workload(**kw), multi_turn_workload(**kw)
    assert [(t.arrival_us, t.session_id, tuple(t.request.prompt))
            for t in a] == \
           [(t.arrival_us, t.session_id, tuple(t.request.prompt))
            for t in b]


# Parked-session pricing pins (ISSUE 7).  The host KV tier moves whole-
# model pages over the same PCIe formula the preemption swap path uses,
# so the swap goldens above pin the tier too -- asserted here both
# against the absolute numbers and bit-for-bit against swap pricing.
@pytest.mark.parametrize("tokens", sorted(GOLDEN_SWAP_TRANSFER_US))
def test_golden_parked_session_transfer(batch_costs, tokens):
    from repro.sched.kv_offload import kv_page_transfer_us
    expected = GOLDEN_SWAP_TRANSFER_US[tokens]
    got = kv_page_transfer_us(DS3, tokens, MACHINE.interconnect)
    assert got == pytest.approx(expected, rel=TOL)
    assert got == batch_costs.swap_transfer_us(tokens)


# --- Fleet / pipeline goldens (ISSUE 8) ------------------------------------
# Staged decode pricing pins for the 2-stage pipeline split (DS-3 costs on
# the A100 testbed): the same step shapes as GOLDEN_DECODE_STEP_US, priced
# through the ratio decomposition.  The interval model clamps at
# min(serial, max(slowest stage, shared-CPU floor)), so each staged step
# must also stay at or below its serial counterpart.
GOLDEN_STAGED_DECODE_STEP_US = {
    (1, 64): 118_947.0,
    (8, 64): 757_912.0,
    (16, 256): 1_441_471.0,
}


@pytest.fixture(scope="module")
def staged_costs():
    model = MoETransformer(tiny_config("tiny-qw"))
    return BatchCostModel(InferenceSession(model, DS3), pipeline_stages=2)


@pytest.mark.parametrize("batch,ctx", sorted(GOLDEN_STAGED_DECODE_STEP_US))
def test_golden_staged_decode_step(staged_costs, batch_costs, batch, ctx):
    expected = GOLDEN_STAGED_DECODE_STEP_US[(batch, ctx)]
    got, _ = staged_costs.staged_step_us(
        staged_costs.decode_step_us([ctx] * batch), [ctx] * batch, 0,
        MACHINE.interconnect)
    assert got == pytest.approx(expected, rel=TOL)
    assert got <= staged_costs.decode_step_us([ctx] * batch)
    # The serial leg of the staged model is the pinned decode step: a
    # pipelined cost model must not perturb single-stage pricing.
    assert staged_costs.decode_step_us([ctx] * batch) == \
        batch_costs.decode_step_us([ctx] * batch)


# --- Online-controller goldens ---------------------------------------------
# The controller's decisions are a pure function of the (deterministic)
# simulation, so the full per-window decision trace can be pinned exactly;
# the matrix's controller-off row pins the engine without it.

# One pinned control scenario: QW2 costs, a 0.5 s decision window, and a
# light Poisson trickle whose TTFT pressure walks the chunk budget and
# batch cap up their ladders.  The trace is exact integers/strings -- a
# change to any window, objective, or hill-climb rule moves it.
GOLDEN_CONTROLLER_TRACE = [
    (1, "observe", 4, 16),
    (2, "move:prefill_chunk_tokens:+1", 4, 32),
    (3, "keep:prefill_chunk_tokens", 4, 32),
    (4, "move:max_batch_size:+1", 8, 32),
    (5, "keep:max_batch_size", 8, 32),
    (6, "move:prefill_chunk_tokens:+1", 8, 64),
    (7, "keep:prefill_chunk_tokens", 8, 64),
]


def _controller_replay(with_controller):
    from repro.serving import (
        BatchSchedulerConfig, ContinuousBatchingServer, ControllerConfig,
        ServingSLO, poisson_workload,
    )
    session = InferenceSession(MoETransformer(tiny_config("tiny-qw")), QW2)
    controller = ControllerConfig(
        slo=ServingSLO(ttft_ms=2000, tpot_ms=500),
        window_us=5e5, warmup_windows=1,
        chunk_ladder=(8, 16, 32, 64), batch_ladder=(2, 4, 8),
    ) if with_controller else None
    server = ContinuousBatchingServer(
        session,
        BatchSchedulerConfig(kv_budget_tokens=512, max_batch_size=4,
                             prefill_chunk_tokens=16),
        controller=controller)
    stats = server.replay(poisson_workload(
        n_requests=10, mean_interarrival_us=2e5, prompt_len=16,
        max_new_tokens=6, vocab_size=64, seed=3))
    return server, stats


def test_golden_controller_decision_trace():
    _, stats = _controller_replay(True)
    assert stats.controller.trace() == GOLDEN_CONTROLLER_TRACE
    s = stats.summary()
    assert s["ctrl_windows"] == 7.0
    assert s["ctrl_moves"] == 3.0
    assert s["ctrl_rollbacks"] == 0.0


def test_golden_controller_warmup_prices_static():
    """Until its first move the controller only observes, so everything
    the engine does before that boundary is bit-identical to the static
    config -- pinned against the first ``move`` decision's timestamp."""
    server_a, adaptive = _controller_replay(True)
    server_s, static = _controller_replay(False)
    first_move = next(d for d in adaptive.controller.decisions
                      if d.action.startswith("move"))
    assert first_move.t_us == 1_000_000.0      # warmup + 1 observe window

    def prefix(stats, t_cut):
        return [(t.arrival_us, t.start_us, t.first_token_us, t.finish_us)
                for t in stats.timings if t.finish_us <= t_cut]

    assert prefix(adaptive, first_move.t_us) == \
        prefix(static, first_move.t_us)
    points_a = [p for p in server_a.timeline.points
                if p.t_us <= first_move.t_us]
    points_s = [p for p in server_s.timeline.points
                if p.t_us <= first_move.t_us]
    assert points_a == points_s
    # ... and past the boundary the configs genuinely diverge (the
    # controller's moves are not a no-op on this scenario).
    assert server_a.config != server_s.config


# --- Kernel-backend registry goldens ---------------------------------------
# Naming the default backend "kt-amx-avx512" explicitly prices exactly as
# leaving it unset, at every level: raw engine runs and cost-model pricing
# here, full serving replays in the matrix's backend-default rows.

def test_golden_backend_cost_model_bit_identity(batch_costs):
    """A cost model built with ``backend="kt-amx-avx512"`` prices the
    golden decode, hybrid, and prefill steps with the exact same floats
    as the default (backend-unset) model."""
    explicit = BatchCostModel(
        InferenceSession(MoETransformer(tiny_config("tiny-qw")), DS3),
        backend="kt-amx-avx512")
    for (batch, ctx) in GOLDEN_DECODE_STEP_US:
        assert explicit.decode_step_us([ctx] * batch) == \
            batch_costs.decode_step_us([ctx] * batch)
    for (batch, ctx, chunk) in GOLDEN_HYBRID_STEP_US:
        assert explicit.decode_step_us([ctx] * batch, chunk_tokens=chunk) == \
            batch_costs.decode_step_us([ctx] * batch, chunk_tokens=chunk)
    for tokens in GOLDEN_BATCHED_PREFILL_US:
        assert explicit.batched_prefill_us(tokens) == \
            batch_costs.batched_prefill_us(tokens)


def test_golden_backend_engine_bit_identity():
    """Raw engine entry points with the default backend named explicitly
    return the exact same elapsed times as the legacy argument path."""
    for preset in (DS3, QW2):
        a = run_decode(KTRANSFORMERS, preset, MACHINE, BF16, n_tokens=4)
        b = run_decode(KTRANSFORMERS, preset, MACHINE, BF16, n_tokens=4,
                       backend="kt-amx-avx512")
        assert b.elapsed_us == a.elapsed_us
        pa = run_prefill(KTRANSFORMERS, preset, MACHINE, BF16,
                         prompt_len=512)
        pb = run_prefill(KTRANSFORMERS, preset, MACHINE, BF16,
                         prompt_len=512, backend="kt-amx-avx512")
        assert pb.elapsed_us == pa.elapsed_us


# --- All-features replay golden ---------------------------------------------
# Every pricing input in one small replay: expert cache under the
# canonical fault storm with a resilience policy (cached, cache-idle and
# cache-bypass steps), chunked prefill (chunk-carrying and chunk-only
# steps), and a CUDA-graph cache with auto GEMM dispatch (both arms).
# Graph captures count distinct step shapes, so these counters pin how
# the pricer partitions steps -- bypass included.  Values recorded
# before the step-pricing grid collapsed into one shape-keyed pricer;
# times are pinned to float precision, not the calibration tolerance.

GOLDEN_ALL_FEATURES = {
    "graph_captures": 23.0,
    "graph_replays": 35.0,
    "graph_evictions": 7.0,
    "graph_padding_tokens": 7.0,
    "grouped_gemm_iterations": 27.0,
    "grouped_gemm_launches_saved": 5040.0,
    "grouped_gemm_per_expert_iterations": 7.0,
    "fault_degraded_iterations": 17.0,
    "fault_upload_failures": 19.0,
    "requests": 12.0,
}

GOLDEN_ALL_FEATURES_MS = {
    "graph_capture_stall_ms": 163.315,
    "ttft_p50_ms": 2620.078676207254,
    "ttft_p95_ms": 7955.725545486737,
    "tpot_p50_ms": 252.52325302132365,
    "tpot_p95_ms": 493.42269567841413,
}


def test_golden_all_features_replay():
    from repro.faults import FaultInjector, canonical_chaos_plan
    from repro.sched.cuda_graph import GraphCacheConfig
    from repro.serving import (
        BatchSchedulerConfig, ContinuousBatchingServer, ResilienceConfig,
        poisson_workload, serving_expert_cache,
    )
    session = InferenceSession(MoETransformer(tiny_config("tiny-qw")), QW2)
    server = ContinuousBatchingServer(
        session,
        BatchSchedulerConfig(kv_budget_tokens=512, max_batch_size=4,
                             prefill_chunk_tokens=16,
                             graph_cache=GraphCacheConfig(),
                             gemm_dispatch="auto"),
        expert_cache=serving_expert_cache(
            session, vram_budget_bytes=12 * QW2.expert_bytes(BF16)),
        fault_injector=FaultInjector(canonical_chaos_plan()),
        resilience=ResilienceConfig(queue_timeout_us=8e6,
                                    decode_timeout_us=30e6))
    s = server.replay(poisson_workload(
        n_requests=12, mean_interarrival_us=1e6, prompt_len=48,
        max_new_tokens=8, vocab_size=64, seed=11)).summary()
    for key, expected in GOLDEN_ALL_FEATURES.items():
        assert s[key] == expected, key
    for key, expected in GOLDEN_ALL_FEATURES_MS.items():
        assert s[key] == pytest.approx(expected, rel=1e-9), key
    # The timeline's per-iteration capture stalls add up to the total.
    assert sum(p.graph_capture_us for p in server.timeline.points) == \
        pytest.approx(1e3 * GOLDEN_ALL_FEATURES_MS["graph_capture_stall_ms"],
                      rel=1e-9)
