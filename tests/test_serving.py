"""Tests for the serving layer: sessions, metrics, batch-1 serving."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KTRANSFORMERS, run_decode
from repro.errors import ConfigError
from repro.hw import paper_testbed
from repro.model import DS2, DS3, QW2, MoETransformer, tiny_config
from repro.serving import (
    BatchCostModel,
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    GenerationRequest,
    InferenceSession,
    RequestTiming,
    ServingStats,
    TimedRequest,
    percentile,
    poisson_workload,
)


@pytest.fixture(scope="module")
def session():
    model = MoETransformer(tiny_config("tiny-qw"))
    return InferenceSession(model, DS3)


def batch1(session):
    """The paper's local deployment: the engine at batch size 1."""
    return ContinuousBatchingServer(session,
                                    BatchSchedulerConfig(max_batch_size=1))


class TestRequestTiming:
    def test_derived_metrics(self):
        t = RequestTiming(arrival_us=0.0, start_us=10.0, first_token_us=30.0,
                          finish_us=130.0, prompt_tokens=16,
                          generated_tokens=11)
        assert t.queue_delay_us == 10.0
        assert t.ttft_us == 30.0
        assert t.tpot_us == pytest.approx(10.0)
        assert t.latency_us == 130.0

    def test_single_token_tpot_zero(self):
        t = RequestTiming(0.0, 0.0, 5.0, 5.0, 4, 1)
        assert t.tpot_us == 0.0

    def test_non_monotone_rejected(self):
        with pytest.raises(ConfigError):
            RequestTiming(10.0, 5.0, 20.0, 30.0, 4, 2)

    def test_percentile(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        with pytest.raises(ConfigError):
            percentile([], 50)

    def test_stats_summary(self):
        stats = ServingStats()
        for i in range(4):
            stats.add(RequestTiming(i * 100.0, i * 100.0, i * 100.0 + 20.0,
                                    i * 100.0 + 80.0, 8, 4))
        s = stats.summary()
        assert s["requests"] == 4
        assert s["ttft_p50_ms"] == pytest.approx(0.02)
        assert s["tokens_per_s"] > 0

    def test_empty_stats_rejected(self):
        with pytest.raises(ConfigError):
            ServingStats().summary()


class TestSession:
    def test_generates_real_tokens(self, session):
        req = GenerationRequest(prompt=np.array([1, 2, 3]), max_new_tokens=6)
        result = session.generate(req)
        assert result.n_tokens == 6
        assert result.tokens.max() < session.model.config.vocab_size

    def test_tokens_match_model_generate(self, session):
        req = GenerationRequest(prompt=np.array([4, 5]), max_new_tokens=5)
        result = session.generate(req)
        direct = session.model.generate(np.array([4, 5]), max_new_tokens=5)
        assert np.array_equal(result.tokens, direct)

    def test_simulated_costs_positive(self, session):
        req = GenerationRequest(prompt=np.array([1] * 64), max_new_tokens=4)
        result = session.generate(req)
        assert result.prefill_us > 0
        assert result.per_token_us > 0
        assert result.total_us == pytest.approx(
            result.prefill_us + 4 * result.per_token_us)

    def test_longer_prompts_cost_more_prefill(self, session):
        short = session.generate(
            GenerationRequest(np.array([1] * 16), max_new_tokens=1))
        long = session.generate(
            GenerationRequest(np.array([1] * 500), max_new_tokens=1))
        assert long.prefill_us > short.prefill_us

    def test_streaming_callback(self, session):
        seen = []
        req = GenerationRequest(prompt=np.array([1, 2]), max_new_tokens=4)
        session.generate(req, on_token=lambda t, us: seen.append((t, us)))
        assert len(seen) == 4
        times = [us for __, us in seen]
        assert times == sorted(times)

    def test_deferral_session_runs(self):
        model = MoETransformer(tiny_config("tiny-qw"))
        s = InferenceSession(model, DS3, n_deferred=2)
        req = GenerationRequest(prompt=np.array([1, 2, 3]), max_new_tokens=4)
        assert s.generate(req).n_tokens == 4

    def test_invalid_requests(self):
        with pytest.raises(ConfigError):
            GenerationRequest(prompt=np.array([1]), max_new_tokens=0)
        with pytest.raises(ConfigError):
            GenerationRequest(prompt=np.array([]), max_new_tokens=3)

    def test_cost_model_caches_buckets(self, session):
        req = GenerationRequest(prompt=np.array([1] * 16), max_new_tokens=1)
        session.generate(req)
        cached = dict(session.costs._prefill)
        assert 32 in cached
        session.generate(req)
        assert session.costs._prefill == cached

    def test_negative_n_deferred_rejected_at_construction(self):
        model = MoETransformer(tiny_config("tiny-qw"))
        with pytest.raises(ConfigError, match="n_deferred"):
            InferenceSession(model, DS3, n_deferred=-1)

    def test_n_deferred_checked_against_the_preset_top_k(self):
        """The model (top_k=8) keeps 2 immediate experts, the DS2 preset
        (top_k=6) none: pricing would fail, so construction does."""
        model = MoETransformer(tiny_config("tiny-qw", top_k=8))
        with pytest.raises(ConfigError, match="at least 2"):
            InferenceSession(model, DS2, n_deferred=6)


class TestBatch1Price:
    @pytest.mark.parametrize("n_deferred", [0, 3])
    @pytest.mark.parametrize("prompt_len", [32, 100])
    def test_generate_prices_like_the_batch1_engine(self, prompt_len,
                                                    n_deferred):
        """One batch-1 price: a lone request's first token lands exactly
        at ``generate``'s prefill plus one decode step."""
        model = MoETransformer(tiny_config("tiny-qw", top_k=6))
        session = InferenceSession(model, DS3, n_deferred=n_deferred)
        prompt = np.arange(prompt_len) % 60 + 1
        req = GenerationRequest(prompt, max_new_tokens=4)
        result = session.generate(req)
        timing, = batch1(session).replay([TimedRequest(0.0, req)]).timings
        assert result.prefill_us + result.per_token_us == timing.first_token_us

    @pytest.mark.parametrize("preset", [DS3, DS2, QW2], ids=lambda p: p.name)
    @pytest.mark.parametrize("deferral", [False, True])
    def test_decode_step_matches_fig12(self, preset, deferral):
        """Batch-1 serving and the Fig. 12 decode path share one price:
        a 32-token-context serving step is the paper-path decode
        throughput to within 0.1%, with Expert Deferral off and at the
        paper's per-model deferral count."""
        nd = preset.deferred_experts_bf16 if deferral else 0
        session = InferenceSession(
            MoETransformer(tiny_config("tiny-qw", top_k=6)), preset,
            n_deferred=nd)
        serving = 1e6 / session.costs.decode_step_us([32])
        paper = run_decode(KTRANSFORMERS, preset, paper_testbed("a100"),
                           n_deferred=nd).tokens_per_s
        assert serving == pytest.approx(paper, rel=1e-3)


_LINDLEY_SESSIONS: dict = {}


def _lindley_session(preset, n_deferred):
    key = (preset.name, n_deferred)
    if key not in _LINDLEY_SESSIONS:
        _LINDLEY_SESSIONS[key] = InferenceSession(
            MoETransformer(tiny_config("tiny-qw", top_k=6)), preset,
            n_deferred=n_deferred)
    return _LINDLEY_SESSIONS[key]


@settings(max_examples=20, deadline=None)
@given(preset=st.sampled_from([DS3, DS2, QW2]),
       n_deferred=st.sampled_from([0, 2]), rho=st.floats(0.3, 2.0),
       shapes=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 8)),
                       min_size=2, max_size=12),
       seed=st.integers(0, 2**16))
def test_batch1_fifo_is_a_lindley_queue(preset, n_deferred, rho, shapes,
                                        seed):
    """Batch-1 FIFO serving is a single-server queue: each request starts
    at ``max(arrival, previous start + S)`` and finishes ``S_i`` later,
    ``S`` being a request's service time when served alone."""
    session = _lindley_session(preset, n_deferred)
    requests = [GenerationRequest(np.arange(p) % 60 + 1, max_new_tokens=n)
                for p, n in shapes]
    service = []
    for req in requests:
        alone, = batch1(session).replay([TimedRequest(0.0, req)]).timings
        service.append(alone.finish_us - alone.start_us)
    gaps = np.random.default_rng(seed).exponential(
        np.mean(service) / rho, len(requests))
    arrivals = [float(a) for a in np.cumsum(gaps)]
    timings = batch1(session).replay(
        [TimedRequest(a, r) for a, r in zip(arrivals, requests)]).timings
    assert len(timings) == len(requests)
    start = -np.inf
    for t, arrival, s, prev in zip(
            sorted(timings, key=lambda t: t.arrival_us), arrivals, service,
            [0.0] + service):
        start = max(arrival, start + prev)
        assert t.arrival_us == arrival
        assert t.start_us == pytest.approx(start, rel=1e-9)
        assert t.finish_us == pytest.approx(start + s, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(preset=st.sampled_from([DS3, DS2, QW2]),
       n_deferred=st.sampled_from([0, 2]), batch=st.integers(1, 16),
       prompt_len=st.integers(1, 300), n_out=st.integers(1, 8))
def test_batched_burst_is_the_pricers_sum(preset, n_deferred, batch,
                                          prompt_len, n_out):
    """``batch`` identical requests arriving together, with no chunking,
    ample KV and no optional subsystem, run one monolithic prefill pass
    and then ``n_out`` steps of the whole batch: every TTFT is the pass
    plus the first step's price, and every finish the pass plus the step
    prices at the growing contexts, summed in serving order."""
    session = _lindley_session(preset, n_deferred)
    config = BatchSchedulerConfig()
    assert batch <= config.max_batch_size
    assert batch * (prompt_len + n_out + config.page_tokens) \
        <= config.kv_budget_tokens
    requests = [GenerationRequest(np.arange(prompt_len) % 60 + 1,
                                  max_new_tokens=n_out)
                for _ in range(batch)]
    timings = ContinuousBatchingServer(session, config).replay(
        [TimedRequest(0.0, r) for r in requests]).timings
    costs = BatchCostModel(session)
    clock = 0.0
    clock += costs.batched_prefill_us(batch * prompt_len)
    steps = [costs.decode_step_us([prompt_len + i] * batch)
             for i in range(n_out)]
    first = clock + steps[0]
    for step in steps:
        clock += step
    assert len(timings) == batch
    for t in timings:
        assert t.start_us == 0.0
        assert t.ttft_us == first
        assert t.finish_us == clock


class TestBatch1Server:
    def test_replay_fifo(self, session):
        server = batch1(session)
        workload = [
            TimedRequest(0.0, GenerationRequest(np.array([1, 2]),
                                                max_new_tokens=3)),
            TimedRequest(1.0, GenerationRequest(np.array([3, 4]),
                                                max_new_tokens=3)),
        ]
        stats = server.replay(workload)
        assert stats.n_requests == 2
        t0, t1 = stats.timings
        assert t1.start_us >= t0.finish_us  # batch-1 FIFO

    def test_queueing_under_load(self, session):
        """Arrivals faster than service accumulate queue delay."""
        server = batch1(session)
        reqs = [TimedRequest(float(i), GenerationRequest(np.array([1, 2]),
                                                         max_new_tokens=4))
                for i in range(5)]
        stats = server.replay(reqs)
        delays = [t.queue_delay_us for t in stats.timings]
        assert delays[-1] > delays[0]
        assert server.timeline.peak_batch_size == 1

    def test_empty_workload_rejected(self, session):
        with pytest.raises(ConfigError):
            batch1(session).replay([])

    def test_summary_keys(self, session):
        server = batch1(session)
        wl = poisson_workload(4, 1e6, prompt_len=4, max_new_tokens=3,
                              vocab_size=session.model.config.vocab_size)
        stats = server.replay(wl)
        summary = stats.summary()
        for key in ("ttft_p50_ms", "ttft_p95_ms", "tpot_p50_ms",
                    "queue_p95_ms", "tokens_per_s"):
            assert key in summary


class TestWorkloads:
    def test_poisson_workload_shape(self):
        wl = poisson_workload(10, 1000.0, prompt_len=8, max_new_tokens=4,
                              vocab_size=32, seed=1)
        assert len(wl) == 10
        arrivals = [t.arrival_us for t in wl]
        assert arrivals == sorted(arrivals)
        assert all(len(t.request.prompt) == 8 for t in wl)

    def test_poisson_invalid(self):
        with pytest.raises(ConfigError):
            poisson_workload(0, 1.0, 1, 1, 10)


class TestOutputLength:
    def test_stop_token_ends_request_in_both_servers(self, session):
        """A stop token ends the request where greedy generation emits
        it, in the batch-1 and the continuous server alike."""
        prompt = np.array([3, 1, 4, 1, 5])
        tokens = session.generate(
            GenerationRequest(prompt, max_new_tokens=8)).tokens
        k = next(i for i in range(1, len(tokens))
                 if tokens[i] not in tokens[:i])
        stop = GenerationRequest(prompt, max_new_tokens=8,
                                 stop_token=int(tokens[k]))
        assert session.output_length(stop) == k + 1
        workload = [TimedRequest(0.0, stop),
                    TimedRequest(0.0, GenerationRequest(prompt, 8))]
        for server in (batch1(session), ContinuousBatchingServer(session)):
            stats = server.replay(workload)
            assert sorted(t.generated_tokens for t in stats.timings) == [
                k + 1, 8]

    def test_lengths_need_no_forward_pass(self, session, monkeypatch):
        """Without stop tokens neither server runs the functional model,
        and the replay is bit-identical to one with a working model."""
        workload = poisson_workload(
            6, 2e5, prompt_len=8, max_new_tokens=5,
            vocab_size=session.model.config.vocab_size, seed=3)
        want = [batch1(session).replay(workload).summary(),
                ContinuousBatchingServer(session).replay(workload).summary()]

        def no_forward(*args, **kwargs):
            raise AssertionError("functional forward pass ran")
        monkeypatch.setattr(session.model, "generate", no_forward)
        got = [batch1(session).replay(workload).summary(),
               ContinuousBatchingServer(session).replay(workload).summary()]
        assert got == want

    def test_stop_token_length_prices_nothing(self):
        """Finding where a stop token lands runs the functional model
        only: no prefill pass or decode step is priced and memoized."""
        session = InferenceSession(MoETransformer(tiny_config("tiny-qw")),
                                   DS3)
        n = session.output_length(
            GenerationRequest(np.array([3, 1, 4]), 8, stop_token=5))
        assert 1 <= n <= 8
        assert not session.costs._prices and not session.costs._prefill
