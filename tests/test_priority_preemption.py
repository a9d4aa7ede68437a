"""Unit tests for priority-aware preemptive scheduling (ISSUE 5).

Covers the :class:`~repro.serving.priority.PriorityConfig` policy
surface, the swap/recompute preemption state machine in
``ContinuousBatchingServer``, the swap/recompute pricing helpers, and
the interplay with resilience shedding.  The FIFO bit-identity and fuzz
properties live in ``test_continuous_fuzz.py`` / the goldens in
``test_golden_regression.py``.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.model import DS3, MoETransformer, tiny_config
from repro.sched.decode import kv_swap_transfer_us
from repro.sched.workload import ACTIVATION_BYTES, kv_token_bytes
from repro.serving import (
    BatchCostModel,
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    GenerationRequest,
    InferenceSession,
    Priority,
    PriorityConfig,
    ResilienceConfig,
    TimedRequest,
    poisson_workload,
)

_SESSION = None


def get_session():
    global _SESSION
    if _SESSION is None:
        _SESSION = InferenceSession(MoETransformer(tiny_config("tiny-qw")),
                                    DS3)
    return _SESSION


def mixed_workload(n_batch=4, n_inter=4, batch_prompt=48, inter_prompt=8):
    """BATCH hogs arriving early, INTERACTIVE arrivals spread behind them."""
    batch = poisson_workload(n_batch, 2e5, prompt_len=batch_prompt,
                             max_new_tokens=16, vocab_size=64, seed=1,
                             priority=Priority.BATCH)
    inter = poisson_workload(n_inter, 3e6, prompt_len=inter_prompt,
                             max_new_tokens=4, vocab_size=64, seed=2,
                             priority=Priority.INTERACTIVE)
    return batch + inter


def serve(workload, priorities, **cfg):
    cfg.setdefault("kv_budget_tokens", 128)
    cfg.setdefault("max_batch_size", 2)
    server = ContinuousBatchingServer(
        get_session(), BatchSchedulerConfig(**cfg), priorities=priorities)
    stats = server.replay(list(workload))
    return server, stats


def assert_drained(server):
    """Pages freed exactly once: nothing left allocated, stashed, reserved."""
    assert server.pool.n_slots == 0
    assert server.pool.used_tokens == 0
    assert server.pool.n_swapped == 0
    assert server.pool.swapped_tokens == 0
    assert server._reserved_pages == 0
    assert not server._preempted


class TestPriorityConfig:
    def test_defaults_valid(self):
        cfg = PriorityConfig()
        assert cfg.preemption and cfg.mechanism == "auto"

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            PriorityConfig(aging_us=0.0)
        with pytest.raises(ConfigError):
            PriorityConfig(mechanism="teleport")
        with pytest.raises(ConfigError):
            PriorityConfig(max_preemptions=-1)

    def test_aging_promotes_one_class_per_interval(self):
        cfg = PriorityConfig(aging_us=1e6)
        batch = int(Priority.BATCH)
        assert cfg.effective_priority(batch, 0.0, 0.5e6) == 2
        assert cfg.effective_priority(batch, 0.0, 1.0e6) == 1
        assert cfg.effective_priority(batch, 0.0, 2.0e6) == 0
        # Clamped at INTERACTIVE; never negative.
        assert cfg.effective_priority(batch, 0.0, 99e6) == 0

    def test_aging_none_is_static(self):
        cfg = PriorityConfig(aging_us=None)
        assert cfg.effective_priority(int(Priority.BATCH), 0.0, 1e12) == 2

    def test_clock_before_arrival_never_promotes(self):
        cfg = PriorityConfig(aging_us=1e6)
        assert cfg.effective_priority(int(Priority.BATCH), 5e6, 0.0) == 2


class TestPreemptionMechanisms:
    def test_auto_preempts_and_drains(self):
        server, stats = serve(mixed_workload(),
                              PriorityConfig(aging_us=None))
        p = stats.preemptions
        assert p.preemptions >= 1
        assert p.resumes + p.shed_while_preempted == p.preemptions
        assert_drained(server)

    def test_forced_swap_counts_bytes_both_ways(self):
        server, stats = serve(mixed_workload(),
                              PriorityConfig(aging_us=None,
                                             mechanism="swap"))
        p = stats.preemptions
        assert p.swaps == p.preemptions >= 1
        assert p.recomputes == 0
        # Every swap-out that resumed paid the return leg too.
        assert p.swap_in_bytes == p.swap_out_bytes > 0
        assert p.swap_stall_us > 0
        assert_drained(server)

    def test_forced_recompute_rebuilds_context(self):
        server, stats = serve(mixed_workload(),
                              PriorityConfig(aging_us=None,
                                             mechanism="recompute"))
        p = stats.preemptions
        assert p.recomputes == p.preemptions >= 1
        assert p.swaps == 0
        assert p.swap_out_bytes == 0.0
        assert p.recompute_tokens > 0
        assert_drained(server)

    def test_token_conservation_across_mechanisms(self):
        """Preemption changes *when* tokens emit, never *what* emits."""
        wl = mixed_workload()
        _, fifo = serve(wl, None)
        expected = [(t.arrival_us, t.prompt_tokens, t.generated_tokens)
                    for t in sorted(fifo.timings, key=lambda t: t.arrival_us)]
        for mech in ("auto", "swap", "recompute"):
            _, stats = serve(wl, PriorityConfig(aging_us=None,
                                                mechanism=mech))
            got = [(t.arrival_us, t.prompt_tokens, t.generated_tokens)
                   for t in sorted(stats.timings,
                                   key=lambda t: t.arrival_us)]
            assert got == expected, mech

    def test_interactive_latency_improves_over_fifo(self):
        wl = mixed_workload()
        _, fifo = serve(wl, None)
        _, prio = serve(wl, PriorityConfig(aging_us=None))

        def inter_ttft(stats):
            return np.mean([t.ttft_us for t in stats.timings
                            if t.priority == int(Priority.INTERACTIVE)])

        assert prio.preemptions.preemptions >= 1
        assert inter_ttft(prio) < inter_ttft(fifo)

    def test_max_preemptions_bounds_evictions(self):
        server, stats = serve(mixed_workload(n_batch=6, n_inter=6),
                              PriorityConfig(aging_us=None,
                                             max_preemptions=1))
        # No request is ever evicted more often than the cap.
        assert all(t.generated_tokens > 0 for t in stats.timings)
        assert_drained(server)

    def test_preemption_disabled_never_evicts(self):
        server, stats = serve(mixed_workload(),
                              PriorityConfig(aging_us=None,
                                             preemption=False))
        assert stats.preemptions.preemptions == 0
        assert_drained(server)

    def test_timeline_tracks_preempted_count(self):
        server, stats = serve(mixed_workload(),
                              PriorityConfig(aging_us=None,
                                             mechanism="swap"))
        assert stats.preemptions.preemptions >= 1
        assert any(p.n_preempted > 0 for p in server.timeline.points)
        assert server.timeline.points[-1].n_preempted == 0

    def test_summary_carries_preempt_and_class_keys(self):
        _, stats = serve(mixed_workload(), PriorityConfig(aging_us=None))
        s = stats.summary()
        assert s["preempt_total"] == stats.preemptions.preemptions
        assert "interactive_ttft_p95_ms" in s
        assert "batch_ttft_p95_ms" in s


class TestPreemptionWithChunkedPrefill:
    def test_recompute_resumes_through_chunked_prefill(self):
        server, stats = serve(
            mixed_workload(),
            PriorityConfig(aging_us=None, mechanism="recompute"),
            prefill_chunk_tokens=8)
        assert stats.preemptions.recomputes >= 1
        assert_drained(server)
        # Re-prefill work shows up as chunked iterations.
        assert any(p.chunk_tokens > 0 for p in server.timeline.points)

    def test_swap_under_chunking_drains(self):
        server, stats = serve(
            mixed_workload(),
            PriorityConfig(aging_us=None, mechanism="swap"),
            prefill_chunk_tokens=8)
        assert stats.preemptions.swaps >= 1
        assert_drained(server)


class TestPreemptionVsShedding:
    def test_parked_victim_sheds_on_decode_timeout(self):
        wl = mixed_workload(n_batch=6, n_inter=6)
        server = ContinuousBatchingServer(
            get_session(),
            BatchSchedulerConfig(kv_budget_tokens=128, max_batch_size=2),
            priorities=PriorityConfig(aging_us=None, mechanism="swap"),
            resilience=ResilienceConfig(decode_timeout_us=10e6))
        stats = server.replay(list(wl))
        p = stats.preemptions
        assert p.shed_while_preempted >= 1
        assert stats.faults.timed_out_requests >= p.shed_while_preempted
        # Shed-while-preempted requests appear in timings as timed out;
        # their pages were released at eviction and only once.
        assert_drained(server)
        shed = [t for t in stats.timings if t.timed_out]
        assert shed
        for t in shed:
            assert t.arrival_us <= t.start_us <= t.first_token_us <= t.finish_us

    def test_recomputed_prefill_shed_keeps_first_emission(self):
        """A recompute victim that already emitted and is mid-prefill
        again when the decode timeout fires keeps its first emission as
        its first token; only a request that never emitted pins to the
        shed time."""
        def request(prompt_len, new_tokens, arrival_us, priority):
            return TimedRequest(arrival_us, GenerationRequest(
                prompt=np.arange(1, prompt_len + 1),
                max_new_tokens=new_tokens), priority)

        server = ContinuousBatchingServer(
            get_session(),
            BatchSchedulerConfig(max_batch_size=1, prefill_chunk_tokens=8),
            priorities=PriorityConfig(aging_us=None, mechanism="recompute"),
            resilience=ResilienceConfig(decode_timeout_us=28e6))
        stats = server.replay([request(64, 64, 0.0, Priority.BATCH),
                               request(8, 4, 13e6, Priority.INTERACTIVE)])
        assert stats.preemptions.recomputes == 1
        (hog,) = [t for t in stats.timings if t.priority == Priority.BATCH]
        assert hog.timed_out and 0 < hog.generated_tokens < 64
        assert hog.first_token_us == pytest.approx(12.05e6, rel=1e-3)
        assert hog.first_token_us < 13e6 < 28e6 < hog.finish_us
        assert_drained(server)


class TestPreemptionPricing:
    def test_kv_token_bytes_presets(self):
        assert kv_token_bytes(DS3) == DS3.kv_rank * ACTIVATION_BYTES
        mha = tiny_config("tiny-qw")
        if mha.kv_rank == 0:
            assert kv_token_bytes(mha) == 2 * mha.hidden * ACTIVATION_BYTES

    def test_swap_transfer_matches_roofline(self):
        costs = BatchCostModel(get_session())
        link = get_session().machine.interconnect
        direct = kv_swap_transfer_us(32, kv_token_bytes(DS3), DS3.n_layers,
                                     link)
        assert costs.swap_transfer_us(32) == pytest.approx(direct)
        assert costs.swap_transfer_us(0) == 0.0
        assert costs.kv_swap_bytes(32) == 32 * kv_token_bytes(DS3) * DS3.n_layers

    def test_swap_zero_tokens_free_positive_monotone(self):
        link = get_session().machine.interconnect
        assert kv_swap_transfer_us(0, 1024.0, 61, link) == 0.0
        a = kv_swap_transfer_us(16, 1024.0, 61, link)
        b = kv_swap_transfer_us(64, 1024.0, 61, link)
        assert 0.0 < a < b

    def test_recompute_resume_reuses_prefill_memo(self):
        costs = BatchCostModel(get_session())
        assert costs.recompute_resume_us(0) == 0.0
        assert (costs.recompute_resume_us(48)
                == costs.batched_prefill_us(48))

    def test_degraded_link_tilts_auto_toward_recompute(self):
        """A degraded PCIe link raises the swap price; recompute's CPU
        re-prefill estimate is unchanged -- the cost-model inputs the
        mechanism decision is made from."""
        from repro.hw.roofline import degraded_link
        costs = BatchCostModel(get_session())
        link = get_session().machine.interconnect
        slow = degraded_link(link, pcie_scale=0.05)
        assert (costs.swap_transfer_us(64, slow)
                > 10 * costs.swap_transfer_us(64, link))
        assert costs.recompute_resume_us(64) == costs.recompute_resume_us(64)
