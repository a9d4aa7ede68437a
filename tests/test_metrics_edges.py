"""Edge cases for serving metrics: empty, single-sample, degenerate streams.

Every path must either return a finite value or raise the typed
``ConfigError`` -- never crash with an unhandled exception, divide by
zero, or emit NaN/inf from finite input.  The percentile helpers are
also checked against ``np.percentile``, NaN and inf inputs included.
"""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serving import (
    BatchTimeline,
    CachePoint,
    ExpertCacheTimeline,
    Priority,
    RequestTiming,
    ServingSLO,
    ServingStats,
    percentile,
    percentiles,
)


def timing(arrival=0.0, start=1.0, first=2.0, finish=10.0,
           prompt=4, generated=5):
    return RequestTiming(arrival_us=arrival, start_us=start,
                         first_token_us=first, finish_us=finish,
                         prompt_tokens=prompt, generated_tokens=generated)


def assert_all_finite(d):
    for key, value in d.items():
        assert math.isfinite(value), f"{key} is {value}"


class TestPercentileEdges:
    def test_empty_raises_typed_error(self):
        with pytest.raises(ConfigError):
            percentile([], 95)
        with pytest.raises(ConfigError):
            percentiles([])

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0
        p = percentiles([7.0])
        assert p == {"p50": 7.0, "p95": 7.0, "p99": 7.0}

    def test_all_identical(self):
        p = percentiles([3.0] * 100)
        assert p["p50"] == p["p95"] == p["p99"] == 3.0

    def test_nan_input_gives_nan(self):
        assert math.isnan(percentile([1.0, math.nan, 2.0], 50))
        assert all(math.isnan(v) for v in percentiles([math.nan]).values())

    def test_pct_outside_range_raises_typed_error(self):
        for pct in (-1, 101, math.nan):
            with pytest.raises(ConfigError):
                percentile([1.0, 2.0], pct)


@st.composite
def _samples(draw):
    """1-300 values drawn from a small pool: duplicates, negatives, and
    sometimes +-inf or NaN."""
    pool = draw(st.lists(st.one_of(st.floats(-1e9, 1e9),
                                   st.integers(-50, 50).map(float)),
                         min_size=1, max_size=20))
    pool += draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                          max_size=2))
    n = draw(st.integers(1, 300))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


_PCTS = st.one_of(st.sampled_from([0, 50, 95, 99, 100]), st.floats(0, 100))


def _np_percentile(values, pct):
    with np.errstate(invalid="ignore"):     # inf - inf, as the pure path
        return np.percentile(np.asarray(values, dtype=np.float64), pct)


def _same(got, want) -> bool:
    """Equal bit for bit; NaN matches NaN, and a zero result matches
    either sign (numpy's partition leaves +-0.0 in unspecified order)."""
    want = float(want)
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    if got == 0.0:
        return want == 0.0
    return struct.pack("<d", got) == struct.pack("<d", want)


@settings(max_examples=150, deadline=None)
@given(values=_samples(), pct=_PCTS)
def test_percentile_equals_numpy_bit_for_bit(values, pct):
    assert _same(percentile(values, pct), _np_percentile(values, pct))
    want = _np_percentile(values, (50, 95, 99))
    got = percentiles(values)
    assert all(_same(got[k], w) for k, w in zip(("p50", "p95", "p99"), want))


def test_serving_loop_imports_neither_numpy_ma_nor_yaml():
    """A replay and its summary stay off ``numpy.ma`` (which the first
    ``np.percentile`` call imported) and PyYAML (only rule and machine
    files need it), in a fresh interpreter."""
    code = """
import sys
from repro.model import DS3, MoETransformer, tiny_config
from repro.serving import (BatchSchedulerConfig, ContinuousBatchingServer,
                           InferenceSession, ServingSLO, poisson_workload)
session = InferenceSession(MoETransformer(tiny_config("tiny-qw", top_k=2)),
                           DS3)
server = ContinuousBatchingServer(session, BatchSchedulerConfig(
    kv_budget_tokens=4096, max_batch_size=16))
stats = server.replay(poisson_workload(24, 6e6, 32, 12, 64, seed=1))
stats.summary()
stats.goodput(ServingSLO(6_000.0, 1_500.0))
print(sorted({"numpy.ma", "yaml"} & set(sys.modules)))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


class TestServingStatsEdges:
    def test_empty_stream_raises_typed_error(self):
        stats = ServingStats()
        with pytest.raises(ConfigError):
            stats.summary()
        with pytest.raises(ConfigError):
            stats.goodput(ServingSLO(ttft_ms=1.0, tpot_ms=1.0))

    def test_single_sample_finite(self):
        stats = ServingStats(timings=[timing()])
        s = stats.summary()
        assert_all_finite(s)
        assert s["requests"] == 1.0
        assert s["ttft_p50_ms"] == s["ttft_p95_ms"] == s["ttft_p99_ms"]
        assert s["tokens_per_s"] > 0

    def test_single_token_request_has_zero_tpot(self):
        stats = ServingStats(timings=[timing(generated=1)])
        s = stats.summary()
        assert_all_finite(s)
        assert s["tpot_p50_ms"] == s["tpot_p95_ms"] == 0.0

    def test_zero_span_yields_zero_throughput_not_nan(self):
        # All timestamps coincide: the span is zero and throughput must
        # degrade to 0.0, never divide by zero.
        t = timing(arrival=5.0, start=5.0, first=5.0, finish=5.0,
                   generated=1)
        stats = ServingStats(timings=[t])
        s = stats.summary()
        assert_all_finite(s)
        assert s["tokens_per_s"] == 0.0
        assert s["requests_per_s"] == 0.0
        g = stats.goodput(ServingSLO(ttft_ms=1.0, tpot_ms=1.0))
        assert_all_finite(g)
        assert g["goodput_requests_per_s"] == 0.0
        assert g["attainment"] == 1.0      # zero-latency request meets any SLO

    def test_all_identical_latencies(self):
        stats = ServingStats(timings=[timing() for _ in range(10)])
        s = stats.summary()
        assert_all_finite(s)
        assert s["ttft_p50_ms"] == s["ttft_p99_ms"]
        assert s["tpot_p50_ms"] == s["tpot_p99_ms"]

    def test_goodput_boundary_is_inclusive(self):
        t = timing(arrival=0.0, start=0.0, first=1000.0, finish=2000.0,
                   generated=2)          # ttft 1 ms, tpot 1 ms exactly
        stats = ServingStats(timings=[t])
        exact = stats.goodput(ServingSLO(ttft_ms=1.0, tpot_ms=1.0))
        assert exact["attainment"] == 1.0
        tighter = stats.goodput(ServingSLO(ttft_ms=0.999, tpot_ms=1.0))
        assert tighter["attainment"] == 0.0


SLO = ServingSLO(ttft_ms=1.0, tpot_ms=1.0)


class TestGoodputSpanFix:
    """ISSUE 5 satellite: the goodput span must cover *all* submissions.

    Pre-fix, the span came from completed timings only, so shed
    submissions outside that window inflated ``goodput_requests_per_s``.
    """

    def test_shed_arrivals_extend_the_span(self):
        # One completed request spanning [0, 1e6] us; a straggler shed at
        # arrival 9e6 us.  Pre-fix span = 1 s -> goodput 1.0 req/s; the
        # submitted span is 9 s -> goodput 1/9 req/s.
        t = timing(arrival=0.0, start=0.0, first=500.0, finish=1e6,
                   generated=2000)       # meets the 1ms/1ms SLO
        stats = ServingStats(timings=[t])
        stats.record_shed(arrival_us=9e6)
        g = stats.goodput(SLO)
        assert g["good_requests"] == 1.0
        assert g["submitted_requests"] == 2.0
        assert g["attainment"] == 0.5
        assert g["goodput_requests_per_s"] == pytest.approx(1.0 / 9.0)

    def test_early_shed_arrival_anchors_span_start(self):
        t = timing(arrival=5e6, start=5e6, first=5e6 + 500.0, finish=6e6,
                   generated=2000)
        stats = ServingStats(timings=[t])
        stats.record_shed(arrival_us=0.0)
        g = stats.goodput(SLO)
        # Span runs from the shed arrival (0) to the finish (6e6).
        assert g["goodput_requests_per_s"] == pytest.approx(1.0 / 6.0)

    def test_no_shed_matches_completed_span(self):
        t = timing(arrival=0.0, start=0.0, first=500.0, finish=1e6,
                   generated=2000)
        stats = ServingStats(timings=[t])
        assert (stats.goodput(SLO)["goodput_requests_per_s"]
                == pytest.approx(1.0))

    def test_per_class_goodput_filters_but_keeps_span(self):
        fast = RequestTiming(arrival_us=0.0, start_us=0.0,
                             first_token_us=500.0, finish_us=1e6,
                             prompt_tokens=4, generated_tokens=2000,
                             priority=int(Priority.INTERACTIVE))
        slow = RequestTiming(arrival_us=0.0, start_us=0.0,
                             first_token_us=5e6, finish_us=9e6,
                             prompt_tokens=4, generated_tokens=2,
                             priority=int(Priority.BATCH))
        stats = ServingStats(timings=[fast, slow])
        g_int = stats.goodput(SLO, priority=int(Priority.INTERACTIVE))
        assert g_int["submitted_requests"] == 1.0
        assert g_int["attainment"] == 1.0
        # The span stays the full submitted span (9 s), so per-class
        # goodputs are comparable across classes.
        assert g_int["goodput_requests_per_s"] == pytest.approx(1.0 / 9.0)
        g_bat = stats.goodput(SLO, priority=int(Priority.BATCH))
        assert g_bat["attainment"] == 0.0


class TestAllShedDegradedSummary:
    """ISSUE 5 satellite: 100%-shed chaos storms must not crash reporting.

    Pre-fix, ``summary()``/``goodput()`` raised ``ConfigError`` whenever
    ``timings`` was empty -- even when shed submissions prove traffic
    existed.  They now return zeroed results with ``degraded_summary``.
    """

    def test_summary_zeroed_with_flag(self):
        stats = ServingStats()
        stats.record_shed(arrival_us=1.0)
        stats.record_shed(arrival_us=2.0)
        s = stats.summary()                # pre-fix: raised ConfigError
        assert_all_finite(s)
        assert s["degraded_summary"] == 1.0
        assert s["requests"] == 0.0
        assert s["ttft_p95_ms"] == 0.0
        assert s["tokens_per_s"] == 0.0

    def test_goodput_zeroed_with_flag(self):
        stats = ServingStats()
        stats.record_shed(arrival_us=1.0)
        g = stats.goodput(SLO)             # pre-fix: raised ConfigError
        assert_all_finite(g)
        assert g["degraded_summary"] == 1.0
        assert g["good_requests"] == 0.0
        assert g["submitted_requests"] == 1.0
        assert g["attainment"] == 0.0

    def test_truly_empty_still_raises(self):
        stats = ServingStats()
        with pytest.raises(ConfigError):
            stats.summary()
        with pytest.raises(ConfigError):
            stats.goodput(SLO)


class TestPerClassSummary:
    def test_single_class_adds_no_class_keys(self):
        stats = ServingStats(timings=[timing() for _ in range(3)])
        assert not any(k.startswith("standard_") for k in stats.summary())

    def test_mixed_classes_flatten_breakdown(self):
        fast = RequestTiming(arrival_us=0.0, start_us=0.0,
                             first_token_us=100.0, finish_us=1e4,
                             prompt_tokens=4, generated_tokens=5,
                             priority=int(Priority.INTERACTIVE))
        stats = ServingStats(timings=[timing(), fast])
        s = stats.summary()
        assert s["interactive_requests"] == 1.0
        assert s["standard_requests"] == 1.0
        assert s["interactive_ttft_p95_ms"] == pytest.approx(0.1)
        by_class = stats.class_summary()
        assert set(by_class) == {"interactive", "standard"}


class TestTimelineEdges:
    def test_empty_batch_timeline(self):
        tl = BatchTimeline(kv_budget_tokens=128)
        assert tl.n_iterations == 0
        assert tl.peak_batch_size == 0
        assert tl.mean_batch_size == 0.0
        assert tl.peak_kv_occupancy == 0.0
        assert tl.as_dict()["iterations"] == []

    def test_empty_cache_timeline(self):
        tl = ExpertCacheTimeline()
        assert tl.hit_rate == 0.0
        assert tl.total_evictions == 0
        assert tl.total_bytes_transferred == 0.0
        assert_all_finite(tl.summary())
        assert tl.as_dict()["iterations"] == []

    def test_cache_point_zero_tokens(self):
        p = CachePoint(t_us=1.0, hit_tokens=0, miss_tokens=0, uploads=0,
                       evictions=0, bytes_transferred=0.0, stall_us=0.0)
        assert p.hit_rate == 0.0

    def test_cache_timeline_weighted_hit_rate(self):
        tl = ExpertCacheTimeline()
        tl.record(1.0, hit_tokens=9, miss_tokens=1, uploads=0, evictions=0,
                  bytes_transferred=0.0, stall_us=0.0)
        tl.record(2.0, hit_tokens=0, miss_tokens=10, uploads=1, evictions=1,
                  bytes_transferred=5.0, stall_us=2.0)
        assert tl.hit_rate == pytest.approx(9 / 20)   # token-weighted
        s = tl.summary()
        assert s["cache_evictions"] == 1.0
        assert s["cache_bytes_transferred_mb"] == pytest.approx(5e-6)
        assert s["cache_stall_ms"] == pytest.approx(2e-3)
