"""Chunked prefill with decode piggybacking vs the monolithic scheduler.

Sweeps prefill chunk size x arrival rate over one Poisson workload
(QW2-scale simulated costs, output lengths from the session),
comparing the monolithic boundary-pass scheduler against hybrid
iterations, and emits the trajectory -- per-arm percentile latencies,
goodput, chunked/hybrid iteration counts -- to
``benchmarks/BENCH_chunked_prefill.json``.

QW2 costs (64 routed experts, top-8) put the decode batch in the
expert-saturated regime the piggybacking argument needs: a near-capacity
batch already streams most of the expert pool from DRAM every iteration,
so a prompt chunk's marginal expert cost is small and hybrid iterations
stay close to pure-decode cost.  (A DS3-scale pool -- 256 experts -- is
far from saturation at batch 16, so chunking there pays the full expert
streaming bill per chunk; the monolithic pass remains the right call.)

The headline claim checked here: at the PR-1 saturation arrival rate
(5 req/s), chunked prefill cuts TPOT p95 to <= 0.5x the monolithic arm
at equal-or-better request throughput, while the chunk-size sweep
exposes the classic TTFT/TPOT frontier (small chunks: smoothest decode,
slowest prompt turnaround).
"""

import json
import math
from pathlib import Path

from repro.bench import format_table
from repro.model import QW2, MoETransformer, tiny_config
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    InferenceSession,
    ServingSLO,
    poisson_workload,
)

RATES = (
    ("moderate (1 req/2s)", 2.0),
    ("saturation (5 req/s)", 0.2),
)
CHUNK_SIZES = (128, 256, 512)
HEADLINE_CHUNK = 512
N_REQUESTS = 14
PROMPT_LEN = 640
MAX_NEW_TOKENS = 8
KV_BUDGET = 8192
MAX_BATCH = 16
SLO = ServingSLO(ttft_ms=60_000.0, tpot_ms=2_000.0)
OUT_PATH = Path(__file__).parent / "BENCH_chunked_prefill.json"


def _arm_config(chunk_tokens):
    return BatchSchedulerConfig(
        kv_budget_tokens=KV_BUDGET, max_batch_size=MAX_BATCH,
        prefill_chunk_tokens=chunk_tokens)


def _run_arm(session, workload, chunk_tokens):
    server = ContinuousBatchingServer(session, _arm_config(chunk_tokens))
    stats = server.replay(list(workload))
    return {
        "chunk_tokens": chunk_tokens,
        "summary": stats.summary(),
        "goodput": stats.goodput(SLO),
        "n_iterations": server.timeline.n_iterations,
        "n_chunked_iterations": server.timeline.n_chunked_iterations,
        "n_hybrid_iterations": server.timeline.n_hybrid_iterations,
        "timeline": server.timeline.as_dict(),
    }


def _sweep():
    model = MoETransformer(tiny_config("tiny-qw", top_k=6))
    session = InferenceSession(model, QW2)
    results = []
    for label, interarrival_s in RATES:
        workload = poisson_workload(
            n_requests=N_REQUESTS,
            mean_interarrival_us=interarrival_s * 1e6,
            prompt_len=PROMPT_LEN,
            max_new_tokens=MAX_NEW_TOKENS,
            vocab_size=model.config.vocab_size,
            seed=3,
        )
        mono = _run_arm(session, workload, None)
        chunked = [_run_arm(session, workload, c) for c in CHUNK_SIZES]
        results.append({
            "label": label,
            "interarrival_s": interarrival_s,
            "monolithic": mono,
            "chunked": chunked,
        })
    return results


def test_chunked_prefill(run_once):
    results = run_once(_sweep)
    OUT_PATH.write_text(json.dumps(
        {"model_costs": QW2.name,
         "workload": {"n_requests": N_REQUESTS, "prompt_len": PROMPT_LEN,
                      "max_new_tokens": MAX_NEW_TOKENS,
                      "kv_budget_tokens": KV_BUDGET,
                      "max_batch_size": MAX_BATCH},
         "slo": {"ttft_ms": SLO.ttft_ms, "tpot_ms": SLO.tpot_ms},
         "headline_chunk_tokens": HEADLINE_CHUNK,
         "rates": results}, indent=2))

    rows = []
    for r in results:
        mono = r["monolithic"]["summary"]
        rows.append((r["label"], "monolithic",
                     mono["requests_per_s"], 1.0,
                     mono["ttft_p95_ms"] / 1e3, mono["tpot_p95_ms"] / 1e3,
                     r["monolithic"]["goodput"]["attainment"]))
        for arm in r["chunked"]:
            s = arm["summary"]
            rows.append((r["label"], f"chunk={arm['chunk_tokens']}",
                         s["requests_per_s"],
                         s["tpot_p95_ms"] / mono["tpot_p95_ms"],
                         s["ttft_p95_ms"] / 1e3, s["tpot_p95_ms"] / 1e3,
                         arm["goodput"]["attainment"]))
    print()
    print(format_table(
        ["load", "arm", "req/s", "TPOT p95 vs mono",
         "TTFT p95 (s)", "TPOT p95 (s)", "SLO attainment"],
        rows,
        title="Chunked prefill vs monolithic (QW2-scale costs, 14 reqs)",
    ))

    for r in results:
        for arm in [r["monolithic"]] + r["chunked"]:
            s = arm["summary"]
            assert math.isfinite(s["ttft_p95_ms"]) and s["ttft_p95_ms"] > 0
            assert math.isfinite(s["tpot_p95_ms"]) and s["tpot_p95_ms"] > 0
            assert s["ttft_p50_ms"] <= s["ttft_p95_ms"] <= s["ttft_p99_ms"]
            assert s["tpot_p50_ms"] <= s["tpot_p95_ms"] <= s["tpot_p99_ms"]
            # KV occupancy stayed within budget the whole run.
            assert all(p["kv_used_tokens"] <= KV_BUDGET
                       for p in arm["timeline"]["iterations"])
        # The monolithic arm never chunks; every chunked arm actually ran
        # hybrid (decode + chunk) iterations.
        assert r["monolithic"]["n_chunked_iterations"] == 0
        for arm in r["chunked"]:
            assert arm["n_hybrid_iterations"] > 0

    saturated = results[-1]
    assert saturated["label"].startswith("saturation")
    mono = saturated["monolithic"]["summary"]

    # Headline: every chunk size at least halves the TPOT p95 tail at
    # saturation, and the headline chunk does it at better-or-equal
    # request throughput (within the 5% acceptance band).
    for arm in saturated["chunked"]:
        assert arm["summary"]["tpot_p95_ms"] <= 0.5 * mono["tpot_p95_ms"]
    headline = next(a for a in saturated["chunked"]
                    if a["chunk_tokens"] == HEADLINE_CHUNK)
    assert (headline["summary"]["requests_per_s"]
            >= 0.95 * mono["requests_per_s"])

    # The TTFT/TPOT frontier: growing the chunk budget strictly improves
    # prompt turnaround (TTFT tail) while giving back some decode
    # smoothness (TPOT tail never *below* the smallest chunk's by much).
    ttfts = [a["summary"]["ttft_p95_ms"] for a in saturated["chunked"]]
    assert ttfts == sorted(ttfts, reverse=True)
    tpots = [a["summary"]["tpot_p95_ms"] for a in saturated["chunked"]]
    assert tpots[-1] >= 0.95 * tpots[0]
