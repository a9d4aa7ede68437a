"""Serving-latency characterization of the KTransformers deployment.

Not a paper figure, but the quantity local users feel: time-to-first-token
and time-per-output-token under increasing request rates, served one
request at a time (the serving engine at ``max_batch_size=1``, the
paper's local deployment) with simulated DS-3-scale costs and output
lengths from the session.
"""

from repro.bench import format_table
from repro.model import DS3, MoETransformer, tiny_config
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    InferenceSession,
    poisson_workload,
)


def _latency_sweep():
    model = MoETransformer(tiny_config("tiny-qw", top_k=6))
    session = InferenceSession(model, DS3, n_deferred=3)
    rows = []
    for label, interarrival_s in (("light (1 req/min)", 60.0),
                                  ("moderate (1 req/10s)", 10.0),
                                  ("heavy (1 req/2s)", 2.0)):
        server = ContinuousBatchingServer(
            session, BatchSchedulerConfig(max_batch_size=1))
        workload = poisson_workload(
            n_requests=8,
            mean_interarrival_us=interarrival_s * 1e6,
            prompt_len=32,
            max_new_tokens=8,
            vocab_size=model.config.vocab_size,
            seed=3,
        )
        s = server.replay(workload).summary()
        rows.append((label, s["ttft_p50_ms"], s["ttft_p95_ms"],
                     s["tpot_p50_ms"], s["queue_p95_ms"]))
    return rows


def test_serving_latency(run_once):
    rows = run_once(_latency_sweep)
    print()
    print(format_table(
        ["load", "TTFT p50 (ms)", "TTFT p95 (ms)", "TPOT p50 (ms)",
         "queue p95 (ms)"],
        rows,
        title="Local serving latency, DS-3-scale costs (batch 1, deferral on)",
    ))
    light, moderate, heavy = rows
    # Per-output-token latency is load-independent (batch 1).
    assert abs(light[3] - heavy[3]) < 1.0
    # Queueing delay grows with load.
    assert heavy[4] >= moderate[4] >= light[4]
    # Unloaded TTFT is prefill-dominated: a 32-token prompt on the 671B
    # model costs a few seconds at short-prompt prefill rates.
    assert light[1] < 5000.0
