"""Serving a local deployment: sessions, streaming, latency under load.

Couples the functional tiny model (real tokens) with DS-3-scale simulated
costs, streams tokens with their simulated timestamps, then replays a
bimodal chat workload through the serving engine at batch size 1 (the
paper's local deployment) and reports TTFT/TPOT percentiles -- the
numbers a local user actually feels.

Run:  python examples/local_serving.py
"""

import numpy as np

from repro import DS3, MoETransformer, tiny_config
from repro.bench.workloads import (ChatRequestSpec, chat_workload_lengths,
                                   expected_tokens)
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    GenerationRequest,
    InferenceSession,
    TimedRequest,
)


def main() -> None:
    model = MoETransformer(tiny_config("tiny-qw", top_k=6))
    session = InferenceSession(model, DS3, n_deferred=3)
    print(f"Session: functional {model.n_parameters():,}-param model, "
          f"costs priced as {DS3.display_name} with 3 deferred experts\n")

    # -- streaming one request ---------------------------------------------
    print("Streaming generation (token, simulated time):")
    req = GenerationRequest(prompt=np.array([1, 2, 3, 4]), max_new_tokens=6)
    session.generate(
        req,
        on_token=lambda tok, us: print(f"   t={us / 1e3:8.1f} ms  token {tok}"),
    )

    # -- a chat workload, served one request at a time ----------------------
    # Prompts are clipped to 512 and outputs to 12 tokens to keep the
    # functional model's work small.
    specs = [ChatRequestSpec(min(s.prompt_tokens, 512),
                             min(s.generate_tokens, 12))
             for s in chat_workload_lengths(n_requests=10, seed=4)]
    p_total, g_total = expected_tokens(specs)
    print(f"\nReplaying {len(specs)} chat requests "
          f"({p_total} prompt + {g_total} generated tokens)...")
    rng = np.random.default_rng(0)
    workload = []
    t = 0.0
    for spec in specs:
        t += rng.exponential(20e6)  # ~1 request / 20 s
        workload.append(TimedRequest(
            arrival_us=t,
            request=GenerationRequest(
                prompt=rng.integers(1, model.config.vocab_size,
                                    size=spec.prompt_tokens),
                max_new_tokens=spec.generate_tokens,
            ),
        ))
    server = ContinuousBatchingServer(session,
                                      BatchSchedulerConfig(max_batch_size=1))
    stats = server.replay(workload)
    summary = stats.summary()
    print("Latency summary:")
    for key in ("ttft_p50_ms", "ttft_p95_ms", "tpot_p50_ms",
                "queue_p95_ms", "tokens_per_s"):
        print(f"  {key:14s} {summary[key]:10.2f}")


if __name__ == "__main__":
    main()
