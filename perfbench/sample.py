"""One benchmark sample: build a seeded workload, replay it once, check it.

Run by ``perfbench/run.py`` as a fresh process per sample, so every
sample pays the import and the simulator's lazy first-use costs, as
every real simulator run does.  Prints one JSON object on stdout::

    python3 perfbench/sample.py --workload storm --seed 1 [--trace DIR]

``t_replay`` is ``time.perf_counter()`` (the system-wide monotonic clock)
at the first ``replay()`` call; ``run.py`` subtracts its own reading at
spawn to get ``setup_s``.  ``replay_s`` covers ``replay()`` plus the
``summary()``/``goodput()`` reduction.  With ``--trace DIR`` the layers
are wrapped (see :mod:`tracing`), per-layer figures are added, and the
spans are written to DIR.  A failed check exits with status 3 and names
the check on stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks      # noqa: E402  (after the path setup above)
import tracing     # noqa: E402
import workloads   # noqa: E402


def _servings(stats) -> list:
    """The per-epoch ``ServingStats`` behind a (possibly fleet) result."""
    return list(getattr(stats, "epoch_stats", [stats]))


def sim_metrics(prepared, stats, summary: dict, goodput: dict) -> dict:
    """End-to-end metrics on the simulated clock (deterministic per seed)."""
    merged = getattr(stats, "merged", stats)
    submitted = len(prepared.workload)
    failed = merged.n_shed + sum(t.timed_out for t in merged.timings)
    return {
        "sim_ttft_p50_ms": summary["ttft_p50_ms"],
        "sim_ttft_p95_ms": summary["ttft_p95_ms"],
        "sim_tpot_p50_ms": summary["tpot_p50_ms"],
        "sim_tpot_p95_ms": summary["tpot_p95_ms"],
        "sim_goodput_rps": goodput["goodput_requests_per_s"],
        "sim_output_tok_s": summary["tokens_per_s"],
        "served_frac": 1.0 - failed / submitted,
        "ttft_samples": len(merged.timings),
        "tpot_samples": sum(1 for t in merged.timings if t.tpot_us > 0),
    }


def layer_metrics(tracer, prepared, stats, summary: dict) -> dict:
    """Per-layer wall and simulated figures of a traced replay."""
    times = tracer.layer_times()
    count = tracer.counters
    servings = _servings(stats)
    servers = [s for s in prepared.servers if s.timeline.n_iterations]

    def stat_sum(attr: str, field: str) -> float:
        return sum(getattr(getattr(s, attr), field)
                   for s in servings if getattr(s, attr) is not None)

    out: dict[str, float] = {}
    for layer in ("serving.session", "kernels", "model.attention",
                  tracing.COST_LAYER, "sched.decode", "hw.event_sim",
                  "moe.expert_cache", "faults.injector", "model.paged",
                  "serving.prefix_cache", "serving.controller",
                  "serving.metrics", "serving.continuous"):
        out[f"{layer}.calls"] = times[layer]["calls"]
        out[f"{layer}.self_s"] = times[layer]["self_s"]
    priced = count[f"{tracing.COST_LAYER}.priced"]
    out[f"{tracing.COST_LAYER}.priced_calls"] = priced
    out[f"{tracing.COST_LAYER}.memo_hit_ratio"] = (
        1.0 - count[f"{tracing.COST_LAYER}.misses"] / priced
        if priced else 0.0)
    out["serving.session.tokens"] = count["serving.session.tokens"]
    out["kernels.gflop"] = count["kernels.gflop"]
    out["kernels.mb_moved"] = count["kernels.mb_moved"]
    out["hw.event_sim.tasks"] = count["hw.event_sim.tasks"]

    hits = sum(p.hit_tokens for s in servings if s.expert_cache is not None
               for p in s.expert_cache.points)
    seen = hits + sum(p.miss_tokens for s in servings
                      if s.expert_cache is not None
                      for p in s.expert_cache.points)
    out["moe.expert_cache.sim_hit_rate"] = hits / seen if seen else 0.0
    out["moe.expert_cache.sim_stall_ms"] = sum(
        s.expert_cache.total_stall_us for s in servings
        if s.expert_cache is not None) / 1e3
    out["faults.injector.sim_stall_ms"] = stat_sum(
        "faults", "fault_stall_us") / 1e3
    out["faults.injector.upload_failures"] = stat_sum(
        "faults", "upload_failures")
    out["sched.cuda_graph.lookups"] = times["sched.cuda_graph"]["calls"]
    out["sched.cuda_graph.captures"] = count["sched.cuda_graph.captures"]
    out["sched.cuda_graph.sim_capture_ms"] = stat_sum(
        "graphs", "capture_stall_us") / 1e3
    out["model.paged.sim_swap_stall_ms"] = stat_sum(
        "preemptions", "swap_stall_us") / 1e3
    out["serving.continuous.preemptions"] = stat_sum(
        "preemptions", "preemptions")
    prompt = stat_sum("sessions", "prompt_tokens_total")
    out["serving.prefix_cache.reuse_frac"] = (
        stat_sum("sessions", "prefill_tokens_avoided") / prompt
        if prompt else 0.0)
    out["serving.prefix_cache.sim_swap_in_stall_ms"] = stat_sum(
        "sessions", "swap_in_stall_us") / 1e3
    fleet = times["serving.fleet"]
    out["serving.fleet.self_s"] = fleet["self_s"]
    routed = sum(getattr(stats, "routed", []))
    out["serving.fleet.affinity_frac"] = (
        stats.affinity_hits / routed if routed else 0.0)
    out["serving.fleet.resubmitted"] = getattr(stats, "resubmitted", 0)
    out["serving.controller.moves"] = stat_sum("controller", "moves")
    iterations = sum(s.timeline.n_iterations for s in servers)
    out["serving.continuous.iterations"] = iterations
    out["serving.continuous.sim_queue_p95_ms"] = summary["queue_p95_ms"]
    out["serving.continuous.sim_mean_batch"] = (
        sum(s.timeline.mean_batch_size * s.timeline.n_iterations
            for s in servers) / iterations if iterations else 0.0)
    out["serving.continuous.sim_peak_kv_frac"] = max(
        (s.timeline.peak_kv_occupancy for s in servers), default=0.0)
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=Path, default=None, metavar="DIR",
                        help="wrap the layers and write spans to DIR")
    args = parser.parse_args(argv)

    spec = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace is not None:
        tracer = tracing.install()
    prepared = spec.build(args.seed)

    t_replay = time.perf_counter()
    if tracer is not None:
        tracer.start({id(t.request): i
                      for i, t in enumerate(prepared.workload)})
    stats = prepared.replay(list(prepared.workload))
    summary = stats.summary()
    goodput = stats.goodput(prepared.slo)
    replay_s = time.perf_counter() - t_replay
    if tracer is not None:
        tracer.stop()

    try:
        checks.run_all(prepared, stats, summary)
    except checks.CheckFailed as exc:
        print(exc, file=sys.stderr)
        return 3
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "t_replay": t_replay,
        "replay_s": replay_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "submitted": len(prepared.workload),
        "sim": sim_metrics(prepared, stats, summary, goodput),
        "sim_digest": checks.sim_digest(stats),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, prepared, stats, summary)
        stem = f"{args.workload}-seed{args.seed}"
        out["trace_files"] = [str(p) for p in tracer.write(args.trace, stem)]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
