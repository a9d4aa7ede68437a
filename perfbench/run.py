"""The repository benchmark: seeded serving workloads on two clocks.

    python3 perfbench/run.py --workload short-unshared --seed 1 \\
        --seconds 30 --trace 0

The simulator has two clocks and the benchmark reports both:

- *wall-clock* metrics (``setup_s``, ``replay_s``, ``peak_rss_mb``) are
  what the Python simulator costs to run -- what performance and
  simplicity changes claim;
- *simulated* metrics (``sim_*``, ``served_frac``) are the paper's
  serving metrics on the modelled hardware.  They are deterministic per
  seed, so a change that only speeds up the simulator must leave them,
  and the printed ``sim_digest``, bit-identical.

With ``--trace 0`` it spawns one fresh process per sample
(``perfbench/sample.py``), one at a time and single-threaded (BLAS pinned
to one thread), until ``--seconds`` would be exceeded, with at least
``MIN_SAMPLES``; wall metrics are the medians over samples.  Every sample
replays the same seeded workload, and all of them must agree on every
simulated metric and digest.  With ``--trace 1`` it runs untraced/traced
sample pairs the same way, alternating which side runs first, with at
least ``MIN_PAIRS``.  It reports the per-layer metrics as medians over
the traced samples and the tracing overhead as the median of the
per-pair ratios, with the last traced run's spans written under
``.perfbench/``.

``--workload all`` runs every workload in turn and prints each block.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
check exits nonzero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (after the path setup above)

SAMPLE = HERE / "sample.py"
TRACE_DIR = HERE.parent / ".perfbench"
# A 45 s run fits four to seven samples of 5-10 s; on a slow host it
# stops at three rather than overrun, since the runs must also fit the
# benchmark's total time budget.
MIN_SAMPLES = 3
MIN_PAIRS = 2              # traced runs: untraced/traced sample pairs
SAMPLE_TIMEOUT_S = 40      # four samples stay inside the 180 s limit
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

WALL_METRICS = (("setup_s", "s"), ("replay_s", "s"), ("peak_rss_mb", "MB"))
SIM_METRICS = (("sim_ttft_p50_ms", "ms"), ("sim_ttft_p95_ms", "ms"),
               ("sim_tpot_p50_ms", "ms"), ("sim_tpot_p95_ms", "ms"),
               ("sim_goodput_rps", "1/s"), ("sim_output_tok_s", "tok/s"),
               ("served_frac", "frac"))

# Per-layer metric units, by name suffix (first match wins).
LAYER_UNITS = (("self_s", "s"), ("replay_s", "s"), ("_ms", "ms"),
               ("wall_us_per_iter", "us"), ("gflop", "GFLOP"),
               ("mb_moved", "MB"), ("sim_mean_batch", "requests"),
               ("ratio", "frac"), ("frac", "frac"), ("rate", "frac"),
               ("", "count"))


class BenchmarkError(Exception):
    """A sample failed or the samples disagree; no result is printed."""


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def run_sample(workload: str, seed: int, trace: bool = False) -> dict:
    """Spawn one sample process; returns its JSON plus ``setup_s``."""
    cmd = [sys.executable, str(SAMPLE), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd += ["--trace", str(TRACE_DIR)]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S,
                              env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{workload} sample exceeded {SAMPLE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} sample exited {proc.returncode}:\n"
            f"{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, so the child's
    # reading at its first replay() is comparable with ours at spawn.
    out["setup_s"] = out["t_replay"] - t_spawn
    out["duration_s"] = time.perf_counter() - t_spawn
    return out


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced samples until the time is up; returns (metrics, info)."""
    start = time.perf_counter()
    samples: list[dict] = []
    while True:
        samples.append(run_sample(workload, seed))
        elapsed = time.perf_counter() - start
        longest = max(s["duration_s"] for s in samples)
        if len(samples) >= MIN_SAMPLES and elapsed + longest > seconds:
            break
    first = samples[0]
    for s in samples[1:]:
        if s["sim"] != first["sim"] or s["sim_digest"] != first["sim_digest"]:
            raise BenchmarkError(
                f"check failed: replay-determinism: seed {seed} replayed to "
                f"digests {first['sim_digest']} and {s['sim_digest']}")
    metrics = {name: {"value": statistics.median(s[name] for s in samples),
                      "unit": unit} for name, unit in WALL_METRICS}
    metrics.update({name: {"value": first["sim"][name], "unit": unit}
                    for name, unit in SIM_METRICS})
    info = {"samples": len(samples), "submitted": first["submitted"],
            "replay_samples": [s["replay_s"] for s in samples],
            "attempted": sum(s["submitted"] for s in samples),
            "sim_digest": first["sim_digest"],
            "ttft_samples": first["sim"]["ttft_samples"],
            "tpot_samples": first["sim"]["tpot_samples"]}
    return metrics, info


def measure_layers(workload: str, seed: int,
                   seconds: float) -> tuple[dict, dict]:
    """Untraced/traced sample pairs until the time is up; returns
    (metrics, info).

    One pair's difference is mostly host noise, so the overhead is the
    median of the per-pair ratios.  Pairs alternate which side runs
    first, so a host slowing down over the run does not bias it.
    """
    start = time.perf_counter()
    pairs: list[tuple[dict, dict]] = []
    while True:
        traced_first = len(pairs) % 2 == 1
        first = run_sample(workload, seed, trace=traced_first)
        second = run_sample(workload, seed, trace=not traced_first)
        plain, traced = (second, first) if traced_first else (first, second)
        if traced["sim_digest"] != plain["sim_digest"]:
            raise BenchmarkError(
                "check failed: trace-transparency: tracing changed the "
                f"replay digest ({plain['sim_digest']} -> "
                f"{traced['sim_digest']})")
        pairs.append((plain, traced))
        elapsed = time.perf_counter() - start
        longest = max(p["duration_s"] + t["duration_s"] for p, t in pairs)
        if len(pairs) >= MIN_PAIRS and elapsed + longest > seconds:
            break
    # Counts repeat exactly from sample to sample; the median only
    # matters for the wall times.
    layers = {name: statistics.median(t["layers"][name] for _, t in pairs)
              for name in pairs[0][1]["layers"]}
    plain_s = statistics.median(p["replay_s"] for p, _ in pairs)
    layers["serving.continuous.wall_us_per_iter"] = (
        plain_s * 1e6 / layers["serving.continuous.iterations"])
    layers["trace.replay_s"] = statistics.median(
        t["replay_s"] for _, t in pairs)
    layers["trace.overhead_frac"] = statistics.median(
        (t["replay_s"] - p["replay_s"]) / p["replay_s"] for p, t in pairs)
    metrics = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in layers.items()}
    info = {"samples": 2 * len(pairs), "submitted": pairs[0][0]["submitted"],
            "attempted": sum(p["submitted"] + t["submitted"]
                             for p, t in pairs),
            "sim_digest": pairs[0][0]["sim_digest"],
            "trace_files": pairs[-1][1]["trace_files"]}
    return metrics, info


def report(workload: str, seed: int, metrics: dict, info: dict) -> None:
    """Human-readable block: every metric by name, with its unit."""
    spec = workloads.WORKLOADS[workload]
    print(f"== {workload} (seed {seed}): {spec.why}")
    print(f"   bypasses: {spec.bypasses}")
    print(f"   {info['samples']} samples of {info['submitted']} requests"
          + (f"; {info['ttft_samples']} TTFT / {info['tpot_samples']} TPOT "
             "samples per replay" if "ttft_samples" in info else ""))
    if "replay_samples" in info:
        print("   replay_s of each sample: " + " ".join(
            f"{v:.4f}" for v in info["replay_samples"]))
    for name, m in metrics.items():
        print(f"   {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"sim_digest {workload} seed={seed} {info['sim_digest']}")
    for path in info.get("trace_files", ()):
        print(f"   trace written: {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            if args.trace:
                metrics, info = measure_layers(name, args.seed,
                                               args.seconds)
            else:
                metrics, info = measure(name, args.seed, args.seconds)
            report(name, args.seed, metrics, info)
            result["attempted"] += info["attempted"]
            prefix = f"{name}." if len(names) > 1 else ""
            result["metrics"].update(
                {prefix + k: v for k, v in metrics.items()})
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
