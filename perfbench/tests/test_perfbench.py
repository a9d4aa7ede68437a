"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

Samples run on shrunken workloads (the request-count constants of
``workloads`` set before the build) so the suite takes well under a
minute; the full-size runs are the benchmark's own job.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _sample(*args, check=True, prelude=""):
    """Run one sample process; returns (returncode, parsed JSON, stderr)."""
    code = (f"import sys\nsys.path.insert(0, {str(BENCH)!r})\n"
            f"import sample\nimport workloads\n{prelude}\n"
            f"sys.exit(sample.main({list(args)!r}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env={**run.os.environ, **run.CHILD_ENV})
    if check:
        assert proc.returncode == 0, proc.stderr
    out = (json.loads(proc.stdout.strip().splitlines()[-1])
           if proc.returncode == 0 else None)
    return proc.returncode, out, proc.stderr


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A small traced fleet sample: every layer but the storm's shows up."""
    trace_dir = tmp_path_factory.mktemp("trace")
    _, out, _ = _sample("--workload", "sessions-fleet", "--seed", "3",
                        "--trace", str(trace_dir),
                        prelude="workloads.FLEET_SESSIONS = 8")
    return out


def test_benchmark_json_matches_printed_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = {name: unit for name, unit in run.WALL_METRICS
               + run.SIM_METRICS}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == printed
    layers = set(traced["layers"]) | {"serving.continuous.wall_us_per_iter",
                                      "trace.replay_s",
                                      "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m
        assert m["unit"] == printed.get(m["name"], run.layer_unit(m["name"]))
    assert [w["name"] for w in spec["workloads"]] == list(
        run.workloads.WORKLOADS)


def test_same_seed_reproduces_sim_metrics_and_digest():
    small = "workloads.STORM_REQUESTS = 24"
    _, first, _ = _sample("--workload", "storm", "--seed", "5", prelude=small)
    _, again, _ = _sample("--workload", "storm", "--seed", "5", prelude=small)
    _, other, _ = _sample("--workload", "storm", "--seed", "6", prelude=small)
    assert first["sim"] == again["sim"]
    assert first["sim_digest"] == again["sim_digest"]
    assert other["sim_digest"] != first["sim_digest"]


def test_traced_self_times_fit_inside_traced_replay(traced):
    layers = traced["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < self_total <= traced["replay_s"]
    assert layers["serving.fleet.resubmitted"] >= 0
    assert layers["serving.prefix_cache.calls"] > 0
    assert layers["moe.expert_cache.calls"] == 0
    chrome = json.loads(Path(traced["trace_files"][1]).read_text())
    assert len(chrome["traceEvents"]) == layers["trace.spans"] + 1


def test_broken_invariant_exits_nonzero():
    # Lose the third finished request: submitted != finished + shed.
    prelude = (
        "workloads.SHORT_REQUESTS = 12\n"
        "from repro.serving.metrics import ServingStats\n"
        "_add, _seen = ServingStats.add, []\n"
        "def _lossy_add(self, timing):\n"
        "    _seen.append(timing)\n"
        "    if len(_seen) != 3:\n"
        "        _add(self, timing)\n"
        "ServingStats.add = _lossy_add\n")
    code, out, err = _sample("--workload", "short-unshared", "--seed", "1",
                             check=False, prelude=prelude)
    assert code != 0 and out is None
    assert "check failed: conservation" in err


def test_fails_without_the_program(tmp_path):
    # A checkout holding only the benchmark cannot build the simulator:
    # the command must fail without printing a result.
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("tests", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
