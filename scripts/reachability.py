"""Which functions in ``src/`` only the tier-1 tests reach.

Profiles (``sys.setprofile``) every run that uses the library outside its
tests: ``pytest benchmarks --benchmark-disable``, the examples, the CLI
commands (``repro report`` and ``--machine`` included), the CI's
artifact-registry check and the seed-1 and seed-2 perfbench replays of
every workload, run as they are.  It then profiles a tier-1 run and
prints the functions reached only by tier-1 and those reached by
nothing, each with its line count (a nested function's lines count
towards it, not towards the function around it).

    python scripts/reachability.py [--report FILE] [--root DIR]

Each run is a fresh child process; the whole measurement takes about
four times as long as tier-1 plus ``pytest benchmarks``.  It exits 0
whatever it finds: the lists include test oracles (the reference
kernels) that are meant to be reached only by tests.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

WORKLOADS = ("short-unshared", "storm", "sessions-fleet")

# The CI step that checks every emitted artifact is registered.
REGISTRY_CHECK = """
import pathlib
from repro.bench.registry import artifact_files
on_disk = {p.name for p in pathlib.Path('benchmarks').glob('BENCH_*.json')}
assert not on_disk - artifact_files(), sorted(on_disk - artifact_files())
"""


def outside_runs(root: Path, scratch: Path) -> list[list[str]]:
    """Every non-tier-1 run, as the argv after ``python``."""
    runs = [["-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
             "-p", "no:cacheprovider"]]
    runs += [[str(p)] for p in sorted((root / "examples").glob("*.py"))]
    machine = str(root / "examples" / "machines" / "epyc_4090.yaml")
    cli = [["simulate"], ["simulate", "--phase", "prefill"],
           ["simulate", "--defer", "2", "--model", "qw2", "--gpu", "4080"],
           ["simulate", "--machine", machine], ["compare"], ["plan"],
           ["trace", "--out", str(scratch / "decode_trace.json")],
           ["report"], ["calibrate"], ["demo"]]
    runs += [["-m", "repro", *args] for args in cli]
    runs.append(["-c", REGISTRY_CHECK])
    runs += [[str(root / "perfbench" / "sample.py"), "--workload", w,
              "--seed", str(seed)] for seed in (1, 2) for w in WORKLOADS]
    return runs


TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


def child(out: str, argv: list[str]) -> None:
    """Run ``python *argv`` in this process under the profiler and write
    the ``[file, first line]`` of every code object it called to ``out``."""
    seen: dict[int, object] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code

    status = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        elif argv[0] == "-c":
            sys.argv = ["-c"]
            code = compile(argv[1], "<string>", "exec")
            exec(code, {"__name__": "__main__"})
        else:
            sys.argv = argv
            sys.path.insert(0, str(Path(argv[0]).resolve().parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(bool(exc.code))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        codes = [(c.co_filename, c.co_firstlineno) for c in seen.values()]
        Path(out).write_text(json.dumps(codes))
    sys.exit(status)


def reached(root: Path, argv: list[str], scratch: Path) -> set:
    """``(file, first line)`` of every code object ``argv`` called."""
    out = scratch / "reached.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, __file__, "--child", str(out), "--", *argv]
    print("==", " ".join(argv).strip().splitlines()[0], flush=True)
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)
    if done.returncode:
        print(f"   exited with status {done.returncode}", flush=True)
    return {(str(Path(f).resolve()), line)
            for f, line in json.loads(out.read_text())}


FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions(src: Path) -> dict:
    """``(file, first line) -> (qualified name, own lines)`` of every
    function under ``src``; a function starts at its first decorator, as
    its code object does."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        rel = path.relative_to(src.parent)

        def visit(node, prefix):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, FUNCTION):
                    first = min([sub.lineno] +
                                [d.lineno for d in sub.decorator_list])
                    lines = set(range(first, sub.end_lineno + 1))
                    for inner in ast.walk(sub):
                        if inner is not sub and isinstance(inner, FUNCTION):
                            lines -= set(range(inner.lineno,
                                               inner.end_lineno + 1))
                    found[(str(path.resolve()), first)] = (
                        f"{rel}:{first} {prefix}{sub.name}", len(lines))
                    visit(sub, f"{prefix}{sub.name}.")
                elif isinstance(sub, ast.ClassDef):
                    visit(sub, f"{prefix}{sub.name}.")
                else:
                    visit(sub, prefix)

        visit(tree, "")
    return found


def report(defs: dict, outside: set, tier1: set) -> str:
    """The two lists and their totals, as text."""
    only = sorted(k for k in defs if k in tier1 and k not in outside)
    never = sorted(k for k in defs if k not in tier1 and k not in outside)
    total = sum(n for __, n in defs.values())
    text = [f"src/ defines {len(defs)} functions ({total} lines)."]
    for title, keys in (("reached only by tier-1", only),
                        ("reached by nothing", never)):
        lines = sum(defs[k][1] for k in keys)
        text.append(f"\n{len(keys)} functions ({lines} lines) {title}:")
        text += [f"  {defs[k][1]:4d}  {defs[k][0]}" for k in keys]
    return "\n".join(text) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the report to this file")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args()
    if args.child:
        child(args.child, rest[1:] if rest[:1] == ["--"] else rest)
    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        outside = set()
        for argv in outside_runs(root, scratch):
            outside |= reached(root, argv, scratch)
        tier1 = reached(root, TIER1, scratch)
    text = report(functions(root / "src" / "repro"), outside, tier1)
    print(text)
    if args.report is not None:
        args.report.write_text(text)


if __name__ == "__main__":
    main()
