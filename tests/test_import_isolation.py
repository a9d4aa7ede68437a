"""Every ``repro`` subpackage imports on its own.

``repro/__init__`` imports the subpackages in an order that can hide an
import cycle between them.  Each check runs a fresh interpreter that
registers ``repro`` as a bare namespace (its ``__init__`` never runs) and
imports one subpackage, as a caller importing only that subpackage
would see it once the top-level re-exports change.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SUBPACKAGES = sorted(p.parent.name
                     for p in (SRC / "repro").glob("*/__init__.py"))

_PROGRAM = """
import importlib, sys, types
bare = types.ModuleType("repro")
bare.__path__ = [sys.argv[1]]
sys.modules["repro"] = bare
importlib.import_module("repro." + sys.argv[2])
"""


def test_every_subpackage_is_listed():
    assert {"model", "moe", "serving", "sched", "core"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_alone(name):
    done = subprocess.run(
        [sys.executable, "-c", _PROGRAM, str(SRC / "repro"), name],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
