"""Tests for the CLI and Chrome-trace export."""

import json

import pytest

from repro.cli import build_parser, main
from repro.hw import Simulator, Trace


class TestChromeTraceExport:
    def _trace(self):
        sim = Simulator()
        cpu = sim.resource("cpu")
        gpu = sim.resource("gpu")
        sim.submit("expert", cpu, 10.0)
        sim.submit("attn", gpu, 5.0)
        sim.drain()
        return Trace.from_simulator(sim)

    def test_event_structure(self):
        doc = self._trace().to_chrome_trace()
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in metas} == {"cpu", "gpu"}
        assert len(spans) == 2
        for s in spans:
            assert s["dur"] > 0 and "ts" in s

    def test_save_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        self._trace().save_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 4

    def test_pids_distinct_per_resource(self):
        doc = self._trace().to_chrome_trace()
        pids = {e["args"]["name"]: e["pid"]
                for e in doc["traceEvents"] if e["ph"] == "M"}
        assert pids["cpu"] != pids["gpu"]


class TestCLI:
    def test_demo(self, capsys):
        assert main(["demo", "--tokens", "3"]) == 0
        out = capsys.readouterr().out
        assert "tiny-ds" in out

    def test_simulate_decode(self, capsys):
        assert main(["simulate", "--model", "qw2", "--tokens", "2"]) == 0
        assert "tokens/s" in capsys.readouterr().out

    def test_simulate_prefill(self, capsys):
        assert main(["simulate", "--phase", "prefill", "--model", "qw2",
                     "--prompt-len", "128"]) == 0
        assert "prefill" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--model", "qw2", "--tokens", "2",
                     "--prompt-len", "128"]) == 0
        out = capsys.readouterr().out
        assert "Fiddler" in out and "KTransformers" in out

    def test_plan(self, capsys):
        assert main(["plan", "--model", "qw2"]) == 0
        out = capsys.readouterr().out
        assert "Deferral" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate"]) == 0
        assert "7/7 anchors within tolerance" in capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Table 1: evaluated models" in out
        assert "Figure 12: decode throughput" in out

    def test_trace_export(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["trace", "--model", "qw2", "--tokens", "1",
                     "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--model", "gpt4"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
