"""Tests for trace persistence and the command-line interface."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.experiments.traces import record_trace
from repro.hardware import SimConfig, simulate_trace
from repro.runtime.trace import READ, SYNC, WRITE, Trace, TraceEvent
from repro.workloads import get_benchmark


class TestTracePersistence:
    def small_trace(self):
        return Trace(
            per_thread={
                1: [
                    TraceEvent(WRITE, 0x1000, 8, gap=3),
                    TraceEvent(SYNC, gap=1, sync_name="Release"),
                    TraceEvent(READ, 0x1000, 4, private=True, gap=0),
                ],
                2: [TraceEvent(READ, 0x2000, 1, gap=7)],
            }
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        original = self.small_trace()
        original.save(path)
        loaded = Trace.load(path)
        assert loaded.per_thread == original.per_thread

    def test_format_is_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.small_trace().save(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["tid"] == 1
        assert len(record["events"]) == 3

    def test_simulation_identical_after_roundtrip(self, tmp_path):
        trace = record_trace(get_benchmark("fft"), scale="test")
        path = tmp_path / "fft.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        a = simulate_trace(trace, SimConfig(detection=True))
        b = simulate_trace(loaded, SimConfig(detection=True))
        assert a.cycles == b.cycles

    def test_empty_lines_ignored(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.small_trace().save(path)
        path.write_text(path.read_text() + "\n\n")
        assert Trace.load(path).total_events == 4


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lu_cb" in out and "canneal" in out

    def test_bench(self, capsys):
        assert cli_main(["bench", "swaptions", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "full CLEAN slowdown" in out

    def test_bench_racy(self, capsys):
        assert cli_main(["bench", "canneal", "--scale", "test", "--racy"]) == 0
        out = capsys.readouterr().out
        assert "race =" in out

    def test_trace_and_simulate(self, tmp_path, capsys):
        out_file = str(tmp_path / "trace.jsonl")
        assert cli_main(["trace", "swaptions", out_file]) == 0
        assert cli_main(["simulate", out_file]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_simulate_precise_unit(self, tmp_path, capsys):
        out_file = str(tmp_path / "trace.jsonl")
        cli_main(["trace", "swaptions", out_file])
        assert cli_main(["simulate", out_file, "--unit", "precise"]) == 0

    def test_simulate_empty_trace(self, tmp_path, capsys):
        """Zero baseline cycles must not divide by zero."""
        out_file = str(tmp_path / "empty.trace")
        Trace().save(out_file)
        assert cli_main(["simulate", out_file]) == 0
        out = capsys.readouterr().out
        assert "baseline cycles   0" in out
        assert "slowdown          1.000x" in out

    def test_check_torn(self, capsys):
        assert cli_main(["check", "torn", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "stopped 3/3" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["experiment", "fig99"]) == 2

    def test_experiment_fig7(self, capsys):
        assert cli_main(["experiment", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "lu_cb" in out
