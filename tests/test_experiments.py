"""Integration tests: every experiment harness regenerates the paper's
qualitative results (shape, ordering, who-wins), at reduced scale."""

import pytest

from repro.experiments import fig6_software, fig7_freq, fig8_vector
from repro.experiments import fig9_hardware, fig10_breakdown, fig11_epochsize
from repro.experiments import sec62_detection, table1_rollover
from repro.experiments.common import (
    ExperimentResult,
    geomean,
    mean_ci,
    render_table,
)
from repro.experiments.traces import record_all_traces


@pytest.fixture(scope="module")
def hw_traces():
    """Shared traces for the hardware experiments (test scale)."""
    return record_all_traces(scale="test")


class TestCommonHelpers:
    def test_experiment_result_rows(self):
        r = ExperimentResult("X", "t", ["a", "b"])
        r.add_row("k", 1.0)
        assert r.column("b") == [1.0]
        assert r.row_for("k") == ["k", 1.0]
        with pytest.raises(KeyError):
            r.row_for("missing")
        with pytest.raises(ValueError):
            r.add_row("only-one")

    def test_render_contains_rows(self):
        r = ExperimentResult("X", "title", ["name", "value"])
        r.add_row("fft", 1.5)
        text = r.render()
        assert "fft" in text and "1.500" in text and "title" in text

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_mean_ci(self):
        mean, half = mean_ci([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert half > 0
        assert mean_ci([5.0]) == (5.0, 0.0)

    def test_mean_ci_uses_requested_confidence(self):
        """Regression: non-0.95 confidences silently used the 99% z-value
        (2.576); each level must get its own two-sided normal quantile."""
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        expected_z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
        halves = {}
        for confidence, z in expected_z.items():
            mean, half = mean_ci(values, confidence=confidence)
            assert mean == pytest.approx(3.0)
            halves[confidence] = half
            # Recover the z-value the implementation used.
            import math
            import statistics

            used = half * math.sqrt(len(values)) / statistics.stdev(values)
            assert used == pytest.approx(z, abs=1e-3), confidence
        assert halves[0.90] < halves[0.95] < halves[0.99]

    def test_mean_ci_rejects_bad_confidence(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                mean_ci([1.0, 2.0], confidence=bad)

    def test_add_failure_keeps_table_rectangular(self):
        r = ExperimentResult("X", "t", ["benchmark", "a", "b", "c"])
        r.add_row("ok_bench", 1.0, 2.0, 3.0)
        r.add_failure("bad_bench", "RuntimeError: it broke")
        assert len(r.rows) == 2
        assert len(r.rows[1]) == len(r.columns)
        assert r.failures == ["X/bad_bench: RuntimeError: it broke"]
        text = r.render()
        assert "FAILED: RuntimeError: it broke" in text
        # A long error is truncated in the cell, kept whole in failures.
        r.add_failure("worse", "E" * 100)
        assert any(len(str(v)) <= 40 for v in r.rows[2])
        assert r.failures[1].endswith("E" * 100)

    def test_render_table_alignment(self):
        text = render_table(["col"], [["x"], ["longer"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1


class TestFig6:
    def test_headline_shape(self):
        result = fig6_software.run(scale="test")
        assert len(result.rows) == 25  # canneal excluded
        detection = result.column("detection only")
        full = result.column("full CLEAN")
        mean_det = sum(detection) / len(detection)
        mean_full = sum(full) / len(full)
        # Paper: detection 5.8x of full 7.8x.
        assert 4.5 < mean_det < 7.5
        assert 6.0 < mean_full < 10.0
        assert mean_full > mean_det

    def test_lu_benchmarks_worst(self):
        result = fig6_software.run(scale="test")
        by_det = sorted(
            zip(result.column("detection only"), result.column("benchmark")),
            reverse=True,
        )
        worst_two = {name for _, name in by_det[:2]}
        assert worst_two == {"lu_cb", "lu_ncb"}

    def test_streamcluster_sync_speedup(self):
        result = fig6_software.run(scale="test")
        assert result.row_for("streamcluster")[1] < 1.0


class TestAggregateFailurePayloads:
    def test_fig7_aggregate_handles_error_payload(self):
        payloads = [
            {"benchmark": "fft", "density": 0.1, "detection": 2.0},
            {"benchmark": "barnes", "error": "Timeout: job exceeded 5.0s"},
            {"benchmark": "lu_cb", "density": 0.4, "detection": 6.0},
        ]
        result = fig7_freq.aggregate(payloads)
        assert len(result.rows) == 3
        assert result.failures == [
            "Figure 7/barnes: Timeout: job exceeded 5.0s"
        ]
        # Summary computed from the surviving payloads only.
        assert any("lu_cb" in line for line in result.summary)

    def test_fig6_aggregate_all_failed_has_no_summary(self):
        result = fig6_software.aggregate(
            [{"benchmark": "fft", "error": "boom"}]
        )
        assert result.summary == []
        assert result.failures


class TestFig7:
    def test_lu_highest_density(self):
        result = fig7_freq.run(scale="test")
        densities = dict(
            zip(result.column("benchmark"), result.column("shared-access density"))
        )
        top2 = sorted(densities, key=densities.get, reverse=True)[:2]
        assert set(top2) == {"lu_cb", "lu_ncb"}

    def test_density_correlates_with_slowdown(self):
        result = fig7_freq.run(scale="test")
        pairs = sorted(
            zip(
                result.column("shared-access density"),
                result.column("detection slowdown"),
            )
        )
        # Spearman-ish: the top-density third must have a higher mean
        # slowdown than the bottom third.
        third = len(pairs) // 3
        low = sum(s for _, s in pairs[:third]) / third
        high = sum(s for _, s in pairs[-third:]) / third
        assert high > low


class TestFig8:
    def test_vectorization_always_helps(self):
        result = fig8_vector.run(scale="test")
        for row in result.rows:
            name, vec, scalar, gain = row[0], row[1], row[2], row[3]
            assert scalar >= vec, name
            assert gain >= 1.0

    def test_measured_properties(self):
        result = fig8_vector.run(scale="test")
        wides = result.column("wide-access %")
        uniforms = result.column("uniform-epoch %")
        assert sum(wides) / len(wides) > 80.0
        assert sum(uniforms) / len(uniforms) > 90.0

    def test_dedup_gains_least(self):
        """dedup's byte-granular accesses defeat the multi-byte fast
        path, so its gain is among the smallest."""
        result = fig8_vector.run(scale="test")
        gains = dict(zip(result.column("benchmark"), result.column("gain")))
        assert gains["dedup"] <= sorted(gains.values())[4]


class TestTable1:
    def test_roster_emerges(self):
        result = table1_rollover.run(scale="simlarge")
        names = set(result.column("benchmark"))
        assert names == set(table1_rollover.PAPER_ROSTER)

    def test_rates_and_costs_in_paper_band(self):
        result = table1_rollover.run(scale="simlarge")
        for row in result.rows:
            name, rollovers, rate, decrease = row
            assert rollovers >= 1
            assert 1.0 < rate < 100.0  # paper band: 4.9 - 34.8
            pct = float(decrease.rstrip("%"))
            assert 0.0 <= pct < 10.0  # paper: <= 2.4%


class TestSec62:
    def test_validation_passes(self):
        result = sec62_detection.run(scale="simsmall", runs=3)
        assert any("17/17" in line for line in result.summary)
        assert any("never raised: True" in line for line in result.summary)
        assert any("deterministic: True" in line for line in result.summary)

    def test_tsan_methodology(self):
        found = sec62_detection.tsan_methodology_check(scale="simsmall")
        assert len(found) == 17
        assert all(found.values()), [k for k, v in found.items() if not v]


class TestHardwareExperiments:
    def test_fig9_shape(self, hw_traces):
        result = fig9_hardware.run(traces=hw_traces)
        slowdowns = dict(
            zip(result.column("benchmark"), result.column("slowdown"))
        )
        mean = sum(slowdowns.values()) / len(slowdowns)
        assert 1.03 < mean < 1.30  # paper: 10.4%
        assert max(slowdowns, key=slowdowns.get) == "dedup"
        assert slowdowns["dedup"] < 1.7  # paper: 46.7%
        assert all(s >= 1.0 for s in slowdowns.values())

    def test_fig10_shape(self, hw_traces):
        result = fig10_breakdown.run(traces=hw_traces)
        expanded = dict(
            zip(result.column("benchmark"), result.column("expanded"))
        )
        # dedup is the only benchmark whose accesses are mostly expanded.
        assert expanded["dedup"] > 50.0
        others = [v for k, v in expanded.items() if k != "dedup"]
        assert max(others) < 10.0
        # expansions are vanishingly rare everywhere (steady state).
        assert max(result.column("expand")) < 0.1

    def test_fig11_shape(self, hw_traces):
        result = fig11_epochsize.run(traces=hw_traces)
        clean = dict(zip(result.column("benchmark"), result.column("CLEAN")))
        bound = dict(
            zip(result.column("benchmark"), result.column("1B epochs"))
        )
        wide = dict(
            zip(result.column("benchmark"), result.column("4B epochs"))
        )
        # CLEAN tracks the 1-byte bound except dedup (paper's finding).
        for name in clean:
            if name != "dedup":
                assert clean[name] == pytest.approx(bound[name], rel=0.05)
        assert clean["dedup"] > bound["dedup"]
        # 4-byte epochs hurt the big-footprint benchmarks most.
        deltas = {k: wide[k] / clean[k] for k in clean}
        worst3 = sorted(deltas, key=deltas.get, reverse=True)[:3]
        assert set(worst3) == {"ocean_cp", "ocean_ncp", "radix"}


class TestHwJob:
    """The merged hw job simulates each distinct configuration once and
    reports its phases as spans; neither changes the payload."""

    def _traced(self, benchmark, **kwargs):
        from repro.experiments import hwjobs
        from repro.obs import MetricsRegistry, Tracer, telemetry_scope

        tracer = Tracer()
        with telemetry_scope(registry=MetricsRegistry(), tracer=tracer):
            payload = hwjobs.compute(benchmark, **kwargs)
        return payload, tracer.finished

    def test_one_simulation_per_distinct_config(self):
        # fft is on the A1 roster: fig9 base/clean, A1 precise, and the
        # four Figure-11 designs on the second (fig11_scale) trace.
        _, spans = self._traced("fft", scale="test", fig11_scale="simsmall")
        records = [s for s in spans if s.name == "hw.record"]
        sims = [s for s in spans if s.name == "hw.simulate"]
        assert [s.attrs["scale"] for s in records] == ["test", "simsmall"]
        assert [(s.attrs["figure"], s.attrs["config"]) for s in sims] == [
            ("fig9", "base"), ("fig9", "clean"),
            ("fig11", "base"), ("fig11", "clean"),
            ("fig11", "epoch1"), ("fig11", "epoch4"),
            ("a1", "precise"),
        ]
        assert all(s.attrs["benchmark"] == "fft" for s in spans)

    def test_payload_matches_unshared_simulations(self):
        from repro.experiments import ablations, hwjobs
        from repro.experiments.traces import record_trace
        from repro.workloads.suite import get_benchmark

        payload, _ = self._traced("barnes", scale="test")
        assert payload == hwjobs.compute("barnes", scale="test")
        trace = record_trace(get_benchmark("barnes"), scale="test")
        assert payload["fig9"] == fig9_hardware.compute("barnes", trace)
        assert payload["fig10"] == fig10_breakdown.compute("barnes", trace)
        assert payload["fig11"] == fig11_epochsize.compute("barnes", trace)
        assert payload["a1"] == ablations.compute_war("barnes", trace)
