"""Benchmark subsystem: registry, runner, baseline files, comparator, CLI."""

import copy
import json
import os

import pytest

from repro import bench
from repro.bench import (
    BenchCase,
    compare_reports,
    environment_differences,
    environment_fingerprint,
    find_baselines,
    iter_benches,
    load_report,
    next_seq,
    register_bench,
    run_benches,
    unregister_bench,
    validate_report,
    write_report,
)
from repro.bench.__main__ import main as bench_main


@pytest.fixture
def fast_bench():
    """A registered throwaway bench that runs in microseconds."""
    name = "test.fast_noop"

    @register_bench(name, group="test", repeats=2, warmup=0)
    def fast_noop():
        def run():
            return sum(range(50))

        return run

    yield name
    unregister_bench(name)


def _small_report(**medians) -> dict:
    results = {}
    for name, median in medians.items():
        results[name] = {
            "group": "test",
            "repeats": 3,
            "warmup": 0,
            "mean_s": median,
            "median_s": median,
            "std_s": 0.0,
            "min_s": median,
            "max_s": median,
            "p95_s": median,
        }
    return {
        "schema": bench.SCHEMA,
        "schema_version": bench.SCHEMA_VERSION,
        "seq": 0,
        "created_at": 0.0,
        "environment": {},
        "config": {},
        "results": results,
    }


def _v1_report(**medians) -> dict:
    """A legacy schema-v1 report: no per-result warmup, raw config."""
    report = _small_report(**medians)
    report["schema"] = "repro.bench/v1"
    report["schema_version"] = 1
    report["config"] = {"repeats": None, "warmup": None, "filter": None}
    for entry in report["results"].values():
        del entry["warmup"]
    return report


class TestRegistry:
    def test_standard_suite_registered(self):
        names = set(bench.bench_names())
        assert "nn.conv2d_forward" in names
        assert "conversion.algorithm1_search" in names
        assert "snn.full_forward_t2" in names

    def test_duplicate_name_rejected(self, fast_bench):
        with pytest.raises(ValueError):
            register_bench(fast_bench)(lambda: (lambda: None))

    def test_filter_and_group(self, fast_bench):
        filtered = list(iter_benches(filter_substring="fast_noop"))
        assert [case.name for case in filtered] == [fast_bench]
        grouped = list(iter_benches(group="test"))
        assert fast_bench in [case.name for case in grouped]

    def test_prepare_returns_callable(self, fast_bench):
        case = bench.get_bench(fast_bench)
        assert isinstance(case, BenchCase)
        assert case.prepare()() == sum(range(50))

    def test_unknown_bench(self):
        with pytest.raises(KeyError):
            bench.get_bench("no.such.bench")


class TestRunner:
    def test_run_benches_report_schema(self, fast_bench):
        report = run_benches(
            filter_substring="fast_noop", repeats=2, warmup=0, verbose=False
        )
        validate_report(report)
        entry = report["results"][fast_bench]
        assert entry["repeats"] == 2
        assert entry["warmup"] == 0
        assert entry["group"] == "test"
        assert entry["median_s"] >= 0.0
        assert entry["p95_s"] >= entry["median_s"] >= entry["min_s"]
        assert report["environment"]["python"]
        json.dumps(report)

    def test_effective_config_persisted(self, fast_bench):
        # No overrides: the case's own policy must land in the report
        # (v1 recorded only nulls here, leaving baselines undescribed).
        report = run_benches(filter_substring="fast_noop", verbose=False)
        assert report["schema"] == "repro.bench/v2"
        assert report["config"]["overrides"] == {
            "repeats": None, "warmup": None,
        }
        assert report["config"]["cases"][fast_bench] == {
            "repeats": 2, "warmup": 0,
        }
        assert report["results"][fast_bench]["repeats"] == 2
        assert report["results"][fast_bench]["warmup"] == 0

    def test_v1_reports_still_validate(self):
        report = _v1_report(k=1.0)
        assert validate_report(report) is report
        # A v2 report without per-result warmup is rejected…
        broken = _small_report(k=1.0)
        del broken["results"]["k"]["warmup"]
        with pytest.raises(ValueError):
            validate_report(broken)
        # …but the same shape under the v1 schema id is fine.
        broken["schema"] = "repro.bench/v1"
        validate_report(broken)

    def test_no_match_rejected(self):
        with pytest.raises(ValueError):
            run_benches(filter_substring="no-such-bench", verbose=False)

    def test_write_load_round_trip(self, tmp_path, fast_bench):
        report = run_benches(
            filter_substring="fast_noop", repeats=1, warmup=0, verbose=False
        )
        path = str(tmp_path / "BENCH_0.json")
        write_report(report, path)
        assert load_report(path)["results"] == report["results"]

    def test_validate_rejects_bad_schema(self):
        with pytest.raises(ValueError):
            validate_report({"schema": "other/v9", "results": {}})
        report = _small_report(k=1.0)
        del report["results"]["k"]["median_s"]
        with pytest.raises(ValueError):
            validate_report(report)
        with pytest.raises(ValueError):
            validate_report({"schema": bench.SCHEMA})

    def test_baseline_sequence(self, tmp_path):
        root = str(tmp_path)
        assert find_baselines(root) == []
        assert next_seq(root) == 0
        for seq in (0, 2):
            write_report(_small_report(k=1.0), str(tmp_path / f"BENCH_{seq}.json"))
        (tmp_path / "BENCH_x.json").write_text("{}")  # non-matching name
        baselines = find_baselines(root)
        assert [seq for seq, _path in baselines] == [0, 2]
        assert next_seq(root) == 3


class TestCompare:
    def test_identical_reports_ok(self):
        report = _small_report(a=0.01, b=0.5)
        comparison = compare_reports(report, copy.deepcopy(report))
        assert comparison.ok
        assert len(comparison.deltas) == 2
        assert all(d.ratio == pytest.approx(1.0) for d in comparison.deltas)
        assert "OK: no regressions" in comparison.render()

    def test_v1_baseline_vs_v2_candidate(self):
        # Migration path: the committed BENCH_0.json is v1; candidates
        # recorded by the current runner are v2.  Both directions work.
        baseline = _v1_report(k=0.010)
        candidate = _small_report(k=0.011)
        assert compare_reports(baseline, candidate).ok
        assert compare_reports(candidate, baseline).ok
        slow = _small_report(k=0.100)
        assert not compare_reports(baseline, slow).ok

    def test_regression_trips_threshold(self):
        baseline = _small_report(slow=0.010)
        candidate = _small_report(slow=0.016)  # +60% past the 50% default
        comparison = compare_reports(baseline, candidate, threshold=0.5)
        assert not comparison.ok
        (delta,) = comparison.regressions
        assert delta.name == "slow"
        assert delta.ratio == pytest.approx(1.6)
        assert "REGRESSED" in comparison.render()

    def test_noisy_median_with_fast_min_not_gated(self):
        # Median doubled, but the best-of-N repeat is as fast as the
        # baseline: scheduler interference, not a code regression.
        baseline = _small_report(k=0.010)
        candidate = _small_report(k=0.022)
        candidate["results"]["k"]["min_s"] = 0.010
        assert compare_reports(baseline, candidate).ok
        # A real regression slows the minimum too.
        candidate["results"]["k"]["min_s"] = 0.021
        assert not compare_reports(baseline, candidate).ok

    def test_speedup_never_trips(self):
        comparison = compare_reports(
            _small_report(k=0.010), _small_report(k=0.001)
        )
        assert comparison.ok

    def test_min_delta_noise_floor(self):
        # 3x relative slowdown, but only 20us absolute: below the floor.
        comparison = compare_reports(
            _small_report(tiny=1e-5), _small_report(tiny=3e-5),
            threshold=0.5, min_delta_s=1e-4,
        )
        assert comparison.ok
        # Drop the floor and the same slowdown trips.
        comparison = compare_reports(
            _small_report(tiny=1e-5), _small_report(tiny=3e-5),
            threshold=0.5, min_delta_s=0.0,
        )
        assert not comparison.ok

    def test_missing_and_added_benches(self):
        comparison = compare_reports(
            _small_report(old=0.01, shared=0.01),
            _small_report(new=0.01, shared=0.01),
        )
        assert comparison.missing == ["old"]
        assert comparison.added == ["new"]
        assert comparison.ok  # structural drift is reported, not gated

    def test_environment_differences(self):
        baseline = _small_report(k=0.01)
        baseline["environment"] = environment_fingerprint()
        candidate = copy.deepcopy(baseline)
        candidate["environment"]["platform"] = "another kernel build"
        assert environment_differences(baseline, candidate) == {}
        candidate["environment"]["cpu_count"] = 64
        candidate["environment"]["numpy"] = "0.0"
        assert environment_differences(baseline, candidate) == {
            "numpy": (baseline["environment"]["numpy"], "0.0"),
            "cpu_count": (baseline["environment"]["cpu_count"], 64),
        }
        del candidate["environment"]
        assert set(environment_differences(baseline, candidate)) == {
            "python", "implementation", "machine", "numpy", "cpu_count",
        }

    def test_bad_threshold_rejected(self):
        report = _small_report(k=1.0)
        with pytest.raises(ValueError):
            compare_reports(report, report, threshold=-0.1)
        with pytest.raises(ValueError):
            compare_reports(report, report, min_delta_s=-1.0)


class TestCli:
    def test_run_writes_next_seq_baseline(self, tmp_path, fast_bench, capsys):
        root = str(tmp_path)
        write_report(_small_report(k=1.0), str(tmp_path / "BENCH_0.json"))
        code = bench_main([
            "--root", root, "run",
            "--filter", "fast_noop", "--repeats", "1", "--warmup", "0",
            "--quiet",
        ])
        assert code == 0
        path = tmp_path / "BENCH_1.json"
        assert path.exists()
        report = load_report(str(path))
        assert report["seq"] == 1
        assert fast_bench in report["results"]
        assert "BENCH_1.json" in capsys.readouterr().out

    def test_run_with_explicit_out(self, tmp_path, fast_bench):
        out = str(tmp_path / "candidate.json")
        code = bench_main([
            "run", "--out", out,
            "--filter", "fast_noop", "--repeats", "1", "--warmup", "0",
            "--quiet",
        ])
        assert code == 0
        assert load_report(out)["seq"] is None

    def test_compare_default_pair_and_gate(self, tmp_path, capsys):
        root = str(tmp_path)
        write_report(_small_report(k=0.010), str(tmp_path / "BENCH_0.json"))
        write_report(_small_report(k=0.011), str(tmp_path / "BENCH_1.json"))
        assert bench_main(["--root", root, "compare"]) == 0
        # Artificially slow the latest baseline past the gate.
        write_report(_small_report(k=0.100), str(tmp_path / "BENCH_2.json"))
        assert bench_main(["--root", root, "compare"]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # A tighter threshold makes even BENCH_1 (+10%) fail.
        assert bench_main([
            "--root", root, "compare",
            "--baseline", str(tmp_path / "BENCH_0.json"),
            "--candidate", str(tmp_path / "BENCH_1.json"),
            "--threshold", "0.05", "--min-delta", "0",
        ]) == 1

    def test_compare_refuses_mixed_environments(self, tmp_path, capsys):
        root = str(tmp_path)
        baseline = _small_report(k=0.010)
        baseline["environment"] = {"python": "3.11.7", "cpu_count": 1}
        candidate = _small_report(k=0.100)
        candidate["environment"] = {"python": "3.11.7", "cpu_count": 2}
        write_report(baseline, str(tmp_path / "BENCH_0.json"))
        write_report(candidate, str(tmp_path / "BENCH_1.json"))
        # Refused (2) before any timing is gated, even a 10x slowdown.
        assert bench_main(["--root", root, "compare"]) == 2
        out = capsys.readouterr().out
        assert "differ in: cpu_count" in out
        assert "REGRESSED" not in out
        candidate["environment"]["cpu_count"] = 1
        write_report(candidate, str(tmp_path / "BENCH_1.json"))
        assert bench_main(["--root", root, "compare"]) == 1

    def test_compare_needs_two_baselines(self, tmp_path):
        write_report(_small_report(k=1.0), str(tmp_path / "BENCH_0.json"))
        with pytest.raises(SystemExit):
            bench_main(["--root", str(tmp_path), "compare"])

    def test_list(self, fast_bench, capsys):
        assert bench_main(["list", "--filter", "fast_noop"]) == 0
        assert fast_bench in capsys.readouterr().out


class TestObsIntegration:
    def test_observed_run_records_spans_and_histograms(self, tmp_path, fast_bench):
        from repro import obs

        obs.shutdown()
        obs.reset_registry()
        try:
            with obs.observe(str(tmp_path)):
                run_benches(
                    filter_substring="fast_noop",
                    repeats=2, warmup=0, verbose=False,
                )
            run = obs.load_run(str(tmp_path))
            names = {span["name"] for span in run.spans}
            assert f"timed:bench.{fast_bench}" in names
            histograms = run.metrics["histograms"]
            key = [k for k in histograms if k.startswith("bench.test.fast_noop")]
            assert key and histograms[key[0]]["count"] == 2
        finally:
            obs.shutdown()
            obs.reset_registry()
