"""ASCII plotting, CSV export, and multi-seed sweep tests."""

import numpy as np
import pytest

from repro import obs
from repro.experiments import (
    ExperimentConfig,
    ascii_chart,
    export_csv,
    get_scale,
    seed_sweep,
    strategy_win_rate,
)


class TestAsciiChart:
    def test_basic_render(self):
        text = ascii_chart(
            [1, 2, 3], {"a": [1.0, 2.0, 3.0]}, width=20, height=5, title="t"
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "o = a" in lines[-1]

    def test_multiple_series_glyphs(self):
        text = ascii_chart(
            [0, 1], {"up": [0.0, 1.0], "down": [1.0, 0.0]}, width=10, height=4
        )
        assert "o" in text and "x" in text

    def test_constant_series(self):
        text = ascii_chart([0, 1], {"flat": [2.0, 2.0]}, width=8, height=3)
        assert "o" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart([], {})

    def test_axis_labels_contain_extremes(self):
        text = ascii_chart([2, 16], {"s": [10.0, 90.0]}, width=30, height=6)
        assert "90" in text and "10" in text


class TestExportCsv:
    def test_writes_aligned_columns(self, tmp_path):
        path = export_csv(
            "unit", {"t": [1, 2], "acc": [0.5, 0.75]}, directory=str(tmp_path)
        )
        content = open(path).read().splitlines()
        assert content[0] == "t,acc"
        assert content[1] == "1,0.5"

    def test_rejects_ragged(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv("bad", {"a": [1], "b": [1, 2]}, directory=str(tmp_path))

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            export_csv("bad", {}, directory=str(tmp_path))


class TestSeedSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        config = ExperimentConfig(
            arch="vgg11", dataset="cifar10", timesteps=2,
            scale=get_scale("tiny"), seed=0,
        )
        return seed_sweep(config, seeds=[0, 1], fine_tune=False)

    def test_collects_per_seed(self, sweep):
        assert len(sweep.dnn) == 2
        assert len(sweep.conversion) == 2

    def test_summary_stats(self, sweep):
        summary = sweep.summary()
        assert set(summary) == {"dnn", "conversion", "snn"}
        for stats in summary.values():
            assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_seed_sweep_identical_across_workers(self, tiny_config):
        serial = seed_sweep(tiny_config, [0, 1], fine_tune=False, workers=1)
        parallel = seed_sweep(tiny_config, [0, 1], fine_tune=False, workers=2)
        assert parallel.seeds == serial.seeds
        assert parallel.dnn == serial.dnn
        assert parallel.conversion == serial.conversion
        assert parallel.snn == serial.snn

    def test_parallel_sweep_refused_while_observed(self, tiny_config):
        with obs.observe():
            with pytest.raises(ValueError, match="repro.obs is enabled"):
                seed_sweep(tiny_config, [0, 1], fine_tune=False, workers=2)

    def test_rejects_empty_seeds(self):
        config = ExperimentConfig(
            arch="vgg11", dataset="cifar10", scale=get_scale("tiny")
        )
        with pytest.raises(ValueError):
            seed_sweep(config, seeds=[])

    def test_win_rate_structure(self):
        config = ExperimentConfig(
            arch="vgg11", dataset="cifar10", timesteps=2,
            scale=get_scale("tiny"), seed=0,
        )
        result = strategy_win_rate(config, seeds=[0])
        assert 0.0 <= result["win_rate"] <= 1.0
        assert len(result["proposed"]) == 1
