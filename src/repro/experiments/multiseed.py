"""Multi-seed robustness sweeps.

Reduced-scale runs are noisy; a claim like "the alpha/beta conversion
beats the unscaled one at T=2" is only meaningful if it holds across
seeds.  This module repeats the pipeline over a seed list and reports
mean/std/min/max for each accuracy stage, plus the per-seed win/loss
record of the proposed conversion against a baseline strategy.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import obs
from .config import ExperimentConfig
from .pipeline import run_pipeline


@dataclass
class SeedSweepResult:
    """Aggregated accuracies over a seed sweep."""

    config: ExperimentConfig
    seeds: List[int]
    dnn: List[float]
    conversion: List[float]
    snn: List[float]

    def summary(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for name, values in (
            ("dnn", self.dnn), ("conversion", self.conversion), ("snn", self.snn)
        ):
            arr = np.asarray(values)
            out[name] = {
                "mean": float(arr.mean()),
                "std": float(arr.std()),
                "min": float(arr.min()),
                "max": float(arr.max()),
            }
        return out


def _seed_task(payload: Tuple[ExperimentConfig, int, str, bool]) -> Tuple[float, float, float]:
    """Worker-side pipeline run for one seed."""
    config, seed, strategy, fine_tune = payload
    result = run_pipeline(
        replace(config, seed=int(seed)), strategy=strategy, fine_tune=fine_tune
    )
    return (result.dnn_accuracy, result.conversion_accuracy, result.snn_accuracy)


def seed_sweep(
    config: ExperimentConfig,
    seeds: Sequence[int],
    strategy: str = "proposed",
    fine_tune: bool = True,
    workers: int = 1,
) -> SeedSweepResult:
    """Run the pipeline once per seed and collect the three accuracies.

    ``workers > 1`` runs the per-seed pipelines in a pool of forked
    processes.  Every pipeline stage is seeded and ``Pool.map`` returns
    results in seed-list order, so the sweep is bitwise identical to
    the serial one.  A failing seed raises, as it does serially.
    Forked workers would write into the parent's observability sinks,
    so ``workers > 1`` is refused while :mod:`repro.obs` is enabled.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers > 1 and obs.is_enabled():
        raise ValueError(
            "seed_sweep(workers > 1) cannot run while repro.obs is enabled: "
            "forked workers would write into the run's sinks"
        )

    seed_list = [int(s) for s in seeds]
    payloads = [(config, seed, strategy, fine_tune) for seed in seed_list]
    if workers > 1 and len(payloads) > 1:
        context = multiprocessing.get_context("fork")
        with context.Pool(min(workers, len(payloads))) as pool:
            triples = pool.map(_seed_task, payloads)
    else:
        triples = [_seed_task(payload) for payload in payloads]

    return SeedSweepResult(
        config=config, seeds=seed_list,
        dnn=[t[0] for t in triples],
        conversion=[t[1] for t in triples],
        snn=[t[2] for t in triples],
    )


def render_seed_sweep(result: SeedSweepResult) -> str:
    """Per-seed accuracy table plus mean/std/min/max aggregation."""
    from .reporting import format_table

    config = result.config
    rows = [
        [str(seed), f"{d:.2f}", f"{c:.2f}", f"{s:.2f}"]
        for seed, d, c, s in zip(result.seeds, result.dnn, result.conversion, result.snn)
    ]
    summary = result.summary()
    for stat in ("mean", "std", "min", "max"):
        rows.append([
            stat,
            f"{summary['dnn'][stat]:.2f}",
            f"{summary['conversion'][stat]:.2f}",
            f"{summary['snn'][stat]:.2f}",
        ])
    return format_table(
        ["seed", "DNN %", "converted %", "fine-tuned %"],
        rows,
        title=(
            f"Seed sweep: {config.arch}, {config.dataset}, "
            f"T={config.timesteps} ({len(result.seeds)} seeds)"
        ),
    )


def strategy_win_rate(
    config: ExperimentConfig,
    seeds: Sequence[int],
    strategy_a: str = "proposed",
    strategy_b: str = "threshold_relu",
) -> Dict:
    """Per-seed conversion-accuracy comparison of two strategies.

    Returns the per-seed accuracies and the fraction of seeds where
    ``strategy_a``'s conversion accuracy is at least ``strategy_b``'s.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    a_acc, b_acc = [], []
    for seed in seeds:
        seeded = replace(config, seed=int(seed))
        a = run_pipeline(seeded, strategy=strategy_a, fine_tune=False)
        b = run_pipeline(seeded, strategy=strategy_b, fine_tune=False)
        a_acc.append(a.conversion_accuracy)
        b_acc.append(b.conversion_accuracy)
    wins = sum(1 for a, b in zip(a_acc, b_acc) if a >= b)
    return {
        "seeds": [int(s) for s in seeds],
        strategy_a: a_acc,
        strategy_b: b_acc,
        "win_rate": wins / len(seeds),
    }
