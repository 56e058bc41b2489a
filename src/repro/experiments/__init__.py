"""Experiment harness: one driver per paper table/figure.

- :mod:`config` — scale presets (tiny/bench/full) and experiment specs;
- :mod:`context` — cached dataset + trained source DNN;
- :mod:`pipeline` — the hybrid train/convert/fine-tune pipeline;
- :mod:`table1` / :mod:`table2` — the accuracy tables;
- :mod:`fig1` .. :mod:`fig4` — the four figures;
- :mod:`ablation` — the Section IV-B ablations;
- :mod:`reporting` — table rendering and JSON persistence.
"""

from .ablation import (
    render_latency_ablation,
    render_scaling_ablation,
    run_latency_ablation,
    run_scaling_ablation,
)
from .config import SCALES, ExperimentConfig, ScalePreset, get_scale
from .context import ExperimentContext, clear_context_cache, get_context
from .fig1 import render_fig1, run_fig1
from .fig2 import render_fig2, run_fig2
from .fig3 import render_fig3, run_fig3
from .fig4 import render_fig4, run_fig4
from .multiseed import (
    SeedSweepResult,
    render_seed_sweep,
    seed_sweep,
    strategy_win_rate,
)
from .pipeline import (
    PipelineResult,
    clear_pipeline_cache,
    convert_only,
    run_pipeline,
)
from .plotting import ascii_chart, export_csv
from .reporting import format_table, rows_from_dicts, save_results
from .robustness import (
    render_adversarial_robustness,
    render_noise_robustness,
    run_adversarial_robustness,
    run_noise_robustness,
)
from .table1 import PAPER_TABLE1, render_table1, run_table1, run_table1_cell
from .table2 import PAPER_TABLE2, render_table2, run_table2

__all__ = [
    "ExperimentConfig",
    "SeedSweepResult",
    "ascii_chart",
    "export_csv",
    "render_seed_sweep",
    "seed_sweep",
    "strategy_win_rate",
    "ExperimentContext",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PipelineResult",
    "SCALES",
    "ScalePreset",
    "clear_context_cache",
    "clear_pipeline_cache",
    "convert_only",
    "format_table",
    "get_context",
    "get_scale",
    "render_fig1",
    "render_fig2",
    "render_fig3",
    "render_fig4",
    "render_latency_ablation",
    "render_adversarial_robustness",
    "render_noise_robustness",
    "render_scaling_ablation",
    "run_adversarial_robustness",
    "run_noise_robustness",
    "render_table1",
    "render_table2",
    "rows_from_dicts",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_latency_ablation",
    "run_pipeline",
    "run_scaling_ablation",
    "run_table1",
    "run_table1_cell",
    "run_table2",
    "save_results",
]
