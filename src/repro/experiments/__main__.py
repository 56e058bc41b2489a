"""Command-line experiment runner.

Regenerate any paper table/figure from the shell:

    python -m repro.experiments table1 --scale tiny
    python -m repro.experiments table2 --dataset cifar10
    python -m repro.experiments fig1
    python -m repro.experiments fig2 --arch resnet20
    python -m repro.experiments fig3
    python -m repro.experiments fig4 --dataset cifar100
    python -m repro.experiments ablation
    python -m repro.experiments robustness --arch vgg11
    python -m repro.experiments multiseed --seeds 0 1 2 --workers 2
    python -m repro.experiments report          # results/*.json -> REPORT.md

``--workers N`` runs the multiseed sweep's seeds in N forked processes;
results are bitwise identical to ``--workers 1``.  It cannot be combined
with ``--trace``: forked workers would write into the run's sinks.

Results print as the paper-style tables and are archived under
``results/`` as JSON.
"""

from __future__ import annotations

import argparse

from ..obs import configure as obs_configure
from ..obs import console
from ..obs import shutdown as obs_shutdown

from . import (
    render_fig1,
    render_noise_robustness,
    render_seed_sweep,
    run_noise_robustness,
    seed_sweep,
    render_fig2,
    render_fig3,
    render_fig4,
    render_latency_ablation,
    render_scaling_ablation,
    render_table1,
    render_table2,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_latency_ablation,
    run_scaling_ablation,
    run_table1,
    run_table2,
    save_results,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1", "table2", "fig1", "fig2", "fig3", "fig4",
            "ablation", "robustness", "multiseed", "report",
        ],
    )
    parser.add_argument("--scale", default="bench", choices=["tiny", "bench", "full"])
    parser.add_argument("--dataset", default="cifar10", choices=["cifar10", "cifar100"])
    parser.add_argument("--arch", default="vgg16",
                        choices=["vgg11", "vgg16", "resnet20"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="seed list for the multiseed sweep "
                             "(default: 0 1 2)")
    parser.add_argument("--timesteps", type=int, default=2,
                        help="SNN timesteps for the multiseed sweep")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="run the multiseed sweep's seeds in N "
                             "forked processes; results are bitwise "
                             "identical to --workers 1")
    parser.add_argument("--no-save", action="store_true",
                        help="skip writing results/<experiment>.json")
    parser.add_argument("--trace", metavar="RUN_DIR", default=None,
                        help="enable observability; write events/trace/"
                             "metrics JSONL into RUN_DIR")
    parser.add_argument("--tag-baseline", action="store_true",
                        help="tag this observed run as the run registry's "
                             "diff baseline (requires --trace)")
    parser.add_argument("--profile", action="store_true",
                        help="also record an op-level performance profile "
                             "into RUN_DIR (requires --trace)")
    args = parser.parse_args(argv)

    if args.tag_baseline and not args.trace:
        parser.error("--tag-baseline requires --trace RUN_DIR")
    if args.profile and not args.trace:
        parser.error("--profile requires --trace RUN_DIR")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.workers > 1 and args.experiment != "multiseed":
        parser.error("--workers applies only to the multiseed sweep")
    if args.workers > 1 and args.trace:
        parser.error("--workers > 1 cannot be combined with --trace: "
                     "forked workers would write into the run's sinks")

    if args.trace:
        obs_configure(
            run_dir=args.trace,
            profile=args.profile,
            experiment=args.experiment,
            arch=args.arch,
            dataset=args.dataset,
            scale=args.scale,
            seed=args.seed,
        )
    status = "error"
    try:
        code = _run(args)
        status = "completed"
        return code
    finally:
        if args.trace:
            if args.tag_baseline:
                from . import pipeline as _pipeline

                _pipeline._tag_run_as_baseline()
            obs_shutdown(status=status)
            console(f"trace written to {args.trace}")


def _run(args) -> int:
    if args.experiment == "report":
        from .report_md import write_report

        path = write_report()
        console(f"wrote {path}")
        return 0

    if args.experiment == "table1":
        rows = run_table1(scale_name=args.scale)
        console(render_table1(rows))
        payload = {"rows": rows}
    elif args.experiment == "table2":
        rows = run_table2(dataset=args.dataset, scale_name=args.scale, seed=args.seed)
        console(render_table2(rows))
        payload = {"rows": rows}
    elif args.experiment == "fig1":
        result = run_fig1(scale_name=args.scale, dataset=args.dataset, seed=args.seed)
        console(render_fig1(result))
        payload = {
            key: result[key]
            for key in ("mu", "d_max", "alpha", "beta", "k_mu", "h_t_mu")
        }
    elif args.experiment == "fig2":
        result = run_fig2(
            arch=args.arch, dataset=args.dataset,
            scale_name=args.scale, seed=args.seed,
        )
        console(render_fig2(result))
        payload = result
    elif args.experiment == "fig3":
        result = run_fig3(dataset=args.dataset, scale_name=args.scale, seed=args.seed)
        console(render_fig3(result))
        payload = result
    elif args.experiment == "fig4":
        result = run_fig4(dataset=args.dataset, scale_name=args.scale, seed=args.seed)
        console(render_fig4(result))
        payload = result
    elif args.experiment == "robustness":
        result = run_noise_robustness(
            arch=args.arch, dataset=args.dataset,
            scale_name=args.scale, seed=args.seed,
        )
        console(render_noise_robustness(result))
        payload = result
    elif args.experiment == "multiseed":
        from .config import ExperimentConfig, get_scale

        config = ExperimentConfig(
            arch=args.arch, dataset=args.dataset,
            timesteps=args.timesteps, scale=get_scale(args.scale),
            seed=args.seed,
        )
        seeds = args.seeds if args.seeds is not None else [0, 1, 2]
        sweep = seed_sweep(config, seeds, workers=args.workers)
        console(render_seed_sweep(sweep))
        payload = {
            "arch": args.arch,
            "dataset": args.dataset,
            "timesteps": args.timesteps,
            "seeds": sweep.seeds,
            "dnn": sweep.dnn,
            "conversion": sweep.conversion,
            "snn": sweep.snn,
            "summary": sweep.summary(),
        }
    else:
        rows = run_scaling_ablation(
            dataset=args.dataset, scale_name=args.scale, seed=args.seed
        )
        console(render_scaling_ablation(rows))
        latency = run_latency_ablation(
            dataset=args.dataset, scale_name=args.scale, seed=args.seed
        )
        console()
        console(render_latency_ablation(latency))
        payload = {"scaling": rows, "latency": latency}

    if not args.no_save:
        path = save_results(f"cli_{args.experiment}", payload)
        console(f"\nsaved: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
