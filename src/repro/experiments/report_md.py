"""Markdown report generation from archived benchmark results.

Every benchmark saves its numbers as ``results/<name>.json``
(:func:`repro.experiments.reporting.save_results`).  This module turns
a results directory into a single markdown report — the mechanical part
of refreshing EXPERIMENTS.md after a new benchmark run.

Only the known artefact files are summarised (unknown JSON files are
listed in an appendix so nothing silently disappears).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional


def _load(directory: str) -> Dict[str, dict]:
    payloads = {}
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no results directory at '{directory}'")
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                payloads[name[:-5]] = json.load(handle)
    if not payloads:
        raise ValueError(f"no .json results found in '{directory}'")
    return payloads


def _md_table(headers: List[str], rows: List[List]) -> str:
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(lines)


def _table1_section(payloads: Dict[str, dict]) -> Optional[str]:
    rows = []
    for key, payload in payloads.items():
        if key.startswith("table1_"):
            rows.extend(payload.get("rows", []))
    if not rows:
        return None
    body = [
        [
            r["architecture"], r["dataset"], r["timesteps"],
            r["dnn_accuracy"], r["conversion_accuracy"], r["snn_accuracy"],
        ]
        for r in rows
    ]
    return "## Table I\n\n" + _md_table(
        ["arch", "dataset", "T", "DNN %", "conv %", "SGL %"], body
    )


def _table2_section(payloads: Dict[str, dict]) -> Optional[str]:
    sections = []
    for key, payload in sorted(payloads.items()):
        if not key.startswith("table2_"):
            continue
        rows = payload.get("rows", [])
        body = [
            [r["method"], r["timesteps"], r["accuracy"], r["dnn_reference"]]
            for r in rows
        ]
        sections.append(
            f"### {key.split('_', 1)[1]}\n\n"
            + _md_table(["method", "T", "accuracy %", "DNN ref %"], body)
        )
    if not sections:
        return None
    return "## Table II\n\n" + "\n\n".join(sections)


def _fig2_section(payloads: Dict[str, dict]) -> Optional[str]:
    sections = []
    for key, payload in sorted(payloads.items()):
        if not key.startswith("fig2_"):
            continue
        timesteps = payload["timesteps"]
        series = payload["series"]
        headers = ["T"] + list(series)
        body = [
            [t] + [series[s][i] for s in series]
            for i, t in enumerate(timesteps)
        ]
        sections.append(
            f"### {key.split('_', 1)[1]}\n\n" + _md_table(headers, body)
        )
    if not sections:
        return None
    return "## Fig. 2 — conversion accuracy vs T\n\n" + "\n\n".join(sections)


def _fig3_section(payloads: Dict[str, dict]) -> Optional[str]:
    sections = []
    for key, payload in sorted(payloads.items()):
        if not key.startswith("fig3_"):
            continue
        body = [
            [
                r["timesteps"], r["train_seconds_per_epoch"],
                r["inference_seconds_per_epoch"], r["train_memory_mb"],
                r["inference_memory_mb"],
            ]
            for r in payload.get("rows", [])
        ]
        sections.append(
            f"### {key.split('_', 1)[1]}\n\n"
            + _md_table(
                ["T", "train s/epoch", "infer s/epoch",
                 "train MB", "infer MB"],
                body,
            )
        )
    if not sections:
        return None
    return "## Fig. 3 — time & memory vs T\n\n" + "\n\n".join(sections)


def _fig4_section(payloads: Dict[str, dict]) -> Optional[str]:
    sections = []
    for key, payload in sorted(payloads.items()):
        if not key.startswith("fig4_"):
            continue
        body = [
            [
                p["label"], p["timesteps"], p["average_spike_rate"],
                p["total_flops"], p["energy_joules"],
                p["energy_improvement_vs_dnn"],
            ]
            for p in payload.get("profiles", [])
        ]
        body.append(
            ["iso-arch DNN", "-", "-", payload["dnn_total_flops"],
             payload["dnn_energy_joules"], 1.0]
        )
        sections.append(
            f"### {key.split('_', 1)[1]}\n\n"
            + _md_table(
                ["model", "T", "spikes/neuron", "FLOPs", "energy J", "DNN/SNN"],
                body,
            )
        )
    if not sections:
        return None
    return "## Fig. 4 — spikes / FLOPs / energy\n\n" + "\n\n".join(sections)


_KNOWN_PREFIXES = (
    "table1_", "table2_", "fig2_", "fig3_", "fig4_",
)


def generate_report(
    directory: str = "results", title: str = "Benchmark results"
) -> str:
    """Render every archived result into one markdown document."""
    payloads = _load(directory)
    sections = [f"# {title}"]
    for builder in (_table1_section, _table2_section, _fig2_section,
                    _fig3_section, _fig4_section):
        section = builder(payloads)
        if section:
            sections.append(section)
    other = [
        key for key in payloads
        if not key.startswith(_KNOWN_PREFIXES)
    ]
    if other:
        sections.append(
            "## Other archived results\n\n"
            + "\n".join(f"- `{key}.json`" for key in sorted(other))
        )
    return "\n\n".join(sections) + "\n"


def write_report(
    path: str = "results/REPORT.md", directory: str = "results"
) -> str:
    """Generate and write the report; returns the path written."""
    report = generate_report(directory)
    with open(path, "w") as handle:
        handle.write(report)
    return path
