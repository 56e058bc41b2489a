"""Render an observed run directory as a markdown report.

    python -m repro.obs.report results/run_2/            # to stdout
    python -m repro.obs.report results/run_2/ --out REPORT.md
    python -m repro.obs.report results/run_2/ --json     # machine-readable

Reads the run's ``trace.jsonl`` (spans), ``metrics.json`` (registry
snapshot), ``events.jsonl`` (log records), ``drift.jsonl`` (per-layer
conversion-drift series from :class:`repro.obs.drift.DriftMonitor`),
``alerts.jsonl`` (training-health alerts/heartbeats) and
``profile.jsonl`` / ``profile_summary.json`` (op-level profiler events
and their ``repro.obs.profile/v1`` aggregate) — any subset may be
missing, in which case the report degrades to the available artefacts
with an explicit warning line per missing file — and renders the span
tree with durations (errored spans called out with their exception),
counter / gauge / histogram tables, the per-layer conversion-drift
table and the health-alert section.

``--json`` emits the loaded run as one JSON object
(:func:`run_to_json`) so the diff engine (:mod:`repro.obs.diff`) and
external tooling share this module's parser.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .core import read_jsonl


@dataclass
class RunData:
    """Everything read back from one run directory."""

    run_dir: str
    spans: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    drift: List[dict] = field(default_factory=list)
    alerts: List[dict] = field(default_factory=list)
    health: List[dict] = field(default_factory=list)
    profile: List[dict] = field(default_factory=list)
    profile_summary: dict = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)


def _load_jsonl(data: RunData, filename: str, what: str) -> List[dict]:
    """Read one JSONL artefact; a missing or unreadable file degrades to
    an empty list — and torn lines to a skip count — plus a warning line
    in the rendered report."""
    path = os.path.join(data.run_dir, filename)
    if not os.path.exists(path):
        data.warnings.append(f"`{filename}` missing — no {what} recorded")
        return []
    try:
        records, skipped = read_jsonl(path)
    except OSError as exc:
        data.warnings.append(f"`{filename}` unreadable ({exc}) — {what} skipped")
        return []
    if skipped:
        data.warnings.append(
            f"`{filename}`: skipped {skipped} malformed line(s) "
            "(truncated tail?)"
        )
    return records


def load_run(run_dir: str) -> RunData:
    """Load spans, events, drift series and the metrics snapshot from
    ``run_dir``.

    Only a missing run *directory* raises; each missing or unreadable
    artefact file inside it becomes an entry in ``RunData.warnings`` and
    the report renders from whatever is present.
    """
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    data = RunData(run_dir=run_dir)
    data.spans = _load_jsonl(data, "trace.jsonl", "spans")
    data.events = _load_jsonl(data, "events.jsonl", "events")
    data.drift = [
        r for r in _load_jsonl(data, "drift.jsonl", "conversion drift")
        if r.get("kind") == "drift"
    ]
    # drift.jsonl only exists for instrumented conversions; its absence
    # is normal and should not alarm.
    if data.warnings and data.warnings[-1].startswith("`drift.jsonl` missing"):
        data.warnings.pop()
    data.profile = [
        r for r in _load_jsonl(data, "profile.jsonl", "op profile")
        if r.get("kind") == "op"
    ]
    # profile.jsonl only exists for profiled runs; absence is normal.
    if data.warnings and data.warnings[-1].startswith("`profile.jsonl` missing"):
        data.warnings.pop()
    summary_path = os.path.join(run_dir, "profile_summary.json")
    if os.path.exists(summary_path):
        try:
            with open(summary_path, "r", encoding="utf-8") as fp:
                summary = json.load(fp)
            if isinstance(summary, dict):
                data.profile_summary = summary
        except (json.JSONDecodeError, OSError) as exc:
            data.warnings.append(
                f"`profile_summary.json` unreadable ({exc}) — "
                "profile summary skipped"
            )
    health_records = _load_jsonl(data, "alerts.jsonl", "health telemetry")
    data.alerts = [r for r in health_records if r.get("kind") == "alert"]
    data.health = [r for r in health_records if r.get("kind") == "health"]
    if data.warnings and data.warnings[-1].startswith("`alerts.jsonl` missing"):
        data.warnings.pop()
    metrics_path = os.path.join(run_dir, "metrics.json")
    if os.path.exists(metrics_path):
        try:
            with open(metrics_path, "r", encoding="utf-8") as fp:
                data.metrics = json.load(fp)
        except (json.JSONDecodeError, OSError) as exc:
            data.warnings.append(
                f"`metrics.json` unreadable ({exc}) — metrics skipped"
            )
    else:
        data.warnings.append("`metrics.json` missing — no metrics recorded")
    return data


def run_to_json(data: RunData) -> dict:
    """The loaded run as one JSON-ready object.

    This is the machine-readable twin of :func:`render_report` — the
    diff engine and external tooling consume it so there is exactly one
    parser for run directories (:func:`load_run`).
    """
    return {
        "schema": "repro.obs.run/v1",
        "run_dir": data.run_dir,
        "warnings": list(data.warnings),
        "spans": list(data.spans),
        "events": list(data.events),
        "metrics": dict(data.metrics),
        "drift": list(data.drift),
        "alerts": list(data.alerts),
        "health": list(data.health),
        "profile": list(data.profile),
        "profile_summary": dict(data.profile_summary),
    }


def _span_tree_rows(spans: List[dict]) -> List[dict]:
    """Spans in depth-first tree order (they are stored close-ordered)."""
    by_parent: Dict[Optional[int], List[dict]] = {}
    for span in spans:
        by_parent.setdefault(span.get("parent_id"), []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: s.get("started_at", 0.0))

    ordered: List[dict] = []

    def visit(parent_id: Optional[int]) -> None:
        for span in by_parent.get(parent_id, []):
            ordered.append(span)
            span_id = span.get("span_id")
            # A degraded record without a span_id would alias the root
            # sentinel and recurse forever — treat it as a leaf.
            if span_id is not None:
                visit(span_id)

    visit(None)
    # Orphans (parent span never closed, e.g. crashed run) go last.
    seen = {id(s) for s in ordered}
    ordered.extend(s for s in spans if id(s) not in seen)
    return ordered


def _format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def _fields_cell(span: dict) -> str:
    fields = span.get("fields") or {}
    parts = []
    for key, value in fields.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return ", ".join(parts)


def _fmt(value, spec: str = ".4g") -> str:
    return format(value, spec) if isinstance(value, (int, float)) else "-"


def _render_drift(data: RunData, lines: List[str]) -> None:
    """The "Conversion drift" section: per-layer table of the latest
    snapshot plus the worst-layer callout and the phase trajectory."""
    lines.append(f"## Conversion drift ({len(data.drift)} records)")
    lines.append("")
    latest = max(r.get("snapshot", 0) for r in data.drift)
    snapshots = sorted(
        {(r.get("snapshot", 0), r.get("phase", "?")) for r in data.drift}
    )
    lines.append(
        "snapshots: "
        + ", ".join(f"{index}:{phase}" for index, phase in snapshots)
    )
    lines.append("")
    current = sorted(
        (r for r in data.drift if r.get("snapshot", 0) == latest),
        key=lambda r: r.get("layer", 0),
    )
    phase = current[0].get("phase", "?") if current else "?"
    lines.append(f"### Per-layer gaps — snapshot {latest} (`{phase}`)")
    lines.append("")
    lines.append(
        "| layer | mu | alpha | beta | K(mu) | h(T,mu) "
        "| predicted gap | measured gap | relative gap |"
    )
    lines.append("| ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: |")
    for record in current:
        lines.append(
            f"| {record.get('layer', '?')} | {_fmt(record.get('mu'))} "
            f"| {_fmt(record.get('alpha'))} | {_fmt(record.get('beta'))} "
            f"| {_fmt(record.get('k_mu'))} | {_fmt(record.get('h_t_mu'))} "
            f"| {_fmt(record.get('predicted_gap'))} "
            f"| {_fmt(record.get('measured_gap'))} "
            f"| {_fmt(record.get('relative_gap'))} |"
        )
    lines.append("")
    worst = max(
        current,
        key=lambda r: abs(r.get("measured_gap") or 0.0),
        default=None,
    )
    if worst is not None:
        lines.append(
            f"**Worst layer: {worst.get('layer', '?')}** — measured gap "
            f"{_fmt(worst.get('measured_gap'))} "
            f"(predicted {_fmt(worst.get('predicted_gap'))}, "
            f"relative {_fmt(worst.get('relative_gap'))})"
        )
        lines.append("")


def _render_profile(data: RunData, lines: List[str]) -> None:
    """The "Hot ops" section: top-k op-kind table plus per-layer
    attribution, from the persisted summary or re-aggregated events."""
    from .profile import UNATTRIBUTED, aggregate, format_bytes

    summary = data.profile_summary or aggregate(data.profile)
    total_s = float(summary.get("total_s") or 0.0)
    lines.append(
        f"## Hot ops ({summary.get('ops', 0)} ops, "
        f"{_format_duration(total_s)} attributed, "
        f"{format_bytes(summary.get('bytes_total') or 0)} allocated)"
    )
    lines.append("")
    if summary.get("dropped"):
        lines.append(
            f"> ⚠ {summary['dropped']} op event(s) dropped past the "
            "profiler's record cap"
        )
        lines.append("")
    top = summary.get("top") or []
    if top:
        lines.append("| op | count | total | median | bytes | % of run |")
        lines.append("| --- | ---: | ---: | ---: | ---: | ---: |")
        for entry in top:
            lines.append(
                f"| `{entry.get('op', '?')}` | {entry.get('count', 0)} "
                f"| {_format_duration(entry.get('total_s'))} "
                f"| {_format_duration(entry.get('median_s'))} "
                f"| {format_bytes(entry.get('bytes') or 0)} "
                f"| {float(entry.get('pct') or 0.0):.1f}% |"
            )
        lines.append("")
    by_layer = summary.get("by_layer") or {}
    attributed = {k: v for k, v in by_layer.items() if k != UNATTRIBUTED}
    if attributed:
        ranked = sorted(
            by_layer.items(),
            key=lambda item: (-(item[1].get("total_s") or 0.0), item[0]),
        )
        lines.append("### Per-layer attribution (top 10)")
        lines.append("")
        lines.append("| layer | ops | total | bytes | % of run |")
        lines.append("| --- | ---: | ---: | ---: | ---: |")
        for name, entry in ranked[:10]:
            lines.append(
                f"| `{name}` | {entry.get('count', 0)} "
                f"| {_format_duration(entry.get('total_s'))} "
                f"| {format_bytes(entry.get('bytes') or 0)} "
                f"| {float(entry.get('pct') or 0.0):.1f}% |"
            )
        lines.append("")


def render_report(data: RunData) -> str:
    """The full markdown report of one run."""
    lines = [f"# Run report — `{data.run_dir}`", ""]

    for warning in data.warnings:
        lines.append(f"> ⚠ {warning}")
    if data.warnings:
        lines.append("")

    lines.append(f"## Spans ({len(data.spans)})")
    lines.append("")
    if data.spans:
        lines.append("| span | duration | status | fields |")
        lines.append("| --- | ---: | --- | --- |")
        for span in _span_tree_rows(data.spans):
            indent = "&nbsp;&nbsp;" * int(span.get("depth", 0))
            name = f"{indent}{span.get('name', '?')}"
            lines.append(
                f"| {name} | {_format_duration(span.get('duration_s'))} "
                f"| {span.get('status', '?')} | {_fields_cell(span)} |"
            )
    else:
        lines.append("_no spans recorded_")
    lines.append("")

    errored = [s for s in data.spans if s.get("status") == "error"]
    if errored:
        lines.append(f"### Errored spans ({len(errored)})")
        lines.append("")
        for span in errored:
            error = span.get("error") or {}
            lines.append(
                f"- `{span.get('name', '?')}`: "
                f"**{error.get('type', 'unknown error')}** "
                f"{error.get('message', '')}".rstrip()
            )
        lines.append("")

    counters = data.metrics.get("counters", {})
    gauges = data.metrics.get("gauges", {})
    histograms = data.metrics.get("histograms", {})

    lines.append("## Metrics")
    lines.append("")
    if counters:
        lines.append("### Counters")
        lines.append("")
        lines.append("| counter | value |")
        lines.append("| --- | ---: |")
        for name, value in counters.items():
            lines.append(f"| {name} | {value:g} |")
        lines.append("")
    if gauges:
        lines.append("### Gauges")
        lines.append("")
        lines.append("| gauge | last | writes |")
        lines.append("| --- | ---: | ---: |")
        for name, payload in gauges.items():
            value = payload.get("value")
            value_text = f"{value:.6g}" if isinstance(value, (int, float)) else "-"
            lines.append(
                f"| {name} | {value_text} | {len(payload.get('trajectory', []))} |"
            )
        lines.append("")
    if histograms:
        lines.append("### Histograms")
        lines.append("")
        lines.append("| histogram | count | mean | std | min | p50 | p95 | max |")
        lines.append("| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: |")
        for name, payload in histograms.items():
            def cell(key):
                value = payload.get(key)
                return f"{value:.4g}" if isinstance(value, (int, float)) else "-"

            lines.append(
                f"| {name} | {payload.get('count', 0)} | {cell('mean')} "
                f"| {cell('std')} | {cell('min')} | {cell('p50')} "
                f"| {cell('p95')} | {cell('max')} |"
            )
        lines.append("")
    if not (counters or gauges or histograms):
        lines.append("_no metrics recorded_")
        lines.append("")

    if data.drift:
        _render_drift(data, lines)

    if data.profile or data.profile_summary:
        _render_profile(data, lines)

    if data.alerts:
        lines.append(f"## Health alerts ({len(data.alerts)})")
        lines.append("")
        by_rule: Dict[str, int] = {}
        for alert in data.alerts:
            rule = alert.get("rule", "?")
            by_rule[rule] = by_rule.get(rule, 0) + 1
        lines.append(
            ", ".join(f"{rule}: {count}" for rule, count in sorted(by_rule.items()))
        )
        lines.append("")
        for alert in data.alerts[-10:]:
            severity = alert.get("severity", "warning")
            lines.append(
                f"- [{severity}] `{alert.get('rule', '?')}` — "
                f"{alert.get('message', '')}"
            )
        lines.append("")

    log_events = [e for e in data.events if e.get("kind") == "log"]
    lines.append(f"## Events ({len(data.events)} total, {len(log_events)} log)")
    lines.append("")
    by_level: Dict[str, int] = {}
    for event in log_events:
        level = event.get("level", "?")
        by_level[level] = by_level.get(level, 0) + 1
    if by_level:
        lines.append(
            ", ".join(f"{level}: {count}" for level, count in sorted(by_level.items()))
        )
        lines.append("")
    errors = [e for e in log_events if e.get("level") == "error"]
    if errors:
        lines.append("### Errors")
        lines.append("")
        for event in errors[-10:]:
            lines.append(f"- `{event.get('logger', '?')}`: {event.get('message', '')}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarise an observed run directory as markdown.",
    )
    parser.add_argument("run_dir", help="directory written by repro.obs.configure")
    parser.add_argument("--out", default=None, help="write to this file (default: stdout)")
    parser.add_argument("--json", action="store_true",
                        help="emit the loaded run as machine-readable JSON "
                             "instead of markdown")
    args = parser.parse_args(argv)

    try:
        data = load_run(args.run_dir)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    if args.json:
        report = json.dumps(run_to_json(data), indent=2, sort_keys=True) + "\n"
    else:
        report = render_report(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(report)
        print(f"wrote {args.out}")
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
