"""Baseline comparison with regression gating.

``compare_reports`` diffs two bench reports kernel by kernel.  A gate
that flaps is worse than no gate, and shared/1-core boxes routinely
inflate individual repeats by 2x, so a kernel only counts as regressed
when **three** conditions hold::

    regressed  <=>  median_cur > median_base * (1 + threshold)   # typical run slower
                and min_cur    > median_base * (1 + threshold)   # even the best run slower
                and median_cur - median_base > min_delta_s       # absolute noise floor

The best-of-N minimum is the classic noise-robust timing statistic
(scheduler interference only ever adds time): random spikes raise the
median of 5 repeats easily but almost never all 5, while a real code
regression slows every repeat including the fastest.  The absolute
floor keeps microsecond-scale kernels from tripping on timer jitter.

The CLI (``python -m repro.bench compare``) exits non-zero when any
kernel regresses — that exit code is the CI gate.  Timings are only
comparable on one host, so it refuses (exit 2) two reports whose
environment fingerprints differ in any :data:`COMPARED_ENVIRONMENT`
field (see :func:`environment_differences`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .runner import validate_report

DEFAULT_THRESHOLD = 0.5  # 50% median slowdown trips the gate
DEFAULT_MIN_DELTA_S = 1e-4  # ...but only past 0.1 ms of absolute change
#: Environment fields that change timings; reports differing in any of
#: them were measured on different hosts/toolchains.
COMPARED_ENVIRONMENT = ("python", "implementation", "machine", "numpy", "cpu_count")


def environment_differences(
    baseline: dict, candidate: dict
) -> Dict[str, Tuple[object, object]]:
    """``{field: (baseline value, candidate value)}`` for every
    :data:`COMPARED_ENVIRONMENT` field whose values differ."""
    base_env = baseline.get("environment") or {}
    cand_env = candidate.get("environment") or {}
    return {
        key: (base_env.get(key), cand_env.get(key))
        for key in COMPARED_ENVIRONMENT
        if base_env.get(key) != cand_env.get(key)
    }


@dataclass
class BenchDelta:
    """One kernel's baseline-vs-current comparison."""

    name: str
    group: str
    baseline_median_s: float
    current_median_s: float
    current_min_s: float
    current_p95_s: float
    regressed: bool

    @property
    def ratio(self) -> float:
        if self.baseline_median_s <= 0:
            return float("inf") if self.current_median_s > 0 else 1.0
        return self.current_median_s / self.baseline_median_s


@dataclass
class Comparison:
    """Full diff of a candidate report against a baseline report."""

    threshold: float
    min_delta_s: float
    deltas: List[BenchDelta] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)  # in baseline only
    added: List[str] = field(default_factory=list)    # in candidate only

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Human-readable comparison table plus the verdict line."""
        lines = [
            f"{'bench':<36} {'baseline':>12} {'current':>12} "
            f"{'ratio':>8}  status",
            "-" * 80,
        ]
        for delta in self.deltas:
            status = "REGRESSED" if delta.regressed else "ok"
            lines.append(
                f"{delta.name:<36} "
                f"{delta.baseline_median_s * 1e3:>10.3f}ms "
                f"{delta.current_median_s * 1e3:>10.3f}ms "
                f"{delta.ratio:>7.2f}x  {status}"
            )
        for name in self.missing:
            lines.append(f"{name:<36} {'(missing from candidate)':>36}")
        for name in self.added:
            lines.append(f"{name:<36} {'(new, no baseline)':>36}")
        verdict = (
            "OK: no regressions"
            if self.ok
            else f"FAIL: {len(self.regressions)} regression(s) past "
            f"+{self.threshold * 100:.0f}% median threshold"
        )
        lines.append("")
        lines.append(verdict)
        return "\n".join(lines)


def compare_reports(
    baseline: dict,
    candidate: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_delta_s: float = DEFAULT_MIN_DELTA_S,
) -> Comparison:
    """Diff ``candidate`` against ``baseline``; flag regressions."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if min_delta_s < 0:
        raise ValueError("min_delta_s must be non-negative")
    validate_report(baseline)
    validate_report(candidate)
    base_results = baseline["results"]
    cand_results = candidate["results"]
    comparison = Comparison(threshold=threshold, min_delta_s=min_delta_s)
    for name in sorted(base_results):
        if name not in cand_results:
            comparison.missing.append(name)
            continue
        base_median = float(base_results[name]["median_s"])
        cand_median = float(cand_results[name]["median_s"])
        cand_min = float(cand_results[name].get("min_s", cand_median))
        gate = base_median * (1.0 + threshold)
        regressed = (
            cand_median > gate
            and cand_min > gate
            and cand_median - base_median > min_delta_s
        )
        comparison.deltas.append(
            BenchDelta(
                name=name,
                group=cand_results[name].get("group", "?"),
                baseline_median_s=base_median,
                current_median_s=cand_median,
                current_min_s=cand_min,
                current_p95_s=float(cand_results[name]["p95_s"]),
                regressed=regressed,
            )
        )
    comparison.added = sorted(set(cand_results) - set(base_results))
    return comparison
