"""Compare saved benchmark outputs of two code versions.

Save each run's standard output, then::

    python3 perfbench/compare.py --base base-*.txt --head head-*.txt

prints, per metric, the median over each side's runs and the change
relative to the base, marking changes worse than the metric's bound in
``BENCHMARK.json``.  Results from different environment fingerprints
are refused (exit 2).  Exit 1 when a gated metric got worse than its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import fingerprint  # noqa: E402


def load(path: str) -> Tuple[dict, dict]:
    """``(fingerprint, result)`` of one saved run output."""
    env, result = None, None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("fingerprint "):
            env = json.loads(line[len("fingerprint "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if env is None or result is None:
        raise ValueError(f"{path}: no fingerprint or result line")
    return env, result


def medians(results: List[dict]) -> Dict[str, float]:
    names = set.intersection(*(set(r["metrics"]) for r in results))
    return {
        name: statistics.median(r["metrics"][name]["value"] for r in results)
        for name in sorted(names)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)

    base = [load(path) for path in args.base]
    head = [load(path) for path in args.head]
    reference = base[0][0]
    mixed = sorted(
        {field for env, _ in base + head for field in fingerprint.differences(reference, env)}
    )
    if mixed:
        print(f"fingerprints differ in: {', '.join(mixed)}")
        print("refusing to compare results from different environments")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {m["name"]: m for m in spec["end_to_end"]}
    base_m = medians([r for _, r in base])
    head_m = medians([r for _, r in head])
    regressed = False
    for name in sorted(set(base_m) & set(head_m)):
        before, after = base_m[name], head_m[name]
        change = (after - before) / before if before else 0.0
        verdict = ""
        if name in gated:
            worse = -change if gated[name]["better"] == "higher" else change
            if worse > gated[name]["bound"]:
                verdict = "  WORSE than bound"
                regressed = True
        print(f"{name:<36} {before:>14.4f} {after:>14.4f} {change:+8.1%}{verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
