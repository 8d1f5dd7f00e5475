#!/usr/bin/env python3
"""Compare two full-form results: `compare.py BASE.json NEW.json`.

One row per workload and end-to-end metric: base, new, new over base, the
bound from BENCHMARK.json and a verdict.  `unresolved` means the rounds
inside either run disagree with each other by more than the bound, so the
difference between the runs cannot be told from noise, unless every round
of the new run beats every round of the base.  Exits non-zero on any
`worse`, or when a larger share of invocations failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from estimators import worse_by  # noqa: E402


def rounds_of(workload: dict, name: str) -> list[float]:
    """Per-round values of a metric; the run's one value where rounds have none."""
    values = [r[name] for r in workload.get("rounds", ()) if name in r]
    return values or [workload["end_to_end"][name]["value"]]


def disagree(values: list[float], bound: float) -> bool:
    return (max(values) - min(values)) / min(values) > bound


def verdict(metric: dict, base: dict, new: dict) -> str:
    name, bound, better = metric["name"], metric["bound"], metric["better"]
    base_rounds, new_rounds = rounds_of(base, name), rounds_of(new, name)
    if disagree(base_rounds, bound) or disagree(new_rounds, bound):
        if better == "lower":
            clean_win = max(new_rounds) < min(base_rounds)
        else:
            clean_win = min(new_rounds) > max(base_rounds)
        return "better" if clean_win else "unresolved"
    worse = worse_by(base["end_to_end"][name]["value"], new["end_to_end"][name]["value"], better)
    if worse > bound:
        return "worse"
    return "better" if worse < -bound else "same"


def compare(spec: dict, base: dict, new: dict) -> tuple[list[tuple], bool]:
    """The table rows, and whether the new run is acceptable."""
    rows, acceptable = [], True
    for name, base_workload in base["workloads"].items():
        new_workload = new["workloads"].get(name)
        if new_workload is None:
            continue
        for metric in spec["end_to_end"]:
            before = base_workload["end_to_end"][metric["name"]]["value"]
            after = new_workload["end_to_end"][metric["name"]]["value"]
            outcome = verdict(metric, base_workload, new_workload)
            acceptable = acceptable and outcome != "worse"
            rows.append((name, metric["name"], before, after, metric["bound"], outcome))
        failed_before = base_workload["failed"] / base_workload["attempted"]
        failed_after = new_workload["failed"] / new_workload["attempted"]
        if failed_after > failed_before:
            acceptable = False
            rows.append((name, "failed_share", failed_before, failed_after, 0.0, "worse"))
    return rows, acceptable


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(HERE.parents[1] / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    rows, acceptable = compare(spec, base, new)
    print(f"{'workload':18s} {'metric':22s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for workload, metric, before, after, bound, outcome in rows:
        ratio = f"{after / before:9.4f}" if before else f"{'-':>9s}"
        print(f"{workload:18s} {metric:22s} {before:12.4f} {after:12.4f} "
              f"{ratio} {bound:6.2f}  {outcome}")
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
