#!/usr/bin/env python3
"""Compare two run files written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

A is the base (the parent commit, or the first of two run sets), B the
candidate.  For every (end-to-end metric, workload) one row: both medians
with their quartiles over the passes, the ratio B / A, and a verdict against
the metric's bound from ``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median is beyond the bound on that side;
* ``same`` — within the bound;
* ``unresolved`` — the spread between passes (inter-quartile distance over
  the median, on either side) is wider than the bound, so a difference of
  that size cannot be told from noise; unless every pass of one side beats
  every pass of the other, which is then reported as better or worse.

Per-layer metrics follow, grouped by layer, as plain deltas (they have no
bound).  Exit code 1 when any row is ``worse`` or when B's share of failed
operations is higher than A's.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
# As in run.py: import bench/ as a package from the checkout root, so its
# trace.py cannot shadow the standard library's module of that name.
if sys.path and pathlib.Path(sys.path[0]).resolve() == ROOT / "bench":
    sys.path[0] = str(ROOT)
elif str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import measure  # noqa: E402 - needs the path above


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def worsening(base: float, candidate: float, better: str) -> float:
    """How much worse the candidate is, as a share of the base (negative
    when it is better)."""
    if not base:
        return 0.0
    change = (candidate - base) / abs(base)
    return change if better == "lower" else -change


def every_pass_beats(winners: Sequence[float], losers: Sequence[float],
                     better: str) -> bool:
    if better == "lower":
        return max(winners) < min(losers)
    return min(winners) > max(losers)


def verdict(base: Sequence[float], candidate: Sequence[float], better: str,
            bound: float) -> str:
    change = worsening(measure.median(base), measure.median(candidate),
                       better)
    if max(measure.spread(base), measure.spread(candidate)) > bound:
        if every_pass_beats(candidate, base, better) and change < 0:
            return "better"
        if every_pass_beats(base, candidate, better) and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def quartile_text(samples: Sequence[float]) -> str:
    first, middle, third = measure.quartiles(samples)
    return f"{middle:.4g} [{first:.4g}, {third:.4g}]"


def compare(base: Dict[str, Any], candidate: Dict[str, Any],
            spec: Dict[str, Any]) -> int:
    """Print the comparison; returns the exit code."""
    exit_code = 0
    shared = [name for name in base["workloads"]
              if name in candidate["workloads"]]
    print("base      : " + "  ".join(f"{key}={value}"
                                     for key, value in base["env"].items()))
    print("candidate : " + "  ".join(
        f"{key}={value}" for key, value in candidate["env"].items()))
    print(f"\n{'metric':<18}{'workload':<14}{'base median [q1, q3]':<30}"
          f"{'candidate median [q1, q3]':<30}{'cand/base':>10}  verdict")
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        for workload in shared:
            left = base["workloads"][workload]["end_to_end"].get(name)
            right = candidate["workloads"][workload]["end_to_end"].get(name)
            if left is None or right is None:
                continue
            row = verdict(left["samples"], right["samples"], better, bound)
            if row == "worse":
                exit_code = 1
            base_median = measure.median(left["samples"])
            print(f"{name:<18}{workload:<14}"
                  f"{quartile_text(left['samples']):<30}"
                  f"{quartile_text(right['samples']):<30}"
                  f"{measure.ratio(measure.median(right['samples']), base_median):>10.3f}"
                  f"  {row}  ({metric['unit']}, {better} is better, "
                  f"bound {bound:.0%})")
    print()
    for workload in shared:
        left, right = base["workloads"][workload], \
            candidate["workloads"][workload]
        base_share = measure.ratio(left["failed"], left["attempted"])
        candidate_share = measure.ratio(right["failed"], right["attempted"])
        grew = candidate_share > base_share
        if grew or not right["correct"]:
            exit_code = 1
        print(f"{workload:<14}failed share {left['failed']}/{left['attempted']}"
              f" -> {right['failed']}/{right['attempted']}"
              f"{'  INCREASED' if grew else ''}; candidate correct: "
              f"{right['correct']}; output digest "
              f"{'equal' if left['output_digest'] == right['output_digest'] else 'differs'}")
    print("\nper-layer deltas (candidate / base; no bound)")
    for workload in shared:
        left = base["workloads"][workload]["per_layer"]
        right = candidate["workloads"][workload]["per_layer"]
        layer: Optional[str] = None
        for name in (metric["name"] for metric in spec["per_layer"]):
            if name not in left or name not in right:
                continue
            if name.split(".", 1)[0] != layer:
                layer = name.split(".", 1)[0]
                print(f"  {workload} / {layer}")
            before, after = left[name]["value"], right[name]["value"]
            print(f"    {name:<34}{before:>14.4f} -> {after:<14.4f}"
                  f"{measure.ratio(after, before):>8.3f}  {left[name]['unit']}")
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="run file of the base (A)")
    parser.add_argument("candidate", help="run file of the candidate (B)")
    args = parser.parse_args(argv)
    return compare(load(args.base), load(args.candidate),
                   load(str(ROOT / "BENCHMARK.json")))


if __name__ == "__main__":
    sys.exit(main())
