"""Compare two benchmark results files metric by metric.

    python bench/compare.py BASE.json NEW.json

Both files are ``results.json`` as ``bench/run.py`` writes them.  For every
(end-to-end metric, workload) pair this prints both medians and quartiles,
the change toward worse as a share of the base median, the metric's bound
from BENCHMARK.json, and a verdict:

- ``unresolved``: either side's spread (q3 - q1, as a share of its median)
  exceeds the bound, so a change of that size cannot be told from noise --
  unless every new run is better than every base run (``improved``);
- ``regressed``: worse by more than the bound;
- ``improved``: better by more than the bound;
- ``unchanged``: otherwise.

Exits 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def relative_spread(stats: dict) -> float:
    median = abs(stats["median"])
    width = stats["q3"] - stats["q1"]
    return width / median if median else (0.0 if width == 0 else float("inf"))


def cell(stats: dict) -> str:
    return f"{stats['median']:.6g} [{stats['q1']:.5g}, {stats['q3']:.5g}]"


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[str, float]:
    """The verdict for one pair and the change toward worse (a share)."""
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(base["median"])
    if scale:
        worse = sign * (new["median"] - base["median"]) / scale or 0.0
    else:
        worse = 0.0 if new["median"] == base["median"] else sign * float("inf")
    if better == "lower":
        all_better = max(new["values"]) < min(base["values"])
    else:
        all_better = min(new["values"]) > max(base["values"])
    if max(relative_spread(base), relative_spread(new)) > bound:
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base = json.loads(Path(args.base).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    counts: dict[str, int] = {}
    print(f"{'workload':<26} {'metric':<16} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'worse':>8} {'bound':>6}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            b = base["workloads"][name]["end_to_end"][metric["name"]]
            n = new["workloads"][name]["end_to_end"][metric["name"]]
            result, worse = verdict(b, n, metric["better"], metric["bound"])
            counts[result] = counts.get(result, 0) + 1
            print(
                f"{name:<26} {metric['name']:<16} {cell(b):>34} "
                f"{cell(n):>34} {worse:>+8.2%} {metric['bound']:>6.0%}  {result}"
            )
    print(", ".join(f"{count} {result}" for result, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
