"""Compare two sets of benchmark results, metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result records written by ``run.py`` (files, or
directories of them).  Runs are grouped by workload and trace mode;
each end-to-end metric's medians are compared against the bound in
``BENCHMARK.json``.  The comparison refuses instead of judging when
the host fingerprints differ ("host changed") or when a seed's input
digest differs between the two sets; runs marked invalid (generator
lateness over its bound) are left out.  A workload whose new runs fail a
larger share of their operations than the old runs fails outright: a
faster answer does not count when more answers are wrong.  Exits 1 if
any workload or metric fails.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import pbcore

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg: str) -> List[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    groups: Dict[tuple, List[List[dict]]] = defaultdict(lambda: [[], []])
    for side, arg in enumerate(argv):
        for record in load(arg):
            if record.get("trace") == 0:
                groups[record["workload"]][side].append(record)
    worst = 0
    for workload, (old, new) in sorted(groups.items()):
        reasons = {
            pbcore.comparable(a, b) for a in old for b in new
        } - {None}
        if reasons:
            print(f"{workload}: not compared ({', '.join(sorted(reasons))})")
            continue
        old = [r for r in old if r["valid"]]
        new = [r for r in new if r["valid"]]
        if not old or not new:
            print(f"{workload}: not compared (no valid runs on one side)")
            continue
        old_failed, new_failed = pbcore.failed_ratio(old), pbcore.failed_ratio(new)
        if new_failed > old_failed:
            worst = 1
            print(f"{workload:<6} failed_ratio         fail       "
                  f"{new_failed:.6g} vs {old_failed:.6g}")
            continue
        for name, m in metrics.items():
            a = [r["metrics"][name] for r in old]
            b = [r["metrics"][name] for r in new]
            verdict, shift = pbcore.compare_metric(a, b, m["better"], m["bound"])
            worst = max(worst, verdict == "fail")
            print(f"{workload:<6} {name:<20} {verdict:<10} worse by "
                  f"{shift:+.1%} (bound {m['bound']:.0%}; runs {len(a)} vs {len(b)})")
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
