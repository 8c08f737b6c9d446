"""Compare two sets of benchmark result files.

Usage::

    python3 perfbench/compare.py --base .perfbench-out/results/A*.json \\
                                 --new  other-checkout/.perfbench-out/results/B*.json

Each side is one or more result files of the same workload, size and trace
mode (``run.py`` writes them).  Counts must match exactly; other metrics
compare by the median of each side, and an end-to-end metric that worsens
by more than its ``bound`` in ``BENCHMARK.json`` is a regression.  Result
sets measured under different solver or encoder backends are refused:
their numbers describe different programs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BACKENDS = ("propagation_backend", "search_backend", "encode_backend")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def identity(record: dict) -> tuple:
    return record["workload"], record["size"], record["trace"]


def compare(base: list[dict], new: list[dict], bounds: dict) -> int:
    identities = {identity(r) for r in base + new}
    if len(identities) != 1:
        print(f"refusing: mixed workloads/sizes/modes {sorted(identities)}")
        return 2
    backends = {tuple(r["env"][key] for key in BACKENDS) for r in base + new}
    if len(backends) != 1:
        print(f"refusing: result sets ran under different backends {sorted(backends)}")
        return 2
    worst = 0
    print(f"{'metric':28} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, entry in base[0]["metrics"].items():
        unit = entry["unit"]
        old = [r["metrics"][name]["value"] for r in base]
        now = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not now:
            print(f"{name:28} missing in the new set")
            worst = 1
            continue
        if unit == "count":
            same = len(set(old + now)) == 1
            verdict = "" if same else "COUNT DIFFERS"
            print(f"{name:28} {old[0]:>14} {now[0]:>14} {'':>9} {verdict}")
            worst = max(worst, 0 if same else 1)
            continue
        old_median, new_median = statistics.median(old), statistics.median(now)
        ratio = new_median / old_median if old_median else float("nan")
        verdict = ""
        if name in bounds:
            bound, better = bounds[name]
            worse = ratio - 1 if better == "lower" else 1 - ratio
            if worse > bound:
                verdict = f"REGRESSION (bound {bound})"
                worst = 1
        print(f"{name:28} {old_median:>14.4f} {new_median:>14.4f} {ratio:>9.3f} {unit} {verdict}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    bounds = {}
    if Path(args.benchmark).is_file():
        spec = json.loads(Path(args.benchmark).read_text())
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    return compare(load(args.base), load(args.new), bounds)


if __name__ == "__main__":
    sys.exit(main())
