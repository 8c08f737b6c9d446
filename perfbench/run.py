"""The repository's benchmark: one command over three workloads.

Usage::

    python3 perfbench/run.py --workload tcas_service --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` is a separate traced run that reports the per-layer metrics
(and writes its spans as a Chrome trace).  Every run checks the program's
outputs and exits non-zero when a check fails.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
result set (environment, per-request records, checks) goes to
``.perfbench-out/results/``.  ``compare.py`` compares two result sets.

This process only coordinates: every workload runs in fresh child
processes, so peak RSS and heap state of one never leak into another.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, SRC, ChildError, check_ledger, digest, median, percentile  # noqa: E402
from spans import root_seconds, self_times, unattributed_share, write_chrome_trace  # noqa: E402
from workloads import END_TO_END, PER_LAYER, UNBOUNDED_END_TO_END, WORKLOADS  # noqa: E402

#: Every run must end well inside three minutes.
RUN_BUDGET_S = 170.0


def end_to_end_metrics(result: dict) -> dict:
    requests = result["requests"]
    answered = [r for r in requests if not r["error"]]
    originals = [r for r in requests if r["detected"] is not None]
    if result["fixed_mix"]:
        # Every pass runs the same few programs, whose latencies differ by
        # 30x: a program's latency is its median over the passes, the pass
        # time their sum, so one slow process moves no percentile.
        by_program: dict[str, list[float]] = {}
        for r in answered:
            by_program.setdefault(r["key"], []).append(r["latency_ms"])
        latencies = cold = [median(v) for v in by_program.values()]
        wall_s = sum(latencies) / 1000
        rate = len(latencies) / wall_s
    else:
        latencies = [r["latency_ms"] for r in answered]
        cold = [r["latency_ms"] for r in answered if r["cold"]]
        walls = [p["wall_s"] for p in result["passes"]]
        wall_s = median(walls)
        rate = len(requests) / sum(walls)
    return {
        "setup_s": median(result["setup_samples"]),
        "wall_s": wall_s,
        "requests_per_s": rate,
        "request_p50_ms": percentile(latencies, 50),
        "request_p90_ms": percentile(latencies, 90),
        "cold_version_p50_ms": percentile(cold, 50),
        "peak_rss_mb": result["peak_rss_mb"],
        "fault_detected_share": sum(r["detected"] for r in originals) / len(originals),
        "failed_share": (len(requests) - len(answered)) / len(requests),
    }


def per_layer_metrics(result: dict, workload) -> tuple[dict, list[str]]:
    """Median over passes of each layer value; 0 for bypassed layers."""
    metrics: dict[str, float] = {}
    missing = []
    spans = result["spans"]
    derived = {
        "core.fault_detected_share": end_to_end_metrics(result)["fault_detected_share"],
        "trace.unattributed_share": unattributed_share(spans),
        "trace.overhead_share": sum(n * cost for n, cost in result["span_costs"])
        / root_seconds(spans),
    }
    for name, _unit in PER_LAYER:
        values = [p["layers"][name] for p in result["passes"] if name in p["layers"]]
        if name in derived:
            metrics[name] = derived[name]
        elif values:
            metrics[name] = median(values)
        else:
            metrics[name] = 0.0
            if not workload.bypassed(name):
                missing.append(name)
    return metrics, missing


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    workload = WORKLOADS[name]
    module = importlib.import_module(workload.module)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        result = module.measure(seed, workload.passes(seconds), trace, size, deadline)
    except ChildError as exc:
        print(f"perfbench: {name}: {exc}", file=sys.stderr)
        return 3

    failures = list(result["check_failures"])
    attempted = len(result["requests"])
    failed = sum(1 for r in result["requests"] if r["error"])
    if failed:
        failures.append(f"{failed} of {attempted} requests failed")
    pass_digests = []
    for index in range(len(result["passes"])):
        answers = {
            r["key"]: r["lines"]
            for r in result["requests"]
            if r["pass"] == index and r["detected"] is not None
        }
        pass_digests.append(digest(answers))
    if len(set(pass_digests)) != 1:
        failures.append("candidate lines differ between passes of one run")
    ledger_key = f"{name}:{size}:{seed if workload.seeded else '*'}"
    earlier = check_ledger(ledger_key, pass_digests[0])
    if earlier is not None:
        failures.append(f"candidate-line digest differs from an earlier run ({earlier[:12]})")

    e2e = end_to_end_metrics(result)
    if trace:
        metrics, missing = per_layer_metrics(result, workload)
        failures.extend(f"per-layer metric {m} was not measured" for m in missing)
        units = dict(PER_LAYER)
        metrics = {
            k: int(v) if units[k] == "count" else v for k, v in metrics.items()
        }
    else:
        metrics = {key: e2e[key] for key, _ in END_TO_END}
        units = dict(END_TO_END)

    correct = not failures
    record = {
        "workload": name,
        "size": size,
        "seed": seed,
        "trace": int(trace),
        "env": result["env"],
        "correct": correct,
        "check_failures": failures,
        "digest": pass_digests[0],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "end_to_end": e2e,
        "setup_samples": result["setup_samples"],
        "pass_walls": [p["wall_s"] for p in result["passes"]],
        "pass_layers": [p["layers"] for p in result["passes"]],
        "pass_counters": [p.get("counters", {}) for p in result["passes"]],
        "requests": result["requests"],
    }
    stem = f"{name}-{size}-seed{seed}-trace{int(trace)}"
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        write_chrome_trace(
            OUT / "spans" / f"{stem}.json",
            result["spans"],
            {"self_seconds_by_layer": self_times(result["spans"])},
        )

    print(f"{name} ({size}, seed {seed}, {'traced' if trace else 'untraced'}): "
          f"{attempted} requests, env {result['env']}")
    shown = PER_LAYER if trace else END_TO_END + UNBOUNDED_END_TO_END
    values = metrics if trace else e2e
    for key, unit in shown:
        value = values[key]
        print(f"  {key:28} {value:14d} {unit}" if isinstance(value, int)
              else f"  {key:28} {value:14.4f} {unit}")
    for note in result.get("notes", ()):
        print(f"  {note}")
    for defect in workload.known_defects:
        print(f"  known defect: {defect}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process."""
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size],
                stdout=subprocess.PIPE,
                text=True,
            )
            # Everything but the machine-readable last line.
            print("\n".join(completed.stdout.rstrip().splitlines()[:-1]))
            worst = max(worst, completed.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
