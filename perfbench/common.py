"""Helpers shared by the coordinator and the child processes.

Nothing here imports ``repro`` at module level: the coordinator process
stays free of the program under test, and each child imports it fresh.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

from spans import Recorder, span_cost_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run leaves behind: result files, spans, digest ledger,
#: temporary stores.  Ignored by git.
OUT = ROOT / ".perfbench-out"
CHILD = Path(__file__).resolve().parent / "child.py"


class ChildError(RuntimeError):
    """A child process failed or returned no result."""


def child_env() -> dict:
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{previous}" if previous else str(SRC)
    # Temporary files of the children (and the daemon) stay in the checkout.
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def run_child(job: dict, timeout: float) -> dict:
    """Run one job in a fresh interpreter; return its JSON result.

    ``spawned_at`` lets the child count its own interpreter start-up and
    imports into its set-up time.
    """
    job = {**job, "spawned_at": time.time()}
    # Its own process group, so a timeout also takes down what it started
    # (the TCAS daemon and its workers).
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(job)],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{job['module']} child timed out after {exc.timeout:.0f}s") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{job['module']} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def env_info(seed: int) -> dict:
    """Backends and machine facts a result set is only comparable under."""
    from repro.encoding import encode_backend
    from repro.sat import propagation_backend, search_backend

    return {
        "propagation_backend": propagation_backend(),
        "search_backend": search_backend(),
        "encode_backend": encode_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values: Iterable[float], pct: int) -> float:
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[pct - 1]


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def digest(answers: dict) -> str:
    """Stable hash of ``{request key: candidate lines}``."""
    payload = json.dumps(sorted(answers.items()), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def check_ledger(key: str, value: str) -> Optional[str]:
    """Record ``value`` under ``key``; return the earlier value if it differs."""
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    previous = ledger.get(key)
    if previous is not None and previous != value:
        return previous
    ledger[key] = value
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    return None


def program_child(job: dict, request: Callable) -> dict:
    """Child side of one Table 3 program: set-up, the request, checks.

    ``request(rec, benchmark, test, spec)`` runs the timed request and
    returns ``(latency_s, report, layers, check_failures)``.
    """
    from repro.siemens.programs import LARGE_BENCHMARKS

    env = env_info(job["seed"])
    benchmark = next(b for b in LARGE_BENCHMARKS if b.name == job["program"])
    spec = benchmark.specification()
    setup_s = time.time() - job["spawned_at"]
    rec = Recorder(enabled=job["trace"])
    latency_s, report, layers, failures = request(
        rec, benchmark, list(benchmark.failing_test), spec
    )
    # Independent reference: the interpreter must see the test fail.
    if not benchmark.fails(list(benchmark.failing_test)):
        failures.append("the failing test passes in the interpreter")
    return {
        "env": env,
        "setup_s": setup_s,
        "program": benchmark.name,
        "latency_s": latency_s,
        "lines": report.lines,
        "detected": any(line in benchmark.fault_lines for line in report.lines),
        "check_failures": failures,
        "layers": layers,
        "peak_rss_mb": peak_rss_mb(),
        "spans": rec.spans(),
        "span_cost_s": span_cost_seconds() if job["trace"] else 0.0,
    }


def measure_program_passes(
    module: str,
    programs: Iterable[str],
    layers: Callable[[list[dict]], dict],
    seed: int,
    passes: int,
    trace: bool,
    deadline: float,
) -> dict:
    """Run ``passes`` passes of one fresh child process per program.

    A pass's wall time is the sum of its requests' latencies: interpreter
    start-up and imports belong to each child's set-up, not to the pass.
    """
    records, requests, setups, spans, costs, failures = [], [], [], [], [], []
    env: dict = {}
    rss = 0.0
    for pass_index in range(passes):
        results = [
            run_child(
                {"module": module, "program": program, "seed": seed, "trace": trace},
                deadline - time.monotonic(),
            )
            for program in programs
        ]
        for result in results:
            env = result["env"]
            setups.append(result["setup_s"])
            spans.extend(result["spans"])
            costs.append((len(result["spans"]), result["span_cost_s"]))
            rss = max(rss, result["peak_rss_mb"])
            requests.append(
                {
                    "key": result["program"],
                    "pass": pass_index,
                    "latency_ms": 1000 * result["latency_s"],
                    "cold": True,
                    "lines": result["lines"],
                    "error": None,
                    "detected": result["detected"],
                }
            )
            failures.extend(f"{result['program']}: {f}" for f in result["check_failures"])
        records.append(
            {"wall_s": sum(r["latency_s"] for r in results), "layers": layers(results)}
        )
    return {
        "fixed_mix": True,
        "env": env,
        "setup_samples": setups,
        "passes": records,
        "requests": requests,
        "check_failures": failures,
        "spans": spans,
        "span_costs": costs,
        "peak_rss_mb": rss,
    }
