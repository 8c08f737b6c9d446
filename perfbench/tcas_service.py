"""Workload ``tcas_service``: the TCAS suite replayed through the daemon.

A fresh ``python -m repro.serve`` daemon (two workers, empty store
directory) answers every faulty TCAS version, up to four failing tests each,
with ``max_candidates=3``, plus about 20% repeats of earlier requests.  The
seed draws the test pool and the order in which it is searched for failing
tests, and places the repeats.  The loop is closed, because CI jobs and
developers wait for their answer: two client connections pull from one
ordered queue.

The traced run replays the same version sequence in-process after the
stream: parse, store ``get_or_compile`` (same memory tier as the daemon), a
cold ``compile_program``, artifact dump and load, and session localizations
of the same tests, whose lines must equal the daemon's.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time

from common import OUT, median, peak_rss_mb, run_child
from spans import Recorder, span_cost_seconds
from workloads import (
    SETUP_SAMPLES,
    SIZES,
    TCAS_CONNECTIONS,
    TCAS_MAX_CANDIDATES,
    TCAS_MEMORY_ARTIFACTS,
    TCAS_POOL,
    TCAS_REPEAT_SHARE,
    TCAS_WORKERS,
)


def build_stream(seed: int, size: str) -> list[dict]:
    """The ordered request queue: originals per version, repeats mixed in.

    Each version's requests are the first failing tests (by the interpreter
    against the golden output) in a seeded shuffle of the seeded pool; the
    first request of a version is its ``cold`` one.  A repeat re-sends an
    original from at least two versions back, so its first answer is done.
    """
    from repro.lang import Interpreter
    from repro.siemens.tcas import tcas_faulty_program, tcas_versions
    from repro.siemens.testgen import generate_tcas_tests, golden_outputs

    shape = SIZES[size]
    rng = random.Random(seed)
    pool = generate_tcas_tests(TCAS_POOL, seed)
    golden = golden_outputs(TCAS_POOL, seed)
    order = list(range(TCAS_POOL))
    rng.shuffle(order)
    originals: list[dict] = []
    for version_index, version in enumerate(tcas_versions()[: shape.tcas_versions]):
        interpreter = Interpreter(tcas_faulty_program(version))
        picked = 0
        for i in order:
            if interpreter.run(pool[i].as_list()).return_value == golden[i]:
                continue
            originals.append(
                {
                    "id": len(originals),
                    "version": version,
                    "version_index": version_index,
                    "test": pool[i].as_list(),
                    "expected": golden[i],
                    "kind": "warm" if picked else "cold",
                }
            )
            picked += 1
            if picked == shape.tcas_tests_per_version:
                break
    slots = [o["id"] for o in originals if o["version_index"] >= 2]
    repeats_after = set(rng.sample(slots, min(len(slots), round(TCAS_REPEAT_SHARE * len(originals)))))
    stream: list[dict] = []
    for original in originals:
        stream.append(original)
        if original["id"] in repeats_after:
            earlier = [o for o in originals if o["version_index"] <= original["version_index"] - 2]
            stream.append({**rng.choice(earlier), "kind": "repeat"})
    return stream


def _options(version: str) -> dict:
    from repro.siemens.suite import TCAS_HARNESS_LINES

    return {
        "name": f"tcas-{version}",
        "hard_lines": list(TCAS_HARNESS_LINES),
        "max_candidates": TCAS_MAX_CANDIDATES,
    }


class Daemon:
    """A ``python -m repro.serve`` process with its own store directory."""

    def __init__(self, workdir) -> None:
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "store").mkdir(parents=True)
        self.log_path = workdir / "daemon.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--tcp", "127.0.0.1:0",
                "--workers", str(TCAS_WORKERS),
                "--store-dir", str(workdir / "store"),
                "--memory-artifacts", str(TCAS_MEMORY_ARTIFACTS),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def address(self, timeout: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for word in self.log_path.read_text().split():
                if word.startswith("tcp="):
                    host, _, port = word[4:].rpartition(":")
                    return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"daemon not ready: {self.log_path.read_text()!r}")

    def stop(self, client) -> None:
        """Shut down through ``client`` and reap the daemon (and so its workers)."""
        try:
            if client is not None:
                client.shutdown()
            self.proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 - whatever broke, the daemon must go
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            raise
        finally:
            self._log.close()
            shutil.rmtree(self.workdir, ignore_errors=True)


def _drive(clients, stream: list[dict], sources: dict, rec: Recorder) -> list[dict]:
    """Closed loop: each connection sends the next queued request when idle."""
    from repro.serve import ServeError
    from repro.spec import Specification

    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    answers = [{"latency_s": 0.0, "lines": None, "error": "not sent"} for _ in stream]

    def loop(client) -> None:
        with rec.span("connection"):
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                item = stream[index]
                with rec.span("serve.request", seq=index, version=item["version"]) as span:
                    try:
                        reply = client.localize(
                            test=item["test"],
                            spec=Specification.return_value(item["expected"]),
                            program=sources[item["version"]],
                            options=_options(item["version"]),
                        )
                        lines, error = reply["report"]["lines"], None
                    except ServeError as exc:
                        lines, error = None, str(exc)
                answers[index] = {"latency_s": span.duration, "lines": lines, "error": error}

    threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers


def _counter_deltas(before: dict, after: dict) -> dict:
    deltas = {}
    for section in ("store", "result_cache", "pool"):
        for key, value in after[section].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                deltas[f"{section}.{key}"] = value - before[section].get(key, 0)
    return deltas


def child(job: dict) -> dict:
    from common import env_info
    from repro.serve import Client
    from repro.siemens.tcas import tcas_fault, tcas_faulty_source

    env = env_info(job["seed"])
    stream = build_stream(job["seed"], job["size"])
    sources = {item["version"]: tcas_faulty_source(item["version"]) for item in stream}
    daemon = Daemon(OUT / "tmp" / f"daemon-{os.getpid()}")
    clients = []
    try:
        address = daemon.address()
        clients = [Client(tcp=address) for _ in range(TCAS_CONNECTIONS)]
        clients[0].wait_until_ready()
        for client in clients[1:]:
            client.connect()
        setup_s = time.time() - job["spawned_at"]
        rec = Recorder(enabled=job["trace"])
        if not job["setup_only"]:
            before = clients[0].stats()
            started = time.perf_counter()
            answers = _drive(clients, stream, sources, rec)
            wall_s = time.perf_counter() - started
            after = clients[0].stats()
    finally:
        daemon.stop(clients[0] if clients else None)
        for client in clients:
            client.close()
    if job["setup_only"]:
        return {"env": env, "setup_s": setup_s}
    # The daemon has been reaped, and it reaped its workers: the children's
    # peak is the largest of those processes.
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    for item, answer in zip(stream, answers):
        answer["detected"] = bool(set(answer["lines"] or ()) & set(tcas_fault(item["version"]).fault_lines))
    result = {
        "env": env,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "stream": stream,
        "answers": answers,
        "counters": _counter_deltas(before, after),
        "peak_rss_mb": rss,
        "check_failures": _check_stream(stream, answers),
    }
    if job["trace"]:
        result["replay"] = _replay(stream, answers, sources, rec, result["check_failures"])
    result["spans"] = rec.spans()
    result["span_cost_s"] = span_cost_seconds() if job["trace"] else 0.0
    return result


def _check_stream(stream: list[dict], answers: list[dict]) -> list[str]:
    """Independent checks of the stream's tests and of the repeats."""
    from repro.lang import Interpreter
    from repro.siemens.tcas import tcas_faulty_program, tcas_program

    failures = []
    reference = Interpreter(tcas_program())
    faulty = {}
    for item in stream:
        if item["kind"] == "repeat":
            continue
        version = item["version"]
        if version not in faulty:
            faulty[version] = Interpreter(tcas_faulty_program(version))
        golden = reference.run(item["test"]).return_value
        if golden != item["expected"] or faulty[version].run(item["test"]).return_value == golden:
            failures.append(f"{version} test {item['test']} does not fail against its golden output")
    first_answer = {}
    for item, answer in zip(stream, answers):
        if item["kind"] != "repeat":
            first_answer[item["id"]] = answer["lines"]
        elif answer["lines"] != first_answer[item["id"]]:
            failures.append(f"repeat of request {item['id']} answered different lines")
    return failures


def _replay(stream, answers, sources, rec, failures) -> dict:
    """In-process replay of the version sequence, layer by layer."""
    from repro.bmc import BoundedModelChecker
    from repro.bmc.compiled import dumps_artifact, loads_artifact
    from repro.core import LocalizationSession
    from repro.lang import check_program, parse_program
    from repro.serve.store import ArtifactStore
    from repro.siemens.suite import TCAS_HARNESS_LINES
    from repro.spec import Specification

    workdir = OUT / "tmp" / f"replay-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    store = ArtifactStore(root=workdir, max_memory_entries=TCAS_MEMORY_ARTIFACTS)
    daemon_lines = {item["id"]: answer["lines"] for item, answer in zip(stream, answers)}
    by_version: dict[str, list[dict]] = {}
    for item in stream:
        if item["kind"] != "repeat":
            by_version.setdefault(item["version"], []).append(item)
    parse_ms, store_ms, localize_ms = [], [], {}
    totals = dict.fromkeys(
        ("compile_s", "analysis_s", "gates_s", "materialize_s", "clauses", "dump_s",
         "load_s", "artifact_mb", "engine_load_s", "comss_s", "maxsat_calls",
         "sat_calls", "conflicts", "propagations", "localize_s"),
        0.0,
    )
    try:
        for version, items in by_version.items():
            source = sources[version]
            with rec.span("replay", version=version):
                with rec.span("lang.parse") as parse:
                    program = parse_program(source, name=f"tcas-{version}")
                    check_program(program)
                parse_ms.append(1000 * parse.duration)
                with rec.span("store.get_or_compile") as stored:
                    store.get_or_compile(source, {"name": f"tcas-{version}"})
                store_ms.append(1000 * stored.duration)
                with rec.span("bmc.compile") as compiled_span:
                    compiled = BoundedModelChecker(program, group_statements=True).compile_program()
                totals["compile_s"] += compiled_span.duration
                for phase, seconds in compiled.encode_profile().get("encode_phases", {}).items():
                    totals[f"{phase}_s"] += seconds
                totals["clauses"] += compiled.num_clauses
                with rec.span("bmc.artifact_dump") as dump:
                    data = dumps_artifact(compiled)
                with rec.span("bmc.artifact_load") as load:
                    loaded = loads_artifact(data)
                totals["dump_s"] += dump.duration
                totals["load_s"] += load.duration
                totals["artifact_mb"] += len(data) / 1e6
                session = LocalizationSession.from_compiled(
                    loaded, max_candidates=TCAS_MAX_CANDIDATES, hard_lines=TCAS_HARNESS_LINES
                )
                for position, item in enumerate(items):
                    spec = Specification.return_value(item["expected"])
                    with rec.span("session.localize") as localize:
                        report = session.localize(item["test"], spec)
                    localize_ms[item["id"]] = 1000 * localize.duration
                    if position:
                        totals["comss_s"] += localize.duration
                    else:
                        first_s = localize.duration
                    totals["localize_s"] += localize.duration
                    for field in ("maxsat_calls", "sat_calls", "conflicts", "propagations"):
                        totals[field] += getattr(report, field)
                    if report.lines != daemon_lines[item["id"]]:
                        failures.append(f"{version} request {item['id']}: daemon and in-process lines differ")
                first = items[0]
                with rec.span("maxsat.second_localize") as second:
                    session.localize(first["test"], Specification.return_value(first["expected"]))
                totals["engine_load_s"] += first_s - second.duration
                totals["comss_s"] += second.duration
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "parse_ms": parse_ms,
        "store_ms": store_ms,
        "localize_ms": localize_ms,
        "totals": totals,
    }


def measure(seed: int, passes: int, trace: bool, size: str, deadline: float) -> dict:
    """``passes`` streams, each against a fresh daemon in a fresh child.

    The traced run makes one stream and adds the in-process replay.  Set-up
    only children top the set-up samples up to ``SETUP_SAMPLES``.
    """
    job = {"module": "tcas_service", "seed": seed, "size": size, "trace": trace}
    results = [
        run_child({**job, "setup_only": False}, deadline - time.monotonic())
        for _ in range(1 if trace else passes)
    ]
    setups = [result["setup_s"] for result in results]
    # setup_s is an end-to-end metric: the traced run does not report it.
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_child({**job, "setup_only": True}, deadline - time.monotonic())["setup_s"])
    requests = [
        {
            "key": f"{item['version']}:{item['test']}",
            "id": item["id"],
            "pass": pass_index,
            "seq": seq,
            "version": item["version"],
            "version_index": item["version_index"],
            "kind": item["kind"],
            "latency_ms": 1000 * answer["latency_s"],
            "cold": item["kind"] == "cold",
            "lines": answer["lines"],
            "error": answer["error"],
            "detected": None if item["kind"] == "repeat" else answer["detected"],
        }
        for pass_index, result in enumerate(results)
        for seq, (item, answer) in enumerate(zip(result["stream"], result["answers"]))
    ]
    tier = TCAS_MEMORY_ARTIFACTS
    cold = [r for r in requests if r["cold"]]
    notes = [
        f"first-request p50 of versions 1-{tier + 1}: "
        f"{median(r['latency_ms'] for r in cold if r['version_index'] <= tier):.0f} ms; "
        f"of versions {tier + 2}-{cold[-1]['version_index'] + 1}: "
        f"{median(r['latency_ms'] for r in cold if r['version_index'] > tier):.0f} ms"
    ] if cold[-1]["version_index"] > tier else []
    return {
        "fixed_mix": False,
        "notes": notes,
        "env": results[0]["env"],
        "setup_samples": setups,
        "passes": [
            {
                "wall_s": r["wall_s"],
                "counters": r["counters"],
                "layers": _layers(r, requests) if trace else {},
            }
            for r in results
        ],
        "requests": requests,
        "check_failures": [f for r in results for f in r["check_failures"]],
        "spans": [span for r in results for span in r["spans"]],
        "span_costs": [(len(r["spans"]), r["span_cost_s"]) for r in results],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def _layers(result: dict, requests: list[dict]) -> dict:
    replay, counters = result["replay"], result["counters"]
    totals = replay["totals"]
    warm = [r for r in requests if r["kind"] == "warm"]
    in_process = [replay["localize_ms"][str(r["id"])] for r in warm]
    lookups = counters["result_cache.hits"] + counters["result_cache.misses"]
    return {
        "lang.parse_ms": median(replay["parse_ms"]),
        "encoding.analysis_s": totals["analysis_s"],
        "encoding.gates_s": totals["gates_s"],
        "encoding.materialize_s": totals["materialize_s"],
        "bmc.compile_s": totals["compile_s"],
        "bmc.clauses": totals["clauses"],
        "bmc.artifact_dump_s": totals["dump_s"],
        "bmc.artifact_load_s": totals["load_s"],
        "bmc.artifact_mb": totals["artifact_mb"],
        "maxsat.engine_load_s": totals["engine_load_s"],
        "maxsat.comss_s": totals["comss_s"],
        "maxsat.calls": totals["maxsat_calls"],
        "sat.calls": totals["sat_calls"],
        "sat.conflicts": totals["conflicts"],
        "sat.propagations": totals["propagations"],
        "sat.propagations_per_s": totals["propagations"] / totals["localize_s"],
        "store.get_or_compile_ms": median(replay["store_ms"]),
        "store.compiles": counters["store.compiles"],
        "store.warm_compiles": counters["store.warm_compiles"],
        "store.evictions": counters["store.evictions"],
        "store.disk_hits": counters["store.disk_hits"],
        "result_cache.hit_share": counters["result_cache.hits"] / lookups if lookups else 0.0,
        "pool.artifact_resends": counters["pool.artifact_resends"],
        "pool.shard_retries": counters["pool.shard_retries"],
        "session.localize_ms": median(replay["localize_ms"].values()),
        "serve.overhead_ms": median(r["latency_ms"] for r in warm) - median(in_process),
    }
