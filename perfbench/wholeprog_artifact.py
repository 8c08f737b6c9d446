"""Workload ``wholeprog_artifact``: whole-program compile and artifact path.

One request is one program, run in a fresh process: parse,
``BoundedModelChecker.compile_program``, ``dumps_artifact`` then
``loads_artifact`` (what a store disk hit or a worker shipment pays), then
``LocalizationSession.from_compiled(...).localize`` with
``max_candidates=1``.  The traced run adds a second identical ``localize``
outside the request; the difference between the two is the engine's clause
load.  A pass runs print_tokens, schedule and schedule2 in turn; schedule2
is the small-artifact control.
"""

from __future__ import annotations

from common import measure_program_passes, median, program_child
from workloads import SIZES, WHOLEPROG_MAX_CANDIDATES


def child(job: dict) -> dict:
    return program_child(job, _request)


def _request(rec, benchmark, test, spec):
    from repro.bmc import BoundedModelChecker
    from repro.bmc.compiled import dumps_artifact, loads_artifact
    from repro.core import LocalizationSession

    failures = []
    with rec.span("request", program=benchmark.name) as request:
        with rec.span("lang.parse") as parse:
            faulty = benchmark.faulty_program()
        with rec.span("bmc.compile") as compile_span:
            compiled = BoundedModelChecker(faulty, group_statements=True).compile_program()
        profile = compiled.encode_profile().get("encode_phases", {})
        clauses = compiled.num_clauses
        with rec.span("bmc.artifact_dump") as dump:
            data = dumps_artifact(compiled)
        # The receiving side of a disk hit or a shipment holds only the bytes.
        del compiled
        with rec.span("bmc.artifact_load") as load:
            loaded = loads_artifact(data)
        session = LocalizationSession.from_compiled(
            loaded, max_candidates=WHOLEPROG_MAX_CANDIDATES
        )
        with rec.span("session.localize") as first:
            report = session.localize(test, spec)
    second_s = 0.0
    if rec.enabled:
        with rec.span("probe", program=benchmark.name):
            with rec.span("maxsat.second_localize") as second:
                again = session.localize(test, spec)
        second_s = second.duration
        if again.lines != report.lines:
            failures.append("a second identical localize changed the lines")
    layers = {
        "parse_s": parse.duration,
        "compile_s": compile_span.duration,
        "analysis_s": profile.get("analysis", 0.0),
        "gates_s": profile.get("gates", 0.0),
        "materialize_s": profile.get("materialize", 0.0),
        "clauses": clauses,
        "dump_s": dump.duration,
        "load_s": load.duration,
        "artifact_mb": len(data) / 1e6,
        "first_localize_s": first.duration,
        "second_localize_s": second_s,
        "maxsat_calls": report.maxsat_calls,
        "sat_calls": report.sat_calls,
        "conflicts": report.conflicts,
        "propagations": report.propagations,
    }
    return request.duration, report, layers, failures


def measure(seed: int, passes: int, trace: bool, size: str, deadline: float) -> dict:
    return measure_program_passes(
        "wholeprog_artifact", SIZES[size].wholeprog_programs, _layers, seed, passes, trace, deadline
    )


def _layers(results: list[dict]) -> dict:
    def total(field: str) -> float:
        return sum(r["layers"][field] for r in results)

    first = total("first_localize_s")
    return {
        "lang.parse_ms": 1000 * median(r["layers"]["parse_s"] for r in results),
        "encoding.analysis_s": total("analysis_s"),
        "encoding.gates_s": total("gates_s"),
        "encoding.materialize_s": total("materialize_s"),
        "bmc.compile_s": total("compile_s"),
        "bmc.clauses": total("clauses"),
        "bmc.artifact_dump_s": total("dump_s"),
        "bmc.artifact_load_s": total("load_s"),
        "bmc.artifact_mb": total("artifact_mb"),
        "maxsat.engine_load_s": first - total("second_localize_s"),
        "maxsat.comss_s": total("second_localize_s"),
        "maxsat.calls": total("maxsat_calls"),
        "sat.calls": total("sat_calls"),
        "sat.conflicts": total("conflicts"),
        "sat.propagations": total("propagations"),
        "sat.propagations_per_s": total("propagations") / first if first else 0.0,
        "session.localize_ms": 1000 * median(r["layers"]["first_localize_s"] for r in results),
    }
