"""Workload ``table3_trace``: the trace-mode Table 3 pipeline.

One request is one program of Table 3, run in a fresh process: parse, delta
debugging / slicing / concretization where the program's reduction letter
says, the full and the reduced concolic trace, then
``BugAssistLocalizer.localize_trace`` with ``max_candidates=8``.  The four
whole-program instrumentation compiles of ``run_large_benchmark`` are not
part of it.  A pass runs every program once.
"""

from __future__ import annotations

from common import measure_program_passes, median, program_child
from workloads import SIZES, TABLE3_MAX_CANDIDATES


def child(job: dict) -> dict:
    return program_child(job, _request)


def _request(rec, benchmark, test, spec):
    from repro.concolic import ConcolicTracer
    from repro.core.localizer import BugAssistLocalizer
    from repro.reduction import minimize_failing_input, sliced_tracer_settings

    failures = []
    with rec.span("request", program=benchmark.name) as request:
        with rec.span("lang.parse") as parse:
            faulty = benchmark.faulty_program()
        delta = slicing = None
        if "D" in benchmark.reduction:
            with rec.span("reduction.delta") as delta:
                test = minimize_failing_input(test, benchmark.fails)
                spec = benchmark.specification(tuple(test))
        with rec.span("concolic.trace", which="full") as full_trace:
            full = ConcolicTracer(faulty).trace(test, spec)
        settings: dict = {}
        if "S" in benchmark.reduction:
            with rec.span("reduction.slice") as slicing:
                settings = sliced_tracer_settings(faulty)
        concrete = set(settings.get("concrete_functions", ()))
        if "C" in benchmark.reduction:
            concrete |= set(benchmark.concretize)
        with rec.span("concolic.trace", which="reduced") as reduced_trace:
            reduced = ConcolicTracer(
                faulty,
                relevant_lines=settings.get("relevant_lines"),
                concrete_functions=concrete,
            ).trace(test, spec)
        with rec.span("maxsat.localize_trace") as localize:
            report = BugAssistLocalizer(
                faulty, mode="trace", max_candidates=TABLE3_MAX_CANDIDATES
            ).localize_trace(reduced, program_name=benchmark.name)
    if reduced.num_clauses > full.num_clauses:
        failures.append("the reduced trace has more clauses than the full one")
    layers = {
        "parse_s": parse.duration,
        "delta_s": delta.duration if delta else 0.0,
        "slice_s": slicing.duration if slicing else 0.0,
        "trace_s": full_trace.duration + reduced_trace.duration,
        "comss_s": localize.duration,
        "clauses_before": full.num_clauses,
        "clauses_after": reduced.num_clauses,
        "maxsat_calls": report.maxsat_calls,
        "sat_calls": report.sat_calls,
        "conflicts": report.conflicts,
        "propagations": report.propagations,
    }
    return request.duration, report, layers, failures


def measure(seed: int, passes: int, trace: bool, size: str, deadline: float) -> dict:
    return measure_program_passes(
        "table3_trace", SIZES[size].table3_programs, _layers, seed, passes, trace, deadline
    )


def _layers(results: list[dict]) -> dict:
    def total(field: str) -> float:
        return sum(r["layers"][field] for r in results)

    comss = total("comss_s")
    return {
        "lang.parse_ms": 1000 * median(r["layers"]["parse_s"] for r in results),
        "maxsat.comss_s": comss,
        "maxsat.calls": total("maxsat_calls"),
        "sat.calls": total("sat_calls"),
        "sat.conflicts": total("conflicts"),
        "sat.propagations": total("propagations"),
        "sat.propagations_per_s": total("propagations") / comss if comss else 0.0,
        "concolic.trace_s": total("trace_s"),
        "concolic.clauses_after": total("clauses_after"),
        "reduction.delta_s": total("delta_s"),
        "reduction.slice_s": total("slice_s"),
        "reduction.clause_ratio": total("clauses_after") / total("clauses_before"),
    }
