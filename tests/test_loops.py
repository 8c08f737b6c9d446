"""Loop-bound analysis, per-loop unwind planning, and iteration-aware
localization: verdict inference, the loop lints, the planned encoding's
differential discipline, unwinding-assumption hardness, unwind-exhaustion
reporting, and the serve plumbing for the new options."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_source
from repro.analysis.loops import (
    BOUNDED,
    EXACT,
    INFINITE,
    PLANNED_UNWIND_CAP,
    UNKNOWN,
    effective_unwind,
    lint_loops,
    plan_unwinds,
)
from repro.bmc import BoundedModelChecker, dumps_artifact, loads_artifact
from repro.core import LocalizationSession, Specification
from repro.lang import Interpreter, parse_program
from repro.siemens.loop_corpus import (
    BOUNDED_FILL,
    DRIFTING_ACC,
    LOOP_BENCHMARKS,
    SCALE_SUM,
)
from repro.siemens.programs import LARGE_BENCHMARKS


def bounds_for(source: str, **kwargs):
    result = analyze_source(source, **kwargs)
    assert not result.has_errors or kwargs, result.diagnostics
    return result


# ---------------------------------------------------------- verdict inference


class TestLoopBoundInference:
    def test_exact_increasing(self):
        result = bounds_for(
            "int main() {\n"
            "    int i = 0;\n"
            "    int s = 0;\n"
            "    while (i < 5) {\n"
            "        s = s + i;\n"
            "        i = i + 1;\n"
            "    }\n"
            "    return s;\n"
            "}\n"
        )
        bound = result.loop_bounds[("main", 4)]
        assert (bound.verdict, bound.lo, bound.hi) == (EXACT, 5, 5)
        assert bound.induction_var == "i"

    def test_exact_decreasing_with_stride(self):
        result = bounds_for(
            "int main() {\n"
            "    int j = 10;\n"
            "    while (j > 0) {\n"
            "        j = j - 2;\n"
            "    }\n"
            "    return j;\n"
            "}\n"
        )
        bound = result.loop_bounds[("main", 3)]
        assert (bound.verdict, bound.lo, bound.hi) == (EXACT, 5, 5)

    def test_bounded_by_assume(self):
        result = bounds_for(
            "int main(int n) {\n"
            "    int i = 0;\n"
            "    assume(n > 0 && n < 8);\n"
            "    while (i < n) {\n"
            "        i = i + 1;\n"
            "    }\n"
            "    return i;\n"
            "}\n"
        )
        bound = result.loop_bounds[("main", 4)]
        assert bound.verdict == BOUNDED
        assert (bound.lo, bound.hi) == (1, 7)

    def test_unknown_when_step_not_invariant(self):
        result = bounds_for(
            "int main(int n) {\n"
            "    int i = 0;\n"
            "    while (i < 10) {\n"
            "        i = i + n;\n"
            "    }\n"
            "    return i;\n"
            "}\n"
        )
        assert result.loop_bounds[("main", 3)].verdict == UNKNOWN

    def test_infinite_loop(self):
        result = bounds_for(
            "int main() {\n"
            "    int i = 0;\n"
            "    while (1) {\n"
            "        i = i + 0;\n"
            "    }\n"
            "    return i;\n"
            "}\n"
        )
        assert result.loop_bounds[("main", 3)].verdict == INFINITE

    def test_wraparound_is_not_infinite(self):
        # i = i + 1 from 0 under `i >= 0` wraps to the negative range, so
        # the guard does eventually fail; the verdict must not claim
        # non-termination (nor a small bound).
        result = bounds_for(
            "int main() {\n"
            "    int i = 0;\n"
            "    while (i >= 0) {\n"
            "        i = i + 1;\n"
            "    }\n"
            "    return i;\n"
            "}\n"
        )
        assert result.loop_bounds[("main", 3)].verdict != INFINITE

    def test_constant_false_guard_is_exact_zero(self):
        result = bounds_for(
            "int main() {\n"
            "    int i = 9;\n"
            "    while (i < 3) {\n"
            "        i = i + 1;\n"
            "    }\n"
            "    return i;\n"
            "}\n"
        )
        bound = result.loop_bounds[("main", 3)]
        assert (bound.verdict, bound.hi) == (EXACT, 0)
        assert bound.guard_always_false

    def test_early_return_lowers_the_floor(self):
        result = bounds_for(
            "int count(int n) {\n"
            "    int i = 0;\n"
            "    while (i < 6) {\n"
            "        if (i == n) {\n"
            "            return i;\n"
            "        }\n"
            "        i = i + 1;\n"
            "    }\n"
            "    return i;\n"
            "}\n"
            "int main(int n) { return count(n); }\n"
        )
        bound = result.loop_bounds[("count", 3)]
        assert bound.lo == 0
        assert bound.hi == 6


# ----------------------------------------------------------------- loop lints


class TestLoopLints:
    DEEP = (
        "int main(int x) {\n"
        "    int i = 0;\n"
        "    int s = 0;\n"
        "    assume(x == 1);\n"
        "    while (i < 40) {\n"
        "        s = s + x;\n"
        "        i = i + 1;\n"
        "    }\n"
        "    assert(s == 40);\n"
        "    return s;\n"
        "}\n"
    )

    def test_unwind_insufficient_is_an_error(self):
        result = analyze_source(self.DEEP, unwind=16)
        codes = {(d.code, d.severity) for d in result.diagnostics}
        assert ("unwind-insufficient", "error") in codes
        assert result.has_errors

    def test_planning_clears_unwind_insufficient(self):
        result = analyze_source(self.DEEP, unwind=16, unwind_planning=True)
        assert not any(d.code == "unwind-insufficient" for d in result.diagnostics)

    def test_raising_unwind_clears_it_too(self):
        result = analyze_source(self.DEEP, unwind=64)
        assert not any(d.code == "unwind-insufficient" for d in result.diagnostics)

    def test_nonterminating_loop_warning(self):
        result = analyze_source(
            "int main() {\n"
            "    int i = 0;\n"
            "    while (1) {\n"
            "        i = i + 0;\n"
            "    }\n"
            "    return i;\n"
            "}\n"
        )
        diagnostic = next(
            d for d in result.diagnostics if d.code == "nonterminating-loop"
        )
        assert diagnostic.severity == "warning"
        assert diagnostic.line == 3

    def test_constant_false_guard_warning(self):
        result = analyze_source(
            "int main() {\n"
            "    int i = 9;\n"
            "    while (i < 3) {\n"
            "        i = i + 1;\n"
            "    }\n"
            "    return i;\n"
            "}\n"
        )
        assert any(d.code == "constant-false-guard" for d in result.diagnostics)

    def test_cli_reports_loop_lints(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        path = tmp_path / "deep.mc"
        path.write_text(self.DEEP)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "unwind-insufficient" in out
        assert main([str(path), "--unwind-planning"]) == 0
        assert main([str(path), "--unwind", "64"]) == 0

    def test_effective_unwind_and_cap(self):
        result = analyze_source(self.DEEP)
        bound = result.loop_bounds[("main", 5)]
        assert effective_unwind(bound, 16, False) == 16
        assert effective_unwind(bound, 16, True) == 40
        plans = plan_unwinds(result.loop_bounds, 16)
        assert plans[("main", 5)] == (40, True)
        # Bounds beyond the planning cap keep the global unwind.
        deep = self.DEEP.replace("i < 40", f"i < {PLANNED_UNWIND_CAP + 40}")
        capped = analyze_source(deep)
        assert plan_unwinds(capped.loop_bounds, 16) == {}

    def test_lints_survive_incremental_replay(self):
        # Loop bounds are unwind-independent and the lints are re-derived
        # from them: linting the recorded bounds again must reproduce the
        # unwind-insufficient error.
        cold = analyze_source(self.DEEP, unwind=16)
        warm = lint_loops(cold.loop_bounds.values(), unwind=16)
        assert any(d.code == "unwind-insufficient" for d in warm)


# ------------------------------------------------------------ unwind planning


class TestUnwindPlanning:
    def test_corpus_faults_fail_under_the_interpreter(self):
        for bench in LOOP_BENCHMARKS:
            outcome = Interpreter(bench.program()).run(list(bench.failing_test))
            assert outcome.assertion_failed, bench.name

    def test_planning_prunes_at_least_thirty_percent(self):
        reductions = {}
        for bench in LOOP_BENCHMARKS:
            program = bench.program()
            flat = BoundedModelChecker(
                program, group_statements=True
            ).compile_program()
            planned = BoundedModelChecker(
                program, group_statements=True, unwind_planning=True
            ).compile_program()
            assert planned.planned_loops >= 1, bench.name
            reductions[bench.name] = 1 - planned.num_clauses / flat.num_clauses
        assert max(reductions.values()) >= 0.30, reductions

    @pytest.mark.parametrize("bench", [SCALE_SUM, BOUNDED_FILL], ids=lambda b: b.name)
    def test_candidate_lines_identical_planning_on_off(self, bench):
        program = bench.program()
        lines = {}
        for planning in (False, True):
            with LocalizationSession(program, unwind_planning=planning) as session:
                report = session.localize(
                    list(bench.failing_test), bench.specification()
                )
            lines[planning] = set(report.lines)
            assert any(line in bench.fault_lines for line in report.lines)
        assert lines[False] == lines[True]

    def test_planning_changes_the_artifact_key(self):
        from repro.bmc import artifact_key

        program = SCALE_SUM.program()
        flat = BoundedModelChecker(program, group_statements=True)
        planned = BoundedModelChecker(
            program, group_statements=True, unwind_planning=True
        )
        assert artifact_key(SCALE_SUM.source, flat.compile_options("main")) != (
            artifact_key(SCALE_SUM.source, planned.compile_options("main"))
        )

    def test_plans_round_trip_through_the_artifact(self):
        program = SCALE_SUM.program()
        compiled = BoundedModelChecker(
            program, group_statements=True, unwind_planning=True
        ).compile_program()
        restored = loads_artifact(dumps_artifact(compiled))
        assert restored.unwind_plans == compiled.unwind_plans
        assert restored.truncated_loops == compiled.truncated_loops
        assert restored.planned_loops == compiled.planned_loops


@pytest.mark.slow
class TestTable3Differential:
    """The safety net for dropping unwinding assumptions: per-loop planning
    must not move any Table 3 program's candidate lines."""

    @pytest.mark.parametrize("bench", LARGE_BENCHMARKS, ids=lambda b: b.name)
    def test_candidate_lines_identical(self, bench):
        faulty = bench.faulty_program()
        flat = BoundedModelChecker(
            faulty, group_statements=True
        ).compile_program()
        planned = BoundedModelChecker(
            faulty, group_statements=True, unwind_planning=True
        ).compile_program()
        if planned.signature == flat.signature:
            # No loop got a plan: the encodings are identical, so the
            # candidate sets are too.
            assert planned.unwind_plans == {}
            return
        spec = bench.specification()
        test = list(bench.failing_test)
        lines = {}
        for compiled in (flat, planned):
            session = LocalizationSession.from_compiled(compiled, max_candidates=8)
            with session:
                lines[id(compiled)] = set(session.localize(test, spec).lines)
        assert lines[id(flat)] == lines[id(planned)]


# -------------------------------------------- unwinding-assumption hardness


class TestUnwindingAssumptionHardness:
    EXACT_AT_BOUND = (
        "int main(int x) {\n"
        "    int i = 0;\n"
        "    while (i < x) {\n"
        "        i = i + 1;\n"
        "    }\n"
        "    assert(i == 4);\n"
        "    return i;\n"
        "}\n"
    )

    def test_guard_group_holds_only_binding_clauses(self):
        # The guard's relaxable group must contain exactly the two binding
        # clauses per unrolling; the guard circuit itself is hard.  (The
        # regression: structure-hashed gates defined inside the group let
        # the localizer vacate the unwinding assumption by relaxing it.)
        program = parse_program(self.EXACT_AT_BOUND, name="exact-bound")
        compiled = BoundedModelChecker(
            program, unwind=4, group_statements=True
        ).compile_program()
        guard_group = next(g for g in compiled.groups if g.line == 3)
        clauses = compiled.groups[guard_group]
        assert len(clauses) == 2 * 4
        assert all(len(clause) == 2 for clause in clauses)

    def test_failure_beyond_bound_is_never_blamed_on_the_guard_alone(self):
        # x = 5 needs a fifth iteration the unwind-4 encoding cannot run.
        # Flipping the loop guard's group alone must not "explain" the
        # failure by disabling the truncation assumption; the honest
        # minimal explanation relaxes guard and body together.
        program = parse_program(self.EXACT_AT_BOUND, name="exact-bound")
        with LocalizationSession(program, unwind=4) as session:
            report = session.localize([5], Specification.assertion())
        assert report.candidates
        for candidate in report.candidates:
            assert {group.line for group in candidate.groups} != {3}

    def test_loop_exiting_exactly_at_bound_stays_consistent(self):
        # Trip count == unwind: the final truncation guard is evaluated on
        # the last state.  The encoding must accept the real execution
        # (no candidates on a passing run).
        program = parse_program(self.EXACT_AT_BOUND, name="exact-bound")
        with LocalizationSession(program, unwind=4) as session:
            report = session.localize([4], Specification.assertion())
        assert report.candidates == []


# ------------------------------------------------------------ unwind exhaustion


class TestUnwindExhaustion:
    def test_provable_truncation_is_an_error_and_flags_reports(self):
        program = parse_program(TestLoopLints.DEEP, name="deep-loop")
        with LocalizationSession(program) as session:
            compiled = session.compiled
            assert ("main", 5) in compiled.truncated_loops
            assert any(
                d.code == "unwind-insufficient" and d.severity == "error"
                for d in compiled.diagnostics
            )
            report = session.localize([1], Specification.assertion())
        # The truncated encoding "localizes" a correct program — the flag
        # is the reader's warning that candidates came from a prefix.
        assert report.unwind_truncated

    def test_planning_unrolls_to_the_proven_bound(self):
        program = parse_program(TestLoopLints.DEEP, name="deep-loop")
        with LocalizationSession(program, unwind_planning=True) as session:
            compiled = session.compiled
            assert compiled.truncated_loops == ()
            assert compiled.unwind_plans[("main", 5)] == (40, True)
            assert not any(
                d.code == "unwind-insufficient" for d in compiled.diagnostics
            )
            report = session.localize([1], Specification.assertion())
        assert not report.unwind_truncated
        # The program is correct once fully unrolled: nothing to localize.
        assert report.candidates == []


# ------------------------------------------------------- iteration-aware groups


class TestIterationGroups:
    def test_candidates_carry_line_and_iteration(self):
        program = DRIFTING_ACC.program()
        with LocalizationSession(program, loop_iteration_groups=True) as session:
            report = session.localize(
                list(DRIFTING_ACC.failing_test), DRIFTING_ACC.specification()
            )
        fault_line = DRIFTING_ACC.fault_lines[0]
        per_iteration = {
            group.iteration
            for candidate in report.candidates
            for group in candidate.groups
            if group.line == fault_line and candidate.cost == 1
        }
        # Relaxing any single iteration's copy of the faulty accumulation
        # repairs the run, so every iteration appears as its own candidate.
        assert per_iteration == {1, 2, 3, 4, 5, 6}
        descriptions = [c.describe() for c in report.candidates]
        assert any("iteration" in d for d in descriptions)

    def test_off_by_default_keeps_line_granularity(self):
        program = DRIFTING_ACC.program()
        with LocalizationSession(program) as session:
            report = session.localize(
                list(DRIFTING_ACC.failing_test), DRIFTING_ACC.specification()
            )
        assert all(
            group.iteration is None
            for candidate in report.candidates
            for group in candidate.groups
        )

    def test_function_called_inside_and_outside_a_loop(self):
        # A callee's statements must not inherit the caller's iteration
        # counter — the same line would otherwise land in differently-keyed
        # groups (unsortable None/int mixes) depending on the call site.
        source = (
            "int bump(int v) {\n"
            "    return v + 1;\n"
            "}\n"
            "int main(int x) {\n"
            "    int i = 0;\n"
            "    int s = bump(x);\n"
            "    while (i < 3) {\n"
            "        s = bump(s);\n"
            "        i = i + 1;\n"
            "    }\n"
            "    assert(s == 0);\n"
            "    return s;\n"
            "}\n"
        )
        program = parse_program(source, name="mixed-calls")
        with LocalizationSession(program, loop_iteration_groups=True) as session:
            report = session.localize([1], Specification.assertion())
        assert report.candidates

    def test_line_iteration_pairs_match_concolic_trace(self):
        # The BMC's unrolled iterations and the concolic tracer's dynamic
        # ones agree on (line, iteration) keys for a straight-line loop.
        from repro.concolic import ConcolicTracer

        program = DRIFTING_ACC.program()
        formula = ConcolicTracer(program, loop_iteration_groups=True).trace(
            list(DRIFTING_ACC.failing_test), DRIFTING_ACC.specification()
        )
        compiled = BoundedModelChecker(
            program, group_statements=True, loop_iteration_groups=True
        ).compile_program()
        fault_line = DRIFTING_ACC.fault_lines[0]
        concolic_keys = {
            (g.line, g.iteration) for g in formula.groups if g.line == fault_line
        }
        bmc_keys = {
            (g.line, g.iteration) for g in compiled.groups if g.line == fault_line
        }
        assert concolic_keys == {(fault_line, k) for k in range(1, 7)}
        # The BMC unrolls to the global bound, so its keys are a superset.
        assert concolic_keys <= bmc_keys


# ----------------------------------------------------------- serve round trip


@pytest.fixture(scope="module")
def loop_daemon():
    from repro.serve import Client, ServerThread

    with ServerThread(workers=1, max_sessions_per_worker=4) as handle:
        with Client(tcp=handle.tcp_address) as probe:
            probe.wait_until_ready()
        yield handle


class TestServeLoopOptions:
    OPTIONS = {
        "name": "drifting_acc",
        "unwind_planning": True,
        "loop_iteration_groups": True,
    }

    def test_iteration_groups_round_trip_the_wire(self, loop_daemon):
        from repro.serve import Client, canonical_report_bytes

        with Client(tcp=loop_daemon.tcp_address) as client:
            reply = client.localize(
                test=list(DRIFTING_ACC.failing_test),
                spec={"kind": "assertion", "expected": []},
                program=DRIFTING_ACC.source,
                options=dict(self.OPTIONS),
            )
        assert reply["ok"]
        wire = reply["report"]
        assert wire["unwind_truncated"] is False
        assert any(
            "iteration" in candidate["description"]
            for candidate in wire["candidates"]
        )
        with LocalizationSession(
            DRIFTING_ACC.program(),
            unwind_planning=True,
            loop_iteration_groups=True,
        ) as session:
            baseline = session.localize(
                list(DRIFTING_ACC.failing_test), DRIFTING_ACC.specification()
            )
        assert canonical_report_bytes(wire) == canonical_report_bytes(baseline)

    def test_loop_options_are_part_of_the_artifact_key(self, loop_daemon):
        from repro.serve import Client

        with Client(tcp=loop_daemon.tcp_address) as client:
            flat = client.compile(DRIFTING_ACC.source, name="drifting-key")
            planned = client.compile(
                DRIFTING_ACC.source,
                name="drifting-key",
                options={"unwind_planning": True, "loop_iteration_groups": True},
            )
        assert flat["artifact"] != planned["artifact"]

    def test_truncated_loop_is_rejected_until_planned(self, loop_daemon):
        import socket

        from repro.serve import Client, protocol

        host, port = loop_daemon.tcp_address
        with socket.create_connection((host, port), timeout=10) as sock:
            protocol.send_frame(
                sock,
                {
                    "op": "compile",
                    "program": TestLoopLints.DEEP,
                    "options": {"name": "deep-loop"},
                },
            )
            response = protocol.recv_frame(sock)
        assert response["ok"] is False
        assert response["error_kind"] == "rejected"
        assert {d["code"] for d in response["diagnostics"]} == {
            "unwind-insufficient"
        }
        with Client(tcp=loop_daemon.tcp_address) as client:
            reply = client.compile(
                TestLoopLints.DEEP,
                name="deep-loop",
                options={"unwind_planning": True},
            )
        assert reply["ok"]
        assert reply["diagnostics"] == []
