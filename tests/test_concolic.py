"""Tests for the concolic tracer: trace formulas of failing executions."""

from __future__ import annotations

import pytest

from repro.concolic import ConcolicTracer, TraceError
from repro.lang import Interpreter, parse_program
from repro.maxsat import WCNF, solve_maxsat
from repro.sat import Solver
from repro.spec import Specification

MOTIVATING = """
int Array[3] = {10, 20, 30};
int testme(int index) {
    if (index != 1) {
        index = 2;
    } else {
        index = index + 2;
    }
    int i = index;
    assert(i >= 0 && i < 3);
    return Array[i];
}
int main(int index) {
    return testme(index);
}
"""

GOLDEN_OUTPUT_PROGRAM = """
int scale(int x) {
    return x * 3;
}
int main(int x) {
    int doubled = scale(x);
    return doubled + 1;
}
"""

LOOP_PROGRAM = """
int main(int n) {
    int total = 0;
    int i = 0;
    while (i < n) {
        total = total + i;
        i = i + 1;
    }
    assert(total < 100);
    return total;
}
"""


def formula_satisfiable(formula, extra_clauses=()):
    """Check satisfiability of hard clauses + all group clauses together."""
    solver = Solver()
    solver.ensure_vars(formula.num_vars)
    for clause in formula.hard:
        solver.add_clause(clause)
    for clauses in formula.groups.values():
        for clause in clauses:
            solver.add_clause(clause)
    for clause in extra_clauses:
        solver.add_clause(clause)
    return solver.solve()


class TestTraceConstruction:
    def test_requires_failing_test(self):
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        with pytest.raises(TraceError):
            tracer.trace([0], Specification.assertion())

    def test_extended_trace_formula_is_unsat(self):
        # Phi = test-input /\ TF /\ assertion must be unsatisfiable for a
        # failing run (Section 2).
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        assert not formula_satisfiable(formula)

    def test_trace_formula_without_assertion_is_sat(self):
        # The trace formula itself (without the hard post-condition) encodes a
        # feasible execution, so hard input clauses + groups minus the final
        # assertion clause must be satisfiable.  We rebuild it by dropping the
        # last hard clause (the assertion unit).
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        solver = Solver()
        solver.ensure_vars(formula.num_vars)
        for clause in formula.hard[:-1]:
            solver.add_clause(clause)
        for clauses in formula.groups.values():
            for clause in clauses:
                solver.add_clause(clause)
        assert solver.solve()

    def test_groups_map_to_executed_lines(self):
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        lines = formula.lines
        # The source string starts with a newline, so "int Array..." is line 2.
        # The executed path visits the branch (line 4), the else assignment
        # (line 7), and the local declaration (line 9).
        assert 4 in lines
        assert 7 in lines
        assert 9 in lines
        # The then-branch assignment (line 5) was *not* executed.
        assert 5 not in lines

    def test_test_inputs_recorded(self):
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        assert formula.test_inputs == {"index": 1}

    def test_steps_and_assignment_counts(self):
        tracer = ConcolicTracer(parse_program(LOOP_PROGRAM))
        formula = tracer.trace([20], Specification.assertion())
        assert formula.num_assignments >= 2 + 2 * 14
        kinds = {step.kind for step in formula.steps}
        assert "loop-guard" in kinds
        assert "assign" in kinds

    def test_maxsat_on_motivating_example_blames_the_buggy_line(self):
        tracer = ConcolicTracer(parse_program(MOTIVATING))
        formula = tracer.trace([1], Specification.assertion())
        wcnf, _ = formula.to_wcnf()
        # The localization default engine (``auto`` may pick MSU3, which
        # legitimately reports a different cost-1 correction set).
        result = solve_maxsat(wcnf, strategy="hitting-set")
        assert result.satisfiable
        assert result.cost == 1
        lines = {group.line for group in result.falsified_labels}
        assert lines == {7}  # index = index + 2

    def test_golden_output_spec(self):
        program = parse_program(GOLDEN_OUTPUT_PROGRAM)
        # Correct output for x=4 would be 13; pretend the golden output is 9
        # (as if scale() should have doubled instead of tripled).
        tracer = ConcolicTracer(program)
        formula = tracer.trace([4], Specification.return_value(9))
        assert not formula_satisfiable(formula)
        wcnf, _ = formula.to_wcnf()
        result = solve_maxsat(wcnf)
        assert result.satisfiable
        lines = {group.line for group in result.falsified_labels}
        # Either the multiplication inside scale() or one of the statements in
        # main can be changed to obtain the expected output.
        assert lines & {3, 6, 7}

    def test_golden_output_matching_run_rejected(self):
        program = parse_program(GOLDEN_OUTPUT_PROGRAM)
        tracer = ConcolicTracer(program)
        with pytest.raises(TraceError):
            tracer.trace([4], Specification.return_value(13))

    def test_loop_iteration_groups(self):
        tracer = ConcolicTracer(parse_program(LOOP_PROGRAM), loop_iteration_groups=True)
        formula = tracer.trace([20], Specification.assertion())
        iterations = {
            group.iteration for group in formula.groups if group.iteration is not None
        }
        assert len(iterations) >= 10
        # Without per-iteration groups the same lines collapse into one group.
        plain = ConcolicTracer(parse_program(LOOP_PROGRAM)).trace(
            [20], Specification.assertion()
        )
        assert len(plain.groups) < len(formula.groups)

    def test_concrete_function_reduction_shrinks_formula(self):
        program = parse_program(GOLDEN_OUTPUT_PROGRAM)
        full = ConcolicTracer(program).trace([4], Specification.return_value(9))
        reduced = ConcolicTracer(program, concrete_functions=["scale"]).trace(
            [4], Specification.return_value(9)
        )
        assert reduced.num_clauses < full.num_clauses
        assert 3 not in reduced.lines  # the concretized function contributes no clauses

    def test_hard_functions_excluded_from_groups(self):
        program = parse_program(GOLDEN_OUTPUT_PROGRAM)
        formula = ConcolicTracer(program, hard_functions=["scale"]).trace(
            [4], Specification.return_value(9)
        )
        assert all(group.function != "scale" for group in formula.groups)

    def test_nondet_inputs_become_test_inputs(self):
        source = """
        int main(int x) {
            int extra = nondet();
            assert(x + extra < 10);
            return x + extra;
        }
        """
        tracer = ConcolicTracer(parse_program(source))
        formula = tracer.trace([5], Specification.assertion(), nondet_values=[7])
        assert formula.test_inputs["x"] == 5
        assert formula.test_inputs["nondet#0"] == 7
        assert not formula_satisfiable(formula)

    def test_trace_agrees_with_interpreter_on_globals_and_arrays(self):
        source = """
        int table[4] = {1, 2, 3, 4};
        int total = 0;
        void accumulate(int i) {
            total = total + table[i];
        }
        int main(int i) {
            accumulate(i);
            accumulate(i + 1);
            assert(total != 5);
            return total;
        }
        """
        program = parse_program(source)
        result = Interpreter(program).run([1])
        assert result.assertion_failed
        formula = ConcolicTracer(program).trace([1], Specification.assertion())
        assert not formula_satisfiable(formula)
        wcnf, _ = formula.to_wcnf()
        outcome = solve_maxsat(wcnf)
        assert outcome.satisfiable and outcome.falsified


# ------------------------------------------------ flat formula equivalence


def _list_oracle(formula, hard_groups=None, weight_of=None):
    """The partial MaxSAT instance built clause by clause from the list
    views: hard block, then per sorted group a soft group or hard clauses."""
    wcnf = WCNF()
    wcnf._num_vars = formula.num_vars
    for clause in formula.hard:
        wcnf.add_hard(clause)
    selector_to_group = {}
    for group, clauses in sorted(formula.groups.items()):
        if hard_groups is not None and group.line in hard_groups:
            for clause in clauses:
                wcnf.add_hard(clause)
            continue
        weight = weight_of(group) if weight_of is not None else 1
        selector = wcnf.add_soft_group(clauses, weight=weight, label=group)
        selector_to_group[selector] = group
    return wcnf, selector_to_group


def _equivalence_cases():
    from repro.siemens.loop_corpus import SCALE_SUM
    from repro.siemens.programs import LARGE_BENCHMARKS

    yield pytest.param(
        lambda: ConcolicTracer(parse_program(MOTIVATING)).trace(
            [1], Specification.assertion()
        ),
        id="motivating",
    )
    yield pytest.param(
        lambda: ConcolicTracer(SCALE_SUM.program(), loop_iteration_groups=True).trace(
            list(SCALE_SUM.failing_test), SCALE_SUM.specification()
        ),
        id=SCALE_SUM.name,
    )
    for case in LARGE_BENCHMARKS:
        marks = [pytest.mark.slow] if case.name in ("tot_info", "print_tokens") else []
        yield pytest.param(
            lambda case=case: ConcolicTracer(case.faulty_program()).trace(
                list(case.failing_test), case.specification()
            ),
            id=case.name,
            marks=marks,
        )


@pytest.mark.parametrize("make_formula", list(_equivalence_cases()))
def test_flat_trace_formula_matches_list_oracle(make_formula):
    """``TraceFormula.to_wcnf`` builds exactly the instance the clause lists
    give, with all groups soft, with some lines hard, and under Eq. 3."""
    formula = make_formula()
    assert formula.num_clauses == len(formula.hard) + sum(
        len(clauses) for clauses in formula.groups.values()
    )
    eta = max(
        (group.iteration for group in formula.group_keys if group.iteration is not None),
        default=0,
    )

    def weight_of(group):
        return 1 if group.iteration is None else 2 + eta - group.iteration

    lines = sorted(formula.lines)
    for hard_groups, weights in (
        (None, None),
        (set(lines[::2]), None),
        (None, weight_of),
    ):
        flat_wcnf, flat_map = formula.to_wcnf(hard_groups=hard_groups, weight_of=weights)
        list_wcnf, list_map = _list_oracle(formula, hard_groups, weights)
        assert flat_wcnf.lits == list_wcnf.lits
        assert flat_wcnf.ends == list_wcnf.ends
        assert flat_wcnf.range_ends == list_wcnf.range_ends
        assert flat_wcnf.range_sels == list_wcnf.range_sels
        assert flat_wcnf.soft == list_wcnf.soft
        assert flat_wcnf.num_vars == list_wcnf.num_vars
        assert flat_map == list_map
