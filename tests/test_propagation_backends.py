"""Differential tests: the C propagation core versus the pure-Python loop.

Both backends implement the identical algorithm over the same flat
clause-arena layout, so a full solver run must be bit-identical between
them: same SAT/UNSAT answers, same models, same assumption cores, same
conflict/decision/propagation counters.  These tests drive matched solver
pairs through the solver test matrix — random formulas, assumption
sequences, incremental clause addition, push/pop layers, budgeted probes,
and a complete MaxSAT localization — and require exact equality.

When the C core cannot be built (no compiler), the differential pairs are
skipped but the remainder of the suite — including everything else in
``tests/`` — still runs on the pure-Python fallback, which is the feature
check's guarantee.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import Solver, propagation_backend
from repro.sat.solver import SolverStats

C_AVAILABLE = propagation_backend() == "c"

needs_c = pytest.mark.skipif(
    not C_AVAILABLE, reason="C propagation core unavailable on this machine"
)


def _stats_tuple(stats: SolverStats) -> tuple:
    return (
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.restarts,
        stats.learnt_clauses,
        stats.deleted_clauses,
    )


def _pair() -> tuple[Solver, Solver]:
    return Solver(backend="python"), Solver(backend="c")


def _assert_same_outcome(py: Solver, cc: Solver, result_py, result_cc) -> None:
    assert result_py == result_cc
    assert _stats_tuple(py.stats) == _stats_tuple(cc.stats)
    if result_py:
        assert py.get_model() == cc.get_model()
    else:
        assert sorted(py.unsat_core()) == sorted(cc.unsat_core())


def _random_instance(seed: int, num_vars: int, num_clauses: int) -> list[list[int]]:
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 4)
        clause = []
        for _ in range(width):
            var = rng.randint(1, num_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        clauses.append(clause)
    return clauses


@needs_c
class TestDifferential:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_formulas_identical(self, seed):
        clauses = _random_instance(seed, num_vars=14, num_clauses=56)
        py, cc = _pair()
        for clause in clauses:
            py.add_clause(list(clause))
            cc.add_clause(list(clause))
        _assert_same_outcome(py, cc, py.solve(), cc.solve())

    @pytest.mark.parametrize("seed", range(12))
    def test_assumption_sequences_identical(self, seed):
        rng = random.Random(1000 + seed)
        clauses = _random_instance(2000 + seed, num_vars=12, num_clauses=44)
        py, cc = _pair()
        for clause in clauses:
            py.add_clause(list(clause))
            cc.add_clause(list(clause))
        for _ in range(6):
            assumptions = [
                rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(rng.randint(0, 4))
            ]
            _assert_same_outcome(
                py, cc, py.solve(list(assumptions)), cc.solve(list(assumptions))
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_incremental_blocking_identical(self, seed):
        clauses = _random_instance(3000 + seed, num_vars=10, num_clauses=30)
        py, cc = _pair()
        for clause in clauses:
            py.add_clause(list(clause))
            cc.add_clause(list(clause))
        for _ in range(8):
            result_py, result_cc = py.solve(), cc.solve()
            _assert_same_outcome(py, cc, result_py, result_cc)
            if not result_py:
                break
            model = py.get_model()
            blocking = [(-var if value else var) for var, value in model.items()][:10]
            if not blocking:
                break
            py.add_clause(list(blocking))
            cc.add_clause(list(blocking))

    @pytest.mark.parametrize("seed", range(8))
    def test_push_pop_layers_identical(self, seed):
        rng = random.Random(4000 + seed)
        base = _random_instance(5000 + seed, num_vars=10, num_clauses=24)
        py, cc = _pair()
        for clause in base:
            py.add_clause(list(clause))
            cc.add_clause(list(clause))
        for _ in range(3):
            py.push()
            cc.push()
            for clause in _random_instance(rng.randint(0, 10_000), 10, 10):
                py.add_clause(list(clause))
                cc.add_clause(list(clause))
            _assert_same_outcome(py, cc, py.solve(), cc.solve())
            py.pop()
            cc.pop()
            _assert_same_outcome(py, cc, py.solve(), cc.solve())

    def test_budgeted_probe_identical(self):
        clauses = _random_instance(77, num_vars=16, num_clauses=70)
        py, cc = _pair()
        for clause in clauses:
            py.add_clause(list(clause))
            cc.add_clause(list(clause))
        outcome_py = py.solve_limited(max_decisions=3)
        outcome_cc = cc.solve_limited(max_decisions=3)
        assert outcome_py == outcome_cc
        assert _stats_tuple(py.stats) == _stats_tuple(cc.stats)

    def test_pigeonhole_unsat_identical(self):
        def pigeonhole(solver: Solver) -> None:
            # 4 pigeons, 3 holes: variable p*3+h+1 means pigeon p in hole h.
            for pigeon in range(4):
                solver.add_clause([pigeon * 3 + hole + 1 for hole in range(3)])
            for hole in range(3):
                for first in range(4):
                    for second in range(first + 1, 4):
                        solver.add_clause(
                            [-(first * 3 + hole + 1), -(second * 3 + hole + 1)]
                        )

        py, cc = _pair()
        pigeonhole(py)
        pigeonhole(cc)
        _assert_same_outcome(py, cc, py.solve(), cc.solve())

    def test_localization_reports_identical(self, monkeypatch):
        """A full MaxSAT localization is bit-identical across backends."""
        from repro.core.localizer import BugAssistLocalizer
        from repro.lang import parse_program
        from repro.sat import _ccore
        from repro.spec import Specification

        source = (
            "int main(int x) {\n"
            "    int a = x + 1;\n"
            "    int b = a * 2;\n"
            "    int c = b - 3;\n"
            "    return c;\n"
            "}\n"
        )
        program = parse_program(source, name="diff-check")
        reports = {}
        for backend in ("python", "c"):
            # Pin the default backend every internal Solver() picks up.
            monkeypatch.setattr(_ccore, "backend", lambda choice=backend: choice)
            localizer = BugAssistLocalizer(program, mode="trace")
            reports[backend] = localizer.localize_test(
                [5], Specification.return_value(0)
            )
        py_report, c_report = reports["python"], reports["c"]
        assert py_report.lines == c_report.lines
        assert py_report.sat_calls == c_report.sat_calls
        assert py_report.propagations == c_report.propagations
        assert [c.lines for c in py_report.candidates] == [
            c.lines for c in c_report.candidates
        ]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=30,
    )
)
def test_hypothesis_differential(clauses):
    if not C_AVAILABLE:
        pytest.skip("C propagation core unavailable")
    py, cc = _pair()
    for clause in clauses:
        py.add_clause(list(clause))
        cc.add_clause(list(clause))
    _assert_same_outcome(py, cc, py.solve(), cc.solve())


class TestFeatureCheck:
    def test_python_backend_always_constructible(self):
        solver = Solver(backend="python")
        solver.add_clause([1, 2])
        assert solver.solve()
        assert solver.backend == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Solver(backend="fortran")

    def test_env_forces_python_fallback(self):
        """REPRO_BACKEND=python pins the fallback in a fresh process."""
        script = (
            "from repro.sat import propagation_backend, Solver\n"
            "assert propagation_backend() == 'python'\n"
            "s = Solver()\n"
            "assert s.backend == 'python'\n"
            "s.add_clause([1]); assert s.solve()\n"
            "print('ok')\n"
        )
        env = dict(os.environ)
        env["REPRO_BACKEND"] = "python"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout

    @needs_c
    def test_env_requires_c_core(self):
        script = (
            "from repro.sat import propagation_backend\n"
            "assert propagation_backend() == 'c'\n"
            "print('ok')\n"
        )
        env = dict(os.environ)
        env["REPRO_BACKEND"] = "c"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestArenaHousekeeping:
    """The flat-arena layout's garbage handling, on the always-on backend."""

    def test_compaction_preserves_answers(self):
        solver = Solver(backend="python")
        rng = random.Random(9)
        # Pile up layers so pops create enough garbage to force compaction.
        for _ in range(60):
            solver.push()
            for clause in _random_instance(rng.randint(0, 10_000), 30, 120):
                solver.add_clause(clause)
            solver.solve()
            solver.pop()
        # Force a compaction regardless of the trigger heuristics.
        solver._compact()
        assert solver._garbage == 0
        clauses = _random_instance(123, num_vars=12, num_clauses=40)
        reference = Solver(backend="python")
        for clause in clauses:
            solver.add_clause([lit + 0 for lit in clause])
            reference.add_clause(list(clause))
        assert solver.solve() == reference.solve()

    def test_pop_frees_layer_clauses(self):
        solver = Solver(backend="python")
        solver.add_clause([1, 2])
        solver.push()  # allocates the layer's selector (variable 3)
        # Stay clear of the selector variable so the clauses really attach
        # (a clause mentioning it would be dropped as a tautology).
        for _ in range(5):
            solver.add_clause([4, 5, 6])
        added = solver._arena_len
        assert solver.solve()
        solver.pop()
        # The popped layer's clauses are dead arena spans now (compaction
        # compares against the *logical* length, which physical slack for
        # the C kernel may exceed).
        assert solver._garbage > 0 or solver._arena_len < added
        assert solver.solve()
