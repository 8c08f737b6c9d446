"""Unit and property-based tests for the CDCL SAT solver."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import Solver
from repro.sat.literals import normalize_clause


def brute_force_sat(num_vars: int, clauses: list[list[int]]) -> bool:
    """Reference satisfiability check by exhaustive enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {var: bits[var - 1] for var in range(1, num_vars + 1)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert Solver().solve()

    def test_single_unit_clause(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.solve()
        assert solver.model_value(1) is True
        assert solver.model_value(-1) is False

    def test_contradictory_units(self):
        solver = Solver()
        solver.add_clause([1])
        assert not solver.add_clause([-1]) or not solver.solve()
        assert not solver.solve()

    def test_simple_implication_chain(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve()
        assert solver.model_value(3) is True

    def test_empty_clause_rejected(self):
        solver = Solver()
        assert not solver.add_clause([])
        assert not solver.solve()

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Solver().add_clause([0])

    def test_tautological_clause_ignored(self):
        solver = Solver()
        assert solver.add_clause([1, -1])
        assert solver.solve()

    def test_pigeonhole_3_into_2_unsat(self):
        # 3 pigeons, 2 holes: var p_{i,h} = 2*i + h + 1.
        solver = Solver()

        def var(pigeon: int, hole: int) -> int:
            return pigeon * 2 + hole + 1

        for pigeon in range(3):
            solver.add_clause([var(pigeon, 0), var(pigeon, 1)])
        for hole in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-var(p1, hole), -var(p2, hole)])
        assert not solver.solve()

    def test_model_satisfies_all_clauses(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve()
        model = solver.get_model()
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    def test_incremental_reuse(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve()
        solver.add_clause([-1])
        assert solver.solve()
        assert solver.model_value(2) is True
        solver.add_clause([-2])
        assert not solver.solve()


class TestClauseRetention:
    """The incremental MaxSAT loop adds blocking clauses between solves."""

    def test_add_clause_after_assumption_solve(self):
        solver = Solver()
        solver.ensure_vars(3)
        solver.add_clause([1, 2])
        assert solver.solve([-1])
        assert solver.model_value(2) is True
        # Growing the clause database after solving under assumptions must
        # work and be respected by later solves.
        solver.add_clause([-2, 3])
        assert solver.solve([-1])
        assert solver.model_value(3) is True
        assert not solver.solve([-1, -2])
        assert set(solver.unsat_core()) <= {-1, -2}

    def test_learnt_clauses_persist_across_solves(self):
        solver = Solver()
        # A small pigeonhole-style instance that forces some learning.
        for first in range(1, 4):
            solver.add_clause([2 * first - 1, 2 * first])
        for hole in (0, 1):
            for first in range(1, 4):
                for second in range(first + 1, 4):
                    solver.add_clause([-(2 * first - hole), -(2 * second - hole)])
        assert not solver.solve()
        conflicts = solver.stats.conflicts
        assert conflicts > 0
        # A permanently UNSAT solver keeps answering without re-searching:
        # everything derived in the first run is retained.
        assert not solver.solve()
        assert solver.stats.conflicts == conflicts

    def test_blocking_clause_flips_model(self):
        solver = Solver()
        solver.ensure_vars(2)
        solver.add_clause([1, 2])
        assert solver.solve()
        model = solver.get_model()
        blocking = [-lit if model[lit] else lit for lit in (1, 2)]
        solver.add_clause(blocking)
        assert solver.solve()
        flipped = solver.get_model()
        assert flipped != model

    def test_get_model_complete_fills_unassigned_vars(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.solve()
        # Variables allocated after the solve are unknown to the model...
        solver.ensure_vars(3)
        assert 3 not in solver.get_model()
        # ...unless a completed model is requested.
        completed = solver.get_model(complete=True)
        assert completed[1] is True
        assert set(completed) == {1, 2, 3}


class TestModelView:
    """get_model() is a lazy mapping over the model snapshot: it reads like
    the eager ``{var: bool}`` dict, and writes stay in its own overlay."""

    @staticmethod
    def _solved(*backends):
        solver = Solver(*backends)
        solver.ensure_vars(5)
        solver.add_clause([1])
        solver.add_clause([-1, -2])
        solver.add_clause([2, 3, -4])
        assert solver.solve([4])
        solver.ensure_vars(7)  # allocated after the solve: not in the model
        return solver

    @staticmethod
    def _eager(solver):
        """The dict get_model() used to build."""
        return {
            var: solver.model_value(var)
            for var in range(1, solver.num_vars + 1)
            if solver.model_value(var) is not None
        }

    @pytest.mark.parametrize("backend", ["python", None])
    def test_reads_like_the_eager_dict(self, backend):
        solver = self._solved(backend)
        view = solver.get_model()
        eager = self._eager(solver)
        assert view == eager and eager == view
        assert dict(view) == eager
        assert list(view) == list(eager)
        assert list(view.items()) == list(eager.items())
        assert len(view) == len(eager) == 5
        for var in range(-1, 10):
            assert (var in view) == (var in eager)
            assert view.get(var) == eager.get(var)
            assert view.get(var, "absent") == eager.get(var, "absent")
        assert "x" not in view and view.get("x") is None
        with pytest.raises(KeyError):
            view[6]
        assert view[1] is True and view[2] is False

    def test_writes_stay_in_the_overlay(self):
        solver = self._solved()
        view = solver.get_model()
        eager = self._eager(solver)
        for mapping in (view, eager):
            mapping[7] = True  # not in the model, completed by the caller
            mapping[1] = False  # an assigned variable, overwritten
        assert view == eager
        assert list(view.items()) == list(eager.items())
        assert len(view) == 6
        # Neither the solver nor a later view sees the writes.
        assert solver.model_value(1) is True
        assert solver.model_value(7) is None
        fresh = solver.get_model()
        assert fresh[1] is True and 7 not in fresh
        del view[3]
        del eager[3]
        assert view == eager and list(view) == list(eager)
        assert solver.model_value(3) is not None

    def test_view_survives_later_solves(self):
        solver = self._solved()
        view = solver.get_model()
        before = dict(view)
        solver.add_clause([-3])
        assert solver.solve([-4])
        assert dict(view) == before
        assert solver.get_model() != view


class TestAssumptions:
    def test_sat_under_assumptions(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        assert solver.solve([1])
        assert solver.model_value(2) is True

    def test_unsat_under_assumptions_but_sat_without(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, -3])
        assert not solver.solve([1, 3])
        assert solver.solve()
        assert solver.solve([1])

    def test_core_is_subset_of_assumptions(self):
        solver = Solver()
        solver.add_clause([-1, -2])
        assert not solver.solve([1, 2, 3])
        core = solver.unsat_core()
        assert set(core) <= {1, 2, 3}
        assert core

    def test_core_is_actually_unsat(self):
        solver = Solver()
        solver.add_clause([-1, -2])
        solver.add_clause([-3, -4])
        assert not solver.solve([1, 2, 3, 4])
        core = solver.unsat_core()
        # Re-solving under only the core must still be UNSAT.
        assert not solver.solve(core)

    def test_contradictory_assumptions(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert not solver.solve([3, -3])
        core = solver.unsat_core()
        assert set(core) <= {3, -3}

    def test_assumption_on_fresh_variable(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.solve([5])
        assert solver.model_value(5) is True


class TestSelectorPattern:
    """The usage pattern the MaxSAT layer relies on: selector variables."""

    def test_enable_disable_clause_groups(self):
        solver = Solver()
        # Group A (selector 10): x1 must be true.  Group B (selector 11): x1 false.
        solver.add_clause([-10, 1])
        solver.add_clause([-11, -1])
        assert solver.solve([10])
        assert solver.solve([11])
        assert not solver.solve([10, 11])
        core = set(solver.unsat_core())
        assert core <= {10, 11}
        assert len(core) == 2


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=18,
    )
)
def test_random_formulas_match_brute_force(clauses):
    cleaned = []
    for clause in clauses:
        normalized = normalize_clause(clause)
        if normalized is not None:
            cleaned.append(normalized)
    solver = Solver()
    for clause in cleaned:
        solver.add_clause(clause)
    expected = brute_force_sat(6, cleaned)
    assert solver.solve() == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-5, max_value=5).filter(lambda x: x != 0),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=12,
    ),
    st.lists(
        st.integers(min_value=-5, max_value=5).filter(lambda x: x != 0),
        max_size=3,
        unique_by=abs,
    ),
)
def test_assumptions_equivalent_to_unit_clauses(clauses, assumptions):
    solver = Solver()
    for clause in clauses:
        solver.add_clause(clause)
    under_assumptions = solver.solve(assumptions)

    reference = Solver()
    for clause in clauses:
        reference.add_clause(clause)
    for lit in assumptions:
        reference.add_clause([lit])
    assert under_assumptions == reference.solve()
