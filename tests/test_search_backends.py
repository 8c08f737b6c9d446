"""Differential tests: the C search kernel versus the pure-Python loop.

PR 3 proved the propagation backends bit-identical; this suite extends the
same guarantee to the full search kernel — first-UIP conflict analysis with
clause learning and seen-buffer minimization, backjumping, VSIDS
bump/decay/rescale, the activity order heap, assumption handling with
core extraction, Luby restarts, decision/conflict budgets, learnt-database
reduction and arena compaction.  Every (propagation, search) backend
combination must produce identical SAT/UNSAT answers, models, assumption
cores and statistics — including the analysis counters
(``analyses`` / ``minimized_literals`` / ``backjumped_levels``).

When the C library cannot be built the differential pairs are skipped but
the pure-Python analysis tests (minimization regression, decision-budget
heap regression) still run, which is the feature check's guarantee.
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

#: Whether the compiled solver cores are usable here: a
#: REPRO_BACKEND=python pin (or a machine without a compiler) makes every
#: "c" backend unconstructible per solver, so only the pure reference runs.
C_AVAILABLE = propagation_backend() == "c"

needs_c = pytest.mark.skipif(
    not C_AVAILABLE, reason="no compiled solver core available in this environment"
)

#: Every constructible (propagation, search) backend combination, the pure
#: reference first.
COMBOS = [("python", "python")]
if C_AVAILABLE:
    COMBOS += [("c", "c"), ("c", "python"), ("python", "c")]


def _stats_tuple(stats: SolverStats) -> tuple:
    return (
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.restarts,
        stats.learnt_clauses,
        stats.deleted_clauses,
        stats.analyses,
        stats.minimized_literals,
        stats.backjumped_levels,
    )


def _quartet() -> list[Solver]:
    return [Solver(backend=prop, search=search) for prop, search in COMBOS]


def _assert_all_same(solvers: list[Solver], results: list) -> None:
    reference = results[0]
    reference_stats = _stats_tuple(solvers[0].stats)
    for combo, solver, result in zip(COMBOS[1:], solvers[1:], results[1:]):
        assert result == reference, combo
        assert _stats_tuple(solver.stats) == reference_stats, combo
        if reference:
            assert solver.get_model() == solvers[0].get_model(), combo
        else:
            assert sorted(solver.unsat_core()) == sorted(solvers[0].unsat_core()), combo


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


def _pigeonhole(solver: Solver, pigeons: int, holes: int) -> None:
    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    for pigeon in range(pigeons):
        solver.add_clause([var(pigeon, hole) for hole in range(holes)])
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                solver.add_clause([-var(first, hole), -var(second, hole)])


@needs_c
class TestDifferentialMatrix:
    """All four (propagation, search) combinations, driven in lockstep."""

    @pytest.mark.parametrize("seed", range(15))
    def test_random_formulas_identical(self, seed):
        clauses = _random_instance(seed, num_vars=14, num_clauses=56)
        solvers = _quartet()
        for solver in solvers:
            for clause in clauses:
                solver.add_clause(list(clause))
        _assert_all_same(solvers, [solver.solve() for solver in solvers])

    @pytest.mark.parametrize("seed", range(10))
    def test_assumption_cores_identical(self, seed):
        """UNSAT-under-assumptions exercises _analyze_final on every combo."""
        rng = random.Random(7000 + seed)
        clauses = _random_instance(8000 + seed, num_vars=12, num_clauses=52)
        solvers = _quartet()
        for solver in solvers:
            for clause in clauses:
                solver.add_clause(list(clause))
        saw_unsat = False
        for _ in range(8):
            assumptions = [
                rng.choice([-1, 1]) * rng.randint(1, 12)
                for _ in range(rng.randint(1, 5))
            ]
            results = [solver.solve(list(assumptions)) for solver in solvers]
            _assert_all_same(solvers, results)
            saw_unsat = saw_unsat or not results[0]
        # Every seed's sweep hits at least one UNSAT answer, so core
        # extraction (_analyze_final) really ran on every combo.
        assert saw_unsat

    def test_restart_boundaries_identical(self):
        """Pigeonhole 6/5 needs hundreds of conflicts: restarts must fire."""
        solvers = _quartet()
        for solver in solvers:
            _pigeonhole(solver, 6, 5)
        _assert_all_same(solvers, [solver.solve() for solver in solvers])
        assert solvers[0].stats.restarts > 0
        # Every conflict is analyzed except a terminal one at level 0.
        assert 0 <= solvers[0].stats.conflicts - solvers[0].stats.analyses <= 1
        assert solvers[0].stats.analyses > 0

    def test_restarts_under_assumptions_identical(self):
        """Assumption-aware restarts keep the assumption prefix on all combos."""
        solvers = _quartet()
        for solver in solvers:
            _pigeonhole(solver, 6, 5)
            solver.ensure_vars(35)
            solver.add_clause([31, 32])
        assumptions = [31, -32]
        _assert_all_same(
            solvers, [solver.solve(list(assumptions)) for solver in solvers]
        )
        assert solvers[0].stats.restarts > 0

    def test_clause_activity_rescale_identical(self):
        """A near-threshold _cla_inc forces the 1e20 rescale during replay."""
        solvers = _quartet()
        for solver in solvers:
            solver._cla_inc = 1e19
            _pigeonhole(solver, 5, 4)
        _assert_all_same(solvers, [solver.solve() for solver in solvers])
        reference = solvers[0]
        for solver in solvers[1:]:
            assert solver._cla_inc == reference._cla_inc
            assert sorted(solver._activity_of.values()) == sorted(
                reference._activity_of.values()
            )

    def test_var_activity_rescale_identical(self):
        """A near-threshold var_inc forces the 1e100 rescale + heap rebuild."""
        solvers = _quartet()
        for solver in solvers:
            solver._var_inc = 1e99
            _pigeonhole(solver, 5, 4)
        _assert_all_same(solvers, [solver.solve() for solver in solvers])
        reference = solvers[0]
        for solver in solvers[1:]:
            assert solver._var_inc == reference._var_inc
            assert list(solver._activity) == list(reference._activity)

    @pytest.mark.parametrize("seed", range(6))
    def test_push_pop_compaction_identical(self, seed):
        """Layer churn creates arena garbage; compaction must not diverge."""
        rng = random.Random(9000 + seed)
        base = _random_instance(9500 + seed, num_vars=10, num_clauses=24)
        solvers = _quartet()
        for solver in solvers:
            for clause in base:
                solver.add_clause(list(clause))
        compacted = False
        for _ in range(12):
            layer_seed = rng.randint(0, 10_000)
            for solver in solvers:
                solver.push()
                for clause in _random_instance(layer_seed, 10, 30):
                    solver.add_clause(list(clause))
            _assert_all_same(solvers, [solver.solve() for solver in solvers])
            for solver in solvers:
                solver.pop()
            compacted = compacted or all(
                solver._garbage == 0 for solver in solvers
            )
            _assert_all_same(solvers, [solver.solve() for solver in solvers])
        # Compaction decisions are made on the logical arena length, so all
        # four backends compact in the same pop.
        garbage = {solver._garbage for solver in solvers}
        assert len(garbage) == 1

    def test_forced_compaction_then_search_identical(self):
        """The kernel must re-provision slack after a compaction remap."""
        solvers = _quartet()
        for solver in solvers:
            for _ in range(40):
                solver.push()
                for clause in _random_instance(11, 20, 60):
                    solver.add_clause(list(clause))
                solver.solve()
                solver.pop()
            solver._compact()
            assert solver._garbage == 0
            solver.check_invariants()
        clauses = _random_instance(321, num_vars=12, num_clauses=48)
        for solver in solvers:
            for clause in clauses:
                solver.add_clause(list(clause))
        _assert_all_same(solvers, [solver.solve() for solver in solvers])
        for solver in solvers:
            # The compaction remap and the C kernel's re-entry must both
            # leave the arena, watches, trail and order heap consistent.
            solver.check_invariants()

    @pytest.mark.parametrize("combo", COMBOS)
    def test_invariants_hold_through_search_lifecycle(self, combo):
        """check_invariants passes at every quiescent point of a session."""
        prop, search = combo
        solver = Solver(backend=prop, search=search)
        solver.check_invariants()
        for clause in _random_instance(606, num_vars=14, num_clauses=58):
            solver.add_clause(list(clause))
        solver.check_invariants()
        solver.solve()
        solver.check_invariants()
        solver.solve([1, -2, 3])
        solver.check_invariants()
        solver.push()
        for clause in _random_instance(607, num_vars=14, num_clauses=30):
            solver.add_clause(list(clause))
        solver.solve()
        solver.check_invariants()
        solver.pop()
        solver.check_invariants()
        solver._compact()
        solver.check_invariants()
        solver.solve()
        solver.check_invariants()

    def test_budgeted_probe_identical(self):
        clauses = _random_instance(77, num_vars=16, num_clauses=70)
        solvers = _quartet()
        for solver in solvers:
            for clause in clauses:
                solver.add_clause(list(clause))
        outcomes = [solver.solve_limited(max_decisions=3) for solver in solvers]
        assert len(set(outcomes)) == 1
        reference = _stats_tuple(solvers[0].stats)
        for solver in solvers[1:]:
            assert _stats_tuple(solver.stats) == reference

    def test_conflict_budget_identical(self):
        from repro.sat.solver import ConflictBudgetExceeded

        solvers = _quartet()
        outcomes = []
        for solver in solvers:
            _pigeonhole(solver, 6, 5)
            solver.max_conflicts = 50
            try:
                outcomes.append(("done", solver.solve()))
            except ConflictBudgetExceeded:
                outcomes.append(("budget", None))
            finally:
                solver.max_conflicts = None
        assert len(set(outcomes)) == 1
        assert outcomes[0][0] == "budget"
        reference = _stats_tuple(solvers[0].stats)
        for solver in solvers[1:]:
            assert _stats_tuple(solver.stats) == reference

    def test_incremental_blocking_identical(self):
        solvers = _quartet()
        clauses = _random_instance(4242, num_vars=10, num_clauses=30)
        for solver in solvers:
            for clause in clauses:
                solver.add_clause(list(clause))
        for _ in range(8):
            results = [solver.solve() for solver in solvers]
            _assert_all_same(solvers, results)
            if not results[0]:
                break
            model = solvers[0].get_model()
            blocking = [(-var if value else var) for var, value in model.items()][:10]
            if not blocking:
                break
            for solver in solvers:
                solver.add_clause(list(blocking))

    def test_localization_reports_identical(self, monkeypatch):
        """A full MaxSAT localization is bit-identical across all combos."""
        from repro.core.localizer import BugAssistLocalizer
        from repro.lang import parse_program
        from repro.spec import Specification

        source = (
            "int main(int x) {\n"
            "    int a = x + 1;\n"
            "    int b = a * 2;\n"
            "    int c = b - 3;\n"
            "    return c;\n"
            "}\n"
        )
        program = parse_program(source, name="search-diff-check")
        original_init = Solver.__init__
        reports = {}
        for prop, search in COMBOS:
            # Pin the defaults every internal Solver() picks up.
            def pinned(self, backend=None, search=None, _prop=prop, _search=search):
                original_init(self, backend=backend or _prop, search=search or _search)

            monkeypatch.setattr(Solver, "__init__", pinned)
            localizer = BugAssistLocalizer(program, mode="trace")
            reports[(prop, search)] = localizer.localize_test(
                [5], Specification.return_value(0)
            )
        reference = reports[COMBOS[0]]
        for combo in COMBOS[1:]:
            report = reports[combo]
            assert report.lines == reference.lines, combo
            assert report.sat_calls == reference.sat_calls, combo
            assert report.propagations == reference.propagations, combo
            assert report.conflicts == reference.conflicts, combo
            assert [c.lines for c in report.candidates] == [
                c.lines for c in reference.candidates
            ], combo


    @pytest.mark.parametrize("seed", range(6))
    def test_analyze_final_c_matches_python(self, seed):
        """The C trail walk yields the Python walk's core, in list order."""
        rng = random.Random(13000 + seed)
        clauses = _random_3sat(13500 + seed, num_vars=14, num_clauses=50)
        solvers = _quartet()
        compared: list[list[int]] = []
        for solver in solvers:
            if solver._flat:
                _check_analyze_final(solver, compared)
            for clause in clauses:
                solver.add_clause(list(clause))
        for _ in range(12):
            assumptions = [
                var if rng.random() < 0.5 else -var
                for var in rng.sample(range(1, 15), rng.randint(3, 8))
            ]
            results = [solver.solve(list(assumptions)) for solver in solvers]
            _assert_all_same(solvers, results)
            if not results[0]:
                cores = [solver.unsat_core() for solver in solvers]
                assert all(core == cores[0] for core in cores), cores
        assert any(len(decisions) > 1 for decisions in compared)


def _check_analyze_final(solver: Solver, compared: list) -> None:
    """Make every core extraction of a flat solver run both trail walks on
    the same state and compare them, walk order included."""
    walk_c = solver._final_decisions_c

    def both(failed: int):
        expected = solver._final_decisions_python(failed)
        assert not any(solver._seen)
        decisions = walk_c(failed)
        assert not any(solver._seen)
        assert list(decisions) == expected
        compared.append(expected)
        return decisions

    solver._final_decisions_c = both


#: Arena words before a clause's literals, and the dead-clause header flag.
_HDR = 5
_FLAG_DEAD = 2


def _sequential_unlink(arena: list, heads: list, refs) -> None:
    """One clause at a time: find each watcher of the clause in its
    literal's list and splice it out (the detach the sweep replaced)."""
    for ref in refs:
        for slot in (0, 1):
            lit = arena[ref + _HDR + slot]
            target = (ref << 1) | slot
            current = heads[lit]
            if current == target:
                heads[lit] = arena[ref + 1 + slot]
                continue
            while current:
                link = (current >> 1) + 1 + (current & 1)
                following = arena[link]
                if following == target:
                    arena[link] = arena[ref + 1 + slot]
                    break
                current = following


def _check_detach_all(solver: Solver, retracted: list) -> None:
    """Check every ``_detach_all`` of the solver against the sequential
    unlink on a copy: heads, every arena word but a retracted clause's own
    (garbage) link words, reasons and the garbage count."""
    sweep = solver._detach_all

    def checked(refs, clear_reasons=False):
        arena = list(solver._arena[: solver._arena_len])
        heads = list(solver._heads)
        reasons = list(solver._reason)
        garbage = solver._garbage
        _sequential_unlink(arena, heads, refs)
        for ref in refs:
            arena[ref] |= _FLAG_DEAD
            garbage += (arena[ref] >> 2) + _HDR
        if clear_reasons:
            dead = set(refs)
            reasons = [0 if reason in dead else reason for reason in reasons]
        sweep(refs, clear_reasons)
        after = list(solver._arena[: solver._arena_len])
        for ref in refs:
            after[ref + 1 : ref + 3] = arena[ref + 1 : ref + 3]
        assert after == arena
        assert list(solver._heads) == heads
        assert list(solver._reason) == reasons
        assert solver._garbage == garbage
        retracted.append(len(refs))

    solver._detach_all = checked


@pytest.mark.parametrize("seed", range(8))
def test_layer_churn_unlinks_like_sequential_detach(seed):
    """Random push/add/solve/pop and learnt-database reduction on every
    backend combination: each retraction leaves the watch lists exactly as
    the sequential detach would, and the combinations stay identical."""
    rng = random.Random(14000 + seed)
    solvers = _quartet()
    retracted: list[list[int]] = [[] for _ in solvers]
    for solver, log in zip(solvers, retracted):
        _check_detach_all(solver, log)
        for clause in _random_3sat(14500 + seed, num_vars=30, num_clauses=100):
            solver.add_clause(clause)
    for _ in range(60):
        roll = rng.random()
        depth = solvers[0].num_layers
        if roll < 0.2 and depth < 3:
            for solver in solvers:
                solver.push()
        elif roll < 0.4 and depth:
            assert len({solver.pop() for solver in solvers}) == 1
            for solver in solvers:
                solver.check_invariants()
        elif roll < 0.65 and depth:
            clauses = _random_3sat(rng.randint(0, 10_000), 30, rng.randint(1, 12))
            for solver in solvers:
                for clause in clauses:
                    solver.add_clause(clause)
        elif roll < 0.9:
            assumptions = [
                rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(rng.randint(0, 4))
            ]
            _assert_all_same(solvers, [solver.solve(assumptions) for solver in solvers])
        else:
            for solver in solvers:
                solver._reduce_db()
                solver.check_invariants()
        reference = solvers[0]
        for combo, solver in zip(COMBOS[1:], solvers[1:]):
            assert list(solver._arena[: solver._arena_len]) == list(
                reference._arena[: reference._arena_len]
            ), combo
            assert list(solver._heads) == list(reference._heads), combo
    assert all(log == retracted[0] for log in retracted)
    assert retracted[0], "no clause was ever retracted"
    assert solvers[0].stats.deleted_clauses, "no learnt clause was ever reduced"


@pytest.mark.parametrize("combo", COMBOS)
def test_pop_clears_a_root_reason_naming_a_layer_clause(combo):
    """Two units learnt at the root (1 and -3) make the layer clause
    [-1, 3, -s] imply -s at level 0, so the pop retracts a clause that is
    a root reason; the reason must be cleared."""
    solver = Solver(*combo)
    retracted: list[int] = []
    _check_detach_all(solver, retracted)
    for clause in ([1, 2], [1, -2], [-3, 4], [-3, -4]):
        solver.add_clause(clause)
    selector = solver.push()
    solver.add_clause([-1, 3])
    assert not solver.solve()
    layer_clause = solver._layers[0].clauses[0]
    assert solver.root_value(-selector) is True
    assert solver._reason[selector] == layer_clause
    solver.pop()
    assert retracted == [1]
    assert solver._reason[selector] == 0
    solver.check_invariants()


def _random_3sat(seed: int, num_vars: int, num_clauses: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [
        [var if rng.random() < 0.5 else -var for var in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=30,
    ),
    st.lists(
        st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0),
        max_size=3,
    ),
)
def test_hypothesis_matrix(clauses, assumptions):
    if not C_AVAILABLE:
        pytest.skip("C search kernel unavailable")
    solvers = _quartet()
    for solver in solvers:
        for clause in clauses:
            solver.add_clause(list(clause))
    _assert_all_same(
        solvers, [solver.solve(list(assumptions)) for solver in solvers]
    )


class TestAnalyzeMinimization:
    """The seen-buffer local minimization, pinned on a crafted conflict.

    Level 1 decides x1 and propagates x2 via (¬x1 ∨ x2); level 2 decides x4
    and propagates x5 via (¬x4 ∨ x5) and x6 via (¬x4 ∨ x6).  The conflict
    clause (¬x2 ∨ ¬x5 ∨ ¬x6 ∨ ¬x1) then resolves to the first-UIP clause
    (¬x4 ∨ ¬x2 ∨ ¬x1), in which ¬x2 is redundant: its reason's only other
    literal, ¬x1, is already in the clause.  Minimization must drop exactly
    ¬x2 while leaving the asserting literal (¬x4) and the backjump level
    (1) unchanged.
    """

    def _prepared_solver(self) -> tuple[Solver, list[int]]:
        solver = Solver(backend="python", search="python")
        solver.ensure_vars(6)
        assert solver.add_clause([-1, 2])  # reason for x2 @ level 1
        assert solver.add_clause([-4, 5])  # reason for x5 @ level 2
        assert solver.add_clause([-4, 6])  # reason for x6 @ level 2
        assert solver.add_clause([-2, -5, -6, -1])  # the conflict clause
        refs = list(solver._clauses)
        to_internal = solver._to_internal
        solver._new_decision_level()
        assert solver._enqueue(to_internal(1), 0)
        assert solver._enqueue(to_internal(2), refs[0])
        solver._new_decision_level()
        assert solver._enqueue(to_internal(4), 0)
        assert solver._enqueue(to_internal(5), refs[1])
        assert solver._enqueue(to_internal(6), refs[2])
        return solver, refs

    def test_minimization_drops_dominated_literal_only(self):
        solver, refs = self._prepared_solver()
        to_internal = solver._to_internal
        learnt, backjump = solver._analyze(refs[3])
        # Asserting literal (the negated first UIP) and backjump level are
        # exactly what the unminimized clause (¬x4 ∨ ¬x2 ∨ ¬x1) would give.
        assert learnt[0] == to_internal(-4)
        assert backjump == 1
        # ...but the dominated ¬x2 is gone.
        assert sorted(learnt) == sorted([to_internal(-4), to_internal(-1)])
        assert solver.stats.analyses == 1
        assert solver.stats.minimized_literals == 1
        # The shared seen buffer is left clean for the next analysis.
        assert not any(solver._seen)

    def test_decision_literals_survive_minimization(self):
        solver, refs = self._prepared_solver()
        to_internal = solver._to_internal
        learnt, _ = solver._analyze(refs[3])
        # ¬x1 blames a decision (no reason clause): it can never be dropped.
        assert to_internal(-1) in learnt


class TestDecisionBudgetHeapRegression:
    """An exhausted decision budget must not leak the branch variable.

    The budget check fires *after* the branch variable was popped from the
    order heap; before the fix the variable was never reinserted, so later
    solves on the same solver could silently leave it unassigned.
    """

    @pytest.mark.parametrize("combo", COMBOS)
    def test_probe_does_not_lose_branch_variable(self, combo):
        prop, search = combo
        solver = Solver(backend=prop, search=search)
        for clause in ([1, 2], [-1, 2], [3, 4], [-3, -4]):
            solver.add_clause(list(clause))
        assert solver.solve_limited(max_decisions=0) is None
        # Every variable must be back in the order heap after the probe.
        for var in range(1, 5):
            assert var in solver._order, var
        assert solver.solve()
        assert len(solver.get_model()) == 4  # nothing was lost to the probe


class TestSearchFeatureCheck:
    def test_python_search_always_constructible(self):
        solver = Solver(backend="python", search="python")
        solver.add_clause([1, 2])
        assert solver.solve()
        assert solver.search_backend == "python"

    def test_unknown_search_backend_rejected(self):
        with pytest.raises(ValueError):
            Solver(search="prolog")

    def test_search_follows_propagation_by_default(self):
        """Without an explicit ``search=``, search follows propagation."""
        solver = Solver(backend="python")
        assert solver.search_backend == "python"
        if C_AVAILABLE:
            compiled = Solver(backend="c")
            assert compiled.search_backend == "c"

    def test_env_pins_pure_python_end_to_end(self):
        """REPRO_BACKEND=python keeps propagation and search interpreted."""
        script = (
            "from repro.sat import propagation_backend, search_backend, Solver\n"
            "assert propagation_backend() == 'python'\n"
            "assert search_backend() == 'python'\n"
            "s = Solver()\n"
            "assert s.backend == 'python' and s.search_backend == 'python'\n"
            "s.add_clause([1]); assert s.solve()\n"
            "print('ok')\n"
        )
        result = _run_in_subprocess(script, REPRO_BACKEND="python")
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout

    @needs_c
    def test_env_requires_c_search(self):
        script = (
            "from repro.sat import search_backend\n"
            "assert search_backend() == 'c'\n"
            "print('ok')\n"
        )
        result = _run_in_subprocess(script, REPRO_BACKEND="c")
        assert result.returncode == 0, result.stderr

    def test_compilerless_environment_falls_back(self, tmp_path):
        """With no compiler on PATH, auto degrades to pure Python cleanly.

        The subprocess PATH is a fresh directory holding only a python
        symlink (the interpreter's own bin dir may ship a compiler on
        distro Pythons), and the build cache is redirected to an empty
        directory so a previously compiled artifact cannot mask the
        missing compiler.
        """
        bare_bin = tmp_path / "bare-bin"
        bare_bin.mkdir()
        (bare_bin / os.path.basename(sys.executable)).symlink_to(sys.executable)
        script = (
            "from repro.sat import propagation_backend, search_backend, Solver\n"
            "from repro.sat import propagation_core_unavailable_reason\n"
            "assert propagation_backend() == 'python'\n"
            "assert search_backend() == 'python'\n"
            "assert 'compiler' in propagation_core_unavailable_reason()\n"
            "s = Solver()\n"
            "s.add_clause([1, 2]); s.add_clause([-1, -2]); assert s.solve()\n"
            "print('ok')\n"
        )
        result = _run_in_subprocess(
            script,
            PATH=str(bare_bin),
            REPRO_SAT_BUILD_DIR=str(tmp_path / "empty-cache"),
        )
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout


def _run_in_subprocess(script: str, **env_overrides: str):
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env.update(env_overrides)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
