"""Differential tests of the bulk clause loader (``Solver.add_clause_buffer``).

Loading a flat int32 clause buffer in one call must leave the solver in
exactly the state a loop of ``Solver.add_clause`` over the same clauses
leaves it in: arena contents and length, watch heads, assignments, levels,
reasons and trail, the order heap, the problem-clause list and the
statistics.  The oracle is the per-clause loop; the instances are every
TCAS version's whole-program artifact, the Table 3 artifacts (schedule2
here, the three large ones with ``--runslow``) and generated CNFs mixing
units, repeated literals, tautologies and literals false at the root.

Under ``REPRO_BACKEND=c`` the flat-buffer solvers run the
``repro_load_clauses`` C routine; under ``REPRO_BACKEND=python`` only the
pure-Python solver is constructible and the bulk entry point is itself a
per-clause loop, so the suite then checks its range-table handling.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.bmc import BoundedModelChecker
from repro.maxsat import WCNF
from repro.sat import Solver, propagation_backend
from repro.sat import flat
from repro.siemens.programs import LARGE_BENCHMARKS
from repro.siemens.suite import TCAS_HARNESS_LINES
from repro.siemens.tcas import tcas_faulty_program, tcas_versions

C_AVAILABLE = propagation_backend() == "c"

#: Every constructible (propagation, search) backend combination.
COMBOS = [("python", "python")]
if C_AVAILABLE:
    COMBOS += [("c", "c"), ("c", "python"), ("python", "c")]


def pack(clauses: list[list[int]]) -> tuple[array, array]:
    """The flat ``(lits, ends)`` buffers of a clause list."""
    wcnf = WCNF()
    for clause in clauses:
        wcnf.add_hard(clause)
    return wcnf.lits, wcnf.ends


def internals(solver: Solver) -> dict:
    """Every piece of solver state a clause load can touch."""
    return {
        "arena": solver._arena[: solver._arena_len],
        "arena_len": solver._arena_len,
        "arena_capacity": len(solver._arena),
        "heads": solver._heads,
        "assigns": solver._assigns,
        "levels": solver._level,
        "reasons": solver._reason,
        "trail": solver._trail[: solver._trail_len],
        "qhead": solver._qhead,
        "trail_lim": list(solver._trail_lim),
        "kept_assumptions": solver._kept_assumptions,
        "polarity": solver._polarity,
        "activity": solver._activity,
        "seen": solver._seen,
        "heap": solver._order.heap_buffer()[: solver._order.size],
        "heap_positions": solver._order.positions_buffer(),
        "clauses": solver._clauses,
        "num_vars": solver.num_vars,
        "ok": solver._ok,
        "stats": solver.stats,
    }


def per_clause(solver: Solver, wcnf: WCNF) -> bool:
    """The oracle: one ``add_clause`` per hard clause, selectors included."""
    for clause in wcnf.hard:
        solver.add_clause(clause)
    return solver._ok


def bulk(solver: Solver, wcnf: WCNF) -> bool:
    return solver.add_clause_buffer(wcnf.lits, wcnf.ends, wcnf.range_ends, wcnf.range_sels)


def assert_same_load(wcnf: WCNF, combos=COMBOS, solve: bool = True) -> None:
    for backend, search in combos:
        loaded, oracle = Solver(backend, search), Solver(backend, search)
        for solver in (loaded, oracle):
            solver.ensure_vars(wcnf.num_vars)
        assert bulk(loaded, wcnf) == per_clause(oracle, wcnf)
        assert internals(loaded) == internals(oracle), (backend, search)
        loaded.check_invariants()
        if solve and loaded._ok:
            assumptions = [soft.lits[0] for soft in wcnf.soft if len(soft.lits) == 1]
            assert loaded.solve(assumptions) == oracle.solve(assumptions)
            assert internals(loaded) == internals(oracle), (backend, search)


# ------------------------------------------------------------ the artifacts


@pytest.mark.parametrize("version", tcas_versions())
def test_tcas_artifact_loads_like_add_clause(version):
    compiled = BoundedModelChecker(
        tcas_faulty_program(version), group_statements=True
    ).compile_program()
    # The session's instance: harness lines and pruned lines stay hard, so
    # plain and selector ranges interleave.
    hard_lines = set(TCAS_HARNESS_LINES) | set(compiled.pruned_lines)
    wcnf, _ = compiled.to_wcnf(hard_groups=hard_lines)
    assert any(wcnf.range_sels) and 0 in wcnf.range_sels
    assert_same_load(wcnf)


def _table3_cases():
    for benchmark in LARGE_BENCHMARKS:
        marks = () if benchmark.name == "schedule2" else (pytest.mark.slow,)
        yield pytest.param(benchmark, id=benchmark.name, marks=marks)


@pytest.mark.parametrize("program", _table3_cases())
def test_table3_artifact_loads_like_add_clause(program):
    compiled = BoundedModelChecker(
        program.faulty_program(), group_statements=True
    ).compile_program()
    wcnf, _ = compiled.to_wcnf(hard_groups=set(compiled.pruned_lines))
    assert_same_load(wcnf, combos=[(None, None)], solve=False)


# -------------------------------------------------------- generated formulas


@st.composite
def grouped_cnfs(draw):
    """A WCNF mixing units, repeated literals, tautologies, root-false
    literals (from earlier units) and plain and selector ranges."""
    num_vars = draw(st.integers(min_value=1, max_value=10))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda var: st.sampled_from([var, -var])
    )
    clause = st.lists(literal, min_size=1, max_size=5)
    wcnf = WCNF()
    wcnf._num_vars = num_vars
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if draw(st.booleans()):
            wcnf.add_soft_group(draw(st.lists(clause, max_size=5)))
        else:
            for lits in draw(st.lists(clause, max_size=6)):
                wcnf.add_hard(lits)
    return wcnf


@settings(max_examples=150, deadline=None)
@given(grouped_cnfs())
def test_generated_cnf_loads_like_add_clause(wcnf):
    assert_same_load(wcnf)


@settings(max_examples=60, deadline=None)
@given(grouped_cnfs(), grouped_cnfs())
def test_load_on_top_of_existing_clauses(first, second):
    """A second bulk load sees root assignments, watches and arena slack
    left behind by the first one and by a solve."""
    for backend, search in COMBOS:
        loaded, oracle = Solver(backend, search), Solver(backend, search)
        num_vars = max(first.num_vars, second.num_vars)
        for solver in (loaded, oracle):
            solver.ensure_vars(num_vars)
            per_clause(solver, first)
            solver.solve()
        assert bulk(loaded, second) == per_clause(oracle, second)
        assert internals(loaded) == internals(oracle), (backend, search)


def assert_same_layered_load(wcnf: WCNF, depth: int) -> None:
    """Bulk load into ``depth`` nested open layers equals per-clause load,
    layer tagging and each layer's clause list included, and the layers
    pop back to the same state."""
    for backend, search in COMBOS:
        loaded, oracle = Solver(backend, search), Solver(backend, search)
        for solver in (loaded, oracle):
            solver.ensure_vars(wcnf.num_vars)
            for _ in range(depth):
                solver.add_clause([1, -2])  # an outer layer's own clause
                solver.push()
        assert bulk(loaded, wcnf) == per_clause(oracle, wcnf)
        assert internals(loaded) == internals(oracle), (backend, search)
        for mine, theirs in zip(loaded._layers, oracle._layers):
            assert mine.clauses == theirs.clauses
        loaded.check_invariants()
        for _ in range(depth):
            loaded.pop()
            oracle.pop()
            assert internals(loaded) == internals(oracle), (backend, search)
            loaded.check_invariants()


def test_open_layer_bulk_load_equals_per_clause():
    """With a layer open the clauses are layer-tagged, exactly as
    add_clause tags them: ``-selector`` of the innermost layer goes after
    the range selector."""
    wcnf = WCNF()
    wcnf._num_vars = 4
    wcnf.add_hard([1, 2])
    wcnf.add_soft_group([[-1, 3], [4]])
    for backend, search in COMBOS:
        loaded, oracle = Solver(backend, search), Solver(backend, search)
        for solver in (loaded, oracle):
            solver.ensure_vars(wcnf.num_vars)
            solver.push()
        bulk(loaded, wcnf)
        per_clause(oracle, wcnf)
        assert internals(loaded) == internals(oracle)
        assert loaded._layers[0].clauses == oracle._layers[0].clauses
        last = loaded._layers[0].clauses[-1]
        body = loaded._arena[last + 5 : last + 5 + (loaded._arena[last] >> 2)]
        assert [Solver._to_external(lit) for lit in body] == [
            4, -wcnf.range_sels[1], -loaded._layers[0].selector
        ]


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_nested_layers_bulk_load_equals_per_clause(depth):
    wcnf = WCNF()
    wcnf._num_vars = 6
    wcnf.add_hard([1, 2])
    wcnf.add_hard([5])
    wcnf.add_soft_group([[-1, 3], [4], [4, -4]])
    wcnf.add_hard([-5, 6, 6])
    assert_same_layered_load(wcnf, depth)


@settings(max_examples=80, deadline=None)
@given(grouped_cnfs(), st.integers(min_value=1, max_value=3))
def test_generated_cnf_loads_into_layers_like_add_clause(wcnf, depth):
    """Range selectors, units, tautologies and root-false literals under
    one to three open layers."""
    wcnf._num_vars = max(wcnf.num_vars, 2)
    assert_same_layered_load(wcnf, depth)


def test_kept_trail_falls_back_to_the_per_clause_loop(monkeypatch):
    """Under a kept assumption trail the clauses go through add_clause
    (which places them under the trail), never through the C loader."""
    wcnf = WCNF()
    wcnf._num_vars = 6
    wcnf.add_hard([-1, 3, 4])
    wcnf.add_hard([-2, -3])
    wcnf.add_soft_group([[5, 6], [-1, -4]])
    calls = []
    real = Solver.add_clause

    def spy(self, lits):
        calls.append(list(lits))
        return real(self, lits)

    for backend, search in COMBOS:
        loaded, oracle = Solver(backend, search), Solver(backend, search)
        for solver in (loaded, oracle):
            solver.ensure_vars(wcnf.num_vars)
            solver.add_clause([1, 2, 5])
            solver.push()
            assert solver.solve([1, 2])
            assert solver._trail_lim  # the assumption levels are kept
        monkeypatch.setattr(Solver, "add_clause", spy)
        calls.clear()
        bulk(loaded, wcnf)
        monkeypatch.setattr(Solver, "add_clause", real)
        assert calls == wcnf.hard
        per_clause(oracle, wcnf)
        assert internals(loaded) == internals(oracle), (backend, search)
        assert loaded._layers[0].clauses == oracle._layers[0].clauses
        loaded.check_invariants()


# ------------------------------------------------------------- bad buffers


BAD_BUFFERS = [
    ("zero literal", [1, 0, 2], [2, 3], 3),
    ("beyond num_vars", [1, -4, 2], [2, 3], 3),
    ("offsets decrease", [1, 2, 3], [2, 1, 3], 3),
    ("last offset short", [1, 2, 3], [1, 2], 3),
    ("last offset long", [1, 2], [1, 3], 3),
]


@pytest.mark.parametrize(
    "name,lits,ends,num_vars", BAD_BUFFERS, ids=[case[0] for case in BAD_BUFFERS]
)
def test_malformed_buffer_is_rejected_without_side_effects(name, lits, ends, num_vars):
    lits, ends = array("i", lits), array("i", ends)
    problem = flat.check_clause_buffer(lits, ends, num_vars)
    assert problem is not None
    assert flat._PROBLEMS[flat._check_python(lits, ends, num_vars)] == problem
    for backend, search in COMBOS:
        solver = Solver(backend, search)
        solver.ensure_vars(num_vars)
        before = internals(solver)
        with pytest.raises(ValueError):
            solver.add_clause_buffer(lits, ends)
        assert internals(solver) == before


@pytest.mark.parametrize(
    "range_ends,range_sels",
    [([2, 1], [0, 0]), ([5], [1]), ([1], [9]), ([1], [-1]), ([1, 2], [1])],
)
def test_malformed_range_table_is_rejected(range_ends, range_sels):
    lits, ends = pack([[1, 2], [-1, 3]])
    for backend, search in COMBOS:
        solver = Solver(backend, search)
        solver.ensure_vars(3)
        before = internals(solver)
        with pytest.raises(ValueError):
            solver.add_clause_buffer(lits, ends, range_ends, range_sels)
        assert internals(solver) == before


def test_sound_buffer_passes_both_checkers():
    lits, ends = pack([[1, -2], [3], [-3, 2, 1]])
    assert flat.check_clause_buffer(lits, ends, 3) is None
    assert flat._check_python(lits, ends, 3) == 0
    assert flat.check_clause_buffer(lits, array("q", ends), 3) is not None
