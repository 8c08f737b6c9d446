"""A conflict-driven clause-learning (CDCL) SAT solver.

The solver follows the classic MiniSAT architecture: two-literal watching,
first-UIP conflict analysis with clause learning, VSIDS variable activities,
phase saving, Luby restarts and activity-based deletion of learnt clauses.

Two features beyond plain satisfiability are load-bearing for the rest of
the reproduction:

* **Assumptions.**  :meth:`Solver.solve` accepts a sequence of literals that
  are treated as temporary decisions.  The BugAssist encoding attaches one
  *selector variable* per program statement; solving under assumptions over
  the selectors is how the MaxSAT layer enables and disables statements.
* **Assumption cores.**  When the instance is unsatisfiable under the given
  assumptions, :meth:`Solver.unsat_core` returns a subset of the assumptions
  that is already contradictory.  The core-guided MaxSAT algorithms
  (Fu–Malik, MSU3) are built directly on this facility.
* **Clause-database retention.**  :meth:`Solver.add_clause` may be called
  again after any number of :meth:`Solver.solve` calls (solving always
  returns to decision level 0): problem clauses, learnt clauses, variable
  activities and saved phases all persist, so the MaxSAT layer can block a
  correction set with a new hard clause and re-solve incrementally instead
  of rebuilding the instance from scratch.
* **Retractable layers.**  :meth:`Solver.push` opens a *layer*: clauses
  added while a layer is active can later be retracted with
  :meth:`Solver.pop`.  A layer is implemented with a fresh selector
  variable ``s`` — every clause of the layer gets ``-s`` appended and every
  solve assumes ``s`` — so retraction is sound by construction: popping
  adds the permanent unit ``-s``, which subsumes every clause of the layer,
  and therefore keeps all learnt clauses valid.  The session API uses this
  to load one whole-program encoding and swap per-test input/specification
  units in and out without rebuilding the solver.
* **Assumption-trail keeping.**  On trace formulas almost the entire
  circuit is forced by the assumptions, so re-deciding the same assumption
  prefix on every :meth:`Solver.solve` call re-propagates thousands of
  literals.  The solver therefore *keeps* the assumption decision levels
  (and all their propagations) between solve calls and, on the next call,
  backtracks only to the first assumption that differs.  Clauses added
  between calls attach in place when they are neither unit nor conflicting
  under the kept trail; otherwise the solver transparently falls back to
  a full restart from level 0.

**Clause storage and the search kernel.**  Clauses live in one flat *arena*
(a ``long`` array) rather than as per-clause Python objects: a clause is an
integer offset, its two watcher-list links and *blocker literals* are part
of its header, and the per-literal watch lists are intrusive linked lists
threaded through the arena.  The arena's *logical* length
(:attr:`Solver._arena_len`) is tracked separately from the physical buffer
length so the compiled kernel can append learnt clauses into preallocated
slack without returning to Python.

The whole search state — arena, watch heads, assignments, levels, reasons,
trail, saved phases, VSIDS activities, the analysis ``seen`` buffer and the
order heap — is held in flat ``array``-backed buffers whenever either
compiled backend is active (see :mod:`repro.sat._ccore`).  Two compiled
entry points operate over that memory:

* ``repro_propagate`` — the unit-propagation core, called once per search
  step by the pure-Python loop;
* ``repro_search`` — the full CDCL *search kernel*:
  propagation, first-UIP conflict analysis with clause learning and local
  minimization, backjumping, VSIDS bump/decay/rescale, the activity order
  heap, phase saving, assumption decisions and Luby restarts all run inside
  C, returning to Python only for the rare control events (SAT/UNSAT
  answers, assumption-core extraction, learnt-database reduction, budget
  exhaustion, and buffer-capacity growth).

The pure-Python loop implements the identical algorithm over plain lists
and remains the always-tested fallback; every backend combination produces
bit-identical models, conflicts, cores and statistics.

Literals use the DIMACS convention (non-zero signed integers) at the API
boundary and a packed even/odd encoding internally.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from repro.sat import _ccore
from repro.sat.heap import ActivityHeap

_UNDEF = -1
_FALSE = 0
_TRUE = 1

#: Arena words preceding a clause's literals: header, two watch links, two
#: blocker literals.
_HDR = 5

#: Arena header flag bits.
_FLAG_LEARNT = 1
_FLAG_DEAD = 2

#: Exit reasons the C search kernel reports back through its state buffer.
#: They mirror the control points where the pure-Python loop leaves its
#: ``while True`` body (or needs services only Python provides).
_EXIT_SAT = 1  # every variable assigned: a model is on the trail
_EXIT_UNSAT = 2  # conflict at decision level 0: permanently unsatisfiable
_EXIT_ASSUMPTION = 3  # an assumption is falsified: extract a core
_EXIT_REDUCE = 4  # the learnt database hit its size budget
_EXIT_CAPACITY = 5  # arena/scratch/log slack too small for another conflict
_EXIT_CONFLICT_BUDGET = 6  # Solver.max_conflicts exhausted
_EXIT_DECISION_BUDGET = 7  # Solver.max_decisions exhausted

#: Layout of the search kernel's ``state`` array (one slot per line).
_S_QHEAD = 0
_S_TRAIL_LEN = 1
_S_LEVELS = 2
_S_PROPAGATIONS = 3
_S_ARENA_LEN = 4
_S_ARENA_CAP = 5
_S_HEAP_SIZE = 6
_S_NUM_VARS = 7
_S_NUM_ASSUMPTIONS = 8
_S_LEARNT_COUNT = 9
_S_MAX_LEARNTS = 10
_S_RESTART_INDEX = 11
_S_CONFLICT_BUDGET = 12
_S_CONFLICTS_SINCE_RESTART = 13
_S_TOTAL_CONFLICTS = 14
_S_MAX_CONFLICTS = 15
_S_FREE_DECISIONS = 16
_S_MAX_DECISIONS = 17
_S_SEARCH_FLOOR = 18
_S_EXIT_REASON = 19
_S_EXIT_PAYLOAD = 20
_S_D_CONFLICTS = 21
_S_D_DECISIONS = 22
_S_D_RESTARTS = 23
_S_D_LEARNTS = 24
_S_D_ANALYSES = 25
_S_D_MINIMIZED = 26
_S_D_BACKJUMPED = 27
_S_SCRATCH_LEN = 28
_S_SCRATCH_CAP = 29
_S_LOG_LEN = 30
_S_LOG_CAP = 31
_S_WORDS = 32


@dataclass
class _Layer:
    """One retractable clause layer opened by :meth:`Solver.push`.

    ``selector`` is the layer's fresh selector variable; ``clauses`` are the
    arena refs of the attached (length >= 2) clauses carrying ``-selector``
    that must be detached again when the layer is popped.
    """

    selector: int
    clauses: list[int] = field(default_factory=list)
    clause_mark: int = 0  # len(solver._clauses) when the layer opened


@dataclass
class SolveResult:
    """Outcome of a single :meth:`Solver.solve` call."""

    satisfiable: bool
    model: Optional[dict[int, bool]] = None
    core: Optional[list[int]] = None


@dataclass
class SolverStats:
    """Cumulative solver statistics, exposed for benchmarks and ablations.

    Counters only ever grow; per-phase numbers are obtained by
    :meth:`snapshot` at the phase boundary and :meth:`since` afterwards,
    which is how the MaxSAT engine reports clean per-layer (per-test)
    statistics on a long-lived session solver.

    Conflict analysis has its own counters so the Table 3 benchmarks can
    report analysis throughput (``conflicts_per_second``) and how much work
    first-UIP resolution and minimization actually do: ``analyses`` counts
    conflicts analyzed (conflicts at level 0 terminate the search without
    analysis), ``minimized_literals`` counts literals dropped by local
    clause minimization, and ``backjumped_levels`` sums the decision levels
    undone by conflict-driven backjumps.  All three are bit-identical
    between the Python and C search backends.
    """

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learnt_clauses: int = 0
    deleted_clauses: int = 0
    solve_calls: int = 0
    max_vars: int = 0
    analyses: int = 0
    minimized_literals: int = 0
    backjumped_levels: int = 0
    extra: dict = field(default_factory=dict)

    def snapshot(self) -> "SolverStats":
        """An immutable copy of the current counter values."""
        return replace(self, extra=dict(self.extra))

    def since(self, earlier: "SolverStats") -> "SolverStats":
        """The counter deltas accumulated after ``earlier`` was snapshot."""
        return SolverStats(
            conflicts=self.conflicts - earlier.conflicts,
            decisions=self.decisions - earlier.decisions,
            propagations=self.propagations - earlier.propagations,
            restarts=self.restarts - earlier.restarts,
            learnt_clauses=self.learnt_clauses - earlier.learnt_clauses,
            deleted_clauses=self.deleted_clauses - earlier.deleted_clauses,
            solve_calls=self.solve_calls - earlier.solve_calls,
            max_vars=self.max_vars,
            analyses=self.analyses - earlier.analyses,
            minimized_literals=self.minimized_literals - earlier.minimized_literals,
            backjumped_levels=self.backjumped_levels - earlier.backjumped_levels,
        )


class Solver:
    """Incremental CDCL SAT solver with assumption support.

    Typical use::

        solver = Solver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x, y])
        solver.add_clause([-x, y])
        assert solver.solve()
        assert solver.model_value(y) is True

    ``backend`` selects the propagation core: ``"c"`` (the compiled core;
    raises when unavailable), ``"python"`` (the pure-Python loop), or
    ``None`` for the process-wide default reported by
    :func:`repro.sat.propagation_backend`.

    ``search`` selects the search kernel the same way (``"c"`` or
    ``"python"``); ``None`` follows the propagation backend, so
    ``Solver(backend="python")`` is the fully interpreted solver and
    ``Solver(backend="c")`` runs the whole inner loop compiled.  Note that
    with ``search="c"`` the kernel performs its own propagation inline;
    the ``backend`` knob then only governs propagation triggered outside
    the search loop (root-level :meth:`add_clause` simplification).
    """

    def __init__(
        self, backend: Optional[str] = None, search: Optional[str] = None
    ) -> None:
        if backend is None:
            backend = _ccore.backend()
        if backend not in ("c", "python"):
            raise ValueError(f"unknown propagation backend {backend!r}")
        if search is None:
            search = backend
        if search not in ("c", "python"):
            raise ValueError(f"unknown search backend {search!r}")
        if "c" in (backend, search) and _ccore.load_core() is None:
            raise RuntimeError(
                f"C solver core unavailable: {_ccore.core_unavailable_reason()}"
            )
        self.backend = backend
        self.search_backend = search
        self._use_c = backend == "c"
        self._use_c_search = search == "c"
        flat = self._use_c or self._use_c_search
        self._flat = flat
        if flat:
            # Flat C-addressable buffers: the compiled cores walk these via
            # raw pointers, the Python control plane via normal indexing.
            self._arena = array("l", [0])
            self._heads = array("l", [0, 0])
            self._assigns = array("b", [_UNDEF])
            self._level = array("l", [0])
            self._reason = array("l", [0])
            self._trail = array("l")
            self._polarity = array("b", [0])
            self._activity = array("d", [0.0])
            self._seen = array("b", [0])
        else:
            self._arena = [0]
            self._heads = [0, 0]
            self._assigns = [_UNDEF]
            self._level = [0]
            self._reason = [0]
            self._trail = []
            self._polarity = [False]
            self._activity = [0.0]
            self._seen = [0]
        self._state = array("l", [0, 0, 0, 0]) if self._use_c else None
        self._cfn = _ccore.propagate_function() if self._use_c else None
        if self._use_c_search:
            self._sstate = array("l", [0] * _S_WORDS)
            self._sfloat = array("d", [0.0, 0.0])
            self._csearch = _ccore.search_function()
        else:
            self._sstate = None
            self._sfloat = None
            self._csearch = None
        # Scratch buffers marshalled in/out around each kernel call; grown
        # lazily and reused across solves.
        self._assump_buf: Optional[array] = None
        self._lim_buf: Optional[array] = None
        self._scratch_buf: Optional[array] = None
        self._bump_log: Optional[array] = None
        self._analyze_buf: Optional[array] = None
        self._arena_len = 1
        self._num_vars = 0
        self._clauses: list[int] = []
        self._learnts: list[int] = []
        self._activity_of: dict[int, float] = {}
        self._garbage = 0
        self._trail_len = 0
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._order = ActivityHeap(self._activity, flat=flat)
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._ok = True
        self._model: Optional[list[int]] = None
        self._core: Optional[list[int]] = None
        self._layers: list[_Layer] = []
        # External assumption literals whose decision levels (1..len) are
        # still on the trail from the previous solve (trail keeping).
        self._kept_assumptions: list[int] = []
        # Lowest decision level reached since the current solve started;
        # used to record which kept assumption decisions survived an
        # optimistic full-trail resume.
        self._search_floor = 0
        self.stats = SolverStats()
        self.max_conflicts: Optional[int] = None
        self.max_decisions: Optional[int] = None

    # ------------------------------------------------------------------ API

    @property
    def num_vars(self) -> int:
        """Number of variables allocated so far."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of problem (non-learnt) clauses currently stored."""
        return len(self._clauses)

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        self._assigns.append(_UNDEF)
        self._level.append(0)
        self._reason.append(0)
        self._polarity.append(False)
        self._activity.append(0.0)
        self._seen.append(0)
        self._heads.append(0)
        self._heads.append(0)
        self._trail.append(0)  # trail capacity: one slot per variable
        self._order.insert(self._num_vars)
        self.stats.max_vars = max(self.stats.max_vars, self._num_vars)
        return self._num_vars

    def ensure_vars(self, max_var: int) -> None:
        """Allocate variables up to ``max_var`` (inclusive) if needed."""
        while self._num_vars < max_var:
            self.new_var()

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of signed literals.

        While a layer opened by :meth:`push` is active the clause belongs to
        that layer and is retracted again by the matching :meth:`pop`.  The
        clause may be added while an assumption trail is kept from the
        previous solve: it attaches in place when it has two non-false
        literals under the kept trail and otherwise triggers a transparent
        backtrack to level 0.

        Returns ``False`` when the clause makes the formula trivially
        unsatisfiable at the top level (and the solver becomes permanently
        unsatisfiable), ``True`` otherwise.
        """
        if not self._ok:
            return False
        layer = self._layers[-1] if self._layers else None
        if layer is not None:
            lits = list(lits) + [-layer.selector]
        seen: set[int] = set()
        internal: list[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.ensure_vars(abs(lit))
            ilit = self._to_internal(lit)
            if ilit ^ 1 in seen:
                return True  # tautology: trivially satisfied
            if ilit in seen:
                continue
            value = self._lit_value(ilit)
            if value == _TRUE and self._level[ilit >> 1] == 0:
                return True  # already satisfied at top level
            if value == _FALSE and self._level[ilit >> 1] == 0:
                continue  # falsified at top level: drop the literal
            seen.add(ilit)
            internal.append(ilit)
        if not internal:
            self._cancel_to_root()
            self._ok = False
            return False
        if len(internal) == 1:
            # Unit clauses are root facts: give up the kept trail so the
            # literal is fixed at level 0.
            self._cancel_to_root()
            if not self._enqueue(internal[0], 0):
                self._ok = False
                return False
            self._ok = self._propagate() is None
            return self._ok
        ref = self._alloc(internal, learnt=False)
        if self._trail_lim and not self._place_under_trail(ref):
            # No placement kept the trail: restart from the root, where the
            # clause (its literals now unassigned or root-false) attaches
            # with the standard level-0 machinery.
            self._cancel_to_root()
        self._attach(ref)
        self._clauses.append(ref)
        if layer is not None:
            layer.clauses.append(ref)
        return True

    def _place_under_trail(self, ref: int) -> bool:
        """Position a new clause's watches under a kept assumption trail.

        Backjumps just far enough that the clause is not conflicting: to
        attach it needs two non-false literals (then it is inert for now);
        a clause that is unit after the backjump is enqueued so the next
        propagation processes it.  Returns ``False`` when only a full
        root restart can place the clause (some literal is false at level
        0 in a way the simplification has not already removed).
        """
        arena = self._arena
        base = ref + _HDR
        size = arena[ref] >> 2
        while True:
            first = second = -1
            max_level = 0
            for position in range(size):
                ilit = arena[base + position]
                if self._lit_value(ilit) == _FALSE:
                    level = self._level[ilit >> 1]
                    if level > max_level:
                        max_level = level
                elif first < 0:
                    first = position
                else:
                    second = position
                    break
            if second >= 0:
                # Two non-false literals: watch them; the clause cannot be
                # unit or conflicting right now.  ``second > first`` always,
                # so the two swaps cannot collide.
                arena[base], arena[base + first] = arena[base + first], arena[base]
                arena[base + 1], arena[base + second] = (
                    arena[base + second],
                    arena[base + 1],
                )
                return True
            if max_level == 0:
                return False
            if first >= 0:
                # Unit under the trail: backtrack to the deepest false level
                # and enqueue there, watching the unit literal and one of the
                # deepest false literals.
                self._cancel_keeping(max_level)
                unit = arena[base + first]
                if self._lit_value(unit) == _UNDEF:
                    if not self._enqueue(unit, ref):  # pragma: no cover
                        return False
                    self._qhead = min(self._qhead, self._trail_len - 1)
                arena[base], arena[base + first] = arena[base + first], arena[base]
                for position in range(1, size):
                    ilit = arena[base + position]
                    if (
                        self._lit_value(ilit) == _FALSE
                        and self._level[ilit >> 1] == max_level
                    ):
                        arena[base + 1], arena[base + position] = (
                            arena[base + position],
                            arena[base + 1],
                        )
                        break
                return True
            # Conflicting: unassign the deepest false literals and retry.
            self._cancel_keeping(max_level - 1)

    def _cancel_keeping(self, level: int) -> None:
        """Backtrack to ``level``, truncating the kept assumption prefix."""
        if level < len(self._kept_assumptions):
            del self._kept_assumptions[level:]
        self._cancel_until(level)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        """Add many clauses; returns ``False`` if any made the formula unsat."""
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Solve under the given assumption literals.

        Selectors of the layers currently open via :meth:`push` are assumed
        automatically (so layered clauses are enforced); they may therefore
        show up in :meth:`unsat_core`.

        Returns ``True`` if satisfiable (a model is then available through
        :meth:`model_value` / :meth:`get_model`), ``False`` otherwise (an
        assumption core is then available through :meth:`unsat_core`).
        """
        self.stats.solve_calls += 1
        self._model = None
        self._core = None
        if not self._ok:
            self._kept_assumptions = []
            self._core = []
            return False
        for lit in assumptions:
            if lit == 0:
                raise ValueError("0 is not a valid assumption literal")
            self.ensure_vars(abs(lit))
        all_assumptions = [layer.selector for layer in self._layers]
        all_assumptions.extend(assumptions)
        # Trail keeping: reuse the decision levels of the longest assumption
        # prefix shared with the previous solve — their propagations (on
        # trace formulas, most of the circuit) are still on the trail.
        kept = self._kept_assumptions
        keep = 0
        limit = min(len(kept), len(all_assumptions))
        while keep < limit and kept[keep] == all_assumptions[keep]:
            keep += 1
        # Optimistic full-trail resume: when the assumption list has the
        # same layout and every *changed* assumption already holds on the
        # kept trail, the previous solve's entire trail — free decisions
        # included — remains a plausible starting point.  The answer is
        # only trusted when it is SAT *and* the final assignment satisfies
        # every current assumption (a backjump may unassign a changed slot
        # that no decision level re-pins); anything else is re-derived
        # conservatively from the true shared prefix.
        optimistic = False
        if keep < len(all_assumptions) and len(kept) == len(all_assumptions):
            optimistic = True
            for index in range(keep, len(all_assumptions)):
                if kept[index] != all_assumptions[index]:
                    ilit = self._to_internal(all_assumptions[index])
                    if self._lit_value(ilit) != _TRUE:
                        optimistic = False
                        break
        self._kept_assumptions = []
        resumed_full = False
        if keep == limit and len(kept) == len(all_assumptions) == keep:
            pass  # identical assumptions: resume with the full trail
        elif optimistic:
            resumed_full = True  # changed slots satisfied: resume in place
        else:
            self._cancel_until(keep)
        internal_assumptions = [self._to_internal(lit) for lit in all_assumptions]
        self._search_floor = self._decision_level()
        result = self._search(internal_assumptions)
        if resumed_full and (
            not result
            or any(
                self._lit_value(ilit) != _TRUE for ilit in internal_assumptions
            )
        ):
            # The optimistic answer may rest on stale decisions kept from
            # the previous assumption set (UNSAT case) or on a model that
            # silently dropped a changed assumption (SAT case): redo from
            # the true shared prefix.
            resumed_full = False
            self._cancel_until(keep)
            self._search_floor = self._decision_level()
            result = self._search(internal_assumptions)
        count = len(all_assumptions)
        if result:
            level = self._decision_level()
        else:
            level = min(self._decision_level(), count)
            self._cancel_until(level)
        if resumed_full and result:
            # Levels below the search's lowest backtrack point still hold
            # the previous call's assumption decisions; levels above were
            # re-established from the current list.  Record what is
            # actually on the trail, not the list we were asked for.
            floor = min(self._search_floor, count)
            on_trail = kept[:floor] + all_assumptions[floor:count]
            self._kept_assumptions = on_trail[: min(level, count)]
        else:
            self._kept_assumptions = list(all_assumptions[: min(level, count)])
        return result

    def solve_result(self, assumptions: Sequence[int] = ()) -> SolveResult:
        """Like :meth:`solve` but returning a :class:`SolveResult` record."""
        sat = self.solve(assumptions)
        if sat:
            return SolveResult(True, model=self.get_model())
        return SolveResult(False, core=self.unsat_core())

    def solve_limited(
        self, assumptions: Sequence[int] = (), max_decisions: Optional[int] = None
    ) -> Optional[bool]:
        """Budgeted probe: solve, but give up after ``max_decisions`` free
        decisions and return ``None``.

        Cheap UNSAT proofs (assumption cones that conflict almost
        immediately) complete well inside a small budget; anything that
        needs a real model search exhausts it.  Used to re-validate
        candidate cores across session layers without paying for full
        solves.
        """
        self.max_decisions = max_decisions
        try:
            return self.solve(assumptions)
        except DecisionBudgetExceeded:
            return None
        finally:
            self.max_decisions = None

    def model_value(self, lit: int) -> Optional[bool]:
        """Value of a signed literal in the last model (None if unknown var)."""
        if self._model is None:
            raise RuntimeError("no model available; last solve was UNSAT or never ran")
        var = abs(lit)
        if var > self._num_vars or var >= len(self._model):
            return None
        value = self._model[var]
        if value == _UNDEF:
            return None
        truth = value == _TRUE
        return truth if lit > 0 else not truth

    def get_model(self, complete: bool = False) -> dict[int, bool]:
        """Return the last model as a ``{var: bool}`` dictionary.

        With ``complete=True`` variables the search left unassigned (don't
        cares, or variables allocated after the solve) take their saved
        phase instead of being omitted, yielding a total assignment.
        """
        if self._model is None:
            raise RuntimeError("no model available; last solve was UNSAT or never ran")
        if not complete:
            return {
                var: value == _TRUE
                for var, value in enumerate(self._model)
                if var and value != _UNDEF
            }
        model: dict[int, bool] = {}
        for var in range(1, self._num_vars + 1):
            value = self._model[var] if var < len(self._model) else _UNDEF
            if value != _UNDEF:
                model[var] = value == _TRUE
            elif complete:
                model[var] = bool(self._polarity[var])
        return model

    def root_value(self, lit: int) -> Optional[bool]:
        """Value of a literal fixed at decision level 0, or ``None``.

        Unlike :meth:`model_value` this does not depend on the last solve:
        it reports only permanent consequences of the clause database (unit
        clauses and their propagations).
        """
        var = lit if lit > 0 else -lit
        if var > self._num_vars:
            return None
        assign = self._assigns[var]
        if assign == _UNDEF or self._level[var] != 0:
            return None
        truth = assign == _TRUE
        return truth if lit > 0 else not truth

    def unsat_core(self) -> list[int]:
        """Subset of the assumptions that is unsatisfiable with the clauses."""
        if self._core is None:
            raise RuntimeError("no core available; last solve was SAT or never ran")
        return list(self._core)

    # --------------------------------------------------------------- layers

    @property
    def num_layers(self) -> int:
        """Number of retractable layers currently open."""
        return len(self._layers)

    def push(self) -> int:
        """Open a retractable clause layer; returns its selector variable.

        Every clause added until the matching :meth:`pop` is tagged with the
        layer's fresh selector and only enforced while the layer is open
        (the selector is assumed automatically by :meth:`solve`).  Layers
        nest LIFO.  Learnt clauses, activities and saved phases acquired
        while the layer is open remain valid after popping.
        """
        self._cancel_to_root()
        selector = self.new_var()
        self._layers.append(_Layer(selector, clause_mark=len(self._clauses)))
        return selector

    def pop(self) -> None:
        """Retract the most recently pushed layer.

        The layer's clauses are detached and the permanent unit clause
        ``-selector`` is added.  Because each retracted clause contained
        ``-selector``, the unit subsumes them all — so every clause learnt
        from them stays implied by the remaining database.  Learnt clauses
        that mention the dead selector are garbage-collected; the rest (the
        reusable program-structure lemmas) survive.
        """
        if not self._layers:
            raise RuntimeError("no layer to pop")
        self._cancel_to_root()
        layer = self._layers.pop()
        removed = set(layer.clauses)
        for ref in layer.clauses:
            self._detach(ref)
            self._free(ref)
        # Every problem clause added since the layer opened belongs to it
        # (add_clause tags them all), so the layer's clauses are exactly the
        # tail of the clause list.
        del self._clauses[layer.clause_mark:]
        # Learnt clauses mentioning the dead selector are permanently
        # satisfied once ``-selector`` is fixed; drop them so the watch
        # lists do not silt up over a long session.
        dead_lit = self._to_internal(-layer.selector)
        arena = self._arena
        stale: list[int] = []
        for ref in self._learnts:
            base = ref + _HDR
            for index in range(base, base + (arena[ref] >> 2)):
                if arena[index] == dead_lit:
                    stale.append(ref)
                    break
        if stale:
            for ref in stale:
                self._detach(ref)
                self._free(ref)
                removed.add(ref)
            self._learnts = [ref for ref in self._learnts if ref not in removed]
        if removed:
            # Level-0 propagations may still name a retracted clause as their
            # reason; those reasons are never resolved against again, but the
            # dangling references are cleared so compaction cannot remap them
            # to a recycled slot.
            reason = self._reason
            for var in range(1, self._num_vars + 1):
                if reason[var] in removed:
                    reason[var] = 0
        self._maybe_compact()
        # The retraction unit is permanent even when outer layers are still
        # open (a popped layer can never be re-entered), so it must bypass
        # the layer tagging of add_clause.
        remaining = self._layers
        self._layers = []
        try:
            self.add_clause([-layer.selector])
        finally:
            self._layers = remaining

    def _cancel_to_root(self) -> None:
        """Backtrack to level 0, giving up any kept assumption trail."""
        self._kept_assumptions = []
        self._cancel_until(0)

    def set_phases(self, phases) -> None:
        """Seed the saved phase of variables (warm start).

        ``phases`` maps variable index to the Boolean the next decision on
        that variable should try first.  Used to prime the search with the
        concrete values of a known failing execution.
        """
        for var, value in phases.items():
            if 1 <= var <= self._num_vars:
                self._polarity[var] = bool(value)

    # ------------------------------------------------------------ internals

    @staticmethod
    def _to_internal(lit: int) -> int:
        var = lit if lit > 0 else -lit
        return 2 * var + (0 if lit > 0 else 1)

    @staticmethod
    def _to_external(ilit: int) -> int:
        var = ilit >> 1
        return var if (ilit & 1) == 0 else -var

    def _lit_value(self, ilit: int) -> int:
        assign = self._assigns[ilit >> 1]
        if assign == _UNDEF:
            return _UNDEF
        return assign ^ (ilit & 1)

    # ------------------------------------------------------- clause storage

    def _alloc(self, lits: Sequence[int], learnt: bool) -> int:
        """Write a clause at the arena's logical end; returns its ref.

        The logical length (:attr:`_arena_len`) may trail the physical
        buffer length: the C search kernel appends learnt clauses into the
        preallocated slack, and compaction rebuilds the buffer exactly.
        """
        arena = self._arena
        ref = self._arena_len
        end = ref + _HDR + len(lits)
        if len(arena) < end:
            if self._flat:
                arena.frombytes(bytes((end - len(arena)) * arena.itemsize))
            else:
                arena.extend([0] * (end - len(arena)))
        arena[ref] = len(lits) << 2 | (_FLAG_LEARNT if learnt else 0)
        arena[ref + 1] = 0
        arena[ref + 2] = 0
        arena[ref + 3] = 0
        arena[ref + 4] = 0
        index = ref + _HDR
        for lit in lits:
            arena[index] = lit
            index += 1
        self._arena_len = end
        return ref

    def _attach(self, ref: int) -> None:
        """Link the clause's two watch slots into the watcher lists.

        Slot ``s`` watches the literal at position ``s``; its blocker is
        initialised to the other watched literal.
        """
        arena = self._arena
        heads = self._heads
        base = ref + _HDR
        lit0 = arena[base]
        lit1 = arena[base + 1]
        arena[ref + 3] = lit1
        arena[ref + 4] = lit0
        arena[ref + 1] = heads[lit0]
        heads[lit0] = ref << 1
        arena[ref + 2] = heads[lit1]
        heads[lit1] = (ref << 1) | 1

    def _detach(self, ref: int) -> None:
        """Unlink both watch slots of a clause from the watcher lists."""
        arena = self._arena
        heads = self._heads
        base = ref + _HDR
        for slot in (0, 1):
            lit = arena[base + slot]
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

    def _free(self, ref: int) -> None:
        """Mark a detached clause dead; its arena span becomes garbage."""
        header = self._arena[ref]
        self._arena[ref] = header | _FLAG_DEAD
        self._activity_of.pop(ref, None)
        self._garbage += (header >> 2) + _HDR

    def _maybe_compact(self) -> None:
        """Compact the arena when dead clauses dominate it.

        The trigger compares against the *logical* length: the physical
        buffer may carry preallocated slack for the C kernel, and the
        compaction decision must be identical across backends.
        """
        if self._garbage > 16384 and self._garbage * 2 > self._arena_len:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the arena without dead clauses and remap every ref.

        Runs only from safe points (layer pops, learnt-clause reduction),
        never mid-propagation; reasons on the trail are remapped, watcher
        lists are rebuilt.
        """
        old = self._arena
        fresh = array("l", [0]) if self._flat else [0]
        remap: dict[int, int] = {}
        position = 1
        end = self._arena_len
        while position < end:
            header = old[position]
            size = header >> 2
            if not (header & _FLAG_DEAD):
                remap[position] = len(fresh)
                fresh.append(header)
                fresh.extend((0, 0, 0, 0))
                fresh.extend(old[position + _HDR : position + _HDR + size])
            position += _HDR + size
        self._arena = fresh
        self._arena_len = len(fresh)
        self._garbage = 0
        self._clauses = [remap[ref] for ref in self._clauses]
        self._learnts = [remap[ref] for ref in self._learnts]
        self._activity_of = {
            remap[ref]: activity for ref, activity in self._activity_of.items()
        }
        for layer in self._layers:
            layer.clauses = [remap[ref] for ref in layer.clauses]
        reason = self._reason
        for var in range(1, self._num_vars + 1):
            if reason[var]:
                reason[var] = remap.get(reason[var], 0)
        heads = self._heads
        for index in range(len(heads)):
            heads[index] = 0
        for ref in self._clauses:
            self._attach(ref)
        for ref in self._learnts:
            self._attach(ref)

    # ----------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Assert the solver's core data-structure invariants.

        A debugging aid for tests (the backend differential matrix calls it
        after forced compaction and after C-kernel re-entry), not a hot-path
        check: it walks the whole arena, every watcher list, the trail and
        the order heap in O(arena + vars) and raises ``AssertionError`` on
        the first inconsistency.  Safe to call at any quiescent point (never
        mid-propagation).
        """
        arena = self._arena
        end = self._arena_len
        assert end <= len(arena), (
            f"logical arena length {end} exceeds buffer {len(arena)}"
        )
        # Arena walk: clause spans tile [1, end) exactly and the dead spans
        # sum to the garbage counter.
        live_refs: set[int] = set()
        position = 1
        garbage = 0
        while position < end:
            header = arena[position]
            size = header >> 2
            assert size >= 0 and position + _HDR + size <= end, (
                f"clause at ref {position} overruns the arena"
            )
            if header & _FLAG_DEAD:
                garbage += _HDR + size
            else:
                live_refs.add(position)
            position += _HDR + size
        assert position == end, "arena clause spans do not tile the logical length"
        assert garbage == self._garbage, (
            f"garbage counter {self._garbage} != dead span total {garbage}"
        )
        listed = list(self._clauses) + list(self._learnts)
        listed_set = set(listed)
        assert len(listed) == len(listed_set), "duplicate ref in clause lists"
        assert live_refs <= listed_set, (
            "live arena clause missing from the clause lists"
        )
        # Watcher lists: under each literal, every link names a live clause
        # actually watching that literal in that slot, exactly once; and
        # every live clause of two or more literals is linked in both slots.
        heads = self._heads
        seen_watches: set[tuple[int, int]] = set()
        bound = 2 * len(live_refs) + 1
        for lit in range(2, 2 * self._num_vars + 2):
            current = heads[lit]
            steps = 0
            while current:
                ref = current >> 1
                slot = current & 1
                assert ref in live_refs, (
                    f"watcher of literal {lit} points at dead/unknown ref {ref}"
                )
                assert arena[ref + _HDR + slot] == lit, (
                    f"clause {ref} slot {slot} watches "
                    f"{arena[ref + _HDR + slot]}, linked under {lit}"
                )
                key = (ref, slot)
                assert key not in seen_watches, (
                    f"clause {ref} slot {slot} linked twice"
                )
                seen_watches.add(key)
                current = arena[ref + 1 + slot]
                steps += 1
                assert steps <= bound, f"watcher list of literal {lit} cycles"
        for ref in live_refs:
            if (arena[ref] >> 2) >= 2:
                assert (ref, 0) in seen_watches and (ref, 1) in seen_watches, (
                    f"clause {ref} is live but not linked in both watch slots"
                )
        # Trail and levels: limits are monotone, trail variables are unique
        # and true, and each sits at the decision level of its segment.
        assert 0 <= self._qhead <= self._trail_len, "qhead outside the trail"
        lims = list(self._trail_lim)
        assert lims == sorted(lims) and all(
            0 <= lim <= self._trail_len for lim in lims
        ), f"trail limits {lims} not monotone within the trail"
        trail_vars: set[int] = set()
        level = 0
        for index in range(self._trail_len):
            while level < len(lims) and lims[level] <= index:
                level += 1
            ilit = self._trail[index]
            var = ilit >> 1
            assert 1 <= var <= self._num_vars, f"trail literal {ilit} out of range"
            assert var not in trail_vars, f"variable {var} on the trail twice"
            trail_vars.add(var)
            assert self._lit_value(ilit) == _TRUE, (
                f"trail literal at {index} is not satisfied"
            )
            assert self._level[var] == level, (
                f"variable {var} stored at level {self._level[var]}, "
                f"sits in trail segment {level}"
            )
            reason = self._reason[var]
            assert reason == 0 or reason in live_refs, (
                f"variable {var} has dead/unknown reason ref {reason}"
            )
        assigned = {
            var
            for var in range(1, self._num_vars + 1)
            if self._assigns[var] != _UNDEF
        }
        assert assigned == trail_vars, (
            "assignment map and trail disagree: "
            f"{sorted(assigned ^ trail_vars)} in one but not the other"
        )
        # Order heap: position map and storage agree, the max-heap property
        # holds, and every unassigned variable is present (ready to branch).
        heap_buf = self._order.heap_buffer()
        pos_buf = self._order.positions_buffer()
        size = self._order.size
        assert size <= len(heap_buf), "heap size exceeds its storage"
        for index in range(size):
            var = heap_buf[index]
            assert 1 <= var <= self._num_vars, f"heap holds bad variable {var}"
            assert pos_buf[var] == index, (
                f"position map says {pos_buf[var]} for variable {var} at "
                f"heap index {index}"
            )
            if index:
                parent = heap_buf[(index - 1) >> 1]
                assert self._activity[parent] >= self._activity[var], (
                    f"heap property violated at index {index}"
                )
        for var in range(1, self._num_vars + 1):
            pos = pos_buf[var] if var < len(pos_buf) else -1
            if pos >= 0:
                assert pos < size and heap_buf[pos] == var, (
                    f"stale heap position {pos} for variable {var}"
                )
            else:
                assert var in assigned, (
                    f"unassigned variable {var} missing from the order heap"
                )

    # ---------------------------------------------------------- propagation

    def _enqueue(self, ilit: int, reason_ref: int) -> bool:
        value = self._lit_value(ilit)
        if value != _UNDEF:
            return value == _TRUE
        var = ilit >> 1
        self._assigns[var] = (ilit & 1) ^ 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason_ref
        self._trail[self._trail_len] = ilit
        self._trail_len += 1
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause ref or ``None``.

        Dispatches to the C core when this solver uses the ``"c"`` backend;
        the pure-Python loop below implements the identical algorithm.
        """
        if self._use_c:
            state = self._state
            state[0] = self._qhead
            state[1] = self._trail_len
            state[2] = len(self._trail_lim)
            state[3] = 0
            conflict = self._cfn(
                self._arena.buffer_info()[0],
                self._heads.buffer_info()[0],
                self._assigns.buffer_info()[0],
                self._level.buffer_info()[0],
                self._reason.buffer_info()[0],
                self._trail.buffer_info()[0],
                state.buffer_info()[0],
            )
            self._qhead = state[0]
            self._trail_len = state[1]
            self.stats.propagations += state[3]
            return conflict if conflict else None
        return self._propagate_python()

    def _propagate_python(self) -> Optional[int]:
        """The pure-Python propagation loop (mirror of ``search.c``).

        Walks the intrusive watcher list of each newly falsified literal:
        a watcher whose cached *blocker* literal is already true is skipped
        without touching the clause body; otherwise the clause either moves
        the watch, keeps it (refreshing the blocker), propagates its other
        watched literal, or reports the conflict.
        """
        arena = self._arena
        heads = self._heads
        assigns = self._assigns
        levels = self._level
        reasons = self._reason
        trail = self._trail
        current_level = len(self._trail_lim)
        qhead = self._qhead
        trail_len = self._trail_len
        propagated = 0
        while qhead < trail_len:
            p = trail[qhead]
            qhead += 1
            propagated += 1
            false_lit = p ^ 1
            prev_link = -1  # -1: the list head; otherwise an arena index
            ptr = heads[false_lit]
            while ptr:
                ref = ptr >> 1
                slot = ptr & 1
                next_link = ref + 1 + slot
                nxt = arena[next_link]
                blocker = arena[ref + 3 + slot]
                bval = assigns[blocker >> 1]
                if bval >= 0 and bval ^ (blocker & 1) == 1:
                    prev_link = next_link
                    ptr = nxt
                    continue
                base = ref + _HDR
                other = arena[base + 1 - slot]
                if other != blocker:
                    oval = assigns[other >> 1]
                    if oval >= 0 and oval ^ (other & 1) == 1:
                        arena[ref + 3 + slot] = other  # refresh the blocker
                        prev_link = next_link
                        ptr = nxt
                        continue
                size = arena[ref] >> 2
                moved = False
                for index in range(base + 2, base + size):
                    lit = arena[index]
                    value = assigns[lit >> 1]
                    if value < 0 or value ^ (lit & 1) == 1:
                        arena[base + slot] = lit
                        arena[index] = false_lit
                        arena[ref + 3 + slot] = other
                        arena[next_link] = heads[lit]
                        heads[lit] = ptr
                        if prev_link < 0:
                            heads[false_lit] = nxt
                        else:
                            arena[prev_link] = nxt
                        moved = True
                        break
                if moved:
                    ptr = nxt
                    continue
                oval = assigns[other >> 1]
                if oval >= 0 and oval ^ (other & 1) == 0:
                    # other is falsified: conflict.
                    self._qhead = trail_len
                    self._trail_len = trail_len
                    self.stats.propagations += propagated
                    return ref
                var = other >> 1
                assigns[var] = (other & 1) ^ 1
                levels[var] = current_level
                reasons[var] = ref
                trail[trail_len] = other
                trail_len += 1
                prev_link = next_link
                ptr = nxt
        self._qhead = qhead
        self._trail_len = trail_len
        self.stats.propagations += propagated
        return None

    # --------------------------------------------------------------- search

    def _new_decision_level(self) -> None:
        self._trail_lim.append(self._trail_len)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        if level < self._search_floor:
            self._search_floor = level
        bound = self._trail_lim[level]
        trail = self._trail
        assigns = self._assigns
        polarity = self._polarity
        reason = self._reason
        order_insert = self._order.insert
        for index in range(self._trail_len - 1, bound - 1, -1):
            ilit = trail[index]
            var = ilit >> 1
            assigns[var] = _UNDEF
            polarity[var] = (ilit & 1) == 0
            reason[var] = 0
            order_insert(var)
        self._trail_len = bound
        del self._trail_lim[level:]
        self._qhead = bound

    def _var_bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._var_inc *= 1e-100
            self._order.rebuild()
        self._order.update(var)

    def _var_decay_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _clause_bump(self, ref: int) -> None:
        activity = self._activity_of.get(ref, 0.0) + self._cla_inc
        self._activity_of[ref] = activity
        if activity > 1e20:
            for learnt in self._activity_of:
                self._activity_of[learnt] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump level)."""
        arena = self._arena
        learnt: list[int] = [0]
        seen = self._seen
        counter = 0
        p = -1
        index = self._trail_len - 1
        current_level = self._decision_level()
        clause = conflict
        while True:
            assert clause != 0
            if arena[clause] & _FLAG_LEARNT:
                self._clause_bump(clause)
            base = clause + _HDR
            for position in range(base, base + (arena[clause] >> 2)):
                q = arena[position]
                if p != -1 and (q >> 1) == (p >> 1):
                    continue
                var = q >> 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = 1
                    self._var_bump(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self._trail[index] >> 1]:
                index -= 1
            p = self._trail[index]
            var = p >> 1
            clause = self._reason[var]
            seen[var] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                break
        learnt[0] = p ^ 1

        # Local (non-recursive) clause minimization over the shared ``seen``
        # buffer: at this point ``seen[var] == 1`` exactly for the variables
        # of ``learnt[1:]`` (the UIP's variable was cleared when it was
        # dequeued, and it cannot occur in the reason of a lower-level
        # literal, so no separate marker set is needed).  A literal is
        # redundant when every other literal of its reason clause is already
        # in the learnt clause or fixed at level 0.
        levels = self._level
        reasons = self._reason
        minimized = [learnt[0]]
        for q in learnt[1:]:
            reason = reasons[q >> 1]
            if not reason:
                minimized.append(q)
                continue
            redundant = True
            base = reason + _HDR
            for position in range(base, base + (arena[reason] >> 2)):
                var = arena[position] >> 1
                if var != (q >> 1) and not seen[var] and levels[var] > 0:
                    redundant = False
                    break
            if not redundant:
                minimized.append(q)
        for q in learnt[1:]:
            seen[q >> 1] = 0
        self.stats.analyses += 1
        self.stats.minimized_literals += len(learnt) - len(minimized)
        learnt = minimized

        if len(learnt) == 1:
            backjump = 0
        else:
            max_index = 1
            max_level = levels[learnt[1] >> 1]
            for position in range(2, len(learnt)):
                lvl = levels[learnt[position] >> 1]
                if lvl > max_level:
                    max_level = lvl
                    max_index = position
            learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
            backjump = max_level
        return learnt, backjump

    def _analyze_final(self, failed: int) -> list[int]:
        """Compute an assumption core given a falsified assumption literal."""
        core_internal = {failed}
        if self._decision_level() == 0:
            return [self._to_external(lit) for lit in core_internal]
        arena = self._arena
        seen = self._seen
        seen[failed >> 1] = 1
        bound = self._trail_lim[0]
        for index in range(self._trail_len - 1, bound - 1, -1):
            ilit = self._trail[index]
            var = ilit >> 1
            if not seen[var]:
                continue
            reason = self._reason[var]
            if not reason:
                core_internal.add(ilit)
            else:
                base = reason + _HDR
                for position in range(base, base + (arena[reason] >> 2)):
                    qvar = arena[position] >> 1
                    if qvar != var and self._level[qvar] > 0:
                        seen[qvar] = 1
            seen[var] = 0
        seen[failed >> 1] = 0
        return [self._to_external(lit) for lit in core_internal]

    def _pick_branch_literal(self) -> Optional[int]:
        while len(self._order):
            var = self._order.pop_max()
            if self._assigns[var] == _UNDEF:
                self.stats.decisions += 1
                return 2 * var + (0 if self._polarity[var] else 1)
        return None

    def _reduce_db(self) -> None:
        arena = self._arena
        reasons = self._reason
        activity_of = self._activity_of
        learnts = self._learnts
        learnts.sort(key=lambda ref: activity_of.get(ref, 0.0))
        threshold = self._cla_inc / max(len(learnts), 1)
        keep: list[int] = []
        removed = 0
        half = len(learnts) // 2
        for index, ref in enumerate(learnts):
            base = ref + _HDR
            lit0 = arena[base]
            lit1 = arena[base + 1]
            locked = (
                reasons[lit0 >> 1] == ref and self._lit_value(lit0) == _TRUE
            ) or (reasons[lit1 >> 1] == ref and self._lit_value(lit1) == _TRUE)
            if locked or (arena[ref] >> 2) <= 2:
                keep.append(ref)
            elif index < half or activity_of.get(ref, 0.0) < threshold:
                self._detach(ref)
                self._free(ref)
                removed += 1
            else:
                keep.append(ref)
        self._learnts = keep
        self.stats.deleted_clauses += removed
        self._maybe_compact()

    @staticmethod
    def _luby(index: int) -> int:
        """The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ... (0-based index)."""
        # Find the finite subsequence containing `index` and its size.
        size, sequence = 1, 0
        while size < index + 1:
            sequence += 1
            size = 2 * size + 1
        while size - 1 != index:
            size = (size - 1) // 2
            sequence -= 1
            index %= size
        return 1 << sequence

    def _search(self, assumptions: list[int]) -> bool:
        if self._use_c_search:
            return self._search_c(assumptions)
        return self._search_python(assumptions)

    def _search_python(self, assumptions: list[int]) -> bool:
        """The pure-Python search loop (mirror of ``repro_search``)."""
        restart_index = 0
        conflict_budget = 100 * self._luby(restart_index)
        conflicts_since_restart = 0
        max_learnts = max(len(self._clauses) // 3, 2000)
        total_conflicts = 0
        free_decisions = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                total_conflicts += 1
                if self.max_conflicts is not None and total_conflicts > self.max_conflicts:
                    self._core = []
                    self._cancel_until(0)
                    raise ConflictBudgetExceeded(
                        f"exceeded conflict budget of {self.max_conflicts}"
                    )
                if self._decision_level() == 0:
                    self._ok = False
                    self._core = []
                    return False
                learnt, backjump_level = self._analyze(conflict)
                self.stats.backjumped_levels += self._decision_level() - backjump_level
                self._cancel_until(max(backjump_level, 0))
                if len(learnt) == 1:
                    self._enqueue(learnt[0], 0)
                else:
                    ref = self._alloc(learnt, learnt=True)
                    self._attach(ref)
                    self._learnts.append(ref)
                    self._clause_bump(ref)
                    self.stats.learnt_clauses += 1
                    self._enqueue(learnt[0], ref)
                self._var_decay_activity()
                self._cla_inc /= self._cla_decay
                continue

            if conflicts_since_restart >= conflict_budget:
                self.stats.restarts += 1
                restart_index += 1
                conflict_budget = 100 * self._luby(restart_index)
                conflicts_since_restart = 0
                # Assumption-aware restart: keep the established assumption
                # levels and their propagations, undoing only the free
                # decisions above them.  The assumption prefix would be
                # re-decided in the same order anyway, and on trace formulas
                # it forces most of the circuit — restarting to level 0
                # would re-propagate tens of thousands of literals per
                # restart.
                self._cancel_until(min(self._decision_level(), len(assumptions)))
                continue

            if len(self._learnts) >= max_learnts + self._trail_len:
                self._reduce_db()
                max_learnts = int(max_learnts * 1.3)

            next_lit: Optional[int] = None
            while self._decision_level() < len(assumptions):
                assumption = assumptions[self._decision_level()]
                value = self._lit_value(assumption)
                if value == _TRUE:
                    self._new_decision_level()
                elif value == _FALSE:
                    self._core = self._analyze_final(assumption)
                    return False
                else:
                    next_lit = assumption
                    break
            if next_lit is None:
                next_lit = self._pick_branch_literal()
                if next_lit is None:
                    self._model = list(self._assigns)
                    return True
                free_decisions += 1
                if self.max_decisions is not None and free_decisions > self.max_decisions:
                    # The branch variable was popped from the order heap but
                    # never enqueued; without reinsertion it would be lost
                    # to every future search on this solver.
                    self._order.insert(next_lit >> 1)
                    self._cancel_to_root()
                    raise DecisionBudgetExceeded(
                        f"exceeded decision budget of {self.max_decisions}"
                    )
            self._new_decision_level()
            self._enqueue(next_lit, 0)

    # ------------------------------------------------------- C search kernel

    def _ensure_buf(self, name: str, size: int) -> array:
        """A cached ``array('l')`` scratch buffer of at least ``size`` slots."""
        buf = getattr(self, name)
        if buf is None or len(buf) < size:
            buf = array("l", [0]) * max(size, 16)
            setattr(self, name, buf)
        return buf

    def _search_c(self, assumptions: list[int]) -> bool:
        """Drive the compiled search kernel (mirror of :meth:`_search_python`).

        The kernel runs the entire inner CDCL loop — propagation, analysis,
        learning, backjumping, VSIDS, restarts, decisions — over the shared
        flat buffers and returns only for control events.  This driver
        provisions buffer capacity, marshals the per-search bookkeeping in
        and out through the state array, drains the refs of newly learnt
        clauses, and replays the clause-activity bump log (clause activities
        only influence Python-side database reduction, so the kernel records
        *which* learnt clauses were bumped and Python applies the
        bump/decay/rescale arithmetic — bit-identically, since the log
        preserves execution order).
        """
        stats = self.stats
        n_assumptions = len(assumptions)
        restart_index = 0
        conflict_budget = 100 * self._luby(restart_index)
        conflicts_since_restart = 0
        max_learnts = max(len(self._clauses) // 3, 2000)
        total_conflicts = 0
        free_decisions = 0
        state = self._sstate
        floats = self._sfloat
        assump_buf = self._ensure_buf("_assump_buf", n_assumptions)
        for index, ilit in enumerate(assumptions):
            assump_buf[index] = ilit

        while True:
            num_vars = self._num_vars
            arena = self._arena
            # A single conflict analysis may allocate one learnt clause of
            # up to num_vars literals, log one bump per resolved clause plus
            # the learnt ref and a decay sentinel, and push one scratch ref.
            # The kernel re-checks this margin before every analysis and
            # exits with _EXIT_CAPACITY instead of overflowing.
            needed = self._arena_len + num_vars + _HDR + 2
            if len(arena) < needed:
                target = max(
                    needed,
                    len(arena) + (len(arena) >> 1),
                    self._arena_len + 65536,
                )
                arena.frombytes(bytes((target - len(arena)) * arena.itemsize))
            scratch = self._ensure_buf("_scratch_buf", max(num_vars, 8192))
            bump_log = self._ensure_buf(
                "_bump_log", max(2 * num_vars + 4096, 16384)
            )
            analyze_buf = self._ensure_buf("_analyze_buf", 2 * num_vars + 4)
            lim_buf = self._ensure_buf(
                "_lim_buf", num_vars + n_assumptions + 2
            )
            for index, bound in enumerate(self._trail_lim):
                lim_buf[index] = bound
            order = self._order
            order.grow_to(num_vars)
            state[_S_QHEAD] = self._qhead
            state[_S_TRAIL_LEN] = self._trail_len
            state[_S_LEVELS] = len(self._trail_lim)
            state[_S_PROPAGATIONS] = 0
            state[_S_ARENA_LEN] = self._arena_len
            state[_S_ARENA_CAP] = len(arena)
            state[_S_HEAP_SIZE] = order.size
            state[_S_NUM_VARS] = num_vars
            state[_S_NUM_ASSUMPTIONS] = n_assumptions
            state[_S_LEARNT_COUNT] = len(self._learnts)
            state[_S_MAX_LEARNTS] = max_learnts
            state[_S_RESTART_INDEX] = restart_index
            state[_S_CONFLICT_BUDGET] = conflict_budget
            state[_S_CONFLICTS_SINCE_RESTART] = conflicts_since_restart
            state[_S_TOTAL_CONFLICTS] = total_conflicts
            state[_S_MAX_CONFLICTS] = (
                -1 if self.max_conflicts is None else self.max_conflicts
            )
            state[_S_FREE_DECISIONS] = free_decisions
            state[_S_MAX_DECISIONS] = (
                -1 if self.max_decisions is None else self.max_decisions
            )
            state[_S_SEARCH_FLOOR] = self._search_floor
            state[_S_EXIT_REASON] = 0
            state[_S_EXIT_PAYLOAD] = 0
            for index in range(_S_D_CONFLICTS, _S_D_BACKJUMPED + 1):
                state[index] = 0
            state[_S_SCRATCH_LEN] = 0
            state[_S_SCRATCH_CAP] = len(scratch)
            state[_S_LOG_LEN] = 0
            state[_S_LOG_CAP] = len(bump_log)
            floats[0] = self._var_inc
            floats[1] = self._var_decay
            self._csearch(
                arena.buffer_info()[0],
                self._heads.buffer_info()[0],
                self._assigns.buffer_info()[0],
                self._level.buffer_info()[0],
                self._reason.buffer_info()[0],
                self._trail.buffer_info()[0],
                lim_buf.buffer_info()[0],
                self._polarity.buffer_info()[0],
                self._seen.buffer_info()[0],
                self._activity.buffer_info()[0],
                order.heap_buffer().buffer_info()[0],
                order.positions_buffer().buffer_info()[0],
                assump_buf.buffer_info()[0],
                scratch.buffer_info()[0],
                bump_log.buffer_info()[0],
                analyze_buf.buffer_info()[0],
                state.buffer_info()[0],
                floats.buffer_info()[0],
            )
            # Marshal the kernel's bookkeeping back out.
            self._qhead = state[_S_QHEAD]
            self._trail_len = state[_S_TRAIL_LEN]
            self._trail_lim = list(lim_buf[: state[_S_LEVELS]])
            stats.propagations += state[_S_PROPAGATIONS]
            self._arena_len = state[_S_ARENA_LEN]
            order.set_size(state[_S_HEAP_SIZE])
            restart_index = state[_S_RESTART_INDEX]
            conflict_budget = state[_S_CONFLICT_BUDGET]
            conflicts_since_restart = state[_S_CONFLICTS_SINCE_RESTART]
            total_conflicts = state[_S_TOTAL_CONFLICTS]
            free_decisions = state[_S_FREE_DECISIONS]
            self._search_floor = state[_S_SEARCH_FLOOR]
            stats.conflicts += state[_S_D_CONFLICTS]
            stats.decisions += state[_S_D_DECISIONS]
            stats.restarts += state[_S_D_RESTARTS]
            stats.learnt_clauses += state[_S_D_LEARNTS]
            stats.analyses += state[_S_D_ANALYSES]
            stats.minimized_literals += state[_S_D_MINIMIZED]
            stats.backjumped_levels += state[_S_D_BACKJUMPED]
            self._var_inc = floats[0]
            learnts = self._learnts
            for index in range(state[_S_SCRATCH_LEN]):
                learnts.append(scratch[index])
            for index in range(state[_S_LOG_LEN]):
                entry = bump_log[index]
                if entry:
                    self._clause_bump(entry)
                else:
                    self._cla_inc /= self._cla_decay
            reason = state[_S_EXIT_REASON]
            if reason == _EXIT_SAT:
                self._model = list(self._assigns)
                return True
            if reason == _EXIT_UNSAT:
                self._ok = False
                self._core = []
                return False
            if reason == _EXIT_ASSUMPTION:
                self._core = self._analyze_final(state[_S_EXIT_PAYLOAD])
                return False
            if reason == _EXIT_REDUCE:
                self._reduce_db()
                max_learnts = int(max_learnts * 1.3)
            elif reason == _EXIT_CONFLICT_BUDGET:
                self._core = []
                self._cancel_until(0)
                raise ConflictBudgetExceeded(
                    f"exceeded conflict budget of {self.max_conflicts}"
                )
            elif reason == _EXIT_DECISION_BUDGET:
                self._cancel_to_root()
                raise DecisionBudgetExceeded(
                    f"exceeded decision budget of {self.max_decisions}"
                )
            elif reason != _EXIT_CAPACITY:  # pragma: no cover
                raise RuntimeError(f"C search kernel returned bad exit {reason}")
            # _EXIT_REDUCE and _EXIT_CAPACITY re-enter: the next iteration
            # re-provisions capacity and resumes at the loop top, where an
            # empty propagation queue makes re-entry a no-op.


class ConflictBudgetExceeded(RuntimeError):
    """Raised when ``Solver.max_conflicts`` is exhausted during search."""


class DecisionBudgetExceeded(RuntimeError):
    """Raised when ``Solver.max_decisions`` is exhausted during search."""
