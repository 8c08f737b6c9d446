"""The extended trace formula and its conversion to a partial MaxSAT instance.

Following Section 3.4 of the paper, the trace formula is kept in two parts:

* hard clauses — the constraint that the initial state equals the failing
  test input, the asserted post-condition, and structural clauses;
* clause groups — for every program statement executed by the trace, the
  CNF clauses encoding that statement's transition relation.

Both kinds of formula BugAssist builds — the concolic trace of one failing
execution (:class:`TraceFormula`) and the test-free whole-program encoding
(:class:`~repro.bmc.compiled.CompiledProgram`) — hold them in one flat
layout, read by :class:`FlatFormula`.  :meth:`FlatFormula.to_wcnf` augments
every clause of a group with the group's fresh selector variable
(Equation 2: ``CNF(rho, lambda_rho)``) and adds the selector as a soft
clause, producing exactly the pMAX-SAT instance BugAssist feeds to the
solver.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.encoding.context import StatementGroup
from repro.maxsat import WCNF
from repro.sat import flat


@dataclass
class TraceStep:
    """One executed statement in the failing trace (for reports and slicing)."""

    line: int
    function: str
    kind: str
    iteration: Optional[int] = None
    description: str = ""


class FlatFormula:
    """Readers of the flat clause layout shared by every formula.

    Subclasses hold the clauses flat (:mod:`repro.sat.flat`): ``lits`` and
    ``ends`` hold every clause, the first ``hard_clauses`` of them the hard
    block, then one range per statement group, with ``group_keys`` the
    groups in sorted order and ``group_ends[k]`` the clause index ending
    the range of ``group_keys[k]``.  They also carry ``num_vars``,
    ``signature`` and the executed ``steps``.
    """

    @property
    def num_clauses(self) -> int:
        """Total clause count (hard plus grouped), Table 3's clause#."""
        return len(self.ends)

    @property
    def num_assignments(self) -> int:
        """Number of assignment operations (Table 3's assign#)."""
        return sum(
            1 for step in self.steps if step.kind in ("assign", "array-assign", "decl")
        )

    @property
    def lines(self) -> set[int]:
        """Source lines that own a clause group."""
        return {group.line for group in self.group_keys}

    def group_ranges(self) -> Iterator[tuple[StatementGroup, int, int]]:
        """``(group, start, stop)`` clause ranges in sorted group order."""
        start = self.hard_clauses
        for group, stop in zip(self.group_keys, self.group_ends):
            yield group, start, stop
            start = stop

    @property
    def hard(self) -> list[list[int]]:
        """The hard block as clause lists (a read-only view per access)."""
        return flat.clause_lists(self.lits, self.ends, 0, self.hard_clauses)

    @property
    def groups(self) -> dict[StatementGroup, list[list[int]]]:
        """Each group's clauses as lists, in sorted group order (a
        read-only view per access)."""
        return {
            group: flat.clause_lists(self.lits, self.ends, start, stop)
            for group, start, stop in self.group_ranges()
        }

    def to_wcnf(
        self,
        hard_groups: Optional[set[int]] = None,
        weight_of: Optional[Callable[[StatementGroup], int]] = None,
    ) -> tuple[WCNF, dict[int, StatementGroup]]:
        """Build the partial MaxSAT instance.

        The hard block stays hard; then, per sorted group, either a soft
        group (the clause range plus a fresh selector) or, for source lines
        in ``hard_groups``, plain hard clauses (the paper does this for
        library functions that are known to be correct).  ``weight_of``
        assigns each soft selector its weight (default 1); the
        loop-debugging extension passes the iteration-based weights of
        Equation 3.  The instance is made from the flat buffers with array
        copies.

        Returns the WCNF plus a map from selector variable to group, so that
        CoMSS members can be mapped back to statements.
        """
        wcnf = WCNF.from_clause_buffer(self.lits, self.ends, self.num_vars)
        wcnf.signature = self.signature or None
        selector_to_group: dict[int, StatementGroup] = {}
        for group, start, stop in self.group_ranges():
            if hard_groups is not None and group.line in hard_groups:
                continue
            weight = weight_of(group) if weight_of is not None else 1
            selector = wcnf.add_soft_range(start, stop, weight=weight, label=group)
            selector_to_group[selector] = group
        return wcnf, selector_to_group


@dataclass
class TraceFormula(FlatFormula):
    """The extended trace formula of one failing execution.

    The test-input equalities and the violated specification are part of
    the hard block; the clauses are laid out as described on
    :class:`FlatFormula`.
    """

    width: int
    num_vars: int
    lits: array = field(default_factory=lambda: array(flat.TYPECODE))
    ends: array = field(default_factory=lambda: array(flat.TYPECODE))
    hard_clauses: int = 0
    group_keys: tuple[StatementGroup, ...] = ()
    group_ends: array = field(default_factory=lambda: array(flat.TYPECODE))
    steps: list[TraceStep] = field(default_factory=list)
    test_inputs: dict[str, int] = field(default_factory=dict)
    assertion_description: str = ""
    #: Number of gate-cache hits while encoding (structure-hash sharing).
    gates_shared: int = 0
    #: Name of the circuit simplifier configuration used by the encoder.
    simplifier: str = ""
    #: Structural signature of the gate cache (keys cross-test core reuse).
    signature: str = ""
    #: Bits eliminated by analysis-guided range narrowing (0 = narrowing off
    #: or nothing provable).
    narrowed_vars: int = 0
