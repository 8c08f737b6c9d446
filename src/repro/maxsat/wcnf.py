"""Partial weighted CNF container used by every MaxSAT engine."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from repro.sat import flat


@dataclass(frozen=True)
class SoftClause:
    """A soft clause: literals, a positive integer weight and an optional label.

    Labels are opaque to the solvers; BugAssist uses them to map soft clauses
    back to program statements (selector-variable groups).
    """

    lits: tuple[int, ...]
    weight: int = 1
    label: Optional[Hashable] = None


class WCNF:
    """A partial weighted CNF formula.

    Hard clauses must be satisfied; soft clauses each carry a positive weight
    and the solvers maximise the total weight of satisfied soft clauses
    (equivalently, minimise the total weight of falsified ones).

    Hard clauses are held flat, in the :mod:`repro.sat.flat` layout
    (``lits``/``ends`` int32 buffers), plus a *range table* for clause
    grouping: clause ``i`` lies in range ``r`` when ``range_ends[r - 1] <=
    i < range_ends[r]``, and a non-zero ``range_sels[r]`` is the selector
    whose negation the clause carries; clauses past the last range are
    plain.  A soft group (Section 3.4) is therefore one clause range plus
    its selector, and engines hand the whole table to the solver's bulk
    loader (:meth:`repro.sat.Solver.add_clause_buffer`) without building a
    Python object per clause.
    """

    def __init__(self) -> None:
        self.lits = array(flat.TYPECODE)
        self.ends = array(flat.TYPECODE)
        self.range_ends = array(flat.TYPECODE)
        self.range_sels = array(flat.TYPECODE)
        self.soft: list[SoftClause] = []
        self._num_vars = 0
        #: Optional structural signature of the encoding this instance came
        #: from (the gate-cache signature); engines use it to decide whether
        #: archived cross-test cores may be reused across :meth:`load` calls.
        self.signature: Optional[str] = None

    @classmethod
    def from_clause_buffer(cls, lits: array, ends: array, num_vars: int) -> "WCNF":
        """An instance whose plain hard clauses are a copy of a flat buffer.

        The buffer must already be sound (:func:`repro.sat.flat.check_clause_buffer`
        with ``num_vars``, as every compiled artifact is): its literals are
        not re-checked.  Variables ``1..num_vars`` are reserved.
        """
        wcnf = cls()
        wcnf.lits = lits[:]
        wcnf.ends = ends[:]
        wcnf._num_vars = num_vars
        return wcnf

    # ------------------------------------------------------------- building

    @property
    def num_vars(self) -> int:
        """Highest variable index mentioned so far (or allocated)."""
        return self._num_vars

    def new_var(self) -> int:
        """Allocate a fresh variable index not used by any clause yet."""
        self._num_vars += 1
        return self._num_vars

    def add_hard(self, lits: Iterable[int]) -> None:
        """Add a hard clause."""
        self._append(lits)

    def add_soft(
        self,
        lits: Iterable[int],
        weight: int = 1,
        label: Optional[Hashable] = None,
    ) -> int:
        """Add a soft clause and return its index."""
        if weight <= 0:
            raise ValueError("soft clause weight must be a positive integer")
        clause = self._checked(lits)
        self.soft.append(SoftClause(tuple(clause), weight, label))
        return len(self.soft) - 1

    def add_soft_group(
        self,
        clauses: Iterable[Iterable[int]],
        weight: int = 1,
        label: Optional[Hashable] = None,
        selector: Optional[int] = None,
    ) -> int:
        """Add a *group* of clauses controlled by one selector variable.

        This is the clause-grouping construction of Section 3.4 of the paper:
        every clause ``c`` of the group becomes the hard clause ``(!s or c)``
        and the single soft clause ``[s]`` (weight ``weight``) stands for the
        whole group.  Returns the selector variable.
        """
        start = len(self.ends)
        for clause in clauses:
            self._append(clause)
        return self.add_soft_range(start, len(self.ends), weight, label, selector)

    def add_soft_range(
        self,
        start: int,
        stop: int,
        weight: int = 1,
        label: Optional[Hashable] = None,
        selector: Optional[int] = None,
    ) -> int:
        """Make the plain hard clauses ``start..stop`` one soft group.

        :meth:`add_soft_group` for clauses already in the buffer: they carry
        ``-selector`` from now on and ``[selector]`` becomes soft.  Ranges
        are claimed in clause order.  Returns the selector variable.
        """
        covered = self.range_ends[-1] if self.range_ends else 0
        if not covered <= start <= stop <= len(self.ends):
            raise ValueError(f"clause range {start}..{stop} is not plain and in order")
        if selector is None:
            selector = self.new_var()
        else:
            self._num_vars = max(self._num_vars, selector)
        if start > covered:
            self.range_ends.append(start)
            self.range_sels.append(0)
        self.range_ends.append(stop)
        self.range_sels.append(selector)
        self.add_soft([selector], weight=weight, label=label)
        return selector

    # ------------------------------------------------------------ inspection

    @property
    def num_hard(self) -> int:
        """Number of hard clauses."""
        return len(self.ends)

    @property
    def hard(self) -> list[list[int]]:
        """The hard clauses as lists, selectors included (a read-only view
        built on each access; engines read the flat buffers)."""
        clauses: list[list[int]] = []
        start = 0
        for stop, selector in [*zip(self.range_ends, self.range_sels), (len(self.ends), 0)]:
            clauses.extend(flat.clause_lists(self.lits, self.ends, start, stop, selector))
            start = stop
        return clauses

    @property
    def total_soft_weight(self) -> int:
        """Sum of all soft clause weights."""
        return sum(soft.weight for soft in self.soft)

    def is_weighted(self) -> bool:
        """True when soft clauses carry non-uniform weights."""
        return len({soft.weight for soft in self.soft}) > 1

    def copy(self) -> "WCNF":
        """Independent copy (buffers are copied; soft clauses are immutable)."""
        duplicate = WCNF()
        duplicate.lits = self.lits[:]
        duplicate.ends = self.ends[:]
        duplicate.range_ends = self.range_ends[:]
        duplicate.range_sels = self.range_sels[:]
        duplicate.soft = list(self.soft)
        duplicate._num_vars = self._num_vars
        duplicate.signature = self.signature
        return duplicate

    # -------------------------------------------------------------- helpers

    def _append(self, lits: Iterable[int]) -> None:
        self.lits.extend(self._checked(lits))
        self.ends.append(len(self.lits))

    def _checked(self, lits: Iterable[int]) -> list[int]:
        clause = list(lits)
        if clause:
            if 0 in clause:
                raise ValueError("0 is not a valid literal")
            self._num_vars = max(self._num_vars, max(clause), -min(clause))
        return clause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WCNF(vars={self._num_vars}, hard={self.num_hard}, "
            f"soft={len(self.soft)}, weight={self.total_soft_weight})"
        )
