"""Variable allocation and clause routing for the trace-formula encoding."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro import obs
from repro.encoding import arena as _arena
from repro.encoding.arena import GateArena


@dataclass(frozen=True, order=True)
class StatementGroup:
    """Identity of one clause group (Section 3.4).

    A group corresponds to one program statement: all clauses arising from
    the statement share one selector variable and are enabled or disabled
    together.  For the loop-debugging extension (Section 5.2) the group also
    carries the loop-unrolling ``iteration`` so the same source line gets a
    distinct selector per iteration.
    """

    line: int
    function: str = ""
    iteration: Optional[int] = None

    def describe(self) -> str:
        parts = [f"line {self.line}"]
        if self.function:
            parts.append(f"in {self.function}()")
        if self.iteration is not None:
            parts.append(f"iteration {self.iteration}")
        return " ".join(parts)


class EncodingContext:
    """Allocates CNF variables and routes emitted clauses.

    Clauses are routed either into the *hard* set (test-input constraints,
    the asserted post-condition, auxiliary structure) or into the clause
    group of the statement currently being encoded.  Which destination is
    active is controlled with the :meth:`group` context manager.

    *Gate* clauses — the Tseitin definitions emitted by the structure-hashed
    :class:`~repro.encoding.circuits.CircuitBuilder` — are routed into the
    hard set through :meth:`emit_gate` regardless of the active group.  A
    gate definition is total (it has a solution for every assignment to its
    inputs, the output being a fresh variable), so making it hard never
    constrains the program variables; it only allows one shared gate to be
    referenced from several statement groups without tying those groups'
    relaxation together.  The relaxable part of a statement — its output
    bindings, branch units and assumptions — still goes through
    :meth:`emit` and stays owned by the statement's group.
    """

    def __init__(self, width: int = 16) -> None:
        self.width = width
        self.num_vars = 0
        self.hard: list[list[int]] = []
        self.groups: dict[StatementGroup, list[list[int]]] = {}
        self._current: Optional[StatementGroup] = None
        self._true_lit: Optional[int] = None
        # Structure-hashing statistics, maintained by the CircuitBuilder.
        self.gates_emitted = 0
        self.gate_hits = 0
        # Rolling FNV-1a hash over the canonical gate keys: a structural
        # signature of the circuit, used to key cross-test core archives.
        self._sig = 0xCBF29CE484222325

    def finalize(self) -> None:
        """Seal the encoding (a no-op for the list-based context)."""

    # ------------------------------------------------------------ variables

    def new_var(self) -> int:
        """Allocate a fresh CNF variable."""
        self.num_vars += 1
        return self.num_vars

    @property
    def true_lit(self) -> int:
        """A literal constrained (by a hard unit clause) to be true."""
        if self._true_lit is None:
            self._true_lit = self.new_var()
            self.hard.append([self._true_lit])
        return self._true_lit

    # -------------------------------------------------------------- clauses

    def emit(self, clause: list[int]) -> None:
        """Emit a clause into the hard set or the active statement group."""
        if self._current is None:
            self.hard.append(clause)
        else:
            self.groups.setdefault(self._current, []).append(clause)

    def emit_hard(self, clause: list[int]) -> None:
        """Emit a clause into the hard set regardless of the active group."""
        self.hard.append(clause)

    def emit_gate(self, clause: list[int]) -> None:
        """Emit one clause of a (total) gate definition into the hard set."""
        self.hard.append(clause)

    def observe_gate(self, op: int, a: int, b: int, out: int) -> None:
        """Fold one canonical gate key into the structural signature.

        Called *before* the gate's definition clauses are emitted, with
        ``out`` the variable allocated immediately beforehand.
        """
        sig = self._sig
        for word in (op, a, b, out):
            sig = ((sig ^ (word & 0xFFFFFFFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        self._sig = sig

    @property
    def gate_signature(self) -> str:
        """Hex digest of the structural gate signature accumulated so far."""
        return f"{self._sig:016x}"

    @contextmanager
    def group(self, group: Optional[StatementGroup]) -> Iterator[None]:
        """Route clauses emitted inside the block to ``group`` (None = hard)."""
        previous = self._current
        self._current = group
        if group is not None:
            self.groups.setdefault(group, [])
        try:
            yield
        finally:
            self._current = previous

    @property
    def current_group(self) -> Optional[StatementGroup]:
        return self._current

    # ------------------------------------------------------------ statistics

    @property
    def num_clauses(self) -> int:
        """Total number of clauses emitted so far (hard plus grouped)."""
        return len(self.hard) + sum(len(clauses) for clauses in self.groups.values())


class ArenaEncodingContext(EncodingContext):
    """An :class:`EncodingContext` backed by flat :class:`GateArena` storage.

    Same observable behaviour as the legacy list-of-lists context —
    identical variable numbering, clause order and gate signature — but
    clauses and the gate cache live in flat ``array('q')`` buffers while the
    encode runs (the C emission core operates on the same buffers).  Once
    :meth:`finalize` has sealed it, :meth:`flat_clauses` reads the clauses
    out in the flat formula layout that compiled programs and trace
    formulas both hold.  Compiles and concolic traces run on this subclass;
    the legacy class remains the reference the circuit tests use.
    """

    def __init__(self, width: int = 16) -> None:
        self.width = width
        self.arena = GateArena()
        self._current: Optional[StatementGroup] = None
        self._group_table: list[StatementGroup] = []
        self._group_ids: dict[StatementGroup, int] = {}
        self._finalized = False
        self._flat: Optional[tuple] = None
        #: Wall-clock seconds per encode phase, filled by the producer
        #: (analysis vs gate emission vs clause materialization).
        self.encode_phases: dict[str, float] = {}
        #: Which emission backend filled the buffers ("python" or "c").
        self.encode_backend = "python"

    def group_id(self, group: StatementGroup) -> int:
        """Index of ``group`` in the group table (registering it)."""
        index = self._group_ids.get(group)
        if index is None:
            index = len(self._group_table)
            self._group_ids[group] = index
            self._group_table.append(group)
        return index

    # ------------------------------------------------------------ variables

    def new_var(self) -> int:
        return self.arena.new_var()

    @property
    def _true_lit(self) -> Optional[int]:
        return self.arena.hdr[_arena.HDR_TRUE] or None

    @property
    def true_lit(self) -> int:
        return self.arena.true_lit()

    # -------------------------------------------------------------- clauses

    def emit(self, clause: list[int]) -> None:
        group = self._current
        self.arena.emit(clause, -1 if group is None else self.group_id(group))

    def emit_hard(self, clause: list[int]) -> None:
        self.arena.emit(clause, -1)

    def emit_gate(self, clause: list[int]) -> None:
        self.arena.emit(clause, -1)

    @property
    def gates_emitted(self) -> int:
        return self.arena.hdr[_arena.HDR_GATES]

    @property
    def gate_hits(self) -> int:
        return self.arena.hdr[_arena.HDR_HITS]

    @property
    def gate_signature(self) -> str:
        return f"{self.arena.hdr[_arena.HDR_SIG] & ((1 << 64) - 1):016x}"

    @contextmanager
    def group(self, group: Optional[StatementGroup]) -> Iterator[None]:
        previous = self._current
        self._current = group
        if group is not None:
            # Register the (possibly empty) group exactly like the legacy
            # context: the soft selector set must not depend on whether any
            # clause lands in the group.
            self.group_id(group)
        try:
            yield
        finally:
            self._current = previous

    # ------------------------------------------------------------ statistics

    @property
    def num_vars(self) -> int:
        return self.arena.hdr[_arena.HDR_NUM_VARS]

    @property
    def num_clauses(self) -> int:
        return self.arena.hdr[_arena.HDR_NCLAUSES]

    # ------------------------------------------------------- materialization

    def finalize(self) -> None:
        """Seal the encoding: every clause has been emitted."""
        self._finalized = True

    def flat_clauses(self) -> tuple:
        """The clauses in the flat formula layout, built once.

        See :meth:`GateArena.partition`; compiled programs and trace
        formulas store this tuple as is, so no encode builds a Python object
        per clause.  The read-out is timed as the materialize phase.
        """
        if not self._finalized:
            raise RuntimeError("arena context read before finalize()")
        if self._flat is None:
            with obs.span("encode.materialize") as timed:
                self._flat = self.arena.partition(self._group_table)
            self.encode_phases["materialize"] = (
                self.encode_phases.get("materialize", 0.0) + timed.duration
            )
        return self._flat
