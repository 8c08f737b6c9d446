"""ctypes dispatch of the C emission core over a :class:`GateArena`.

The :class:`CEncoder` wraps the shared library built from
``src/repro/sat/encode.c`` around an arena's flat ``array('q')`` buffers.
Python stays in charge of all memory: before every C call the wrapper
reserves worst-case capacity through the arena's ``ensure_*`` methods (the
C side never grows a buffer), and base addresses are re-resolved whenever a
buffer's length changed — ``array`` reallocation only happens on resize, so
the (cheap) length tuple is a sound cache key for the pointer tuple.

Granularity: the bit-vector operations (add / multiply / equals /
unsigned-less / mux / or-reduction / assert-equal) cross into C once per
*vector*, an array read (select) once per *array*, the residual scalar
gate calls once per gate.  Both directions interleave freely with the
pure-Python arena routines because all state lives in the shared buffers.
"""

from __future__ import annotations

import ctypes
from array import array
from itertools import chain
from typing import Optional, Sequence

from repro.encoding.arena import GateArena

#: Worst-case per-gate cost used for capacity reservations: the largest
#: gate is XOR3 (8 clauses, 32 literals).
_CLAUSES_PER_GATE = 8
_LITS_PER_GATE = 32

#: Exact (clauses, literals) of one gate definition, which the select /
#: or-many kernels reserve per gate so their reservations never grow the
#: arena past what the Python composition would.  An ITE that folds
#: becomes an AND/OR (3, 7) or an XOR (4, 12), never more than (4, 12).
_AND_COST = (3, 7)
_ITE_COST = (4, 12)

#: The multiplier kernel keeps its accumulator rows in fixed C-local
#: arrays; wider vectors fall back to the Python composition.
MAX_VECTOR_BITS = 64


def _addr(buf: array) -> int:
    return buf.buffer_info()[0]


class CEncoder:
    """Per-compile binding of the C emission core onto one arena."""

    def __init__(self, arena: GateArena, library: ctypes.CDLL) -> None:
        self.arena = arena
        self._gate = library.repro_enc_gate
        self._add = library.repro_enc_add
        self._mul = library.repro_enc_mul
        self._equals = library.repro_enc_equals
        self._uless = library.repro_enc_uless
        self._mux = library.repro_enc_mux
        self._select = library.repro_enc_select
        self._assert_equal = library.repro_enc_assert_equal
        self._or_many = library.repro_enc_or_many
        self._key: Optional[tuple[int, int, int]] = None
        self._ptrs: tuple = ()
        rehash = library.repro_enc_rehash

        def rehash_hook(old: array, old_slots: int, new: array, new_mask: int) -> None:
            rehash(_addr(old), old_slots, _addr(new), new_mask)

        arena.rehash_hook = rehash_hook

    def _pointers(self) -> tuple:
        """The five buffer base addresses, refreshed after any growth."""
        arena = self.arena
        key = (len(arena.lits), len(arena.cend), len(arena.gtab))
        if key != self._key:
            self._key = key
            self._ptrs = (
                _addr(arena.hdr),
                _addr(arena.lits),
                _addr(arena.cend),
                _addr(arena.cgid),
                _addr(arena.gtab),
            )
        return self._ptrs

    def _reserve(self, gates: int) -> None:
        """Room for ``gates`` worst-case gates before handing off to C."""
        arena = self.arena
        arena.ensure_gates(gates)
        arena.ensure_clauses(gates * _CLAUSES_PER_GATE, gates * _LITS_PER_GATE)

    # ------------------------------------------------------------- dispatch

    def gate(self, op: int, a: int, b: int, c: int = 0) -> int:
        self._reserve(1)
        return self._gate(*self._pointers(), op, a, b, c)

    def add(self, a: Sequence[int], b: Sequence[int], carry: int) -> tuple[int, ...]:
        n = len(a)
        self._reserve(2 * n)
        va, vb = array("q", a), array("q", b)
        vout = array("q", bytes(8 * n))
        self._add(*self._pointers(), _addr(va), _addr(vb), _addr(vout), n, carry)
        return tuple(vout)

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        n = len(a)
        self._reserve(3 * n * n)
        va, vb = array("q", a), array("q", b)
        vout = array("q", bytes(8 * n))
        self._mul(*self._pointers(), _addr(va), _addr(vb), _addr(vout), n)
        return tuple(vout)

    def equals(self, a: Sequence[int], b: Sequence[int]) -> int:
        n = len(a)
        self._reserve(2 * n)
        va, vb = array("q", a), array("q", b)
        scratch = array("q", bytes(8 * n))
        return self._equals(
            *self._pointers(), _addr(va), _addr(vb), _addr(scratch), n
        )

    def unsigned_less(self, a: Sequence[int], b: Sequence[int]) -> int:
        n = len(a)
        self._reserve(2 * n)
        va, vb = array("q", a), array("q", b)
        return self._uless(*self._pointers(), _addr(va), _addr(vb), n)

    def mux(
        self, cond: int, a: Sequence[int], b: Sequence[int]
    ) -> tuple[int, ...]:
        n = len(a)
        self._reserve(n)
        va, vb = array("q", a), array("q", b)
        vout = array("q", bytes(8 * n))
        self._mux(*self._pointers(), cond, _addr(va), _addr(vb), _addr(vout), n)
        return tuple(vout)

    def select(
        self, index: Sequence[int], cells: Sequence[Sequence[int]]
    ) -> tuple[int, ...]:
        """``cells[index]`` over ``len(index)``-bit cells (zero out of range).

        The index is compared against constants, so its equality XORs all
        fold: per cell at most one AND per bit (the equality chain) and one
        ITE per bit (the mux).
        """
        n, count = len(index), len(cells)
        per_cell = n * count
        arena = self.arena
        arena.ensure_gates(2 * per_cell)
        arena.ensure_clauses(
            per_cell * (_AND_COST[0] + _ITE_COST[0]),
            per_cell * (_AND_COST[1] + _ITE_COST[1]),
        )
        vi = array("q", index)
        vc = array("q", chain.from_iterable(cells))
        vout = array("q", bytes(8 * n))
        self._select(
            *self._pointers(), _addr(vi), _addr(vc), count, _addr(vout), n
        )
        return tuple(vout)

    def assert_equal(
        self, target: Sequence[int], source: Sequence[int], n: int, gid: int
    ) -> None:
        """The first ``n`` bit bindings, owned by group ``gid`` (-1 = hard)."""
        # Two binary clauses per bit at most; no gates.
        self.arena.ensure_clauses(2 * n, 4 * n)
        vt, vs = array("q", target), array("q", source)
        self._assert_equal(*self._pointers(), _addr(vt), _addr(vs), n, gid)

    def or_many(self, lits: Sequence[int]) -> int:
        n = len(lits)
        arena = self.arena
        arena.ensure_gates(n)
        arena.ensure_clauses(n * _AND_COST[0], n * _AND_COST[1])
        va = array("q", lits)
        return self._or_many(*self._pointers(), _addr(va), n)
