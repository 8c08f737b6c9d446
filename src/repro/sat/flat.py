"""Flat int32 clause buffers: one clause representation from encoder to solver.

A clause list is two ``array('i')`` buffers: ``lits`` holds every clause's
literals (DIMACS convention) back to back, and ``ends`` holds each clause's
end offset into ``lits`` — clause ``i`` is ``lits[ends[i - 1]:ends[i]]``,
with ``ends[-1]`` taken as 0.  The encoder's arena partitions its clauses
into this layout, the compiled artifact stores and ships it (pickled
``array`` bytes, no per-clause object), :class:`~repro.maxsat.WCNF` keeps its
hard clauses in it, and :meth:`repro.sat.Solver.add_clause_buffer` loads it
into the solver's clause arena in one call.

Buffers from outside the process (artifact spills, worker shipments) are
checked by :func:`check_clause_buffer` before any C routine indexes with
them.
"""

from __future__ import annotations

import operator
from array import array
from itertools import islice
from typing import Optional

from repro.sat import _ccore

#: ``array`` typecode of both buffers (C ``int``, 32 bits).
TYPECODE = "i"

#: Messages for the codes ``repro_check_clauses`` (and its mirror) return.
_PROBLEMS = {
    1: "clause end offsets decrease",
    2: "last clause end offset differs from the literal count",
    3: "zero literal",
    4: "literal beyond num_vars",
}


def check_clause_buffer(lits: array, ends: array, num_vars: int) -> Optional[str]:
    """Why a flat clause buffer is malformed, or ``None`` when it is sound.

    Sound means: both buffers are int32 arrays, the end offsets never
    decrease, the last one equals ``len(lits)``, and every literal is
    non-zero with ``|lit| <= num_vars``.  The check runs in C when the
    solver core is loaded and otherwise on array-level builtins
    (``min``/``max``/``in``), never as a per-literal Python loop.
    """
    for name, buf in (("lits", lits), ("ends", ends)):
        if not isinstance(buf, array) or buf.typecode != TYPECODE:
            return f"{name} is not an int32 array"
    check = _ccore.check_clauses_function()
    if check is not None:
        code = check(
            lits.buffer_info()[0],
            len(lits),
            ends.buffer_info()[0],
            len(ends),
            num_vars,
        )
    else:
        code = _check_python(lits, ends, num_vars)
    return _PROBLEMS.get(code)


def _check_python(lits: array, ends: array, num_vars: int) -> int:
    """The array-level mirror of ``repro_check_clauses`` (same codes)."""
    if ends and (ends[0] < 0 or any(map(operator.gt, ends, islice(ends, 1, None)))):
        return 1
    if (ends[-1] if ends else 0) != len(lits):
        return 2
    if lits:
        if 0 in lits:
            return 3
        if max(lits) > num_vars or -min(lits) > num_vars:
            return 4
    return 0


def clause_lists(
    lits: array, ends: array, start: int = 0, stop: Optional[int] = None, selector: int = 0
) -> list[list[int]]:
    """Clauses ``start..stop`` of a flat buffer as lists (``-selector``
    appended when ``selector`` is non-zero): the read-only list view for
    the few readers that want Python clause objects."""
    first = ends[start - 1] if start else 0
    clauses: list[list[int]] = []
    for end in ends[start:stop]:
        clause = lits[first:end].tolist()
        if selector:
            clause.append(-selector)
        clauses.append(clause)
        first = end
    return clauses

