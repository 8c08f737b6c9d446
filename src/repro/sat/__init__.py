"""Conflict-driven clause learning (CDCL) SAT solver substrate.

The paper's tool chain relies on MiniSAT2 and on the SAT engine inside the
MSUnCORE MaxSAT solver.  Neither is available here, so this package provides
a self-contained CDCL solver with the features the rest of the reproduction
needs:

* incremental solving under *assumptions* (used to implement selector
  variables / clause groups),
* extraction of an unsatisfiable core over the assumptions (used by the
  core-guided MaxSAT algorithms),
* DIMACS CNF and WCNF reading/writing for interoperability and debugging.

The solver's hot loops optionally run in a small C library compiled on
first use (see :mod:`repro.sat._ccore` and ``search.c``), with two layers:

* **propagation** — two-watched-literal unit propagation (reported by
  :func:`propagation_backend`);
* **search** — the full CDCL search kernel: propagation plus first-UIP
  conflict analysis with clause learning and minimization, backjumping,
  VSIDS activities, the order heap, phase saving, assumption decisions and
  restarts (reported by :func:`search_backend`).

``REPRO_BACKEND`` (``auto``/``python``/``c``) selects the backend of both
layers, and of the CNF emission core, at once.

Every backend combination implements the identical algorithms over the same
flat buffers and produces identical models, conflicts, cores and
statistics; the pure-Python loops remain the always-tested fallback.

The public entry points are :class:`Solver`, :data:`TRUE_LIT` helpers in
:mod:`repro.sat.literals`, and the DIMACS helpers in :mod:`repro.sat.dimacs`.
"""

from repro.sat.literals import neg, lit_to_var, var_to_lit
from repro.sat.solver import Solver, SolveResult, SolverStats


def propagation_backend() -> str:
    """Which propagation core new :class:`Solver` instances use by default.

    ``"c"`` when the compiled core is (or can be) loaded, ``"python"``
    otherwise.  Force the fallback with ``REPRO_BACKEND=python``; require
    the C core with ``REPRO_BACKEND=c``.
    """
    from repro.sat import _ccore

    return _ccore.backend()


def search_backend() -> str:
    """Which search kernel new :class:`Solver` instances use by default.

    ``"c"`` when the compiled search kernel is (or can be) loaded,
    ``"python"`` otherwise.  The kernel ships in the same library as the
    propagation core, so this always agrees with
    :func:`propagation_backend`.
    """
    from repro.sat import _ccore

    return _ccore.backend()


def propagation_core_unavailable_reason():
    """Why the C library is unavailable (``None`` when it loaded fine)."""
    from repro.sat import _ccore

    return _ccore.core_unavailable_reason()


__all__ = [
    "Solver",
    "SolveResult",
    "SolverStats",
    "neg",
    "lit_to_var",
    "var_to_lit",
    "propagation_backend",
    "search_backend",
    "propagation_core_unavailable_reason",
]
