"""Algorithm 1 per failing test: the BugAssist localizer front end.

Given a failing test, BugAssist

1. builds the extended trace formula — either from "the entire boolean
   representation of the program" (``mode="program"``, the CBMC-style
   whole-program encoding the paper uses for the TCAS experiments) or from
   the dynamic trace of the failing execution (``mode="trace"``, the
   concolic construction used together with the trace-reduction techniques
   of Table 3),
2. converts it to a partial MaxSAT instance (test input and post-condition
   hard, one soft selector clause per statement),
3. repeatedly asks the MaxSAT engine for a CoMSS, reports the corresponding
   statements as a candidate bug location, and blocks that CoMSS,
4. stops when no further CoMSS exists ("no more suspects").

Steps 2-4 have one implementation, in
:class:`~repro.core.session.LocalizationSession`.  :class:`BugAssistLocalizer`
is a thin wrapper over it: program mode localizes through one cached
session per entry function (the program is compiled once), and trace mode
builds the concolic trace formula and hands it to the session's
trace-formula entry point.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.concolic import ConcolicTracer
from repro.core.report import LocalizationReport
from repro.core.session import LocalizationSession
from repro.encoding.trace import TraceFormula
from repro.lang import ast
from repro.lang.semantics import DEFAULT_WIDTH
from repro.spec import Specification


class BugAssistLocalizer:
    """Error localization by maximum satisfiability (the BugAssist tool)."""

    def __init__(
        self,
        program: ast.Program,
        width: int = DEFAULT_WIDTH,
        strategy: str = "hitting-set",
        mode: str = "program",
        unwind: int = 16,
        max_candidates: int = 25,
        concrete_functions: Iterable[str] = (),
        hard_functions: Iterable[str] = (),
        hard_lines: Iterable[int] = (),
    ) -> None:
        """Configure the localizer.

        ``strategy`` selects the MaxSAT engine.  ``mode`` selects how the
        formula is built: ``"program"`` encodes the whole program (both
        branches of every conditional, loops unrolled up to ``unwind``) the
        way CBMC does, while ``"trace"`` encodes only the dynamic path of the
        failing execution (used with the trace-reduction techniques).
        ``concrete_functions`` are executed concretely only (concolic trace
        reduction, ``mode="trace"`` only), while ``hard_functions`` /
        ``hard_lines`` are encoded but excluded from the candidate set
        (library code assumed correct).  ``max_candidates`` bounds the number
        of CoMSS iterations.
        """
        if mode not in ("program", "trace"):
            raise ValueError(f"unknown localization mode {mode!r}")
        self.program = program
        self.width = width
        self.strategy = strategy
        self.mode = mode
        self.unwind = unwind
        self.max_candidates = max_candidates
        self.concrete_functions = tuple(concrete_functions)
        self.hard_functions = tuple(hard_functions)
        self.hard_lines = set(hard_lines)
        self._sessions: dict[str, LocalizationSession] = {}

    # ------------------------------------------------------------------ API

    def build_trace_formula(
        self,
        inputs: Sequence[int] | Mapping[str, int],
        spec: Specification,
        entry: str = "main",
        nondet_values: Sequence[int] = (),
    ) -> TraceFormula:
        """Build the concolic trace formula for one failing test.

        Trace mode only: a program-mode localizer has no per-test formula —
        it localizes on its session's compiled program instead.
        """
        if self.mode != "trace":
            raise ValueError(
                "build_trace_formula needs mode='trace'; program mode "
                "localizes on the session's compiled program"
            )
        tracer = ConcolicTracer(
            self.program,
            width=self.width,
            concrete_functions=self.concrete_functions,
            hard_functions=self.hard_functions,
        )
        return tracer.trace(inputs, spec, entry=entry, nondet_values=nondet_values)

    def localize_trace(
        self,
        formula: TraceFormula,
        program_name: Optional[str] = None,
    ) -> LocalizationReport:
        """Run the CoMSS enumeration loop of Algorithm 1 on a trace formula."""
        return self._session().localize_trace(
            formula, program_name=program_name or self.program.name
        )

    def localize_test(
        self,
        inputs: Sequence[int] | Mapping[str, int],
        spec: Specification,
        entry: str = "main",
        nondet_values: Sequence[int] = (),
        program_name: Optional[str] = None,
    ) -> LocalizationReport:
        """Localize starting from a failing test."""
        if self.mode == "program":
            return self._session(entry).localize(
                inputs, spec, nondet_values=nondet_values, program_name=program_name
            )
        formula = self.build_trace_formula(
            inputs, spec, entry=entry, nondet_values=nondet_values
        )
        return self.localize_trace(formula, program_name=program_name)

    # ------------------------------------------------------------- internals

    def _session(self, entry: str = "main") -> LocalizationSession:
        """The session this localizer runs on for ``entry`` (created once;
        it compiles the whole program only when program mode needs it)."""
        session = self._sessions.get(entry)
        if session is None:
            session = self._sessions[entry] = LocalizationSession(
                self.program,
                width=self.width,
                strategy=self.strategy,
                unwind=self.unwind,
                max_candidates=self.max_candidates,
                entry=entry,
                hard_functions=self.hard_functions,
                hard_lines=self.hard_lines,
            )
        return session
