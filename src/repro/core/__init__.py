"""The BugAssist algorithms — the paper's primary contribution.

* :class:`LocalizationSession` — Algorithm 1: turn the extended trace
  formula of a failing test into a partial MaxSAT instance, repeatedly
  extract CoMSSes, block each one, and report the corresponding source
  lines as candidate error locations.  Whole-program formulas are compiled
  once and every failing test is localized against them with solver
  push/pop between tests; concolic trace formulas are localized through
  the same CoMSS loop.
* :class:`BugAssistLocalizer` — the per-test front end: a thin wrapper
  that localizes through one cached session per entry function.
* :func:`rank_locations` / :class:`RankedLocalization` — Section 4.3:
  aggregate localization over many failing tests and rank lines by how
  often they are reported.
* :class:`OffByOneRepairer` — Algorithm 2 (Section 5.1): mutate constants
  (and optionally operators) at reported locations and check whether the
  failure disappears.
* :class:`LoopIterationLocalizer` — Section 5.2: weighted soft clauses with
  per-iteration selector variables to pin-point the loop iteration at which
  the failure is first caused.
"""

from repro.core.report import BugLocation, LocalizationReport, RankedLocalization
from repro.core.localizer import BugAssistLocalizer
from repro.core.ranking import merge_reports, rank_locations
from repro.core.repair import OffByOneRepairer, RepairResult
from repro.core.loops import LoopIterationLocalizer, LoopIterationReport
from repro.core.session import (
    BatchLocalizationError,
    LocalizationSession,
    SessionStats,
    ShardLocalizationError,
    TestCase,
)
from repro.spec import Specification

__all__ = [
    "BatchLocalizationError",
    "BugAssistLocalizer",
    "BugLocation",
    "ShardLocalizationError",
    "LocalizationReport",
    "LocalizationSession",
    "RankedLocalization",
    "SessionStats",
    "TestCase",
    "merge_reports",
    "rank_locations",
    "OffByOneRepairer",
    "RepairResult",
    "LoopIterationLocalizer",
    "LoopIterationReport",
    "Specification",
]
