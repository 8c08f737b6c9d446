"""Compile once, localize many: the session-oriented BugAssist API.

The Table 1 protocol localizes *each* failing test of a program
independently, but the whole-program encoding (and hence almost the entire
partial MaxSAT instance) is identical across those runs — only the
test-input equalities and the post-condition units differ.  A
:class:`LocalizationSession` exploits that:

* the program is compiled exactly once into a
  :class:`~repro.bmc.compiled.CompiledProgram` (the invariant CNF plus the
  bit-vectors where a test plugs in);
* one persistent MaxSAT engine is loaded with the shared instance, and
  each failing test is localized inside a retractable *layer*
  (:meth:`~repro.maxsat.engine.MaxSatEngine.push_layer` /
  :meth:`~repro.maxsat.engine.MaxSatEngine.pop_layer`): the per-test units
  and the CoMSS blocking clauses go in, Algorithm 1 runs, and the layer is
  popped — learnt clauses, variable activities and saved phases survive
  into the next test;
* solver phases are warm-started from the concrete failing test, so the
  first model search starts from the failing execution rather than from a
  cold default;
* :meth:`LocalizationSession.localize_batch` shards the failing tests over
  a process pool (``executor="process"``), pickling the compiled artifact
  once per worker, and merges the per-test reports into a
  :class:`~repro.core.report.RankedLocalization`.

Typical use::

    with LocalizationSession(program) as session:
        ranked = session.localize_batch(failing_tests)
    for line, count in ranked.ranked_lines:
        print(line, count)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro import obs
from repro.bmc import BoundedModelChecker, CompiledProgram
from repro.core.localizer import run_comss_loop
from repro.core.ranking import merge_reports
from repro.core.report import LocalizationReport, RankedLocalization
from repro.lang import ast
from repro.lang.semantics import DEFAULT_WIDTH
from repro.maxsat import MaxSatEngine, make_engine
from repro.spec import Specification

TestCase = Sequence[int] | Mapping[str, int]
FailingTest = tuple[TestCase, Specification]

#: Executors accepted by :meth:`LocalizationSession.localize_batch`.
EXECUTORS = ("serial", "process")


class ShardLocalizationError(RuntimeError):
    """One test inside a process-pool shard failed to localize.

    Raised worker-side with the offending test's label so the parent never
    sees a bare pickle traceback with no hint of which test was to blame.
    ``args`` carries ``(test_label, cause)`` verbatim, which keeps the
    exception picklable across the pool boundary.
    """

    def __init__(self, test_label: str, cause: str) -> None:
        super().__init__(test_label, cause)
        self.test_label = test_label
        self.cause = cause

    def __str__(self) -> str:
        return f"localization of test {self.test_label} failed: {self.cause}"


class BatchLocalizationError(RuntimeError):
    """A shard of a batch localization failed twice (original run + retry)."""


def _test_label(index: int, test: FailingTest) -> str:
    inputs, spec = test
    if isinstance(inputs, Mapping):
        shown = dict(inputs)
    else:
        shown = list(inputs)
    return f"#{index} inputs={shown!r} spec={spec.describe()!r}"


@dataclass
class SessionStats:
    """Counters proving the compile-once contract (used by the benchmarks)."""

    encodings_built: int = 0
    tests_localized: int = 0
    maxsat_calls: int = 0
    sat_calls: int = 0


class LocalizationSession:
    """Localize many failing tests against one compiled program encoding.

    The session is the primary user-facing localization API; the per-test
    :class:`~repro.core.localizer.BugAssistLocalizer` remains for one-shot
    use and for the dynamic-trace mode.  Sessions are context managers::

        with LocalizationSession(program, hard_lines=(7, 8)) as session:
            report = session.localize(test, spec)
            ranked = session.localize_batch(failing_tests, executor="process",
                                            workers=4)
    """

    def __init__(
        self,
        program: ast.Program,
        width: int = DEFAULT_WIDTH,
        strategy: str = "hitting-set",
        unwind: int = 16,
        max_candidates: int = 25,
        entry: str = "main",
        hard_functions: Iterable[str] = (),
        hard_lines: Iterable[int] = (),
        warm_start: bool = True,
        analysis_narrowing: bool = True,
        static_pruning: bool = True,
        unwind_planning: bool = False,
        loop_iteration_groups: bool = False,
    ) -> None:
        self.program = program
        self.width = width
        self.strategy = strategy
        self.unwind = unwind
        self.max_candidates = max_candidates
        self.entry = entry
        self.hard_functions = tuple(hard_functions)
        self.hard_lines = set(hard_lines)
        self.warm_start = warm_start
        self.analysis_narrowing = analysis_narrowing
        self.static_pruning = static_pruning
        self.unwind_planning = unwind_planning
        self.loop_iteration_groups = loop_iteration_groups
        self.stats = SessionStats()
        #: Solver-effort profile of the most recent :meth:`localize` call
        #: (the innermost engine layer's deltas), for per-request reporting.
        self.last_request_profile: dict[str, object] = {}
        self._compiled: Optional[CompiledProgram] = None
        self._engine: Optional[MaxSatEngine] = None
        self._closed = False
        self._pins = 0

    # ------------------------------------------------------------- lifecycle

    def __enter__(self) -> "LocalizationSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Release the persistent engine (the compiled artifact is kept)."""
        if self._pins:
            raise RuntimeError(f"session is pinned ({self._pins} holders)")
        self._engine = None
        self._closed = True

    # -------------------------------------------------------------- pinning

    def pin(self) -> "LocalizationSession":
        """Mark the session in use, protecting it from cache eviction.

        Warm-session caches (the serve worker pool's per-worker LRU) call
        :meth:`pin` while a request runs against the session and
        :meth:`unpin` afterwards; :meth:`close` refuses while pins are held,
        so an eviction sweep can never tear down a session mid-request.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        self._pins += 1
        return self

    def unpin(self) -> None:
        """Drop one pin (the converse of :meth:`pin`)."""
        if self._pins <= 0:
            raise RuntimeError("session is not pinned")
        self._pins -= 1

    @property
    def pinned(self) -> bool:
        """True while at least one holder has the session pinned."""
        return self._pins > 0

    @classmethod
    def from_compiled(
        cls,
        compiled: CompiledProgram,
        strategy: str = "hitting-set",
        max_candidates: int = 25,
        hard_lines: Iterable[int] = (),
        warm_start: bool = True,
        static_pruning: bool = True,
    ) -> "LocalizationSession":
        """Adopt an existing compiled artifact (process-pool workers do this).

        The session never re-encodes: ``stats.encodings_built`` stays 0.
        """
        session = cls.__new__(cls)
        session.program = None
        session.width = compiled.width
        session.strategy = strategy
        session.unwind = compiled.unwind
        session.max_candidates = max_candidates
        session.entry = compiled.entry
        session.hard_functions = ()
        session.hard_lines = set(hard_lines)
        session.warm_start = warm_start
        session.analysis_narrowing = True
        session.static_pruning = static_pruning
        options = compiled.compile_options or {}
        session.unwind_planning = bool(options.get("unwind_planning", False))
        session.loop_iteration_groups = bool(
            options.get("loop_iteration_groups", False)
        )
        session.stats = SessionStats()
        session.last_request_profile = {}
        session._compiled = compiled
        session._engine = None
        session._closed = False
        session._pins = 0
        return session

    # --------------------------------------------------------------- compile

    @property
    def compiled(self) -> CompiledProgram:
        """The whole-program encoding, built on first use and then reused."""
        if self._compiled is None:
            checker = BoundedModelChecker(
                self.program,
                width=self.width,
                unwind=self.unwind,
                group_statements=True,
                hard_functions=self.hard_functions,
                analysis_narrowing=self.analysis_narrowing,
                unwind_planning=self.unwind_planning,
                loop_iteration_groups=self.loop_iteration_groups,
            )
            self._compiled = checker.compile_program(entry=self.entry)
            self.stats.encodings_built += 1
        return self._compiled

    def _ensure_engine(self) -> MaxSatEngine:
        if self._closed:
            raise RuntimeError("session is closed")
        if self._engine is None:
            # Static soft-clause pruning: statement lines outside the
            # backward slice of every assertion/output stay hard — their
            # writes provably cannot explain the failure, so they are never
            # offered to MaxSAT as fault candidates.
            hard_groups = set(self.hard_lines)
            if self.static_pruning:
                hard_groups.update(self.compiled.pruned_lines)
            wcnf, _ = self.compiled.base_formula().to_wcnf(
                hard_groups=hard_groups or None
            )
            engine = make_engine(self.strategy)
            engine.load(wcnf)
            self._engine = engine
        return self._engine

    # -------------------------------------------------------------- localize

    def localize(
        self,
        failing_test: TestCase,
        spec: Specification,
        nondet_values: Sequence[int] = (),
        program_name: Optional[str] = None,
    ) -> LocalizationReport:
        """Run Algorithm 1 for one failing test on the shared encoding.

        The per-test input and specification units (and every blocking
        clause the CoMSS loop adds) live in a retractable layer that is
        popped before returning, so the next call starts from the same
        shared instance — plus whatever the solver learnt.
        """
        compiled = self.compiled
        engine = self._ensure_engine()
        with obs.span(
            "session.localize", program=program_name or compiled.program_name
        ) as request_span:
            clauses, test_inputs = compiled.test_clauses(
                failing_test, spec, nondet_values=nondet_values
            )
            report = LocalizationReport(
                program_name=program_name or compiled.program_name,
                test_inputs=test_inputs,
                specification=spec.describe(),
                trace_assignments=compiled.num_assignments,
                trace_variables=compiled.num_vars,
                trace_clauses=compiled.num_clauses + len(clauses),
                unwind_truncated=compiled.unwind_truncated,
            )
            sat_calls_before = engine.sat_calls
            engine.push_layer()
            try:
                for clause in clauses:
                    engine.add_hard(clause)
                if self.warm_start:
                    engine.set_phases(compiled.phase_hints(test_inputs))
                with obs.span("solve.comss") as solve_span:
                    run_comss_loop(engine, report, self.max_candidates)
                layer_stats = engine.layer_stats()
                report.propagations = layer_stats.propagations
                report.conflicts = layer_stats.conflicts
                profile = dict(engine.layer_profile())
                solve_span.set(
                    sat_calls=profile.get("sat_calls"),
                    propagations=layer_stats.propagations,
                    conflicts=layer_stats.conflicts,
                )
                encode_profile = compiled.encode_profile()
                if encode_profile:
                    profile["encode_backend"] = encode_profile["encode_backend"]
                    for phase, seconds in encode_profile["encode_phases"].items():
                        profile[f"encode_phase_{phase}"] = round(seconds, 6)
                trace_id = obs.current_trace_id()
                if trace_id is not None:
                    profile["trace_id"] = trace_id
                self.last_request_profile = profile
            finally:
                engine.pop_layer()
            report.sat_calls = engine.sat_calls - sat_calls_before
        report.time_seconds = request_span.duration
        _record_localize_metrics(report, layer_stats)
        self.stats.tests_localized += 1
        self.stats.maxsat_calls += report.maxsat_calls
        self.stats.sat_calls += report.sat_calls
        return report

    def localize_test(
        self,
        inputs: TestCase,
        spec: Specification,
        entry: str = "main",
        nondet_values: Sequence[int] = (),
        program_name: Optional[str] = None,
    ) -> LocalizationReport:
        """Drop-in signature compatibility with ``BugAssistLocalizer``.

        Lets :func:`repro.core.ranking.rank_locations` and the repair loop
        drive a session unchanged.  The entry function is fixed per session.
        """
        if entry != self.entry:
            raise ValueError(
                f"session compiled for entry {self.entry!r}, got {entry!r}"
            )
        return self.localize(
            inputs, spec, nondet_values=nondet_values, program_name=program_name
        )

    # ----------------------------------------------------------------- batch

    def localize_batch(
        self,
        failing_tests: Iterable[FailingTest],
        executor: str = "serial",
        workers: Optional[int] = None,
        max_runs: Optional[int] = None,
        program_name: Optional[str] = None,
        on_run: Optional[Callable[[LocalizationReport], None]] = None,
    ) -> RankedLocalization:
        """Section 4.3 at session speed: localize a batch and rank the lines.

        ``executor="serial"`` reuses this session's engine for every test;
        ``executor="process"`` compiles once, pickles the artifact to each
        worker process, shards the tests round-robin and merges the reports.
        Either way the reports arrive in input order, so the resulting
        :class:`~repro.core.report.RankedLocalization` is identical across
        executors.
        """
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if self._closed:
            raise RuntimeError("session is closed")
        tests = list(failing_tests)
        if max_runs is not None:
            tests = tests[:max_runs]
        name = program_name or self.compiled.program_name
        if executor == "process" and len(tests) > 1:
            reports = self._localize_with_pool(tests, workers)
        else:
            # A generator, so on_run streams per-test progress as each
            # localization finishes instead of after the whole batch.
            reports = (self.localize(inputs, spec) for inputs, spec in tests)
        return merge_reports(name, reports, on_run=on_run)

    def _localize_with_pool(
        self, tests: list[FailingTest], workers: Optional[int]
    ) -> list[LocalizationReport]:
        import os
        from concurrent.futures import ProcessPoolExecutor

        workers = workers or min(len(tests), os.cpu_count() or 1)
        workers = max(1, min(workers, len(tests)))
        shards: list[list[tuple[int, FailingTest]]] = [[] for _ in range(workers)]
        for index, test in enumerate(tests):
            shards[index % workers].append((index, test))
        payload = (
            self.compiled,
            self.strategy,
            self.max_candidates,
            tuple(self.hard_lines),
            self.warm_start,
            self.static_pruning,
        )
        reports: list[Optional[LocalizationReport]] = [None] * len(tests)
        failed: list[tuple[list[tuple[int, FailingTest]], BaseException]] = []
        # The forwardable (trace_id, parent_span_id) of the caller's open
        # span, if any: each shard re-binds it in the worker process and
        # ships its spans back with the results, so one trace stitches the
        # whole fan-out.
        trace_ctx = obs.current_context()
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_initializer,
            initargs=(payload,),
        ) as pool:
            futures = [
                pool.submit(_pool_localize_shard, shard, trace_ctx)
                for shard in shards
            ]
            for shard, future in zip(shards, futures):
                try:
                    results, shard_spans = future.result()
                    for index, report in results:
                        reports[index] = report
                    obs.merge_spans(trace_ctx and trace_ctx[0], shard_spans)
                except Exception as exc:
                    # A dead or poisoned worker takes its whole shard down
                    # (and, for a BrokenProcessPool, every later shard too).
                    # Collect the casualties; they get exactly one retry on a
                    # fresh pool below instead of surfacing a bare traceback.
                    failed.append((shard, exc))
        for shard, original in failed:
            try:
                with ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_pool_initializer,
                    initargs=(payload,),
                ) as retry_pool:
                    results, shard_spans = retry_pool.submit(
                        _pool_localize_shard, shard, trace_ctx
                    ).result()
                    for index, report in results:
                        reports[index] = report
                    obs.merge_spans(trace_ctx and trace_ctx[0], shard_spans)
            except Exception as exc:
                raise BatchLocalizationError(
                    f"shard of {len(shard)} test(s) failed twice "
                    f"(original run: {_describe_error(original)}; "
                    f"fresh-pool retry: {_describe_error(exc)}); "
                    f"offending test: {_shard_failure_label(shard, exc)}"
                ) from exc
        self.stats.tests_localized += len(tests)
        for report in reports:
            assert report is not None
            self.stats.maxsat_calls += report.maxsat_calls
            self.stats.sat_calls += report.sat_calls
        return reports  # type: ignore[return-value]


def _record_localize_metrics(report: LocalizationReport, layer_stats) -> None:
    """Absorb one request's solver effort into the process metrics registry.

    ``layer_stats`` is the per-request :class:`~repro.sat.solver.SolverStats`
    delta (the engine layer's ``since`` snapshot), so the counters aggregate
    true per-request effort — including the C-core propagation/conflict/
    restart counts when those backends ran.
    """
    registry = obs.REGISTRY
    registry.counter(
        "repro_localizations", "Localization requests completed"
    ).inc()
    registry.counter(
        "repro_solver_sat_calls", "Incremental SAT calls issued by the CoMSS loop"
    ).inc(report.sat_calls)
    registry.counter(
        "repro_solver_propagations", "Unit propagations across all solves"
    ).inc(layer_stats.propagations)
    registry.counter(
        "repro_solver_conflicts", "Conflicts across all solves"
    ).inc(layer_stats.conflicts)
    registry.counter(
        "repro_solver_restarts", "Solver restarts across all solves"
    ).inc(layer_stats.restarts)
    registry.histogram(
        "repro_localize_seconds", "End-to-end localization latency"
    ).observe(report.time_seconds)


# ----------------------------------------------------- process-pool plumbing

#: Per-worker session, created once by the pool initializer from the pickled
#: compiled artifact — each worker builds zero encodings and reuses one
#: persistent engine across its whole shard.
_WORKER_SESSION: Optional[LocalizationSession] = None


def _pool_initializer(payload) -> None:
    global _WORKER_SESSION
    compiled, strategy, max_candidates, hard_lines, warm_start, static_pruning = payload
    _WORKER_SESSION = LocalizationSession.from_compiled(
        compiled,
        strategy=strategy,
        max_candidates=max_candidates,
        hard_lines=hard_lines,
        warm_start=warm_start,
        static_pruning=static_pruning,
    )


def _pool_localize_shard(
    shard, trace_ctx=None
) -> tuple[list[tuple[int, LocalizationReport]], list[dict]]:
    """Localize one shard; returns the reports plus the spans to stitch.

    ``trace_ctx`` is the parent's forwarded ``(trace_id, parent_span_id)``;
    the per-test ``session.localize`` spans recorded here parent under it
    once the caller merges them.  ``None`` (tracing off) collects nothing.
    """
    assert _WORKER_SESSION is not None
    results: list[tuple[int, LocalizationReport]] = []
    with obs.remote_trace(trace_ctx) as bundle:
        with obs.span("pool.shard", tests=len(shard)):
            for index, (inputs, spec) in shard:
                try:
                    results.append((index, _WORKER_SESSION.localize(inputs, spec)))
                except Exception as exc:
                    raise ShardLocalizationError(
                        _test_label(index, (inputs, spec)),
                        f"{type(exc).__name__}: {exc}",
                    ) from exc
    return results, bundle.spans


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _shard_failure_label(
    shard: list[tuple[int, FailingTest]], exc: BaseException
) -> str:
    """Name the test to blame for a shard failure.

    A :class:`ShardLocalizationError` pinpoints it; a worker that died
    outright (BrokenProcessPool) cannot say which test killed it, so the
    whole shard is named.
    """
    if isinstance(exc, ShardLocalizationError):
        return exc.test_label
    return "unknown (worker died); shard tests: " + ", ".join(
        _test_label(index, test) for index, test in shard
    )
