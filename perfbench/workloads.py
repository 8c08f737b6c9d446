"""Workload and metric definitions of the benchmark.

Each workload says why it exists, which layers it exercises and which it
bypasses (there the prediction for any change is "no change", and the
per-layer value reads 0), and which known defects of the program it must
keep showing.  No workload may be resized or re-seeded so that a listed
defect stops showing.

The seed picks the TCAS test pool of ``tcas_service``.  The other two
workloads run the paper's fixed failing tests, so for them the seed changes
nothing but the run's identity.

Which end-to-end metric each layer's metrics should move, and where:

==============  ===========================================================
layer           moves
==============  ===========================================================
lang            cold_version_p50_ms on tcas_service
encoding, bmc   wall_s (bmc artifact: also peak_rss_mb) on wholeprog_artifact;
                cold_version_p50_ms on tcas_service
maxsat          wall_s on wholeprog_artifact (engine load) and table3_trace
                (CoMSS); request_p50_ms on tcas_service
sat             wall_s on table3_trace; request_p50_ms on tcas_service
concolic,       wall_s on table3_trace
reduction
store           cold_version_p50_ms, requests_per_s on tcas_service
result_cache,   request_p50_ms on tcas_service (pool also: failed requests)
pool, session,
serve
==============  ===========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``(name, unit)`` of the end-to-end metrics every workload reports
#: untraced.  A request is one localization answered to a user.  On
#: tcas_service the percentiles pool every request of the run.  table3_trace
#: and wholeprog_artifact run the same few programs in every pass, with
#: latencies 30x apart: there a program's latency is its median over the
#: passes, the percentiles are over programs and ``wall_s`` is their sum.
END_TO_END = (
    # Median of several set-ups in the run: interpreter start, imports,
    # C-core build/load, test-pool classification, daemon start.
    ("setup_s", "s"),
    # One pass (TCAS: one whole stream, median over the run's streams).
    ("wall_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    # First request of each program version (the one that pays its compile).
    # table3_trace and wholeprog_artifact run every request in a fresh
    # process on a program it has not seen, so there every request is cold.
    ("cold_version_p50_ms", "ms"),
    # Largest single process: the daemon or one of its workers for
    # tcas_service, one request process otherwise.
    ("peak_rss_mb", "MB"),
)

#: Printed with the end-to-end metrics but not bounded in BENCHMARK.json:
#: both read 0 on a healthy run of some workload (failed_share everywhere,
#: fault_detected_share on table3_trace), so a share-of-median bound is
#: undefined for them.  ``failed`` and ``attempted`` also go into the
#: result line; fault_detected_share is also per-layer ``core.fault_detected_share``.
UNBOUNDED_END_TO_END = (
    ("fault_detected_share", "ratio"),
    ("failed_share", "ratio"),
)

#: ``(name, unit)`` of the per-layer metrics of a traced run.  Sums are per
#: pass (median over passes); ``_ms`` latencies are per-call medians.
PER_LAYER = (
    ("lang.parse_ms", "ms"),  # parse + type check, per program version
    ("encoding.analysis_s", "s"),  # encode_profile() phases of cold compiles
    ("encoding.gates_s", "s"),
    ("encoding.materialize_s", "s"),
    ("bmc.compile_s", "s"),  # BoundedModelChecker.compile_program, cold
    ("bmc.clauses", "count"),
    ("bmc.artifact_dump_s", "s"),
    ("bmc.artifact_load_s", "s"),
    ("bmc.artifact_mb", "MB"),
    # First localize on a session minus a second identical call.
    ("maxsat.engine_load_s", "s"),
    # CoMSS searches that load no whole-program engine: localize_trace on
    # table3_trace (it loads its small trace formula itself), the second
    # identical call on wholeprog_artifact, warm session calls on TCAS.
    ("maxsat.comss_s", "s"),
    ("maxsat.calls", "count"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("concolic.trace_s", "s"),
    ("concolic.clauses_after", "count"),
    ("reduction.delta_s", "s"),
    ("reduction.slice_s", "s"),
    ("reduction.clause_ratio", "ratio"),  # reduced / full trace clauses
    ("store.get_or_compile_ms", "ms"),  # in-process replay of the versions
    ("store.compiles", "count"),  # daemon stats deltas around the stream
    ("store.warm_compiles", "count"),
    ("store.evictions", "count"),
    ("store.disk_hits", "count"),
    ("result_cache.hit_share", "ratio"),
    ("pool.artifact_resends", "count"),
    ("pool.shard_retries", "count"),
    ("session.localize_ms", "ms"),
    # Client p50 minus in-process session p50 over the same warm requests.
    ("serve.overhead_ms", "ms"),
    ("core.fault_detected_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    module: str
    #: Layers (or single metrics) that read 0 here: the workload bypasses them.
    bypasses: tuple[str, ...]
    #: Defects of the program that this workload must keep showing.
    known_defects: tuple[str, ...] = ()
    #: Whether the seed changes the inputs (it keys the digest ledger).
    seeded: bool = False
    #: Nominal length of one pass on the machine the benchmark was tuned on.
    #: ``--seconds`` buys ``round(seconds / pass_seconds)`` passes (at least
    #: one), so every commit does the same work per run however fast it is.
    pass_seconds: float = 5.0

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))

    def bypassed(self, metric: str) -> bool:
        return any(metric == b or metric.startswith(b + ".") for b in self.bypasses)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="tcas_service",
            why=(
                "Only workload through repro.serve (store, splice, spill, result "
                "cache, worker pool): 39 TCAS versions, more than the 16-entry "
                "memory tier, 2 closed-loop connections"
            ),
            module="tcas_service",
            pass_seconds=20.0,
            bypasses=("concolic", "reduction"),
            known_defects=(
                "Store-ancestor thrash past 16 artifacts: the nearest-ancestor "
                "search reloads spilled artifacts, so first-request latency "
                "climbs from about 0.1s (versions 1-17) to 0.3-0.9s (18-39) "
                "while a cold compile stays 30-60ms; see the per-request "
                "records of the result file.",
            ),
            seeded=True,
        ),
        Workload(
            name="table3_trace",
            why=(
                "Trace-mode Table 3 (tot_info, print_tokens, schedule, schedule2): "
                "the CoMSS/SAT search does most of the work; the only workload for "
                "concolic tracing and trace reduction"
            ),
            module="table3_trace",
            bypasses=(
                "encoding", "bmc", "store", "result_cache", "pool", "session", "serve",
                # localize_trace loads its own engine; the load is not separable.
                "maxsat.engine_load_s",
            ),
            known_defects=(
                "0/4 seeded faults detected by trace-mode localization at "
                "max_candidates=8 (core.fault_detected_share reads 0).",
            ),
        ),
        Workload(
            name="wholeprog_artifact",
            why=(
                "Whole-program compile, artifact dump/load and solver clause load "
                "of 0.4M-0.6M-clause formulas (print_tokens, schedule; schedule2 "
                "the small control); little CoMSS work"
            ),
            module="wholeprog_artifact",
            pass_seconds=25.0,
            bypasses=("concolic", "reduction", "store", "result_cache", "pool", "serve"),
            known_defects=(
                "0/3 seeded faults in the single top candidate (max_candidates=1) "
                "of whole-program localization (core.fault_detected_share reads 0).",
            ),
        ),
    )
}


@dataclass(frozen=True)
class Size:
    """How much one pass of each workload does.  ``tiny`` is the smoke size."""

    tcas_versions: int
    tcas_tests_per_version: int
    table3_programs: tuple[str, ...]
    wholeprog_programs: tuple[str, ...]


SIZES = {
    "full": Size(
        tcas_versions=39,
        tcas_tests_per_version=4,
        table3_programs=("tot_info", "print_tokens", "schedule", "schedule2"),
        wholeprog_programs=("print_tokens", "schedule", "schedule2"),
    ),
    "tiny": Size(
        tcas_versions=3,
        tcas_tests_per_version=2,
        table3_programs=("schedule2",),
        wholeprog_programs=("schedule2",),
    ),
}

#: TCAS stream shape: test pool size (the Siemens pool's), share of repeat
#: requests, CoMSSes per request, daemon workers and client connections.
TCAS_POOL = 1600
TCAS_REPEAT_SHARE = 0.2
TCAS_MAX_CANDIDATES = 3
TCAS_WORKERS = 2
TCAS_CONNECTIONS = 2
#: The daemon's default in-memory artifact tier, replayed in-process too.
TCAS_MEMORY_ARTIFACTS = 16

TABLE3_MAX_CANDIDATES = 8
WHOLEPROG_MAX_CANDIDATES = 1

#: Set-up samples per run for workloads whose measured pass has one set-up.
SETUP_SAMPLES = 3
