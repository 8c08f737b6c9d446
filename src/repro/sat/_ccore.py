"""Feature-checked loader for the C-accelerated solver cores.

The solver's hot paths exist twice: as pure-Python loops (always available,
always tested) and as ``search.c`` compiled to a tiny shared library at
first use.  The library exports its entry points over the same flat
``array``-backed buffers:

* ``repro_propagate`` — two-watched-literal unit propagation (one call per
  search step from the pure-Python search loop);
* ``repro_search`` — the full CDCL search kernel: propagation, first-UIP
  conflict analysis with clause learning and local minimization,
  backjumping, VSIDS bump/decay/rescale, the activity order heap, phase
  saving, assumption decisions and Luby restarts, returning to Python only
  for rare control events;
* ``repro_cancel_trail`` — the trail-undo loop of backtracking, for
  backtracks the Python control plane performs;
* ``repro_check_clauses`` and ``repro_load_clauses`` — validation and bulk
  loading of flat int32 clause buffers (:mod:`repro.sat.flat`), at the
  root or into an open retractable layer;
* ``repro_unlink_dead`` — clause retraction in one sweep: marks clauses
  dead and unlinks their watchers from each affected watch list in one
  pass (layer pops and learnt-database reduction);
* ``repro_analyze_final`` — the trail walk that extracts an assumption
  core.

Each implements the same algorithm step for step as its Python fallback,
so every backend combination produces identical assignments, conflicts,
cores and statistics.  The CNF emission core (``encode.c``, gate emission
plus ``repro_enc_partition``, which lays the arena out as flat formula
buffers) is a separate tiny library built on demand through the same
cache; both emission backends produce bit-identical formulas.

One environment variable, ``REPRO_BACKEND``, selects the backend of every
layer (propagation, search, emission):

* ``auto`` (default) — use each compiled core when it can be built and
  loaded, and fall back to pure Python otherwise;
* ``python`` — force the pure-Python fallbacks (no compiler is invoked);
* ``c`` — require the compiled cores; a build or load failure raises.

Per-solver ``Solver(backend=..., search=...)`` arguments still pick a
layer's implementation explicitly; the differential suites use them to
compare the two backends inside one process.

The compiled artifact is cached under ``_build/`` next to this module
(override the location with ``REPRO_SAT_BUILD_DIR``; CI's compiler-less job
points it at an empty directory so a stale artifact cannot mask a missing
compiler), keyed by a hash of the C source, so rebuilding only happens when
the source changes.  When the package directory is not writable, the core is compiled
into a fresh private per-process temporary directory instead — cached
artifacts are never loaded from shared locations other users could write.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

_SOURCE = Path(__file__).resolve().parent / "search.c"
_ENCODE_SOURCE = Path(__file__).resolve().parent / "encode.c"

#: Why the C cores are unavailable (diagnostic; None when the library loaded).
unavailable_reason: Optional[str] = None

#: Why the C encode core is unavailable (diagnostic; None when it loaded).
encode_unavailable_reason: Optional[str] = None

_loaded: Optional[ctypes.CDLL] = None
_attempted = False

_encode_loaded: Optional[ctypes.CDLL] = None
_encode_attempted = False

_MODES = ("auto", "python", "c")


def backend_mode() -> str:
    """The requested backend mode (``REPRO_BACKEND``, default ``auto``)."""
    raw = os.environ.get("REPRO_BACKEND")
    if raw is None:
        return "auto"
    mode = raw.strip().lower()
    if mode not in _MODES:
        raise ValueError(f"REPRO_BACKEND={mode!r}: expected 'auto', 'python' or 'c'")
    return mode


_PINNED_PYTHON = "disabled by REPRO_BACKEND=python"


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


#: Sanitizers accepted in ``REPRO_SAT_SANITIZE`` (comma-separated) and the
#: cflags each one adds.  ``-fno-sanitize-recover=all`` turns any finding
#: into an abort, so a sanitizer CI job fails loudly instead of logging.
_SANITIZERS = {
    "asan": ("-fsanitize=address",),
    "ubsan": ("-fsanitize=undefined",),
}


def sanitize_flags() -> tuple[str, ...]:
    """Extra compile flags from ``REPRO_SAT_SANITIZE`` (empty = plain build).

    ``REPRO_SAT_SANITIZE=asan,ubsan`` builds the C cores under
    AddressSanitizer and UndefinedBehaviorSanitizer.  The flags participate
    in the build-cache key, so sanitized and plain artifacts occupy
    separate cache slots and never shadow each other.  Running under ASan
    typically also needs the sanitizer runtime preloaded into the host
    python (``LD_PRELOAD=$(cc -print-file-name=libasan.so)``) and, because
    CPython itself is not leak-clean, ``ASAN_OPTIONS=detect_leaks=0``.
    """
    raw = os.environ.get("REPRO_SAT_SANITIZE", "").strip().lower()
    if not raw:
        return ()
    flags: list[str] = []
    for name in raw.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in _SANITIZERS:
            raise ValueError(
                f"REPRO_SAT_SANITIZE={raw!r}: unknown sanitizer {name!r} "
                f"(expected a comma-separated subset of {sorted(_SANITIZERS)})"
            )
        flags.extend(_SANITIZERS[name])
    if flags:
        flags.extend(("-fno-sanitize-recover=all", "-g"))
    return tuple(flags)


def _build_dir() -> Optional[Path]:
    """The package-local cache directory, or ``None`` when not writable.

    Only the package-local directory is trusted for *reusing* a previously
    compiled artifact: a shared temp location could be pre-seeded by another
    local user with a malicious library of the expected name.  When the
    package is not writable the loader compiles into a fresh private
    per-process directory instead (no reuse).
    """
    override = os.environ.get("REPRO_SAT_BUILD_DIR")
    local = Path(override) if override else _SOURCE.parent / "_build"
    try:
        local.mkdir(parents=True, exist_ok=True)
        probe = local / ".writable"
        probe.touch()
        probe.unlink()
        return local
    except OSError:
        return None


def _compile_source(source_path: Path, prefix: str) -> Path:
    source = source_path.read_bytes()
    extra = sanitize_flags()
    # The sanitizer flags join the digest: a sanitized build lands in its
    # own cache slot and a later plain run never loads it by accident.
    digest = hashlib.sha256(source + b"\x00" + " ".join(extra).encode()).hexdigest()[:16]
    cache = _build_dir()
    out = None if cache is None else cache / f"_{prefix}_{digest}.so"
    if out is not None and out.exists():
        return out
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    command = [compiler, "-O2", "-shared", "-fPIC", *extra]
    if out is None:
        # Private per-process directory (0700 by mkdtemp): built fresh every
        # process, never loaded from a path another user could pre-create.
        private = Path(tempfile.mkdtemp(prefix="repro-sat-"))
        target = private / f"_{prefix}_{digest}.so"
        subprocess.run(
            [*command, "-o", str(target), str(source_path)],
            check=True,
            capture_output=True,
        )
        return target
    with tempfile.TemporaryDirectory(dir=str(out.parent)) as workdir:
        staging = Path(workdir) / out.name
        subprocess.run(
            [*command, "-o", str(staging), str(source_path)],
            check=True,
            capture_output=True,
        )
        # Atomic move so concurrent builders never load a half-written .so.
        os.replace(staging, out)
    return out


def _compile() -> Path:
    return _compile_source(_SOURCE, "search")


def load_core() -> Optional[ctypes.CDLL]:
    """Load (building if needed) the C solver library, or ``None``.

    ``REPRO_BACKEND=python`` never invokes a compiler; ``REPRO_BACKEND=c``
    turns a build or load failure into an error.
    """
    global _loaded, _attempted, unavailable_reason
    if _attempted:
        return _loaded
    _attempted = True
    mode = backend_mode()
    if mode == "python":
        unavailable_reason = _PINNED_PYTHON
        return None
    try:
        library = ctypes.CDLL(str(_compile()))
        propagate = library.repro_propagate
        propagate.restype = ctypes.c_long
        propagate.argtypes = [ctypes.c_void_p] * 7
        search = library.repro_search
        search.restype = ctypes.c_long
        search.argtypes = [ctypes.c_void_p] * 18
        cancel = library.repro_cancel_trail
        cancel.restype = None
        cancel.argtypes = [ctypes.c_void_p] * 8 + [ctypes.c_long]
        check = library.repro_check_clauses
        check.restype = ctypes.c_long
        check.argtypes = [
            ctypes.c_void_p,
            ctypes.c_long,
            ctypes.c_void_p,
            ctypes.c_long,
            ctypes.c_long,
        ]
        load = library.repro_load_clauses
        load.restype = ctypes.c_long
        load.argtypes = (
            [ctypes.c_void_p] * 8
            + [ctypes.c_long, ctypes.c_void_p] + [ctypes.c_long] * 3
            + [ctypes.c_void_p] * 2
            + [ctypes.c_long] * 2
            + [ctypes.c_void_p] * 2
        )
        unlink = library.repro_unlink_dead
        unlink.restype = ctypes.c_long
        unlink.argtypes = (
            [ctypes.c_void_p] * 4 + [ctypes.c_long] + [ctypes.c_void_p] * 2 + [ctypes.c_long]
        )
        final = library.repro_analyze_final
        final.restype = ctypes.c_long
        final.argtypes = (
            [ctypes.c_void_p] * 5 + [ctypes.c_long] * 3 + [ctypes.c_void_p]
        )
        _loaded = library
    except Exception as error:  # compiler missing, sandboxed tmpdir, ...
        unavailable_reason = f"{type(error).__name__}: {error}"
        if mode == "c":
            raise RuntimeError(
                f"REPRO_BACKEND=c but the C solver core failed to load: "
                f"{unavailable_reason}"
            ) from error
        _loaded = None
    return _loaded


def encode_library() -> Optional[ctypes.CDLL]:
    """Load (building if needed) the C emission core, or ``None``.

    Separate library from the solver cores, so a missing compiler degrades
    each layer independently.  Raises only under ``REPRO_BACKEND=c``.
    """
    global _encode_loaded, _encode_attempted, encode_unavailable_reason
    if _encode_attempted:
        return _encode_loaded
    _encode_attempted = True
    mode = backend_mode()
    if mode == "python":
        encode_unavailable_reason = _PINNED_PYTHON
        return None
    try:
        library = ctypes.CDLL(str(_compile_source(_ENCODE_SOURCE, "encode")))
        gate = library.repro_enc_gate
        gate.restype = ctypes.c_longlong
        gate.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_longlong] * 4
        add = library.repro_enc_add
        add.restype = None
        add.argtypes = [ctypes.c_void_p] * 8 + [ctypes.c_longlong] * 2
        mul = library.repro_enc_mul
        mul.restype = None
        mul.argtypes = [ctypes.c_void_p] * 8 + [ctypes.c_longlong]
        equals = library.repro_enc_equals
        equals.restype = ctypes.c_longlong
        equals.argtypes = [ctypes.c_void_p] * 8 + [ctypes.c_longlong]
        uless = library.repro_enc_uless
        uless.restype = ctypes.c_longlong
        uless.argtypes = [ctypes.c_void_p] * 7 + [ctypes.c_longlong]
        mux = library.repro_enc_mux
        mux.restype = None
        mux.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_longlong] + [ctypes.c_void_p] * 3 + [ctypes.c_longlong]
        select = library.repro_enc_select
        select.restype = None
        select.argtypes = [ctypes.c_void_p] * 7 + [ctypes.c_longlong, ctypes.c_void_p, ctypes.c_longlong]
        assert_equal = library.repro_enc_assert_equal
        assert_equal.restype = None
        assert_equal.argtypes = [ctypes.c_void_p] * 7 + [ctypes.c_longlong] * 2
        or_many = library.repro_enc_or_many
        or_many.restype = ctypes.c_longlong
        or_many.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_longlong]
        rehash = library.repro_enc_rehash
        rehash.restype = None
        rehash.argtypes = [
            ctypes.c_void_p,
            ctypes.c_longlong,
            ctypes.c_void_p,
            ctypes.c_longlong,
        ]
        partition = library.repro_enc_partition
        partition.restype = ctypes.c_longlong
        partition.argtypes = (
            [ctypes.c_void_p] * 3
            + [ctypes.c_longlong, ctypes.c_void_p, ctypes.c_longlong]
            + [ctypes.c_void_p] * 4
        )
        _encode_loaded = library
    except Exception as error:  # compiler missing, sandboxed tmpdir, ...
        encode_unavailable_reason = f"{type(error).__name__}: {error}"
        if mode == "c":
            raise RuntimeError(
                f"REPRO_BACKEND=c but the C encode core failed to load: "
                f"{encode_unavailable_reason}"
            ) from error
        _encode_loaded = None
    return _encode_loaded


def encode_unavailable() -> Optional[str]:
    """Why the C emission core cannot be used (``None`` when it can)."""
    encode_library()
    return encode_unavailable_reason


def encode_backend() -> str:
    """Which emission backend new compiles will use (``"c"`` or ``"python"``)."""
    return "c" if encode_library() is not None else "python"


def partition_function():
    """The raw ``repro_enc_partition`` entry point, or ``None``."""
    library = encode_library()
    return None if library is None else library.repro_enc_partition


def propagate_function():
    """The raw ``repro_propagate`` C function, or ``None``."""
    library = load_core()
    return None if library is None else library.repro_propagate


def search_function():
    """The raw ``repro_search`` C function, or ``None``."""
    library = load_core()
    return None if library is None else library.repro_search


def cancel_trail_function():
    """The raw ``repro_cancel_trail`` C function, or ``None``."""
    library = load_core()
    return None if library is None else library.repro_cancel_trail


def check_clauses_function():
    """The raw ``repro_check_clauses`` C function, or ``None``."""
    library = load_core()
    return None if library is None else library.repro_check_clauses


def load_clauses_function():
    """The raw ``repro_load_clauses`` C function, or ``None``."""
    library = load_core()
    return None if library is None else library.repro_load_clauses


def unlink_dead_function():
    """The raw ``repro_unlink_dead`` C function, or ``None``."""
    library = load_core()
    return None if library is None else library.repro_unlink_dead


def analyze_final_function():
    """The raw ``repro_analyze_final`` C function, or ``None``."""
    library = load_core()
    return None if library is None else library.repro_analyze_final


def core_unavailable_reason() -> Optional[str]:
    """Why the C solver cores cannot be used (``None`` when they can)."""
    load_core()
    return unavailable_reason


def backend() -> str:
    """Which solver backend new :class:`Solver` instances will use.

    Propagation and search come from one library, so this answers for
    both layers.
    """
    return "c" if load_core() is not None else "python"
