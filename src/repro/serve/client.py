"""Blocking client for the localization daemon.

One :class:`Client` holds one connection (TCP or unix socket) and issues
request/response frames over it.  The surface mirrors the daemon ops::

    from repro.serve import Client

    with Client(tcp=("127.0.0.1", 7711)) as client:
        compiled = client.compile(source, name="tcas-v1",
                                  options={"hard_functions": ["alt_sep_test"]})
        reply = client.localize(artifact=compiled["artifact"],
                                test=[3, 3, 7],
                                spec={"kind": "return-value", "expected": [-1]})
        for candidate in reply["report"]["candidates"]:
            print(candidate["lines"], candidate["description"])

Specifications may be passed as wire dicts (shown above) or as
:class:`~repro.spec.Specification` values; tests as int lists or
name→value mappings.  Failures come back as :class:`ServeError` carrying
the daemon's error string.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.serve import protocol
from repro.spec import Specification


class ServeError(RuntimeError):
    """The daemon answered ``ok: false`` (or the connection broke)."""


def _spec_wire(spec: Specification | Mapping[str, Any]) -> dict:
    if isinstance(spec, Specification):
        return protocol.spec_to_wire(spec)
    return dict(spec)


def _test_wire(test: Sequence[int] | Mapping[str, int]) -> Any:
    if isinstance(test, Mapping):
        return {str(name): int(value) for name, value in test.items()}
    return [int(value) for value in test]


class Client:
    """One blocking connection to a localization daemon."""

    def __init__(
        self,
        tcp: Optional[tuple[str, int]] = None,
        unix_path: Optional[Path | str] = None,
        timeout: float = 1000.0,
    ) -> None:
        # The default timeout deliberately exceeds the pool's shard_timeout
        # (900s): a legitimately slow localization the daemon still
        # considers healthy must not be cut off client-side first.
        if (tcp is None) == (unix_path is None):
            raise ValueError("pass exactly one of tcp=(host, port) or unix_path=...")
        self._tcp = tcp
        self._unix_path = Path(unix_path) if unix_path is not None else None
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None

    # -------------------------------------------------------------- lifecycle

    def connect(self) -> "Client":
        if self._sock is not None:
            return self
        if self._tcp is not None:
            sock = socket.create_connection(self._tcp, timeout=self._timeout)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(str(self._unix_path))
        self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "Client":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def wait_until_ready(self, timeout: float = 30.0, interval: float = 0.05) -> "Client":
        """Poll until the daemon answers a ``stats`` request (startup gate)."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                self.connect()
                self.stats()
                return self
            except (OSError, ServeError, protocol.ProtocolError) as exc:
                last_error = exc
                self.close()
                time.sleep(interval)
        raise ServeError(f"daemon not ready within {timeout}s: {last_error}")

    # --------------------------------------------------------------- plumbing

    def request(self, payload: Mapping[str, Any]) -> dict:
        """Send one frame, read one response, raise on ``ok: false``."""
        self.connect()
        try:
            protocol.send_frame(self._sock, payload)
            response = protocol.recv_frame(self._sock)
        except (OSError, protocol.ProtocolError) as exc:
            self.close()
            raise ServeError(f"connection to daemon failed: {exc}") from exc
        if response is None:
            self.close()
            raise ServeError("daemon closed the connection")
        if not response.get("ok", False):
            raise ServeError(response.get("error", "daemon reported an error"))
        return response

    # -------------------------------------------------------------------- ops

    def compile(
        self,
        program: str,
        name: Optional[str] = None,
        options: Optional[Mapping[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        merged = dict(options or {})
        if name is not None:
            merged["name"] = name
        payload: dict[str, Any] = {
            "op": "compile",
            "program": program,
            "options": merged,
        }
        if trace_id is not None:
            payload[protocol.TRACE_FIELD] = trace_id
        return self.request(payload)

    def localize(
        self,
        test: Sequence[int] | Mapping[str, int],
        spec: Specification | Mapping[str, Any],
        program: Optional[str] = None,
        artifact: Optional[str] = None,
        nondet: Sequence[int] = (),
        options: Optional[Mapping[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        if (program is None) == (artifact is None):
            raise ValueError("pass exactly one of program= or artifact=")
        payload: dict[str, Any] = {
            "op": "localize",
            "test": _test_wire(test),
            "spec": _spec_wire(spec),
        }
        if nondet:
            payload["nondet"] = [int(v) for v in nondet]
        if program is not None:
            payload["program"] = program
        else:
            payload["artifact"] = artifact
        if options:
            payload["options"] = dict(options)
        if trace_id is not None:
            payload[protocol.TRACE_FIELD] = trace_id
        return self.request(payload)

    def localize_batch(
        self,
        requests: Sequence[Mapping[str, Any]],
        trace_id: Optional[str] = None,
    ) -> dict:
        """Run a batch; each entry mirrors :meth:`localize` but with ``tests``.

        Entry shape: ``{"program": src | "artifact": key, "options": {...},
        "tests": [{"inputs": [...], "spec": {...}, "nondet": [...]}, ...]}``.
        ``spec`` values may be :class:`~repro.spec.Specification` objects.
        """
        wire_entries = []
        for entry in requests:
            wire_entry = dict(entry)
            wire_entry["tests"] = [
                {
                    "inputs": _test_wire(test["inputs"]),
                    "spec": _spec_wire(test["spec"]),
                    "nondet": [int(v) for v in test.get("nondet", ())],
                }
                for test in entry["tests"]
            ]
            wire_entries.append(wire_entry)
        payload: dict[str, Any] = {"op": "localize_batch", "requests": wire_entries}
        if trace_id is not None:
            payload[protocol.TRACE_FIELD] = trace_id
        return self.request(payload)

    def stats(self) -> dict:
        """Cumulative counters plus the windowed deltas since the last poll."""
        return self.request({"op": "stats"})

    def metrics(self) -> dict:
        """The daemon's metrics registry: Prometheus text plus a flat snapshot."""
        return self.request({"op": "metrics"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})
