"""Sweep service layer: resume journals and the ``sweep serve`` daemon.

Two pieces turn the sweep engine from a batch tool into a service:

:class:`SweepJournal` makes long sweeps *interruptible*.  It is an
append-only record of completed cells under a manifest that pins the
grid (by :func:`~repro.sweep.backends.grid_fingerprint`), trace detail
and probe.  :func:`~repro.sweep.engine.run_sweep` records every result
the moment it lands -- at the streaming granularity of the backend, so
a pool batch that finished before a crash is never recomputed -- and
on the next invocation replays the journal, executing only the cells
still missing.  The resumed aggregate is bit-identical to an
uninterrupted run: cells are pure functions of their spec and the
engine sorts by key, so *where* a result came from cannot matter.

:class:`SweepServer` is the long-lived serving tier: a stdlib-only
(``http.server``) JSON daemon in front of a shared
:class:`~repro.sweep.cache.CellStore`.  Grid requests whose cells are
all cached are answered entirely from the store -- the engine's hit
filter leaves nothing to execute, so no worker pool is ever touched
(the response's ``tier`` field proves it) -- while cold cells are
scheduled through the cross-run engine (the zero-copy shared-memory
stealing pool of :class:`~repro.sweep.backends.MultiprocessingBackend`
where more than one worker and CPU exist) and written through, warming
the cache for every later client.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING

from ..telemetry import TelemetryConfig, activate, get_registry
from .backends import MultiprocessingBackend, grid_fingerprint
from .cache import (
    SWEEP_SCHEMA_VERSION,
    CellStore,
    result_from_dict,
    result_to_dict,
)
from .grid import GridSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from collections.abc import Sequence

    from .engine import CellResult

__all__ = [
    "SweepJournal",
    "SweepServer",
    "grid_from_payload",
    "request_json",
    "submit_sweep",
]

_MANIFEST = "manifest.json"
_RESULTS = "results.jsonl"


class SweepJournal:
    """Append-only progress record making one sweep resumable.

    A journal directory holds ``manifest.json`` -- the identity of the
    sweep it records (grid fingerprint and size, trace detail, probe,
    schema version) -- and ``results.jsonl``, one completed cell per
    line, appended and flushed as each result lands.  Opening the
    journal against a grid validates the manifest field by field, so a
    directory left over from a *different* sweep can never silently
    contribute results; a missing manifest starts a fresh journal.

    Replay is deliberately forgiving about the tail: a line truncated
    by the crash that interrupted the sweep is cut off before appending
    resumes (that cell simply re-runs), but a *well-formed* result for
    a cell outside the manifest's grid is an error -- that is not crash
    damage, it is the wrong journal.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._completed: dict[tuple, "CellResult"] = {}
        self._handle = None

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST

    @property
    def results_path(self) -> Path:
        return self.root / _RESULTS

    @property
    def completed_count(self) -> int:
        """Cells recorded so far (replayed and fresh)."""
        return len(self._completed)

    def open(
        self,
        cells: "Sequence",
        trace_detail: str,
        probe: str | None,
    ) -> dict[tuple, "CellResult"]:
        """Bind the journal to a sweep; returns the replayed results.

        Creates the directory and manifest on first open, validates the
        manifest against the given sweep otherwise, then replays every
        readable line of the results file.  The returned mapping (cell
        key to result) is what the engine skips re-executing.
        """
        expected = {
            "schema": SWEEP_SCHEMA_VERSION,
            "grid": grid_fingerprint(cells),
            "grid_size": len(cells),
            "trace_detail": trace_detail,
            "probe": probe,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            for field, value in expected.items():
                if manifest.get(field) != value:
                    raise ValueError(
                        f"journal at {self.root} records a sweep with "
                        f"{field}={manifest.get(field)!r}, but this sweep "
                        f"has {field}={value!r}; resume the matching sweep "
                        "or use a fresh journal directory"
                    )
        else:
            tmp = self.manifest_path.with_name(
                f"{_MANIFEST}.tmp.{os.getpid()}"
            )
            tmp.write_text(json.dumps(expected, sort_keys=True), encoding="utf-8")
            os.replace(tmp, self.manifest_path)

        grid_keys = {cell.key for cell in cells}
        self._completed = {}
        if self.results_path.exists():
            data = self.results_path.read_bytes()
            complete = data[: data.rfind(b"\n") + 1]
            if len(complete) < len(data):
                # A kill mid-append left a fragment with no line end:
                # cut it off, or the next record would be glued onto it
                # and be unreadable too.  Its cell re-runs.
                with open(self.results_path, "r+b") as handle:
                    handle.truncate(len(complete))
            for line in complete.decode("utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    result = result_from_dict(json.loads(line))
                except (ValueError, KeyError, TypeError):
                    # A corrupt line: the cell re-runs, bit-identically.
                    continue
                if result.key not in grid_keys:
                    raise ValueError(
                        f"journal at {self.root} holds a well-formed result "
                        f"for {result.spec.describe()}, which is not a cell "
                        "of this grid -- wrong journal directory?"
                    )
                self._completed[result.key] = result
        self._handle = open(self.results_path, "a", encoding="utf-8")
        return dict(self._completed)

    def record(self, result: "CellResult") -> bool:
        """Append one finished cell (idempotent); True when written."""
        if self._handle is None:
            raise ValueError(
                "journal is not open; call open(cells, trace_detail, probe) "
                "first (run_sweep does this when passed the journal)"
            )
        if result.key in self._completed:
            return False
        payload = result_to_dict(result)
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        # Flushed per result: a journal that loses the cells finished
        # just before the crash would defeat its purpose.
        self._handle.flush()
        self._completed[result.key] = result
        return True

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: GridSpec axis fields a ``/sweep`` request payload may set.
_GRID_FIELDS = (
    "models",
    "fs",
    "ns",
    "algorithms",
    "movements",
    "attacks",
    "epsilons",
    "seeds",
    "rounds",
    "max_rounds",
    "families",
    "topologies",
)


def grid_from_payload(payload: dict) -> GridSpec:
    """Build a :class:`GridSpec` from a JSON request payload.

    Field names match :class:`GridSpec` axes; scalars and lists are
    both accepted (JSON lists arrive as sequences, which the grid
    normalizes), and an integer ``seeds`` means the seed *count*
    ``0..K-1``, mirroring :func:`repro.api.sweep_grid`.  Unknown fields
    are rejected by name -- a typoed axis must not silently sweep the
    default.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"grid payload must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_GRID_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown grid field(s) {', '.join(unknown)}; "
            f"known: {', '.join(_GRID_FIELDS)}"
        )
    kwargs = dict(payload)
    if isinstance(kwargs.get("seeds"), int):
        kwargs["seeds"] = tuple(range(kwargs["seeds"]))
    return GridSpec(**kwargs)


class _SweepRequestHandler(BaseHTTPRequestHandler):
    """JSON request handler; all sweep logic lives on the server."""

    server: "SweepServer"

    # The daemon's stderr chatter is opt-in (tests and CI keep it off).
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._respond(200, self.server.health())
        elif self.path == "/metrics":
            self._respond(200, get_registry().snapshot())
        elif self.path == "/stats":
            self._respond(200, self.server.stats())
        else:
            self._respond(404, {"error": f"unknown endpoint {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/shutdown":
            self._respond(200, {"ok": True})
            # shutdown() blocks until serve_forever exits; hand it to a
            # helper thread so this handler can finish its response.
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        if self.path != "/sweep":
            self._respond(404, {"error": f"unknown endpoint {self.path}"})
            return
        length = int(self.headers.get("Content-Length") or 0)
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
            response = self.server.handle_sweep(payload)
        except (ValueError, TypeError, KeyError) as exc:
            message = (
                exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            )
            self._respond(400, {"error": str(message)})
            return
        self._respond(200, response)


class SweepServer(ThreadingHTTPServer):
    """The ``sweep serve`` daemon: warm-cache serving tier over HTTP.

    Endpoints (all JSON):

    * ``GET /healthz`` -- liveness, schema version, cache root, uptime,
      request counts (total and per serving tier), worker count, and
      accumulated shared-memory arena stats -- everything the CI
      ``sweep-service`` job asserts on.
    * ``GET /metrics`` -- the process metrics registry snapshot
      (counters, gauges, fixed-edge histograms), including the
      worker-side counters each sweep merged back through its result
      channel.
    * ``GET /stats`` -- service-oriented view: uptime, per-tier request
      counts, arena totals, plus the metrics snapshot.
    * ``POST /sweep`` -- ``{"grid": {axes...}, "trace_detail"?,
      "probe"?}``; runs the grid through the cross-run engine (the
      shared-memory stealing pool where workers and CPUs allow)
      against the shared cache and answers with aggregate counts,
      summary rows and the serving ``tier``: ``"cache"`` (every cell
      answered from the store -- nothing executed, no pool touched),
      ``"compute"`` (all cold) or ``"mixed"``.
    * ``POST /shutdown`` -- clean stop of ``serve_forever``.

    Each request runs against its *own* :class:`CellStore` instance on
    the shared root, so the per-request hit/miss counters -- the
    evidence behind ``tier`` -- are isolated even under the threaded
    server's concurrent requests; the content-addressed store itself is
    safely shared (atomic per-entry writes).

    ``telemetry_dir`` activates a tracing session for the daemon's
    lifetime (``sweep serve --telemetry DIR``): every hosted sweep
    traces into it, and ``/metrics`` then carries the sampled kernel
    counters merged back from pool workers.
    """

    daemon_threads = True

    def __init__(
        self,
        cache_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        quiet: bool = True,
        telemetry_dir: str | Path | None = None,
    ) -> None:
        super().__init__((host, port), _SweepRequestHandler)
        self.cache_root = Path(cache_dir)
        self.workers = workers
        self.quiet = quiet
        self.requests_served = 0
        self.started = time.time()
        self.tier_counts = {"cache": 0, "compute": 0, "mixed": 0}
        #: Accumulated :class:`~repro.sweep.backends.ArenaStats` fields
        #: over every pooled shm dispatch this daemon has hosted.
        self.arena_totals = {
            "shm_results": 0,
            "pickle_results": 0,
            "shm_bytes": 0,
            "blocks": 0,
            "unlinked": 0,
        }
        self._stats_lock = threading.Lock()
        if telemetry_dir is not None:
            activate(TelemetryConfig(directory=str(telemetry_dir)))

    @property
    def address(self) -> str:
        """The base URL clients should talk to."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def health(self) -> dict:
        with self._stats_lock:
            return {
                "ok": True,
                "schema": SWEEP_SCHEMA_VERSION,
                "cache": str(self.cache_root),
                "requests": self.requests_served,
                "tiers": dict(self.tier_counts),
                "uptime_seconds": time.time() - self.started,
                "arena": dict(self.arena_totals),
                "workers": self.workers,
            }

    def stats(self) -> dict:
        """The ``/stats`` payload: service view plus metrics snapshot."""
        payload = self.health()
        payload["metrics"] = get_registry().snapshot()
        return payload

    def handle_sweep(self, payload: dict) -> dict:
        """Run one grid request; the response carries its serving tier."""
        from .engine import run_sweep

        if not isinstance(payload, dict):
            raise ValueError(
                f"request body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        grid = grid_from_payload(payload.get("grid") or {})
        trace_detail = payload.get("trace_detail", "lite")
        probe = payload.get("probe")
        store = CellStore(self.cache_root)
        # An explicit backend instance (rather than run_sweep's auto
        # resolution) keeps the arena stats of the dispatch readable
        # for the /healthz accumulators; its fallback ladder still
        # drops to in-process serial cross-run at 1 worker/CPU.
        backend = MultiprocessingBackend(max(self.workers, 1))
        start = time.perf_counter()
        result = run_sweep(
            grid,
            workers=self.workers,
            trace_detail=trace_detail,
            backend=backend,
            cache=store,
            probe=probe,
            cross_run=True,
        )
        elapsed = time.perf_counter() - start
        stats = result.cache_stats
        if stats.misses == 0:
            tier = "cache"
        elif stats.hits == 0:
            tier = "compute"
        else:
            tier = "mixed"
        with self._stats_lock:
            self.requests_served += 1
            self.tier_counts[tier] += 1
            arena = backend.last_arena_stats
            if arena is not None:
                self.arena_totals["shm_results"] += arena.shm_results
                self.arena_totals["pickle_results"] += arena.pickle_results
                self.arena_totals["shm_bytes"] += arena.shm_bytes
                self.arena_totals["blocks"] += arena.blocks
                self.arena_totals["unlinked"] += arena.unlinked
        return {
            "cells": len(result),
            "satisfied": result.satisfied_count(),
            "errors": len(result.errors()),
            "all_satisfied": result.all_satisfied,
            "tier": tier,
            "cached": stats.hits,
            "computed": stats.misses,
            "dispatch": result.dispatch,
            "elapsed_seconds": elapsed,
            "summary": [
                [str(value) for value in row] for row in result.summary_rows()
            ],
        }

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def request_json(
    url: str, payload: dict | None = None, timeout: float = 300.0
) -> dict:
    """One JSON round-trip: GET without a payload, POST with one.

    Error responses whose bodies carry the server's ``{"error": ...}``
    envelope are re-raised as :class:`RuntimeError` with that message,
    so callers see the actual validation failure, not just an HTTP 400.
    """
    data = (
        None
        if payload is None
        else json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"},
        method="GET" if data is None else "POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            message = json.loads(exc.read().decode("utf-8")).get("error")
        except (ValueError, OSError):
            message = None
        raise RuntimeError(
            f"sweep server rejected {url}: {message or exc}"
        ) from None


def submit_sweep(
    base_url: str,
    grid: dict,
    trace_detail: str = "lite",
    probe: str | None = None,
    timeout: float = 600.0,
) -> dict:
    """Submit one grid to a running :class:`SweepServer`."""
    payload: dict = {"grid": grid, "trace_detail": trace_detail}
    if probe is not None:
        payload["probe"] = probe
    return request_json(f"{base_url}/sweep", payload, timeout=timeout)
