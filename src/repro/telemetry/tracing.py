"""Span-based tracing, JSON-lines sinks, and the flight recorder.

Tracing is the opt-in half of the telemetry layer.  A *session* is
activated by ``sweep --telemetry DIR`` (or ``run_sweep(telemetry=...)``)
and owns three things:

* a JSON-lines trace sink: one ``trace-<pid>.jsonl`` file per process,
  lazily (re)opened whenever the pid changes so fork- and spawn-started
  pool workers each append to their own file with no cross-process
  locking;
* a **flight recorder**: a bounded ring buffer of the most recent
  spans/events, dumped to ``flight-<pid>-<seq>.jsonl`` when an error
  cell is produced or a sweep dies, so the tail of the story survives
  the crash;
* the sampling switch for the per-round kernel timers
  (:class:`KernelSampler`).

When no session is active, ``trace_span`` returns a module-singleton
no-op context manager — a dict lookup and a return — so the disabled
path costs nothing measurable in the hot loops.

``TelemetryConfig`` is a small frozen dataclass and pickles cleanly, so
the engine threads it through the same ``functools.partial`` runners the
backends already ship to workers; each worker activates its own session
on first use.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .metrics import count

__all__ = [
    "KernelSampler",
    "TelemetryConfig",
    "activate",
    "configure",
    "current_config",
    "deactivate",
    "dump_flight",
    "record_event",
    "trace_span",
    "tracing_active",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable description of a tracing session.

    ``sample_every``: sample 1 of every N kernel phase calls for timing.
    ``flight_capacity``: ring-buffer depth of the flight recorder.
    """

    directory: str
    sample_every: int = 32
    flight_capacity: int = 256


class Span:
    """A single traced region.  ``set()`` attaches attributes that land
    in the emitted JSON event; it is a no-op on the disabled path."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "_start", "_wall")

    def __init__(self, name: str, span_id: str, parent_id: str | None, attrs: dict):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._start = 0.0
        self._wall = 0.0

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        session = _SESSION
        if session is not None:
            session.push(self)
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        session = _SESSION
        if session is None:
            return
        session.pop(self)
        event = {
            "event": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "ts": self._wall,
            "dur": duration,
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self.attrs:
            event["attrs"] = self.attrs
        session.emit(event)


class _NullSpan:
    """Singleton returned when tracing is off — every method is a no-op."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Session:
    """Live tracing state for one process (file handle, span stack,
    flight recorder).  Forked children inherit the object but reopen
    their own sink on first emit because the pid no longer matches."""

    def __init__(self, config: TelemetryConfig):
        self.config = config
        self.directory = Path(config.directory)
        self._pid = -1
        self._sink = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_seq = itertools.count(1)
        self._flight_seq = itertools.count(1)
        self.flight: deque = deque(maxlen=max(config.flight_capacity, 1))

    # -- span stack (per thread) ------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_span_id(self) -> str:
        return f"{os.getpid():x}-{next(self._span_seq)}"

    def current_span_id(self) -> str | None:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def push(self, span: Span) -> None:
        self._stack().append(span)
        self.flight.append(
            {"event": "span_start", "name": span.name, "id": span.span_id,
             "parent": span.parent_id, "ts": time.time()}
        )

    def pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unwound out of order (generator misuse)
            stack.remove(span)

    # -- sinks ------------------------------------------------------
    def _ensure_sink(self):
        pid = os.getpid()
        if self._sink is None or pid != self._pid:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._sink = open(self.directory / f"trace-{pid}.jsonl", "a")
            self._pid = pid
        return self._sink

    def emit(self, event: dict) -> None:
        line = json.dumps(event, default=str)
        with self._lock:
            self.flight.append(event)
            sink = self._ensure_sink()
            sink.write(line + "\n")
            sink.flush()

    def dump_flight(self, reason: str) -> Path:
        with self._lock:
            events = list(self.flight)
            seq = next(self._flight_seq)
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"flight-{os.getpid()}-{seq}.jsonl"
            with open(path, "w") as fh:
                fh.write(json.dumps(
                    {"event": "flight_dump", "reason": reason,
                     "ts": time.time(), "events": len(events)}) + "\n")
                for event in events:
                    fh.write(json.dumps(event, default=str) + "\n")
        count("telemetry.flight_dumps")
        return path

    def close(self) -> None:
        with self._lock:
            if self._sink is not None and self._pid == os.getpid():
                self._sink.close()
            self._sink = None
            self._pid = -1


_SESSION: _Session | None = None


def _unlock_after_fork() -> None:
    """A forked child starts with a free session lock: the thread that
    may have held it at the fork does not exist in the child."""
    if _SESSION is not None:
        _SESSION._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unlock_after_fork)


def configure(
    directory,
    sample_every: int = 32,
    flight_capacity: int = 256,
) -> TelemetryConfig:
    """Create and activate a tracing session; returns the picklable
    config to thread through worker runners."""
    config = TelemetryConfig(
        directory=str(directory),
        sample_every=sample_every,
        flight_capacity=flight_capacity,
    )
    activate(config)
    return config


def activate(config: TelemetryConfig) -> bool:
    """Activate a session for ``config``.  Returns True if this call
    created the session (the caller then owns deactivation); False if a
    matching session was already live (e.g. a forked worker inheriting
    the parent's, or repeat activation in one process)."""
    global _SESSION
    if _SESSION is not None and _SESSION.config == config:
        return False
    if _SESSION is not None:
        _SESSION.close()
    _SESSION = _Session(config)
    return True


def deactivate() -> None:
    global _SESSION
    if _SESSION is not None:
        _SESSION.close()
        _SESSION = None


def tracing_active() -> bool:
    return _SESSION is not None


def current_config() -> TelemetryConfig | None:
    return _SESSION.config if _SESSION is not None else None


def trace_span(name: str, **attrs):
    """Open a traced region.  With no active session this returns a
    shared no-op context manager — the documented cheap disabled path."""
    session = _SESSION
    if session is None:
        return _NULL_SPAN
    return Span(name, session.next_span_id(), session.current_span_id(), attrs)


def record_event(name: str, **attrs) -> None:
    """Emit a point event (no duration) into the trace + flight ring."""
    session = _SESSION
    if session is None:
        return
    event = {"event": name, "ts": time.time()}
    parent = session.current_span_id()
    if parent is not None:
        event["parent"] = parent
    if attrs:
        event["attrs"] = attrs
    session.emit(event)


def dump_flight(reason: str) -> Path | None:
    """Dump the flight-recorder ring to disk; no-op when tracing is off."""
    session = _SESSION
    if session is None:
        return None
    return session.dump_flight(reason)


class KernelSampler:
    """Samples 1-in-N kernel phase calls for wall-clock timing.

    The kernel's disabled path is ``self.telemetry is None`` — a slot
    read — so unsampled processes pay nothing.  ``drain()`` returns the
    accumulated flat metrics and resets, which is how per-cell deltas
    are produced: the engine drains after each cell and attaches the
    result to ``CellResult.metrics`` for the parent to merge.
    """

    __slots__ = ("every", "_calls", "_sampled", "_seconds")

    def __init__(self, every: int = 32):
        self.every = max(int(every), 1)
        self._calls: dict[str, int] = {}
        self._sampled: dict[str, int] = {}
        self._seconds: dict[str, float] = {}

    def tick(self, path: str) -> bool:
        calls = self._calls.get(path, 0) + 1
        self._calls[path] = calls
        return calls % self.every == 1 or self.every == 1

    def record(self, path: str, seconds: float) -> None:
        self._sampled[path] = self._sampled.get(path, 0) + 1
        self._seconds[path] = self._seconds.get(path, 0.0) + seconds

    def drain(self) -> tuple[tuple[str, float], ...]:
        out = []
        for path in sorted(self._calls):
            out.append((f"kernel.{path}.calls", float(self._calls[path])))
            if path in self._sampled:
                out.append((f"kernel.{path}.sampled", float(self._sampled[path])))
                out.append((f"kernel.{path}.seconds", self._seconds[path]))
        self._calls.clear()
        self._sampled.clear()
        self._seconds.clear()
        return tuple(out)
