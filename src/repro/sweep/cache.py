"""Content-addressed cell cache: memoize sweep cells on disk.

PR 1's determinism contract makes every cell's result a pure function
of ``(CellSpec, trace_detail, probe)`` under a fixed code schema.  The
:class:`CellStore` exploits that: results are stored one-file-per-cell
under a key that is the SHA-256 of the canonical JSON encoding of
exactly those inputs plus :data:`SWEEP_SCHEMA_VERSION`.  Any backend
consults the store before executing a cell and writes through after,
which makes overlapping grids near-free to re-run and interrupted
sweeps resumable -- and is where the shards of a grid swept across
hosts meet: a shard writes its cells through, and whichever shard
finds the whole grid cached serves it warm.

Layout::

    <root>/v<SWEEP_SCHEMA_VERSION>/<first two key hex chars>/<key>.json

Bump :data:`SWEEP_SCHEMA_VERSION` whenever the serialized layout *or*
the simulation semantics change: old entries then simply miss (they
live under the old version directory) instead of poisoning new runs.

Robustness contract: a corrupted, truncated or foreign cache entry is
*never* trusted -- :meth:`CellStore.load` re-decodes the stored spec
and compares it field-by-field against the requested one, and treats
any decoding failure as a miss, so the worst a bad entry can cause is
a re-execution.

Floats survive the JSON round-trip bit-exactly (Python encodes them
via ``repr``, the shortest representation that round-trips), so cached
results compare equal to freshly computed ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..runtime.families import DEFAULT_FAMILY
from ..topology import DEFAULT_TOPOLOGY

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from .engine import CellResult
    from .grid import CellSpec

__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "CacheGCReport",
    "CacheStats",
    "CellStore",
    "result_to_dict",
    "result_from_dict",
    "spec_to_dict",
    "spec_from_dict",
]

#: Bumped whenever the serialized cell layout or simulation semantics
#: change incompatibly; doubles as the cache directory version.
SWEEP_SCHEMA_VERSION = 1

#: How old a ``.tmp.*`` file must be before :meth:`CellStore.gc` treats
#: it as wreckage of an interrupted write rather than an in-flight one.
_TMP_GRACE_SECONDS = 600.0


@dataclass(frozen=True)
class CacheGCReport:
    """Outcome of one :meth:`CellStore.gc` pass."""

    scanned: int
    kept: int
    removed: int
    freed_bytes: int
    dry_run: bool

    def describe(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"cache-gc: scanned {self.scanned} entries, kept {self.kept}, "
            f"{verb} {self.removed} ({self.freed_bytes / 1024:.1f} KiB)"
        )


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of one :class:`CellStore`'s traffic counters.

    Surfaced on :class:`~repro.sweep.aggregate.SweepResult` (compare-
    excluded, like ``dispatch``: traffic is a property of the executing
    invocation, not of the result) and printed in the CLI sweep
    summary.  Counters reflect the snapshotting instance's own lookups
    -- the parent process's view of a sweep; worker-process write-
    throughs are not folded back in.
    """

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def describe(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.bytes_read / 1024:.1f} KiB read, "
            f"{self.bytes_written / 1024:.1f} KiB written"
        )


def _freeze(value: Any) -> Any:
    """Recursively convert JSON lists back into the tuples cells use."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def spec_to_dict(spec: "CellSpec") -> dict[str, Any]:
    """Encode a cell spec as JSON-compatible primitives.

    ``family`` and ``topology`` are emitted only off their defaults:
    pre-family (and pre-topology) cells keep their exact canonical
    encoding, so content hashes -- and therefore every
    already-populated cache entry -- stay valid.
    """
    payload = {
        "model": spec.model,
        "f": spec.f,
        "n": spec.n,
        "algorithm": spec.algorithm,
        "movement": spec.movement,
        "attack": spec.attack,
        "epsilon": spec.epsilon,
        "seed": spec.seed,
        "rounds": spec.rounds,
        "max_rounds": spec.max_rounds,
        "scenario": spec.scenario,
        "params": [[name, value] for name, value in spec.params],
    }
    if spec.family != DEFAULT_FAMILY:
        payload["family"] = spec.family
    if spec.topology != DEFAULT_TOPOLOGY:
        payload["topology"] = spec.topology
    return payload


def spec_from_dict(payload: dict[str, Any]) -> "CellSpec":
    """Rebuild a cell spec from :func:`spec_to_dict` output."""
    from .grid import CellSpec

    return CellSpec(
        model=payload["model"],
        f=payload["f"],
        n=payload["n"],
        algorithm=payload["algorithm"],
        movement=payload["movement"],
        attack=payload["attack"],
        epsilon=payload["epsilon"],
        seed=payload["seed"],
        rounds=payload["rounds"],
        max_rounds=payload["max_rounds"],
        scenario=payload["scenario"],
        params=tuple((name, _freeze(value)) for name, value in payload["params"]),
        family=payload.get("family", DEFAULT_FAMILY),
        topology=payload.get("topology", DEFAULT_TOPOLOGY),
    )


def result_to_dict(result: "CellResult") -> dict[str, Any]:
    """Encode a cell result as JSON-compatible primitives."""
    return {
        "spec": spec_to_dict(result.spec),
        "decisions": [[pid, value] for pid, value in result.decisions],
        "rounds": result.rounds,
        "terminated": result.terminated,
        "decision_diameter": result.decision_diameter,
        "diameters": list(result.diameters),
        "termination_ok": result.termination_ok,
        "agreement_ok": result.agreement_ok,
        "validity_ok": result.validity_ok,
        "p1_ok": result.p1_ok,
        "p2_ok": result.p2_ok,
        "error": result.error,
        "extras": [[name, value] for name, value in result.extras],
    }


def result_from_dict(payload: dict[str, Any]) -> "CellResult":
    """Rebuild a cell result from :func:`result_to_dict` output."""
    from .engine import CellResult

    return CellResult(
        spec=spec_from_dict(payload["spec"]),
        decisions=tuple(
            (int(pid), float(value)) for pid, value in payload["decisions"]
        ),
        rounds=payload["rounds"],
        terminated=payload["terminated"],
        decision_diameter=payload["decision_diameter"],
        diameters=tuple(payload["diameters"]),
        termination_ok=payload["termination_ok"],
        agreement_ok=payload["agreement_ok"],
        validity_ok=payload["validity_ok"],
        p1_ok=payload["p1_ok"],
        p2_ok=payload["p2_ok"],
        error=payload["error"],
        extras=tuple(
            (name, _freeze(value)) for name, value in payload["extras"]
        ),
    )


@dataclass
class CellStore:
    """A content-addressed on-disk store of cell results.

    Cheap to construct and picklable (it carries only the root path),
    so worker processes can write through during parallel execution.
    The ``hits``/``misses``/``bytes_read``/``bytes_written`` counters
    track lookups made through *this* instance -- the parent process's
    view of a sweep's cache traffic (worker-side write-throughs happen
    on the workers' own copies and are not folded back).
    """

    root: Path
    hits: int = field(default=0, compare=False)
    misses: int = field(default=0, compare=False)
    bytes_read: int = field(default=0, compare=False)
    bytes_written: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- keys -------------------------------------------------------------------

    def cell_key(
        self, spec: "CellSpec", trace_detail: str, probe: str | None = None
    ) -> str:
        """The content hash addressing one cell's result."""
        payload = {
            "schema": SWEEP_SCHEMA_VERSION,
            "trace_detail": trace_detail,
            "probe": probe,
            "spec": spec_to_dict(spec),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path_for(
        self, spec: "CellSpec", trace_detail: str, probe: str | None = None
    ) -> Path:
        key = self.cell_key(spec, trace_detail, probe)
        return self.root / f"v{SWEEP_SCHEMA_VERSION}" / key[:2] / f"{key}.json"

    # -- lookups ----------------------------------------------------------------

    def load(
        self, spec: "CellSpec", trace_detail: str, probe: str | None = None
    ) -> "CellResult | None":
        """Return the cached result, or ``None`` on any doubt.

        Missing, truncated, corrupted or mismatching entries all count
        as misses; the caller re-executes the cell and overwrites.
        """
        path = self.path_for(spec, trace_detail, probe)
        try:
            text = path.read_text(encoding="utf-8")
            self.bytes_read += len(text)
            payload = json.loads(text)
            if payload.get("schema") != SWEEP_SCHEMA_VERSION:
                return None
            if payload.get("trace_detail") != trace_detail:
                return None
            if payload.get("probe") != probe:
                return None
            result = result_from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if result.spec != spec:
            return None
        return result

    def save(
        self, result: "CellResult", trace_detail: str, probe: str | None = None
    ) -> Path:
        """Write a result through to the store (atomic per entry).

        The temporary file is private to the writing thread, so
        concurrent saves of one cell -- from threads or processes --
        each land whole and the last ``os.replace`` wins.
        """
        path = self.path_for(result.spec, trace_detail, probe)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": SWEEP_SCHEMA_VERSION,
            "trace_detail": trace_detail,
            "probe": probe,
            "result": result_to_dict(result),
        }
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        text = json.dumps(payload, sort_keys=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
        self.bytes_written += len(text)
        return path

    # -- maintenance ------------------------------------------------------------

    def gc(
        self,
        older_than: float | None = None,
        keep_versions: "set[int] | None" = None,
        dry_run: bool = False,
        now: float | None = None,
        max_bytes: int | None = None,
    ) -> "CacheGCReport":
        """Evict stale entries from a long-lived store.

        An entry is evicted when its schema version directory is not in
        ``keep_versions`` (default: only the current
        :data:`SWEEP_SCHEMA_VERSION` -- superseded versions can never be
        read again and only waste disk), **or** when ``older_than`` is
        given and the entry file was last written more than that many
        seconds before ``now``.  Orphaned ``.tmp.*`` files from
        interrupted atomic writes are evicted once they are older than
        a short grace period (an atomic write is in-flight for
        milliseconds; anything older is wreckage).

        ``max_bytes`` caps the total size of the *surviving* entries:
        after the version/age filters, the oldest survivors (by mtime,
        path-tiebroken for determinism) are evicted until the store
        fits -- the size-based knob for long-lived cell stores on
        shared runners.  With ``dry_run=True`` nothing is deleted; the
        report counts what *would* go.  A missing or empty store is a
        no-op.

        Concurrent sweeps are safe: the tmp grace period keeps gc away
        from in-flight writes, and evicting a finished entry at worst
        costs the next sweep a recomputation -- the store is a cache,
        never the source of truth.
        """
        import time

        if now is None:
            now = time.time()
        if keep_versions is None:
            keep_versions = {SWEEP_SCHEMA_VERSION}
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        if older_than is not None and older_than < 0:
            raise ValueError(
                f"older_than must be non-negative, got {older_than}"
            )
        cutoff = None if older_than is None else now - older_than
        scanned = kept = removed = 0
        freed_bytes = 0
        root = Path(self.root)
        if not root.is_dir():
            return CacheGCReport(0, 0, 0, 0, dry_run)

        def evict(path: Path, size: int | None = None) -> None:
            nonlocal removed, freed_bytes
            removed += 1
            try:
                freed_bytes += path.stat().st_size if size is None else size
                if not dry_run:
                    path.unlink()
            except OSError:
                pass

        #: Surviving result entries as (mtime, path, size), fed to the
        #: size cap below; tmp files never count towards the budget.
        survivors: list[tuple[float, Path, int]] = []
        version_dirs: list[Path] = []
        for version_dir in sorted(root.glob("v*")):
            if not version_dir.is_dir():
                continue
            try:
                version = int(version_dir.name[1:])
            except ValueError:
                continue  # foreign directory: never touch it
            version_dirs.append(version_dir)
            stale_version = version not in keep_versions
            for entry in sorted(version_dir.glob("*/*")):
                if not entry.is_file():
                    continue
                scanned += 1
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                mtime = stat.st_mtime
                if ".tmp." in entry.name:
                    # Grace period: a concurrent save() is between its
                    # tmp write and os.replace for milliseconds at
                    # most; never race it.
                    if now - mtime > _TMP_GRACE_SECONDS:
                        evict(entry, stat.st_size)
                    else:
                        kept += 1
                    continue
                if stale_version or (cutoff is not None and mtime < cutoff):
                    evict(entry, stat.st_size)
                else:
                    kept += 1
                    survivors.append((mtime, entry, stat.st_size))

        if max_bytes is not None:
            total = sum(size for _, _, size in survivors)
            # Oldest-first eviction until the survivors fit the cap;
            # the path tiebreak keeps equal-mtime runs deterministic.
            for mtime, entry, size in sorted(survivors):
                if total <= max_bytes:
                    break
                evict(entry, size)
                kept -= 1
                total -= size

        if not dry_run:
            # Prune now-empty key-prefix/version directories.
            for version_dir in version_dirs:
                for subdir in sorted(version_dir.glob("*")):
                    if subdir.is_dir():
                        try:
                            subdir.rmdir()
                        except OSError:
                            pass
                try:
                    version_dir.rmdir()
                except OSError:
                    pass
        return CacheGCReport(scanned, kept, removed, freed_bytes, dry_run)

    # -- bookkeeping ------------------------------------------------------------

    def record(self, hit: bool) -> None:
        """Count one lookup outcome."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def snapshot(self) -> CacheStats:
        """An immutable copy of this instance's traffic counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
        )

    def stats(self) -> str:
        """Human-readable counter summary for CLI banners."""
        return self.snapshot().describe()
