"""Human-readable rendering of a telemetry directory (``sweep stats``).

A telemetry directory produced by ``sweep --telemetry DIR`` holds:

* ``trace-<pid>.jsonl`` — one JSON-lines trace file per participating
  process (parent + pool workers), one line per completed span or
  point event;
* ``flight-<pid>-<seq>.jsonl`` — flight-recorder dumps (the ring
  buffer tail preceding an error cell or sweep failure);
* ``metrics.json`` — the parent's merged metrics snapshot for the run
  (counters, gauges, fixed-edge histograms), delta-scoped to the sweep.

``render_stats`` turns all of that into the ASCII summary printed by
``python -m repro.experiments sweep stats DIR``.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..analysis.tables import render_table

__all__ = [
    "load_metrics",
    "load_trace_events",
    "render_stats",
    "span_children",
    "span_rollup",
]


def _json_object(line: str) -> dict | None:
    """``line`` decoded, or None when it is not one JSON object.

    Each event is appended as one line, so a process killed mid-write
    leaves a partial last line; readers skip it rather than fail.
    """
    try:
        value = json.loads(line)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _read_trace(directory) -> tuple[list[dict], int]:
    """Every decodable trace event, timestamp-sorted, and how many
    lines were skipped as undecodable."""
    events: list[dict] = []
    skipped = 0
    for path in sorted(Path(directory).glob("trace-*.jsonl")):
        with open(path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                event = _json_object(line)
                if event is None:
                    skipped += 1
                else:
                    events.append(event)
    events.sort(key=lambda e: e.get("ts", 0.0))
    return events, skipped


def load_trace_events(directory) -> list[dict]:
    """All events from every ``trace-*.jsonl`` file, timestamp-sorted
    (undecodable lines skipped)."""
    return _read_trace(directory)[0]


def load_metrics(directory) -> dict:
    """The ``metrics.json`` snapshot; ValueError naming the file when it
    is not a JSON object."""
    path = Path(directory) / "metrics.json"
    if not path.exists():
        return {"counters": {}, "gauges": {}, "histograms": {}}
    try:
        metrics = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON ({exc})") from exc
    if not isinstance(metrics, dict):
        raise ValueError(f"{path} is not a JSON object")
    return metrics


def span_rollup(events: list[dict]) -> dict[str, dict]:
    """Per-span-name aggregate: count, total/mean/max duration."""
    rollup: dict[str, dict] = {}
    for event in events:
        if event.get("event") != "span":
            continue
        entry = rollup.setdefault(
            event["name"], {"count": 0, "total": 0.0, "max": 0.0}
        )
        entry["count"] += 1
        duration = float(event.get("dur", 0.0))
        entry["total"] += duration
        entry["max"] = max(entry["max"], duration)
    for entry in rollup.values():
        entry["mean"] = entry["total"] / entry["count"] if entry["count"] else 0.0
    return rollup


def span_children(events: list[dict]) -> set[tuple[str | None, str]]:
    """The observed (parent span name, child span name) edges."""
    names = {
        event["id"]: event["name"]
        for event in events
        if event.get("event") == "span"
    }
    edges = set()
    for event in events:
        if event.get("event") != "span":
            continue
        parent = event.get("parent")
        edges.add((names.get(parent), event["name"]))
    return edges


def _histogram_row(name: str, data: dict) -> list:
    count = int(data.get("count", 0))
    total = float(data.get("sum", 0.0))
    mean = total / count if count else 0.0
    edges = data.get("edges", [])
    counts = data.get("counts", [])
    # The highest non-empty bucket's upper edge is a cheap p100 proxy.
    ceiling = "inf"
    for index in range(len(counts) - 1, -1, -1):
        if counts[index]:
            ceiling = "inf" if index >= len(edges) else f"<={edges[index]:g}"
            break
    return [name, count, total, mean, ceiling]


def render_stats(directory) -> str:
    """Render the full ``sweep stats`` report for a telemetry dir."""
    directory = Path(directory)
    events, skipped = _read_trace(directory)
    metrics = load_metrics(directory)
    sections: list[str] = [f"telemetry: {directory}"]
    if skipped:
        sections.append(f"trace: skipped {skipped} undecodable line(s)")

    counters = metrics.get("counters", {})
    if counters:
        sections.append(
            render_table(
                ["counter", "value"],
                [[name, counters[name]] for name in sorted(counters)],
                title="counters",
            )
        )
    gauges = metrics.get("gauges", {})
    if gauges:
        sections.append(
            render_table(
                ["gauge", "value"],
                [[name, gauges[name]] for name in sorted(gauges)],
                title="gauges",
            )
        )
    histograms = metrics.get("histograms", {})
    if histograms:
        sections.append(
            render_table(
                ["histogram", "count", "sum", "mean", "ceiling"],
                [
                    _histogram_row(name, histograms[name])
                    for name in sorted(histograms)
                ],
                title="histograms",
            )
        )

    rollup = span_rollup(events)
    if rollup:
        sections.append(
            render_table(
                ["span", "count", "total s", "mean s", "max s"],
                [
                    [
                        name,
                        rollup[name]["count"],
                        rollup[name]["total"],
                        rollup[name]["mean"],
                        rollup[name]["max"],
                    ]
                    for name in sorted(rollup)
                ],
                title=f"spans ({len(events)} trace events)",
            )
        )
    else:
        sections.append("spans: no trace events found")

    dumps = sorted(directory.glob("flight-*.jsonl"))
    if dumps:
        lines = ["flight dumps:"]
        for path in dumps:
            with open(path, encoding="utf-8", errors="replace") as fh:
                header = _json_object(fh.readline())
            if header is None:
                lines.append(f"  {path.name}: undecodable header")
                continue
            lines.append(
                f"  {path.name}: reason={header.get('reason')} "
                f"events={header.get('events')}"
            )
        sections.append("\n".join(lines))

    return "\n\n".join(sections)
