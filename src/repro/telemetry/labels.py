"""Structured parsing of backend dispatch labels.

Every backend records *how* a sweep actually ran in the free-text
``SweepResult.dispatch`` label (``"serial"``,
``"cross-run-shm(4 batches, max R=16, steals=1)"``, ...).  Tests and
the telemetry layer used to regex-scrape those strings ad hoc; this
module is the one place that knows the grammar.  ``parse_dispatch_label``
round-trips every label the backends can emit into a
:class:`DispatchRecord` and raises ``ValueError`` on anything it does
not recognise, so a new label format fails loudly in the test suite
instead of silently falling through a regex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["DispatchRecord", "parse_dispatch_label"]


@dataclass(frozen=True)
class DispatchRecord:
    """Structured view of a dispatch label.

    ``mode`` is ``"serial"`` or ``"parallel"``;
    ``rung`` records the shm fallback ladder (``"shm"`` / ``"pickle"``)
    for pooled cross-run dispatches and is ``None`` otherwise.
    """

    raw: str
    mode: str
    pooled: bool = False
    cross_run: bool = False
    rung: str | None = None
    batches: int | None = None
    max_r: int | None = None
    steals: int | None = None


_CROSS_RUN = re.compile(
    r"^cross-run\((?P<batches>\d+) batches, max R=(?P<max_r>\d+)"
    r"(?P<parallel>, parallel)?\)$"
)
_CROSS_RUN_RUNG = re.compile(
    r"^cross-run-(?P<rung>shm|pickle)\((?P<batches>\d+) batches, "
    r"max R=(?P<max_r>\d+), steals=(?P<steals>\d+)\)$"
)


def parse_dispatch_label(label: str) -> DispatchRecord:
    """Parse a backend dispatch label into a :class:`DispatchRecord`.

    Raises ``ValueError`` if the label doesn't match any known format.
    """
    if not isinstance(label, str) or not label:
        raise ValueError(f"not a dispatch label: {label!r}")

    if label == "serial":
        return DispatchRecord(raw=label, mode="serial")
    match = _CROSS_RUN_RUNG.match(label)
    if match is not None:
        return DispatchRecord(
            raw=label,
            mode="parallel",
            pooled=True,
            cross_run=True,
            rung=match.group("rung"),
            batches=int(match.group("batches")),
            max_r=int(match.group("max_r")),
            steals=int(match.group("steals")),
        )

    match = _CROSS_RUN.match(label)
    if match is not None:
        pooled = match.group("parallel") is not None
        return DispatchRecord(
            raw=label,
            mode="parallel" if pooled else "serial",
            pooled=pooled,
            cross_run=True,
            batches=int(match.group("batches")),
            max_r=int(match.group("max_r")),
        )

    raise ValueError(f"unknown dispatch label: {label!r}")
