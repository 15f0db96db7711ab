"""Output checks, dispatch facts and the host fingerprint.

A failed check fails the run: the benchmark reports ``correct: false``
and names the check on standard error.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import sys

#: Relative slack on the contraction bound: M2/M3 ``split`` measures
#: 0.5000000000000003 against a bound of 0.5.
CONTRACTION_RTOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong, or a run took the wrong path."""


def cell_fields(cell) -> tuple:
    """A cell result without its compare-excluded fields."""
    return (
        cell.spec.key,
        cell.decisions,
        cell.rounds,
        cell.terminated,
        cell.decision_diameter,
        cell.diameters,
        cell.termination_ok,
        cell.agreement_ok,
        cell.validity_ok,
        cell.p1_ok,
        cell.p2_ok,
        cell.extras,
        cell.error,
    )


def digest(items) -> str:
    """SHA-256 over the ``repr`` of each item (floats repr exactly)."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def sweep_digest(result) -> str:
    return digest(cell_fields(cell) for cell in result.cells)


def require_satisfied(result, what: str) -> None:
    if not result.all_satisfied:
        bad = [cell.spec.describe() for cell in result.cells if not cell.satisfied]
        raise CheckFailed(f"{what}: {len(bad)} cell(s) unsatisfied, e.g. {bad[:2]}")


def check_contraction(spec, diameters) -> None:
    """Per-round diameter ratio within the paper's contraction bound.

    Applies to bonomi cells: ``diameters[k + 1] / diameters[k]`` must not
    exceed :func:`repro.core.convergence.mobile_contraction` for the MSR
    function the cell ran, up to :data:`CONTRACTION_RTOL`.
    """
    if spec.family != "bonomi":
        return
    from repro.core.convergence import mobile_contraction

    config = spec.to_config()
    bound = mobile_contraction(config.algorithm, spec.model, config.n, spec.f).factor
    for k in range(len(diameters) - 1):
        before, after = diameters[k], diameters[k + 1]
        if before > 0.0 and after > bound * before * (1.0 + CONTRACTION_RTOL):
            raise CheckFailed(
                f"{spec.describe()}: round {k} diameter ratio "
                f"{after / before!r} exceeds the contraction bound {bound!r}"
            )


def dispatch_facts(label: str, expect: str) -> dict:
    """Parse a sweep's dispatch label and check it took the expected rung.

    ``expect`` is ``"in-process"`` (serial cross-run) or a shm-ladder
    rung (``"shm"``, ``"pickle"``).  A silent fallback fails the run, so
    it cannot pass for a regression or a gain.
    """
    from repro.telemetry import parse_dispatch_label

    record = parse_dispatch_label(label)
    if expect == "in-process":
        ok = record.cross_run and not record.pooled
    else:
        ok = record.cross_run and record.rung == expect
    if not ok:
        raise CheckFailed(f"dispatch {label!r} is not the expected {expect} rung")
    return {
        "batches": record.batches or 0,
        "max_R": record.max_r or 0,
        "steals": record.steals or 0,
    }


def host_fingerprint() -> dict:
    """The facts a number depends on, recorded with every result."""
    import numpy

    try:
        from multiprocessing import shared_memory  # noqa: F401

        shm = True
    except ImportError:
        shm = False
    getter = getattr(os, "sched_getaffinity", None)
    return {
        "usable_cpus": len(getter(0)) if getter is not None else os.cpu_count(),
        "REPRO_CPUS": os.environ.get("REPRO_CPUS"),
        "start_method": multiprocessing.get_start_method(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "shared_memory": shm,
        "machine": platform.machine(),
    }
