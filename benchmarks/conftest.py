"""Benchmark harness support.

Every benchmark regenerates one paper artefact (table / theorem /
figure), asserts that it reproduced, and writes the rendered output to
``results/<exp-id>.txt`` so the artefacts survive the run even when
pytest captures stdout.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_artifact(results_dir):
    """Persist a rendered experiment report and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _record

