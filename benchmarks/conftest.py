"""Pytest configuration for the benchmark suite.

The benchmarks live outside the unit-test tree and are meant to be run as::

    pytest benchmarks/ --benchmark-only

Add ``--record-bench`` to refresh the tracked ``BENCH_*.json`` files at the
repository root; without it they are written to a temporary directory.

Each benchmark uses ``benchmark.pedantic(..., rounds=1)`` — the experiments
inside are full workload runs (seconds each), so statistical repetition is
neither needed nor affordable; the regenerated figure tables printed on
stdout are the primary output.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent

# Make the sibling ``_shared`` helper importable regardless of rootdir.
sys.path.insert(0, str(_BENCH_DIR))


def pytest_addoption(parser):
    parser.addoption(
        "--record-bench",
        action="store_true",
        default=False,
        help="write BENCH_*.json to the repository root (default: a tmp dir)",
    )


@pytest.fixture
def bench_json_dir(request, tmp_path) -> Path:
    """Where ``emit_bench_json`` writes: the repo root only when recording.

    The option is registered only when pytest starts inside ``benchmarks/``
    (or is given a path there); a run from the repository root never records.
    """
    if request.config.getoption("--record-bench", default=False):
        return _BENCH_DIR.parent
    return tmp_path


def pytest_collection_modifyitems(items):
    """Mark everything under ``benchmarks/`` with the ``bench`` marker.

    The fast tier (CI, local unit feedback) deselects the figure benchmarks
    with ``-m "not bench"`` without having to know the directory layout.
    """
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)
