"""Shared helpers for the benchmark harness.

Every benchmark prints the paper artifact it regenerates (run pytest with
``-s`` to see the tables/charts) and asserts the paper's qualitative
conclusions, so a green benchmark run *is* a successful reproduction.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

PERF_GATED = os.environ.get("PCNNA_PERF_GATE", "1") != "0"
"""Whether wall-clock floors and ceilings are enforced.

``PCNNA_PERF_GATE=0`` (shared CI runners, erratic timing) keeps the perf
benchmarks as functional smoke tests; outputs and bit-identity are
checked either way.
"""


BENCH_RECORD = os.environ.get("PCNNA_BENCH_RECORD", "0") == "1"
"""Whether ``record_bench`` updates the ``BENCH_*.json`` files in place.

Off by default, so a test run leaves the working tree clean.
``PCNNA_BENCH_RECORD=1`` (set where a CI step uploads the trajectories)
writes them at the repository root.
"""


def emit(text: str) -> None:
    """Print a reproduced table/figure with surrounding whitespace."""
    print()
    print(text)
    print()


def best_of(function, repeats: int):
    """Minimum wall time over ``repeats`` calls plus the last result.

    The minimum is the noise-robust statistic, and the first call
    doubles as warm-up: the vectorized paths' first invocation pays
    one-off numpy dispatch costs that would otherwise overstate small
    timings.
    """
    result = None
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - began)
    return best, result


def _merge(into: dict, update: dict) -> None:
    """Recursive dict merge: benchmarks share nested sections."""
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(into.get(key), dict):
            _merge(into[key], value)
        else:
            into[key] = value


def record_bench(path: Path, update: dict) -> None:
    """Merge one benchmark's results into the ``BENCH_*.json`` at ``path``.

    The merged payload is serialized either way, but only written with
    ``PCNNA_BENCH_RECORD=1`` (see :data:`BENCH_RECORD`).
    """
    payload: dict = {}
    if BENCH_RECORD and path.exists():
        payload = json.loads(path.read_text())
    _merge(payload, update)
    payload["perf_gated"] = PERF_GATED
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if BENCH_RECORD:
        path.write_text(text)


@pytest.fixture
def alexnet_specs():
    """The paper's AlexNet conv-layer table."""
    from repro.workloads import alexnet_conv_specs

    return alexnet_conv_specs()
