"""Perf benchmark: the vectorized kernel vs the reference event loop.

PR 6 rebuilt the pluginless serving hot path on array ops; this file
measures what that bought and writes the repo's first ``BENCH_*.json``
perf trajectory (``BENCH_kernel.json`` at the repository root):
requests/sec for the reference and vectorized modes at 10k and 900k
requests, plus the vectorized-only 10M-request soak the reference loop
cannot reach in reasonable wall time.

Wall-clock gates are machine-dependent, so they follow the repo's
``PCNNA_PERF_GATE`` convention: enforced in local runs (the ≥10x floor
on the 900k pluginless FIFO soak, the seconds-scale 10M soak), relaxed
to a functional smoke with ``PCNNA_PERF_GATE=0`` on shared CI runners —
the JSON artifact is written either way, and the bit-identity check
between the timed runs is asserted unconditionally.

Run with ``-s`` to see the trajectory table.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core.traffic import (
    BatchingPolicy,
    PipelineServiceModel,
    ServingSimulator,
)
from repro.workloads import lenet5_conv_specs, poisson_arrivals
from conftest import PERF_GATED, best_of, emit, record_bench

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

NUM_CORES = 3
LOAD_FACTOR = 4.0  # offered load over single-request capacity
SPEEDUP_FLOOR = 10.0  # vectorized vs reference, 900k FIFO
SOAK_CEILING_S = 60.0  # generous "completes in seconds" bound for 10M
SMALL = 10_000
LARGE = 900_000
SOAK = 10_000_000
SOAK_POLICY = BatchingPolicy.dynamic(8, 1e-4)

TIMING_REPEATS = 3


def _model() -> PipelineServiceModel:
    return PipelineServiceModel.from_specs(lenet5_conv_specs(), NUM_CORES)


def _trace(model: PipelineServiceModel, num_requests: int) -> np.ndarray:
    offered = LOAD_FACTOR * model.capacity_rps(1)
    return poisson_arrivals(offered, num_requests, seed=29)


def test_vectorized_speedup_trajectory_vs_reference():
    """Reference vs vectorized requests/sec at 10k and 900k requests.

    FIFO at 4x single-request capacity is the reference loop's worst
    case (one Python dispatch iteration per request) and the scenario
    the acceptance floor names: the vectorized kernel must clear ≥10x
    on the 900k pluginless soak.
    """
    model = _model()
    rows = []
    results: dict[str, dict[str, float]] = {"reference": {}, "vectorized": {}}
    speedups: dict[str, float] = {}
    for num_requests in (SMALL, LARGE):
        arrivals = _trace(model, num_requests)
        # The reference loop is O(requests) Python; at 900k one timed
        # pass (~10s) is long enough that repeat noise is negligible.
        ref_repeats = TIMING_REPEATS if num_requests <= SMALL else 1
        ref_s, ref = best_of(
            lambda: ServingSimulator(
                model, BatchingPolicy.fifo(), mode="reference"
            ).run(arrivals),
            repeats=ref_repeats,
        )
        vec_s, vec = best_of(
            lambda: ServingSimulator(
                model, BatchingPolicy.fifo(), mode="vectorized"
            ).run(arrivals),
            repeats=TIMING_REPEATS,
        )
        # The timed runs must agree bit for bit — a fast wrong kernel
        # benchmarks nothing.
        assert ref.completion_s.tobytes() == vec.completion_s.tobytes()
        assert ref.batches == vec.batches
        results["reference"][str(num_requests)] = num_requests / ref_s
        results["vectorized"][str(num_requests)] = num_requests / vec_s
        speedups[str(num_requests)] = ref_s / vec_s
        rows.append(
            f"  {num_requests:>10,} requests: reference {ref_s:8.3f} s, "
            f"vectorized {vec_s:8.3f} s -> {ref_s / vec_s:6.1f}x"
        )
    record_bench(
        BENCH_PATH,
        {
            "scenario": {
                "network": "lenet5",
                "num_cores": NUM_CORES,
                "policy": "fifo",
                "load_factor_vs_single_request_capacity": LOAD_FACTOR,
                "arrival_seed": 29,
            },
            "requests_per_second": results,
            "speedup_vs_reference": speedups,
            "speedup_floor_900k": SPEEDUP_FLOOR,
        }
    )
    emit(
        "vectorized kernel trajectory (FIFO, LeNet-5, 3 cores, 4x load)\n"
        + "\n".join(rows)
        + (
            ""
            if PERF_GATED
            else "\n  (floor not enforced: PCNNA_PERF_GATE=0)"
        )
    )
    if PERF_GATED:
        assert speedups[str(LARGE)] >= SPEEDUP_FLOOR


def test_ten_million_request_soak_completes_in_seconds():
    """The 10M-request dynamic-batching soak the ISSUE targets.

    Reference-mode extrapolation puts this run at minutes of Python
    bookkeeping; the vectorized kernel must finish it in seconds while
    conserving every request and keeping the streams causal.  Runs
    un-slow-marked so CI's benchmark smoke step exercises it on every
    push.
    """
    model = _model()
    arrivals = _trace(model, SOAK)
    began = time.perf_counter()
    report = ServingSimulator(model, SOAK_POLICY, mode="vectorized").run(
        arrivals
    )
    soak_s = time.perf_counter() - began

    assert report.num_requests == SOAK
    assert sum(int(b.size) for b in report.batches) == SOAK
    assert np.all(report.dispatch_s >= report.arrival_s)
    assert np.all(report.completion_s > report.dispatch_s)
    assert all(0.0 < u <= 1.0 for u in report.core_utilization)

    record_bench(
        BENCH_PATH,
        {
            "requests_per_second": {"vectorized": {str(SOAK): SOAK / soak_s}},
            "soak_10m": {
                "policy": "dynamic(8, 1e-4)",
                "wall_s": soak_s,
                "ceiling_s": SOAK_CEILING_S,
                "num_batches": len(report.batches),
                "p99_s": report.p99_s,
            },
        }
    )
    emit(
        f"10M-request soak (dynamic(8, 1e-4)): {soak_s:.1f} s wall, "
        f"{SOAK / soak_s:,.0f} req/s, {len(report.batches):,} batches"
        f"{'' if PERF_GATED else ' (ceiling not enforced: PCNNA_PERF_GATE=0)'}"
    )
    if PERF_GATED:
        assert soak_s <= SOAK_CEILING_S
