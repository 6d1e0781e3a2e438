"""Perf gates for the unified kernel and the multi-tenant cluster.

Two kinds of guarantee:

* **Wall time** — the kernel extraction is indirection (contexts,
  plugin hooks) layered over the PR 3/PR 4 event loop, so this file
  pins its cost: the kernel-based simulator must stay within 1.1x of a
  verbatim inline copy of the pre-kernel loop on a soak-scale trace,
  and the two must agree bit-for-bit.  Wall-clock floors are enforced
  in local runs; ``PCNNA_PERF_GATE=0`` (CI) keeps the comparison as a
  bit-identity smoke test without the timing assertion.

* **Simulated time** — deterministic under the fixed trace seeds, so
  asserted on any machine: weighted-fair routing keeps the minority
  tenant's p99 *bit-identical to running alone* while a 10x-load
  neighbour saturates the pool and sheds its overload.

The mix x pool soak streams every named tenant mix across pool sizes;
since PR 10's frozen-allocation fast path it runs at CI speed and sits
in the default suite (it was ``slow``-marked while every cluster run
crawled through the per-event loop).  This file also writes the
``BENCH_cluster.json`` trajectory at the repository root: multi-tenant
soak req/s in reference vs vectorized mode (bit-identity asserted
unconditionally before timing), and policy-grid cells/s serial vs
process-parallel (byte-equality asserted unconditionally).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.analysis import (
    CLUSTER_SWEEP_HEADER,
    default_policy_grid,
    default_scenarios,
    evaluate_policy_grid,
    format_table,
    sweep_cluster_serving,
)
from repro.core.cluster import (
    ClusterTenant,
    ElasticReallocation,
    simulate_cluster_serving,
)
from repro.core.simkernel import (
    BatchingPolicy,
    BatchRecord,
    plan_dispatch,
)
from repro.core.traffic import PipelineServiceModel, ServingSimulator
from repro.workloads import (
    CLUSTER_MIXES,
    cluster_mix,
    lenet5_conv_specs,
    poisson_arrivals,
)
from conftest import PERF_GATED, best_of, emit, record_bench

KERNEL_RATIO_CEILING = 1.1
SOAK_REQUESTS = 40_000
TIMING_REPEATS = 5

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"
SOAK_RATE_RPS = 50_000.0
SOAK_MIX_REQUESTS = 30_000
VECTORIZED_SPEEDUP_FLOOR = 10.0  # aggregate req/s, vectorized over reference
GRID_WORKERS = 4
GRID_SPEEDUP_FLOOR = 2.0  # cells/s, workers=4 over serial
# Process parallelism cannot beat serial on a starved host; the cells/s
# floor is only meaningful with enough cores to fan out to.
PARALLEL_GATED = PERF_GATED and (os.cpu_count() or 1) >= GRID_WORKERS


def _assert_reports_bit_identical(ref, vec) -> None:
    """Every stream of every tenant must agree bit for bit."""
    assert len(ref.tenants) == len(vec.tenants)
    for r, v in zip(ref.tenants, vec.tenants):
        assert r.tenant == v.tenant
        assert r.arrival_s.tobytes() == v.arrival_s.tobytes()
        assert r.dispatch_s.tobytes() == v.dispatch_s.tobytes()
        assert r.completion_s.tobytes() == v.completion_s.tobytes()
        assert r.offered_arrival_s.tobytes() == v.offered_arrival_s.tobytes()
        assert r.shed_arrival_s.tobytes() == v.shed_arrival_s.tobytes()
        assert tuple(r.batches) == tuple(v.batches)
        assert r.core_busy_s == v.core_busy_s
        assert np.array_equal(r.batch_num_cores, v.batch_num_cores)
        assert np.array_equal(r.accuracy_proxy, v.accuracy_proxy)
    assert ref.pool_size == vec.pool_size
    assert ref.routing == vec.routing
    assert ref.schedule_name == vec.schedule_name
    assert ref.recalibration_name == vec.recalibration_name
    assert ref.core_downtime_s == vec.core_downtime_s
    assert ref.final_core_errors == vec.final_core_errors
    assert ref.reallocations == vec.reallocations
    assert ref.recalibrations == vec.recalibrations


def _inline_pr3_loop(model, policy, arrivals):
    """A verbatim copy of the pre-kernel ServingSimulator event loop.

    The reference the wall-time gate compares against: same
    ``plan_dispatch``, same pipeline-walk floats, no context or hook
    indirection.
    """
    num_requests = arrivals.size
    num_cores = model.num_cores
    core_free = [0.0] * num_cores
    core_busy = [0.0] * num_cores
    dispatch_s = np.empty(num_requests)
    completion_s = np.empty(num_requests)
    batches = []
    head = 0
    while head < num_requests:
        dispatch, size = plan_dispatch(arrivals, head, policy, core_free[0])
        start = dispatch
        for core in range(num_cores):
            begun = max(start, core_free[core])
            busy = model.core_busy_s(core, size)
            start = begun + busy
            core_free[core] = start
            core_busy[core] += busy
        batches.append(
            BatchRecord(
                index=len(batches),
                first_request=head,
                size=size,
                dispatch_s=dispatch,
                completion_s=start,
            )
        )
        dispatch_s[head : head + size] = dispatch
        completion_s[head : head + size] = start
        head += size
    return completion_s, tuple(batches)


def test_kernel_refactor_within_1p1x_of_inline_loop(alexnet_specs):
    """The PR 4-style soak through the kernel: bit-identical to the
    inline pre-kernel loop and (when gated) within 1.1x of its wall
    time.  FIFO at 4x capacity maximizes the per-batch loop overhead
    (one dispatch per request), the worst case for the refactor."""
    model = PipelineServiceModel.from_specs(alexnet_specs, 4)
    policy = BatchingPolicy.fifo()
    arrivals = poisson_arrivals(
        4.0 * model.capacity_rps(1), SOAK_REQUESTS, seed=13
    )

    inline_s, (inline_completions, inline_batches) = best_of(
        lambda: _inline_pr3_loop(model, policy, arrivals),
        repeats=TIMING_REPEATS,
    )
    kernel_s, report = best_of(
        lambda: ServingSimulator(model, policy).run(arrivals),
        repeats=TIMING_REPEATS,
    )

    assert np.array_equal(report.completion_s, inline_completions)
    assert report.batches == inline_batches

    ratio = kernel_s / inline_s
    emit(
        f"{SOAK_REQUESTS}-request FIFO soak: inline loop {inline_s:.3f} s, "
        f"unified kernel {kernel_s:.3f} s -> {ratio:.2f}x "
        f"(ceiling {KERNEL_RATIO_CEILING}x"
        f"{'' if PERF_GATED else '; not enforced: PCNNA_PERF_GATE=0'})"
    )
    if PERF_GATED:
        assert ratio <= KERNEL_RATIO_CEILING


def test_weighted_fair_bounds_minority_p99_under_10x_load():
    """The routing guarantee, in simulated time: while the majority
    tenant offers ~2x the pool's capacity and sheds the excess, the
    minority tenant's whole latency distribution is bit-identical to
    serving alone on its guaranteed share."""
    specs = tuple(lenet5_conv_specs())
    single = PipelineServiceModel.from_specs(list(specs), 1)
    majority_rate = 2.0 * single.capacity_rps(16)
    minority_rate = majority_rate / 10.0

    majority = ClusterTenant(
        "majority",
        specs,
        BatchingPolicy.dynamic(16, 1e-3),
        queue_cap=128,
    )
    minority = ClusterTenant(
        "minority", specs, BatchingPolicy.dynamic(4, 1e-4)
    )
    arrivals = {
        "majority": poisson_arrivals(majority_rate, 20_000, seed=11),
        "minority": poisson_arrivals(minority_rate, 2_000, seed=12),
    }
    report = simulate_cluster_serving(
        [majority, minority],
        arrivals,
        pool_size=2,
        elastic=ElasticReallocation(),
    )
    heavy = report.tenant("majority")
    light = report.tenant("minority")

    # The majority saturates its share and sheds the overload...
    assert heavy.shed_fraction > 0.3
    assert heavy.p99_s < 0.1  # bounded by admission control, not horizon
    # ...while weighted-fair keeps the minority's core untouched: its
    # run is bit-identical to having the share to itself.
    alone = simulate_cluster_serving(
        [minority], {"minority": arrivals["minority"]}, pool_size=1
    ).tenant("minority")
    assert np.array_equal(light.completion_s, alone.completion_s)
    assert light.p99_s == alone.p99_s
    assert light.num_shed == 0
    assert np.all(light.batch_num_cores == 1)

    emit(
        f"10x noisy neighbour on a 2-core pool: majority served "
        f"{heavy.num_requests}/{heavy.num_offered} "
        f"(shed {heavy.shed_fraction:.0%}, p99 "
        f"{heavy.p99_s * 1e6:.0f} us); minority p99 "
        f"{light.p99_s * 1e6:.0f} us, bit-identical to serving alone"
    )


def test_soak_every_mix_across_pool_sizes():
    """Cluster soak: every named mix, three pool sizes, conservation
    and causality over long horizons.

    Frozen allocations, so every lane rides the PR 10 vectorized fast
    path — this soak was ``slow``-marked when it crawled through the
    per-event reference loop; now it runs in the default suite.
    """
    rows = []
    for name in CLUSTER_MIXES:
        tenants, arrivals = cluster_mix(name, 50_000.0, 30_000, seed=13)
        pools = [len(tenants), len(tenants) + 2, len(tenants) * 3]
        points = sweep_cluster_serving(tenants, arrivals, pools)
        for point in points:
            for sub in point.report.tenants:
                assert sub.num_requests + sub.num_shed == sub.num_offered
                assert np.all(sub.dispatch_s >= sub.arrival_s)
                assert np.all(sub.completion_s > sub.dispatch_s)
                assert np.isfinite(sub.latencies_s).all()
            rows.extend(
                [name, *row] for row in point.rows()
            )
    emit(
        format_table(
            ["mix", *CLUSTER_SWEEP_HEADER],
            rows,
            title="cluster soak: tenant mix x pool size",
        )
    )


def test_multi_tenant_soak_vectorized_speedup():
    """The PR 10 tentpole gate: on every named frozen-allocation mix,
    the vectorized fast path must reproduce the reference event loop
    bit-for-bit (asserted unconditionally), and in aggregate serve
    requests at >= 10x the reference req/s (enforced when gated).
    Results land in ``BENCH_cluster.json``."""
    mixes: dict[str, dict] = {}
    ref_total_s = 0.0
    vec_total_s = 0.0
    total_requests = 0
    for name in CLUSTER_MIXES:
        tenants, arrivals = cluster_mix(
            name, SOAK_RATE_RPS, SOAK_MIX_REQUESTS, seed=13
        )
        pool = len(tenants) * 2
        ref_s, ref = best_of(
            lambda: simulate_cluster_serving(
                tenants, arrivals, pool_size=pool, mode="reference"
            ),
            repeats=3,
        )
        vec_s, vec = best_of(
            lambda: simulate_cluster_serving(
                tenants, arrivals, pool_size=pool, mode="vectorized"
            ),
            repeats=3,
        )
        _assert_reports_bit_identical(ref, vec)
        served = sum(sub.num_offered for sub in ref.tenants)
        mixes[name] = {
            "num_requests": served,
            "pool_size": pool,
            "reference_wall_s": round(ref_s, 6),
            "vectorized_wall_s": round(vec_s, 6),
            "reference_req_per_s": round(served / ref_s, 1),
            "vectorized_req_per_s": round(served / vec_s, 1),
            "speedup_x": round(ref_s / vec_s, 2),
        }
        ref_total_s += ref_s
        vec_total_s += vec_s
        total_requests += served
    speedup = ref_total_s / vec_total_s
    record_bench(
        BENCH_PATH,
        {
            "multi_tenant_soak": {
                "mixes": mixes,
                "aggregate": {
                    "num_requests": total_requests,
                    "reference_req_per_s": round(
                        total_requests / ref_total_s, 1
                    ),
                    "vectorized_req_per_s": round(
                        total_requests / vec_total_s, 1
                    ),
                    "speedup_x": round(speedup, 2),
                    "floor_x": VECTORIZED_SPEEDUP_FLOOR,
                },
                "bit_identical": True,
            }
        }
    )
    emit(
        f"multi-tenant soak ({total_requests} requests over "
        f"{len(CLUSTER_MIXES)} mixes): reference {ref_total_s:.3f} s, "
        f"vectorized {vec_total_s:.3f} s -> {speedup:.1f}x, "
        f"bit-identical (floor {VECTORIZED_SPEEDUP_FLOOR}x"
        f"{'' if PERF_GATED else '; not enforced: PCNNA_PERF_GATE=0'})"
    )
    if PERF_GATED:
        assert speedup >= VECTORIZED_SPEEDUP_FLOOR


def test_policy_grid_parallel_cells_per_second():
    """Grid executor gate: ``workers=4`` over the default dominance
    grid is byte-identical to serial (asserted unconditionally) and,
    on a host with enough cores, delivers >= 2x cells/s.  Results land
    in ``BENCH_cluster.json``."""
    scenarios = default_scenarios(num_requests=200, rate_rps=2000.0)
    policies = default_policy_grid()
    cells = len(scenarios) * len(policies)

    serial_began = time.perf_counter()
    serial = evaluate_policy_grid(scenarios, policies)
    serial_s = time.perf_counter() - serial_began
    parallel_began = time.perf_counter()
    fanned = evaluate_policy_grid(scenarios, policies, workers=GRID_WORKERS)
    parallel_s = time.perf_counter() - parallel_began

    assert len(fanned) == len(serial) == cells
    for a, b in zip(serial, fanned):
        assert a.scenario == b.scenario
        assert a.policy == b.policy
        assert a.baseline == b.baseline
        assert a.availability == b.availability
        assert a.accuracy_error == b.accuracy_error
        assert a.p99_latency_s == b.p99_latency_s
        assert a.downtime_s == b.downtime_s
        assert (a.served, a.offered, a.shed) == (b.served, b.offered, b.shed)
        assert a.recalibrations == b.recalibrations
        _assert_reports_bit_identical(a.report, b.report)

    speedup = serial_s / parallel_s
    record_bench(
        BENCH_PATH,
        {
            "policy_grid_parallel": {
                "num_cells": cells,
                "workers": GRID_WORKERS,
                "host_cpu_count": os.cpu_count() or 1,
                "serial_wall_s": round(serial_s, 6),
                "parallel_wall_s": round(parallel_s, 6),
                "serial_cells_per_s": round(cells / serial_s, 3),
                "parallel_cells_per_s": round(cells / parallel_s, 3),
                "speedup_x": round(speedup, 2),
                "floor_x": GRID_SPEEDUP_FLOOR,
                "byte_identical": True,
            }
        }
    )
    emit(
        f"policy grid ({cells} cells): serial {serial_s:.2f} s "
        f"({cells / serial_s:.1f} cells/s), workers={GRID_WORKERS} "
        f"{parallel_s:.2f} s ({cells / parallel_s:.1f} cells/s) -> "
        f"{speedup:.2f}x, byte-identical (floor {GRID_SPEEDUP_FLOOR}x"
        f"{'' if PARALLEL_GATED else '; not enforced: '}"
        f"{'' if PARALLEL_GATED else 'PCNNA_PERF_GATE=0 or too few cores'})"
    )
    if PARALLEL_GATED:
        assert speedup >= GRID_SPEEDUP_FLOOR
