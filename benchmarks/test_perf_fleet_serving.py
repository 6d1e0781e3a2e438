"""Perf benchmark: the planet-scale fleet runtime.

PR 8 layered a global router, failover, and autoscaling on top of the
regional cluster runtime; this file measures what that layer costs and
writes its perf trajectory to ``BENCH_fleet.json`` at the repository
root: the single-region fleet-vs-cluster overhead (on the same trace,
asserted bit-identical first — a fast wrong fleet benchmarks nothing)
and a ≥1M-request multi-region geo-affinity soak.

Wall-clock gates are machine-dependent, so they follow the repo's
``PCNNA_PERF_GATE`` convention: enforced in local runs (the overhead
ceiling on the differential scenario, the seconds-scale soak bound),
relaxed to a functional smoke with ``PCNNA_PERF_GATE=0`` on shared CI
runners — the JSON artifact is written either way, and the bit-identity
check between the timed runs is asserted unconditionally.

Run with ``-s`` to see the trajectory table.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core.cluster import ClusterTenant, simulate_cluster_serving
from repro.core.fleet import (
    RegionSpec,
    simulate_fleet_serving,
    uniform_rtt,
)
from repro.core.traffic import BatchingPolicy
from repro.workloads import lenet5_conv_specs, poisson_arrivals
from conftest import PERF_GATED, best_of, emit, record_bench

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

POOL_SIZE = 3
RATE_RPS = 2e6  # keeps every regional pool continuously busy
DIFFERENTIAL = 200_000  # single-region fleet-vs-cluster comparison
SOAK_REGIONS = 4
SOAK = 1_000_000  # total requests across the soak regions
OVERHEAD_CEILING = 2.0  # fleet wall time over cluster wall time
SOAK_CEILING_S = 60.0  # generous "completes in seconds" bound

TIMING_REPEATS = 3


def _tenants() -> tuple[ClusterTenant, ...]:
    # Single pluginless tenant: both the cluster and the per-region
    # fleet runs take the vectorized kernel, so the timings compare the
    # fleet layer itself, not two different kernels.
    return (
        ClusterTenant(
            "solo",
            tuple(lenet5_conv_specs()),
            BatchingPolicy.dynamic(8, 1e-4),
        ),
    )


def test_single_region_fleet_overhead_vs_cluster():
    """The differential scenario, timed: one healthy zero-RTT region.

    The fleet contract pins this run bit-identical to the plain cluster
    simulator; here the same scenario is also the overhead probe — the
    routing pre-pass, merge fast path, and back-mapping must stay a
    bounded multiplier on the cluster run they wrap.
    """
    tenants = _tenants()
    arrival = {"solo": poisson_arrivals(RATE_RPS, DIFFERENTIAL, seed=31)}
    cluster_s, cluster = best_of(
        lambda: simulate_cluster_serving(tenants, arrival, pool_size=POOL_SIZE),
        repeats=TIMING_REPEATS,
    )
    fleet_s, fleet = best_of(
        lambda: simulate_fleet_serving(
            tenants, (RegionSpec("solo", POOL_SIZE),), {"solo": arrival}
        ),
        repeats=TIMING_REPEATS,
    )
    # The timed runs must agree bit for bit.
    cluster_tenant = cluster.tenant("solo")
    fleet_tenant = fleet.regions[0].report.tenant("solo")
    assert np.array_equal(cluster_tenant.arrival_s, fleet_tenant.arrival_s)
    assert np.array_equal(cluster_tenant.dispatch_s, fleet_tenant.dispatch_s)
    assert np.array_equal(
        cluster_tenant.completion_s, fleet_tenant.completion_s
    )
    assert cluster_tenant.batches == fleet_tenant.batches

    overhead = fleet_s / cluster_s
    record_bench(
        BENCH_PATH,
        {
            "scenario": {
                "network": "lenet5",
                "pool_size": POOL_SIZE,
                "policy": "dynamic(8, 1e-4)",
                "rate_rps": RATE_RPS,
                "arrival_seed": 31,
            },
            "differential_overhead": {
                "num_requests": DIFFERENTIAL,
                "cluster_wall_s": cluster_s,
                "fleet_wall_s": fleet_s,
                "overhead_x": overhead,
                "ceiling_x": OVERHEAD_CEILING,
            },
        }
    )
    emit(
        f"single-region differential ({DIFFERENTIAL:,} requests): "
        f"cluster {cluster_s:.3f} s, fleet {fleet_s:.3f} s "
        f"-> {overhead:.2f}x overhead"
        f"{'' if PERF_GATED else ' (ceiling not enforced: PCNNA_PERF_GATE=0)'}"
    )
    if PERF_GATED:
        assert overhead <= OVERHEAD_CEILING


def test_million_request_multi_region_soak():
    """The ≥1M-request multi-region soak the ISSUE targets.

    Four healthy regions under geo-affinity with a uniform 10 ms RTT:
    the router pre-pass, the per-region vectorized runs, and the
    back-mapping must together finish in seconds while conserving every
    request and keeping every served latency finite.
    """
    tenants = _tenants()
    per_region = SOAK // SOAK_REGIONS
    regions = tuple(
        RegionSpec(f"region-{index}", POOL_SIZE)
        for index in range(SOAK_REGIONS)
    )
    arrival = {
        region.name: {
            "solo": poisson_arrivals(
                RATE_RPS / SOAK_REGIONS, per_region, seed=41 + index
            )
        }
        for index, region in enumerate(regions)
    }
    began = time.perf_counter()
    report = simulate_fleet_serving(
        tenants,
        regions,
        arrival,
        rtt_s=uniform_rtt(SOAK_REGIONS, 0.01),
    )
    soak_s = time.perf_counter() - began

    assert report.num_offered == SOAK
    assert report.num_served + report.num_shed == SOAK
    assert report.num_remote == 0  # healthy geo-affinity never diverts
    assert np.all(np.isfinite(report.latencies_s))
    assert report.p99_s > 0.0

    record_bench(
        BENCH_PATH,
        {
            "requests_per_second": {"fleet": {str(SOAK): SOAK / soak_s}},
            "soak_1m": {
                "num_regions": SOAK_REGIONS,
                "routing": "geo-affinity",
                "rtt_s": 0.01,
                "wall_s": soak_s,
                "ceiling_s": SOAK_CEILING_S,
                "global_p99_s": report.p99_s,
                "placement_efficiency": report.placement_efficiency,
            },
        }
    )
    emit(
        f"1M-request fleet soak ({SOAK_REGIONS} regions, geo-affinity): "
        f"{soak_s:.1f} s wall, {SOAK / soak_s:,.0f} req/s, "
        f"global p99 {report.p99_s:.3e} s"
        f"{'' if PERF_GATED else ' (ceiling not enforced: PCNNA_PERF_GATE=0)'}"
    )
    if PERF_GATED:
        assert soak_s <= SOAK_CEILING_S
