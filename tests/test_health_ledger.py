"""Tests for the health ledger shared by both faulted serving hosts.

``HealthLedger`` is the one recalibration rule of the serving stack:
the single-tenant kernel (through ``FaultPlugin``) and the cluster lane
loop both service it at every dispatch.  The load-bearing pin here is
that the two hosts agree: a one-lane faulted cluster must equal the
single-tenant run without repartitioning on every stream and record,
for every trigger kind.
"""

import math

import numpy as np
import pytest

from repro.core.adaptive import (
    AdaptiveRecalibration,
    simulate_adaptive_serving,
)
from repro.core.cluster import ClusterTenant, simulate_cluster_serving
from repro.core.faults import (
    FaultSchedule,
    HealthLedger,
    RecalibrationPolicy,
    simulate_degraded_serving,
)
from repro.core.simkernel import BatchingPolicy
from repro.workloads import fault_scenario, poisson_arrivals, serving_network

LENET = serving_network("lenet5")
POLICY = BatchingPolicy.dynamic(4, 1e-4)
RECAL = RecalibrationPolicy(error_threshold=0.05)
CORES = 2
ARRIVALS = poisson_arrivals(2e4, 3000, seed=0)
HORIZON = float(ARRIVALS[-1])

SCHEDULES = {
    "uniform-drift": FaultSchedule.uniform_drift(0.6 / HORIZON, CORES),
    **{
        name: fault_scenario(name, CORES, HORIZON)
        for name in ("slow-drift", "tia-aging", "crosstalk-blip", "tia-burnin")
    },
}

TRIGGERS = {
    "none": None,
    "static": RECAL,
    "frozen": AdaptiveRecalibration.frozen(RECAL),
    "ewma-lead": AdaptiveRecalibration(
        base=RECAL, smoothing=0.45, lead_time_s=0.08 * HORIZON
    ),
    "ewma-budget": AdaptiveRecalibration(
        base=RECAL, smoothing=0.3, downtime_budget_s=2e-3
    ),
}


def _single_tenant(schedule, trigger):
    if isinstance(trigger, AdaptiveRecalibration):
        return simulate_adaptive_serving(
            LENET,
            ARRIVALS,
            POLICY,
            schedule,
            CORES,
            controller=trigger,
            repartition=False,
        )
    return simulate_degraded_serving(
        LENET,
        ARRIVALS,
        POLICY,
        schedule,
        CORES,
        recalibration=trigger,
        repartition=False,
    )


@pytest.mark.parametrize("trigger", list(TRIGGERS))
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_one_lane_cluster_equals_single_tenant(schedule, trigger):
    single = _single_tenant(SCHEDULES[schedule], TRIGGERS[trigger])
    cluster = simulate_cluster_serving(
        [ClusterTenant.from_network("solo", LENET, POLICY)],
        {"solo": ARRIVALS},
        pool_size=CORES,
        schedule=SCHEDULES[schedule],
        recalibration=TRIGGERS[trigger],
    )
    lane = cluster.tenant("solo")
    for name in ("arrival_s", "dispatch_s", "completion_s"):
        np.testing.assert_array_equal(
            getattr(single, name), getattr(lane, name)
        )
    assert tuple(single.batches) == tuple(lane.batches)
    assert single.core_busy_s == lane.core_busy_s
    np.testing.assert_array_equal(single.accuracy_proxy, lane.accuracy_proxy)
    np.testing.assert_array_equal(
        single.batch_num_cores, lane.batch_num_cores
    )
    assert single.recalibrations == cluster.recalibrations
    assert single.core_downtime_s == cluster.core_downtime_s
    assert single.final_core_errors == cluster.final_core_errors
    assert single.repartitions == ()
    if trigger != "none" and schedule in ("uniform-drift", "slow-drift"):
        # The pin must exercise the calibration loop, not only drift.
        assert single.recalibrations


@pytest.mark.parametrize(
    "simulate",
    [
        lambda threshold: simulate_degraded_serving(
            LENET,
            ARRIVALS[:8],
            POLICY,
            FaultSchedule.none(),
            CORES,
            fail_error_threshold=threshold,
        ),
        lambda threshold: simulate_adaptive_serving(
            LENET,
            ARRIVALS[:8],
            POLICY,
            FaultSchedule.none(),
            CORES,
            controller=AdaptiveRecalibration.frozen(RECAL),
            fail_error_threshold=threshold,
        ),
    ],
    ids=["degraded", "adaptive"],
)
def test_nan_fail_threshold_is_rejected(simulate):
    # `error >= nan` is never true, so a NaN threshold would silently
    # disable repartitioning.
    with pytest.raises(ValueError, match="fail threshold"):
        simulate(math.nan)


class TestLedger:
    def test_service_charges_downtime_into_the_host_clock(self):
        schedule = FaultSchedule.uniform_drift(1.0, 2)
        ledger = HealthLedger(schedule, 2, RECAL)
        core_free = [0.0, 0.0]
        ledger.service([1, 0], core_free, 0.2, lambda t: 0)
        assert [r.core for r in ledger.recalibrations] == [1, 0]
        # Stage 0 is physical core 1: each stage's clock pays its own
        # core's downtime.
        assert core_free == [
            0.2 + ledger.recalibrations[0].downtime_s,
            0.2 + ledger.recalibrations[1].downtime_s,
        ]
        assert ledger.downtime == [
            ledger.recalibrations[1].downtime_s,
            ledger.recalibrations[0].downtime_s,
        ]
        assert ledger.worst_error([0, 1]) == max(ledger.final_errors)
        assert ledger.decider is None

    def test_queue_depth_is_sampled_only_by_a_pressure_gate(self):
        sampled = []

        def depth(time_s):
            sampled.append(time_s)
            return 100

        schedule = FaultSchedule.uniform_drift(1.0, 1)
        for hold, expected in ((None, []), (1, [0.2])):
            sampled.clear()
            ledger = HealthLedger(
                schedule,
                1,
                AdaptiveRecalibration(
                    base=RECAL,
                    smoothing=1.0,
                    pressure_hold=hold,
                    hold_ceiling=1e6,
                ),
            )
            ledger.service([0], [0.0], 0.2, depth)
            assert sampled == expected
        decisions = ledger.decider.decisions
        assert [d.action for d in decisions] == ["defer-pressure"]
        assert decisions[0].queued == 100

    def test_finish_advances_every_core_to_the_last_instant(self):
        schedule = FaultSchedule.uniform_drift(1.0, 2)
        ledger = HealthLedger(schedule, 2, None)
        # Core 1 is never serviced, as if drained out of the pipeline.
        ledger.service([0], [0.0], 0.1, lambda t: 0)
        serviced, drained = ledger.final_errors
        ledger.finish()
        assert ledger.last_s == 0.1
        assert ledger.final_errors[0] == serviced
        assert ledger.final_errors[1] > drained
