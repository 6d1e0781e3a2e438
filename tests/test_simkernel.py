"""Tests for the unified discrete-event serving kernel."""

import numpy as np
import pytest

from repro.core import traffic
from repro.core.adaptive import BurnRateAdmission
from repro.core.cluster import (
    ClusterTenant,
    ElasticReallocation,
    simulate_cluster_serving,
)
from repro.core.faults import FaultPlugin, FaultSchedule
from repro.core.fleet import FleetAutoscaler, RegionSpec
from repro.core.simkernel import (
    BatchingPolicy,
    DispatchContext,
    EventLoopKernel,
    KernelPlugin,
    execute_dispatch,
    plan_dispatch,
    validate_arrival_trace,
)
from repro.core.traffic import PipelineServiceModel, ServingSimulator
from repro.workloads import alexnet_conv_specs, poisson_arrivals


def model(cores: int = 3) -> PipelineServiceModel:
    return PipelineServiceModel.from_specs(alexnet_conv_specs(), cores)


class TestReExports:
    def test_traffic_re_exports_the_kernel_front_door(self):
        """The historical traffic API is the kernel's objects, not
        copies — one definition, every simulator shares it."""
        assert traffic.BatchingPolicy is BatchingPolicy
        assert traffic.plan_dispatch is plan_dispatch
        assert traffic.validate_arrival_trace is validate_arrival_trace


class TestBatchingPolicyCapped:
    def test_non_binding_cap_returns_self(self):
        policy = BatchingPolicy.dynamic(8, 1e-3)
        assert policy.capped(8) is policy
        assert policy.capped(99) is policy

    def test_binding_cap_clamps_max_batch_only(self):
        policy = BatchingPolicy.dynamic(8, 1e-3)
        capped = policy.capped(3)
        assert capped.max_batch == 3
        assert capped.max_wait_s == policy.max_wait_s
        assert capped.name == policy.name

    def test_invalid_cap(self):
        with pytest.raises(ValueError, match="cap"):
            BatchingPolicy.fifo().capped(0)


class TestValidateArrivalTrace:
    def test_empty_trace_has_its_own_message(self):
        with pytest.raises(ValueError, match="empty"):
            validate_arrival_trace(np.array([]))

    def test_non_1d_and_unsorted_still_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            validate_arrival_trace(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="sorted"):
            validate_arrival_trace(np.array([2.0, 1.0]))

    NON_FINITE = (
        [0.0, np.nan, 1.0],
        [0.0, 1.0, np.inf],
        [-np.inf, 0.0, 1.0],
        [np.nan],
    )

    @pytest.mark.parametrize("trace", NON_FINITE)
    def test_non_finite_trace_rejected(self, trace):
        """NaN used to pass the sorted check (it compares false) and
        +-inf sorted fine; both now fail at the front door."""
        with pytest.raises(ValueError, match="must be finite"):
            validate_arrival_trace(np.array(trace))

    @pytest.mark.parametrize("trace", NON_FINITE)
    def test_both_kernel_modes_raise_the_same_message(self, trace):
        messages = []
        for mode in ("reference", "vectorized"):
            simulator = ServingSimulator(
                model(), BatchingPolicy.dynamic(4, 1e-4), mode=mode
            )
            with pytest.raises(ValueError, match="must be finite") as caught:
                simulator.run(np.array(trace))
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("mode", ("reference", "vectorized"))
    def test_cluster_front_door_rejects_non_finite(self, mode):
        tenant = ClusterTenant(
            name="solo",
            specs=alexnet_conv_specs(),
            policy=BatchingPolicy.dynamic(4, 1e-4),
        )
        with pytest.raises(ValueError, match="must be finite"):
            simulate_cluster_serving(
                [tenant], {"solo": np.array([0.0, np.nan, 1.0])},
                pool_size=2, mode=mode,
            )


def _tenant(**counts) -> ClusterTenant:
    return ClusterTenant(
        "t", alexnet_conv_specs(), BatchingPolicy.fifo(), **counts
    )


COUNT_FIELDS = {
    "BatchingPolicy.max_batch": lambda v: BatchingPolicy("p", v, 0.0),
    "ClusterTenant.queue_cap": lambda v: _tenant(queue_cap=v),
    "ClusterTenant.priority": lambda v: _tenant(priority=v),
    "ElasticReallocation.min_queue": lambda v: ElasticReallocation(
        min_queue=v
    ),
    "BurnRateAdmission.window": lambda v: BurnRateAdmission(1e-3, window=v),
    "BurnRateAdmission.queue_cap": lambda v: BurnRateAdmission(
        1e-3, queue_cap=v
    ),
    "FleetAutoscaler.min_pools": lambda v: FleetAutoscaler(1.0, min_pools=v),
    "FleetAutoscaler.max_pools": lambda v: FleetAutoscaler(1.0, max_pools=v),
    "RegionSpec.pool_size": lambda v: RegionSpec("r", v),
}


class TestCountFields:
    """Every count field takes integers only, checked at construction.

    ``nan < 1`` is false, so a bare range test let NaN, ``2.5`` and
    ``True`` through, and the two kernel modes then failed differently
    (or not at all)."""

    @pytest.mark.parametrize("bad", (np.nan, 2.5, True))
    @pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
    def test_non_integer_rejected(self, field, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            COUNT_FIELDS[field](bad)

    @pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
    def test_numpy_integer_accepted(self, field):
        COUNT_FIELDS[field](np.int64(2))


class RecordingPlugin(KernelPlugin):
    """Counts hook invocations and checks the context it sees."""

    def __init__(self):
        self.starts = 0
        self.planned = []
        self.completed = []
        self.ends = 0

    def on_run_start(self, ctx):
        self.starts += 1
        assert ctx.head == 0 and not ctx.batches

    def on_dispatch_planned(self, ctx, dispatch_s, size):
        # The batch is sealed but not yet booked.
        self.planned.append((ctx.head, dispatch_s, size))

    def on_batch_complete(self, ctx, batch):
        assert ctx.head == batch.first_request + batch.size
        self.completed.append(batch)

    def on_run_end(self, ctx):
        self.ends += 1
        assert ctx.done


class TestEventLoopKernel:
    def test_no_op_plugin_is_bit_identical(self):
        """A vacuous plugin must not perturb a single float."""
        arrivals = poisson_arrivals(5000.0, 1000, seed=3)
        policy = BatchingPolicy.dynamic(8, 1e-3)
        bare = EventLoopKernel(model(), policy).run(arrivals)
        hooked = EventLoopKernel(model(), policy, (KernelPlugin(),)).run(
            arrivals
        )
        assert np.array_equal(bare.dispatch_s, hooked.dispatch_s)
        assert np.array_equal(bare.completion_s, hooked.completion_s)
        assert bare.batches == hooked.batches
        assert bare.core_busy_s == hooked.core_busy_s

    def test_facade_matches_kernel(self):
        """ServingSimulator is the kernel with no plugins."""
        arrivals = poisson_arrivals(5000.0, 500, seed=5)
        policy = BatchingPolicy.fixed(16)
        report = ServingSimulator(model(), policy).run(arrivals)
        run = EventLoopKernel(model(), policy).run(arrivals)
        assert np.array_equal(report.completion_s, run.completion_s)
        assert report.batches == run.batches
        assert report.num_cores == run.initial_num_cores

    def test_hooks_fire_once_per_batch_in_order(self):
        arrivals = poisson_arrivals(2000.0, 200, seed=7)
        plugin = RecordingPlugin()
        run = EventLoopKernel(
            model(), BatchingPolicy.dynamic(4, 1e-3), (plugin,)
        ).run(arrivals)
        assert plugin.starts == 1
        assert plugin.ends == 1
        assert len(plugin.planned) == len(run.batches)
        assert plugin.completed == list(run.batches)
        # Each planned head matches the batch the kernel then booked.
        for (head, dispatch, size), batch in zip(
            plugin.planned, run.batches
        ):
            assert head == batch.first_request
            assert dispatch == batch.dispatch_s
            assert size == batch.size

    def test_plugin_downtime_delays_completions(self):
        """Pushing core_free forward in the hook rides the shared
        clock, exactly like recalibration downtime."""

        class Downtime(KernelPlugin):
            def on_dispatch_planned(self, ctx, dispatch_s, size):
                ctx.core_free[0] = max(ctx.core_free[0], dispatch_s) + 1e-3

        arrivals = poisson_arrivals(2000.0, 100, seed=2)
        policy = BatchingPolicy.fifo()
        bare = EventLoopKernel(model(), policy).run(arrivals)
        slowed = EventLoopKernel(model(), policy, (Downtime(),)).run(arrivals)
        assert np.all(slowed.completion_s >= bare.completion_s)
        assert slowed.completion_s.max() > bare.completion_s.max()

    def test_rejects_bad_traces(self):
        kernel = EventLoopKernel(model(), BatchingPolicy.fifo())
        with pytest.raises(ValueError, match="empty"):
            kernel.run(np.array([]))
        with pytest.raises(ValueError, match="sorted"):
            kernel.run(np.array([3.0, 1.0]))

    def test_fault_plugin_instance_is_reusable_across_runs(self):
        """on_run_start resets every per-run record, so one plugin
        attached to consecutive runs must not accumulate history."""
        plugin = FaultPlugin(FaultSchedule.none())
        kernel = EventLoopKernel(
            model(), BatchingPolicy.dynamic(8, 1e-3), (plugin,)
        )
        arrivals = poisson_arrivals(2000.0, 100, seed=1)
        first = kernel.run(arrivals)
        second = kernel.run(arrivals)
        assert first.batches == second.batches
        assert len(plugin.proxies) == len(second.batches)
        assert len(plugin.widths) == len(second.batches)
        assert len(plugin.snapshots) == len(second.batches)
        assert plugin.ledger.recalibrations == []
        assert plugin.repartitions == []


class TestExecuteDispatch:
    def test_busy_time_charged_to_physical_cores(self):
        """Stage→core indirection keeps per-physical-core accounting
        correct after a plugin re-maps the pipeline."""
        arrivals = validate_arrival_trace(np.array([0.0, 1e-5]))
        svc = model(2)
        ctx = DispatchContext(svc, BatchingPolicy.fifo(), arrivals)
        ctx.core_busy = [0.0, 0.0, 0.0, 0.0]
        ctx.stage_to_core = [3, 1]
        batch = execute_dispatch(ctx, 0.0, 1)
        assert batch.size == 1 and batch.first_request == 0
        assert ctx.core_busy[0] == 0.0 and ctx.core_busy[2] == 0.0
        assert ctx.core_busy[3] == svc.core_busy_s(0, 1)
        assert ctx.core_busy[1] == svc.core_busy_s(1, 1)
        assert ctx.num_requests == 2
        assert ctx.head == 1 and not ctx.done
