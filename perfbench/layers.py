"""The traced layers, the per-layer metrics, and what each should move.

Two tables drive the traced run:

* :func:`targets` lists every wrapped callable and the layer key its
  spans are charged to.  Keys are fine-grained (one per kernel entry
  point) so the zero/non-zero check can name the wrapper that misfired.
* :data:`PER_LAYER` defines each per-layer metric: how it is computed
  from the span totals, which workloads are predicted to exercise it
  (non-zero there, zero everywhere else), and which end-to-end metric it
  should move on which workload.  ``BENCHMARK.json`` cannot hold the
  last column, so this table is its record; the traced run prints it.

Times are self times in seconds per measured pass.  The one exception is
``workloads.gen_s``, which also adds the generator time of one set-up:
fleet-burst generates its whole trace there, and a later change that
moves work into generation must show.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from perfbench.tracing import Target

FLEET = "fleet-burst"
GRID = "policy-grid"
LENET = "adaptive-lenet"
ENGINE = "engine-googlenet"
WORKLOADS = (FLEET, GRID, LENET, ENGINE)
SERVING = (FLEET, GRID, LENET)
FAULTED = (GRID, LENET)

LAYER_CALLS: dict[str, tuple[str, ...]] = {
    "workloads.gen": WORKLOADS,
    "fleet": (FLEET,),
    "cluster": (FLEET, GRID),
    "simkernel.plan_batches": (FLEET,),
    "simkernel.plan_dispatch": FAULTED,
    "simkernel.pipeline_completions": (FLEET,),
    "simkernel.execute_dispatch": FAULTED,
    "simkernel.loop": (LENET,),
    "faults.advance": FAULTED,
    "faults.recal": FAULTED,
    "faults.plugin": (LENET,),
    "drift.retune": FAULTED,
    # The engine's ideal banks also read their transfer through
    # WeightBank.transmission_matrix (a copy, no Lorentzian cascade).
    "weight_bank.transmission": FAULTED + (ENGINE,),
    "calibration": FAULTED,
    "adaptive.decide": FAULTED,
    "adaptive.serve": (LENET,),
    "policy_eval": (GRID,),
    "accelerator": (ENGINE,),
    "im2col": (ENGINE,),
    "broadcast_weight": (ENGINE,),
    "converters": (ENGINE,),
    "nn.electronic": (ENGINE,),
}
"""Layer key -> workloads whose passes (or set-up) must call it."""

COMPUTED = ("im2col.gather_bytes", "broadcast_weight.macs", "converters.samples")
"""Counts computed from argument and result shapes, not measured."""


def targets() -> list[Target]:
    """Every wrapped callable, by layer key.

    Imports the program modules it names, so call it only once the
    checkout's ``src`` is importable.
    """
    import repro.nn.layers as nn_layers
    import repro.workloads as generators

    found = [
        Target("workloads.gen", "repro.workloads", name)
        for name in generators.__all__
        if inspect.isfunction(getattr(generators, name))
    ]
    plain = {
        "fleet": ("repro.core.fleet", (
            "simulate_fleet_serving",
            "FleetRuntime.run",
            "estimate_region_capacity_rps",
        )),
        "cluster": ("repro.core.cluster", (
            "simulate_cluster_serving",
            "ClusterSimulator.run",
            "allocate_pool",
        )),
        "simkernel.plan_batches": ("repro.core.simkernel", ("plan_batches",)),
        "simkernel.plan_dispatch": ("repro.core.simkernel", ("plan_dispatch",)),
        "simkernel.pipeline_completions": (
            "repro.core.simkernel", ("pipeline_completions",)
        ),
        "simkernel.execute_dispatch": (
            "repro.core.simkernel", ("execute_dispatch",)
        ),
        "simkernel.loop": ("repro.core.simkernel", ("EventLoopKernel.run",)),
        "faults.advance": ("repro.core.faults", ("CoreHealthState.advance_to",)),
        "faults.recal": ("repro.core.faults", ("CoreHealthState.recalibrate",)),
        "faults.plugin": ("repro.core.faults", (
            "FaultPlugin.on_run_start",
            "FaultPlugin.on_dispatch_planned",
            "FaultPlugin.on_batch_complete",
            "FaultPlugin.on_run_end",
        )),
        "drift.retune": ("repro.photonics.drift", (
            "DriftingWeightBank.set_condition",
            "DriftingWeightBank.set_weights",
        )),
        "weight_bank.transmission": (
            "repro.photonics.weight_bank", ("WeightBank.transmission_matrix",)
        ),
        "calibration": ("repro.photonics.calibration", ("calibrate_bank",)),
        "adaptive.decide": ("repro.core.adaptive", (
            "EwmaRecalDecider.observe",
            "EwmaRecalDecider.decide",
            "BurnRateAdmission.burn_rate",
        )),
        "adaptive.serve": ("repro.core.adaptive", (
            "simulate_adaptive_serving",
            "AdaptiveRecalPlugin.on_run_start",
        )),
        "policy_eval": ("repro.analysis.policy_eval", (
            "evaluate_dominance",
            "evaluate_policy_grid",
            "evaluate_policy",
            "pareto_front",
            "DominanceReport.from_outcomes",
        )),
        "accelerator": ("repro.core.accelerator", (
            "PCNNA.run_network",
            "PCNNA.convolve",
            "PhotonicConvolution.convolve",
        )),
    }
    for layer, (module, names) in plain.items():
        found.extend(Target(layer, module, name) for name in names)
    found.append(Target("policy_eval", "repro.analysis.parallel", "run_grid"))
    found.append(
        Target(
            "im2col",
            "repro.nn.im2col",
            "im2col_batch_stacked",
            count=("im2col.gather_bytes", lambda args, out: out.nbytes),
        )
    )
    found.append(
        Target(
            "broadcast_weight",
            "repro.photonics.broadcast_weight",
            "BroadcastAndWeightLayer.compute_batch",
            count=(
                "broadcast_weight.macs",
                lambda args, out: out.size * np.shape(args[1])[-1],
            ),
        )
    )
    found.append(
        Target(
            "converters",
            "repro.electronics.converters",
            "ConverterSpec.quantize",
            count=("converters.samples", lambda args, out: int(np.size(out))),
        )
    )
    for name, cls in vars(nn_layers).items():
        if (
            inspect.isclass(cls)
            and issubclass(cls, nn_layers.Layer)
            and cls not in (nn_layers.Layer, nn_layers.Conv2D)
            and cls.__module__ == nn_layers.__name__
        ):
            for method in ("forward", "forward_batch"):
                if method in cls.__dict__:
                    found.append(
                        Target(
                            "nn.electronic",
                            "repro.nn.layers",
                            f"{name}.{method}",
                        )
                    )
    return found


@dataclass(frozen=True)
class LayerTotals:
    """What one traced run measured, reduced to per-pass figures.

    Attributes:
        self_s: layer key -> self seconds per pass.
        calls: layer key -> calls per pass.
        counts: counter name -> computed count per pass.
        setup_gen_s: generator self seconds in one traced set-up.
        sim: simulated-output metrics of the workload (deterministic).
        coverage: share of pass wall time inside root spans.
        overhead_x: traced over untraced median pass time.
    """

    self_s: dict[str, float]
    calls: dict[str, float]
    counts: dict[str, float]
    setup_gen_s: float
    sim: dict[str, float]
    coverage: float
    overhead_x: float


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and its prediction.

    Attributes:
        name: metric name as ``BENCHMARK.json`` lists it.
        unit: its unit.
        better: ``"lower"`` or ``"higher"``.
        value: computes it from a run's :class:`LayerTotals`.
        exercised_by: workloads where it must be non-zero; it must be
            zero on every other workload.
        moves: the end-to-end metric and workload it should move.
        input_dependent: workloads where the inputs decide whether it is
            zero, so neither state is predicted there.
    """

    name: str
    unit: str
    better: str
    value: Callable[[LayerTotals], float]
    exercised_by: tuple[str, ...]
    moves: str
    input_dependent: tuple[str, ...] = ()


def _self(*keys: str) -> Callable[[LayerTotals], float]:
    return lambda t: sum(t.self_s.get(key, 0.0) for key in keys)


def _calls(*keys: str) -> Callable[[LayerTotals], float]:
    return lambda t: sum(t.calls.get(key, 0.0) for key in keys)


def _count(name: str) -> Callable[[LayerTotals], float]:
    return lambda t: t.counts.get(name, 0.0)


def _sim(name: str) -> Callable[[LayerTotals], float]:
    return lambda t: t.sim.get(name, 0.0)


def _per_batch(t: LayerTotals) -> float:
    batches = t.sim.get("sim.batches", 0.0)
    return t.calls.get("faults.advance", 0.0) / batches if batches else 0.0


_SERVING_RATE = "units_per_s on adaptive-lenet and policy-grid"
_ENGINE_RATE = "units_per_s and peak_rss_mb on engine-googlenet"
_SIMULATED = "none: simulated outcome, identical under a host-speed change"

PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric(
        "workloads.gen_s", "s", "lower",
        lambda t: t.setup_gen_s + t.self_s.get("workloads.gen", 0.0),
        WORKLOADS,
        "setup_s on fleet-burst; units_per_s on policy-grid, where each "
        "cell rebuilds its mix",
    ),
    LayerMetric("fleet.self_s", "s", "lower", _self("fleet"), (FLEET,),
                "units_per_s on fleet-burst"),
    LayerMetric("fleet.calls", "count", "lower", _calls("fleet"), (FLEET,),
                "units_per_s on fleet-burst"),
    LayerMetric("fleet.remote_frac", "fraction", "lower",
                _sim("fleet.remote_frac"), (FLEET,), _SIMULATED),
    LayerMetric("cluster.self_s", "s", "lower", _self("cluster"),
                (FLEET, GRID),
                "units_per_s on policy-grid; small on fleet-burst"),
    LayerMetric("cluster.calls", "count", "lower", _calls("cluster"),
                (FLEET, GRID), "units_per_s on policy-grid"),
    LayerMetric(
        "simkernel.plan_s", "s", "lower",
        _self("simkernel.plan_batches", "simkernel.plan_dispatch"),
        SERVING, "units_per_s on adaptive-lenet",
    ),
    LayerMetric(
        "simkernel.exec_s", "s", "lower",
        _self("simkernel.pipeline_completions", "simkernel.execute_dispatch"),
        SERVING, "units_per_s on adaptive-lenet",
    ),
    LayerMetric("simkernel.loop_self_s", "s", "lower",
                _self("simkernel.loop"), (LENET,),
                "units_per_s on adaptive-lenet"),
    LayerMetric(
        "simkernel.plan_dispatch_calls", "count", "lower",
        _calls("simkernel.plan_dispatch"), FAULTED,
        "units_per_s on adaptive-lenet; must stay 0 on fleet-burst, "
        "which takes the vectorized path",
    ),
    LayerMetric("faults.advance_s", "s", "lower", _self("faults.advance"),
                FAULTED, _SERVING_RATE),
    LayerMetric("faults.advance_calls", "count", "lower",
                _calls("faults.advance"), FAULTED, _SERVING_RATE),
    LayerMetric("faults.advance_calls_per_batch", "ratio", "lower",
                _per_batch, FAULTED, _SERVING_RATE),
    LayerMetric("faults.recal_s", "s", "lower", _self("faults.recal"),
                FAULTED, _SERVING_RATE),
    LayerMetric("faults.recal_calls", "count", "lower",
                _calls("faults.recal"), FAULTED, _SERVING_RATE),
    LayerMetric("faults.plugin_s", "s", "lower", _self("faults.plugin"),
                (LENET,), "units_per_s on adaptive-lenet"),
    LayerMetric("drift.retune_s", "s", "lower", _self("drift.retune"),
                FAULTED, _SERVING_RATE),
    LayerMetric("weight_bank.transmission_s", "s", "lower",
                _self("weight_bank.transmission"), FAULTED + (ENGINE,),
                _SERVING_RATE),
    LayerMetric("weight_bank.transmission_calls", "count", "lower",
                _calls("weight_bank.transmission"), FAULTED + (ENGINE,),
                _SERVING_RATE),
    LayerMetric("calibration.calibrate_s", "s", "lower",
                _self("calibration"), FAULTED, _SERVING_RATE),
    LayerMetric("adaptive.decide_s", "s", "lower", _self("adaptive.decide"),
                FAULTED, "units_per_s on adaptive-lenet"),
    LayerMetric("adaptive.decide_calls", "count", "lower",
                _calls("adaptive.decide"), FAULTED,
                "units_per_s on adaptive-lenet"),
    LayerMetric("adaptive.serve_s", "s", "lower", _self("adaptive.serve"),
                (LENET,), "units_per_s on adaptive-lenet"),
    LayerMetric("policy_eval.self_s", "s", "lower", _self("policy_eval"),
                (GRID,), "units_per_s on policy-grid"),
    LayerMetric("accelerator.self_s", "s", "lower", _self("accelerator"),
                (ENGINE,), _ENGINE_RATE),
    LayerMetric("im2col.gather_s", "s", "lower", _self("im2col"), (ENGINE,),
                _ENGINE_RATE),
    LayerMetric("im2col.gather_bytes", "bytes", "lower",
                _count("im2col.gather_bytes"), (ENGINE,), _ENGINE_RATE),
    LayerMetric("broadcast_weight.device_s", "s", "lower",
                _self("broadcast_weight"), (ENGINE,), _ENGINE_RATE),
    LayerMetric("broadcast_weight.macs", "count", "lower",
                _count("broadcast_weight.macs"), (ENGINE,), _ENGINE_RATE),
    LayerMetric("converters.quantize_s", "s", "lower", _self("converters"),
                (ENGINE,), _ENGINE_RATE),
    LayerMetric("converters.samples", "count", "lower",
                _count("converters.samples"), (ENGINE,), _ENGINE_RATE),
    LayerMetric("nn.electronic_s", "s", "lower", _self("nn.electronic"),
                (ENGINE,), _ENGINE_RATE),
    LayerMetric("sim.batches", "count", "lower", _sim("sim.batches"),
                SERVING, _SIMULATED),
    LayerMetric("sim.queue_wait_p99_s", "s", "lower",
                _sim("sim.queue_wait_p99_s"), SERVING, _SIMULATED),
    LayerMetric("sim.core_utilization", "fraction", "higher",
                _sim("sim.core_utilization"), SERVING, _SIMULATED),
    LayerMetric("sim.recalibrations", "count", "lower",
                _sim("sim.recalibrations"), FAULTED, _SIMULATED),
    LayerMetric("sim.downtime_s", "s", "lower", _sim("sim.downtime_s"),
                FAULTED, _SIMULATED),
    # No workload runs near its queue caps or its burn-rate SLO, so none
    # sheds; a change that starts shedding shows here.
    LayerMetric("sim.shed_frac", "fraction", "lower", _sim("sim.shed_frac"),
                (), _SIMULATED),
    LayerMetric("sim_p99_s", "s", "lower", _sim("sim_p99_s"), SERVING,
                _SIMULATED),
    LayerMetric("sim_accuracy_error", "fraction", "lower",
                _sim("sim_accuracy_error"), FAULTED, _SIMULATED),
    # Seed 11 of the default grid has no win at all.
    LayerMetric("sim_dominance_wins", "count", "higher",
                _sim("sim_dominance_wins"), (), _SIMULATED,
                input_dependent=(GRID,)),
    LayerMetric("output_max_abs_err", "1", "lower",
                _sim("output_max_abs_err"), (ENGINE,), _SIMULATED),
    LayerMetric("sim_network_s", "s", "lower", _sim("sim_network_s"),
                (ENGINE,), _SIMULATED),
    LayerMetric("trace.coverage", "fraction", "higher",
                lambda t: t.coverage, WORKLOADS,
                "none: share of pass wall time the spans explain"),
    LayerMetric("trace.overhead_x", "x", "lower", lambda t: t.overhead_x,
                WORKLOADS, "none: cost of tracing itself"),
)


def prediction_errors(
    workload: str, calls: dict[str, float], values: dict[str, float]
) -> list[str]:
    """Every wrapper or metric whose zero/non-zero state was mispredicted."""
    errors = []
    for layer, exercised_by in LAYER_CALLS.items():
        fired = calls.get(layer, 0.0) > 0
        if fired != (workload in exercised_by):
            errors.append(
                f"wrapper layer {layer!r} recorded "
                f"{calls.get(layer, 0.0):g} calls on {workload}, predicted "
                f"{'calls' if workload in exercised_by else 'none'}"
            )
    for metric in PER_LAYER:
        if workload in metric.input_dependent:
            continue
        nonzero = values[metric.name] != 0
        if nonzero != (workload in metric.exercised_by):
            errors.append(
                f"metric {metric.name} is {values[metric.name]:g} on "
                f"{workload}, predicted "
                f"{'non-zero' if workload in metric.exercised_by else 'zero'}"
            )
    return errors
