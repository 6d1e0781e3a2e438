"""Discrete-event simulation of the four-stage PCNNA pipeline.

:mod:`repro.core.timing` approximates a double-buffered pipeline by
charging each location the *maximum* of its stage times.  That is exact
for an ideally balanced pipeline but an approximation when stage times
vary location to location (row starts, first fill).  This module runs
the real thing: a discrete-event simulation where each location is a job
flowing through

    fetch -> convert -> compute -> digitize

with each stage a single-server queue (one buffer of depth 1 between
stages — the paper's Input/Output buffers).  The classic recurrence for
a linear pipeline with unit buffers is

    finish[s][i] = max(finish[s-1][i],      # job arrived from upstream
                       finish[s][i-1])      # server free
                   + service[s][i]

and the layer time is the last job's exit from the last stage.  Tests
verify the closed-form `timing.py` model brackets this exact result.
Both models consume the one per-location stage array built here
(:func:`stage_service_times`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analytical import _kernels_per_pass
from repro.core.config import PCNNAConfig
from repro.core.scheduler import LayerSchedule
from repro.nn.shapes import ConvLayerSpec

STAGE_NAMES = ("fetch", "convert", "compute", "digitize")


@dataclass(frozen=True)
class PipelineResult:
    """Discrete-event pipeline simulation outcome.

    Attributes:
        spec: the simulated layer.
        makespan_s: time the last output leaves the last stage.
        stage_busy_s: total busy time per stage, in STAGE_NAMES order.
        stage_utilization: busy time / makespan per stage.
        critical_stage: the busiest stage's name.
    """

    spec: ConvLayerSpec
    makespan_s: float
    stage_busy_s: tuple[float, float, float, float]

    @property
    def stage_utilization(self) -> tuple[float, ...]:
        """Per-stage busy fraction of the makespan."""
        return tuple(busy / self.makespan_s for busy in self.stage_busy_s)

    @property
    def critical_stage(self) -> str:
        """Name of the stage with the largest total busy time."""
        index = int(np.argmax(self.stage_busy_s))
        return STAGE_NAMES[index]


def stage_service_times(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> np.ndarray:
    """Per-location service times for the four stages.

    Returns:
        Array of shape ``(4, Nlocs)`` in STAGE_NAMES order (SRAM-aware
        first-touch DRAM fetching, round-robin DAC/ADC scheduling).
        :func:`repro.core.timing.simulate_layer` reduces this same
        array.
    """
    cfg = config if config is not None else PCNNAConfig()
    return _location_stages(spec, cfg, include_adc)[1]


def _location_stages(
    spec: ConvLayerSpec, cfg: PCNNAConfig, include_adc: bool
) -> tuple[np.ndarray, np.ndarray]:
    """DRAM-fetched values per location and the ``(4, Nlocs)`` times.

    The one per-location stage model.  Converter times take the
    component models' form, ``ceil(n / N) * sample_period_s`` (what
    ``DacArray.schedule`` and ``AdcArray.schedule`` compute).
    """
    schedule = LayerSchedule(spec)
    num_locations = schedule.num_locations

    # DRAM fetch policy: if the SRAM cache holds the live m-row working
    # set, each input value streams from DRAM only on its first window
    # membership (row reuse); otherwise every window entry re-fetches.
    sram_fits = schedule.working_set_values() <= cfg.sram.capacity_words
    new_counts = schedule.new_value_counts()
    fetched = schedule.first_touch_counts() if sram_fits else new_counts

    # Bursts ride an open row, so only bandwidth is paid per location.
    fetch = fetched.astype(float) * cfg.value_bytes / cfg.dram.bandwidth_bytes_per_s
    per_dac = np.ceil(new_counts / cfg.num_input_dacs)
    convert = per_dac * cfg.input_dac.sample_period_s
    compute = np.full(num_locations, cfg.fast_clock_period_s)

    if include_adc:
        per_adc = -(-_kernels_per_pass(spec, cfg) // cfg.num_adcs)
        digitize = np.full(num_locations, per_adc * cfg.adc.sample_period_s)
    else:
        digitize = np.zeros(num_locations)

    return fetched, np.stack([fetch, convert, compute, digitize])


# repro: allow[API002] closed-form cycle-level model: every input is a
# layer spec and a config constant, nothing stochastic to seed
def simulate_pipeline(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> PipelineResult:
    """Run the exact discrete-event pipeline for one layer.

    Returns:
        The :class:`PipelineResult` with the true makespan.
    """
    service = stage_service_times(spec, config, include_adc)

    # finish[stage] holds the previous job's exit until this job leaves.
    finish = [0.0] * len(service)
    for job_service in service.T.tolist():
        upstream_done = 0.0
        for stage, service_s in enumerate(job_service):
            upstream_done = max(upstream_done, finish[stage]) + service_s
            finish[stage] = upstream_done

    makespan = finish[-1]
    busy = tuple(float(stage_service.sum()) for stage_service in service)
    return PipelineResult(spec=spec, makespan_s=makespan, stage_busy_s=busy)


def max_approximation_error(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> float:
    """Relative error of the timing.py max() model vs the exact makespan.

    Positive values mean the closed-form model over-estimates (it always
    should: summing per-location maxima plus a fill bound is an upper
    bound on the true makespan).
    """
    from repro.core.timing import simulate_layer

    exact = simulate_pipeline(spec, config, include_adc).makespan_s
    approx = simulate_layer(spec, config, include_adc).pipelined_time_s
    return (approx - exact) / exact
