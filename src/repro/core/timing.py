"""Cycle-level timing simulation of the full PCNNA pipeline.

Where :mod:`repro.core.analytical` encodes the paper's closed-form model,
this module times the Fig. 4 pipeline location by location:

    DRAM -> input buffer -> SRAM cache -> DAC array -> MZM -> MRR banks
         -> balanced PDs -> ADC array -> output buffer -> DRAM

It reduces the ``(4, Nlocs)`` per-location stage array of
:func:`repro.core.pipeline.stage_service_times` — the same array the
exact discrete-event :func:`~repro.core.pipeline.simulate_pipeline`
runs — so the two models cannot disagree about a stage time.  Per
location the stages are:

* **fetch** — newly-required receptive-field values stream from DRAM
  (exact counts from the :class:`~repro.core.scheduler.LayerSchedule`,
  including row wrap-around refills the analytical model ignores);
* **convert** — the input-DAC array converts the new values,
  ``ceil(new / num_dacs)`` sequential conversions on the busiest DAC;
* **compute** — one optical MAC wave: a single fast-clock cycle;
* **digitize** — the ADC array digitizes the K kernel outputs.

Stages are double-buffered (the paper's buffers exist precisely to
decouple them), so the steady-state per-location time is the *maximum*
stage time and the layer time is ``sum(max per location) + pipeline
fill``, times the kernel-pass count.  The sums are strict left folds
over the locations.  A non-pipelined mode (sum of all stages) is also
reported.

The simulator exists to validate the analytical model: tests assert the
two agree within the fill/rounding slack, and the benchmarks report both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.analytical import (
    _kernel_passes,
    full_system_time_s,
    optical_core_time_s,
)
from repro.core.config import PCNNAConfig
from repro.core.multicore import _require_count
from repro.core.pipeline import STAGE_NAMES, _location_stages
from repro.electronics.dac import DacArray
from repro.electronics.dram import Dram
from repro.nn.shapes import ConvLayerSpec


@dataclass(frozen=True)
class StageBreakdown:
    """Accumulated time per pipeline stage over a layer (seconds).

    Attributes:
        fetch_s: DRAM streaming time.
        convert_s: input-DAC conversion time.
        compute_s: optical MAC time.
        digitize_s: ADC time.
    """

    fetch_s: float
    convert_s: float
    compute_s: float
    digitize_s: float

    @property
    def serial_total_s(self) -> float:
        """Total with no stage overlap (non-pipelined execution)."""
        return self.fetch_s + self.convert_s + self.compute_s + self.digitize_s


@dataclass(frozen=True)
class LayerTimingResult:
    """Cycle-level simulation result for one layer.

    Attributes:
        spec: the simulated layer.
        pipelined_time_s: steady-state double-buffered layer time.
        serial_time_s: non-pipelined layer time (all stages serialized).
        weight_load_time_s: once-per-layer weight DAC + DRAM time.
        stages: per-stage accumulated times.
        bottleneck: name of the stage with the largest accumulated time.
        dac_bound_locations: locations where the DAC was the slowest stage.
        adc_bound_locations: locations where the ADC was the slowest stage.
        dram_bytes: total DRAM traffic (bytes): the weights once, the
            input fetches once per kernel pass, and all K output maps.
        analytical_optical_s: eq. (7) prediction for cross-checking.
        analytical_full_s: paper full-system (DAC-bound) prediction.
    """

    spec: ConvLayerSpec
    pipelined_time_s: float
    serial_time_s: float
    weight_load_time_s: float
    stages: StageBreakdown
    bottleneck: str
    dac_bound_locations: int
    adc_bound_locations: int
    dram_bytes: int
    analytical_optical_s: float
    analytical_full_s: float

    @property
    def name(self) -> str:
        """Layer name."""
        return self.spec.name

    @property
    def analytical_agreement(self) -> float:
        """Ratio of simulated pipelined time to the paper's prediction."""
        return self.pipelined_time_s / self.analytical_full_s


# repro: allow[API002] deterministic cycle-level timing model: pure
# function of the layer spec and config, nothing stochastic to seed
def simulate_layer(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> LayerTimingResult:
    """Simulate one conv layer through the PCNNA pipeline.

    Args:
        spec: layer geometry.
        config: hardware configuration.
        include_adc: model ADC serialization of the K per-location
            outputs.  The paper's analytical model omits it (see
            :mod:`repro.core.analytical`); disable to mirror the paper.

    Returns:
        The :class:`LayerTimingResult` for the layer.
    """
    cfg = config if config is not None else PCNNAConfig()
    passes = _kernel_passes(spec, cfg)
    fetched, service = _location_stages(spec, cfg, include_adc)

    # Strict left folds over the locations (np.sum would fold pairwise);
    # sequential kernel passes repeat the whole location walk.
    totals = np.add.accumulate(service, axis=1)[:, -1] * passes
    stages = StageBreakdown(*totals.tolist())
    slowest = service.max(axis=0)
    _, convert, _, digitize = service
    dac_bound = (slowest == convert) & (convert >= digitize)
    adc_bound = ~dac_bound & (slowest == digitize)

    # Pipeline fill: the first location's fetch/convert cannot overlap
    # anything, so add one full serial traversal of the non-dominant
    # stages for the first location (bounded by 3 stage maxima).
    pipelined_total = float(np.add.accumulate(slowest)[-1]) * passes
    pipelined_total += 3 * float(slowest.max())

    bottleneck = STAGE_NAMES[int(np.argmax(totals))]

    # Weight load: DRAM read of all weights plus the weight-DAC pass.
    value_bytes = cfg.value_bytes
    weight_bytes = spec.total_weights * value_bytes
    weight_load = Dram(cfg.dram).read(weight_bytes) + DacArray(
        cfg.num_weight_dacs, cfg.weight_dac
    ).schedule(spec.total_weights).time_s
    # Every pass re-streams the inputs; together the passes write all K
    # output maps once.
    input_values = passes * int(fetched.sum())

    return LayerTimingResult(
        spec=spec,
        pipelined_time_s=pipelined_total,
        serial_time_s=stages.serial_total_s,
        weight_load_time_s=weight_load,
        stages=stages,
        bottleneck=bottleneck,
        dac_bound_locations=int(dac_bound.sum()) * passes,
        adc_bound_locations=int(adc_bound.sum()) * passes,
        dram_bytes=weight_bytes + (input_values + spec.n_output) * value_bytes,
        analytical_optical_s=optical_core_time_s(spec, cfg),
        analytical_full_s=full_system_time_s(spec, cfg),
    )


@dataclass(frozen=True)
class BatchLayerTimingResult:
    """Cycle-level timing of one layer streamed over a minibatch.

    The hardware holds the layer's weights while the whole batch streams
    through (weight-stationary execution, the premise of the batched
    photonic engine), so the once-per-layer weight load amortizes over
    ``batch_size`` images.

    Attributes:
        layer: the single-image simulation the batch projection is
            built from.
        batch_size: images streamed per weight load.
        total_time_s: one weight load + ``batch_size`` pipelined walks.
    """

    layer: LayerTimingResult
    batch_size: int
    total_time_s: float

    @property
    def spec(self) -> ConvLayerSpec:
        """The simulated layer geometry."""
        return self.layer.spec

    @property
    def per_image_s(self) -> float:
        """Amortized per-image layer latency (s)."""
        return self.total_time_s / self.batch_size

    @property
    def images_per_s(self) -> float:
        """Sustained single-layer throughput (images/s)."""
        return self.batch_size / self.total_time_s

    @property
    def weight_load_fraction(self) -> float:
        """Fraction of the batch time spent loading weights."""
        return self.layer.weight_load_time_s / self.total_time_s


# repro: allow[API002] deterministic cycle-level timing model: pure
# function of the layer spec, batch size, and config
def simulate_layer_batch(
    spec: ConvLayerSpec,
    batch_size: int,
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> BatchLayerTimingResult:
    """Cycle-level timing of one conv layer over a ``batch_size`` batch.

    The cycle-accurate counterpart of
    :func:`repro.core.batching.layer_batch_time_s` (which uses the
    paper's closed-form times): one simulated weight load plus
    ``batch_size`` simulated pipelined location walks.

    Raises:
        ValueError: if ``batch_size`` is not a positive integer.
    """
    _require_count("batch size", batch_size)
    layer = simulate_layer(spec, config, include_adc)
    total = layer.weight_load_time_s + batch_size * layer.pipelined_time_s
    return BatchLayerTimingResult(
        layer=layer, batch_size=batch_size, total_time_s=total
    )


# repro: allow[API002] deterministic cycle-level timing model over a
# fixed layer list; nothing stochastic to seed
def simulate_network(
    specs: list[ConvLayerSpec],
    config: PCNNAConfig | None = None,
    include_adc: bool = True,
) -> list[LayerTimingResult]:
    """Simulate every layer of a network, in order."""
    cfg = config if config is not None else PCNNAConfig()
    return [simulate_layer(spec, cfg, include_adc) for spec in specs]
