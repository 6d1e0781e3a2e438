"""The paper's analytical framework (PCNNA section V), faithfully encoded.

Ring counts (the Fig. 5 quantities):

    N_rings_unfiltered = Ninput * K * Nkernel          (eq. 4)
    N_rings_filtered   = K * Nkernel                   (eq. 5)

Execution time (the Fig. 6 quantities):

    Nlocs  = ((n + 2p - m) // s + 1)^2                 (eq. 6)
    Tconv  = Nlocs / f_clock                           (eq. 7, optical core)
    n_upd  = (nc * m * s) / N_DAC                      (eq. 8, DAC bound)
    Tfull  = Nlocs * n_upd / f_DAC                     (full system, DAC-bound)

Notes on fidelity:

* Equation (8) divides exactly (the paper reports "~116" for conv4); the
  cycle-level simulator in :mod:`repro.core.timing` instead ceils per-DAC
  work and accounts the first location's full-kernel fill.  Both are
  exposed.
* The paper declares the DAC the full-system bottleneck and does not
  serialize the ADC (digitizing K outputs per location at 2.8 GSa/s would
  otherwise dominate for large K).  ``full_system_time_s`` reproduces the
  paper's model by default; pass ``include_adc_bound=True`` to see the
  ADC-limited variant (the ablation regenerated by
  ``test_adc_serialization`` in ``benchmarks/test_ablation_bottlenecks.py``).
* Kernel-weight loading happens once per layer and the paper excludes it
  from Tconv; it is reported separately as ``weight_load_time_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PCNNAConfig
from repro.nn.shapes import ConvLayerSpec
from repro.photonics.microring import rings_area_m2

M2_TO_MM2 = 1e6
"""Square meters to square millimeters."""


# ---------------------------------------------------------------------------
# Ring counts and area (paper section V-A, Fig. 5).
# ---------------------------------------------------------------------------


def microrings_unfiltered(spec: ConvLayerSpec) -> int:
    """Rings without receptive-field filtering, eq. (4)."""
    return spec.n_input * spec.num_kernels * spec.n_kernel


def microrings_filtered(spec: ConvLayerSpec) -> int:
    """Rings with non-receptive-field values filtered, eq. (5)."""
    return spec.num_kernels * spec.n_kernel


def rings_per_kernel_bank(spec: ConvLayerSpec) -> int:
    """Rings in a single kernel's weight bank: ``Nkernel``.

    This is the number behind the paper's "conv4 ... 3456 microrings ...
    2.2 mm^2" example (see DESIGN.md on the eq. 5 vs. text discrepancy).
    """
    return spec.n_kernel


def ring_savings_factor(spec: ConvLayerSpec) -> float:
    """Unfiltered-to-filtered ring ratio; equals ``Ninput`` exactly.

    For AlexNet conv1 this is 150 528 — the paper's "more than 150k x"
    saving.
    """
    return microrings_unfiltered(spec) / microrings_filtered(spec)


def bank_area_mm2(num_rings: int, config: PCNNAConfig | None = None) -> float:
    """Layout area of ``num_rings`` microrings (mm^2).

    With the default 25 um x 25 um footprint, 3456 rings give 2.16 mm^2 —
    the paper's 2.2 mm^2 example.
    """
    cfg = config if config is not None else PCNNAConfig()
    return rings_area_m2(num_rings, cfg.ring_design) * M2_TO_MM2


# ---------------------------------------------------------------------------
# Execution time (paper section V-B, Fig. 6).
# ---------------------------------------------------------------------------


def optical_core_time_s(spec: ConvLayerSpec, config: PCNNAConfig | None = None) -> float:
    """PCNNA(O): optical-core layer time, eq. (7): ``Nlocs / f_clock``.

    Independent of the kernel count K — the paper's key scaling argument.
    """
    cfg = config if config is not None else PCNNAConfig()
    passes = _kernel_passes(spec, cfg)
    return passes * spec.n_locs / cfg.fast_clock_hz


def dac_updates_per_location(
    spec: ConvLayerSpec, config: PCNNAConfig | None = None
) -> float:
    """Values each DAC converts per kernel location, eq. (8).

    ``(nc * m * s) / N_DAC`` — for AlexNet conv4 with 10 DACs this is
    ``384 * 3 * 1 / 10 = 115.2``, the paper's "~116".
    """
    cfg = config if config is not None else PCNNAConfig()
    return spec.stride_update_values / cfg.num_input_dacs


def per_location_dac_time_s(
    spec: ConvLayerSpec, config: PCNNAConfig | None = None
) -> float:
    """Time the input-DAC array needs per kernel location (s)."""
    cfg = config if config is not None else PCNNAConfig()
    return dac_updates_per_location(spec, cfg) / cfg.input_dac.sample_rate_hz


def per_location_adc_time_s(
    spec: ConvLayerSpec, config: PCNNAConfig | None = None
) -> float:
    """Time the ADC array needs to digitize K outputs per location (s).

    Not part of the paper's model (see module docstring); used by the
    ADC-bound ablation.
    """
    cfg = config if config is not None else PCNNAConfig()
    kernels_per_pass = _kernels_per_pass(spec, cfg)
    return kernels_per_pass / (cfg.num_adcs * cfg.adc.sample_rate_hz)


def full_system_time_s(
    spec: ConvLayerSpec,
    config: PCNNAConfig | None = None,
    include_adc_bound: bool = False,
) -> float:
    """PCNNA(O+E): DAC-bound full-system layer time.

    Per location the system pays the slowest of the optical MAC cycle and
    the DAC refill (and, optionally, the ADC drain); the paper's model is
    the DAC term alone, which dominates for every AlexNet layer.
    """
    cfg = config if config is not None else PCNNAConfig()
    per_location = max(per_location_dac_time_s(spec, cfg), cfg.fast_clock_period_s)
    if include_adc_bound:
        per_location = max(per_location, per_location_adc_time_s(spec, cfg))
    passes = _kernel_passes(spec, cfg)
    return passes * spec.n_locs * per_location


def weight_load_time_s(
    spec: ConvLayerSpec, config: PCNNAConfig | None = None
) -> float:
    """Once-per-layer kernel-weight conversion time (s).

    All ``K * Nkernel`` weights pass through the weight-DAC array when a
    new layer is loaded; the paper excludes this from Tconv because
    weights are reused across all locations (and across inputs).
    """
    cfg = config if config is not None else PCNNAConfig()
    total_weights = microrings_filtered(spec)
    return total_weights / (cfg.num_weight_dacs * cfg.weight_dac.sample_rate_hz)


def _kernels_per_pass(spec: ConvLayerSpec, config: PCNNAConfig) -> int:
    """Kernels processed simultaneously, capped by instantiated banks."""
    if config.max_parallel_kernels is None:
        return spec.num_kernels
    return min(spec.num_kernels, config.max_parallel_kernels)


def _kernel_passes(spec: ConvLayerSpec, config: PCNNAConfig) -> int:
    """Sequential passes over the input needed to cover all K kernels."""
    per_pass = _kernels_per_pass(spec, config)
    return -(-spec.num_kernels // per_pass)


def speedup(baseline_time_s: float, accelerated_time_s: float) -> float:
    """Baseline-over-accelerated time ratio.

    Raises:
        ValueError: if either time is not strictly positive.
    """
    if baseline_time_s <= 0 or accelerated_time_s <= 0:
        raise ValueError(
            "speedup needs positive times, got "
            f"{baseline_time_s!r} / {accelerated_time_s!r}"
        )
    return baseline_time_s / accelerated_time_s


# ---------------------------------------------------------------------------
# Per-layer roll-up.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerAnalysis:
    """Every analytical quantity for one conv layer on one config.

    Attributes mirror the paper's evaluation section; times in seconds,
    areas in mm^2.
    """

    spec: ConvLayerSpec
    rings_unfiltered: int
    rings_filtered: int
    rings_per_bank: int
    ring_savings: float
    bank_area_mm2: float
    layer_rings_area_mm2: float
    optical_time_s: float
    full_system_time_s: float
    weight_load_time_s: float
    dac_updates_per_location: float
    macs: int

    @property
    def name(self) -> str:
        """Layer name."""
        return self.spec.name


def analyze_layer(
    spec: ConvLayerSpec, config: PCNNAConfig | None = None
) -> LayerAnalysis:
    """Compute the full analytical report for one conv layer."""
    cfg = config if config is not None else PCNNAConfig()
    filtered = microrings_filtered(spec)
    per_bank = rings_per_kernel_bank(spec)
    return LayerAnalysis(
        spec=spec,
        rings_unfiltered=microrings_unfiltered(spec),
        rings_filtered=filtered,
        rings_per_bank=per_bank,
        ring_savings=ring_savings_factor(spec),
        bank_area_mm2=bank_area_mm2(per_bank, cfg),
        layer_rings_area_mm2=bank_area_mm2(filtered, cfg),
        optical_time_s=optical_core_time_s(spec, cfg),
        full_system_time_s=full_system_time_s(spec, cfg),
        weight_load_time_s=weight_load_time_s(spec, cfg),
        dac_updates_per_location=dac_updates_per_location(spec, cfg),
        macs=spec.macs,
    )


def analyze_network(
    specs: list[ConvLayerSpec], config: PCNNAConfig | None = None
) -> list[LayerAnalysis]:
    """Analyze every conv layer of a network, in order."""
    cfg = config if config is not None else PCNNAConfig()
    return [analyze_layer(spec, cfg) for spec in specs]


def network_totals(analyses: list[LayerAnalysis]) -> dict[str, float]:
    """Aggregate totals across layers (times summed, rings summed).

    Returns:
        Mapping with ``optical_time_s``, ``full_system_time_s``,
        ``weight_load_time_s``, ``rings_filtered``, ``rings_unfiltered``
        and ``macs`` keys.
    """
    return {
        "optical_time_s": sum(a.optical_time_s for a in analyses),
        "full_system_time_s": sum(a.full_system_time_s for a in analyses),
        "weight_load_time_s": sum(a.weight_load_time_s for a in analyses),
        "rings_filtered": float(sum(a.rings_filtered for a in analyses)),
        "rings_unfiltered": float(sum(a.rings_unfiltered for a in analyses)),
        "macs": float(sum(a.macs for a in analyses)),
    }
