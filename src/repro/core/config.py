"""PCNNA system configuration.

:class:`PCNNAConfig` gathers every hardware parameter of the paper's
design (section IV-V) with the paper's values as defaults:

* fast clock 5 GHz, one optical MAC wave per fast cycle;
* 10 input DACs + 1 kernel-weight DAC, 16 b / 6 GSa/s each;
* 2.8 GSa/s output ADC;
* 128 kb / 7 ns / 0.443 mm^2 SRAM cache;
* 25 um x 25 um microring footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.electronics.clock import PCNNA_FAST_CLOCK_HZ, PCNNA_MAIN_CLOCK_HZ
from repro.electronics.converters import (
    PCNNA_INPUT_DAC,
    PCNNA_OUTPUT_ADC,
    PCNNA_WEIGHT_DAC,
    ConverterSpec,
)
from repro.electronics.dram import DramSpec
from repro.electronics.sram import SramSpec
from repro.photonics.microring import MicroringDesign
from repro.photonics.noise import NoiseConfig, ideal


@dataclass(frozen=True)
class PCNNAConfig:
    """Full hardware configuration of a PCNNA instance.

    Attributes:
        fast_clock_hz: optical-core clock (paper: 5 GHz); one receptive-
            field MAC wave completes per fast cycle.
        main_clock_hz: external-interface clock.
        num_input_dacs: parallel input DACs (paper: 10).
        num_weight_dacs: parallel kernel-weight DACs (paper: 1).
        num_adcs: parallel output ADCs (paper implies 1).
        input_dac: input DAC converter spec (16 b, 6 GSa/s).
        weight_dac: kernel-weight DAC spec.
        adc: output ADC spec (2.8 GSa/s).
        sram: receptive-field cache spec (128 kb, 7 ns).
        dram: off-chip memory spec.
        ring_design: microring design (footprint sets the area model).
        noise: photonic non-ideality configuration.
        value_bits: word width of feature-map/weight values in memory.
        max_parallel_kernels: weight banks physically instantiated; a
            layer with more kernels is processed in ceil(K / banks)
            sequential passes.  ``None`` means "as many as the largest
            layer needs" (the paper's idealization).
    """

    fast_clock_hz: float = PCNNA_FAST_CLOCK_HZ
    main_clock_hz: float = PCNNA_MAIN_CLOCK_HZ
    num_input_dacs: int = 10
    num_weight_dacs: int = 1
    num_adcs: int = 1
    input_dac: ConverterSpec = PCNNA_INPUT_DAC
    weight_dac: ConverterSpec = PCNNA_WEIGHT_DAC
    adc: ConverterSpec = PCNNA_OUTPUT_ADC
    sram: SramSpec = field(default_factory=SramSpec)
    dram: DramSpec = field(default_factory=DramSpec)
    ring_design: MicroringDesign = field(default_factory=MicroringDesign)
    noise: NoiseConfig = field(default_factory=ideal)
    value_bits: int = 16
    max_parallel_kernels: int | None = None

    def __post_init__(self) -> None:
        if self.fast_clock_hz <= 0:
            raise ValueError(
                f"fast clock must be positive, got {self.fast_clock_hz!r}"
            )
        if self.main_clock_hz <= 0:
            raise ValueError(
                f"main clock must be positive, got {self.main_clock_hz!r}"
            )
        if self.num_input_dacs <= 0:
            raise ValueError(
                f"need at least one input DAC, got {self.num_input_dacs!r}"
            )
        if self.num_weight_dacs <= 0:
            raise ValueError(
                f"need at least one weight DAC, got {self.num_weight_dacs!r}"
            )
        if self.num_adcs <= 0:
            raise ValueError(f"need at least one ADC, got {self.num_adcs!r}")
        if self.value_bits <= 0:
            raise ValueError(
                f"value width must be positive bits, got {self.value_bits!r}"
            )
        if self.max_parallel_kernels is not None and self.max_parallel_kernels <= 0:
            raise ValueError(
                "max_parallel_kernels must be positive or None, got "
                f"{self.max_parallel_kernels!r}"
            )

    @property
    def fast_clock_period_s(self) -> float:
        """Period of one fast-clock cycle (s)."""
        return 1.0 / self.fast_clock_hz

    @property
    def value_bytes(self) -> int:
        """Bytes per stored value (rounded up)."""
        return (self.value_bits + 7) // 8

    def with_noise(self, noise: NoiseConfig) -> "PCNNAConfig":
        """A copy of this config with a different noise configuration."""
        return replace(self, noise=noise)

    def with_dacs(self, num_input_dacs: int) -> "PCNNAConfig":
        """A copy of this config with a different input-DAC count."""
        return replace(self, num_input_dacs=num_input_dacs)

    def with_fast_clock(self, fast_clock_hz: float) -> "PCNNAConfig":
        """A copy of this config with a different fast clock."""
        return replace(self, fast_clock_hz=fast_clock_hz)


PAPER_CONFIG = PCNNAConfig()
"""The paper's exact configuration (all defaults)."""


def paper_assumptions() -> PCNNAConfig:
    """The paper's *implicit* timing assumptions, made explicit.

    The paper declares the input DAC the full-system bottleneck, which
    presumes off-chip memory always keeps up.  This preset raises the
    DRAM bandwidth far above any per-location demand so the cycle-level
    simulator reproduces the paper's DAC-bound regime; the default
    :data:`PAPER_CONFIG` keeps a realistic DDR3 channel, under which the
    simulator shows the system is actually memory-bound (an extension
    finding regenerated by ``test_dram_bandwidth`` in
    ``benchmarks/test_ablation_bottlenecks.py``).
    """
    return replace(PCNNAConfig(), dram=DramSpec(bandwidth_bytes_per_s=1e15))
