"""Extension — energy per inference: PCNNA vs Eyeriss vs YodaNN.

The paper motivates photonics with "low power consumption" but reports
no energy numbers.  This benchmark rolls up PCNNA's component powers
(lasers, ring heaters, DACs/ADCs, SRAM, DRAM traffic) over the DAC-bound
layer times and compares against the electronic baselines'
energy-per-MAC models.
"""

import pytest
from conftest import emit

from repro.analysis import format_table
from repro.baselines import EyerissModel, YodaNNModel
from repro.core.power import estimate_layer_power, estimate_network_energy_j


def _format_energy(joules: float) -> str:
    for scale, unit in [(1.0, "J"), (1e-3, "mJ"), (1e-6, "uJ"), (1e-9, "nJ")]:
        if joules >= scale:
            return f"{joules / scale:.3g} {unit}"
    return f"{joules / 1e-12:.3g} pJ"


def test_energy_per_layer(benchmark, alexnet_specs):
    """Per-layer conv energy for all three accelerators."""
    eyeriss = EyerissModel()
    yodann = YodaNNModel()

    def compute_rows():
        rows = []
        for spec in alexnet_specs:
            pcnna = estimate_layer_power(spec)
            rows.append(
                [
                    spec.name,
                    pcnna.layer_energy_j,
                    yodann.layer_energy_j(spec),
                    eyeriss.layer_energy_j(spec),
                ]
            )
        return rows

    rows = benchmark(compute_rows)
    emit(
        format_table(
            ["layer", "PCNNA", "YodaNN", "Eyeriss"],
            [
                [name] + [_format_energy(e) for e in energies]
                for name, *energies in rows
            ],
            title="Extension: conv energy per inference",
        )
    )
    # Finding (regenerated by this test): PCNNA wins on latency but NOT
    # uniformly on energy — with all K banks live, ring heater power
    # (~1 mW x K x Nkernel rings) makes the ring-heavy layers (conv4:
    # 1.33 M rings = 1.3 kW) comparable to or worse than Eyeriss, while
    # the ring-light conv1 is ~4x cheaper.  The paper's "low power"
    # motivation holds only with bank-count caps or lower heater budgets.
    by_name = {row[0]: row for row in rows}
    assert by_name["conv1"][1] < by_name["conv1"][3]      # conv1: PCNNA wins
    assert by_name["conv4"][1] > by_name["conv4"][2]      # never beats YodaNN


def test_power_breakdown_conv4(benchmark, alexnet_specs):
    """Where PCNNA's power goes on its biggest layer."""
    conv4 = alexnet_specs[3]
    report = benchmark(estimate_layer_power, conv4)
    emit(
        format_table(
            ["component", "power"],
            [
                ["lasers", f"{report.laser_w:.2f} W"],
                ["ring heaters", f"{report.tuning_w:.2f} W"],
                ["DACs", f"{report.dac_w:.2f} W"],
                ["ADCs", f"{report.adc_w:.3f} W"],
                ["SRAM", f"{report.sram_w:.4f} W"],
                ["receivers", f"{report.receiver_w:.2f} W"],
                ["total", f"{report.total_power_w:.2f} W"],
            ],
            title="Extension: PCNNA power breakdown, conv4 (384 banks live)",
        )
    )
    # Ring thermal tuning dominates with 1.3 M live rings at ~1 mW each —
    # the hidden cost of the paper's full-parallel-K mapping.
    assert report.tuning_w > report.laser_w
    assert report.tuning_w > report.dac_w


def test_network_energy_totals(benchmark, alexnet_specs):
    """Whole conv stack energy, PCNNA vs baselines."""
    eyeriss = EyerissModel()
    yodann = YodaNNModel()

    def totals():
        pcnna = estimate_network_energy_j(alexnet_specs)
        eyeriss_total = sum(
            eyeriss.layer_energy_j(spec) for spec in alexnet_specs
        )
        yodann_total = sum(yodann.layer_energy_j(spec) for spec in alexnet_specs)
        return pcnna, yodann_total, eyeriss_total

    pcnna, yodann_total, eyeriss_total = benchmark(totals)
    emit(
        "AlexNet conv-stack energy per inference:\n"
        f"  PCNNA:   {_format_energy(pcnna)}\n"
        f"  YodaNN:  {_format_energy(yodann_total)}\n"
        f"  Eyeriss: {_format_energy(eyeriss_total)}"
    )
    assert pcnna < eyeriss_total
