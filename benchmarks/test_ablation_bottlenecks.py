"""Ablation — bottlenecks the paper's model abstracts away.

The paper's full-system model serializes only the input DACs.  The
cycle-level simulator exposes two further constraints:

* **ADC serialization** — digitizing K = 384 outputs per location through
  one 2.8 GSa/s ADC takes 137 ns, 7x the DAC's 19 ns;
* **DRAM bandwidth** — at DDR3 rates the per-location input stream
  (~2.3 KB) takes 180 ns, making the system memory-bound.

Both are extension findings; this file regenerates them
(``test_adc_serialization``, ``test_dram_bandwidth``).
"""

from dataclasses import replace

import pytest
from conftest import emit

from repro.analysis import format_table, format_time
from repro.core.config import PCNNAConfig, paper_assumptions
from repro.core.timing import simulate_layer


def test_adc_serialization(benchmark, alexnet_specs):
    """One ADC is the true bottleneck for K=384; ~64 ADCs restore the
    paper's DAC-bound regime."""
    conv4 = alexnet_specs[3]
    config = paper_assumptions()

    def simulate_variants():
        one_adc = simulate_layer(conv4, config, include_adc=True)
        many_adc = simulate_layer(
            conv4, replace(config, num_adcs=64), include_adc=True
        )
        paper_model = simulate_layer(conv4, config, include_adc=False)
        return one_adc, many_adc, paper_model

    one_adc, many_adc, paper_model = benchmark.pedantic(
        simulate_variants, rounds=1, iterations=1
    )
    emit(
        format_table(
            ["variant", "layer time", "bottleneck"],
            [
                ["paper model (ADC ignored)", format_time(paper_model.pipelined_time_s),
                 paper_model.bottleneck],
                ["1 ADC (cycle sim)", format_time(one_adc.pipelined_time_s),
                 one_adc.bottleneck],
                ["64 ADCs (cycle sim)", format_time(many_adc.pipelined_time_s),
                 many_adc.bottleneck],
            ],
            title="Ablation: ADC serialization, AlexNet conv4",
        )
    )
    assert one_adc.bottleneck == "digitize"
    assert many_adc.bottleneck == "convert"
    assert one_adc.pipelined_time_s > paper_model.pipelined_time_s


def test_dram_bandwidth(benchmark, alexnet_specs):
    """DDR3-class bandwidth makes the system memory-bound; the paper's
    timing implicitly assumes memory keeps up."""
    conv4 = alexnet_specs[3]

    def simulate_variants():
        ddr3 = simulate_layer(conv4, PCNNAConfig(), include_adc=False)
        unbounded = simulate_layer(conv4, paper_assumptions(), include_adc=False)
        return ddr3, unbounded

    ddr3, unbounded = benchmark.pedantic(simulate_variants, rounds=1, iterations=1)
    emit(
        format_table(
            ["memory model", "layer time", "bottleneck", "vs paper model"],
            [
                ["DDR3 12.8 GB/s", format_time(ddr3.pipelined_time_s),
                 ddr3.bottleneck,
                 f"{ddr3.pipelined_time_s / ddr3.analytical_full_s:.1f}x"],
                ["unbounded", format_time(unbounded.pipelined_time_s),
                 unbounded.bottleneck,
                 f"{unbounded.pipelined_time_s / unbounded.analytical_full_s:.1f}x"],
            ],
            title="Ablation: DRAM bandwidth, AlexNet conv4",
        )
    )
    assert ddr3.bottleneck == "fetch"
    assert unbounded.bottleneck == "convert"
    # Even memory-bound, PCNNA stays ~2 orders ahead of Eyeriss (4.6 ms).
    assert ddr3.pipelined_time_s < 4.6e-3 / 100


def test_sram_capacity(benchmark, alexnet_specs):
    """A larger SRAM enables first-touch-only DRAM fetching on layers
    whose m-row working set exceeds the paper's 8 K words."""
    from repro.electronics.sram import SramSpec

    conv4 = alexnet_specs[3]

    def simulate_variants():
        small = simulate_layer(conv4, paper_assumptions(), include_adc=False)
        big = simulate_layer(
            conv4,
            replace(paper_assumptions(), sram=SramSpec(capacity_bits=1024 * 1024)),
            include_adc=False,
        )
        return small, big

    small, big = benchmark.pedantic(simulate_variants, rounds=1, iterations=1)
    emit(
        format_table(
            ["SRAM", "DRAM traffic", "layer time"],
            [
                ["128 kb (paper)", f"{small.dram_bytes / 1024:.0f} KiB",
                 format_time(small.pipelined_time_s)],
                ["1 Mb", f"{big.dram_bytes / 1024:.0f} KiB",
                 format_time(big.pipelined_time_s)],
            ],
            title="Ablation: SRAM capacity, AlexNet conv4",
        )
    )
    assert big.dram_bytes < small.dram_bytes
