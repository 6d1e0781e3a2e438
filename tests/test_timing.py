"""Tests for the cycle-level timing simulator and its agreement with the
paper's analytical model."""

from dataclasses import replace

import pytest

from repro.core.config import PAPER_CONFIG, PCNNAConfig, paper_assumptions
from repro.core.scheduler import dram_traffic_bytes
from repro.core.timing import simulate_layer, simulate_network
from repro.nn.shapes import ConvLayerSpec
from repro.workloads import alexnet_conv_specs, alexnet_layer


class TestAgreementWithAnalyticalModel:
    """Under the paper's implicit assumptions (memory keeps up, no ADC
    serialization), the simulator must track eq. 7/8 closely."""

    def test_alexnet_agreement_within_25_percent(self):
        config = paper_assumptions()
        for spec in alexnet_conv_specs():
            result = simulate_layer(spec, config, include_adc=False)
            # Slack comes from row-start window refills and per-DAC ceil.
            assert 1.0 <= result.analytical_agreement < 1.25, spec.name

    def test_simulated_never_faster_than_analytical(self):
        config = paper_assumptions()
        for spec in alexnet_conv_specs():
            result = simulate_layer(spec, config, include_adc=False)
            assert result.pipelined_time_s >= result.analytical_full_s

    def test_pipelined_never_slower_than_serial(self):
        config = paper_assumptions()
        for spec in alexnet_conv_specs():
            result = simulate_layer(spec, config)
            # Serial = sum of all stages; pipelined overlaps them.
            assert result.pipelined_time_s <= result.serial_time_s * 1.01


class TestBottleneckIdentification:
    def test_dac_bound_under_paper_assumptions(self):
        config = paper_assumptions()
        result = simulate_layer(
            alexnet_layer("conv4"), config, include_adc=False
        )
        assert result.bottleneck == "convert"
        assert result.dac_bound_locations > 0

    def test_adc_binds_large_k_with_one_adc(self):
        # Digitizing 384 outputs per location at 2.8 GSa/s exceeds the
        # DAC refill — the serialization the paper's model omits.
        config = paper_assumptions()
        result = simulate_layer(alexnet_layer("conv4"), config, include_adc=True)
        assert result.bottleneck == "digitize"
        assert result.adc_bound_locations > 0

    def test_parallel_adcs_restore_dac_bound(self):
        from dataclasses import replace

        config = replace(paper_assumptions(), num_adcs=64)
        result = simulate_layer(alexnet_layer("conv4"), config, include_adc=True)
        assert result.bottleneck == "convert"

    def test_ddr3_is_memory_bound(self):
        # With a realistic DDR3 channel the fetch stage dominates — the
        # extension finding that benchmarks/test_ablation_bottlenecks.py
        # (test_dram_bandwidth) regenerates.
        result = simulate_layer(
            alexnet_layer("conv4"), PCNNAConfig(), include_adc=False
        )
        assert result.bottleneck == "fetch"


class TestTrafficAndWeights:
    def test_dram_traffic_positive(self):
        result = simulate_layer(alexnet_layer("conv5"), paper_assumptions())
        assert result.dram_bytes > 0

    def test_dram_bytes_match_traffic_model_single_pass(self):
        spec = alexnet_layer("conv2")  # Working set exceeds the SRAM.
        result = simulate_layer(spec, PAPER_CONFIG)
        assert result.dram_bytes == dram_traffic_bytes(spec)["total"]

    def test_dram_bytes_refetch_inputs_every_pass(self):
        spec = alexnet_layer("conv2")
        config = replace(PAPER_CONFIG, max_parallel_kernels=64)  # 4 passes.
        traffic = dram_traffic_bytes(spec)
        result = simulate_layer(spec, config)
        assert result.dram_bytes == (
            traffic["weight_read"]
            + 4 * traffic["input_read"]
            + traffic["output_write"]
        )

    def test_weight_load_accounts_all_weights(self):
        spec = alexnet_layer("conv1")
        result = simulate_layer(spec, paper_assumptions())
        # One 6 GSa/s weight DAC: >= 34 848 conversions.
        assert result.weight_load_time_s >= spec.total_weights / 6e9

    def test_sram_capacity_changes_fetch_traffic(self):
        from dataclasses import replace

        from repro.electronics.sram import SramSpec

        spec = alexnet_layer("conv4")  # Working set exceeds 8 K words.
        small = simulate_layer(spec, paper_assumptions(), include_adc=False)
        big_sram = replace(
            paper_assumptions(), sram=SramSpec(capacity_bits=1024 * 1024)
        )
        large = simulate_layer(spec, big_sram, include_adc=False)
        # A big enough cache enables first-touch-only fetching.
        assert large.dram_bytes < small.dram_bytes


class TestKernelPasses:
    def test_bank_cap_scales_time(self):
        from dataclasses import replace

        spec = alexnet_layer("conv4")
        full = simulate_layer(spec, paper_assumptions(), include_adc=False)
        capped_config = replace(paper_assumptions(), max_parallel_kernels=96)
        capped = simulate_layer(spec, capped_config, include_adc=False)
        # 384 kernels over 96 banks = 4 passes, ~4x the time.
        assert capped.pipelined_time_s == pytest.approx(
            4 * full.pipelined_time_s, rel=0.05
        )


class TestSimulateNetwork:
    def test_layer_order_preserved(self):
        results = simulate_network(alexnet_conv_specs(), paper_assumptions())
        assert [result.name for result in results] == [
            "conv1", "conv2", "conv3", "conv4", "conv5",
        ]

    def test_small_synthetic_layer(self):
        spec = ConvLayerSpec("tiny", n=6, m=3, nc=2, num_kernels=4)
        result = simulate_layer(spec, paper_assumptions())
        assert result.pipelined_time_s > 0
        assert result.stages.compute_s == pytest.approx(
            spec.n_locs * 0.2e-9
        )


# simulate_layer outputs recorded with float.hex before the per-location
# loop became a reduction over the stage array, so a one-ulp change in
# any fold fails here.  Columns: config, layer, include_adc,
# pipelined_time_s, serial_time_s, (fetch, convert, compute, digitize),
# bottleneck, DAC-bound and ADC-bound locations, dram_bytes (single-pass
# rows only).
PINNED_LAYERS = [
    ("paper", "conv1", True, "0x1.b3d128512d067p-14", "0x1.1cac4aa9674e4p-13",
     ("0x1.953d94601ebdep-16", "0x1.e7d35518d2d82p-18",
      "0x1.44ce911d1e559p-21", "0x1.b3025dc6ff82ep-14"),
     "digitize", 0, 3024, 959670),
    ("paper", "conv1", False, "0x1.98186526a0420p-16", "0x1.0cac6f179e334p-15",
     ("0x1.953d94601ebdep-16", "0x1.e7d35518d2d82p-18",
      "0x1.44ce911d1e559p-21", "0x0.0p+0"),
     "fetch", 0, 0, 959670),
    ("paper", "conv2", True, "0x1.3c6369e2e0436p-14", "0x1.1dc672b9f1748p-13",
     ("0x1.074c249bc0bd5p-14", "0x1.c15c677037d91p-18",
      "0x1.391a65cd5d6b3p-23", "0x1.178e6d2e37ff7p-14"),
     "digitize", 0, 702, 2405568),
    ("paper", "conv2", False, "0x1.0c041a40f3e82p-14", "0x1.23fe7845aae99p-14",
     ("0x1.074c249bc0bd5p-14", "0x1.c15c677037d91p-18",
      "0x1.391a65cd5d6b3p-23", "0x0.0p+0"),
     "fetch", 0, 0, 2405568),
    ("paper", "conv3", True, "0x1.c792c4e305e9bp-16", "0x1.9bfe50c0327ccp-15",
     ("0x1.88963c170782cp-16", "0x1.4fe13ec9bf51fp-19",
      "0x1.2256fc6cf6c36p-25", "0x1.84d91211ef113p-16"),
     "fetch", 0, 156, 2198784),
    ("paper", "conv3", False, "0x1.9ab4cca5e0791p-16", "0x1.b3238f6e75e86p-16",
     ("0x1.88963c170782cp-16", "0x1.4fe13ec9bf51fp-19",
      "0x1.2256fc6cf6c36p-25", "0x0.0p+0"),
     "fetch", 0, 0, 2198784),
    ("paper", "conv4", True, "0x1.3407997c685cdp-15", "0x1.045e407eff69fp-14",
     ("0x1.2670ad1145a41p-15", "0x1.f96b524a66982p-19",
      "0x1.2256fc6cf6c36p-25", "0x1.84d91211ef113p-16"),
     "fetch", 0, 0, 3233280),
    ("paper", "conv4", False, "0x1.3407997c685cdp-15", "0x1.464ff7f5074b4p-15",
     ("0x1.2670ad1145a41p-15", "0x1.f96b524a66982p-19",
      "0x1.2256fc6cf6c36p-25", "0x0.0p+0"),
     "fetch", 0, 0, 3233280),
    ("paper", "conv5", True, "0x1.3407997c685cdp-15", "0x1.c7eda8a5ac502p-15",
     ("0x1.2670ad1145a41p-15", "0x1.f96b524a66982p-19",
      "0x1.2256fc6cf6c36p-25", "0x1.033b61614a09cp-16"),
     "fetch", 0, 0, 2305280),
    ("paper", "conv5", False, "0x1.3407997c685cdp-15", "0x1.464ff7f5074b4p-15",
     ("0x1.2670ad1145a41p-15", "0x1.f96b524a66982p-19",
      "0x1.2256fc6cf6c36p-25", "0x0.0p+0"),
     "fetch", 0, 0, 2305280),
    ("assump", "conv1", True, "0x1.b370ceeef87c9p-14", "0x1.d4098536f6922p-14",
     ("0x1.53f0be943eb30p-32", "0x1.e7d35518d2d82p-18",
      "0x1.44ce911d1e559p-21", "0x1.b3025dc6ff82ep-14"),
     "digitize", 0, 3025, 959670),
    ("assump", "conv1", False, "0x1.e91128f519a6ap-18", "0x1.08393b7fb879fp-17",
     ("0x1.53f0be943eb30p-32", "0x1.e7d35518d2d82p-18",
      "0x1.44ce911d1e559p-21", "0x0.0p+0"),
     "convert", 3025, 0, 959670),
    ("assump", "conv2", True, "0x1.18b4f0437a994p-14", "0x1.34419db6d3a94p-14",
     ("0x1.b9bd62fb0db08p-31", "0x1.c15c677037d91p-18",
      "0x1.391a65cd5d6b3p-23", "0x1.178e6d2e37ff7p-14"),
     "digitize", 0, 729, 2405568),
    ("assump", "conv2", False, "0x1.c969fd050a0dap-18", "0x1.cb330889ba9cep-18",
     ("0x1.b9bd62fb0db08p-31", "0x1.c15c677037d91p-18",
      "0x1.391a65cd5d6b3p-23", "0x0.0p+0"),
     "convert", 729, 0, 2405568),
    ("assump", "conv3", True, "0x1.8bc024917eac0p-16", "0x1.af67aebcc007cp-16",
     ("0x1.49536290f51ccp-32", "0x1.4fe13ec9bf51fp-19",
      "0x1.2256fc6cf6c36p-25", "0x1.84d91211ef113p-16"),
     "digitize", 0, 169, 2198784),
    ("assump", "conv3", False, "0x1.5f61cb883a5d9p-19", "0x1.5474e55687b4bp-19",
     ("0x1.49536290f51ccp-32", "0x1.4fe13ec9bf51fp-19",
      "0x1.2256fc6cf6c36p-25", "0x0.0p+0"),
     "convert", 169, 0, 2198784),
    ("assump", "conv4", True, "0x1.8bc024917eac0p-16", "0x1.c49995d686390p-16",
     ("0x1.edfd13d96fadap-32", "0x1.f96b524a66982p-19",
      "0x1.2256fc6cf6c36p-25", "0x1.84d91211ef113p-16"),
     "digitize", 0, 169, 3233280),
    ("assump", "conv4", False, "0x1.0851c731158b1p-18", "0x1.fe041e24b93ebp-19",
     ("0x1.edfd13d96fadap-32", "0x1.f96b524a66982p-19",
      "0x1.2256fc6cf6c36p-25", "0x0.0p+0"),
     "convert", 169, 0, 3233280),
    ("assump", "conv5", True, "0x1.07d56db65470fp-16", "0x1.42fbe525e1319p-16",
     ("0x1.edfd13d96fadap-32", "0x1.f96b524a66982p-19",
      "0x1.2256fc6cf6c36p-25", "0x1.033b61614a09cp-16"),
     "digitize", 0, 169, 2305280),
    ("assump", "conv5", False, "0x1.0851c731158b1p-18", "0x1.fe041e24b93ebp-19",
     ("0x1.edfd13d96fadap-32", "0x1.f96b524a66982p-19",
      "0x1.2256fc6cf6c36p-25", "0x0.0p+0"),
     "convert", 169, 0, 2305280),
    ("k96", "conv2", True, "0x1.8d4e31bc3ab16p-13", "0x1.299ee8e93fed8p-12",
     ("0x1.8af236e9a11c0p-13", "0x1.51054d9429e2dp-16",
      "0x1.d5a798b40c20cp-22", "0x1.3a803ad3fef93p-14"),
     "fetch", 0, 0, None),
]
PINNED_CONFIGS = {
    "paper": PAPER_CONFIG,
    "assump": paper_assumptions(),
    "k96": replace(PAPER_CONFIG, max_parallel_kernels=96),
}


@pytest.mark.parametrize(
    "row",
    PINNED_LAYERS,
    ids=[f"{row[0]}-{row[1]}-adc{int(row[2])}" for row in PINNED_LAYERS],
)
def test_simulate_layer_pinned_bit_exact(row):
    config, layer, include_adc, pipelined, serial, stages = row[:6]
    bottleneck, dac_bound, adc_bound, dram_bytes = row[6:]
    result = simulate_layer(alexnet_layer(layer), PINNED_CONFIGS[config], include_adc)
    assert result.pipelined_time_s.hex() == pipelined
    assert result.serial_time_s.hex() == serial
    got = result.stages
    assert (
        got.fetch_s.hex(), got.convert_s.hex(), got.compute_s.hex(), got.digitize_s.hex()
    ) == stages
    assert result.bottleneck == bottleneck
    assert result.dac_bound_locations == dac_bound
    assert result.adc_bound_locations == adc_bound
    if dram_bytes is not None:
        assert result.dram_bytes == dram_bytes
