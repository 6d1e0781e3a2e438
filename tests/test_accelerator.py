"""Tests for the functional photonic convolution engine and PCNNA facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import PCNNA, PhotonicConvolution
from repro.core.config import PCNNAConfig
from repro.nn import build_lenet5, functional as F
from repro.photonics.noise import NoiseConfig
from repro.workloads import alexnet_layer


class TestIdealExactness:
    def test_matrix_method_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 8, 8))
        k = rng.normal(size=(4, 3, 3, 3))
        out = PhotonicConvolution(method="matrix").convolve(x, k)
        assert np.allclose(out, F.conv2d(x, k), atol=1e-10)

    def test_device_method_exact(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        out = PhotonicConvolution(method="device").convolve(x, k)
        assert np.allclose(out, F.conv2d(x, k), atol=1e-9)

    def test_device_and_matrix_agree(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 7, 7))
        k = rng.normal(size=(2, 1, 3, 3))
        device = PhotonicConvolution(method="device").convolve(x, k, 2, 1)
        matrix = PhotonicConvolution(method="matrix").convolve(x, k, 2, 1)
        assert np.allclose(device, matrix, atol=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        stride=st.integers(min_value=1, max_value=2),
        padding=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_exactness_property(self, seed, stride, padding):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        out = PhotonicConvolution().convolve(x, k, stride, padding)
        assert np.allclose(out, F.conv2d(x, k, stride, padding), atol=1e-9)

    def test_signed_inputs_handled(self):
        # Inputs spanning negative values exercise the affine encoding.
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, -1, size=(1, 5, 5))  # strictly negative
        k = rng.normal(size=(2, 1, 2, 2))
        out = PhotonicConvolution().convolve(x, k)
        assert np.allclose(out, F.conv2d(x, k), atol=1e-9)

    def test_positive_inputs_with_padding(self):
        # Strictly positive inputs + zero padding: the affine range must
        # be extended to contain the padding zeros.
        rng = np.random.default_rng(4)
        x = rng.uniform(2, 3, size=(1, 5, 5))
        k = rng.normal(size=(2, 1, 3, 3))
        out = PhotonicConvolution().convolve(x, k, padding=1)
        assert np.allclose(out, F.conv2d(x, k, padding=1), atol=1e-9)

    def test_constant_input(self):
        x = np.full((1, 4, 4), 2.5)
        k = np.random.default_rng(5).normal(size=(2, 1, 2, 2))
        out = PhotonicConvolution().convolve(x, k)
        assert np.allclose(out, F.conv2d(x, k), atol=1e-9)

    def test_zero_kernels(self):
        x = np.random.default_rng(6).normal(size=(1, 4, 4))
        k = np.zeros((2, 1, 2, 2))
        out = PhotonicConvolution().convolve(x, k)
        assert np.allclose(out, 0.0, atol=1e-12)


class TestValidationAndModes:
    def test_shape_errors(self):
        engine = PhotonicConvolution()
        with pytest.raises(ValueError):
            engine.convolve(np.zeros((4, 4)), np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError):
            engine.convolve(np.zeros((2, 4, 4)), np.zeros((1, 3, 2, 2)))

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            PhotonicConvolution(method="quantum")

    def test_auto_uses_device_when_noisy(self):
        config = PCNNAConfig(noise=NoiseConfig(enabled=True))
        engine = PhotonicConvolution(config)
        assert engine._resolved_method() == "device"

    def test_auto_uses_matrix_when_ideal(self):
        assert PhotonicConvolution()._resolved_method() == "matrix"

    def test_quantization_bounds_error(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        out = PhotonicConvolution(quantize=True).convolve(x, k)
        ref = F.conv2d(x, k)
        rel = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
        # 16-bit DAC + 12-bit ADC keeps relative error small but nonzero.
        assert 0.0 < rel < 1e-2

    def test_noise_degrades_gracefully(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 6, 6))
        k = rng.normal(size=(2, 1, 3, 3))
        ref = F.conv2d(x, k)

        def rel_error(sigma):
            config = PCNNAConfig(
                noise=NoiseConfig(enabled=True, ring_tuning_sigma=sigma, seed=9)
            )
            out = PhotonicConvolution(config).convolve(x, k)
            return np.max(np.abs(out - ref)) / np.max(np.abs(ref))

        assert rel_error(0.001) < rel_error(0.05)


class TestNonFiniteInputs:
    """NaN or inf in either tensor is rejected at the front door, on
    every execution path, instead of decoding to NaN outputs."""

    PATHS = (
        {"method": "matrix"},
        {"method": "device"},
        {"method": "device", "mode": "reference"},
    )

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("kwargs", PATHS)
    def test_feature_map_rejected(self, kwargs, bad):
        x = np.zeros((1, 4, 4))
        x[0, 1, 2] = bad
        with pytest.raises(ValueError, match="feature map must be finite"):
            PhotonicConvolution(**kwargs).convolve(x, np.ones((1, 1, 2, 2)))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("kwargs", PATHS)
    def test_kernels_rejected(self, kwargs, bad):
        k = np.ones((2, 1, 2, 2))
        k[1, 0, 0, 1] = bad
        with pytest.raises(ValueError, match="kernels must be finite"):
            PhotonicConvolution(**kwargs).convolve(np.zeros((1, 4, 4)), k)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_run_network_rejected(self, bad):
        x = np.zeros((2, 1, 32, 32))
        x[1, 0, 5, 5] = bad
        with pytest.raises(ValueError, match="network input must be finite"):
            PCNNA().run_network(build_lenet5(seed=2), x)


class TestPCNNAFacade:
    def test_report_layer(self):
        accelerator = PCNNA()
        report = accelerator.report_layer(alexnet_layer("conv4"))
        assert report.name == "conv4"
        assert report.analysis.rings_per_bank == 3456
        assert report.timing.pipelined_time_s > 0

    def test_run_network_matches_electronic(self):
        net = build_lenet5(seed=2)
        accelerator = PCNNA()
        x = np.random.default_rng(10).normal(size=(1, 32, 32))
        photonic = accelerator.run_network(net, x)
        electronic = net.forward(x)
        assert np.allclose(photonic, electronic, atol=1e-9)

    def test_run_network_shape_check(self):
        net = build_lenet5()
        with pytest.raises(ValueError):
            PCNNA().run_network(net, np.zeros((1, 30, 30)))

    def test_convolve_facade(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 5, 5))
        k = rng.normal(size=(2, 1, 3, 3))
        assert np.allclose(PCNNA().convolve(x, k), F.conv2d(x, k), atol=1e-9)

    def test_network_with_bias(self):
        from repro.nn.layers import Conv2D, ReLU
        from repro.nn.network import Network

        rng = np.random.default_rng(12)
        net = Network(
            [
                Conv2D(
                    rng.normal(size=(3, 1, 3, 3)),
                    bias=rng.normal(size=3),
                    name="conv",
                ),
                ReLU(),
            ],
            input_shape=(1, 6, 6),
        )
        x = rng.normal(size=(1, 6, 6))
        assert np.allclose(
            PCNNA().run_network(net, x), net.forward(x), atol=1e-9
        )
