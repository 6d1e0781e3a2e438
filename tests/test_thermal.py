"""Tests for the thermal crosstalk / drift model."""

import numpy as np
import pytest

from repro.photonics.calibration import calibrate_bank
from repro.photonics.microring import MicroringDesign
from repro.photonics.noise import NoiseConfig, ideal
from repro.photonics.thermal import (
    SILICON_THERMAL_SHIFT_HZ_PER_K,
    ThermalModel,
    thermal_weight_error,
)
from repro.photonics.wdm import WdmGrid
from repro.photonics.weight_bank import WeightBank


def make_bank(num_rings=8, **design_kwargs) -> WeightBank:
    return WeightBank(
        WdmGrid(num_rings), MicroringDesign(**design_kwargs), ideal()
    )


class TestThermalModel:
    def test_crosstalk_matrix_shape_and_diagonal(self):
        matrix = ThermalModel(crosstalk_coupling=0.1).crosstalk_matrix(5)
        assert matrix.shape == (5, 5)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_crosstalk_decays_with_distance(self):
        matrix = ThermalModel(crosstalk_coupling=0.2).crosstalk_matrix(6)
        assert matrix[0, 1] == pytest.approx(0.2)
        assert matrix[0, 2] == pytest.approx(0.04)
        assert matrix[0, 5] < matrix[0, 1]

    def test_zero_coupling_is_identity(self):
        matrix = ThermalModel(crosstalk_coupling=0.0).crosstalk_matrix(4)
        assert np.allclose(matrix, np.eye(4))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ThermalModel(crosstalk_coupling=1.0)
        with pytest.raises(ValueError):
            ThermalModel(shift_hz_per_k=0.0)
        with pytest.raises(ValueError):
            ThermalModel().crosstalk_matrix(0)

    def test_crosstalk_matrix_rejects_non_integer_ring_counts(self):
        """Regression: a float count used to build a silently mis-sized
        matrix (np.arange(2.5) has three entries), and bool/negative
        counts slipped through the <= 0 check."""
        model = ThermalModel()
        for bad in (2.5, 3.0, True, False, -1, "4", None):
            with pytest.raises(ValueError, match="ring count|ring"):
                model.crosstalk_matrix(bad)
        # numpy integer counts stay accepted (callers pass array sizes).
        assert model.crosstalk_matrix(np.int64(3)).shape == (3, 3)

    def test_crosstalk_matrix_is_memoized_read_only(self):
        matrix = ThermalModel(crosstalk_coupling=0.1).crosstalk_matrix(5)
        assert ThermalModel(crosstalk_coupling=0.1).crosstalk_matrix(5) is matrix
        with pytest.raises(ValueError):
            matrix[0, 1] = 0.0

    def test_ambient_drift_shifts_all_rings(self):
        bank = make_bank(4)
        bank.set_weights(np.zeros(4))
        before = [ring.detuning_hz for ring in bank.rings]
        # Zero heater coupling isolates the uniform ambient term.
        ThermalModel(crosstalk_coupling=0.0, ambient_drift_k=1.0).apply(bank)
        after = [ring.detuning_hz for ring in bank.rings]
        for b, a in zip(before, after):
            assert a - b == pytest.approx(SILICON_THERMAL_SHIFT_HZ_PER_K)


class TestThermalWeightError:
    def test_no_thermal_effects_no_error(self):
        bank = make_bank()
        error = thermal_weight_error(
            bank, ThermalModel(crosstalk_coupling=0.0), np.full(8, 0.3)
        )
        assert error < 1e-9

    def test_drift_grows_with_temperature(self):
        target = np.full(8, 0.3)
        small = thermal_weight_error(
            make_bank(), ThermalModel(ambient_drift_k=0.05), target
        )
        large = thermal_weight_error(
            make_bank(), ThermalModel(ambient_drift_k=0.5), target
        )
        assert small < large

    def test_heater_crosstalk_causes_error(self):
        target = np.linspace(-0.8, 0.8, 8)
        error = thermal_weight_error(
            make_bank(), ThermalModel(crosstalk_coupling=0.1), target
        )
        assert error > 1e-3

    def test_high_q_more_sensitive_to_drift(self):
        # Narrow linewidth -> the same GHz drift moves further along the
        # Lorentzian flank.
        target = np.full(8, 0.5)
        drift = ThermalModel(ambient_drift_k=0.02)
        low_q = thermal_weight_error(
            make_bank(quality_factor=4_000), drift, target
        )
        high_q = thermal_weight_error(
            make_bank(quality_factor=40_000), drift, target
        )
        assert high_q > low_q


class TestRecalibrationRecovers:
    def test_calibration_compensates_heater_crosstalk(self):
        # With a crosstalk-aware measurement loop, the bank can be re-
        # calibrated after the thermal perturbation is (statically) applied
        # through the command path.
        noise = NoiseConfig(
            enabled=True, shot_noise=False, thermal_noise=False,
            crosstalk=True, seed=0,
        )
        bank = WeightBank(
            WdmGrid(8), MicroringDesign(quality_factor=20_000), noise
        )
        target = np.linspace(-0.6, 0.6, 8)
        result = calibrate_bank(bank, target)
        assert result.converged
        assert result.residual < 1e-6
