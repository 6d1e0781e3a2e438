"""Thermal effects on microring weight banks.

Microrings are tuned thermally, and heat does not stay put: each ring's
heater warms its neighbours (thermal crosstalk), and ambient temperature
drift moves every resonance together (~10 GHz/K for silicon rings).
This module models both effects as resonance perturbations that can be
applied to a :class:`~repro.photonics.weight_bank.WeightBank`, plus the
standard mitigation — measuring the drifted weights and re-calibrating.
Both act on the bank's detuning array in one vectorized step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.photonics.microring import drop_transmission_profile
from repro.photonics.weight_bank import WeightBank

SILICON_THERMAL_SHIFT_HZ_PER_K = 10e9
"""Resonance shift of a silicon microring per kelvin (~0.08 nm/K)."""


@dataclass(frozen=True)
class ThermalModel:
    """Thermal environment of a weight bank.

    Attributes:
        crosstalk_coupling: fraction of one ring's heater detuning that
            leaks to its nearest neighbour (decays geometrically with
            distance).
        ambient_drift_k: uniform temperature offset from the calibration
            point (K).
        shift_hz_per_k: resonance sensitivity to temperature.
    """

    crosstalk_coupling: float = 0.05
    ambient_drift_k: float = 0.0
    shift_hz_per_k: float = SILICON_THERMAL_SHIFT_HZ_PER_K

    def __post_init__(self) -> None:
        if not 0.0 <= self.crosstalk_coupling < 1.0:
            raise ValueError(
                f"coupling must be in [0, 1), got {self.crosstalk_coupling!r}"
            )
        if self.shift_hz_per_k <= 0:
            raise ValueError(
                f"thermal sensitivity must be positive, got {self.shift_hz_per_k!r}"
            )

    def crosstalk_matrix(self, num_rings: int) -> np.ndarray:
        """Heater-coupling matrix: entry (i, j) is ring j's leak onto i.

        Diagonal is 1 (a heater fully tunes its own ring); off-diagonals
        decay geometrically with ring distance.  The matrix is memoized
        per (coupling, ring count) and returned read-only.

        Raises:
            ValueError: if ``num_rings`` is not an integer >= 1 (a float
                count used to build a silently mis-sized matrix via
                ``np.arange`` truncation).
        """
        if isinstance(num_rings, bool) or not isinstance(
            num_rings, (int, np.integer)
        ):
            raise ValueError(
                f"ring count must be an integer >= 1, got {num_rings!r}"
            )
        if num_rings < 1:
            raise ValueError(f"need at least one ring, got {num_rings!r}")
        return _crosstalk_matrix(float(self.crosstalk_coupling), int(num_rings))

    def apply(self, bank: WeightBank) -> None:
        """Perturb the bank's ring detunings with both thermal effects.

        The commanded detunings are mixed through the crosstalk matrix,
        then the uniform ambient shift is added to every resonance.
        """
        mixed = self.crosstalk_matrix(bank.num_rings) @ bank.detunings_hz
        bank.detunings_hz = mixed + self.ambient_drift_k * self.shift_hz_per_k


@lru_cache(maxsize=64)
def _crosstalk_matrix(coupling: float, num_rings: int) -> np.ndarray:
    """The (read-only) heater-coupling matrix, built once per key."""
    indices = np.arange(num_rings)
    distance = np.abs(indices[:, None] - indices[None, :])
    matrix = coupling**distance
    matrix.flags.writeable = False
    return matrix


def thermal_weight_error(
    bank: WeightBank, model: ThermalModel, target_weights: np.ndarray
) -> float:
    """Worst-case weight error a thermal environment inflicts on a bank.

    Programs the bank open-loop, applies the thermal model, and measures
    the effective-weight deviation.  Crosstalk must be enabled in the
    bank's noise config for detuning shifts to matter at other channels;
    with ideal (per-channel) banks only the ring's own channel moves, so
    the error comes from the drop-fraction change at its own resonance.

    Returns:
        ``max |effective - target|`` after the perturbation.
    """
    bank.set_weights(np.asarray(target_weights, dtype=float))
    model.apply(bank)
    # After the thermal perturbation the banks' cached drop fractions are
    # stale; recompute each ring's drop at its own channel from the
    # perturbed resonances.
    drops = drop_transmission_profile(
        bank.frequencies_hz,
        bank.resonances_hz,
        bank.linewidths_hz,
        bank.design.peak_drop_transmission,
    )
    effective = 2.0 * drops - 1.0
    return float(np.max(np.abs(effective - np.asarray(target_weights))))
