"""MRR weight bank: the multiply stage of broadcast-and-weight.

A weight bank is a row of add-drop microrings on a bus waveguide, one ring
per WDM channel.  Ring ``k`` is tuned so that a fraction ``d_k`` of its
channel's power exits at the drop port and the remaining ``1 - d_k`` at
the through port.  Routing all drop ports to one photodiode and all
through ports to another, the balanced photocurrent for channel powers
``P_k`` is

    I = R * sum_k P_k * (d_k - (1 - d_k)) = R * sum_k P_k * (2 d_k - 1)

so choosing ``d_k = (1 + w_k) / 2`` realizes an arbitrary signed weight
``w_k`` in [-1, +1]: the bank physically computes ``R * sum_k P_k w_k``,
a multiply-and-accumulate (Tait et al. 2017; PCNNA section III).

Two fidelity levels are implemented:

* **ideal** — each ring affects only its own channel and the drop
  fraction equals the calibrated target exactly.  The bank output is the
  exact dot product.
* **physical** (``noise.crosstalk_active`` or tuning error) — drop
  fractions come from the Lorentzian line shape of every ring evaluated
  at every channel, with the bus cascade ordering taken into account, so
  inter-channel crosstalk and miscalibration perturb the result.

The transfer path is array-first: the bank's tuning state is one
``(rings,)`` detuning array (channel frequencies and linewidths are
fixed at construction), calibration inverts the Lorentzian for the whole
bank in one vectorized evaluation, the physical-mode response is a
single ``(rings, channels)`` line-shape matrix with a cumulative bus
cascade, and :meth:`WeightBank.apply` weights a single ``(channels,)``
wave or a batched ``(batch, channels)`` stack of waves alike.
"""

from __future__ import annotations

import numpy as np

from repro.photonics.microring import (
    Microring,
    MicroringDesign,
    detunings_for_drop,
    drop_transmission_profile,
)
from repro.photonics.noise import NoiseConfig, ideal
from repro.photonics.wdm import WdmGrid

_MAX_DETUNING_LINEWIDTHS = 1e4
"""Detuning cap (in linewidths) used to realize a ~zero drop fraction."""


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only and return it."""
    array.flags.writeable = False
    return array


class WeightBank:
    """A bank of tunable microrings realizing a signed weight vector.

    The bank's whole tuning state is one ``(rings,)`` array of detunings,
    ring ``k``'s resonance offset from channel ``k``; every transfer
    function reads it, and :attr:`detunings_hz` is the only way to
    retune rings other than :meth:`set_weights`.

    Args:
        grid: WDM grid; one ring is instantiated per channel.
        design: shared microring design parameters.
        noise: non-ideality configuration.

    Attributes:
        frequencies_hz: read-only ``(rings,)`` channel frequencies, in bus
            order (channel 0 is encountered first on the bus); ring ``k``
            resonates at channel ``k`` when untuned.
        linewidths_hz: read-only ``(rings,)`` FWHM linewidths, each at its
            ring's own channel.
    """

    def __init__(
        self,
        grid: WdmGrid,
        design: MicroringDesign | None = None,
        noise: NoiseConfig | None = None,
    ) -> None:
        self.grid = grid
        self.design = design if design is not None else MicroringDesign()
        self.noise = noise if noise is not None else ideal()
        self.frequencies_hz = _read_only(grid.frequencies_hz)
        self.linewidths_hz = _read_only(
            self.frequencies_hz / self.design.quality_factor
        )
        self._detunings_hz = np.zeros(grid.num_channels, dtype=float)
        self._weights = np.zeros(grid.num_channels, dtype=float)
        self._drop_fractions = np.full(grid.num_channels, 0.5, dtype=float)

    # -- configuration -------------------------------------------------------

    @property
    def num_rings(self) -> int:
        """Number of rings (== number of WDM channels) in the bank."""
        return self.grid.num_channels

    @property
    def weights(self) -> np.ndarray:
        """The most recently programmed weight vector (copy)."""
        return self._weights.copy()

    @property
    def detunings_hz(self) -> np.ndarray:
        """Every ring's resonance offset from its channel (read-only view)."""
        return _read_only(self._detunings_hz.view())

    @detunings_hz.setter
    def detunings_hz(self, detunings: np.ndarray) -> None:
        """Retune every ring at once (thermal perturbation, parking).

        Raises:
            ValueError: if the array does not hold one detuning per ring.
        """
        array = np.array(detunings, dtype=float)
        if array.shape != (self.num_rings,):
            raise ValueError(
                f"expected {self.num_rings} detunings, got shape {array.shape}"
            )
        self._detunings_hz = array

    @property
    def resonances_hz(self) -> np.ndarray:
        """Every ring's current resonance frequency, ``(rings,)``."""
        return self.frequencies_hz + self._detunings_hz

    @property
    def rings(self) -> tuple[Microring, ...]:
        """Per-ring :class:`Microring` snapshots of the current tuning.

        Built from :attr:`detunings_hz` on every access, in bus order;
        retuning a snapshot does not retune the bank.
        """
        return tuple(
            Microring(frequency, self.design, detuning)
            for frequency, detuning in zip(
                self.frequencies_hz.tolist(), self._detunings_hz.tolist()
            )
        )

    def set_weights(self, weights: np.ndarray) -> None:
        """Program the bank to realize ``weights`` (each in [-1, +1]).

        Calibration inverts the ideal per-ring map ``d = (1 + w) / 2``; any
        active tuning error perturbs the realized drop fractions, and
        crosstalk (if enabled) further perturbs the applied weighting.

        Raises:
            ValueError: if the vector length mismatches the bank or any
                weight falls outside [-1, 1].
        """
        array = np.asarray(weights, dtype=float)
        if array.shape != (self.num_rings,):
            raise ValueError(
                f"expected {self.num_rings} weights, got shape {array.shape}"
            )
        if np.any(np.abs(array) > 1.0 + 1e-12):
            bad = array[np.abs(array) > 1.0 + 1e-12]
            raise ValueError(f"weights must lie in [-1, 1]; out-of-range: {bad[:5]!r}")
        array = np.clip(array, -1.0, 1.0)
        self._weights = array.copy()

        drops = (1.0 + array) / 2.0
        if self.noise.tuning_error_active:
            jitter = self.noise.rng.normal(
                0.0, self.noise.ring_tuning_sigma, self.num_rings
            )
            drops = np.clip(drops + jitter, 0.0, 1.0)
        self._drop_fractions = drops
        self._apply_detunings(drops)

    def _apply_detunings(self, drop_fractions: np.ndarray) -> None:
        """Tune the bank to realize its target drop fractions.

        The detunings for the whole bank come from one vectorized
        inverse-Lorentzian evaluation and replace the detuning array.
        """
        peak = self.design.peak_drop_transmission
        targets = np.minimum(np.asarray(drop_fractions, dtype=float) * peak, peak)
        self._detunings_hz = detunings_for_drop(
            targets, self.linewidths_hz, peak, _MAX_DETUNING_LINEWIDTHS
        )

    # -- transfer ------------------------------------------------------------

    def transmission_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel aggregate (drop, through) power fractions.

        In ideal mode ring ``k`` interacts only with channel ``k``.  In
        physical mode every ring's Lorentzian is evaluated at every channel
        and the serial bus ordering is honoured: channel ``k`` reaching ring
        ``j`` has already been attenuated by the through response of rings
        ``0..j-1``.

        Returns:
            ``(drop, through)`` arrays of shape ``(num_channels,)`` with
            ``0 <= drop, through`` and ``drop + through <= 1 + 4 eps``
            (``eps`` the float64 machine epsilon): in exact arithmetic
            ``drop + through == 1``, and the cascade's rounding can
            overshoot that by a few ulps.
        """
        if not self.noise.crosstalk_active:
            drop = self._drop_fractions.copy()
            return drop, 1.0 - drop

        frequencies = self.frequencies_hz
        # Every ring's Lorentzian at every channel, one (rings, channels)
        # evaluation; row j is ring j's drop response across the grid.
        ring_drop = drop_transmission_profile(
            frequencies[None, :],
            self.resonances_hz[:, None],
            self.linewidths_hz[:, None],
            self.design.peak_drop_transmission,
        )
        ring_through = 1.0 - ring_drop
        # Serial bus cascade: channel power reaching ring j has passed the
        # through ports of rings 0..j-1 — a cumulative product down rows.
        remaining_before = np.cumprod(
            np.vstack([np.ones((1, self.num_rings)), ring_through[:-1]]), axis=0
        )
        drop = (remaining_before * ring_drop).sum(axis=0)
        remaining = remaining_before[-1] * ring_through[-1]
        return drop, remaining

    def apply(self, input_powers_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weight WDM power vectors.

        Args:
            input_powers_w: per-channel optical powers entering the bus —
                a single ``(channels,)`` vector or a batched
                ``(..., channels)`` stack, one MAC wave per leading
                element (the aggregate ring transfer applies identically
                to every wave, since the weights are held between waves).

        Returns:
            ``(drop_powers, through_powers)`` per channel, in watts, with
            the same shape as the input.

        Raises:
            ValueError: on shape mismatch or negative input power.
        """
        powers = np.asarray(input_powers_w, dtype=float)
        if powers.ndim == 0 or powers.shape[-1] != self.num_rings:
            raise ValueError(
                f"expected {self.num_rings} channel powers on the last "
                f"axis, got shape {powers.shape}"
            )
        if np.any(powers < 0):
            raise ValueError("optical power cannot be negative")
        drop, through = self.transmission_matrix()
        return powers * drop, powers * through

    def effective_weights(self) -> np.ndarray:
        """The weights the bank actually applies, including non-idealities.

        Computed as ``drop - through`` per channel, which is what balanced
        detection measures for unit input power.
        """
        drop, through = self.transmission_matrix()
        return drop - through

    def __repr__(self) -> str:
        return (
            f"WeightBank(rings={self.num_rings}, "
            f"crosstalk={self.noise.crosstalk_active})"
        )
