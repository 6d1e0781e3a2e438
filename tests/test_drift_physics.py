"""Drift-physics caches and bank-physics invariants.

:class:`~repro.photonics.drift.DriftingWeightBank` keeps the detunings
its command produced and the bank's unit-gain transfer between calls.
These tests drive random sequences of conditions, commands and
recalibrations and check, after every step, that the cached readout is
byte-equal to a stateless recompute from (command, condition).  A teeth
case removes the invalidation on ``set_weights`` and expects the check
to fail.

The invariant property is the power-box check of the Lorentzian bus
cascade: under any condition no channel's drop or through power is
negative, and drop plus through never exceeds the input by more than a
few ulps of rounding.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.photonics.drift import BankCondition, DriftingWeightBank
from repro.photonics.noise import NoiseConfig
from repro.photonics.thermal import ThermalModel
from repro.photonics.wdm import WdmGrid
from repro.photonics.weight_bank import WeightBank

RINGS = 8
PARKED_LINEWIDTHS = 1e4
EPS = np.finfo(float).eps

conditions = st.builds(
    BankCondition,
    ambient_k=st.floats(0.0, 1.5),
    crosstalk_coupling=st.sampled_from((0.0, 0.02, 0.05, 0.2, 0.6)),
    # Indices past the bank wrap, as fault schedules' ring lists do.
    dead_rings=st.lists(
        st.integers(0, RINGS + 3), max_size=3, unique=True
    ).map(lambda rings: tuple(sorted(rings))),
    stuck_rings=st.lists(
        st.integers(0, RINGS - 1), max_size=3, unique=True
    ).map(lambda rings: tuple(sorted(rings))),
    tia_gain=st.floats(0.3, 1.0),
)
commands = st.lists(
    st.floats(-1.0, 1.0), min_size=RINGS, max_size=RINGS
).map(np.array)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("condition"), conditions),
        # A gain-only change: the cached transfer is only rescaled.
        st.tuples(st.just("gain"), st.floats(0.3, 1.0)),
        st.tuples(st.just("weights"), commands),
        st.tuples(st.just("recalibrate"), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=12,
)


def stateless_readout(probe: DriftingWeightBank) -> tuple[np.ndarray, float]:
    """The probe's readout recomputed from (command, condition) alone."""
    condition = probe.condition
    bank = WeightBank(
        WdmGrid(probe.num_rings),
        probe.design,
        NoiseConfig(
            enabled=True, shot_noise=False, thermal_noise=False, crosstalk=True
        ),
    )
    bank.set_weights(probe.commanded)
    if condition.ambient_k > 0.0 or condition.crosstalk_coupling > 0.0:
        ThermalModel(
            crosstalk_coupling=condition.crosstalk_coupling,
            ambient_drift_k=condition.ambient_k,
        ).apply(bank)
    detunings = bank.detunings_hz.copy()
    for ring in condition.dead_rings:
        index = ring % probe.num_rings
        detunings[index] = PARKED_LINEWIDTHS * bank.linewidths_hz[index]
    bank.detunings_hz = detunings
    effective = condition.tia_gain * bank.effective_weights()
    return effective, float(np.max(np.abs(effective - probe.targets)))


def run_and_check(probe: DriftingWeightBank, sequence) -> None:
    """Apply each step and compare the cached readout to the recompute."""
    for kind, value in sequence:
        if kind == "condition":
            probe.set_condition(value)
        elif kind == "gain":
            probe.set_condition(replace(probe.condition, tia_gain=value))
        elif kind == "weights":
            probe.set_weights(value)
        else:
            probe.recalibrate(max_iterations=value)
        expected, error = stateless_readout(probe)
        assert probe.effective_weights().tobytes() == expected.tobytes(), kind
        assert probe.weight_error() == error, kind


class TestCachedReadoutMatchesRecompute:
    @given(sequence=steps)
    @settings(max_examples=60, deadline=None)
    def test_random_sequences(self, sequence):
        run_and_check(DriftingWeightBank(), sequence)

    FIXED = (
        ("condition", BankCondition(ambient_k=0.3, crosstalk_coupling=0.05)),
        ("weights", np.linspace(0.5, -0.5, RINGS)),
        ("gain", 0.8),
        ("weights", np.zeros(RINGS)),
    )

    def test_fixed_sequence(self):
        run_and_check(DriftingWeightBank(), self.FIXED)

    def test_fails_without_invalidation_on_set_weights(self, monkeypatch):
        """Teeth: a set_weights that keeps the stale transfer is caught."""
        command = DriftingWeightBank._command

        def keep_stale_transfer(self, honoured):
            stale = self._transfer
            command(self, honoured)
            self._transfer = stale

        probe = DriftingWeightBank()
        monkeypatch.setattr(DriftingWeightBank, "_command", keep_stale_transfer)
        with pytest.raises(AssertionError):
            run_and_check(probe, self.FIXED)

    def test_gain_change_alone_keeps_the_transfer(self, monkeypatch):
        probe = DriftingWeightBank()
        probe.set_condition(BankCondition(ambient_k=0.2))
        probe.weight_error()
        calls = []
        transfer = WeightBank.transmission_matrix
        monkeypatch.setattr(
            WeightBank,
            "transmission_matrix",
            lambda bank: calls.append(bank) or transfer(bank),
        )
        probe.set_condition(BankCondition(ambient_k=0.2, tia_gain=0.7))
        probe.weight_error()
        assert calls == []
        probe.set_condition(BankCondition(ambient_k=0.25, tia_gain=0.7))
        probe.weight_error()
        assert len(calls) == 1


class TestBankPowerBox:
    @given(condition=conditions, command=commands)
    @settings(max_examples=200, deadline=None)
    def test_channel_powers_nonnegative_and_bounded(self, condition, command):
        probe = DriftingWeightBank()
        probe.set_weights(command)
        probe.set_condition(condition)
        drop, through = probe.bank.transmission_matrix()
        assert np.all(drop >= 0.0)
        assert np.all(through >= 0.0)
        assert np.all(drop + through <= 1.0 + 4 * EPS)
