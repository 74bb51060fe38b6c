"""Device parameters, dispersive shifts, complex rates."""

import json
import math

import pytest

from cavreset import (
    ConfigError,
    DeviceParams,
    NumericError,
    QubitState,
    chi_shift,
    complex_rate,
    critical_photon_number,
    default_device,
)

MHZ_TO_RAD_NS = 2.0 * math.pi * 1e-3


class TestChiShift:
    def test_ground_formula_value(self, device):
        # chi_0 = -g^2/Delta with Delta = omega_q - omega_bare < 0
        assert chi_shift(device, 0) == pytest.approx(12.901495130843317, rel=1e-13)

    def test_excited_formula_value(self, device):
        # chi_1 = g^2/Delta - 2 g^2/(Delta + eta)
        assert chi_shift(device, 1) == pytest.approx(9.950010997848123, rel=1e-13)

    def test_ground_matches_direct_formula(self, device):
        g = device.coupling
        delta = device.qubit_freq - device.bare_cavity_freq
        assert chi_shift(device, 0) == pytest.approx(-g * g / delta, rel=1e-13)

    def test_excited_matches_direct_formula(self, device):
        g = device.coupling
        delta = device.qubit_freq - device.bare_cavity_freq
        eta = device.anharmonicity
        expected = g * g / delta - 2.0 * g * g / (delta + eta)
        assert chi_shift(device, 1) == pytest.approx(expected, rel=1e-13)

    def test_measured_source(self, device):
        chi0 = chi_shift(device, 0, "measured")
        chi1 = chi_shift(device, 1, "measured")
        assert chi0 == pytest.approx(device.dressed_freq_0 - device.bare_cavity_freq)
        assert chi1 == pytest.approx(chi0 + device.dispersive_shift_01)

    @pytest.mark.parametrize("source", ["formula", "measured"])
    def test_qubit_pull_is_half_the_dressed_splitting(self, device, source):
        from cavreset.core import qubit_pull

        expected = 0.5 * (chi_shift(device, 1, source) - chi_shift(device, 0, source))
        assert qubit_pull(device, source) == expected

    def test_measured_missing_fields(self, device):
        stripped = device.with_(dressed_freq_0=None)
        with pytest.raises(ConfigError):
            chi_shift(stripped, 0, "measured")

    def test_unknown_source(self, device):
        with pytest.raises(ConfigError):
            chi_shift(device, 0, "guess")

    def test_invalid_state(self, device):
        with pytest.raises((ConfigError, ValueError)):
            chi_shift(device, 2)

    def test_zero_coupling_gives_zero_shift(self, device):
        assert chi_shift(device.with_(coupling=0.0), 0) == 0.0

    def test_degenerate_detuning(self, device):
        with pytest.warns(UserWarning):
            degenerate = device.with_(qubit_freq=device.bare_cavity_freq)
        with pytest.raises(NumericError, match=r"Delta is zero"):
            chi_shift(degenerate, 0)

    def test_straddle_degeneracy(self, device):
        # Delta + eta = 0 blows up the excited-state ladder term
        with pytest.warns(UserWarning):
            straddle = device.with_(qubit_freq=device.bare_cavity_freq - device.anharmonicity)
        with pytest.raises(NumericError, match=r"Delta \+ eta is zero"):
            chi_shift(straddle, 1)


class TestComplexRate:
    def test_ground_value(self, device):
        c = complex_rate(device, 0)
        assert c.real == pytest.approx(0.010750530060584273, rel=1e-13)
        assert c.imag == pytest.approx(0.018544721738813462, rel=1e-13)

    def test_real_part_is_kappa(self, device):
        for state in (0, 1):
            c = complex_rate(device, state)
            assert c.real == pytest.approx(device.kappa * MHZ_TO_RAD_NS, rel=1e-13)

    def test_imag_part_is_detuning_plus_chi(self, device):
        for state in (0, 1):
            c = complex_rate(device, state)
            expected = 2.0 * (device.detuning_r() + chi_shift(device, state)) * MHZ_TO_RAD_NS
            assert c.imag == pytest.approx(expected, rel=1e-12)


class TestDriveFrequency:
    def test_default_splits_dressed_frequencies(self, device):
        chi0 = chi_shift(device, 0)
        chi1 = chi_shift(device, 1)
        expected = device.bare_cavity_freq + 0.5 * (chi0 + chi1)
        assert device.drive_frequency() == pytest.approx(expected, rel=1e-13)
        assert device.drive_frequency() == pytest.approx(7135.325753064345, rel=1e-13)

    def test_explicit_drive_freq_wins(self, device):
        pinned = device.with_(drive_freq=7136.0)
        assert pinned.drive_frequency() == 7136.0
        assert pinned.detuning_r() == pytest.approx(device.bare_cavity_freq - 7136.0)

    def test_detuning_r_sign(self, device):
        # drive sits above the bare cavity here, so Delta_r is negative
        assert device.detuning_r() == pytest.approx(-11.425753064345372, rel=1e-12)


class TestCriticalPhoton:
    def test_value(self, device):
        assert critical_photon_number(device) == pytest.approx(32.517820279375414, rel=1e-13)

    def test_formula(self, device):
        delta = device.qubit_freq - device.bare_cavity_freq
        assert critical_photon_number(device) == pytest.approx(
            (delta / (2.0 * device.coupling)) ** 2, rel=1e-13
        )

    def test_zero_coupling(self, device):
        with pytest.raises(NumericError, match=r"undefined at g = 0"):
            critical_photon_number(device.with_(coupling=0.0))


class TestDeviceParams:
    def test_second_qubit_differs(self, device, device2):
        assert device2.kappa == pytest.approx(4.054)
        assert device2.bare_cavity_freq != device.bare_cavity_freq

    def test_negative_kappa_rejected(self, device):
        with pytest.raises(ConfigError):
            device.with_(kappa=-1.0)

    def test_nonpositive_t1_rejected(self, device):
        with pytest.raises(ConfigError):
            device.with_(t1=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("kappa", math.nan), ("qubit_freq", math.inf), ("kerr_coeff", -math.inf), ("drive_freq", math.nan)],
    )
    def test_non_finite_rejected(self, device, field, value):
        with pytest.raises(ConfigError, match=field):
            device.with_(**{field: value})

    @pytest.mark.parametrize("field", sorted(DeviceParams.__dataclass_fields__))
    def test_json_boolean_rejected(self, device, field):
        # float(True) is 1.0: {"coupling": true} would load as g = 1 MHz
        data = {**device.to_dict(), field: True}
        with pytest.raises(ConfigError, match=field):
            DeviceParams.from_dict(data)

    def test_int_fields_accepted(self, device):
        assert DeviceParams.from_dict({**device.to_dict(), "kappa": 2, "kerr_coeff": 0}).kappa == 2

    def test_positive_anharmonicity_rejected(self, device):
        with pytest.raises(ConfigError):
            device.with_(anharmonicity=10.0)

    def test_weak_dispersive_regime_warns(self, device):
        with pytest.warns(UserWarning):
            device.with_(qubit_freq=device.bare_cavity_freq - 3.0 * device.coupling)

    def test_round_trip_dict(self, device):
        clone = DeviceParams.from_dict(device.to_dict())
        assert clone == device

    def test_from_dict_rejects_unknown_keys(self, device):
        data = device.to_dict()
        data["flux_bias"] = 0.1
        with pytest.raises(ConfigError):
            DeviceParams.from_dict(data)

    def test_json_round_trip(self, device, tmp_path):
        path = tmp_path / "dev.json"
        device.to_json(path)
        assert DeviceParams.from_json(path) == device

    def test_from_json_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            DeviceParams.from_json(path)
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            DeviceParams.from_json(path)

    def test_bundled_configs_load(self, device, device2):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        assert DeviceParams.from_json(root / "qubit1.json") == device
        assert DeviceParams.from_json(root / "qubit2.json") == device2

    def test_with_replaces_field(self, device):
        tweaked = device.with_(kerr_coeff=-0.011)
        assert tweaked.kerr_coeff == -0.011
        assert tweaked.kappa == device.kappa

    def test_qubit_state_values(self):
        assert int(QubitState.GROUND) == 0
        assert int(QubitState.EXCITED) == 1
        assert QubitState(1) is QubitState.EXCITED

    def test_to_json_is_sorted_and_stable(self, device, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        device.to_json(a)
        device.to_json(b)
        assert a.read_bytes() == b.read_bytes()
        keys = list(json.loads(a.read_text()))
        assert keys == sorted(keys)
