"""Synthetic dataset generators: determinism and round trips."""

import math

import numpy as np
import pytest

from cavreset import (
    BackactionModel,
    ConfigError,
    DriveSegment,
    NoiseSpec,
    NumericError,
    PulseSchedule,
    RamseyModel,
    ac_stark_reconstruct,
    backaction_forward,
    gen_backaction_sequence,
    gen_ramsey_dataset,
    gen_spectroscopy,
    photon_number,
    propagate,
    ramsey_forward,
    read_samples_csv,
    ring_up_segment,
    write_samples_csv,
)
from cavreset.synth import PeakOutsideGrid


def simple_model(device):
    return RamseyModel.from_device(device, fringe=2.0 * math.pi, phi0=0.3, n0=1.0)


class TestNoiseSpec:
    def test_factories(self):
        assert NoiseSpec.none().kind == "none"
        assert NoiseSpec.gaussian(0.01, seed=3).sigma == 0.01
        assert NoiseSpec.binomial(100, seed=3).shots == 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseSpec(kind="poisson")
        with pytest.raises(ConfigError):
            NoiseSpec.gaussian(-0.1)
        with pytest.raises(ConfigError):
            NoiseSpec.binomial(0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, bad):
        with pytest.raises(ConfigError):
            NoiseSpec.gaussian(bad)

    def test_binomial_single_shot_is_binary(self):
        spec = NoiseSpec.binomial(1, seed=9)
        values = spec.apply(np.full(200, 0.37))
        assert set(np.unique(values)) <= {0.0, 1.0}

    def test_binomial_stays_in_unit_interval(self):
        spec = NoiseSpec.binomial(50, seed=2)
        values = spec.apply(np.linspace(-0.2, 1.2, 101))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_gaussian_statistics(self):
        spec = NoiseSpec.gaussian(0.05, seed=4)
        values = spec.apply(np.zeros(20000))
        assert abs(float(np.mean(values))) < 0.002
        assert float(np.std(values)) == pytest.approx(0.05, rel=0.05)

    def test_none_is_identity(self):
        x = np.linspace(0.0, 1.0, 11)
        assert NoiseSpec.none().apply(x) == pytest.approx(x, abs=0.0)


class TestDeterminism:
    def test_same_seed_same_bytes(self, device, tmp_path):
        model = simple_model(device)
        times = np.linspace(0.0, 2.0, 50)
        a = gen_ramsey_dataset(model, times, NoiseSpec.gaussian(0.01, seed=42))
        b = gen_ramsey_dataset(model, times, NoiseSpec.gaussian(0.01, seed=42))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(pa, ["t", "s"], a)
        write_samples_csv(pb, ["t", "s"], b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, device):
        model = simple_model(device)
        times = np.linspace(0.0, 2.0, 50)
        a = gen_ramsey_dataset(model, times, NoiseSpec.gaussian(0.01, seed=1))
        b = gen_ramsey_dataset(model, times, NoiseSpec.gaussian(0.01, seed=2))
        assert any(sa != sb for (_, sa), (_, sb) in zip(a, b))


class TestRamseyDataset:
    def test_noiseless_matches_forward(self, device):
        model = simple_model(device)
        times = np.linspace(0.0, 2.0, 40)
        rows = gen_ramsey_dataset(model, times)
        for t, s in rows:
            assert s == pytest.approx(float(ramsey_forward(model, t)), rel=1e-14)

    def test_empty_times_rejected(self, device):
        with pytest.raises(ConfigError):
            gen_ramsey_dataset(simple_model(device), [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, device, bad):
        with pytest.raises(ConfigError, match="finite"):
            gen_ramsey_dataset(simple_model(device), [0.0, bad, 1.0])


class TestBackactionSequence:
    def test_indices_and_values(self):
        model = BackactionModel(gamma_out=0.0722, gamma_back=0.01, p0=1.0)
        rows = gen_backaction_sequence(model, 10)
        assert [int(m) for m, _ in rows] == list(range(1, 11))
        for m, p in rows:
            assert p == pytest.approx(backaction_forward(model, int(m)), rel=1e-14)

    def test_validation(self):
        model = BackactionModel(gamma_out=0.05, gamma_back=0.02, p0=1.0)
        with pytest.raises(ConfigError):
            gen_backaction_sequence(model, 0)


class TestSpectroscopy:
    def make_traj(self, device):
        readout = ring_up_segment(device, 0, 5.0, 900.0)
        sched = PulseSchedule((readout, DriveSegment(0.0, 0.0, 300.0)))
        return propagate(device, sched, 0, sample_dt=1.0)

    def test_round_trip_reconstruction(self, device):
        from cavreset import chi_shift

        traj = self.make_traj(device)
        pull = 0.5 * (chi_shift(device, 1) - chi_shift(device, 0))
        freq_grid = np.arange(-40.0, 10.0 + 1e-9, 0.1)
        delays = np.arange(0.0, 1200.0, 100.0)
        spectra = gen_spectroscopy(traj, pull, 4.0, freq_grid, delays=delays)
        recon = ac_stark_reconstruct(spectra, pull, 0.0)
        from cavreset import photon_number

        for delay, n_hat in recon:
            n_true = photon_number(traj, delay)
            assert n_hat == pytest.approx(n_true, abs=0.01 * max(1.0, n_true))

    def test_default_delays_follow_trajectory(self, device):
        traj = self.make_traj(device)
        freq_grid = np.arange(-40.0, 10.0, 0.1)
        spectra = gen_spectroscopy(traj, -1.4757, 4.0, freq_grid)
        assert len(spectra) == len(traj.times)
        assert spectra[0][0] == pytest.approx(traj.times[0])

    def test_line_center_offset(self, device):
        traj = self.make_traj(device)
        center = 5230.0
        freq_grid = np.arange(center - 40.0, center + 10.0, 0.1)
        spectra = gen_spectroscopy(traj, -1.4757, 4.0, freq_grid, line_center=center)
        recon = ac_stark_reconstruct(spectra, -1.4757, center)
        assert recon[0][1] == pytest.approx(0.0, abs=0.01)

    def test_peak_outside_grid_warns(self, device):
        traj = self.make_traj(device)
        freq_grid = np.arange(0.0, 5.0, 0.1)  # shifted line sits below this window
        with pytest.warns(PeakOutsideGrid):
            gen_spectroscopy(traj, -1.4757, 4.0, freq_grid, delays=[900.0])

    def test_nan_delay_is_out_of_range(self, device):
        traj = self.make_traj(device)
        freq_grid = np.arange(-40.0, 10.0, 0.1)
        with pytest.raises(NumericError, match=r"time nan outside trajectory span"):
            gen_spectroscopy(traj, -1.4757, 4.0, freq_grid, delays=[0.0, math.nan])

    @pytest.mark.parametrize("noise", [NoiseSpec.none(), NoiseSpec.gaussian(0.02, seed=7)], ids=["none", "gaussian"])
    def test_matches_per_delay_photon_number(self, device, noise):
        traj = self.make_traj(device)
        chi, line_center = -1.4757, 0.5
        freq_grid = np.arange(-40.0, 10.0, 0.1)
        delays = np.linspace(0.0, 1199.0, 37)  # on and between trajectory samples
        spectra = gen_spectroscopy(traj, chi, 4.0, freq_grid, noise, line_center, delays)
        rng = noise.generator()
        assert len(spectra) == delays.size
        for (delay, freqs, amps), t in zip(spectra, delays):
            center = line_center + 2.0 * chi * photon_number(traj, float(t))
            expected = noise.apply(1.0 / (1.0 + ((freq_grid - center) / 2.0) ** 2), rng)
            assert delay == t
            assert np.array_equal(freqs, freq_grid)
            assert np.array_equal(amps, expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["chi", "linewidth", "line_center"])
    def test_non_finite_argument_rejected(self, device, arg, bad):
        args = {"chi": -1.4757, "linewidth": 4.0, "line_center": 0.0, arg: bad}
        with pytest.raises(ConfigError):
            gen_spectroscopy(self.make_traj(device), freq_grid=np.arange(-40.0, 10.0, 0.1), **args)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_frequency_rejected(self, device, bad):
        grid = np.arange(-40.0, 10.0, 0.1)
        grid[7] = bad
        with pytest.raises(ConfigError, match="finite"):
            gen_spectroscopy(self.make_traj(device), -1.4757, 4.0, grid)

    def test_lorentzian_shape(self, device):
        traj = self.make_traj(device)
        freq_grid = np.arange(-40.0, 10.0, 0.1)
        [(_, freqs, amps)] = gen_spectroscopy(traj, -1.4757, 4.0, freq_grid, delays=[0.0])
        assert float(np.max(amps)) == pytest.approx(1.0, abs=1e-6)
        # half maximum reached half a linewidth from the peak
        peak = freqs[int(np.argmax(amps))]
        k = int(np.argmin(np.abs(freqs - (peak + 2.0))))
        assert amps[k] == pytest.approx(0.5, abs=0.02)


class TestSamplesCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rows = [(0.1, 1.0 / 3.0), (2.5e-7, math.pi), (1e3, -4.9e-16)]
        path = tmp_path / "rows.csv"
        write_samples_csv(path, ["x", "y"], rows)
        back = read_samples_csv(path)
        for (x0, y0), (x1, y1) in zip(rows, back):
            assert x1 == x0 and y1 == y0

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("h1,h2\n1.0,apple\n")
        with pytest.raises(ConfigError):
            read_samples_csv(path)

    def test_read_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,n\n0.0,1.0\n1.0,nan\n")
        with pytest.raises(ConfigError):
            read_samples_csv(path)

    def test_read_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            read_samples_csv(path)
