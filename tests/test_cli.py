"""Command-line behavior: outputs, exit codes, idempotence."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cavreset import NoiseSpec, NotConverged, RamseyModel, default_device, gen_ramsey_dataset, write_samples_csv
from cavreset.cli import main

READOUT = '{"amp": 0.023965616019454482, "phase": 0.0, "duration": 900}'


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_trajectory_and_provenance(self, tmp_path):
        code = run(
            "simulate",
            "--schedule",
            '[{"amp": 0.02, "phase": 0.1, "duration": 100}]',
            "--out",
            str(tmp_path),
        )
        assert code == 0
        csv = tmp_path / "trajectory.csv"
        assert csv.exists()
        assert csv.read_text().splitlines()[0] == "t_ns,re_alpha,im_alpha,n"
        prov = json.loads((tmp_path / "trajectory.provenance.json").read_text())
        assert prov["provenance"]["version"]
        assert prov["provenance"]["device"]["kappa"] == pytest.approx(1.711)

    def test_idempotent(self, tmp_path):
        args = (
            "simulate",
            "--schedule",
            '[{"amp": 0.02, "phase": 0.1, "duration": 100}]',
            "--out",
            str(tmp_path),
        )
        run(*args)
        first = (tmp_path / "trajectory.csv").read_bytes()
        run(*args)
        assert (tmp_path / "trajectory.csv").read_bytes() == first

    def test_schedule_from_file(self, tmp_path):
        sched_file = tmp_path / "sched.json"
        sched_file.write_text('[{"amp": 0.02, "phase": 0.0, "duration": 50}]')
        assert run("simulate", "--schedule", str(sched_file), "--out", str(tmp_path)) == 0

    def test_malformed_schedule_is_config_error(self, tmp_path):
        assert run("simulate", "--schedule", "не json", "--out", str(tmp_path)) == 2
        assert run("simulate", "--schedule", "[]", "--out", str(tmp_path)) == 2
        assert (
            run("simulate", "--schedule", '[{"amp": 0.1}]', "--out", str(tmp_path)) == 2
        )
        both = '[{"amp": 0.1, "amplitude": 0.1, "duration": 50}]'
        assert run("simulate", "--schedule", both, "--out", str(tmp_path)) == 2
        # "1" followed by 400 zeros overflows float(); float(true) would be 1.0
        for bad in ('"x"', "null", "[1]", "1" + "0" * 400, "true", "false"):
            for key in ("amp", "phase", "duration"):
                seg = {"amp": "0.01", "phase": "0", "duration": "50", key: bad}
                spec = "[{" + ", ".join(f'"{k}": {v}' for k, v in seg.items()) + "}]"
                assert run("simulate", "--schedule", spec, "--out", str(tmp_path)) == 2, spec
        long = '[{"amp": 0.01, "duration": "long"}]'
        assert run("simulate", "--schedule", long, "--out", str(tmp_path)) == 2

    def test_design_output_feeds_back_into_simulate(self, tmp_path):
        # design JSON spells the key "amplitude"; simulate must accept it.
        code = run(
            "design", "--mode", "clear", "--readout", READOUT,
            "--reset-duration", "50", "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "design_clear.json").read_text())
        sched = json.dumps(payload["schedule"]["segments"])
        assert run("simulate", "--schedule", sched, "--out", str(tmp_path)) == 0
        prov = json.loads((tmp_path / "trajectory.provenance.json").read_text())
        assert prov["final_photons"] < 1e-4

    def test_step_too_large_is_numeric_error(self, tmp_path):
        code = run(
            "simulate",
            "--schedule",
            '[{"amp": 0.01, "phase": 0, "duration": 50}]',
            "--force-ode",
            "--dt",
            "10",
            "--out",
            str(tmp_path),
        )
        assert code == 3

    def test_diverging_kerr_run_is_numeric_error(self, tmp_path):
        cfg = tmp_path / "kerr.json"
        default_device().with_(kerr_coeff=-500.0).to_json(cfg)
        sched = '[{"amp": 100, "phase": 0, "duration": 20}]'
        assert run("simulate", "--config", str(cfg), "--schedule", sched, "--out", str(tmp_path)) == 3

    @pytest.mark.parametrize("extra", [(), ("--force-ode",)])
    def test_nan_dt_is_config_error(self, tmp_path, extra):
        code = run(
            "simulate",
            "--schedule",
            '[{"amp": 0.01, "phase": 0, "duration": 50}]',
            "--dt",
            "nan",
            *extra,
            "--out",
            str(tmp_path),
        )
        assert code == 2


class TestDesign:
    def test_sspe_reports_one_solution(self, tmp_path):
        code = run(
            "design", "--mode", "sspe", "--readout", READOUT,
            "--reset-duration", "50", "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "design_sspe.json").read_text())
        (solution,) = payload["solutions"]
        assert solution["method"] == "numeric"
        assert solution["target_states"] == [0]
        assert solution["reset_amplitude"] == pytest.approx(0.03947849508018339, rel=1e-10)
        assert solution["residual_photons"]["0"] < 1e-20

    @pytest.mark.parametrize("amp", ['"x"', "null"])
    def test_malformed_readout_is_config_error(self, tmp_path, capsys, amp):
        readout = f'{{"amp": {amp}, "phase": 0, "duration": 900}}'
        code = run("design", "--readout", readout, "--reset-duration", "50", "--out", str(tmp_path))
        assert code == 2
        assert "readout needs numbers for amp, phase and duration" in capsys.readouterr().err

    def test_clear_schedule(self, tmp_path):
        code = run(
            "design", "--mode", "clear", "--readout", READOUT,
            "--reset-duration", "50", "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "design_clear.json").read_text())
        segs = payload["schedule"]["segments"]
        assert len(segs) == 3
        assert segs[1]["duration"] == pytest.approx(25.0)

    def test_not_converged_maps_to_exit_4(self, tmp_path, monkeypatch):
        class Stuck:
            def require_converged(self):
                raise NotConverged("stuck")

        monkeypatch.setattr("cavreset.cli.sspe_optimize", lambda *a, **k: Stuck())
        code = run(
            "design", "--mode", "sspe", "--readout", READOUT,
            "--reset-duration", "50", "--out", str(tmp_path),
        )
        assert code == 4


class TestMapCompare:
    def test_map_outputs(self, tmp_path):
        code = run(
            "map", "--readout", READOUT, "--reset-duration", "50",
            "--amp-max", "0.06", "--amp-points", "7", "--phase-points", "6",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "residual_map.csv").read_text().splitlines()
        assert lines[0] == "eps_r,phi_r,residual"
        assert len(lines) == 1 + 7 * 6
        side = json.loads((tmp_path / "residual_map.json").read_text())
        assert side["shape"] == [7, 6]
        assert "provenance" in side

    def test_map_nan_window_is_config_error(self, tmp_path):
        code = run(
            "map", "--readout", READOUT, "--reset-duration", "nan",
            "--amp-max", "0.06", "--out", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize("axis", ["--amp-points", "--phase-points"])
    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_map_grid_size_below_one_is_config_error(self, tmp_path, capsys, axis, points):
        code = run(
            "map", "--readout", READOUT, "--reset-duration", "50",
            "--amp-max", "0.06", axis, points, "--out", str(tmp_path),
        )
        assert code == 2
        assert "grid sizes must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "residual_map.csv").exists()

    def test_fully_diverged_map_is_numeric_error_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "kerr.json"
        default_device().with_(kerr_coeff=-500.0).to_json(cfg)
        out = tmp_path / "out"
        code = run(
            "map", "--config", str(cfg), "--readout", '{"amp": 0.01, "phase": 0, "duration": 100}',
            "--reset-duration", "20", "--amp-min", "100", "--amp-max", "200",
            "--amp-points", "2", "--phase-points", "1", "--out", str(out),
        )
        assert code == 3
        assert capsys.readouterr().err == "error: every residual-map cell diverged\n"
        assert not (out / "residual_map.csv").exists()
        assert not (out / "residual_map.json").exists()

    def test_compare_outputs(self, tmp_path):
        code = run(
            "compare", "--readout", READOUT, "--reset-duration", "50",
            "--out", str(tmp_path),
        )
        assert code == 0
        summary = json.loads((tmp_path / "comparison.json").read_text())
        for scheme in ("square", "sspe", "clear"):
            entry = summary["schemes"][scheme]["0"]
            assert (tmp_path / entry["trajectory_csv"]).exists()
        assert summary["schemes"]["sspe"]["0"]["residual_end"] < 1e-4


class TestFit:
    def test_ramsey_round_trip(self, tmp_path):
        device = default_device()
        model = RamseyModel.from_device(device, fringe=2.0 * math.pi, phi0=0.3, n0=1.2)
        rows = gen_ramsey_dataset(model, np.linspace(0.0, 2.0, 200), NoiseSpec.gaussian(0.01, seed=7))
        data = tmp_path / "ramsey.csv"
        write_samples_csv(data, ["t_us", "signal"], rows)
        code = run(
            "fit", "ramsey", "--data", str(data),
            "--fringe-init", "6.28", "--phi0-init", "0.3",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "fit_ramsey.json").read_text())
        assert payload["fit"]["values"]["n0"] == pytest.approx(1.2, abs=0.1)

    def test_decay(self, tmp_path):
        rate_ang = 1.711 * 2.0 * math.pi * 1e-3
        rows = [(t, 5.0 * math.exp(-rate_ang * t)) for t in np.linspace(0.0, 400.0, 40)]
        data = tmp_path / "decay.csv"
        write_samples_csv(data, ["t_ns", "n"], rows)
        assert run("fit", "decay", "--data", str(data), "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "fit_decay.json").read_text())
        assert payload["fit"]["values"]["rate"] == pytest.approx(1.711, rel=1e-9)

    def test_decay_with_zero_sample_is_numeric_error(self, tmp_path):
        data = tmp_path / "bad.csv"
        write_samples_csv(data, ["t_ns", "n"], [(0.0, 1.0), (1.0, 0.0), (2.0, 0.1)])
        assert run("fit", "decay", "--data", str(data), "--out", str(tmp_path)) == 3

    def test_decay_with_nan_time_is_config_error(self, tmp_path):
        data = tmp_path / "nan.csv"
        data.write_text("t_ns,n\n0.0,1.0\nnan,0.5\n2.0,0.25\n")
        assert run("fit", "decay", "--data", str(data), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize(
        ("text", "row"), [("t,S\n1\n2\n", 1), ("t,S\n0,1\n1\n2,0.5\n", 2)], ids=["one-column", "ragged"]
    )
    def test_short_csv_row_is_config_error(self, tmp_path, capsys, text, row):
        data = tmp_path / "short.csv"
        data.write_text(text)
        assert run("fit", "decay", "--data", str(data), "--out", str(tmp_path / "out")) == 2
        assert f"data row {row} has 1 value(s), need 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_data_file_is_config_error(self, tmp_path):
        assert run("fit", "decay", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) in (2,)

    @pytest.mark.parametrize("kappa", ["0", "nan"])
    def test_ramsey_bad_fixed_kappa_is_config_error(self, tmp_path, kappa):
        model = RamseyModel.from_device(default_device(), fringe=2.0 * math.pi, n0=1.0)
        data = tmp_path / "ramsey.csv"
        write_samples_csv(data, ["t_us", "signal"], gen_ramsey_dataset(model, np.linspace(0.0, 2.0, 50)))
        out = tmp_path / "out"
        assert run("fit", "ramsey", "--data", str(data), "--kappa", kappa, "--out", str(out)) == 2
        assert not out.exists()

    def test_options_before_the_fit_kind_are_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "qubit2.json"
        default_device(qubit=2).to_json(cfg)
        rows = [(t, 5.0 * math.exp(-0.01 * t)) for t in np.linspace(0.0, 400.0, 40)]
        data = tmp_path / "decay.csv"
        write_samples_csv(data, ["t_ns", "n"], rows)
        with pytest.raises(SystemExit) as err:
            run("fit", "--config", str(cfg), "--out", str(tmp_path / "early"), "decay", "--data", str(data))
        assert err.value.code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["decay.csv", "qubit2.json"]
        assert run("fit", "decay", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "late")) == 0
        payload = json.loads((tmp_path / "late" / "fit_decay.json").read_text())
        assert payload["provenance"]["device"]["kappa"] == pytest.approx(4.054)


@pytest.mark.parametrize(
    ("argv", "rows", "message"),
    [
        (("fit", "decay"), [(0.0, 1.0), (1.0, 0.0), (2.0, 0.1)], "decay fit needs strictly positive photon numbers"),
        (("fit", "ramsey"), [(0.0, 0.1), (1.0, 0.2)], "need >= 10 Ramsey samples, got 2"),
        (
            ("simulate", "--schedule", '[{"amp": 0.01, "phase": 0, "duration": 50}]', "--force-ode", "--dt", "100"),
            None,
            "dt = 100.0 ns too coarse for a 50.0 ns segment",
        ),
    ],
    ids=["decay-zero-sample", "ramsey-two-rows", "ode-step-too-large"],
)
def test_numeric_failures_exit_3_with_their_message(tmp_path, capsys, argv, rows, message):
    if rows is not None:
        data = tmp_path / "data.csv"
        write_samples_csv(data, ["t", "y"], rows)
        argv = (*argv, "--data", str(data))
    assert run(*argv, "--out", str(tmp_path / "out")) == 3
    assert message in capsys.readouterr().err


class TestConfigAndCalibrate:
    def test_custom_config_respected(self, tmp_path):
        cfg = tmp_path / "dev.json"
        default_device(qubit=2).to_json(cfg)
        assert run("calibrate", "--config", str(cfg), "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["provenance"]["device"]["kappa"] == pytest.approx(4.054)
        assert "formula" in payload and "measured" in payload

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"kappa": -3}')
        assert run("calibrate", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "weird.json"
        data = default_device().to_dict()
        data["flux"] = 1.0
        cfg.write_text(json.dumps(data))
        assert run("calibrate", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_chi_source_changes_output(self, tmp_path):
        run("calibrate", "--out", str(tmp_path / "f"), "--chi-source", "formula")
        run("calibrate", "--out", str(tmp_path / "m"), "--chi-source", "measured")
        f = json.loads((tmp_path / "f/calibration.json").read_text())
        m = json.loads((tmp_path / "m/calibration.json").read_text())
        assert f["formula"]["chi_0_mhz"] == m["formula"]["chi_0_mhz"]
        assert f["provenance"]["chi_source"] != m["provenance"]["chi_source"]


class TestScenarioCommand:
    def test_single_scenario_passes(self, tmp_path, capsys):
        assert run("scenario", "fig1_maps", "--out", str(tmp_path)) == 0
        assert "fig1_maps: pass" in capsys.readouterr().out

    def test_failing_scenario_exit_1(self, tmp_path):
        cfg = tmp_path / "short_t1.json"
        default_device().with_(t1=20.0).to_json(cfg)
        assert run("scenario", "fig4_backaction", "--config", str(cfg), "--out", str(tmp_path)) == 1

    def test_kerr_device_is_config_error(self, tmp_path):
        # the scenarios' closed forms and fits assume a linear device
        cfg = tmp_path / "kerr.json"
        default_device().with_(kerr_coeff=-0.2).to_json(cfg)
        out = tmp_path / "out"
        assert run("scenario", "all", "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()

    def test_unknown_scenario_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("scenario", "fig9", "--out", str(tmp_path))
        assert err.value.code == 2


class TestHelp:
    def test_help_documents_units(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("simulate", "--help")
        assert err.value.code == 0
        text = capsys.readouterr().out
        assert "rad/ns" in text
        assert "ns" in text

    def test_entry_point_installed(self):
        out = subprocess.run(
            [sys.executable, "-m", "cavreset.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "cavreset" in out.stdout
