"""End-to-end scenario bundles: pass cleanly, reproduce exactly, fail honestly."""

import filecmp
import json
from pathlib import Path

import pytest

from cavreset import (
    SCENARIO_NAMES,
    ConfigError,
    ScenarioFailed,
    default_device,
    run_scenario,
)
from cavreset.scenarios import derive_seeds


class TestAllScenarios:
    def test_names_are_stable(self):
        assert SCENARIO_NAMES == (
            "fig1_maps",
            "fig2_scaling",
            "fig3_dynamics",
            "fig4_backaction",
            "appC_calibration",
        )

    def test_every_scenario_passes(self, all_reports):
        _, reports = all_reports
        for name, report in reports.items():
            failed = [a.name for a in report.failures()]
            assert report.passed, f"{name} failed: {failed}"

    def test_every_assertion_within_tolerance(self, all_reports):
        _, reports = all_reports
        total = sum(len(r.assertions) for r in reports.values())
        assert total >= 25  # each bundle checks several quantities
        for report in reports.values():
            for a in report.assertions:
                assert a.passed, f"{report.scenario}:{a.name}"

    def test_listed_files_exist(self, all_reports):
        root, reports = all_reports
        for name, report in reports.items():
            for rel in report.files:
                assert (Path(root) / name / rel).exists(), rel

    def test_report_json_written_and_loadable(self, all_reports):
        root, reports = all_reports
        for name in reports:
            blob = json.loads((Path(root) / name / "report.json").read_text())
            assert blob["scenario"] == name
            assert blob["passed"] is True
            assert blob["metadata"]["seed"] == 0
            assert "version" in blob["metadata"]
            assert blob["metadata"]["device"]["kappa"] == pytest.approx(1.711)

    def test_no_absolute_paths_in_reports(self, all_reports):
        root, reports = all_reports
        for name in reports:
            text = (Path(root) / name / "report.json").read_text()
            assert str(root) not in text


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario("fig4_backaction", out_root=a, seed=0)
        run_scenario("fig4_backaction", out_root=b, seed=0)
        da = a / "fig4_backaction"
        db = b / "fig4_backaction"
        names = sorted(p.name for p in da.iterdir())
        assert names == sorted(p.name for p in db.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(da, db, names, shallow=False)
        assert not mismatch and not errors

    def test_seed_changes_noisy_outputs(self, tmp_path):
        run_scenario("fig4_backaction", out_root=tmp_path / "s0", seed=0)
        run_scenario("fig4_backaction", out_root=tmp_path / "s1", seed=1)
        f0 = (tmp_path / "s0/fig4_backaction/backaction_relaxation_example.csv").read_bytes()
        f1 = (tmp_path / "s1/fig4_backaction/backaction_relaxation_example.csv").read_bytes()
        assert f0 != f1

    def test_derive_seeds_deterministic(self):
        a = derive_seeds(7, 5)
        b = derive_seeds(7, 5)
        assert list(a) == list(b)
        assert len(set(a)) == 5
        assert list(derive_seeds(8, 5)) != list(a)


class TestFailureHandling:
    def test_unknown_name(self, tmp_path):
        with pytest.raises(ConfigError):
            run_scenario("fig9_unknown", out_root=tmp_path)

    def test_broken_device_fails_honestly(self, tmp_path):
        # wrong relaxation time breaks the intrinsic-loss check
        bad = default_device().with_(t1=20.0)
        with pytest.raises(ScenarioFailed) as err:
            run_scenario("fig4_backaction", params=bad, out_root=tmp_path)
        report = err.value.report
        assert not report.passed
        assert "intrinsic_relaxation_per_microsecond" in [a.name for a in report.failures()]
        # the report is still written for post-mortem reading
        assert (tmp_path / "fig4_backaction/report.json").exists()

    def test_raise_on_fail_false_returns_report(self, tmp_path):
        bad = default_device().with_(t1=20.0)
        report = run_scenario("fig4_backaction", params=bad, out_root=tmp_path, raise_on_fail=False)
        assert not report.passed
