"""End-to-end scenario bundles: pass cleanly, reproduce exactly, fail honestly."""

import filecmp
import json
import tempfile
from pathlib import Path

import pytest

from cavreset import (
    CHI_SOURCES,
    SCENARIO_NAMES,
    ConfigError,
    ScenarioFailed,
    default_device,
    run_all,
    run_scenario,
)
from cavreset.scenarios import derive_seeds

#: Every assertion's measured value and every numeric note of
#: `scenario all --seed 0`, per chi source.  Regenerate with
#: `PYTHONPATH=src python tests/test_scenarios.py`.
GOLDEN = Path(__file__).with_name("golden_scenarios.json")

#: Relative tolerance of a golden value.
GOLDEN_REL = 1e-9

#: Values that are roundoff or a difference of close numbers, with the scale
#: of the numbers they are taken from; the tolerance is GOLDEN_REL times it.
GOLDEN_SCALES = {
    # photons left by an exact reset: roundoff of a 5-photon readout
    "exact_reset_state0": 5.0,
    "exact_reset_state1": 5.0,
    "sspe_residual_end": 5.0,
    "clear_residual_end": 5.0,
    # deviations relative to 1, or in rad
    "scaling_amplitude_ratio": 1.0,
    "scaling_phase_invariance": 1.0,
    "closed_form_ode_agreement": 1.0,
    "ac_stark_round_trip": 1.0,
    "kerr_cubic_vs_ode": 1.0,
    # fitted photons minus the truth, of order 1 photon
    "ramsey_noiseless_n0_0": 1.0,
    "ramsey_noisy_max_error": 1.0,
    "ramsey_noisy_median_bias": 1.0,
    # fitted rates minus the truth, per measurement
    "backaction_binomial_relaxation": 0.0722,
    "backaction_binomial_excitation": 0.0005,
    # Kerr fitted on a Kerr-free device, kHz, next to the -11 kHz case
    "kerr_fit_null_case_khz": 11.0,
}


def golden_values(reports):
    """{scenario: {name: value}}: measured values, then notes as notes.<key>[.<sub>]."""
    out = {}
    for scenario, report in reports.items():
        values = {a.name: a.measured for a in report.assertions}
        for key, note in report.notes.items():
            if isinstance(note, dict):
                values.update({f"notes.{key}.{sub}": float(v) for sub, v in note.items()})
            else:
                values[f"notes.{key}"] = float(note)
        out[scenario] = values
    return out


def golden_mismatches(fresh, golden):
    """One line per value that is off its golden value or found on one side only."""
    bad = []
    for scenario in sorted(fresh.keys() | golden.keys()):
        got, want = fresh.get(scenario, {}), golden.get(scenario, {})
        for name in sorted(got.keys() | want.keys()):
            if name not in got or name not in want:
                bad.append(f"{scenario}:{name} is missing on one side")
                continue
            tol = GOLDEN_REL * max(abs(want[name]), GOLDEN_SCALES.get(name, 0.0))
            if not abs(got[name] - want[name]) <= tol:
                bad.append(f"{scenario}:{name} = {got[name]!r}, golden {want[name]!r}")
    return bad


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


@pytest.mark.parametrize("source", CHI_SOURCES)
def test_golden_values(request, source):
    fixture = "all_reports" if source == "formula" else "measured_reports"
    _, reports = request.getfixturevalue(fixture)
    golden = json.loads(GOLDEN.read_text())[source]
    assert golden_mismatches(golden_values(reports), golden) == []


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


if __name__ == "__main__":
    golden = {}
    for source in CHI_SOURCES:
        with tempfile.TemporaryDirectory() as root:
            golden[source] = golden_values(run_all(out_root=root, seed=0, chi_source=source, raise_on_fail=False))
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(GOLDEN)
