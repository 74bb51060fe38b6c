"""Fast reset of a driven readout cavity: simulation, pulse design, fitting.

The model is the semiclassical cavity field alpha(t) conditioned on the qubit
state, with qubit-state-dependent detuning, single-photon decay, and an
optional self-Kerr term.  On top of it:

- exact piecewise propagation and fixed-step RK4 (`dynamics`),
- closed-form and optimized reset drives plus residual maps (`design`),
- estimators for Ramsey photometry, repeated-measurement backaction,
  exponential decay, and Kerr calibration (`fitting`),
- deterministic synthetic data generators (`synth`),
- reproducible end-to-end scenarios (`scenarios`) and a CLI (`cli`).

Unit conventions are uniform across the package: frequencies and rates in
ordinary MHz, times in ns (coherence times in us), drive amplitudes in
rad/ns, phases in radians in [0, 2pi).
"""

from ._version import __version__
from .core import (
    CHI_SOURCES,
    DeviceParams,
    QubitState,
    chi_shift,
    complex_rate,
    critical_photon_number,
    default_device,
)
from .design import (
    ResetSolution,
    ResidualMap,
    SchemeComparison,
    SchemeMetrics,
    clear_optimize,
    compare_schemes,
    residual_map,
    scaling_law_check,
    sspe_optimize,
)
from .dynamics import (
    Trajectory,
    final_alpha,
    photon_number,
    propagate,
    propagate_closed_form,
    propagate_ode,
    ring_up_segment,
)
from .errors import (
    CavityResetError,
    ConfigError,
    NotConverged,
    NumericError,
    ScenarioFailed,
)
from .fitting import (
    BackactionModel,
    FitResult,
    RamseyModel,
    ac_stark_reconstruct,
    backaction_forward,
    exp_decay_fit,
    fit_backaction,
    fit_kerr_calibration,
    fit_ramsey,
    kerr_steady_state,
    ramsey_forward,
)
from .pulses import DriveSegment, PulseSchedule, SchemeLabel, wrap_phase
from .scenarios import SCENARIO_NAMES, ScenarioReport, run_all, run_scenario
from .synth import (
    NoiseSpec,
    gen_backaction_sequence,
    gen_ramsey_dataset,
    gen_spectroscopy,
    read_samples_csv,
    write_samples_csv,
)

__all__ = [
    "__version__",
    "CHI_SOURCES",
    "DeviceParams",
    "QubitState",
    "chi_shift",
    "complex_rate",
    "critical_photon_number",
    "default_device",
    "ResetSolution",
    "ResidualMap",
    "SchemeComparison",
    "SchemeMetrics",
    "clear_optimize",
    "compare_schemes",
    "residual_map",
    "scaling_law_check",
    "sspe_optimize",
    "Trajectory",
    "final_alpha",
    "photon_number",
    "propagate",
    "propagate_closed_form",
    "propagate_ode",
    "ring_up_segment",
    "CavityResetError",
    "ConfigError",
    "NotConverged",
    "NumericError",
    "ScenarioFailed",
    "BackactionModel",
    "FitResult",
    "RamseyModel",
    "ac_stark_reconstruct",
    "backaction_forward",
    "exp_decay_fit",
    "fit_backaction",
    "fit_kerr_calibration",
    "fit_ramsey",
    "kerr_steady_state",
    "ramsey_forward",
    "DriveSegment",
    "PulseSchedule",
    "SchemeLabel",
    "wrap_phase",
    "SCENARIO_NAMES",
    "ScenarioReport",
    "run_all",
    "run_scenario",
    "NoiseSpec",
    "gen_backaction_sequence",
    "gen_ramsey_dataset",
    "gen_spectroscopy",
    "read_samples_csv",
    "write_samples_csv",
]
