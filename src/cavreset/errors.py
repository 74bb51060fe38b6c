"""Exception hierarchy for the cavity-reset toolkit.

Three broad classes matter to callers (and to the CLI exit-code scheme):
configuration problems (bad input files, invalid parameters), numeric
failures (degenerate denominators, diverging integrations), and optimizer
or fit non-convergence.
"""


class CavityResetError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CavityResetError):
    """Invalid configuration: unparseable files, bad parameter values."""


class NumericError(CavityResetError):
    """Base class for numeric-domain failures."""


class DegenerateDetuning(NumericError):
    """A dispersive-shift denominator is numerically zero."""


class KerrNotSupported(NumericError):
    """Closed-form propagation requested with a nonzero Kerr coefficient."""


class StepTooLarge(NumericError):
    """Integrator step exceeds a tenth of the shortest segment."""


class NonFinite(NumericError):
    """Cavity field amplitude overflowed during integration."""


class OutOfRange(NumericError):
    """Requested time lies outside the trajectory span."""


class ZeroCoupling(NumericError):
    """Critical photon number is undefined at zero qubit-cavity coupling."""


class DegenerateDuration(NumericError):
    """Reset window makes the vacuum-reset denominator vanish."""


class NonPositiveSample(NumericError):
    """Log-linear decay fit received a sample with n <= 0."""


class InsufficientSamples(NumericError):
    """Too few samples (or too short a span) for a well-posed fit."""


class PeakAtEdge(NumericError):
    """Spectrum maximum sits on the first or last sweep point."""


class DegenerateRates(NumericError):
    """Backaction model with gamma_out + gamma_back = 0 has no steady state."""


class NotConverged(CavityResetError):
    """An optimizer or fit stopped without meeting its tolerance."""


class ScenarioFailed(CavityResetError):
    """A scenario finished with at least one failed assertion."""
