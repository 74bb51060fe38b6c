"""Exception hierarchy for the cavity-reset toolkit.

Each class is one kind of failure a caller can act on, and the CLI maps
each to an exit code: configuration problems (bad input files, invalid
parameters), numeric failures (degenerate denominators, diverging
integrations, ill-posed fits; the message says which), optimizer or fit
non-convergence, and failed scenario assertions.
"""


class CavityResetError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CavityResetError):
    """Invalid configuration: unparseable files, bad parameter values."""


class NumericError(CavityResetError):
    """A numeric-domain failure; the message names what failed."""


class NotConverged(CavityResetError):
    """An optimizer or fit stopped without meeting its tolerance."""


class ScenarioFailed(CavityResetError):
    """A scenario finished with at least one failed assertion."""
