"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` so the command line driver can map
failures onto stable process exit statuses:

    2 -> bad parameters / inconsistent shapes
    3 -> file format or I/O problems
    4 -> numerical divergence (NaN/Inf mid-run)
    5 -> diagnostic failures (singular Gramian, degenerate statistics, ...)
"""


class LatentPdeError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParameterError(LatentPdeError):
    """Invalid argument values or mismatched dimensions."""

    exit_code = 2


class DataFormatError(LatentPdeError):
    """Corrupt or inconsistent on-disk data."""

    exit_code = 3


class DivergenceError(LatentPdeError):
    """A simulation or optimisation produced NaN/Inf.

    ``step`` records the first step at which the blow-up was detected;
    ``trajectory`` the first non-finite trajectory of a batch, if any.
    """

    exit_code = 4

    def __init__(self, message, step=None, trajectory=None):
        super().__init__(message)
        self.step = step
        self.trajectory = trajectory


class NonObservableError(LatentPdeError):
    """Reconstruction attempted through a numerically singular Gramian."""

    exit_code = 5


class DegenerateStatisticError(LatentPdeError):
    """A statistic is undefined on the given data (e.g. zero variance)."""

    exit_code = 5
