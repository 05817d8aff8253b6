"""Exception hierarchy shared across the package, and the check that
makes a malformed file a DataFormatError.

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



SHAPE = "a list of integers >= 0"


def check_json(obj, where: str, **kinds) -> dict:
    """``obj`` if it is a JSON object whose ``kinds`` keys hold values of
    those kinds (a type, a tuple of types or :data:`SHAPE`; a boolean is no
    number), else a DataFormatError: the file ``where`` is malformed."""
    if not isinstance(obj, dict):
        raise DataFormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key, kind in kinds.items():
        val = obj.get(key)
        if kind is SHAPE:
            ok = isinstance(val, list) and all(type(v) is int and v >= 0 for v in val)
        else:
            ok = key in obj and isinstance(val, kind) and (kind is bool or type(val) is not bool)
        if not ok:
            raise DataFormatError(f"{where}: bad or missing {key!r} entry {val!r}")
    return obj
