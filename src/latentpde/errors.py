"""Exception hierarchy shared across the package, and the one check of each
JSON object the program reads (configs, manifests, model headers and clips),
of each parameter object's fields (GrfParams, GridSpec, Trajectory, TrainConfig)
and of the scalar arguments of each library function, which passes its
``locals()`` first thing and is named in the message, as in
``euler_frames: steps must be an integer, got nan``.

Every error carries an ``exit_code`` so the command line driver can map
failures onto stable process exit statuses:

    2 -> bad parameters / inconsistent shapes
    3 -> file format or I/O problems
    4 -> numerical divergence (NaN/Inf mid-run)
    5 -> diagnostic failures (singular Gramian, degenerate statistics, ...)
"""

import collections
import numbers
import sys


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


# A row of a table: the kind of value a key holds (int, float for a finite real, bool, str,
# dict for any JSON object, a nested table, list for a list of integers, or (kind, None) if
# null may stand in), its range ``value op bound`` (of each item of a list) or, for an op of
# two brackets such as "[)", the interval between the two bounds, and whether it may be left
# out: always (True), or if the key ``omit`` is given.
Key = collections.namedtuple("Key", "kind op bound omit", defaults=(None, None, False))
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite real number"),
          bool: (bool, "true or false"), str: (str, "a string"), dict: (dict, "a JSON object"),
          list: (list, "a list")}
_OPS = {">": lambda a, b: a > b, ">=": lambda a, b: a >= b, "==": lambda a, b: a == b,
        "in": lambda a, b: a in b, "()": lambda a, b: b[0] < a < b[1],
        "[)": lambda a, b: b[0] <= a < b[1], "(]": lambda a, b: b[0] < a <= b[1],
        "[]": lambda a, b: b[0] <= a <= b[1]}


def check_entries(entries, table: dict, where: str, error, prefix: str = "") -> None:
    """Raise ``error`` unless ``entries`` is a JSON object that meets ``table``,
    whose other keys pass; ``where`` names the config, file or class."""
    if not isinstance(entries, dict):
        raise error(f"{where}: expected a JSON object, got {type(entries).__name__}")
    for key, (kind, op, bound, omit) in table.items():
        name = prefix + key
        if key not in entries:
            if omit is True or (omit and omit in entries):
                continue
            raise error(f"{where} lacks {name}")
        value = entries[key]
        if value is None and isinstance(kind, tuple):
            continue
        kind = kind[0] if isinstance(kind, tuple) else kind
        types, noun = _KINDS[dict if isinstance(kind, dict) else kind]
        # a boolean is no number; NaN, infinity and an integer past the float range fail
        if (not isinstance(value, types) or kind is not bool and isinstance(value, bool)
                or kind is float and not abs(value) <= sys.float_info.max):
            raise error(f"{where}: {name} must be {noun}, got {value!r}")
        if kind is list:  # a table of one integer row per item
            kind = {str(i): Key(int, op, bound) for i in range(len(value))}
            value = dict(zip(kind, value))
        if isinstance(kind, dict):
            check_entries(value, kind, where, error, name + ".")
        elif op and not _OPS[op](value, bound):
            rule = (f"in {op[0]}{bound[0]}, {bound[1]}{op[1]}" if op[0] in "(["
                    else f"{op} {bound!r}")
            raise error(f"{where}: {name} must be {rule}, got {value!r}")
