"""Exception hierarchy.

Two broad families matter to callers: problems with the input data
(:class:`DataError`) and problems that arise while computing on valid data
(:class:`ComputationError`).  The CLI maps them to distinct exit codes.
"""

from contextlib import contextmanager


class CurveshapError(Exception):
    """Base class for every error raised by this package."""


class DataError(CurveshapError):
    """The input data is malformed, degenerate, or insufficient."""


class ComputationError(CurveshapError):
    """A computation cannot proceed on otherwise valid inputs."""


@contextmanager
def allocation(what: str):
    """Report numpy's refusal to allocate `what` as a DataError: a
    MemoryError, or a ValueError ("array is too big") past numpy's size
    limit.  Wrap only the allocation."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise DataError(f"cannot allocate {what}: {exc}") from None


# --- dataset -----------------------------------------------------------

class MissingColumn(DataError):
    def __init__(self, name: str):
        super().__init__(f"column {name!r} not found in header")
        self.name = name


class NonNumericCell(DataError):
    def __init__(self, row: int, column: str, text: str):
        super().__init__(f"row {row}, column {column!r}: {text!r} is not numeric")
        self.row = row
        self.column = column


class NonBinaryLabel(DataError):
    def __init__(self, row: int, text: str):
        super().__init__(f"row {row}: label {text!r} is not 0 or 1")
        self.row = row


class EmptyDataset(DataError):
    pass


class DuplicateFeatureName(DataError):
    def __init__(self, name: str):
        super().__init__(f"feature name {name!r} appears more than once")
        self.name = name


class DegenerateSplit(DataError):
    """A train/test split left one side without both label classes."""


class IndexOutOfRange(DataError):
    def __init__(self, index: int, n_features: int):
        super().__init__(f"feature index {index} out of range for {n_features} features")
        self.index = index


class RepeatedColumn(DataError):
    def __init__(self, index: int):
        super().__init__(f"feature index {index} appears more than once in a coalition")
        self.index = index


class InfeasibleProportion(DataError):
    """The requested class proportion cannot be met by down-sampling."""


# --- model -------------------------------------------------------------

class SingleClassTrainingSet(DataError):
    """Training data contains only one label class."""


class ArityMismatch(ComputationError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"model expects {expected} features, got {got}")
        self.expected = expected
        self.got = got


# --- curves ------------------------------------------------------------

class SingleClassLabels(DataError):
    """Both label classes are required to build a ROC curve."""


class NoPositiveLabels(DataError):
    """At least one positive label is required to build a PR curve."""


# --- game / shapley ----------------------------------------------------

class TooManyFeaturesForExactMode(ComputationError):
    def __init__(self, n_features: int, cap: int):
        super().__init__(
            f"{n_features} features exceed the exact-mode cap of {cap}; "
            f"use permutation sampling instead"
        )
        self.n_features = n_features
        self.cap = cap


class IncompleteTable(ComputationError):
    """A payoff table is missing coalitions required by the computation."""


class GridTooCoarse(ComputationError):
    def __init__(self, points: int, minimum: int):
        super().__init__(
            f"grid of {points} points is too coarse; at least {minimum} required"
        )
        self.points = points
        self.minimum = minimum
