"""ROC and precision-recall curves, their areas, and point estimation.

Curves are built by a descending threshold sweep with tied scores collapsed
into a single step.  `roc_curves` / `pr_curves` sweep every row of an
(M, rows) score array at once; `roc_from_scores` / `pr_from_scores` are their
one-row case.  `estimate_tpr` / `estimate_precision` answer "what is
the curve's value at this abscissa" under the three bracketing strategies.

The sweep's sort need not be stable.  A row with ties reads its tp/fp counts
only at the last index of each tied group, where they count the whole group
whatever order the sort left inside it; NaN scores, which sort last, form one
such group.  So a curve depends only on the (score, label) pairs, not on the
order inside a tie.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NoPositiveLabels, SingleClassLabels

DEFAULT_GRID_SIZE = 101


class Strategy(enum.Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"
    INTERPOLATION = "interpolation"


@dataclass(frozen=True, eq=False)
class RocCurve:
    """ROC points (fpr ascending from (0,0) to (1,1)) and trapezoidal AUC."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.fpr, self.tpr])


@dataclass(frozen=True, eq=False)
class PrCurve:
    """PR points (recall ascending; precision need not be monotone) and AUPRC."""

    recall: np.ndarray
    precision: np.ndarray
    auprc: float

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.recall, self.precision])


def trapezoid(y: np.ndarray, x: np.ndarray):
    """Trapezoidal integral of y over x (x ascending) along the last axis: a
    float for 1-D inputs, one area per row for stacked ones."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    area = 0.5 * np.sum((x[..., 1:] - x[..., :-1]) * (y[..., 1:] + y[..., :-1]), axis=-1)
    return float(area) if area.ndim == 0 else area


def default_grid(size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Evenly spaced abscissa grid over [0, 1]; a size numpy cannot allocate
    is a DataError."""
    if size < 2:
        raise DataError(f"grid needs at least 2 points, got {size}")
    try:
        return np.linspace(0.0, 1.0, size)
    except (MemoryError, ValueError) as exc:   # ValueError: "array is too big"
        raise DataError(f"cannot allocate a grid of {size} points: {exc}") from None


def check_grid(grid) -> np.ndarray:
    """`grid` as a non-empty 1-D float64 array of abscissae in [0, 1]."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise DataError("grid must be a non-empty 1-D array")
    if not ((grid >= 0.0) & (grid <= 1.0)).all():
        raise DataError("grid abscissae must lie in [0, 1]")
    return grid


def _sweep(scores: np.ndarray, labels: np.ndarray):
    """Cumulative tp/fp counts of every row of `scores` (M, rows), swept
    from the highest score down, and where each row's next score differs."""
    order = np.argsort(-scores, axis=1)
    sorted_scores = scores[np.arange(scores.shape[0])[:, np.newaxis], order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels == 1, axis=1)
    fp = np.cumsum(sorted_labels == 0, axis=1)
    # NaN scores sort last; they form one tied group, like equal scores.
    distinct = sorted_scores[:, 1:] != sorted_scores[:, :-1]
    distinct &= ~np.isnan(sorted_scores[:, :-1])
    return tp, fp, distinct


def _roc_points(tp, fp, n_pos, n_neg):
    start = np.zeros(tp.shape[:-1] + (1,))
    return (np.concatenate([start, fp / n_neg], axis=-1),
            np.concatenate([start, tp / n_pos], axis=-1))


def _pr_points(tp, fp, n_pos, n_neg):
    precision = tp / (tp + fp)
    return (np.concatenate([np.zeros(tp.shape[:-1] + (1,)), tp / n_pos], axis=-1),
            np.concatenate([precision[..., :1], precision], axis=-1))


def _curves(scores, labels, n_pos, n_neg, points) -> list[tuple]:
    """(x, y, area) of the curve of each row of `scores` (M, rows).

    Rows without ties take their points and areas from the whole batch at
    once; a row with ties collapses each tied group into one point, alone.
    """
    tp, fp, distinct = _sweep(np.asarray(scores, dtype=np.float64), labels)
    x, y = points(tp, fp, n_pos, n_neg)
    out = [(x[i], y[i], area) for i, area in enumerate(trapezoid(y, x).tolist())]
    for i in np.flatnonzero(~distinct.all(axis=1)):
        last_of_group = np.flatnonzero(np.append(distinct[i], True))
        xi, yi = points(tp[i, last_of_group], fp[i, last_of_group], n_pos, n_neg)
        out[i] = (xi, yi, trapezoid(yi, xi))
    return out


def roc_curves(scores: np.ndarray, labels: np.ndarray) -> list[RocCurve]:
    """Threshold-sweep ROC curve, with endpoints (0,0) and (1,1), of each row
    of `scores` (M, rows) against the same `labels`."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassLabels("ROC curve needs both label classes")
    return [RocCurve(*c) for c in _curves(scores, labels, n_pos, n_neg, _roc_points)]


def pr_curves(scores: np.ndarray, labels: np.ndarray) -> list[PrCurve]:
    """Threshold-sweep PR curve of each row of `scores` (M, rows) against the
    same `labels`.

    The left endpoint (0, precision of the highest-score step) is prepended
    as a convention; precision at recall 0 is otherwise undefined.
    """
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise NoPositiveLabels("PR curve needs at least one positive label")
    n_neg = int((labels == 0).sum())
    return [PrCurve(*c) for c in _curves(scores, labels, n_pos, n_neg, _pr_points)]


def roc_from_scores(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """Threshold-sweep ROC curve with endpoints (0,0) and (1,1)."""
    return roc_curves(np.asarray(scores)[np.newaxis], labels)[0]


def pr_from_scores(scores: np.ndarray, labels: np.ndarray) -> PrCurve:
    """Threshold-sweep PR curve; see `pr_curves`."""
    return pr_curves(np.asarray(scores)[np.newaxis], labels)[0]


def _estimate(x: np.ndarray, y: np.ndarray, query, s: Strategy):
    if not isinstance(s, Strategy):
        raise DataError(f"unknown strategy {s!r}")
    # Clamp to the curve's span (relevant for PR curves; ROC spans [0,1]).
    q = np.clip(np.asarray(query, dtype=np.float64), x[0], x[-1])
    b = np.searchsorted(x, q, side="left")
    a = np.searchsorted(x, q, side="right") - 1
    y_a, y_b = y[a], y[b]
    if s is Strategy.OPTIMISTIC:
        out = np.maximum(y_a, y_b)
    elif s is Strategy.PESSIMISTIC:
        out = np.minimum(y_a, y_b)
    else:
        x_a, x_b = x[a], x[b]
        # Query sits on a knot where x_a == x_b: a == b for a unique knot (both
        # terms equal); for a repeated abscissa, average the two extremes of
        # the run.  The interpolation divides by zero there and is discarded.
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                x_a == x_b,
                0.5 * (y_a + y_b),
                y_a + (y_b - y_a) * (q - x_a) / (x_b - x_a),
            )
    return float(out) if out.ndim == 0 else out


def estimate_tpr(c: RocCurve, fpr_query, s: Strategy):
    """Curve value at `fpr_query` (a float or an array) under strategy `s`."""
    return _estimate(c.fpr, c.tpr, fpr_query, s)


def estimate_precision(c: PrCurve, recall_query, s: Strategy):
    """Curve value at `recall_query` (a float or an array); queries outside
    the span clamp to it."""
    return _estimate(c.recall, c.precision, recall_query, s)
