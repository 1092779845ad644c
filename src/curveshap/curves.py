"""ROC and precision-recall curves, their areas, and point estimation.

Curves are built by a descending threshold sweep with tied scores collapsed
into a single step.  `roc_batch` / `pr_batch` sweep every row of an (M, rows)
score array at once into one `CurveBatch` of padded (M, rows + 1) arrays: a
row with ties keeps the last point of each tied group and repeats its end
point after it.  `roc_curves` / `pr_curves` give each row's curve as views of
those arrays, and `roc_from_scores` / `pr_from_scores` are their one-row case.

`CurveBatch.estimate`, `estimate_tpr` and `estimate_precision` answer "what
is the curve's value at this abscissa" under the three bracketing strategies,
all through `_bracket`.  It brackets in count space: a batch's x are
count / n, so x < q exactly when count < #(levels < q), levels being
arange(n + 1) / n; with each row's counts offset by row × (n + 2), one
`searchsorted` over the flattened batch finds every row's bracket of every
query.  A hand-built curve's x are ranked among their distinct values instead.

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


@dataclass(frozen=True, eq=False)
class CurveBatch:
    """The curves of M score rows as padded (M, P) arrays, P = test rows + 1.

    Row i's points are the first `lengths[i]` columns of `x` and `y`; a row
    with ties has fewer and repeats its end point in the rest.  `counts` holds
    each point's false positives (ROC) or true positives (PR), and
    x == levels[counts] with levels = arange(n + 1) / n for the n negatives
    (ROC) or positives (PR).  `areas` holds each row's AUC or AUPRC.
    """

    levels: np.ndarray
    counts: np.ndarray
    x: np.ndarray
    y: np.ndarray
    lengths: np.ndarray
    areas: np.ndarray

    def estimate(self, query: np.ndarray, s: Strategy) -> np.ndarray:
        """Every row's curve value at each abscissa of `query` (Q,) under
        strategy `s`, shape (M, Q); queries outside [0, 1], every row's
        span, clamp to it."""
        q = np.clip(np.asarray(query, dtype=np.float64), 0.0, 1.0)
        return _bracket(self.levels, self.counts, self.x, self.y, q, s)

    def rows(self) -> list[tuple]:
        """Each row's (x, y, area), views of its own points."""
        return [(x[:n], y[:n], area) for x, y, n, area
                in zip(self.x, self.y, self.lengths.tolist(), self.areas.tolist())]


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
    """`grid` as a non-empty 1-D float64 array of ascending abscissae in
    [0, 1]; areas over it assume ascending order."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise DataError("grid must be a non-empty 1-D array")
    if not ((grid >= 0.0) & (grid <= 1.0)).all():
        raise DataError("grid abscissae must lie in [0, 1]")
    if (np.diff(grid) < 0.0).any():
        raise DataError("grid abscissae must be ascending")
    return grid


def _sweep(scores: np.ndarray, labels: np.ndarray):
    """Cumulative tp/fp counts of every row of `scores` (M, rows), swept
    from the highest score down after a leading 0 (the origin), shape
    (M, rows + 1); and where each row's next score differs."""
    m, rows = scores.shape
    order = np.argsort(-scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    # NaN scores sort last; they form one tied group, like equal scores.
    distinct = (ranked[:, 1:] != ranked[:, :-1]) & ~np.isnan(ranked[:, :-1])
    labels = labels[order]          # each row's labels, highest score first
    del order, ranked               # freed before the counts are allocated
    tp = np.zeros((m, rows + 1), dtype=np.intp)
    fp = np.zeros_like(tp)
    np.cumsum(labels == 1, axis=1, out=tp[:, 1:])
    np.cumsum(labels == 0, axis=1, out=fp[:, 1:])
    return tp, fp, distinct


def _batch(scores, labels, n_pos: int, n_neg: int, roc: bool) -> CurveBatch:
    """The ROC (`roc`) or PR curves of every row of `scores` (M, rows)."""
    tp, fp, distinct = _sweep(np.asarray(scores, dtype=np.float64), labels)
    m, points = tp.shape
    lengths = np.full(m, points)
    tied = np.flatnonzero(~distinct.all(axis=1))
    if tied.size:
        # Keep the origin and the last point of each tied group, in order,
        # then repeat the end point (column points - 1) up to the full width:
        # the dropped columns, set to the last one, sort after the kept ones.
        keep = np.ones((tied.size, points), dtype=bool)
        keep[:, 1:-1] = distinct[tied]
        index = np.where(keep, np.arange(points), points - 1)
        index.sort(axis=1)
        index += tied[:, np.newaxis] * points     # into the flattened batch
        tp[tied] = tp.take(index)
        fp[tied] = fp.take(index)
        lengths[tied] = keep.sum(axis=1)
    if roc:
        n, counts, x, y = n_neg, fp, fp / n_neg, tp / n_pos
    else:
        n, counts, x = n_pos, tp, tp / n_pos
        with np.errstate(invalid="ignore"):     # 0 / 0 at the origin
            y = tp / (tp + fp)
        y[:, 0] = y[:, 1]
    del tp, fp          # all but `counts`
    terms = x[:, 1:] - x[:, :-1]
    terms *= y[:, 1:] + y[:, :-1]
    # Summed in point order: the zero terms of a tied row's padding add nothing.
    areas = 0.5 * np.cumsum(terms, axis=1, out=terms)[:, -1]
    return CurveBatch(np.arange(n + 1) / n, counts, x, y, lengths, areas)


def roc_batch(scores: np.ndarray, labels: np.ndarray) -> CurveBatch:
    """Threshold-sweep ROC curves, with endpoints (0,0) and (1,1), of every
    row of `scores` (M, rows) against the same `labels`."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassLabels("ROC curve needs both label classes")
    return _batch(scores, labels, n_pos, n_neg, roc=True)


def pr_batch(scores: np.ndarray, labels: np.ndarray) -> CurveBatch:
    """Threshold-sweep PR curves of every row of `scores` (M, rows) against
    the same `labels`.

    The left endpoint (0, precision of the highest-score step) is prepended
    as a convention; precision at recall 0 is otherwise undefined.
    """
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise NoPositiveLabels("PR curve needs at least one positive label")
    return _batch(scores, labels, n_pos, int((labels == 0).sum()), roc=False)


def roc_curves(scores: np.ndarray, labels: np.ndarray) -> list[RocCurve]:
    """The ROC curve of each row of `scores` (M, rows); see `roc_batch`."""
    return [RocCurve(*row) for row in roc_batch(scores, labels).rows()]


def pr_curves(scores: np.ndarray, labels: np.ndarray) -> list[PrCurve]:
    """The PR curve of each row of `scores` (M, rows); see `pr_batch`."""
    return [PrCurve(*row) for row in pr_batch(scores, labels).rows()]


def roc_from_scores(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """Threshold-sweep ROC curve with endpoints (0,0) and (1,1)."""
    return roc_curves(np.asarray(scores)[np.newaxis], labels)[0]


def pr_from_scores(scores: np.ndarray, labels: np.ndarray) -> PrCurve:
    """Threshold-sweep PR curve; see `pr_batch`."""
    return pr_curves(np.asarray(scores)[np.newaxis], labels)[0]


def _bracket(levels, counts, x, y, q: np.ndarray, s: Strategy) -> np.ndarray:
    """Values at the abscissae `q` (Q,) of M curves, shape (M, Q).

    Each row of the (M, P) arrays `x` and `y` is one curve, x ascending and
    x == levels[counts], with `levels` ascending; `q` lies in every row's span.
    """
    if not isinstance(s, Strategy):
        raise DataError(f"unknown strategy {s!r}")
    # x < q ⇔ count < #(levels < q), and x ≤ q ⇔ count < #(levels ≤ q).  Row i's
    # counts lie in [0, levels.size) and its level counts in [0, levels.size],
    # so offset by i × (levels.size + 1), the counts ascend across the
    # flattened batch and every offset level count of row i lies below row
    # i + 1: searching for it counts row i's points and those of earlier rows.
    stride = levels.size + 1
    offsets = np.arange(0, counts.shape[0] * stride, stride)[:, np.newaxis]
    flat = (counts + offsets).ravel()
    b = np.searchsorted(flat, offsets + np.searchsorted(levels, q, side="left"))
    a = np.searchsorted(flat, offsets + np.searchsorted(levels, q, side="right")) - 1
    x, y = x.ravel(), y.ravel()
    y_a, y_b = y[a], y[b]
    if s is Strategy.OPTIMISTIC:
        return np.maximum(y_a, y_b)
    if s is Strategy.PESSIMISTIC:
        return np.minimum(y_a, y_b)
    x_a, x_b = x[a], x[b]
    # Query sits on a knot where x_a == x_b: a == b for a unique knot (both
    # terms equal); for a repeated abscissa, average the two extremes of
    # the run.  The interpolation divides by zero there and is discarded.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            x_a == x_b,
            0.5 * (y_a + y_b),
            y_a + (y_b - y_a) * (q - x_a) / (x_b - x_a),
        )


def _estimate(x, y, query, s: Strategy):
    """`_bracket` for one hand-built curve: its x ranked among their distinct
    values stand in for counts."""
    x = np.asarray(x, dtype=np.float64)
    # Clamp to the curve's span (relevant for PR curves; ROC spans [0,1]).
    q = np.clip(np.asarray(query, dtype=np.float64), x[0], x[-1])
    levels = np.unique(x)
    counts = np.searchsorted(levels, x)[np.newaxis]
    out = _bracket(levels, counts, x[np.newaxis], np.asarray(y, dtype=np.float64)[np.newaxis],
                   q.ravel(), s).reshape(q.shape)
    return float(out) if out.ndim == 0 else out


def estimate_tpr(c: RocCurve, fpr_query, s: Strategy):
    """Curve value at `fpr_query` (a float or an array) under strategy `s`."""
    return _estimate(c.fpr, c.tpr, fpr_query, s)


def estimate_precision(c: PrCurve, recall_query, s: Strategy):
    """Curve value at `recall_query` (a float or an array); queries outside
    the span clamp to it."""
    return _estimate(c.recall, c.precision, recall_query, s)
