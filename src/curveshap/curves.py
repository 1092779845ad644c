"""ROC and precision-recall curves, their areas, and point estimation.

Curves are built by a descending threshold sweep with tied scores collapsed
into a single step.  `sweeper` checks a label vector once and returns the
sweep of every row of an (M, rows) score array against it into one
`CurveBatch`, so a game checks its test labels once, not once per sweep.
It is the one way into the sweep.  A sweep ranks each row's labels once,
highest score first, and derives the rest from that:

- Ranking.  When every score of the batch is ≥ 0, as every posterior is, one
  `np.sort` per row of uint64 keys (score bits << 1) | label ranks them; the
  shift drops only the sign bit, so -0.0 ties with 0.0, and the keys are
  stored inverted so that the highest score sorts first.  Neighbouring keys
  that differ only in the label bit are ties.  Any other batch, one with a
  negative or NaN score, takes an `argsort` of the negated scores, NaN
  ranked last as one tied group.
- Areas.  A row without ties adds only the trapezoid terms that move x: for
  ROC those at its negatives, each read from how many positives rank above
  it, for PR those at its positives; every other term is +0.0.  They are
  added in point order, so each area keeps the bits of the trapezoid over
  all its points.  A row with ties takes that trapezoid over its collapsed
  points, through `trapezoid`.
- Points.  `CurveBatch` builds the padded (M, rows + 1) point arrays from the
  ranking the first time a caller reads them (`estimate`, `x`, ...):
  a row with ties keeps the last point of each tied group and repeats its end
  point after it.  An area-only game never builds them.

`roc_from_scores` / `pr_from_scores` read the one row of a one-row batch.

`CurveBatch.estimate`, `estimate_tpr` and `estimate_precision` answer "what
is the curve's value at this abscissa" under the three bracketing strategies,
all through `_bracket`.  It brackets in count space: a batch's x are
count / n, so x < q exactly when count < #(levels < q), levels being
arange(n + 1) / n; with each row's counts offset by row × (n + 2), one
`searchsorted` over the flattened batch finds every row's bracket of every
query.  A hand-built curve's x are ranked among their distinct values instead.

The ranking need not be stable.  A row with ties reads its tp/fp counts only
at the last index of each tied group, where they count the whole group
whatever order the sort left inside it; NaN scores, which sort last, form one
such group.  So a curve depends only on the (score, label) pairs, not on the
order inside a tie, and both ranking paths give it the same bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DataError, NoPositiveLabels, SingleClassLabels, allocation

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
    """The curves of M score rows, swept against the same labels.

    `ranked` holds each row's labels as positives, highest score first,
    ranked by packed (score, label) keys when every score is ≥ 0 and by an
    `argsort` otherwise.  `tied` lists the rows with tied scores, and
    `tied_points` their collapsed (counts, x, y, lengths), built when the
    batch is swept.  `areas` holds each row's AUC or AUPRC: a tied row's
    from those points, any other row's from its ranked labels.

    The points are built from the ranking the first time they are read, as
    padded (M, P) arrays, P = test rows + 1.  Row i's points are the first
    `lengths[i]` columns of `x` and `y`; a row with ties has fewer and
    repeats its end point in the rest.  `counts` holds each point's false
    positives (ROC) or true positives (PR), and x == levels[counts] with
    levels = arange(n + 1) / n for the n negatives (ROC) or positives (PR).
    """

    ranked: np.ndarray
    tied: np.ndarray
    tied_points: tuple
    n_pos: int
    n_neg: int
    roc: bool
    areas: np.ndarray

    @property
    def levels(self) -> np.ndarray:
        n = self.n_neg if self.roc else self.n_pos
        return np.arange(n + 1) / n

    @cached_property
    def _arrays(self) -> tuple:
        """(counts, x, y, lengths), built on the first read of any of them;
        the tied rows' come from `tied_points`."""
        if self.tied.size == len(self.ranked):
            return self.tied_points
        arrays = _points(self.ranked, self.n_pos, self.n_neg, self.roc)
        for whole, tied in zip(arrays, self.tied_points):
            whole[self.tied] = tied
        return arrays

    @property
    def counts(self) -> np.ndarray:
        return self._arrays[0]

    @property
    def x(self) -> np.ndarray:
        return self._arrays[1]

    @property
    def y(self) -> np.ndarray:
        return self._arrays[2]

    @property
    def lengths(self) -> np.ndarray:
        return self._arrays[3]

    def estimate(self, query: np.ndarray, s: Strategy) -> np.ndarray:
        """Every row's curve value at each abscissa of `query` (Q,) under
        strategy `s`, shape (M, Q); queries outside [0, 1], every row's
        span, clamp to it."""
        q = np.clip(np.asarray(query, dtype=np.float64), 0.0, 1.0)
        return _bracket(self.levels, self.counts, self.x, self.y, q, s)


def trapezoid(y: np.ndarray, x: np.ndarray):
    """Trapezoidal integral of y over x (x ascending) along the last axis, its
    terms added in point order from 0.0 as a swept area's are: a float for
    1-D inputs, one area per row for stacked ones."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    terms = (x[..., 1:] - x[..., :-1]) * (y[..., 1:] + y[..., :-1])
    # A leading 0.0 starts each sum; it is the whole area of a curve of one point.
    terms = np.concatenate([np.zeros(terms.shape[:-1] + (1,)), terms], axis=-1)
    area = _in_order_area(terms.reshape(-1, terms.shape[-1])).reshape(terms.shape[:-1])
    return float(area) if area.ndim == 0 else area


def default_grid(size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Evenly spaced abscissa grid over [0, 1]; a size numpy cannot allocate
    is a DataError."""
    if size < 2:
        raise DataError(f"grid needs at least 2 points, got {size}")
    with allocation(f"a grid of {size} points"):
        return np.linspace(0.0, 1.0, size)


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


def _rank(scores: np.ndarray, labels: np.ndarray):
    """Each row's labels as positives (M, rows), highest score first, and
    where each row's next score differs (M, rows - 1)."""
    if (scores >= 0.0).all():
        # Non-negative floats order as their bits.  Shifting out the sign bit
        # makes -0.0 tie with 0.0 and frees the low bit for the label.  The
        # keys are inverted, ~((bits << 1) | label), to sort the highest
        # score first; built as ~(bits << 1) ^ label, one pass fewer.
        keys = np.ascontiguousarray(scores).view(np.uint64) << np.uint64(1)
        np.invert(keys, out=keys)
        keys ^= labels.astype(np.uint64)
        keys.sort(axis=1)
        return (keys & np.uint64(1)) == 0, (keys[:, 1:] ^ keys[:, :-1]) > 1
    order = np.argsort(-scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    # NaN scores sort last; they form one tied group, like equal scores.
    distinct = (ranked[:, 1:] != ranked[:, :-1]) & ~np.isnan(ranked[:, :-1])
    return labels[order] == 1, distinct


def _points(ranked, n_pos: int, n_neg: int, roc: bool, distinct=None) -> tuple:
    """The counts, x, y and number of points of the ROC (`roc`) or PR curve
    of every row of `ranked` (M, rows), as padded (M, rows + 1) arrays from
    cumulative tp/fp counts after a leading 0 (the origin).  Given `distinct`
    (M, rows - 1), each row keeps the origin and the last point of each tied
    group, then repeats its end point."""
    m, rows = ranked.shape
    points = rows + 1
    tp = np.zeros((m, points), dtype=np.intp)
    np.cumsum(ranked, axis=1, out=tp[:, 1:])
    column = np.arange(points)          # each point's scores swept, tp + fp
    lengths = np.full(m, points)
    if distinct is not None:
        # Keep the origin and the last point of each tied group, in order,
        # then repeat the end point (column points - 1) up to the full width:
        # the dropped columns, set to the last one, sort after the kept ones.
        keep = np.ones((m, points), dtype=bool)
        keep[:, 1:-1] = distinct
        column = np.where(keep, column, points - 1)
        column.sort(axis=1)
        lengths = keep.sum(axis=1)
        tp = tp.take(column + np.arange(0, m * points, points)[:, np.newaxis])
    fp = column - tp
    del column          # freed before x and y are allocated
    if roc:
        return fp, fp / n_neg, tp / n_pos, lengths
    with np.errstate(invalid="ignore"):     # 0 / 0 at the origin
        y = tp / (tp + fp)
    y[:, 0] = y[:, 1]
    return tp, tp / n_pos, y, lengths


def _in_order_area(terms: np.ndarray) -> np.ndarray:
    """Half of each row's sum of trapezoid `terms`, added in point order."""
    return 0.5 * np.cumsum(terms, axis=1, out=terms)[:, -1]


def _untied_areas(ranked: np.ndarray, n_pos: int, n_neg: int, roc: bool) -> np.ndarray:
    """The areas of rows without ties from the trapezoid terms at the points
    that move x, each row's negatives (ROC) or positives (PR): every other
    term is (x - x) × (y + y) == +0.0, which adds nothing."""
    m, rows = ranked.shape
    n = n_neg if roc else n_pos
    # The ranks of each row's n negatives (ROC) or positives (PR), in order.
    rank = np.flatnonzero(~ranked if roc else ranked).reshape(m, n)
    rank -= np.arange(0, m * rows, rows)[:, np.newaxis]
    if roc:
        # The f-th negative moves fpr from levels[f - 1] to levels[f] while
        # tpr stays at t / n_pos, t = rank - (f - 1) positives above it.
        rank -= np.arange(n)
        ysum = rank / n_pos
        ysum += ysum
    else:
        # The p-th positive takes precision from (p - 1) / rank to
        # p / (rank + 1); the origin copies point 1, so at rank 0 it is 1.0.
        p = np.arange(1, n + 1)
        ysum = p / (rank + 1)
        ysum += np.divide(p - 1, rank, out=np.ones(rank.shape), where=rank > 0)
    levels = np.arange(n + 1) / n
    ysum *= levels[1:] - levels[:-1]
    return _in_order_area(ysum)


def _batch(scores, labels, n_pos: int, n_neg: int, roc: bool) -> CurveBatch:
    """The ROC (`roc`) or PR curves of every row of `scores` (M, rows)."""
    ranked, distinct = _rank(np.asarray(scores, dtype=np.float64), labels)
    untied = distinct.all(axis=1)
    tied = np.flatnonzero(~untied)
    areas = np.empty(untied.size)
    if untied.any():
        areas[untied] = _untied_areas(ranked[untied], n_pos, n_neg, roc)
    tied_points = ()
    if tied.size:
        tied_points = _points(ranked[tied], n_pos, n_neg, roc, distinct[tied])
        # The padding repeats the end point: its +0.0 terms add nothing.
        areas[tied] = trapezoid(tied_points[2], tied_points[1])
    return CurveBatch(ranked, tied, tied_points, n_pos, n_neg, roc, areas)


def sweeper(labels, roc: bool) -> Callable[[np.ndarray], CurveBatch]:
    """Check `labels` once and return the sweep of (M, rows) score arrays
    against them into ROC (`roc`) or PR curves.  Labels other than 0 and 1
    are a DataError; ROC curves need both classes (SingleClassLabels), PR
    curves a positive (NoPositiveLabels)."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != labels.size:
        bad = labels[(labels != 0) & (labels != 1)][0]
        raise DataError(f"labels must be 0 or 1, got {bad.item()!r}")
    if roc and (n_pos == 0 or n_neg == 0):
        raise SingleClassLabels("ROC curve needs both label classes")
    if n_pos == 0:
        raise NoPositiveLabels("PR curve needs at least one positive label")
    return lambda scores: _batch(scores, labels, n_pos, n_neg, roc)


def roc_from_scores(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """Threshold-sweep ROC curve with endpoints (0,0) and (1,1)."""
    curve = sweeper(labels, roc=True)(np.asarray(scores)[np.newaxis])
    n = curve.lengths[0]
    return RocCurve(curve.x[0, :n], curve.y[0, :n], float(curve.areas[0]))


def pr_from_scores(scores: np.ndarray, labels: np.ndarray) -> PrCurve:
    """Threshold-sweep PR curve.

    The left endpoint (0, precision of the highest-score step) is prepended
    as a convention; precision at recall 0 is otherwise undefined.
    """
    curve = sweeper(labels, roc=False)(np.asarray(scores)[np.newaxis])
    n = curve.lengths[0]
    return PrCurve(curve.x[0, :n], curve.y[0, :n], float(curve.areas[0]))


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
