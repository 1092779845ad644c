"""Gaussian naive Bayes scoring.

Training fits class-conditional Gaussians per feature by maximum likelihood;
scoring returns normalized positive-class posteriors computed in log-space.
Every statistic of the fit is reduced over one feature column alone, so the
model of a feature coalition is a column subset of the full model: scoring
with `columns` gives bit for bit the scores of a model retrained on those
columns.  Only the variance smoothing depends on the coalition, and it is
recomputed from the coalition's own columns.  A model of zero feature
columns degrades to the prior-only model whose scores all equal the
positive prior.

`score` takes one coalition's columns, or a batch of M coalitions of one
size as an (M, k) index array scored in one pass.  One coalition gives
(rows,) scores and a batch (M, rows); each row of a batch equals its
coalition scored alone, bit for bit.

A coalition's per-feature log-likelihood terms depend on the coalition only
through its variance smoothing, which is the largest of its members' own
smoothings.  So the first call that scores a test set ranks the columns and
tabulates the terms: with the columns ranked by own smoothing first, level r
holds the terms of the r + 1 lowest-ranked columns at the smoothing of the
column of rank r, in all n(n+1)/2 × test rows float64 per class.  The model
keeps the tables of the last test set object it scored and builds them again
for another; a batch gathers its terms from them.

A row's log-likelihood is the sum of its k per-feature terms added in
ascending order of column rank, one after another from 0.0.  The rank is
fixed by the columns' content, never their position: own smoothing, then the
class means, then the ML variances, then the test values.  So the sum order
does not depend on the order of the columns, a model retrained on a
coalition's columns sums in the same order, and duplicate columns score
bit-identically.  The terms are not added smallest value first.  A batch's
terms are gathered feature-major, one (M, rows) plane per feature in rank
order, and added with one numpy call per plane, not per lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import (
    ArityMismatch,
    DataError,
    IndexOutOfRange,
    RepeatedColumn,
    SingleClassTrainingSet,
)

VAR_SMOOTHING = 1e-9
VAR_FLOOR = 1e-12
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Per-class Gaussian parameters; immutable once trained."""

    priors: np.ndarray          # (2,) class probabilities, index = label
    means: np.ndarray           # (2, n_features)
    ml_variances: np.ndarray    # (2, n_features), unsmoothed ML estimates
    column_variances: np.ndarray  # (n_features,) training variance; sets the smoothing
    # The last test set scored and its term tables, as _term_tables gives them.
    _tables: tuple | None = field(default=None, init=False, repr=False)

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    @property
    def variances(self) -> np.ndarray:
        """Smoothed variances, strictly positive.  The smoothing is relative
        to the spread of the model's training columns, with an absolute floor
        so constant columns stay finite."""
        return self.ml_variances + _smoothing(self.column_variances)

    def score(
        self, test: Dataset, columns: Sequence[int] | np.ndarray | None = None
    ) -> np.ndarray:
        return score(self, test, columns)


def train_gnb(train: Dataset) -> TrainedModel:
    """Fit class-conditional Gaussians by maximum likelihood."""
    labels = train.labels
    if labels.min() == labels.max():
        raise SingleClassTrainingSet("training data must contain both classes")
    counts = np.array([(labels == 0).sum(), (labels == 1).sum()], dtype=np.float64)
    priors = counts / labels.shape[0]
    # One contiguous row per feature column, so each statistic is reduced
    # over that column alone, in the same order whatever columns sit beside it.
    columns = np.ascontiguousarray(train.features.T)
    by_class = [np.ascontiguousarray(columns[:, labels == c]) for c in (0, 1)]
    means = np.stack([x.mean(axis=1) for x in by_class])
    # Finite values can square past the float64 range.  Such a column's
    # variance is inf and its coalitions score non-finite, which each game
    # reports as a degenerate coalition; numpy need not warn as well.
    with np.errstate(over="ignore", invalid="ignore"):
        variances = np.stack([x.var(axis=1) for x in by_class])
        column_variances = columns.var(axis=1)
    return TrainedModel(priors, means, variances, column_variances)


def _smoothing(column_variances: np.ndarray) -> np.ndarray:
    """Variance smoothing of each coalition whose training column variances
    lie along the last axis: relative to the largest, floored at VAR_FLOOR
    (which is also the value for a coalition of no columns)."""
    return np.maximum(
        VAR_SMOOTHING * column_variances.max(axis=-1, initial=0.0), VAR_FLOOR
    )


def _term_tables(m: TrainedModel, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Each class's log-likelihood terms -0.5 * ((x - mean)² / var + log 2π var)
    of `test` at every column's own variance smoothing.

    Returns (rank, terms).  `rank` (n,) orders the columns by their own
    smoothing, so a coalition's smoothing is that of its member of highest
    rank r (scaling by VAR_SMOOTHING and flooring keep the order of the
    variances); call it level r.  Ties break on the columns' class means,
    then their ML variances, then their test values, row by row; columns
    tied on all of these have the same terms at every level.  `terms`
    (2, n(n+1)/2, rows) holds, at row r(r+1)/2 + q, the terms of the column of
    rank q ≤ r at level r, from the float operations of a term computed for
    one coalition.
    """
    own = _smoothing(m.column_variances[:, np.newaxis])     # one-column coalitions
    stats = np.vstack((own, m.means, m.ml_variances))
    order = np.lexsort(stats[::-1])
    tied = (stats[:, order[1:]] == stats[:, order[:-1]]).all(axis=0)
    # Test values are compared only within the rare groups still tied.
    for group in np.split(order, np.flatnonzero(~tied) + 1):
        if group.size > 1:
            group[...] = group[np.lexsort(test.features[::-1, group])]
    level = np.repeat(np.arange(order.size), np.arange(1, order.size + 1))
    column = order[np.arange(level.size) - level * (level + 1) // 2]
    variances = m.ml_variances[:, column] + own[order[level]]
    log_norms = _LOG_2PI + np.log(variances)
    terms = np.empty((2, column.size, test.n_rows))
    # mode="clip" (the columns are in range) gathers into `terms` in place;
    # mode="raise" would first gather into a buffer of the same size.
    np.take(test.features.T, column, axis=0, out=terms[0], mode="clip")
    terms[1] = terms[0]
    terms -= m.means[:, column, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):   # see train_gnb
        np.square(terms, out=terms)
        terms /= variances[..., np.newaxis]
    terms += log_norms[..., np.newaxis]
    terms *= -0.5
    return np.argsort(order), terms


def _in_order_sum(planes: np.ndarray, out: np.ndarray) -> None:
    """Write to `out` the sum over the first axis of `planes` (k, ...), its
    planes added in order, one after another from 0.0.  A function of its
    own, so no view of `planes` outlives the call."""
    out[...] = 0.0
    for plane in planes:
        out += plane


def score(
    m: TrainedModel, test: Dataset, columns: Sequence[int] | np.ndarray | None = None
) -> np.ndarray:
    """Positive-class posterior probability for every row of `test`.

    `test` has the model's columns.  `columns` names one coalition by its
    distinct integer column indices (None: all columns; no indices: the
    prior-only model) or, as an (M, k) integer array, a batch of M coalitions
    of k columns.  Each coalition is scored exactly as by a model trained on
    its columns alone.  Returns (rows,) scores for one coalition and
    (M, rows) for a batch.

    The terms are gathered from the model's term tables of `test`, built on
    the first call for this test set object (2 × n(n+1)/2 × test rows
    float64) and kept on the model until it scores another.
    """
    if test.n_features != m.n_features:
        raise ArityMismatch(m.n_features, test.n_features)
    cols = np.asarray(range(m.n_features) if columns is None else columns)
    if cols.size and cols.dtype.kind not in "iu":
        raise DataError(f"column indices must be integers, got dtype {cols.dtype}")
    batch = cols.ndim == 2
    if not batch:
        cols = cols.reshape(1, cols.size)
    outside = cols[(cols < 0) | (cols >= m.n_features)]
    if outside.size:
        raise IndexOutOfRange(int(outside[0]), m.n_features)
    cols = cols.astype(np.intp)
    ordered = np.sort(cols, axis=1)
    repeated = ordered[:, 1:][ordered[:, 1:] == ordered[:, :-1]]
    if repeated.size:
        raise RepeatedColumn(int(repeated[0]))
    if m._tables is None or m._tables[0] is not test:
        # Held with its test set, whose identity keys them; the old tables
        # are freed before the new ones are built.
        object.__setattr__(m, "_tables", None)
        object.__setattr__(m, "_tables", (test, *_term_tables(m, test)))
    _, rank, terms = m._tables
    # Each coalition's table rows at its level, in rank order, feature-major.
    ranks = np.sort(rank[cols], axis=1)
    level = ranks[:, -1:]
    rows = (level * (level + 1) // 2 + ranks).T
    log_joint = np.empty((2, cols.shape[0], test.n_rows))
    for c in (0, 1):
        block = np.take(terms[c], rows, axis=0)
        _in_order_sum(block, out=log_joint[c])
        # Freed before the other class gathers its own: a batch holds one
        # block of k terms per score at a time, as game.BATCH_FLOATS counts.
        del block
        log_joint[c] += np.log(m.priors[c])
    # P(y=1 | x) = 1 / (1 + exp(l0 - l1)), evaluated stably.
    with np.errstate(over="ignore", invalid="ignore"):   # see train_gnb
        scores = np.exp(log_joint[1] - np.logaddexp(log_joint[0], log_joint[1]))
    return scores if batch else scores[0]
