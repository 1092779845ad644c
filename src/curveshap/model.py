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

A row's log-likelihood is the sum of its k per-feature terms added in
ascending order of value, one after another from 0.0, so it does not depend
on the order of the coalition's columns.  The terms of a batch are laid out
feature-major, one (M, rows) plane per feature.  For k up to NETWORK_WIDTH a
comparator network sorts the planes with whole-plane minimum/maximum; wider
blocks are sorted along the feature axis by numpy.  The sorted planes are
then added in order with one numpy call per plane, not per lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    RepeatedColumn,
    SingleClassTrainingSet,
)

VAR_SMOOTHING = 1e-9
VAR_FLOOR = 1e-12
# Widest coalition whose terms are sorted by a comparator network; wider ones
# by np.sort along the feature axis.  Timed as whole `score` calls on the
# batches that game.BATCH_FLOATS gives at 275 test rows (numpy 2.4, 2 vCPU),
# np.sort takes 1.15-1.43x the network's time at k = 10-12, 1.04-1.13x at
# 13-14, 0.99-1.01x at 15 and 0.92-0.93x at 16; a width of 14 made no
# measurable difference to a whole `explain-auc --sampled 500` run at n = 16.
NETWORK_WIDTH = 12

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Per-class Gaussian parameters; immutable once trained."""

    priors: np.ndarray          # (2,) class probabilities, index = label
    means: np.ndarray           # (2, n_features)
    ml_variances: np.ndarray    # (2, n_features), unsmoothed ML estimates
    column_variances: np.ndarray  # (n_features,) training variance; sets the smoothing

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
    variances = np.stack([x.var(axis=1) for x in by_class])
    return TrainedModel(priors, means, variances, columns.var(axis=1))


def _smoothing(column_variances: np.ndarray) -> np.ndarray:
    """Variance smoothing of each coalition whose training column variances
    lie along the last axis: relative to the largest, floored at VAR_FLOOR
    (which is also the value for a coalition of no columns)."""
    return np.maximum(
        VAR_SMOOTHING * column_variances.max(axis=-1, initial=0.0), VAR_FLOOR
    )


@cache
def _network(k: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd–even merge sort of k values: comparators (i, j), i < j,
    each leaving the smaller value at i.  It is built for the next power of
    two and keeps the comparators within k; the dropped ones would compare a
    value with +inf padding past k and move nothing."""
    width = 1
    while width < k:
        width *= 2
    pairs = []
    p = 1
    while p < width:
        step = p
        while step >= 1:
            for j in range(step % p, width - step, 2 * step):
                for i in range(j, j + min(step, width - j - step)):
                    if i // (2 * p) == (i + step) // (2 * p) and i + step < k:
                        pairs.append((i, i + step))
            step //= 2
        p *= 2
    return tuple(pairs)


def _terms(sq: np.ndarray, var: np.ndarray, log_norm: np.ndarray) -> np.ndarray:
    """The log-likelihood terms -0.5 * (log 2π + log var + (x - mean)² / var),
    computed in place in the gathered squared deviations `sq`: the block is
    the batch's largest array.  `log_norm` is log 2π + log var."""
    sq /= var
    sq += log_norm
    sq *= -0.5
    return sq


def _sorted_sum(planes: np.ndarray, out: np.ndarray) -> None:
    """Write to `out` the sum over the first axis of `planes` (k, ...), its
    values added in ascending order, one after another from 0.0.

    `planes` is overwritten.
    """
    if len(planes) <= NETWORK_WIDTH:
        p, spare = list(planes), np.empty_like(out)
        for i, j in _network(len(p)):
            np.minimum(p[i], p[j], out=spare)
            np.maximum(p[i], p[j], out=p[j])
            p[i], spare = spare, p[i]
    else:
        planes.sort(axis=0)
        p = planes
    out[...] = 0.0
    for plane in p:
        out += plane


def score(
    m: TrainedModel, test: Dataset, columns: Sequence[int] | np.ndarray | None = None
) -> np.ndarray:
    """Positive-class posterior probability for every row of `test`.

    `test` has the model's columns.  `columns` names one coalition by its
    distinct column indices (None: all columns; no indices: the prior-only
    model) or, as an (M, k) array, a batch of M coalitions of k columns.  Each
    coalition is scored exactly as by a model trained on its columns alone.
    Returns (rows,) scores for one coalition and (M, rows) for a batch.
    """
    if test.n_features != m.n_features:
        raise ArityMismatch(m.n_features, test.n_features)
    cols = np.asarray(
        range(m.n_features) if columns is None else columns, dtype=np.intp
    )
    batch = cols.ndim == 2
    if not batch:
        cols = cols.reshape(1, cols.size)
    outside = cols[(cols < 0) | (cols >= m.n_features)]
    if outside.size:
        raise IndexOutOfRange(int(outside[0]), m.n_features)
    ordered = np.sort(cols, axis=1)
    repeated = ordered[:, 1:][ordered[:, 1:] == ordered[:, :-1]]
    if repeated.size:
        raise RepeatedColumn(int(repeated[0]))
    variances = (np.take(m.ml_variances, cols, axis=1)
                 + _smoothing(np.take(m.column_variances, cols))[:, np.newaxis])
    log_norms = _LOG_2PI + np.log(variances)
    log_joint = np.empty((2, cols.shape[0], test.n_rows))
    for c in (0, 1):
        # The squared deviation does not depend on the coalition, so it is
        # computed once per column and gathered by np.take.  Summing each
        # lane's terms in value order makes the scores independent of column
        # order, so coalition projections that differ only in feature
        # position score bit-identically.
        sq = (test.features - m.means[c]) ** 2
        block = _terms(np.take(sq.T, cols.T, axis=0),
                       variances[c].T[..., np.newaxis], log_norms[c].T[..., np.newaxis])
        _sorted_sum(block, out=log_joint[c])
        # Freed before the other class gathers its own: a batch holds one
        # block of k terms per score at a time, as game.BATCH_FLOATS counts.
        del block
        log_joint[c] += np.log(m.priors[c])
    # P(y=1 | x) = 1 / (1 + exp(l0 - l1)), evaluated stably.
    scores = np.exp(log_joint[1] - np.logaddexp(log_joint[0], log_joint[1]))
    return scores if batch else scores[0]
