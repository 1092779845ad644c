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
ascending order of value, so it does not depend on the order of the
coalition's columns.  The sum is, bit for bit, numpy's add-reduce of the
sorted terms along a C-contiguous last axis: fewer than eight values are
added one by one from 0.0; eight to 128 go to eight accumulators stepping by
eight, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the rest are then
added in order.  For k up to NETWORK_WIDTH the terms of a batch are laid out
feature-major, one (M, rows) plane per feature; a comparator network sorts
the planes with whole-plane minimum/maximum, and the planes are added in that
order with one numpy call per plane, not per lane.  Wider coalitions keep
each lane's k terms C-contiguous, sort them and let numpy sum them: its
add-reduce of a strided view can add in another order and change the bits.
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
# sort each lane.  Timed per k as whole `score` calls on the batches that
# game.BATCH_FLOATS gives at 275 test rows, the network is faster up to 12
# features, and from 13 to 16 the two paths are within about 20% of each
# other, as close as repeated runs of one path.
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


def _network_sum(planes: np.ndarray, out: np.ndarray) -> None:
    """Write to `out` the sum over the first axis of `planes` (k, ...), added
    in ascending order of value exactly as numpy adds the sorted values along
    a C-contiguous last axis: the same bits as `np.sort(a).sum(axis=-1)`.

    `planes` is overwritten.  k must be at most 128, numpy's pairwise block.
    """
    p, spare = list(planes), np.empty_like(out)
    for i, j in _network(len(p)):
        np.minimum(p[i], p[j], out=spare)
        np.maximum(p[i], p[j], out=p[j])
        p[i], spare = spare, p[i]
    if len(p) < 8:
        # numpy adds fewer than eight values one after another from 0.0.
        out[...] = 0.0
        for plane in p:
            out += plane
        return
    # Eight accumulators step through the values by eight, are combined
    # pairwise, and the values past the last full step follow one by one;
    # the reduction then adds that sum to its identity, 0.0.
    full = len(p) - len(p) % 8
    for i in range(8, full):
        p[i % 8] += p[i]
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        p[a] += p[b]
    for plane in p[full:]:
        p[0] += plane
    np.add(p[0], 0.0, out=out)


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
        if cols.shape[1] <= NETWORK_WIDTH:
            # Feature-major (k, M, rows): a comparator network sorts whole
            # (M, rows) planes, which are then added in numpy's own order.
            block = _terms(np.take(sq.T, cols.T, axis=0),
                           variances[c].T[..., np.newaxis], log_norms[c].T[..., np.newaxis])
            _network_sum(block, out=log_joint[c])
        else:
            # Lanes of a C-contiguous (rows, M, k) block, as sort and sum need.
            block = _terms(np.take(sq, cols, axis=1), variances[c], log_norms[c])
            block.sort(axis=-1)
            log_joint[c] = block.sum(axis=-1).T
        # Freed before the other class gathers its own: a batch holds one
        # block of k terms per score at a time, as game.BATCH_FLOATS counts.
        del block
        log_joint[c] += np.log(m.priors[c])
    # P(y=1 | x) = 1 / (1 + exp(l0 - l1)), evaluated stably.
    scores = np.exp(log_joint[1] - np.logaddexp(log_joint[0], log_joint[1]))
    return scores if batch else scores[0]
