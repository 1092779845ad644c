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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import ArityMismatch, IndexOutOfRange, SingleClassTrainingSet

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
    variances = (np.take(m.ml_variances, cols, axis=1)
                 + _smoothing(np.take(m.column_variances, cols))[:, np.newaxis])
    log_joint = np.empty((test.n_rows, cols.shape[0], 2))
    for c in (0, 1):
        var = variances[c]
        # Each term is -0.5 * (log 2π + log var + (x - mean)² / var).  The
        # squared deviation does not depend on the coalition, so it is
        # computed once per column; np.take then gives one C-contiguous
        # (rows, M, k) block, so each coalition's terms of a row are sorted
        # and summed in the order a retrained model's are.  The block is
        # updated in place: it is the batch's largest array.
        terms = np.take((test.features - m.means[c]) ** 2, cols, axis=1)
        terms /= var
        terms += _LOG_2PI + np.log(var)
        terms *= -0.5
        # Summing the per-feature terms in value order makes the scores
        # independent of column order, so coalition projections that
        # differ only in feature position score bit-identically.
        terms.sort(axis=-1)
        log_joint[..., c] = np.log(m.priors[c]) + terms.sum(axis=-1)
    # P(y=1 | x) = 1 / (1 + exp(l0 - l1)), evaluated stably.
    scores = np.exp(log_joint[..., 1] - np.logaddexp(log_joint[..., 0], log_joint[..., 1]))
    return np.ascontiguousarray(scores.T) if batch else scores[:, 0]
