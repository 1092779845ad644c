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
        if self.n_features == 0:
            return self.ml_variances
        eps = max(VAR_SMOOTHING * float(self.column_variances.max()), VAR_FLOOR)
        return self.ml_variances + eps

    def score(self, test: Dataset, columns: Sequence[int] | None = None) -> np.ndarray:
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


def score(
    m: TrainedModel, test: Dataset, columns: Sequence[int] | None = None
) -> np.ndarray:
    """Positive-class posterior probability for every row of `test`.

    `test` has the model's columns.  Given `columns`, distinct column
    indices, only those are scored, exactly as by a model trained on them
    alone; no columns give the prior-only scores.
    """
    if test.n_features != m.n_features:
        raise ArityMismatch(m.n_features, test.n_features)
    x = test.features
    if columns is not None:
        cols = np.asarray(columns, dtype=np.intp).reshape(-1)
        outside = cols[(cols < 0) | (cols >= m.n_features)]
        if outside.size:
            raise IndexOutOfRange(int(outside[0]), m.n_features)
        # np.take keeps the selections C-contiguous, so the reductions below
        # run in the same order as on a retrained model's arrays.
        m = TrainedModel(
            m.priors, *(np.take(a, cols, axis=-1)
                        for a in (m.means, m.ml_variances, m.column_variances))
        )
        x = np.take(x, cols, axis=1)
    variances = m.variances
    log_joint = np.empty((test.n_rows, 2))
    for c in (0, 1):
        if m.n_features == 0:
            log_lik = np.zeros(test.n_rows)
        else:
            var = variances[c]
            terms = -0.5 * (
                _LOG_2PI
                + np.log(var)
                + (x - m.means[c]) ** 2 / var
            )
            # Summing the per-feature terms in value order makes the scores
            # independent of column order, so coalition projections that
            # differ only in feature position score bit-identically.
            log_lik = np.sort(terms, axis=1).sum(axis=1)
        log_joint[:, c] = np.log(m.priors[c]) + log_lik
    # P(y=1 | x) = 1 / (1 + exp(l0 - l1)), evaluated stably.
    return np.exp(log_joint[:, 1] - np.logaddexp(log_joint[:, 0], log_joint[:, 1]))
