"""Independent exact Shapley decomposition of the AUC game, for checking outputs.

It shares no code with the program.  It reads the generated CSV, repeats the
CLI's train/test split (a `default_rng(seed)` row permutation cut at
floor(0.8 n)) and scores every coalition from one Gaussian naive Bayes fit:
the per-feature log-likelihood terms are summed through a coalition mask
matrix, with the coalition's own variance smoothing.  AUC is the
Mann-Whitney statistic with ties counted one half, which equals the
trapezoidal area under the tie-collapsed ROC curve.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

TRAIN_FRACTION = 0.8
VAR_SMOOTHING = 1e-9
VAR_FLOOR = 1e-12
CHUNK = 2048


def load(path: Path, label: str = "class") -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    at = rows[0].index(label)
    body = np.array(rows[1:], dtype=np.float64)
    return np.delete(body, at, axis=1), body[:, at].astype(np.int64)


def split(x: np.ndarray, y: np.ndarray, seed: int):
    order = np.random.default_rng(seed).permutation(len(y))
    cut = math.floor(TRAIN_FRACTION * len(y))
    tr, te = order[:cut], order[cut:]
    return x[tr], y[tr], x[te], y[te]


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mann-Whitney AUC of each row of `scores` (ties count one half)."""
    k, r = scores.shape
    order = np.argsort(scores, axis=1, kind="stable")
    ordered = np.take_along_axis(scores, order, axis=1)
    starts = np.ones((k, r), dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    group = np.cumsum(starts.ravel()) - 1
    ranks = np.tile(np.arange(1.0, r + 1.0), k)
    mean_rank = (np.bincount(group, ranks) / np.bincount(group))[group].reshape(k, r)
    n_pos = int(labels.sum())
    n_neg = r - n_pos
    pos_ranks = (mean_rank * labels[order]).sum(axis=1)
    return (pos_ranks - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def coalition_aucs(path: Path, seed: int) -> np.ndarray:
    """AUC of the model trained on every coalition, indexed by bitmask (∅ gets 0.5)."""
    x, y, xt, yt = split(*load(path), seed)
    n = x.shape[1]
    priors = np.log(np.bincount(y, minlength=2) / len(y))
    means = np.stack([x[y == c].mean(axis=0) for c in (0, 1)])
    raw_var = np.stack([x[y == c].var(axis=0) for c in (0, 1)])
    spread = x.var(axis=0)
    masks = np.arange(1 << n)
    member = (masks[:, None] >> np.arange(n)) & 1
    # The smoothing of a coalition is set by its widest column.
    widest = np.argmax(np.where(member == 1, spread, -np.inf), axis=1)
    aucs = np.full(1 << n, 0.5)
    for j in range(n):
        eps = max(VAR_SMOOTHING * float(spread[j]), VAR_FLOOR)
        var = raw_var + eps
        terms = [
            -0.5 * (np.log(2.0 * np.pi) + np.log(var[c]) + (xt - means[c]) ** 2 / var[c])
            for c in (0, 1)
        ]
        picked = masks[(widest == j) & (masks > 0)]
        for start in range(0, picked.size, CHUNK):
            chunk = picked[start:start + CHUNK]
            m = member[chunk].astype(np.float64)
            l0 = priors[0] + m @ terms[0].T
            l1 = priors[1] + m @ terms[1].T
            scores = np.exp(l1 - np.logaddexp(l0, l1))
            aucs[chunk] = rank_auc(scores, yt)
    return aucs


def shapley(payoffs: np.ndarray) -> np.ndarray:
    """Exact Shapley values of a payoff vector indexed by coalition bitmask."""
    n = int(payoffs.size).bit_length() - 1
    masks = np.arange(payoffs.size)
    sizes = np.array([int(m).bit_count() for m in masks])
    weights = np.array(
        [math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n) for s in range(n)]
    )
    phi = np.empty(n)
    for i in range(n):
        without = masks[(masks >> i & 1) == 0]
        phi[i] = np.sum(weights[sizes[without]] * (payoffs[without | 1 << i] - payoffs[without]))
    return phi


def exact_auc_attribution(path: Path, seed: int) -> tuple[np.ndarray, float, np.ndarray]:
    """(φ per feature, grand-coalition AUC, payoff per bitmask) of the AUC game."""
    payoffs = coalition_aucs(path, seed) - 0.5
    payoffs[0] = 0.0
    return shapley(payoffs), 0.5 + float(payoffs[-1]), payoffs
