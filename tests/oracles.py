"""Independent reference implementations used only by tests.

These deliberately avoid the package's own algorithms: AUC comes from
brute-force pair counting, Shapley values from averaging marginals over
every permutation.  They are slow and obviously correct.  The scoring and
sweep references restate one lane or one row at a time the formulas that the
package's batched code must match bit for bit.  The CSV reference reads
every cell in one Python loop, the checks the buffered loader must match.
The old posterior transform is kept beside the new one, so tests can check
where the two differ and where they give the same payoffs.  The Shapley-map
reference gathers each feature's coalitions by mask.
"""

from __future__ import annotations

import csv
import itertools
import math
from math import factorial, fsum

import numpy as np


def auc_rank_statistic(scores, labels) -> float:
    """(concordant pairs + half the tied pairs) / (n_pos * n_neg)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return (2 * greater + ties) / (2 * pos.size * neg.size)


def shapley_all_permutations(payoffs: dict[int, float], n: int) -> np.ndarray:
    """Average of each player's marginal contribution over all n! orders."""
    contributions: list[list[float]] = [[] for _ in range(n)]
    for perm in itertools.permutations(range(n)):
        mask = 0
        previous = 0.0
        for i in perm:
            mask |= 1 << i
            value = payoffs[mask]
            contributions[i].append(value - previous)
            previous = value
    return np.array([fsum(c) / factorial(n) for c in contributions])


def reference_shapley_map(payoffs) -> np.ndarray:
    """Shapley values, shape (n, m), of m payoff vectors of length 2^n, all
    rows at once.  For each feature i, `np.take` gathers the coalitions
    without i and with i by their masks, and one np.sum call adds each row's
    gains, weighted by the size of the coalition without i."""
    m, size = len(payoffs), len(payoffs[0])
    n = size.bit_length() - 1
    masks = np.arange(size, dtype=np.int64)
    sizes = np.zeros(size, dtype=np.int64)
    for i in range(n):
        sizes += (masks >> i) & 1
    weights = np.array([factorial(s) * factorial(n - 1 - s) / factorial(n) for s in range(n)])
    rows = np.asarray(payoffs)
    values = np.empty((n, m))
    for i in range(n):
        without = masks[(masks >> i & 1) == 0]
        with_i = np.take(rows, without | (1 << i), axis=1)
        gains = with_i - np.take(rows, without, axis=1)
        values[i] = np.sum(weights[sizes[without]] * gains, axis=1)
    return values


def random_game(rng: np.random.Generator, n: int) -> dict[int, float]:
    """Random characteristic function with υ(∅) = 0."""
    payoffs = {0: 0.0}
    for mask in range(1, 1 << n):
        payoffs[mask] = float(rng.uniform(-1.0, 1.0))
    return payoffs


def in_order_sum(values: np.ndarray) -> np.ndarray:
    """The sum over the last axis of `values`, added one value after another
    from 0.0 by an explicit loop: neither np.sum nor Python's sum(), whose
    orders (pairwise, compensated) are their own."""
    total = np.zeros(values.shape[:-1])
    for j in range(values.shape[-1]):
        total += values[..., j]
    return total


def column_ranks(m, test) -> np.ndarray:
    """(n,) rank of each column by the documented key, compared as Python
    tuples: own variance smoothing, class means, ML variances, then the test
    values row by row.  Columns equal on the whole key keep index order."""
    from curveshap.model import VAR_FLOOR, VAR_SMOOTHING

    def key(j):
        own = max(VAR_SMOOTHING * float(m.column_variances[j]), VAR_FLOOR)
        return (own, *m.means[:, j].tolist(), *m.ml_variances[:, j].tolist(),
                *test.features[:, j].tolist())

    ranks = np.empty(m.n_features, dtype=np.intp)
    ranks[sorted(range(m.n_features), key=key)] = np.arange(m.n_features)
    return ranks


def sorted_sum_scores(m, test, cols) -> np.ndarray:
    """(M, rows) GNB scores of an (M, k) batch of coalitions from a
    row-major (rows, M, k) block of terms: each lane's k terms added in
    ascending order of their columns' `column_ranks`, one after another from
    0.0, the formula the package's feature-major planes must reproduce."""
    from curveshap.model import VAR_FLOOR, VAR_SMOOTHING

    cols = np.asarray(cols, dtype=np.intp)
    by_rank = np.argsort(column_ranks(m, test)[cols], axis=-1)
    cols = np.take_along_axis(cols, by_rank, axis=-1)
    smoothing = np.maximum(
        VAR_SMOOTHING * np.take(m.column_variances, cols).max(axis=-1, initial=0.0),
        VAR_FLOOR,
    )
    variances = np.take(m.ml_variances, cols, axis=1) + smoothing[:, np.newaxis]
    log_joint = []
    for c in (0, 1):
        var = variances[c]
        terms = np.take((test.features - m.means[c]) ** 2, cols, axis=1)
        terms /= var
        terms += np.log(2.0 * np.pi) + np.log(var)
        terms *= -0.5
        log_joint.append(np.log(m.priors[c]) + in_order_sum(terms))
    l0, l1 = log_joint
    return np.ascontiguousarray(logistic_posteriors(l0, l1).T)


def logistic_posteriors(l0, l1) -> np.ndarray:
    """The positive-class posterior 1 / (1 + exp(l0 − l1)) of each class's
    log-likelihood with its log prior added, the package's transform."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 / (1.0 + np.exp(l0 - l1))


def logaddexp_posteriors(l0, l1) -> np.ndarray:
    """The positive-class posterior exp(l1 − logaddexp(l0, l1)), the transform
    the package used before `logistic_posteriors`.  The two differ by a few
    ulps, and in two bands: below log-odds l1 − l0 of about −709.8 this one
    stays positive (down to −745) where the other is 0.0, and with l1 far
    below 0 this one can round to 1.0 where the other does not."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(l1 - np.logaddexp(l0, l1))


def stable_sweep_curve(scores, labels, family: str):
    """(x, y, area) of the ROC (`family` "roc") or PR ("pr") curve of one row
    of scores: a stable descending sort, each tied group collapsed to its
    last index, and a trapezoid over the points, its terms added in point
    order from 0.0."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(labels[order] == 1)[last]
    fp = np.cumsum(labels[order] == 0)[last]
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    if family == "roc":
        x = np.concatenate([[0.0], fp / n_neg])
        y = np.concatenate([[0.0], tp / n_pos])
    else:
        precision = tp / (tp + fp)
        x = np.concatenate([[0.0], tp / n_pos])
        y = np.concatenate([precision[:1], precision])
    return x, y, 0.5 * float(in_order_sum((x[1:] - x[:-1]) * (y[1:] + y[:-1])))


def bracket_value(x, y, q: float, strategy: str) -> float:
    """The value at abscissa `q`, inside its span, of the curve through the
    points (x, y), x ascending, found by scanning the points: a is the last
    point with x ≤ q and b the first with x ≥ q.  `strategy` is "optimistic"
    (the larger of y_a, y_b), "pessimistic" (the smaller) or "interpolation"
    (linear between them, their mean where x_a == x_b)."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    a = max(i for i, xi in enumerate(x) if xi <= q)
    b = min(i for i, xi in enumerate(x) if xi >= q)
    if strategy == "optimistic":
        return max(y[a], y[b])
    if strategy == "pessimistic":
        return min(y[a], y[b])
    if x[a] == x[b]:
        return 0.5 * (y[a] + y[b])
    return y[a] + (y[b] - y[a]) * (q - x[a]) / (x[b] - x[a])


def reference_load_csv(path, label_column: str):
    """A headered CSV read one cell at a time: each non-label cell stripped,
    parsed by float() and checked finite, each label parsed as 0 or 1, in
    column order, and the rows kept as lists of Python floats until one final
    array.  Raises the package's error for the first bad cell."""
    from curveshap.dataset import Dataset
    from curveshap.errors import (
        DataError, DuplicateFeatureName, EmptyDataset, MissingColumn,
        NonBinaryLabel, NonNumericCell,
    )

    def parse_label(text, line_no):
        try:
            value = float(text)
        except ValueError:
            raise NonBinaryLabel(line_no, text) from None
        if value == 0.0:
            return 0
        if value == 1.0:
            return 1
        raise NonBinaryLabel(line_no, text)

    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path} is empty") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise MissingColumn(label_column)
        if header.count(label_column) > 1:
            raise DuplicateFeatureName(label_column)
        label_idx = header.index(label_column)
        names = [n for i, n in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        labels: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"row {line_no}: expected {len(header)} cells, got {len(row)}"
                )
            values = []
            for i, cell in enumerate(row):
                text = cell.strip()
                if i == label_idx:
                    label = parse_label(text, line_no)
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise NonNumericCell(line_no, header[i], text) from None
                if not math.isfinite(value):
                    raise NonNumericCell(line_no, header[i], text)
                values.append(value)
            rows.append(values)
            labels.append(label)

    if not rows:
        raise EmptyDataset(f"{path} has no data rows")
    features = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    return Dataset(features, np.array(labels), tuple(names))
