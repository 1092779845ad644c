"""Shapley attribution of game payoffs to features.

`shapley_exact` enumerates a complete payoff table with the classic
combinatorial weights; `shapley_sampled` estimates the same values from
uniformly random feature permutations.  A sampled game draws its
permutations once, scores their distinct prefix coalitions in one
`PayoffEngine.payoffs` call, and reads the marginals of every payoff row from
that call's columns; `shapley_sampled_curve` reads one row per grid point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .curves import trapezoid
from .errors import DataError, GridTooCoarse, allocation
from .game import AUC, AUPRC, PRC_SLICE, ROC_SLICE, GameSpec, PayoffEngine, PayoffTable, Target

EFFICIENCY_TOL = 1e-9
MIN_CONSISTENCY_GRID = 11
_EXHAUSTIVE_ARITY_CAP = 8
SOLVE_FLOATS = 1 << 16      # most payoffs one `_shapley_map` call takes


@dataclass(frozen=True, eq=False)
class Attribution:
    """Per-feature Shapley values φ_i for one game.

    `total` is the metric the grand coalition achieves; efficiency ties it
    to the baseline: total == baseline + Σφ_i.
    """

    feature_names: tuple[str, ...]
    values: np.ndarray
    baseline: float
    total: float
    target: Target

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(self.feature_names),):
            raise DataError("one φ per feature name required")
        if abs(self.total - self.baseline - values.sum()) > EFFICIENCY_TOL:
            raise DataError(
                "efficiency violated: total - baseline != sum of attributions"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return len(self.feature_names)

    def by_name(self, name: str) -> float:
        return float(self.values[self.feature_names.index(name)])


@dataclass(frozen=True, eq=False)
class CurveAttribution:
    """Per-feature Shapley series over a grid of slice abscissae."""

    feature_names: tuple[str, ...]
    abscissae: np.ndarray
    values: np.ndarray      # shape (n_features, n_points)
    reference: np.ndarray   # grand-coalition metric value per point
    baselines: np.ndarray   # random-classifier metric value per point
    kind: str

    def __post_init__(self):
        abscissae = np.array(self.abscissae, dtype=np.float64)
        values = np.array(self.values, dtype=np.float64)
        reference = np.array(self.reference, dtype=np.float64)
        baselines = np.array(self.baselines, dtype=np.float64)
        n, m = len(self.feature_names), abscissae.size
        if values.shape != (n, m) or reference.shape != (m,) or baselines.shape != (m,):
            raise DataError("curve attribution arrays have inconsistent shapes")
        if m and np.max(np.abs(values.sum(axis=0) - (reference - baselines))) > EFFICIENCY_TOL:
            raise DataError("efficiency violated at some grid point")
        for arr in (abscissae, values, reference, baselines):
            arr.setflags(write=False)
        object.__setattr__(self, "abscissae", abscissae)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "baselines", baselines)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n(self) -> int:
        return len(self.feature_names)

    def series(self, name: str) -> np.ndarray:
        return self.values[self.feature_names.index(name)]


def _subset_weights(n: int) -> np.ndarray:
    """w[s] = s! (n-s-1)! / n! for s = 0..n-1, from exact integer factorials."""
    n_fact = factorial(n)
    return np.array(
        [factorial(s) * factorial(n - 1 - s) / n_fact for s in range(n)]
    )


def _shapley_map(payoffs) -> np.ndarray:
    """Shapley values, shape (n, m), of m payoff vectors of length 2^n: an
    (m, 2^n) array or a sequence of rows.

    At most SOLVE_FLOATS payoffs are stacked and solved at a time, which
    bounds memory.  The weights are rebuilt per call in O(2^n): a cached
    (n, 2^n) weight matrix would take 160 MB at the exact-mode cap.
    """
    m, size = len(payoffs), len(payoffs[0])
    n = size.bit_length() - 1
    masks = np.arange(size, dtype=np.int64)
    sizes = np.zeros(size, dtype=np.int64)
    for i in range(n):
        sizes += (masks >> i) & 1
    weights = _subset_weights(n)
    step = max(1, SOLVE_FLOATS >> n)
    values = np.empty((n, m))
    for start in range(0, m, step):
        chunk = np.stack(payoffs[start:start + step])
        for i in range(n):
            without = masks[(masks >> i & 1) == 0]
            # np.take keeps rows C-contiguous and of one length, and one np.sum
            # call adds every such row in the same order, whichever order the
            # numpy release uses: a row sums as a single table's vector would.
            with_i = np.take(chunk, without | (1 << i), axis=1)
            gains = with_i - np.take(chunk, without, axis=1)
            values[i, start:start + step] = np.sum(weights[sizes[without]] * gains, axis=1)
    return values


def shapley_exact(t: PayoffTable) -> Attribution:
    """Shapley values of a complete payoff table.

    φ_i = Σ_{A ⊆ N\\{i}} |A|! (n-|A|-1)! / n! · (υ(A∪{i}) − υ(A))
    """
    values = _shapley_map(t.values[np.newaxis])[:, 0]
    baseline = t.target.baseline()
    return Attribution(
        t.feature_names, values, baseline, baseline + t[t.full_mask], t.target
    )


def check_samples(samples: int) -> None:
    """Reject a permutation-sample count below 1."""
    if samples < 1:
        raise DataError(f"samples must be ≥ 1, got {samples}")


def _permutations(n: int, samples: int, seed: int, without_replacement=False) -> np.ndarray:
    """A (samples, n) array of uniform random permutations of range(n), drawn
    from default_rng(seed); with `without_replacement`, distinct ones.  The
    array is allocated before the first draw: a count numpy cannot allocate
    is a DataError."""
    check_samples(samples)
    if n == 0:      # else any number of empty rows would be drawn first
        raise DataError("cannot attribute a game with no features")
    rng = np.random.default_rng(seed)
    if not without_replacement:
        with allocation(f"{samples} permutations"):
            perms = np.empty((samples, n), np.int64)
        for row in perms:
            row[...] = rng.permutation(n)
        return perms
    if n > _EXHAUSTIVE_ARITY_CAP:
        raise DataError(f"without_replacement is supported for n ≤ {_EXHAUSTIVE_ARITY_CAP}")
    universe = np.array(list(itertools.permutations(range(n))))
    if samples > len(universe):
        raise DataError(f"cannot draw {samples} distinct permutations of {n} features")
    return universe[rng.permutation(len(universe))[:samples]]


def _mean_marginals(
    spec: GameSpec, grid: np.ndarray | None, perms: np.ndarray
) -> tuple[PayoffEngine, np.ndarray, np.ndarray]:
    """The payoff engine of a sampled estimate; each feature's marginal payoff
    averaged over the (samples, n) permutations `perms`, one column per payoff
    row, shape (n, 1 + abscissae); and the grand coalition's payoffs.

    One `payoffs` call scores the distinct prefix coalitions of all the
    permutations in ascending mask order, so the last is the grand coalition;
    masks of 64 or more features stay Python ints.  The prefix payoffs, at
    most SOLVE_FLOATS at a time and from the empty coalition's 0.0 on, are
    differenced along each permutation and added to their features in
    permutation order by `np.add.at`.
    """
    n = spec.n
    engine = PayoffEngine(spec, grid)
    # Each permutation's n + 1 prefix masks, from the empty coalition on.
    masks = np.zeros((len(perms), n + 1), np.int64 if n < 64 else object)
    np.cumsum(np.ones_like(perms, masks.dtype) << perms, axis=1, out=masks[:, 1:])
    # The distinct masks, ascending; each prefix's column among them.
    masks, columns = np.unique(masks, return_inverse=True)
    payoffs = engine.payoffs(masks.tolist())
    columns = columns.reshape(len(perms), n + 1)
    sums = np.zeros((len(payoffs), n))
    step = max(1, SOLVE_FLOATS // (len(payoffs) * (n + 1)))
    for start in range(0, len(perms), step):
        gains = np.diff(payoffs[:, columns[start:start + step]], axis=2)
        np.add.at(sums, (slice(None), perms[start:start + step].ravel()),
                  gains.reshape(len(payoffs), -1))
        del gains       # before the next chunk is gathered
    return engine, sums.T / len(perms), payoffs[:, -1]


def shapley_sampled(
    spec: GameSpec, samples: int, seed: int, *, without_replacement: bool = False
) -> Attribution:
    """Permutation-sampling estimate of the Shapley values of `spec`'s game.

    Draws uniform random feature permutations and averages each feature's
    marginal payoff over them.  The coalitions they visit are scored once, in
    batches, before any marginal is read.  With `without_replacement` the
    permutations are distinct; sampling all n! of them reproduces the exact
    values.
    """
    perms = _permutations(spec.n, samples, seed, without_replacement)
    # The target's own payoff is the last row.
    _, values, full = _mean_marginals(spec, None, perms)
    baseline = spec.target.baseline()
    return Attribution(
        spec.train.feature_names, values[:, -1], baseline, baseline + full[-1], spec.target
    )


def shapley_sampled_curve(
    spec: GameSpec, grid: np.ndarray, samples: int, seed: int
) -> CurveAttribution:
    """Permutation-sampling analogue of evaluate_slices + shapley_curve.

    Every grid point reads its marginals from one draw of `samples`
    permutations, the draw `shapley_sampled` takes with the same seed, so
    point k is `shapley_sampled` of the slice game at grid[k], bit for bit;
    the points' sampling errors are correlated.  One payoff engine, bound to
    the grid, scores the coalitions the draw visits, each once.
    """
    perms = _permutations(spec.n, samples, seed)
    engine, values, full = _mean_marginals(spec, grid, perms)
    return CurveAttribution(
        spec.train.feature_names, engine.abscissae, values[:, 1:], engine.baselines + full[1:],
        engine.baselines, spec.target.kind,
    )


def shapley_curve(tables: list[PayoffTable]) -> CurveAttribution:
    """Exact Shapley values per grid point, assembled into per-feature series."""
    if not tables:
        raise DataError("no payoff tables given")
    first = tables[0]
    if not first.target.is_slice:
        raise DataError("shapley_curve needs slice-game tables")
    for t in tables:
        if t.n != first.n or t.feature_names != first.feature_names:
            raise DataError("tables disagree on features")
        if t.target.kind != first.target.kind:
            raise DataError("tables disagree on target kind")
    abscissae = np.array([t.target.abscissa for t in tables])
    baselines = np.array([t.target.baseline() for t in tables])
    values = _shapley_map([t.values for t in tables])
    reference = baselines + np.array([t[t.full_mask] for t in tables])
    return CurveAttribution(
        first.feature_names, abscissae, values, reference, baselines,
        first.target.kind,
    )


def auc_roc_consistency(
    area_attr: Attribution, curve_attr: CurveAttribution
) -> np.ndarray:
    """|∫φ_i^ROC dfpr − φ_i^AUC| per feature, or |∫φ_i^PR drecall − φ_i^AUPRC|.

    The per-slice attributions, integrated over their abscissa, should
    reproduce the area attributions up to grid and estimation error.  Only
    the matched pairs, AUC with ROC slices and AUPRC with PRC slices, are
    accepted: any other pair raises DataError.
    """
    pair = (area_attr.target.kind, curve_attr.kind)
    if pair not in ((AUC, ROC_SLICE), (AUPRC, PRC_SLICE)):
        raise DataError(f"{pair[0]} attributions do not integrate {pair[1]} curves")
    if area_attr.feature_names != curve_attr.feature_names:
        raise DataError("attributions disagree on features")
    if curve_attr.abscissae.size < MIN_CONSISTENCY_GRID:
        raise GridTooCoarse(curve_attr.abscissae.size, MIN_CONSISTENCY_GRID)
    integrals = trapezoid(curve_attr.values, curve_attr.abscissae)
    return np.abs(integrals - area_attr.values)
