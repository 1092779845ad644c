"""Shapley attribution of game payoffs to features.

`shapley_exact` enumerates a complete payoff table with the classic
combinatorial weights; `shapley_sampled` estimates the same values from
uniformly random feature permutations.  A sampled estimate draws all its
permutations first, scores their distinct prefix coalitions in one
`PayoffEngine.payoffs` call, and reads each marginal from that call's columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .curves import check_grid, trapezoid
from .errors import DataError, GridTooCoarse
from .game import GameSpec, PayoffEngine, PayoffTable, Target

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
            # np.take keeps rows C-contiguous, so each row sums pairwise exactly
            # as a single table's payoff vector would.
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


def _mean_marginals(
    spec: GameSpec, grid: np.ndarray | None, draws: list[list], rows
) -> tuple[PayoffEngine, np.ndarray, np.ndarray]:
    """The payoff engine of a sampled estimate; each feature's marginal payoff
    averaged over the permutations of each draw, shape (n, len(draws)), read
    from payoff row `rows[j]` for draw j; and the grand coalition's payoffs.

    One `payoffs` call scores the distinct prefix coalitions of all the
    permutations, the last of which is always the grand coalition.  Masks
    stay Python ints, so any number of features fits, and each feature's
    marginals are added permutation by permutation.
    """
    if spec.n == 0:
        raise DataError("cannot attribute a game with no features")
    engine = PayoffEngine(spec, grid)
    column = {mask: c for c, mask in enumerate(sorted({
        mask for perm in itertools.chain.from_iterable(draws)
        for mask in itertools.accumulate(1 << i for i in perm)
    }))}
    payoffs = engine.payoffs(list(column))
    values = np.zeros((spec.n, len(draws)))
    for j, (perms, row) in enumerate(zip(draws, rows)):
        readout = payoffs[row].tolist()
        for perm in perms:
            mask, previous = 0, 0.0
            for i in perm:
                mask |= 1 << i
                value = readout[column[mask]]
                values[i, j] += value - previous
                previous = value
        values[:, j] /= len(perms)
    return engine, values, payoffs[:, column[(1 << spec.n) - 1]]


def shapley_sampled(
    spec: GameSpec,
    samples: int,
    seed: int,
    *,
    without_replacement: bool = False,
) -> Attribution:
    """Permutation-sampling estimate of the Shapley values of `spec`'s game.

    Draws uniform random feature permutations and averages each feature's
    marginal payoff over them.  The coalitions they visit are scored once, in
    batches, before any marginal is read.  With `without_replacement` the
    permutations are distinct; sampling all n! of them reproduces the exact
    values.
    """
    check_samples(samples)
    n = spec.n
    rng = np.random.default_rng(seed)
    if without_replacement:
        if n > _EXHAUSTIVE_ARITY_CAP:
            raise DataError(
                f"without_replacement is supported for n ≤ {_EXHAUSTIVE_ARITY_CAP}"
            )
        universe = list(itertools.permutations(range(n)))
        if samples > len(universe):
            raise DataError(
                f"cannot draw {samples} distinct permutations of {n} features"
            )
        order = rng.permutation(len(universe))[:samples]
        perms = [universe[k] for k in order]
    else:
        perms = [rng.permutation(n).tolist() for _ in range(samples)]

    # The target's own payoff is the last row.
    _, values, full = _mean_marginals(spec, None, [perms], [-1])
    baseline = spec.target.baseline()
    return Attribution(
        spec.train.feature_names, values[:, 0], baseline, baseline + full[-1], spec.target
    )


def shapley_sampled_curve(
    spec: GameSpec, grid: np.ndarray, samples: int, seed: int
) -> CurveAttribution:
    """Permutation-sampling analogue of evaluate_slices + shapley_curve.

    Point k draws its permutations from seed + k.  One payoff engine, bound
    to the grid, scores the coalitions that any point's permutations visit,
    each once, before any marginal is read.
    """
    check_samples(samples)
    grid = check_grid(grid)
    draws = []
    for k in range(grid.size):
        rng = np.random.default_rng(seed + k)
        draws.append([rng.permutation(spec.n).tolist() for _ in range(samples)])
    engine, values, full = _mean_marginals(spec, grid, draws, range(1, 1 + grid.size))
    reference = engine.baselines + full[1:]
    return CurveAttribution(
        spec.train.feature_names, grid, values, reference, engine.baselines,
        spec.target.kind,
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
    """|∫φ_i^ROC dfpr − φ_i^AUC| per feature.

    The per-slice attributions, integrated over FPR, should reproduce the
    area attributions up to grid and estimation error.
    """
    if area_attr.feature_names != curve_attr.feature_names:
        raise DataError("attributions disagree on features")
    if curve_attr.abscissae.size < MIN_CONSISTENCY_GRID:
        raise GridTooCoarse(curve_attr.abscissae.size, MIN_CONSISTENCY_GRID)
    integrals = trapezoid(curve_attr.values, curve_attr.abscissae)
    return np.abs(integrals - area_attr.values)
