"""Monte-Carlo cross-validation of curves and attributions.

Each iteration re-splits the dataset with seed base_seed + k, fits the model
once, and re-derives every quantity of interest from that split and fit: the
targets of one curve family (ROC or PR) from one exact game, whose payoff
matrix holds each coalition's area and slice payoffs.  Aggregates are means and
population standard deviations over a common abscissa grid (Interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .curves import (
    Strategy,
    check_grid,
    default_grid,
    estimate_precision,
    estimate_tpr,
    pr_from_scores,
    roc_from_scores,
)
from .dataset import Dataset, SplitSpec, split
from .errors import DataError
from .game import _ROC_KINDS, GameSpec, Target
from .model import train_gnb
from .shapley import Attribution, CurveAttribution, _shapley_map
from . import game


@dataclass(frozen=True, eq=False)
class McConfig:
    """Monte-Carlo cross-validation parameters."""

    iterations: int
    base_seed: int = 0
    train_fraction: float = 0.8
    grid: np.ndarray = field(default_factory=default_grid)

    def __post_init__(self):
        if self.iterations < 2:
            raise DataError(f"iterations must be ≥ 2, got {self.iterations}")
        self.split_spec(0)      # checks train_fraction and base_seed
        grid = check_grid(self.grid)
        if grid.size < 2:
            raise DataError("grid must hold at least 2 abscissae")
        object.__setattr__(self, "grid", grid)

    def split_spec(self, k: int) -> SplitSpec:
        return SplitSpec(self.train_fraction, self.base_seed + k)


@dataclass(frozen=True, eq=False)
class BandedSeries:
    """Mean ± population-std series over a common abscissa grid."""

    abscissae: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    iterations: int

    def __post_init__(self):
        if not (self.abscissae.shape == self.mean.shape == self.std.shape):
            raise DataError("banded series arrays must share one shape")
        if (self.std < 0).any():
            raise DataError("standard deviation cannot be negative")


@dataclass(frozen=True, eq=False)
class McAttribution:
    """Per-feature mean/std of Shapley values across iterations."""

    feature_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    iterations: int
    target: Target
    mean_total: float

    def __post_init__(self):
        n = len(self.feature_names)
        if self.mean.shape != (n,) or self.std.shape != (n,):
            raise DataError("one mean/std pair per feature required")
        if (self.std < 0).any():
            raise DataError("standard deviation cannot be negative")


@dataclass(frozen=True, eq=False)
class McCurveAttribution:
    """Per-feature, per-grid-point mean/std of slice Shapley values."""

    feature_names: tuple[str, ...]
    abscissae: np.ndarray
    mean: np.ndarray   # (n_features, n_points)
    std: np.ndarray    # (n_features, n_points)
    iterations: int
    kind: str

    def __post_init__(self):
        shape = (len(self.feature_names), self.abscissae.size)
        if self.mean.shape != shape or self.std.shape != shape:
            raise DataError("curve attribution bands have inconsistent shapes")
        if (self.std < 0).any():
            raise DataError("standard deviation cannot be negative")

    def feature_band(self, name: str) -> BandedSeries:
        i = self.feature_names.index(name)
        return BandedSeries(self.abscissae, self.mean[i], self.std[i], self.iterations)


def _monte_carlo(d: Dataset, cfg: McConfig, job) -> list[np.ndarray]:
    """Each array of the list `job(train, test, model)` returns, stacked over
    the iterations; every iteration splits the dataset and fits the model once."""
    stacks = None
    for k in range(cfg.iterations):
        train, test = split(d, cfg.split_spec(k))
        rows = job(train, test, train_gnb(train))
        stacks = stacks or [np.empty((cfg.iterations, *row.shape)) for row in rows]
        for stack, row in zip(stacks, rows):
            stack[k] = row
    return stacks


def _attribution_job(cfg: McConfig, targets: Sequence[Target], strategy: Strategy):
    """An iteration's Shapley values of each target: per feature and grid
    point for a slice target (whose own abscissa is ignored), per feature and
    then the achieved total for an area.  Targets of one curve family (ROC or
    PR) share one exact game, on the grid if a slice target asks for it: one
    Shapley map over its payoff matrix gives the area values (row 0) and the
    slice values (the other rows)."""
    games = {}      # curve family → game; slice targets come last and win
    for target in sorted(targets, key=lambda t: t.is_slice):
        games[target.kind in _ROC_KINDS] = Target(target.kind)

    def job(train: Dataset, test: Dataset, model) -> list[np.ndarray]:
        solved = {}
        for family, target in games.items():
            spec = GameSpec(target, train, test, strategy, fit=lambda _: model)
            engine, matrix = game._payoff_matrix(spec, cfg.grid if target.is_slice else None)
            solved[family] = engine, matrix, _shapley_map(matrix)
        rows = []
        for target in targets:
            engine, matrix, values = solved[target.kind in _ROC_KINDS]
            if target.is_slice:
                rows.append(CurveAttribution(
                    train.feature_names, cfg.grid, values[:, 1:],
                    engine.baselines + matrix[1:, -1], engine.baselines, target.kind,
                ).values)
            else:
                attr = Attribution(
                    train.feature_names, values[:, 0], target.baseline(),
                    target.baseline() + matrix[0, -1], target,
                )
                rows.append(np.append(attr.values, attr.total))
        return rows

    return job


def _attribution_bands(
    d: Dataset, cfg: McConfig, target: Target, stack: np.ndarray
) -> McAttribution | McCurveAttribution:
    if target.is_slice:
        return McCurveAttribution(
            d.feature_names, cfg.grid, stack.mean(axis=0), stack.std(axis=0),
            cfg.iterations, target.kind,
        )
    values, totals = stack[:, :-1], stack[:, -1]
    return McAttribution(
        d.feature_names, values.mean(axis=0), values.std(axis=0),
        cfg.iterations, target, float(totals.mean()),
    )


def mc_curves(d: Dataset, cfg: McConfig, kind: str = "roc") -> BandedSeries:
    """Grand-coalition ROC (or PR) curve band across Monte-Carlo splits."""
    return mc_bands(d, cfg, kind, [])[0]


def mc_attributions(
    d: Dataset,
    cfg: McConfig,
    target: Target,
    strategy: Strategy | None = None,
) -> McAttribution | McCurveAttribution:
    """Monte-Carlo mean/std of Shapley attributions for the given target.

    Area targets aggregate per feature; slice targets aggregate per feature
    and grid point (the target's own abscissa is ignored in favor of the
    config grid, and the strategy defaults to interpolation).
    """
    job = _attribution_job(cfg, [target], strategy or Strategy.INTERPOLATION)
    (stack,) = _monte_carlo(d, cfg, job)
    return _attribution_bands(d, cfg, target, stack)


def mc_bands(
    d: Dataset, cfg: McConfig, kind: str, targets: Sequence[Target]
) -> tuple[BandedSeries, list[McAttribution | McCurveAttribution]]:
    """The grand-coalition ROC (or PR) curve band and, for each target, its
    attribution bands as `mc_attributions` gives them with the default
    strategy, all from one split and one model fit per iteration."""
    if kind not in ("roc", "pr"):
        raise DataError(f"kind must be 'roc' or 'pr', got {kind!r}")
    sweep, estimate = ((roc_from_scores, estimate_tpr) if kind == "roc"
                       else (pr_from_scores, estimate_precision))
    attributions = _attribution_job(cfg, targets, Strategy.INTERPOLATION)

    def job(train: Dataset, test: Dataset, model) -> list[np.ndarray]:
        row = estimate(sweep(model.score(test), test.labels), cfg.grid, Strategy.INTERPOLATION)
        return [row, *attributions(train, test, model)]

    rows, *stacks = _monte_carlo(d, cfg, job)
    band = BandedSeries(cfg.grid, rows.mean(axis=0), rows.std(axis=0), cfg.iterations)
    return band, [_attribution_bands(d, cfg, t, s) for t, s in zip(targets, stacks)]
