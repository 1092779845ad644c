"""Monte-Carlo cross-validation of curves and attributions.

Each iteration re-splits the dataset with seed base_seed + k, retrains, and
re-derives the quantity of interest; aggregates are means and population
standard deviations.  Curves from different iterations are aligned on a
common abscissa grid with the Interpolation strategy before averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .game import GameSpec, Target
from .model import train_gnb
from .shapley import shapley_curve, shapley_exact
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
        if self.base_seed < 0:
            raise DataError("base_seed must be non-negative")
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


def mc_curves(d: Dataset, cfg: McConfig, kind: str = "roc") -> BandedSeries:
    """Grand-coalition ROC (or PR) curve band across Monte-Carlo splits."""
    if kind not in ("roc", "pr"):
        raise DataError(f"kind must be 'roc' or 'pr', got {kind!r}")
    rows = np.empty((cfg.iterations, cfg.grid.size))
    for k in range(cfg.iterations):
        train, test = split(d, cfg.split_spec(k))
        scores = train_gnb(train).score(test)
        if kind == "roc":
            curve = roc_from_scores(scores, test.labels)
            rows[k] = estimate_tpr(curve, cfg.grid, Strategy.INTERPOLATION)
        else:
            curve = pr_from_scores(scores, test.labels)
            rows[k] = estimate_precision(curve, cfg.grid, Strategy.INTERPOLATION)
    return BandedSeries(cfg.grid, rows.mean(axis=0), rows.std(axis=0), cfg.iterations)


def mc_attributions(
    d: Dataset,
    cfg: McConfig,
    target: Target,
    strategy: Strategy | None = None,
) -> McAttribution | McCurveAttribution:
    """Monte-Carlo mean/std of Shapley attributions for the given target.

    Area targets aggregate per feature; slice targets aggregate per feature
    and grid point (the target's own abscissa is ignored in favor of the
    config grid).
    """
    if target.is_slice:
        return _mc_slice_attributions(d, cfg, target, strategy)
    stack = np.empty((cfg.iterations, d.n_features))
    totals = np.empty(cfg.iterations)
    for k in range(cfg.iterations):
        train, test = split(d, cfg.split_spec(k))
        spec = GameSpec(target, train, test, strategy)
        attr = shapley_exact(game.evaluate_all(spec))
        stack[k] = attr.values
        totals[k] = attr.total
    return McAttribution(
        d.feature_names, stack.mean(axis=0), stack.std(axis=0),
        cfg.iterations, target, float(totals.mean()),
    )


def _mc_slice_attributions(
    d: Dataset, cfg: McConfig, target: Target, strategy: Strategy | None
) -> McCurveAttribution:
    if strategy is None:
        strategy = Strategy.INTERPOLATION
    stack = np.empty((cfg.iterations, d.n_features, cfg.grid.size))
    for k in range(cfg.iterations):
        train, test = split(d, cfg.split_spec(k))
        bare = Target(target.kind)
        spec = GameSpec(bare, train, test, strategy)
        tables = game.evaluate_slices(spec, cfg.grid)
        stack[k] = shapley_curve(tables).values
    return McCurveAttribution(
        d.feature_names, cfg.grid, stack.mean(axis=0), stack.std(axis=0),
        cfg.iterations, target.kind,
    )
