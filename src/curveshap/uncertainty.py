"""Monte-Carlo cross-validation of curves and attributions.

Each iteration re-splits the dataset with seed base_seed + k, fits the model
once, and re-derives every quantity of interest from that split and fit: the
targets of one curve family (ROC or PR) from one exact game, whose payoff
matrix holds each coalition's area and slice payoffs.  `mc_bands` is the one
loop over iterations; `mc_curves` and `mc_attributions` read their part of it.
Aggregates are means and population standard deviations over a common abscissa
grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .curves import Strategy, check_grid, default_grid, sweeper
from .dataset import Dataset, SplitSpec, split
from .errors import DataError, allocation
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
    kind = "roc" if target.kind in _ROC_KINDS else "pr"
    return mc_bands(d, cfg, kind, [target], strategy or Strategy.INTERPOLATION)[1][0]


def mc_bands(
    d: Dataset,
    cfg: McConfig,
    kind: str,
    targets: Sequence[Target],
    strategy: Strategy = Strategy.INTERPOLATION,
) -> tuple[BandedSeries, list[McAttribution | McCurveAttribution]]:
    """The grand-coalition ROC (or PR) curve band and, for each target, its
    attribution bands as `mc_attributions` gives them, all from one split and
    one model fit per iteration.

    Targets of one curve family (ROC or PR) share one exact game, on the grid
    if a slice target asks for it: one Shapley map over its payoff matrix
    gives the area values (row 0) and the slice values (the other rows).  A
    slice target's own abscissa is ignored; its games use `strategy`, while
    the curve band always interpolates.
    """
    if kind not in ("roc", "pr"):
        raise DataError(f"kind must be 'roc' or 'pr', got {kind!r}")
    games = {}      # curve family → game; slice targets come last and win
    for target in sorted(targets, key=lambda t: t.is_slice):
        games[target.kind in _ROC_KINDS] = Target(target.kind)
    n, grid = d.n_features, cfg.grid
    with allocation(f"{cfg.iterations} iterations"):
        rows = np.empty((cfg.iterations, grid.size))
        # Per iteration: φ per feature and grid point for a slice target, φ
        # per feature and then the achieved total for an area target.
        stacks = [np.empty((cfg.iterations, n, grid.size) if t.is_slice
                           else (cfg.iterations, n + 1)) for t in targets]

    def iterate(k: int) -> None:
        # A function of its own, so this split's model, term tables and games
        # are freed before the next split builds its own.
        train, test = split(d, cfg.split_spec(k))
        model = train_gnb(train)
        curve = sweeper(test.labels, kind == "roc")(model.score(test)[np.newaxis])
        rows[k] = curve.estimate(grid, Strategy.INTERPOLATION)[0]
        solved = {}
        for family, target in games.items():
            spec = GameSpec(target, train, test, strategy, fit=lambda _: model)
            engine, matrix = game._payoff_matrix(spec, grid if target.is_slice else None)
            solved[family] = engine, matrix, _shapley_map(matrix)
        for target, stack in zip(targets, stacks):
            engine, matrix, values = solved[target.kind in _ROC_KINDS]
            if target.is_slice:
                stack[k] = CurveAttribution(
                    train.feature_names, grid, values[:, 1:],
                    engine.baselines + matrix[1:, -1], engine.baselines, target.kind,
                ).values
            else:
                attr = Attribution(
                    train.feature_names, values[:, 0], target.baseline(),
                    target.baseline() + matrix[0, -1], target,
                )
                stack[k] = np.append(attr.values, attr.total)

    for k in range(cfg.iterations):
        iterate(k)
    band = BandedSeries(grid, rows.mean(axis=0), rows.std(axis=0), cfg.iterations)
    bands = [
        McCurveAttribution(d.feature_names, grid, stack.mean(axis=0), stack.std(axis=0),
                           cfg.iterations, target.kind)
        if target.is_slice else
        McAttribution(d.feature_names, stack[:, :-1].mean(axis=0), stack[:, :-1].std(axis=0),
                      cfg.iterations, target, float(stack[:, -1].mean()))
        for target, stack in zip(targets, stacks)
    ]
    return band, bands
