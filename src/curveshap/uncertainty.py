"""Monte-Carlo cross-validation of curves and attributions.

Each iteration re-splits the dataset with seed base_seed + k, fits the model
once, and re-derives every quantity of interest from that split and fit: the
curve band, and the attributions of at most one exact game of the band's curve
family (ROC or PR), whose payoff matrix holds each coalition's area and slice
payoffs.  `mc_bands` is the one loop over iterations; `mc_curves` and
`mc_attributions` read their part of it.  Aggregates are means and population
standard deviations over a common abscissa grid.

An iteration does only the work that depends on its split.  The split takes
its rows without checking them again.  When the game is a slice game that
interpolates on the grid, the band row is that game's raw readout of the
grand coalition, read from the game's own sweep; otherwise the full feature
set is scored and swept once more for it.  Each iteration solves its own
payoff matrix with one Shapley map, and its attributions pass their own
efficiency checks, before the next split is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    return mc_bands(d, cfg, kind)[0]


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
    bands = mc_bands(d, cfg, kind, target, strategy or Strategy.INTERPOLATION)
    return bands[2 if target.is_slice else 1]


def mc_bands(
    d: Dataset,
    cfg: McConfig,
    kind: str,
    target: Target | None = None,
    strategy: Strategy = Strategy.INTERPOLATION,
) -> tuple[BandedSeries, McAttribution | None, McCurveAttribution | None]:
    """The grand-coalition ROC (or PR) curve band, and the area and slice
    attribution bands of `target`'s game as `mc_attributions` gives them, all
    from one split and one model fit per iteration.

    Each iteration runs at most one exact game: none without a target, the
    family's area game for an area target, or its slice game on the config
    grid for a slice target, whose row 0 also gives the area attribution.
    The attribution bands that no game gives are None; a target of the other
    curve family is a DataError.  A slice target's own abscissa is ignored;
    its games use `strategy`, while the curve band always interpolates.  So
    when the game is a slice game and `strategy` interpolates, the band row
    is that game's raw readout of the grand coalition on the grid, read from
    the game's sweep; otherwise the full feature set is scored and swept
    apart.

    Each iteration solves its game's payoff matrix with one Shapley map and
    checks its attributions' efficiency, so no matrix outlives its split.
    """
    if kind not in ("roc", "pr"):
        raise DataError(f"kind must be 'roc' or 'pr', got {kind!r}")
    n, grid, roc = d.n_features, cfg.grid, kind == "roc"
    if target is not None and (target.kind in _ROC_KINDS) != roc:
        raise DataError(f"target {target.kind!r} is not of the {kind!r} curve family")
    slices = target is not None and target.is_slice
    area = Target.auc() if roc else Target.auprc()
    # The grand coalition of an empty feature set is not scored by its game.
    shared = n > 0 and slices and strategy is Strategy.INTERPOLATION
    with allocation(f"{cfg.iterations} iterations"):
        rows = np.empty((cfg.iterations, grid.size))
        # Per iteration: the area φ per feature and then the achieved total,
        # and the slice φ per feature and grid point.
        areas = np.empty((cfg.iterations, n + 1)) if target is not None else None
        curves = np.empty((cfg.iterations, n, grid.size)) if slices else None

    def iterate(k: int) -> None:
        """Iteration k's band row, and its game solved into `areas` and
        `curves`.  A function of its own, so this split's model, term tables,
        engine and payoff matrix are freed before the next split builds its
        own."""
        train, test = split(d, cfg.split_spec(k))
        model = train_gnb(train)
        if not shared:
            curve = sweeper(test.labels, roc)(model.score(test)[np.newaxis])
            rows[k] = curve.estimate(grid, Strategy.INTERPOLATION)[0]
        if target is None:
            return
        spec = GameSpec(Target(target.kind), train, test, strategy, fit=lambda _: model)
        engine, matrix = game._payoff_matrix(spec, grid if slices else None)
        if shared:
            rows[k] = engine.grand_readout[1:]
        values = _shapley_map(matrix)
        attr = Attribution(
            d.feature_names, values[:, 0], area.baseline(),
            area.baseline() + matrix[0, -1], area,
        )
        areas[k] = np.append(attr.values, attr.total)
        if slices:
            curves[k] = CurveAttribution(
                d.feature_names, grid, values[:, 1:],
                engine.baselines + matrix[1:, -1], engine.baselines, target.kind,
            ).values

    for k in range(cfg.iterations):
        iterate(k)
    band = BandedSeries(grid, rows.mean(axis=0), rows.std(axis=0), cfg.iterations)
    if target is None:
        return band, None, None
    values = areas[:, :-1]
    mca = McAttribution(d.feature_names, values.mean(axis=0), values.std(axis=0),
                        cfg.iterations, area, float(areas[:, -1].mean()))
    if not slices:
        return band, mca, None
    return band, mca, McCurveAttribution(d.feature_names, grid, curves.mean(axis=0),
                                         curves.std(axis=0), cfg.iterations, target.kind)
