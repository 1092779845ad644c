"""Coalition games over feature subsets.

The characteristic functions measure how far a model trained on a feature
coalition sits above the random-classifier baseline: AUC − 0.50 and
AUPRC − 0.50 for areas, tpr − fpr at a query FPR for ROC slices, and
precision − 0.50 at a query recall for PRC slices.  The empty coalition is
worth 0 by definition and is never evaluated through a model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .curves import (
    PrCurve,
    RocCurve,
    Strategy,
    check_grid,
    estimate_precision,
    estimate_tpr,
    pr_curves,
    roc_curves,
)
from .dataset import Dataset
from .errors import (
    DataError,
    IncompleteTable,
    NoPositiveLabels,
    SingleClassLabels,
    TooManyFeaturesForExactMode,
)
from .model import train_gnb

EXACT_MODE_CAP = 20

# Most scores (coalitions × test rows × coalition size) that one scoring batch
# holds; it bounds the batch's working memory to a few such float64 arrays.
BATCH_FLOATS = 1 << 14

AUC = "auc"
ROC_SLICE = "roc_slice"
AUPRC = "auprc"
PRC_SLICE = "prc_slice"

_AREA_KINDS = (AUC, AUPRC)
_SLICE_KINDS = (ROC_SLICE, PRC_SLICE)
_ROC_KINDS = (AUC, ROC_SLICE)


class DegenerateCurveWarning(UserWarning):
    """A coalition's scores admit no valid curve; its payoff fell back to 0."""


@dataclass(frozen=True)
class Target:
    """What the game measures: an area metric or a curve slice."""

    kind: str
    abscissa: float | None = None

    def __post_init__(self):
        if self.kind not in _AREA_KINDS + _SLICE_KINDS:
            raise DataError(f"unknown target kind {self.kind!r}")
        if self.kind in _SLICE_KINDS and self.abscissa is not None:
            if not 0.0 <= self.abscissa <= 1.0:
                raise DataError(f"slice abscissa must lie in [0,1], got {self.abscissa}")
        if self.kind in _AREA_KINDS and self.abscissa is not None:
            raise DataError(f"{self.kind} target takes no abscissa")

    @classmethod
    def auc(cls) -> "Target":
        return cls(AUC)

    @classmethod
    def auprc(cls) -> "Target":
        return cls(AUPRC)

    @classmethod
    def roc_slice(cls, fpr: float) -> "Target":
        return cls(ROC_SLICE, float(fpr))

    @classmethod
    def prc_slice(cls, recall: float) -> "Target":
        return cls(PRC_SLICE, float(recall))

    @property
    def is_slice(self) -> bool:
        return self.kind in _SLICE_KINDS

    def with_abscissa(self, q: float) -> "Target":
        if not self.is_slice:
            raise DataError(f"{self.kind} target takes no abscissa")
        return Target(self.kind, float(q))

    def baseline(self) -> float:
        """Random-classifier value of the metric (what payoffs are relative to)."""
        if self.kind == ROC_SLICE:
            if self.abscissa is None:
                raise DataError("ROC slice target needs an abscissa")
            return self.abscissa
        return 0.5

    def describe(self) -> str:
        if self.kind == AUC:
            return "AUC"
        if self.kind == AUPRC:
            return "AUPRC"
        if self.kind == ROC_SLICE:
            return f"TPR at FPR={self.abscissa:g}"
        return f"precision at recall={self.abscissa:g}"


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A characteristic function bound to a train/test split.

    `fit` is called once per split, on `train`.  The scorer it returns has
    `score(test, columns)`: given the full-width test set and an (M, k) array
    holding the column indices of M coalitions of k features each, it returns
    their (M, test rows) scores.
    """

    target: Target
    train: Dataset
    test: Dataset
    strategy: Strategy | None = None
    fit: Callable[[Dataset], object] = train_gnb

    def __post_init__(self):
        if self.train.feature_names != self.test.feature_names:
            raise DataError("train and test must share feature arity and names")
        if self.target.is_slice and self.strategy is None:
            raise DataError(f"{self.target.kind} games require a strategy")

    @property
    def n(self) -> int:
        return self.train.n_features


@dataclass(frozen=True, eq=False)
class PayoffTable:
    """Payoffs of one game for all 2^n coalitions, ∅ stored analytically as 0.

    `values` is a read-only float64 array indexed by coalition bitmask (bit i
    set means feature i is in the coalition).  It may be given as such an
    array or as a complete mask → payoff mapping.
    """

    n: int
    values: np.ndarray
    target: Target
    strategy: Strategy | None
    feature_names: tuple[str, ...]
    trainings: int          # coalitions the engine scored

    def __post_init__(self):
        size = 1 << self.n
        given = self.values
        if isinstance(given, Mapping):
            for mask in given:
                if not 0 <= mask < size:
                    raise DataError(f"mask {mask:#x} out of range for arity {self.n}")
            values = np.full(size, np.nan)
            values[list(given)] = list(given.values())
        else:
            values = np.asarray(given, dtype=np.float64).view()
        if values.shape != (size,):
            raise DataError(f"payoff table needs {size} values, got shape {values.shape}")
        if values[0] != 0.0:
            raise DataError("payoff table must store υ(∅) == 0")
        if isinstance(given, Mapping) and len(given) != size:
            raise IncompleteTable(f"table holds {len(given)} of {size} coalitions")
        if not np.isfinite(values).all():
            raise DataError("payoff table holds a non-finite payoff")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def payoffs(self) -> dict[int, float]:
        """The payoffs as a fresh mask → payoff dict."""
        return dict(enumerate(self.values.tolist()))

    def __getitem__(self, mask: int) -> float:
        return float(self.values[mask])

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


class PayoffEngine:
    """Fits one model for the split and memoizes each coalition's payoff row.

    The fit runs when the engine is built; coalitions are then scored from it
    by their own columns, with no refit.  `fill` scores every coalition it is
    given that is not memoized yet, in batches of one coalition size, each
    scored in one call and swept in one pass; `payoff` is its one-coalition
    case.  The engine is bound to its abscissae when built: with no grid, the
    target's own (None for area games, one scalar for a slice game), and
    otherwise a grid of slice abscissae.  A coalition's payoff row is a float
    for the former and one payoff per grid point for the latter.  Each
    coalition's curve is read at every abscissa and dropped; only the row is
    kept, keyed by coalition bitmask.
    """

    def __init__(self, spec: GameSpec, grid: np.ndarray | None = None):
        target = spec.target
        if grid is None:
            if target.is_slice and target.abscissa is None:
                raise DataError(f"{target.kind} game needs an abscissa")
            self.abscissae = target.abscissa
            empty = 0.0
        else:
            if not target.is_slice:
                raise DataError(f"a grid needs a slice target, got {target.kind}")
            self.abscissae = check_grid(grid)
            empty = np.zeros(self.abscissae.size)
            empty.setflags(write=False)
        self.spec = spec
        self.scorer = spec.fit(spec.train)
        self._rows: dict[int, float | np.ndarray] = {0: empty}
        self.trainings = 0      # coalitions scored

    def payoff(self, mask: int) -> float | np.ndarray:
        """υ(coalition) at the engine's abscissae, memoized by mask."""
        if mask not in self._rows:
            self.fill((mask,))
        return self._rows[mask]

    def fill(self, masks: Iterable[int]) -> None:
        """Memoize the payoff row of every coalition in `masks`.

        Those not memoized yet are grouped by size and scored in batches of
        at most BATCH_FLOATS scores, at least one coalition each.
        """
        by_size: dict[int, list[int]] = {}
        for mask in sorted({int(m) for m in masks} - self._rows.keys()):
            by_size.setdefault(mask.bit_count(), []).append(mask)
        for k, group in by_size.items():
            step = max(1, BATCH_FLOATS // (self.spec.test.n_rows * k))
            for start in range(0, len(group), step):
                batch = group[start:start + step]
                for mask, curve in zip(batch, self._curves(batch)):
                    self._rows[mask] = self._read(curve)

    def _read(self, curve: RocCurve | PrCurve | None) -> float | np.ndarray:
        if curve is None:
            return self._rows[0]    # zero, like the empty coalition
        kind = self.spec.target.kind
        if kind == AUC:
            return curve.auc - 0.5
        if kind == AUPRC:
            return curve.auprc - 0.5
        q = self.abscissae
        if kind == ROC_SLICE:
            row = estimate_tpr(curve, q, self.spec.strategy) - q
        else:
            row = estimate_precision(curve, q, self.spec.strategy) - 0.5
        if isinstance(row, np.ndarray):
            row.setflags(write=False)
        return row

    def curve(self, mask: int) -> RocCurve | PrCurve | None:
        """Score the coalition and build its curve afresh (not memoized);
        None, with a DegenerateCurveWarning, if its scores admit no curve."""
        return self._curves([int(mask)])[0]

    def _curves(self, masks: list[int]) -> list[RocCurve | PrCurve | None]:
        """Score coalitions of one size in one call and build their curves;
        None, with one DegenerateCurveWarning each, for those whose scores
        admit no curve."""
        spec = self.spec
        for mask in masks:
            if mask >> spec.n:
                raise DataError(f"mask {mask:#x} has bits beyond arity {spec.n}")
        # Masks are Python ints of any width: unpack them bytewise, not as int64.
        width = (spec.n + 7) // 8
        raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
        bits = np.unpackbits(
            np.frombuffer(raw, np.uint8).reshape(len(masks), width),
            axis=1, bitorder="little",
        )
        columns = np.nonzero(bits)[1].reshape(len(masks), masks[0].bit_count())
        self.trainings += len(masks)
        scores = np.asarray(self.scorer.score(spec.test, columns), dtype=np.float64)
        finite = np.isfinite(scores).all(axis=1)
        reasons = dict.fromkeys(np.flatnonzero(~finite).tolist(),
                                "scores contain non-finite values")
        curves: list[RocCurve | PrCurve | None] = [None] * len(masks)
        valid = np.flatnonzero(finite)
        if valid.size:
            build = roc_curves if spec.target.kind in _ROC_KINDS else pr_curves
            try:
                for i, curve in zip(valid.tolist(), build(scores[valid], spec.test.labels)):
                    curves[i] = curve
            except (SingleClassLabels, NoPositiveLabels) as exc:
                reasons.update(dict.fromkeys(valid.tolist(), str(exc)))
        for i in sorted(reasons):
            warnings.warn(
                f"coalition {masks[i]:#x} has no valid curve ({reasons[i]}); payoff set to 0",
                DegenerateCurveWarning,
                stacklevel=3,
            )
        return curves


def _payoff_matrix(
    spec: GameSpec, grid: np.ndarray | None, cap: int
) -> tuple[PayoffEngine, np.ndarray]:
    """Every coalition's payoff row, stacked along a last axis of length 2^n."""
    n = spec.n
    if n > cap:
        raise TooManyFeaturesForExactMode(n, cap)
    engine = PayoffEngine(spec, grid)
    engine.fill(range(1, 1 << n))
    matrix = np.stack([engine.payoff(mask) for mask in range(1 << n)], axis=-1)
    matrix.setflags(write=False)
    return engine, matrix


def evaluate_all(spec: GameSpec, cap: int = EXACT_MODE_CAP) -> PayoffTable:
    """Payoffs for every one of the 2^n coalitions."""
    engine, values = _payoff_matrix(spec, None, cap)
    return PayoffTable(
        spec.n, values, spec.target, spec.strategy, spec.train.feature_names,
        engine.trainings,
    )


def evaluate_slices(
    spec: GameSpec, grid: np.ndarray, cap: int = EXACT_MODE_CAP
) -> list[PayoffTable]:
    """One complete payoff table per grid abscissa, sharing one fit.

    The tables' `values` are the rows of one (grid, 2^n) payoff matrix.
    """
    engine, matrix = _payoff_matrix(spec, grid, cap)
    return [
        PayoffTable(
            spec.n, row, spec.target.with_abscissa(float(q)), spec.strategy,
            spec.train.feature_names, engine.trainings,
        )
        for q, row in zip(engine.abscissae, matrix)
    ]
