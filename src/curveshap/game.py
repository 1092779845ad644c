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
from operator import attrgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from .curves import (
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

# Most float64 values that one scoring batch holds.  Per coalition and test
# row, a batch holds its k likelihood terms while it is scored and about
# SWEEP_FLOATS while it is swept, so a batch of k-feature coalitions takes
# BATCH_FLOATS // (test rows × (k + SWEEP_FLOATS)) of them, at least one, and
# holds about BATCH_FLOATS × 8 bytes (512 KiB) however wide they are.
BATCH_FLOATS = 1 << 16
# Float64 values per score beside the k terms.  tracemalloc measures about 3.7
# while a batch is scored (its log-likelihoods and scores) and 9.6 while it is
# swept (its scores, their finite rows, and the sweep's order and counts).
SWEEP_FLOATS = 8

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
    """Fits one model for the split and reads every payoff of a coalition
    from its one curve.

    A coalition's payoff column is its area payoff (AUC − 0.5 or AUPRC − 0.5,
    of the target's curve family), then its payoffs at the slice `abscissae`
    the engine is bound to: none for an area target, the target's own, or a
    grid; it is zero if the scores admit no curve.  `payoffs` scores the given
    coalitions in batches of one size, each scored in one call and swept in
    one pass; nothing is kept between calls.
    """

    def __init__(self, spec: GameSpec, grid: np.ndarray | None = None):
        target = spec.target
        if grid is not None and not target.is_slice:
            raise DataError(f"a grid needs a slice target, got {target.kind}")
        if grid is None and target.is_slice and target.abscissa is None:
            raise DataError(f"{target.kind} game needs an abscissa")
        given = [] if target.abscissa is None else [target.abscissa]
        self.abscissae = np.array(given) if grid is None else check_grid(grid)
        roc = target.kind in _ROC_KINDS
        # Random-classifier value of the metric at each slice abscissa.
        self.baselines = self.abscissae if roc else np.full(self.abscissae.size, 0.5)
        self._sweep = roc_curves if roc else pr_curves
        self._area = attrgetter("auc" if roc else "auprc")
        self._estimate = estimate_tpr if roc else estimate_precision
        self.spec = spec
        self.scorer = spec.fit(spec.train)
        self.trainings = 0      # coalitions scored

    def payoffs(self, masks: Sequence[int]) -> np.ndarray:
        """The (1 + abscissae, len(masks)) payoff columns of `masks`, Python
        ints, in order; mask 0, the empty coalition, gets a zero column unscored.

        The other masks are grouped by size k in batches of at most
        BATCH_FLOATS // (test rows × (k + SWEEP_FLOATS)) coalitions, at least
        one each, which bounds the floats a batch holds while it is scored and
        swept; a repeated mask is scored again.
        """
        by_size: dict[int, list[int]] = {}
        for column, mask in enumerate(masks):
            if mask:
                by_size.setdefault(mask.bit_count(), []).append(column)
        out = np.zeros((1 + self.abscissae.size, len(masks)))
        for k, columns in by_size.items():
            step = max(1, BATCH_FLOATS // (self.spec.test.n_rows * (k + SWEEP_FLOATS)))
            for start in range(0, len(columns), step):
                batch = columns[start:start + step]
                out[:, batch] = self._rows([masks[c] for c in batch]).T
        return out

    def _rows(self, masks: list[int]) -> np.ndarray:
        """The (M, 1 + abscissae) payoff rows of M coalitions of one size; a zero
        row, with one DegenerateCurveWarning each, where the scores admit no curve."""
        spec, slices = self.spec, self.abscissae
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
        valid = np.flatnonzero(finite).tolist()
        try:
            curves = self._sweep(scores[valid], spec.test.labels) if valid else []
        except (SingleClassLabels, NoPositiveLabels) as exc:
            curves = []
            reasons.update(dict.fromkeys(valid, str(exc)))
        rows = np.zeros((len(masks), 1 + slices.size))
        for i, curve in zip(valid, curves):
            rows[i, 0] = self._area(curve) - 0.5
            if slices.size:
                rows[i, 1:] = self._estimate(curve, slices, spec.strategy) - self.baselines
        for i in sorted(reasons):
            warnings.warn(
                f"coalition {masks[i]:#x} has no valid curve ({reasons[i]}); payoff set to 0",
                DegenerateCurveWarning,
                stacklevel=4,
            )
        return rows


def _payoff_matrix(spec: GameSpec, grid: np.ndarray | None) -> tuple[PayoffEngine, np.ndarray]:
    """Every coalition's payoff row, written into column `mask` of one
    (1 + abscissae, 2^n) matrix: row 0 holds the area payoffs, the others the
    slice payoffs at the engine's abscissae."""
    n = spec.n
    if n > EXACT_MODE_CAP:
        raise TooManyFeaturesForExactMode(n, EXACT_MODE_CAP)
    engine = PayoffEngine(spec, grid)
    matrix = engine.payoffs(range(1 << n))
    if not np.isfinite(matrix).all():
        raise DataError("payoff table holds a non-finite payoff")
    matrix.setflags(write=False)
    return engine, matrix


def evaluate_all(spec: GameSpec) -> PayoffTable:
    """Payoffs for every one of the 2^n coalitions."""
    engine, matrix = _payoff_matrix(spec, None)
    return PayoffTable(
        spec.n, matrix[-1], spec.target, spec.strategy, spec.train.feature_names,
        engine.trainings,
    )


def evaluate_slices(spec: GameSpec, grid: np.ndarray) -> list[PayoffTable]:
    """One complete payoff table per grid abscissa, sharing one fit.

    The tables' `values` are the slice rows of one payoff matrix.
    """
    engine, matrix = _payoff_matrix(spec, grid)
    return [
        PayoffTable(
            spec.n, row, spec.target.with_abscissa(float(q)), spec.strategy,
            spec.train.feature_names, engine.trainings,
        )
        for q, row in zip(engine.abscissae, matrix[1:])
    ]
