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
from operator import methodcaller
from typing import Callable, Mapping, Sequence

import numpy as np

from .curves import Strategy, check_grid, sweeper
from .dataset import Dataset
from .errors import DataError, IncompleteTable, TooManyFeaturesForExactMode
from .model import train_gnb

EXACT_MODE_CAP = 20

# Most float64 values that one scoring batch holds.  Per coalition and test
# row, a batch holds its k likelihood terms while it is scored and about
# SWEEP_FLOATS while it is swept, so a batch of k-feature coalitions takes
# BATCH_FLOATS // (test rows × (k + SWEEP_FLOATS)) of them, at least one, and
# holds about BATCH_FLOATS × 8 bytes (512 KiB) however wide they are.
BATCH_FLOATS = 1 << 16
# Float64 values per score beside the k terms.  tracemalloc measures about 3.7
# while a batch is scored (its log-likelihoods and scores).  A sweep of 15 to
# 29 coalitions on 275 test rows, on either ranking path, peaks at 5.2 when
# no row is tied and only areas are read, 6.3 (ROC) or 7.3 (PR) once a slice
# reads its points, and 8.4 when every row is tied: 4.1 to 7.2 per score (its
# scores, sort keys or order, ranked labels, and the counts, points or
# trapezoid terms it builds) plus 2,600 to 5,600 floats whatever its size.
SWEEP_FLOATS = 8
# Float64 values per coalition and slice abscissa while a sweep's operating
# points are bracketed; tracemalloc measures about 13.
BRACKET_FLOATS = 13

AUC = "auc"
ROC_SLICE = "roc_slice"
AUPRC = "auprc"
PRC_SLICE = "prc_slice"

_AREA_KINDS = (AUC, AUPRC)
_SLICE_KINDS = (ROC_SLICE, PRC_SLICE)
_ROC_KINDS = (AUC, ROC_SLICE)


class DegenerateCurveWarning(UserWarning):
    """A coalition's scores are not all finite; its payoff fell back to 0."""


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
        roc = self.kind == ROC_SLICE
        if self.abscissa is None:
            return "TPR over FPR grid" if roc else "precision over recall grid"
        return f"TPR at FPR={self.abscissa:g}" if roc else f"precision at recall={self.abscissa:g}"


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
    grid; it is zero if its scores are not all finite.  `payoffs` scores the given
    coalitions in chunks of one size, one `score` call each, and sweeps
    consecutive chunks together into one `CurveBatch`, whose areas and
    operating points give the payoffs of all its rows at once; nothing is
    kept between calls.
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
        # The test labels are checked once, here, for every sweep.
        self._sweep = sweeper(spec.test.labels, roc)
        self.spec = spec
        self.scorer = spec.fit(spec.train)
        self.trainings = 0      # coalitions scored

    def payoffs(self, masks: Sequence[int]) -> np.ndarray:
        """The (1 + abscissae, len(masks)) payoff columns of `masks`, Python
        ints, in order; mask 0, the empty coalition, gets a zero column unscored.

        The other masks are grouped by size k, sizes in the order they first
        appear, and scored in chunks of at most
        BATCH_FLOATS // (test rows × (k + SWEEP_FLOATS)) coalitions, at least
        one each.  Consecutive chunks, of one size or several, are swept
        together while the sweep's test rows × SWEEP_FLOATS + abscissae ×
        BRACKET_FLOATS floats per coalition fit BATCH_FLOATS; a chunk that
        alone does not is swept alone.  That bounds the floats a batch holds
        while it is scored and swept.  A repeated mask is scored again.
        """
        n = self.spec.n
        for mask in (min(masks, default=0), max(masks, default=0)):
            if mask >> n:       # a negative mask shifts to -1
                raise DataError(f"mask {mask:#x} has bits beyond arity {n}")
        sizes = np.fromiter(map(int.bit_count, masks), dtype=np.min_scalar_type(n),
                            count=len(masks))
        out = np.zeros((1 + self.abscissae.size, len(masks)))
        for chunks in self._sweeps(sizes):
            columns = np.concatenate(chunks)
            rows = self._rows(list(map(masks.__getitem__, columns.tolist())),
                              [chunk.size for chunk in chunks])
            out[:, columns] = rows.T
        return out

    def _sweeps(self, sizes: np.ndarray):
        """The columns of the non-empty masks of `sizes` (their popcounts), as
        lists of consecutive scoring chunks, one list per sweep."""
        rows = self.spec.test.n_rows
        per_coalition = rows * SWEEP_FLOATS + self.abscissae.size * BRACKET_FLOATS
        order = np.argsort(sizes, kind="stable")
        counts = np.bincount(sizes)
        starts = (np.cumsum(counts) - counts).tolist()
        # Sizes in the order they first appear: order[starts[k]] is the first
        # mask of size k.  Size 0, the empty coalition, is not scored.
        present = (np.flatnonzero(counts[1:]) + 1).tolist()
        present.sort(key=lambda k: order[starts[k]])
        sweep, floats = [], 0
        for k in present:
            group = order[starts[k]:starts[k] + counts[k]]
            step = max(1, BATCH_FLOATS // (rows * (k + SWEEP_FLOATS)))
            for start in range(0, group.size, step):
                chunk = group[start:start + step]
                if sweep and floats + chunk.size * per_coalition > BATCH_FLOATS:
                    yield sweep
                    sweep, floats = [], 0
                sweep.append(chunk)
                floats += chunk.size * per_coalition
        if sweep:
            yield sweep

    def _rows(self, masks: list[int], chunks: list[int]) -> np.ndarray:
        """The (M, 1 + abscissae) payoff rows of M coalitions, scored in
        consecutive chunks of the given lengths, each of one size, and swept
        together; a zero row, with one DegenerateCurveWarning each, where the
        scores are not all finite."""
        spec, slices = self.spec, self.abscissae
        # Masks are Python ints of any width: unpack them bytewise, not as int64.
        width = (spec.n + 7) // 8
        raw = b"".join(map(methodcaller("to_bytes", width, "little"), masks))
        bits = np.unpackbits(
            np.frombuffer(raw, np.uint8).reshape(len(masks), width),
            axis=1, bitorder="little",
        )
        scores = np.empty((len(masks), spec.test.n_rows))
        start = 0
        for size in chunks:
            columns = np.nonzero(bits[start:start + size])[1].reshape(size, -1)
            scores[start:start + size] = self.scorer.score(spec.test, columns)
            start += size
        self.trainings += len(masks)
        finite = np.isfinite(scores).all(axis=1)
        curves = self._sweep(scores)
        rows = np.zeros((len(masks), 1 + slices.size))
        rows[finite, 0] = curves.areas[finite] - 0.5
        if slices.size:
            rows[finite, 1:] = curves.estimate(slices, spec.strategy)[finite] - self.baselines
        for i in np.flatnonzero(~finite).tolist():
            warnings.warn(
                f"coalition {masks[i]:#x} has no valid curve "
                "(scores contain non-finite values); payoff set to 0",
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
