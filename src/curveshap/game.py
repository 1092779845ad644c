"""Coalition games over feature subsets.

The characteristic functions measure how far a model trained on a feature
coalition sits above the random-classifier baseline: AUC − 0.50 and
AUPRC − 0.50 for areas, tpr − fpr at a query FPR for ROC slices, and
precision − 0.50 at a query recall for PRC slices.  The empty coalition is
worth 0 by definition and is never evaluated through a model.

A `PayoffEngine` scores the coalitions a game asks for and reads their
payoffs from their swept curves.  Given masks are scored in batches by size
through the scorer's `score`.  An exact game, which asks for the whole
lattice, reads a `TrainedModel`'s scores from the model's rank-order walk
(`model.lattice_scores`) instead; any other scorer is scored in batches.
Both sources feed one sweep loop, so they give the same payoffs, warnings
and counts, bit for bit.  `packed`, the greedy packer of blocks under a
budget, groups the engine's blocks into sweeps.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .curves import Strategy, check_grid, sweeper
from .dataset import Dataset
from .errors import DataError, IncompleteTable, TooManyFeaturesForExactMode, allocation
from .model import TrainedModel, lattice_scores, train_gnb

EXACT_MODE_CAP = 20

# Most float64 values that one scoring batch holds.  Per coalition and test
# row, a batch holds its k likelihood terms while it is scored and about
# SWEEP_FLOATS while it is swept, so a batch of k-feature coalitions takes
# BATCH_FLOATS // (test rows × (k + SWEEP_FLOATS)) of them, at least one, and
# holds about BATCH_FLOATS × 8 bytes (512 KiB) however wide they are.
BATCH_FLOATS = 1 << 16
# Float64 values per score beside the k terms.  tracemalloc measures 2.1 to
# 2.4 while a batch of 1 to 16 columns on 275 test rows gathers and sums its
# terms (its two log-likelihoods), and 3.0 in all once the terms are freed and
# the posterior transform writes its scores beside them.  A sweep of 15 to
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
    coalitions in chunks of one size, one `score` call each, or the whole
    lattice of a `TrainedModel` by its walk.  Either source yields
    (columns, scores) blocks into one loop, which `packed` them into sweeps:
    each sweep is one `CurveBatch`, whose areas and operating points give the
    payoffs of all its rows at once.  Nothing is kept between calls: each
    sets `trainings` and `grand_readout` afresh.
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

    def payoffs(self, masks: Sequence[int]) -> np.ndarray:
        """The (1 + abscissae, len(masks)) payoff columns of `masks`, Python
        ints, in order; mask 0, the empty coalition, gets a zero column unscored.

        The other masks are grouped by size k, sizes ascending, each size's
        masks in the order given, and scored in chunks of at most
        BATCH_FLOATS // (test rows × (k + SWEEP_FLOATS)) coalitions, at least
        one each.  The whole lattice in mask order, `range(1 << n)`, of a game
        whose scorer is a `TrainedModel` is scored by the model's rank-order
        walk instead (`model.lattice_scores`, at most n blocks that fit
        BATCH_FLOATS): the same payoffs, bit for bit, without one gather per
        coalition.  Consecutive chunks or walk blocks are `packed` into one
        sweep while its test rows × SWEEP_FLOATS + abscissae × BRACKET_FLOATS
        floats per coalition fit BATCH_FLOATS; one that alone does not is
        swept alone.  That bounds the floats a batch holds while it is scored
        and swept.  A repeated mask is scored again.  The degenerate
        coalitions are warned of by size, then column.  Masks other than the
        lattice are checked against the arity first, and a payoff array that
        numpy cannot allocate is a DataError.
        """
        self.trainings = 0      # coalitions this call scored
        # The grand coalition's raw readout (1 + abscissae,): its area, then its
        # curve's values at the abscissae, no baseline subtracted, even where
        # its payoffs are zero; None unless this call scored it.
        self.grand_readout = None
        n = self.spec.n
        lattice = isinstance(masks, range) and masks == range(1 << n)
        if not lattice:         # the lattice is in range by construction
            for mask in (min(masks, default=0), max(masks, default=0)):
                if mask >> n:       # a negative mask shifts to -1
                    raise DataError(f"mask {mask:#x} has bits beyond arity {n}")
        # Raw readouts first, made payoffs in place once every sweep is read.
        with allocation(f"{1 + self.abscissae.size} payoff rows of {len(masks)} coalitions"):
            out = np.zeros((1 + self.abscissae.size, len(masks)))
            valid = np.zeros(len(masks), dtype=bool)
        if lattice and isinstance(self.scorer, TrainedModel):
            blocks = lattice_scores(self.scorer, self.spec.test, BATCH_FLOATS)
        else:
            blocks = self._chunks(masks)
        per_coalition = (self.spec.test.n_rows * SWEEP_FLOATS
                         + self.abscissae.size * BRACKET_FLOATS)
        for sweep in packed(blocks, lambda block: block[0].size * per_coalition,
                            BATCH_FLOATS):
            columns = np.concatenate([columns for columns, _ in sweep])
            out[:, columns], valid[columns] = self._read(sweep)
        if n and len(masks) and masks[-1] == (1 << n) - 1:
            self.grand_readout = out[:, -1].copy()
        out[0] -= 0.5
        out[1:] -= self.baselines[:, np.newaxis]
        out[:, ~valid] = 0.0
        # Mask 0 is not scored; a stable sort keeps each size's columns in order.
        degenerate = [masks[column] for column in np.flatnonzero(~valid).tolist()]
        for mask in sorted(filter(None, degenerate), key=int.bit_count):
            warnings.warn(
                f"coalition {mask:#x} has no valid curve "
                "(scores contain non-finite values); payoff set to 0",
                DegenerateCurveWarning,
                stacklevel=_outside_stacklevel(),
            )
        return out

    def _chunks(self, masks: Sequence[int]):
        """The non-empty `masks` scored as (columns, scores) blocks: the
        columns of one chunk of masks of one size, sizes ascending, and their
        (chunk, test rows) scores from one `score` call."""
        spec = self.spec
        rows = spec.test.n_rows
        # Masks are Python ints of any width: unpack them bytewise, not as int64.
        width = (spec.n + 7) // 8
        sizes = np.fromiter(map(int.bit_count, masks), dtype=np.min_scalar_type(spec.n),
                            count=len(masks))
        order = np.argsort(sizes, kind="stable")
        counts = np.bincount(sizes, minlength=1).tolist()
        start = counts[0]       # size 0, the empty coalition, is not scored
        for k in range(1, len(counts)):
            group = order[start:start + counts[k]]
            start += counts[k]
            step = max(1, BATCH_FLOATS // (rows * (k + SWEEP_FLOATS)))
            for first in range(0, group.size, step):
                columns = group[first:first + step]
                raw = b"".join(masks[i].to_bytes(width, "little") for i in columns.tolist())
                bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(columns.size, width),
                                     axis=1, bitorder="little")
                yield columns, self.scorer.score(spec.test, np.nonzero(bits)[1].reshape(-1, k))

    def _read(self, sweep: list) -> tuple[np.ndarray, np.ndarray]:
        """The (1 + abscissae, M) raw readouts of the M coalitions of a
        sweep's (columns, scores) blocks, swept at once, and which of them
        have all their scores finite.  The sweep is emptied once its scores
        are joined, so they are held once while they are swept."""
        scores = np.concatenate([scores for _, scores in sweep])
        sweep.clear()
        self.trainings += len(scores)
        curves = self._sweep(scores)
        rows = np.empty((1 + self.abscissae.size, len(scores)))
        rows[0] = curves.areas
        if self.abscissae.size:
            rows[1:] = curves.estimate(self.abscissae, self.spec.strategy).T
        return rows, np.isfinite(scores).all(axis=1)


def packed(items, size, budget):
    """Consecutive `items`, as lists, grouped greedily while their `size`s
    add up to at most `budget`.  A list is handed on as soon as it is full,
    and an item that alone does not fit is a list of its own.  Only its list
    holds an item, so a consumer that empties a list frees its items."""
    block, total = [], 0
    for item in items:
        weight = size(item)
        if block and total + weight > budget:
            yield block
            block, total = [], 0
        block.append(item)
        del item
        total += weight
        if total >= budget:
            yield block
            block, total = [], 0
    if block:
        yield block


def _outside_stacklevel() -> int:
    """The `stacklevel` at which a warning of this function's caller names the
    first frame outside this package: the caller's own line, whichever path
    through the package led to the warning.  (`skip_file_prefixes` does this
    from Python 3.12 on.)"""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


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
