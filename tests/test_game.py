import csv
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curveshap as cs
from curveshap import curves, errors
from curveshap import game, model
from curveshap.curves import (
    Strategy,
    default_grid,
    estimate_precision,
    estimate_tpr,
    pr_from_scores,
    roc_from_scores,
)
from curveshap.game import (
    AUC,
    AUPRC,
    EXACT_MODE_CAP,
    PRC_SLICE,
    ROC_SLICE,
    DegenerateCurveWarning,
    GameSpec,
    PayoffEngine,
    PayoffTable,
    Target,
    evaluate_all,
    evaluate_slices,
)
from curveshap.model import lattice_scores, score, train_gnb
from curveshap.report import write_payoffs
from curveshap.shapley import shapley_curve, shapley_sampled, shapley_sampled_curve

from conftest import points_built
from oracles import auc_rank_statistic, logaddexp_posteriors


@pytest.fixture(scope="module")
def auc_spec(banknote_split):
    train, test = banknote_split
    return GameSpec(Target.auc(), train, test)


@pytest.fixture(scope="module")
def roc_spec(banknote_split):
    train, test = banknote_split
    return GameSpec(
        Target.roc_slice(0.2), train, test, strategy=Strategy.INTERPOLATION
    )


class TestTarget:
    def test_baselines(self):
        assert Target.auc().baseline() == 0.5
        assert Target.auprc().baseline() == 0.5
        assert Target.roc_slice(0.2).baseline() == 0.2
        assert Target.prc_slice(0.7).baseline() == 0.5

    def test_slice_flags(self):
        assert Target.roc_slice(0.1).is_slice
        assert Target.prc_slice(0.1).is_slice
        assert not Target.auc().is_slice
        assert not Target.auprc().is_slice

    def test_abscissa_bounds(self):
        with pytest.raises(errors.DataError):
            Target.roc_slice(1.5)
        with pytest.raises(errors.DataError):
            Target.prc_slice(-0.1)

    def test_area_rejects_abscissa(self):
        with pytest.raises(errors.DataError):
            Target("auc", 0.3)

    def test_unknown_kind(self):
        with pytest.raises(errors.DataError):
            Target("f1")

    def test_describe(self):
        assert Target.auc().describe() == "AUC"
        assert Target.roc_slice(0.25).describe() == "TPR at FPR=0.25"
        assert Target.prc_slice(0.5).describe() == "precision at recall=0.5"
        # A slice target without an abscissa names its whole grid.
        assert Target(ROC_SLICE).describe() == "TPR over FPR grid"
        assert Target(PRC_SLICE).describe() == "precision over recall grid"

    def test_with_abscissa(self):
        t = Target.roc_slice(0.1).with_abscissa(0.6)
        assert t.abscissa == 0.6
        with pytest.raises(errors.DataError):
            Target.auc().with_abscissa(0.5)


class TestGameSpec:
    def test_slice_requires_strategy(self, banknote_split):
        train, test = banknote_split
        with pytest.raises(errors.DataError):
            GameSpec(Target.roc_slice(0.2), train, test)

    def test_name_mismatch(self, banknote_split):
        train, test = banknote_split
        with pytest.raises(errors.DataError):
            GameSpec(Target.auc(), train, cs.project(test, [0, 1]))


class TestPayoff:
    def test_empty_coalition_is_analytic_zero(self, auc_spec, roc_spec):
        for spec in (auc_spec, roc_spec):
            column = PayoffEngine(spec).payoffs([0])
            assert column.shape[1] == 1 and not column.any()

    def test_grand_coalition_auc(self, auc_spec):
        v = PayoffEngine(auc_spec).payoffs([0b1111])[-1, 0]
        # reported grand-coalition AUC is 94.03%; splits differ by a couple
        # of points, so the payoff sits near 0.44
        assert 0.40 <= v <= 0.48

    def test_roc_slice_grand_coalition_consistency(self, roc_spec):
        engine = PayoffEngine(roc_spec)
        full = (1 << roc_spec.n) - 1
        v = engine.payoffs([full])[-1, 0]
        train, test = roc_spec.train, roc_spec.test
        curve = roc_from_scores(train_gnb(train).score(test), test.labels)
        tpr = estimate_tpr(curve, 0.2, Strategy.INTERPOLATION)
        assert v == tpr - 0.2

    def test_arity_mismatch(self, auc_spec):
        with pytest.raises(errors.DataError):
            PayoffEngine(auc_spec).payoffs([1 << 4])

    def test_determinism(self, auc_spec):
        mask = 0b1001
        np.testing.assert_array_equal(
            PayoffEngine(auc_spec).payoffs([mask]), PayoffEngine(auc_spec).payoffs([mask])
        )

    def test_each_call_sets_its_own_state(self, auc_spec):
        """`trainings` and `grand_readout` describe the last `payoffs` call
        alone: a second call on one engine neither adds to the first's count
        nor keeps its grand readout."""
        engine = PayoffEngine(auc_spec)
        engine.payoffs(range(16))
        assert engine.trainings == 15
        assert engine.grand_readout[0] == engine.payoffs([0b1111])[0, 0] + 0.5
        assert engine.trainings == 1
        engine.payoffs([1, 2])
        assert engine.trainings == 2
        assert engine.grand_readout is None


class TestEvaluateAll:
    def test_banknote_has_16_entries(self, auc_spec):
        t = evaluate_all(auc_spec)
        assert len(t.payoffs) == 16
        assert t[0] == 0.0
        assert t.values.shape == (16,)
        assert t.trainings == 15

    def test_single_feature_game(self, banknote_split):
        train, test = banknote_split
        spec = GameSpec(Target.auc(), cs.project(train, [0]), cs.project(test, [0]))
        t = evaluate_all(spec)
        assert len(t.payoffs) == 2
        assert t[0] == 0.0
        assert t[1] != 0.0

    def test_cap_enforced(self):
        rng = np.random.default_rng(0)
        n = EXACT_MODE_CAP + 1
        d = cs.Dataset(
            rng.normal(size=(30, n)),
            np.array([0, 1] * 15),
            tuple(f"f{i}" for i in range(n)),
        )
        spec = GameSpec(Target.auc(), d, d)
        with pytest.raises(errors.TooManyFeaturesForExactMode):
            evaluate_all(spec)

    def test_area_payoffs_within_half(self, auc_spec):
        t = evaluate_all(auc_spec)
        values = np.array(list(t.payoffs.values()))
        assert (np.abs(values) <= 0.5).all()

    def test_rows_name_members(self, auc_spec, tmp_path):
        t = evaluate_all(auc_spec)
        write_payoffs(tmp_path / "payoffs.csv", t)
        with (tmp_path / "payoffs.csv").open(newline="") as handle:
            named = {int(mask): members for mask, members, _ in list(csv.reader(handle))[1:]}
        assert named[0] == ""
        assert named[0b0101] == "variance+kurtosis"
        assert named[t.full_mask] == "variance+skewness+kurtosis+entropy"


class TestEvaluateSlices:
    def test_grid_tables_share_trainings(self, roc_spec):
        grid = default_grid()
        tables = evaluate_slices(roc_spec, grid)
        assert len(tables) == 101
        assert all(t.trainings == 15 for t in tables)
        assert all(t.values.shape == (16,) for t in tables)

    def test_single_point_matches_direct(self, roc_spec):
        (table,) = evaluate_slices(roc_spec, np.array([0.2]))
        direct = evaluate_all(roc_spec)
        assert table.payoffs == direct.payoffs

    def test_endpoint_payoffs_bounded(self, roc_spec):
        tables = evaluate_slices(roc_spec, np.array([0.0, 1.0]))
        for t in tables:
            values = np.array(list(t.payoffs.values()))
            assert (np.abs(values) <= 1.0).all()

    def test_right_endpoint_payoffs_nonpositive(self, roc_spec):
        # at fpr=1 every curve ends at tpr=1, so tpr−1 ≤ 0
        tables = evaluate_slices(roc_spec, np.array([1.0]))
        values = np.array(list(tables[0].payoffs.values()))
        assert (values <= 1e-12).all()

    def test_rejects_area_target(self, auc_spec):
        with pytest.raises(errors.DataError):
            evaluate_slices(auc_spec, default_grid())

    def test_rejects_out_of_range_grid(self, roc_spec):
        with pytest.raises(errors.DataError):
            evaluate_slices(roc_spec, np.array([0.5, 1.5]))

    def test_tables_carry_their_abscissa(self, roc_spec):
        tables = evaluate_slices(roc_spec, np.array([0.1, 0.9]))
        assert tables[0].target.abscissa == 0.1
        assert tables[1].target.abscissa == 0.9


class TestPayoffTable:
    def test_requires_analytic_empty(self):
        with pytest.raises(errors.DataError):
            PayoffTable(1, {0: 0.1, 1: 0.2}, Target.auc(), None, ("a",), 1)
        with pytest.raises(errors.DataError):
            PayoffTable(1, {1: 0.2}, Target.auc(), None, ("a",), 1)

    def test_rejects_non_finite(self):
        with pytest.raises(errors.DataError):
            PayoffTable(1, {0: 0.0, 1: float("nan")}, Target.auc(), None, ("a",), 1)

    def test_rejects_mask_beyond_arity(self):
        with pytest.raises(errors.DataError):
            PayoffTable(1, {0: 0.0, 1: 0.2, 2: 0.3}, Target.auc(), None, ("a",), 1)

    def test_values_are_read_only(self, auc_spec):
        t = evaluate_all(auc_spec)
        with pytest.raises(ValueError):
            t.values[1] = 0.0


class ConstantScorer:
    def __init__(self, value):
        self.value = value

    def score(self, d, columns):
        return np.full((len(columns), d.n_rows), self.value)


def fit_nan(_):
    return ConstantScorer(float("nan"))


def fit_nan_with_variance(d):
    """GNB, except that coalitions holding `variance` score NaN."""
    gnb, nan = train_gnb(d), fit_nan(d)
    variance = d.feature_index("variance")

    class Scorer:
        def score(self, test, columns):
            with_variance = (columns == variance).any(axis=1)[:, np.newaxis]
            return np.where(with_variance, nan.score(test, columns), gnb.score(test, columns))

    return Scorer()


class TestDegenerateCoalitions:
    def test_single_class_test_scores_fall_back(self, banknote_split):
        """A constant-score coalition still yields a curve; a degenerate one warns."""
        train, test = banknote_split
        spec = GameSpec(Target.auc(), train, test, fit=fit_nan)
        engine = PayoffEngine(spec)
        with pytest.warns(DegenerateCurveWarning):
            v = engine.payoffs([0b0001])[-1, 0]
        assert v == 0.0

    def test_constant_scores_are_not_degenerate(self, banknote_split):
        train, test = banknote_split

        class HalfScorer:
            def score(self, d, columns):
                return np.full((len(columns), d.n_rows), 0.5)

        spec = GameSpec(Target.auc(), train, test, fit=lambda _: HalfScorer())
        engine = PayoffEngine(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateCurveWarning)
            assert engine.payoffs([0b0001])[-1, 0] == 0.0  # AUC 0.5 − 0.5, a real curve
        assert roc_from_scores(np.full(test.n_rows, 0.5), test.labels).auc == 0.5

    def test_degenerate_grid_rows_are_zero(self, banknote_split):
        train, test = banknote_split
        spec = GameSpec(
            Target(ROC_SLICE), train, test, strategy=Strategy.INTERPOLATION, fit=fit_nan
        )
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.warns(DegenerateCurveWarning):
            row = PayoffEngine(spec, grid).payoffs([0b0101])[1:, 0]
        np.testing.assert_array_equal(row, np.zeros(5))
        with pytest.warns(DegenerateCurveWarning):
            tables = evaluate_slices(spec, grid)
        for t in tables:
            np.testing.assert_array_equal(t.values, np.zeros(16))
        np.testing.assert_array_equal(shapley_curve(tables).values, np.zeros((4, 5)))

    def test_degenerate_sampled_curve_is_zero(self, banknote_split):
        train, test = banknote_split
        spec = GameSpec(
            Target(ROC_SLICE), train, test, strategy=Strategy.INTERPOLATION, fit=fit_nan
        )
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.warns(DegenerateCurveWarning):
            ca = shapley_sampled_curve(spec, grid, samples=3, seed=0)
        np.testing.assert_array_equal(ca.values, np.zeros((4, 5)))
        np.testing.assert_array_equal(ca.reference, ca.baselines)

    def test_only_degenerate_coalitions_are_zeroed(self, banknote_split):
        """A coalition holding feature 0 is degenerate; the others keep their rows."""
        train, test = banknote_split
        spec = GameSpec(
            Target(ROC_SLICE), train, test, strategy=Strategy.INTERPOLATION,
            fit=fit_nan_with_variance,
        )
        grid = np.linspace(0.1, 0.9, 5)
        with pytest.warns(DegenerateCurveWarning):
            matrix = np.stack([t.values for t in evaluate_slices(spec, grid)])
        with_variance = np.arange(16) & 1 == 1
        np.testing.assert_array_equal(matrix[:, with_variance], 0.0)
        assert (matrix[:, ~with_variance][:, 1:] != 0.0).any(axis=0).all()


class CountingFit:
    """train_gnb behind a call counter."""

    def __init__(self):
        self.calls = 0

    def __call__(self, d):
        self.calls += 1
        return train_gnb(d)


@pytest.mark.parametrize("run", [
    lambda spec, grid: evaluate_all(spec),
    lambda spec, grid: evaluate_slices(spec, grid),
    lambda spec, grid: shapley_sampled(spec, samples=20, seed=0),
    lambda spec, grid: shapley_sampled_curve(spec, grid, samples=20, seed=0),
], ids=["evaluate_all", "evaluate_slices", "shapley_sampled", "shapley_sampled_curve"])
def test_one_fit_per_game(run, banknote_split, monkeypatch):
    """Every game fits its model once and reads its payoffs in one call."""
    train, test = banknote_split
    fit = CountingFit()
    payoffs, calls = PayoffEngine.payoffs, []

    def counted(engine, masks):
        calls.append(len(masks))
        return payoffs(engine, masks)

    monkeypatch.setattr(PayoffEngine, "payoffs", counted)
    spec = GameSpec(
        Target.roc_slice(0.2), train, test, strategy=Strategy.INTERPOLATION, fit=fit
    )
    run(spec, np.linspace(0.0, 1.0, 5))
    assert fit.calls == 1
    assert len(calls) == 1


COLUMN_KINDS = ("normal", "ties", "constant", "duplicate")
# Coalitions holding an overflowing column score non-finite: degenerate.
WALK_KINDS = COLUMN_KINDS + ("overflow",)


def coalition_split(seed, columns):
    """Train and test sets whose columns are of the given (kind, log10 scale)."""
    rng = np.random.default_rng(seed)
    rows = 40
    labels = rng.integers(0, 2, rows)
    labels[[0, 1, 30, 31]] = [0, 1, 0, 1]
    features = np.empty((rows, len(columns)))
    for j, (kind, exponent) in enumerate(columns):
        scale = 10.0 ** exponent
        if kind == "duplicate" and j > 0:
            features[:, j] = features[:, j - 1]
        elif kind == "ties":
            features[:, j] = (rng.integers(0, 3, rows) + labels) * scale
        elif kind == "constant":
            features[:, j] = 7.0 * scale
        elif kind == "overflow":        # finite, but its squares overflow
            features[:, j] = (rng.normal(size=rows) + labels) * scale * 1e200
        else:
            features[:, j] = (rng.normal(size=rows) + labels) * scale
    names = tuple(f"f{j}" for j in range(len(columns)))
    return (cs.Dataset(features[:30], labels[:30], names),
            cs.Dataset(features[30:], labels[30:], names))


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    columns=st.lists(
        st.tuples(st.sampled_from(COLUMN_KINDS), st.integers(-6, 6)),
        min_size=1, max_size=5,
    ),
)
@example(seed=0, columns=[
    ("ties", -6), ("constant", 0), ("duplicate", 0), ("normal", 6), ("normal", -3),
])
def test_coalition_scores_equal_a_refit(seed, columns):
    """Scoring a coalition's columns of one fit is a refit on them, bit for bit,
    and the engine's AUC payoffs are the rank statistic of those scores."""
    train, test = coalition_split(seed, columns)
    full = train_gnb(train)
    engine = PayoffEngine(GameSpec(Target.auc(), train, test))
    for mask in range(1 << len(columns)):
        s = [i for i in range(len(columns)) if mask >> i & 1]
        scores = score(full, test, s)
        refit = score(train_gnb(cs.project(train, s)), cs.project(test, s))
        np.testing.assert_array_equal(scores, refit)
        if mask:
            expected = auc_rank_statistic(refit, test.labels) - 0.5
            assert abs(engine.payoffs([mask])[-1, 0] - expected) <= 1e-12


def walk_budgets(n, rows):
    """Walk budgets: b = 0 (the deepest walks), b = 2, and two that take
    whole levels on small test sets."""
    return [1, 2 * n * rows * 4, 1 << 14, game.BATCH_FLOATS]


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    columns=st.lists(
        st.tuples(st.sampled_from(WALK_KINDS), st.integers(-6, 6)),
        min_size=1, max_size=7,
    ),
)
@example(seed=0, columns=[
    ("ties", -6), ("constant", 0), ("duplicate", 0), ("normal", 6), ("overflow", -3),
    ("duplicate", 0), ("ties", -6),
])
def test_walk_scores_equal_single_coalitions(seed, columns):
    """The rank-order walk scores every non-empty coalition once, each row
    bit for bit its coalition scored alone (NaN and -0.0 included), whatever
    its budget."""
    train, test = coalition_split(seed, columns)
    n, model = len(columns), train_gnb(train)
    for floats in walk_budgets(n, test.n_rows):
        seen = []
        for masks, scores in lattice_scores(model, test, floats):
            assert scores.shape == (masks.size, test.n_rows)
            for mask, row in zip(masks.tolist(), scores):
                alone = score(model, test, [i for i in range(n) if mask >> i & 1])
                np.testing.assert_array_equal(row.view(np.int64), alone.view(np.int64))
            seen += masks.tolist()
        assert sorted(seen) == list(range(1, 1 << n))


@settings(max_examples=25)
@given(
    seed=st.integers(0, 10_000),
    columns=st.lists(
        st.tuples(st.sampled_from(WALK_KINDS), st.integers(-6, 6)),
        min_size=1, max_size=6,
    ),
    kind=st.sampled_from([AUC, AUPRC, ROC_SLICE, PRC_SLICE]),
    strategy=st.sampled_from(list(Strategy)),
)
@example(seed=0, columns=[
    ("ties", -6), ("overflow", 0), ("duplicate", 0), ("normal", 6), ("constant", -3),
], kind=ROC_SLICE, strategy=Strategy.INTERPOLATION)
def test_walk_payoffs_equal_the_batched_path(seed, columns, kind, strategy):
    """An exact game of a TrainedModel reads the walk's blocks; one whose
    scorer wraps the model takes the batched path.  Both give the same
    matrix, trainings and grand readout, bit for bit, and warn of the same
    degenerate coalitions in the same order, whatever the budget."""
    train, test = coalition_split(seed, columns)
    grid = None if kind in (AUC, AUPRC) else np.linspace(0.0, 1.0, 11)

    def game_of(fit):
        spec = GameSpec(Target(kind), train, test, strategy, fit=fit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine, matrix = game._payoff_matrix(spec, grid)
        assert {w.category for w in caught} <= {DegenerateCurveWarning}
        return engine, matrix, [str(w.message) for w in caught]

    for floats in walk_budgets(len(columns), test.n_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(game, "BATCH_FLOATS", floats)
            walk, walked, walk_warnings = game_of(train_gnb)
            batched, expected, batched_warnings = game_of(CountingScorer)
        assert isinstance(walk.scorer, cs.TrainedModel)
        assert not isinstance(batched.scorer, cs.TrainedModel)
        np.testing.assert_array_equal(walked.view(np.int64), expected.view(np.int64))
        assert walk.trainings == batched.trainings == (1 << len(columns)) - 1
        np.testing.assert_array_equal(walk.grand_readout.view(np.int64),
                                      batched.grand_readout.view(np.int64))
        assert walk_warnings == batched_warnings


def single_coalition_payoffs(spec, grid=None):
    """Each coalition's payoff row from its scores computed alone, one
    coalition per `score` call, stacked along a last axis of length 2^n."""
    model = train_gnb(spec.train)
    kind, labels = spec.target.kind, spec.test.labels
    rows = [np.zeros(()) if grid is None else np.zeros(grid.size)]
    for mask in range(1, 1 << spec.n):
        scores = score(model, spec.test, [i for i in range(spec.n) if mask >> i & 1])
        if kind == AUC:
            rows.append(roc_from_scores(scores, labels).auc - 0.5)
        elif kind == AUPRC:
            rows.append(pr_from_scores(scores, labels).auprc - 0.5)
        elif kind == ROC_SLICE:
            curve = roc_from_scores(scores, labels)
            rows.append(estimate_tpr(curve, grid, spec.strategy) - grid)
        else:
            curve = pr_from_scores(scores, labels)
            rows.append(estimate_precision(curve, grid, spec.strategy) - 0.5)
    return np.stack(rows, axis=-1)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 10_000),
    columns=st.lists(
        st.tuples(st.sampled_from(COLUMN_KINDS), st.integers(-6, 6)),
        min_size=1, max_size=6,
    ),
    kind=st.sampled_from([AUC, AUPRC, ROC_SLICE, PRC_SLICE]),
    strategy=st.sampled_from(list(Strategy)),
)
@example(seed=0, columns=[
    ("ties", -6), ("constant", 0), ("duplicate", 0), ("normal", 6), ("normal", -3),
    ("duplicate", 0),
], kind=ROC_SLICE, strategy=Strategy.INTERPOLATION)
def test_batches_equal_single_coalitions(seed, columns, kind, strategy):
    """Payoffs scored in batches equal those of each coalition scored and
    swept alone, bit for bit, whatever the batch size and whatever the order
    of the masks asked for (mask 0 and a repeated mask included); a slice
    game's area readout equals the area game's payoffs."""
    train, test = coalition_split(seed, columns)
    if kind in (AUC, AUPRC):
        spec, grid = GameSpec(Target(kind), train, test), None
        run = lambda: evaluate_all(spec).values
    else:
        spec = GameSpec(Target(kind), train, test, strategy)
        grid = np.linspace(0.0, 1.0, 11)
        run = lambda: np.stack([t.values for t in evaluate_slices(spec, grid)])
    expected = single_coalition_payoffs(spec, grid)
    masks = [*np.random.default_rng(seed).permutation(1 << spec.n).tolist(), (1 << spec.n) - 1]
    readout = -1 if grid is None else np.s_[1:]
    # The default batches; one coalition per batch; one batch per size.
    for batch_floats in (game.BATCH_FLOATS, 1, 1 << 30):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(game, "BATCH_FLOATS", batch_floats)
            np.testing.assert_array_equal(run(), expected)
            shuffled = PayoffEngine(spec, grid).payoffs(masks)[readout]
            np.testing.assert_array_equal(shuffled, expected[..., masks])
    if grid is not None:
        # A slice game's matrix leads with the area payoffs of its curve family.
        area = GameSpec(Target(AUC if kind == ROC_SLICE else AUPRC), train, test)
        _, matrix = game._payoff_matrix(spec, grid)
        np.testing.assert_array_equal(matrix[0], evaluate_all(area).values)


class CountingScorer:
    """GNB behind a record of the (coalitions, size) of each batch it scores."""

    def __init__(self, d):
        self.model = train_gnb(d)
        self.batches = []

    @property
    def coalitions(self):
        return sum(m for m, _ in self.batches)

    def score(self, test, columns):
        self.batches.append(np.shape(columns))
        return self.model.score(test, columns)


class RecordingScorer(CountingScorer):
    """A CountingScorer that also keeps the columns of each batch."""

    def __init__(self, d):
        super().__init__(d)
        self.columns = []

    def score(self, test, columns):
        self.columns.append(np.array(columns))
        return super().score(test, columns)


def count_sweeps(monkeypatch):
    """The number of rows of each curve sweep made from now on, in order."""
    rows = []

    def counted(scores, *args, sweep=curves._batch):
        rows.append(len(scores))
        return sweep(scores, *args)

    monkeypatch.setattr(curves, "_batch", counted)
    return rows


def prefix_masks(perms):
    return {mask for perm in perms
            for mask in itertools.accumulate(1 << int(i) for i in perm)}


def one_mask_at_a_time(engine, perms, row=-1):
    """The sampled estimate's mean marginals from payoff row `row`, one
    `engine.payoffs` call per mask, each coalition scored on its own."""
    gains = np.zeros(engine.spec.n)
    for perm in perms:
        mask, previous = 0, 0.0
        for i in perm:
            mask |= 1 << int(i)
            value = engine.payoffs([mask])[row, 0]
            gains[int(i)] += value - previous
            previous = value
    return gains / len(perms)


@pytest.mark.parametrize("seed", [0, 3])
def test_sampled_prefill_equals_one_mask_at_a_time(seed):
    train, test = coalition_split(seed, [("normal", 0)] * 5 + [("ties", 2)])
    scorers = []

    def fit(d):
        scorers.append(CountingScorer(d))
        return scorers[-1]

    spec = GameSpec(Target.auc(), train, test, fit=fit)
    attr = shapley_sampled(spec, samples=25, seed=seed)
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(spec.n) for _ in range(25)]
    reference = PayoffEngine(GameSpec(Target.auc(), train, test))
    np.testing.assert_array_equal(attr.values, one_mask_at_a_time(reference, perms))
    assert attr.total == 0.5 + reference.payoffs([(1 << spec.n) - 1])[-1, 0]
    assert scorers[0].coalitions == len(prefix_masks(perms))


@pytest.mark.parametrize("seed", [0, 3])
def test_sampled_curve_prefill_equals_one_mask_at_a_time(seed):
    train, test = coalition_split(seed, [("normal", 0)] * 5 + [("ties", 2)])
    scorers = []

    def fit(d):
        scorers.append(CountingScorer(d))
        return scorers[-1]

    target, grid = Target(ROC_SLICE), np.linspace(0.0, 1.0, 6)
    spec = GameSpec(target, train, test, Strategy.PESSIMISTIC, fit=fit)
    ca = shapley_sampled_curve(spec, grid, samples=10, seed=seed)
    reference = PayoffEngine(GameSpec(target, train, test, Strategy.PESSIMISTIC), grid)
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(spec.n) for _ in range(10)]
    for k in range(grid.size):
        np.testing.assert_array_equal(ca.values[:, k], one_mask_at_a_time(reference, perms, 1 + k))
    full = reference.payoffs([(1 << spec.n) - 1])[1:, 0]
    np.testing.assert_array_equal(ca.reference, grid + full)
    assert scorers[0].coalitions == len(prefix_masks(perms))


@pytest.mark.parametrize("size", [2, 11, 101])
def test_sampled_curve_scores_only_the_draws_coalitions(size):
    """Every grid point reads the one draw, so a curve scores the draw's
    distinct prefix coalitions, whatever the grid's size."""
    train, test = coalition_split(4, [("normal", 0)] * 9)
    scorers = []

    def fit(d):
        scorers.append(CountingScorer(d))
        return scorers[-1]

    spec = GameSpec(Target(PRC_SLICE), train, test, Strategy.INTERPOLATION, fit=fit)
    shapley_sampled_curve(spec, default_grid(size), samples=12, seed=5)
    rng = np.random.default_rng(5)
    assert scorers[0].coalitions == len(prefix_masks(rng.permutation(9) for _ in range(12)))


def test_sampled_curve_scores_each_coalition_size_in_one_call(monkeypatch):
    """With batches unbounded, the coalitions of every grid point are scored
    together: one `score` call per coalition size, not per grid point."""
    monkeypatch.setattr(game, "BATCH_FLOATS", 1 << 30)
    train, test = coalition_split(2, [("normal", 0)] * 8)
    scorers = []

    def fit(d):
        scorers.append(CountingScorer(d))
        return scorers[-1]

    spec = GameSpec(Target(ROC_SLICE), train, test, Strategy.INTERPOLATION, fit=fit)
    shapley_sampled_curve(spec, default_grid(), samples=20, seed=0)
    assert len(scorers[0].batches) <= spec.n


def test_sampled_modes_take_more_than_63_features():
    """Masks of 64 or more features do not fit an int64: both sampled modes
    and the grand coalition's payoff must still work on them."""
    train, test = coalition_split(5, [("normal", 0)] * 70)
    full = (1 << 70) - 1
    scorer = CountingScorer(train)
    attr = shapley_sampled(
        GameSpec(Target.auc(), train, test, fit=lambda _: scorer), samples=4, seed=1
    )
    rng = np.random.default_rng(1)
    perms = [rng.permutation(70) for _ in range(4)]
    assert scorer.coalitions == len(prefix_masks(perms))
    reference = PayoffEngine(GameSpec(Target.auc(), train, test))
    np.testing.assert_array_equal(attr.values, one_mask_at_a_time(reference, perms))
    scores = train_gnb(train).score(test)
    assert reference.payoffs([full])[-1, 0] == roc_from_scores(scores, test.labels).auc - 0.5

    target, grid = Target(ROC_SLICE), np.linspace(0.0, 1.0, 3)
    slices = GameSpec(target, train, test, Strategy.INTERPOLATION)
    ca = shapley_sampled_curve(slices, grid, samples=3, seed=2)
    reference = PayoffEngine(slices, grid)
    rng = np.random.default_rng(2)
    perms = [rng.permutation(70) for _ in range(3)]
    for k in range(grid.size):
        np.testing.assert_array_equal(ca.values[:, k], one_mask_at_a_time(reference, perms, 1 + k))
    np.testing.assert_array_equal(ca.reference, grid + reference.payoffs([full])[1:, 0])


def banknote_with_noise(banknote, columns, seed=0):
    """Banknote plus `columns` seeded N(0, 1) noise columns, split as the CLI
    splits it by default (at split seed `seed`): 275 test rows."""
    noise = np.random.default_rng(0).normal(size=(banknote.n_rows, columns))
    wide = cs.Dataset(np.hstack([banknote.features, noise]), banknote.labels,
                      banknote.feature_names + tuple(f"noise{i}" for i in range(columns)))
    return cs.split(wide, cs.SplitSpec(0.8, seed))


def old_posterior_transform(calls):
    """`model._posteriors` as it was before the logistic form, counting its
    calls in the list `calls`."""
    def posteriors(log_joint, log_priors):
        calls.append(log_joint.shape)
        for c in (0, 1):
            log_joint[c] += log_priors[c]
        return logaddexp_posteriors(log_joint[0], log_joint[1])
    return posteriors


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("noise", [0, 12])
def test_old_posterior_transform_gives_the_same_attributions(banknote, monkeypatch, noise, seed):
    """On banknote and banknote plus 12 noise columns, no posterior falls in
    a band where the two transforms order or tie rows differently: the exact
    AUC and AUPRC payoff tables and a 500-sample φ keep every bit."""
    train, test = banknote_with_noise(banknote, noise, seed)

    def games():
        tables = [evaluate_all(GameSpec(t, train, test)).values
                  for t in (Target.auc(), Target.auprc())]
        sampled = shapley_sampled(GameSpec(Target.auc(), train, test), samples=500, seed=seed)
        return [*tables, sampled.values]

    new = games()
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(model, "_posteriors", old_posterior_transform(calls))
        old = games()
    assert {shape[0] for shape in calls} == {2}
    for a, b in zip(new, old):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_underflow_band_ties_opposite_label_rows(monkeypatch):
    """Test rows at log-odds about −720 (positive) and −730 (negative) both
    score exactly 0.0 and tie, where the old transform's subnormal posteriors
    ranked them apart: AUC 0.625, not 0.75."""
    train = cs.Dataset(np.array([[-1.0], [1.0], [9.0], [11.0]]), np.array([0, 0, 1, 1]), ("x",))
    test = cs.Dataset(np.array([[10.0], [0.0], [-67.0], [-68.0]]), np.array([1, 0, 1, 0]),
                      ("x",))
    spec = GameSpec(Target.auc(), train, test)
    assert score(train_gnb(train), test)[2:].tolist() == [0.0, 0.0]
    assert evaluate_all(spec).values.tolist() == [0.0, 0.125]
    with monkeypatch.context() as mp:
        mp.setattr(model, "_posteriors", old_posterior_transform([]))
        assert (score(train_gnb(train), test)[2:] > 0.0).all()
        assert evaluate_all(spec).values.tolist() == [0.0, 0.25]


# Peak traced bytes of one `payoffs` call, in units of the default budget's
# BATCH_FLOATS float64 (512 KiB).  Measured at n=16 on 275 test rows (numpy
# 2.4.6): 0.58 for k=1, 1.42 for k=8 and 0.23 for k=16.  At k=8 the call
# also holds its output and its popcount grouping of 12,870 masks, about
# 17 bytes a mask, which grow with the masks, not the batch; with one Python
# int per mask in per-size lists instead, the peak was 1.89.
BATCH_PEAK_MULTIPLE = 2.5


@pytest.mark.parametrize("k", [1, 8, 16])
def test_batch_memory_is_bounded_by_the_budget(banknote, k):
    """Scoring every coalition of one size peaks under a fixed multiple of
    the default BATCH_FLOATS float64, however wide the coalitions."""
    train, test = banknote_with_noise(banknote, 12)
    assert test.n_rows == 275
    engine = PayoffEngine(GameSpec(Target.auc(), train, test))
    masks = [sum(1 << i for i in c) for c in itertools.combinations(range(16), k)]
    engine.payoffs(masks[:1])      # builds the split's term tables first
    tracemalloc.start()
    try:
        engine.payoffs(masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BATCH_PEAK_MULTIPLE * (1 << 16) * 8


# Peak traced bytes of an exact AUC game at n=14 on 275 test rows, its term
# tables built, beyond its (2^14,) payoff matrix: 1.38 × the default
# BATCH_FLOATS float64 (numpy 2.4.6), and 1.33 at n=16.  The walk holds one
# path of at most n blocks of 2 × 8 × 275 float64 (0.94 of the budget at
# n=14) while a sweep of up to 29 coalitions is read.  The batched path
# peaked at 1.17 (n=14) and 2.25 (n=16).
def test_exact_game_memory_is_the_matrix_and_a_budget(banknote):
    """An exact game of a TrainedModel peaks within its payoff matrix plus a
    fixed multiple of the default BATCH_FLOATS float64."""
    train, test = banknote_with_noise(banknote, 10)
    model = train_gnb(train)
    model.score(test, [0])      # builds the split's term tables first
    spec = GameSpec(Target.auc(), train, test, fit=lambda _: model)
    tracemalloc.start()
    try:
        table = evaluate_all(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.trainings == (1 << 14) - 1
    assert peak < table.values.nbytes + BATCH_PEAK_MULTIPLE * game.BATCH_FLOATS * 8


@pytest.mark.parametrize("noise", [12, 66])
def test_first_score_memory_is_bounded_by_the_tables(banknote, noise):
    """The first `score` call on a test set builds its term tables: its peak
    stays within their n(n+1)/2 × test rows float64 per class plus one
    batch's BATCH_FLOATS float64."""
    train, test = banknote_with_noise(banknote, noise)
    n, rows = train.n_features, test.n_rows
    k = n // 2
    count = max(1, game.BATCH_FLOATS // (rows * (k + game.SWEEP_FLOATS)))
    rng = np.random.default_rng(0)
    batch = np.array([rng.permutation(n)[:k] for _ in range(count)])
    expected = score(train_gnb(train), test, batch)    # a fresh model's bits
    m = train_gnb(train)
    tracemalloc.start()
    try:
        scores = score(m, test, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(scores, expected)
    assert peak < (n * (n + 1) // 2 * rows * 2 + game.BATCH_FLOATS) * 8


def test_one_term_table_per_exact_game(banknote, table_builds):
    """An exact game builds its split's term tables once, however many
    batches it scores."""
    train, test = banknote_with_noise(banknote, 2)
    assert train.n_features == 6
    evaluate_all(GameSpec(Target.auc(), train, test))
    assert table_builds == [test]
    evaluate_slices(GameSpec(Target(ROC_SLICE), train, test, Strategy.INTERPOLATION),
                    default_grid())
    assert table_builds == [test, test]


@pytest.mark.parametrize("kind", [AUC, AUPRC, ROC_SLICE, PRC_SLICE])
def test_points_are_built_only_for_slices(banknote, kind, swept_batches):
    """An exact area game reads every sweep's areas and builds no curve
    points; a slice game builds each sweep's points, for its operating
    points."""
    train, test = banknote_with_noise(banknote, 4)
    spec = GameSpec(Target(kind), train, test, Strategy.INTERPOLATION)
    if kind in (AUC, AUPRC):
        evaluate_all(spec)
    else:
        evaluate_slices(spec, default_grid())
    assert len(swept_batches) > 1
    assert points_built(swept_batches) == (0 if kind in (AUC, AUPRC) else len(swept_batches))


def test_wide_coalitions_share_a_batch(banknote):
    """On 70 features and 275 test rows, coalitions of 30 or more features
    are batched by the floats a batch holds, not one per `score` call."""
    train, test = banknote_with_noise(banknote, 66)
    scorer = CountingScorer(train)
    engine = PayoffEngine(GameSpec(Target.auc(), train, test, fit=lambda _: scorer))
    sizes = range(30, 71)
    # Two masks of each size: its lowest and its highest k features.
    engine.payoffs([mask for k in sizes for mask in ((1 << k) - 1, (1 << 70) - (1 << 70 - k))])
    assert scorer.batches == [(2, k) for k in sizes]


def test_an_unallocatable_lattice_is_a_data_error(banknote):
    """The lattice is in range by construction, so its masks are not walked
    for their bounds: at 62 features numpy's refusal of the payoff array is
    the error, at once."""
    train, test = banknote_with_noise(banknote, 58)
    engine = PayoffEngine(GameSpec(Target.auc(), train, test))
    with pytest.raises(errors.DataError, match="cannot allocate 1 payoff rows .*too big"):
        engine.payoffs(range(1 << 62))


def degenerate_masks(run):
    """The coalition masks named by the DegenerateCurveWarnings of `run()`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return [int(str(w.message).split()[1], 16)
            for w in caught if issubclass(w.category, DegenerateCurveWarning)]


@pytest.mark.parametrize("batch_floats", [1, 1 << 14, game.BATCH_FLOATS])
def test_one_warning_per_degenerate_coalition(banknote_split, batch_floats, monkeypatch):
    """Coalitions holding `variance` score NaN: 8 of the 15, each warned once."""
    monkeypatch.setattr(game, "BATCH_FLOATS", batch_floats)
    train, test = banknote_split
    with_variance = [mask for mask in range(16) if mask & 1]
    area = GameSpec(Target.auc(), train, test, fit=fit_nan_with_variance)
    assert sorted(degenerate_masks(lambda: evaluate_all(area))) == with_variance
    grid = GameSpec(Target(ROC_SLICE), train, test, Strategy.INTERPOLATION,
                    fit=fit_nan_with_variance)
    assert sorted(degenerate_masks(
        lambda: evaluate_slices(grid, np.linspace(0.0, 1.0, 5)))) == with_variance


def test_overflowing_column_warns_only_of_degenerate_coalitions(banknote):
    """Skewness scaled by 1e200 is finite, but its squares overflow: the 8
    coalitions holding it score non-finite and are warned of, each once, and
    numpy raises no RuntimeWarning."""
    features = banknote.features.copy()
    features[:, banknote.feature_names.index("skewness")] *= 1e200
    huge = cs.Dataset(features, banknote.labels, banknote.feature_names)
    train, test = cs.split(huge, cs.SplitSpec(0.8, 0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evaluate_all(GameSpec(Target.auc(), train, test))
    assert [w.category for w in caught] == [DegenerateCurveWarning] * 8
    assert sorted(int(str(w.message).split()[1], 16) for w in caught) == [
        mask for mask in range(16) if mask & 0b10
    ]


def overflowing_banknote(banknote):
    """Banknote with `skewness` scaled by 1e200: the coalitions holding it
    score non-finite."""
    features = banknote.features.copy()
    features[:, banknote.feature_names.index("skewness")] *= 1e200
    return cs.Dataset(features, banknote.labels, banknote.feature_names)


@pytest.mark.parametrize("caller", ["evaluate_all", "shapley_sampled", "mc_attributions"])
def test_degenerate_warnings_name_the_callers_line(banknote, caller):
    """Whichever path through the package reaches the warning, it names the
    first line outside the package that led to it."""
    huge = overflowing_banknote(banknote)
    train, test = cs.split(huge, cs.SplitSpec(0.8, 0))
    spec = GameSpec(Target.auc(), train, test)
    run = {
        "evaluate_all": lambda: evaluate_all(spec),
        "shapley_sampled": lambda: shapley_sampled(spec, samples=20, seed=0),
        "mc_attributions": lambda: cs.mc_attributions(huge, cs.McConfig(2), Target.auc()),
    }[caller]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    assert caught and {w.category for w in caught} == {DegenerateCurveWarning}
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, run.__code__.co_firstlineno)}


@pytest.mark.parametrize("target, error", [
    (Target.auc(), errors.SingleClassLabels), (Target.auprc(), errors.NoPositiveLabels),
], ids=["auc", "auprc"])
def test_single_class_test_set_is_refused_when_the_engine_is_built(banknote_split, target,
                                                                    error):
    """Dataset refuses one label class, so the test set is forced to one.  The
    engine checks the labels when it is built, before it fits a model."""
    train, test = banknote_split
    negatives = cs.Dataset(test.features, test.labels, test.feature_names)
    object.__setattr__(negatives, "labels", np.zeros_like(test.labels))
    fits = []
    with pytest.raises(error):
        evaluate_all(GameSpec(target, train, negatives, fit=fits.append))
    assert fits == []


def test_exact_game_checks_its_test_labels_once(banknote, monkeypatch):
    """Every label check reads `test.labels`.  An exact AUC game at n = 12
    makes 171 sweeps and reads the labels once, when its engine is built."""
    train, test = banknote_with_noise(banknote, 8)
    reads = []

    class CountingReads(cs.Dataset):
        def __getattribute__(self, name):
            if name == "labels":
                reads.append(name)
            return super().__getattribute__(name)

    counted = CountingReads(test.features, test.labels, test.feature_names)
    reads.clear()       # the reads that checked the dataset itself
    sweeps = count_sweeps(monkeypatch)
    evaluate_all(GameSpec(Target.auc(), train, counted))
    assert len(sweeps) == 171
    assert len(reads) == 1


@pytest.mark.parametrize("kind", [AUC, AUPRC, ROC_SLICE, PRC_SLICE])
def test_small_exact_game_sweeps_once(banknote_split, kind, monkeypatch):
    """At the default budget the 15 coalitions of banknote are scored one size
    per `score` call and swept together, on the default grid too."""
    train, test = banknote_split
    sweeps, scorer = count_sweeps(monkeypatch), CountingScorer(train)
    spec = GameSpec(Target(kind), train, test, Strategy.INTERPOLATION, fit=lambda _: scorer)
    if kind in (AUC, AUPRC):
        evaluate_all(spec)
    else:
        evaluate_slices(spec, default_grid())
    assert sweeps == [15]
    assert scorer.batches == [(4, 1), (6, 2), (4, 3), (1, 4)]


@pytest.mark.parametrize("kind", [AUC, AUPRC, ROC_SLICE, PRC_SLICE])
def test_small_exact_walk_game_sweeps_once(banknote_split, kind, swept_batches):
    """The walk's blocks of banknote's 15 coalitions are swept at once too,
    on the default grid as well."""
    train, test = banknote_split
    spec = GameSpec(Target(kind), train, test, Strategy.INTERPOLATION)
    if kind in (AUC, AUPRC):
        evaluate_all(spec)
    else:
        evaluate_slices(spec, default_grid())
    assert [len(batch.ranked) for batch in swept_batches] == [15]


def test_merged_sweeps_keep_the_score_batches(banknote, monkeypatch):
    """Sweeping several chunks at once changes no `score` call: each size's
    coalitions are scored in chunks of
    BATCH_FLOATS // (test rows × (k + SWEEP_FLOATS)), in the order in which
    one coalition per call scores them."""
    train, test = banknote_with_noise(banknote, 4)
    default = game.BATCH_FLOATS

    def run(batch_floats):
        monkeypatch.setattr(game, "BATCH_FLOATS", batch_floats)
        scorer = RecordingScorer(train)
        evaluate_all(GameSpec(Target.auc(), train, test, fit=lambda _: scorer))
        return scorer

    sweeps = count_sweeps(monkeypatch)
    merged = run(default)
    chunks = []
    for k in range(1, 9):
        size, step = math.comb(8, k), default // (test.n_rows * (k + game.SWEEP_FLOATS))
        chunks += [(min(step, size - start), k) for start in range(0, size, step)]
    assert merged.batches == chunks
    assert len(sweeps) < len(chunks)
    assert sum(sweeps) == 255
    single = run(1)
    assert single.batches == [(1, k) for k in range(1, 9) for _ in range(math.comb(8, k))]
    assert ([row for c in merged.columns for row in c.tolist()]
            == [row for c in single.columns for row in c.tolist()])


def test_degenerate_warnings_follow_ascending_sizes(banknote_split):
    """Degenerate coalitions are warned of by size, ascending, each size's
    masks in the order given."""
    train, test = banknote_split
    engine = PayoffEngine(GameSpec(Target.auc(), train, test, fit=fit_nan))
    masks = [0b0011, 0, 0b0100, 0b0101, 0b1111, 0b0001, 0b0011]
    assert degenerate_masks(lambda: engine.payoffs(masks)) == [
        0b0100, 0b0001, 0b0011, 0b0101, 0b0011, 0b1111,
    ]


def test_packed_groups_consecutive_items_under_the_budget():
    """Items are grouped in order while their sizes fit the budget: an exact
    fit is one block, and an item that alone does not fit is a block of its
    own."""
    assert list(game.packed([], len, 4)) == []
    assert list(game.packed(["ab", "cd"], len, 4)) == [["ab", "cd"]]
    assert list(game.packed(["abc", "de", "f"], len, 4)) == [["abc"], ["de", "f"]]
    assert list(game.packed(["a", "bcdef", "g", "h"], len, 4)) == [["a"], ["bcdef"], ["g", "h"]]


def test_packed_hands_on_a_full_block_before_drawing_the_next_item():
    """A block that reaches the budget is handed on at once, so no finished
    block waits while the next item is made."""
    drawn = []

    def items():
        for item in ["ab", "cd", "e", "fghij", "k"]:
            drawn.append(item)
            yield item

    blocks = game.packed(items(), len, 4)
    assert next(blocks) == ["ab", "cd"]
    assert drawn == ["ab", "cd"]
    assert next(blocks) == ["e"]
    assert next(blocks) == ["fghij"]
    assert drawn == ["ab", "cd", "e", "fghij"]
    assert list(blocks) == [["k"]]
