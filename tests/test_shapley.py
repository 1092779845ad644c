import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curveshap as cs
from curveshap import errors
from curveshap.curves import Strategy, default_grid
from curveshap.game import (
    PRC_SLICE,
    ROC_SLICE,
    GameSpec,
    PayoffTable,
    Target,
    evaluate_all,
    evaluate_slices,
)
from curveshap import shapley
from curveshap.shapley import (
    Attribution,
    auc_roc_consistency,
    shapley_curve,
    shapley_exact,
    shapley_sampled,
    shapley_sampled_curve,
)
from curveshap.uncertainty import McConfig, mc_bands

from conftest import make_blobs
from oracles import random_game, shapley_all_permutations


def table_from_dict(payoffs, n, names=None):
    names = names or tuple(f"f{i}" for i in range(n))
    return PayoffTable(n, payoffs, Target.auc(), None, names, 0)


@pytest.fixture(scope="module")
def banknote_auc_table(banknote_split):
    train, test = banknote_split
    return evaluate_all(GameSpec(Target.auc(), train, test))


@pytest.fixture(scope="module")
def roc_tables(banknote_split):
    train, test = banknote_split
    spec = GameSpec(
        Target.roc_slice(0.0), train, test, strategy=Strategy.INTERPOLATION
    )
    return evaluate_slices(spec, default_grid())


class TestExact:
    def test_two_player_hand_values(self):
        t = table_from_dict({0b00: 0.0, 0b01: 0.2, 0b10: 0.1, 0b11: 0.4}, 2)
        attr = shapley_exact(t)
        np.testing.assert_allclose(attr.values, [0.25, 0.15])
        assert attr.baseline == 0.5
        assert attr.total == pytest.approx(0.9)

    def test_null_player(self):
        # feature 1 never changes any payoff
        t = table_from_dict({0b00: 0.0, 0b01: 0.3, 0b10: 0.0, 0b11: 0.3}, 2)
        attr = shapley_exact(t)
        assert attr.values[1] == 0.0
        assert attr.values[0] == pytest.approx(0.3)

    def test_incomplete_table(self):
        # completeness is enforced when the table is built
        with pytest.raises(errors.IncompleteTable):
            table_from_dict({0b00: 0.0, 0b01: 0.2}, 2)

    def test_efficiency_on_banknote(self, banknote_auc_table):
        attr = shapley_exact(banknote_auc_table)
        grand = banknote_auc_table[banknote_auc_table.full_mask]
        assert abs(attr.values.sum() - grand) < 1e-9
        assert attr.total == pytest.approx(0.5 + grand)

    def test_by_name(self, banknote_auc_table):
        attr = shapley_exact(banknote_auc_table)
        assert attr.by_name("variance") == attr.values[0]
        with pytest.raises(ValueError):
            attr.by_name("nope")


@settings(max_examples=60)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 5), points=st.integers(1, 5))
def test_exact_matches_all_permutation_oracle(seed, n, points):
    """Both shapley_exact and one shapley_curve over a stack of tables."""
    rng = np.random.default_rng(seed)
    games = [random_game(rng, n) for _ in range(points)]
    names = tuple(f"f{i}" for i in range(n))
    tables = [
        PayoffTable(n, payoffs, Target.roc_slice(k / 5), None, names, 0)
        for k, payoffs in enumerate(games)
    ]
    curve = shapley_curve(tables)
    for k, payoffs in enumerate(games):
        expected = shapley_all_permutations(payoffs, n)
        np.testing.assert_allclose(shapley_exact(tables[k]).values, expected, atol=1e-12)
        np.testing.assert_allclose(curve.values[:, k], expected, atol=1e-12)


@settings(max_examples=30)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 5))
def test_symmetric_players_get_equal_shares(seed, n):
    """Interchangeable players receive identical attributions."""
    rng = np.random.default_rng(seed)
    payoffs = random_game(rng, n)
    # make players 0 and 1 symmetric by symmetrizing the payoff function
    if n >= 2:
        symmetric = {}
        for mask, v in payoffs.items():
            swapped = (mask & ~0b11) | ((mask & 0b01) << 1) | ((mask & 0b10) >> 1)
            symmetric[mask] = 0.5 * (v + payoffs[swapped])
        symmetric[0] = 0.0
        attr = shapley_exact(table_from_dict(symmetric, n))
        assert abs(attr.values[0] - attr.values[1]) < 1e-9


class TestSampled:
    def test_exhaustive_permutations_equal_exact(self, blobs):
        train, test = cs.split(blobs, cs.SplitSpec(0.7, 1))
        spec = GameSpec(Target.auc(), train, test)
        n = spec.n
        exact = shapley_exact(evaluate_all(spec))
        sampled = shapley_sampled(
            spec, samples=factorial(n), seed=0, without_replacement=True
        )
        np.testing.assert_allclose(sampled.values, exact.values, atol=1e-12)

    def test_single_sample_efficiency(self, banknote_split):
        train, test = banknote_split
        spec = GameSpec(Target.auc(), train, test)
        attr = shapley_sampled(spec, samples=1, seed=11)
        assert abs(attr.total - attr.baseline - attr.values.sum()) < 1e-12

    def test_deterministic_per_seed(self, banknote_split):
        train, test = banknote_split
        spec = GameSpec(Target.auc(), train, test)
        a = shapley_sampled(spec, samples=50, seed=3)
        b = shapley_sampled(spec, samples=50, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        c = shapley_sampled(spec, samples=50, seed=4)
        assert not np.array_equal(a.values, c.values)

    def test_rmse_decreases_with_samples(self):
        rng = np.random.default_rng(12)
        d = make_blobs(rng, n_rows=120, n_features=4, informative=2)
        train, test = cs.split(d, cs.SplitSpec(0.7, 2))
        spec = GameSpec(Target.auc(), train, test)
        exact = shapley_exact(evaluate_all(spec)).values

        def rmse(samples):
            est = shapley_sampled(spec, samples=samples, seed=5).values
            return float(np.sqrt(np.mean((est - exact) ** 2)))

        assert rmse(10_000) < rmse(100)

    def test_rejects_zero_samples(self, banknote_split):
        train, test = banknote_split
        spec = GameSpec(Target.auc(), train, test)
        with pytest.raises(errors.DataError):
            shapley_sampled(spec, samples=0, seed=0)

    def test_rejects_a_game_without_features_before_drawing(self, banknote_split):
        """(10^15, 0) permutations take no memory, so only this check stops
        the draw of 10^15 empty rows."""
        train, test = (cs.Dataset(d.features[:, :0], d.labels, ()) for d in banknote_split)
        spec = GameSpec(Target.auc(), train, test)
        with pytest.raises(errors.DataError, match="no features"):
            shapley_sampled(spec, samples=10 ** 15, seed=0)


class TestCurve:
    def test_grid_assembly(self, roc_tables):
        curve = shapley_curve(roc_tables)
        assert curve.values.shape == (4, 101)
        assert curve.abscissae[0] == 0.0 and curve.abscissae[-1] == 1.0
        assert curve.kind == "roc_slice"

    def test_single_point_matches_exact(self, roc_tables):
        curve = shapley_curve(roc_tables[20:21])
        exact = shapley_exact(roc_tables[20])
        np.testing.assert_array_equal(curve.values[:, 0], exact.values)
        assert curve.reference[0] == exact.total

    def test_efficiency_at_every_point(self, roc_tables):
        curve = shapley_curve(roc_tables)
        gap = curve.values.sum(axis=0) - (curve.reference - curve.baselines)
        assert np.max(np.abs(gap)) < 1e-9

    def test_right_endpoint_sums_to_zero(self, roc_tables):
        curve = shapley_curve(roc_tables[-1:])
        assert abs(curve.values[:, 0].sum()) < 1e-9

    def test_series_lookup(self, roc_tables):
        curve = shapley_curve(roc_tables)
        np.testing.assert_array_equal(curve.series("variance"), curve.values[0])

    def test_mixed_tables_rejected(self, roc_tables, banknote_split):
        train, test = banknote_split
        prc = evaluate_slices(
            GameSpec(
                Target.prc_slice(0.5), train, test, strategy=Strategy.INTERPOLATION
            ),
            np.array([0.5]),
        )
        with pytest.raises(errors.DataError):
            shapley_curve([roc_tables[0], prc[0]])

    def test_sampled_curve_matches_shape(self, banknote_split):
        train, test = banknote_split
        spec = GameSpec(
            Target.roc_slice(0.0), train, test, strategy=Strategy.INTERPOLATION
        )
        grid = np.linspace(0.0, 1.0, 11)
        curve = shapley_sampled_curve(spec, grid, samples=24, seed=0)
        assert curve.values.shape == (4, 11)
        gap = curve.values.sum(axis=0) - (curve.reference - curve.baselines)
        assert np.max(np.abs(gap)) < 1e-9

    @pytest.mark.parametrize("kind", ["roc_slice", "prc_slice"])
    def test_sampled_curve_matches_scalar_path(self, banknote_split, kind):
        """Grid point k of the sampled curve is the scalar sampled game at
        grid[k] with the same seed, to the last bit, under every strategy."""
        train, test = banknote_split
        grid = np.linspace(0.0, 1.0, 6)
        seed = 7
        for strategy in Strategy:
            spec = GameSpec(Target(kind), train, test, strategy=strategy)
            curve = shapley_sampled_curve(spec, grid, samples=15, seed=seed)
            for k, q in enumerate(grid):
                point = GameSpec(Target(kind, float(q)), train, test, strategy)
                attr = shapley_sampled(point, samples=15, seed=seed)
                np.testing.assert_array_equal(curve.values[:, k], attr.values)
                assert curve.reference[k] == attr.total


class TestConsistency:
    def test_banknote_discrepancy_small(self, banknote_split, banknote_auc_table):
        train, test = banknote_split
        area = shapley_exact(banknote_auc_table)
        spec = GameSpec(
            Target.roc_slice(0.0), train, test, strategy=Strategy.INTERPOLATION
        )
        curve = shapley_curve(evaluate_slices(spec, default_grid()))
        disc = auc_roc_consistency(area, curve)
        assert disc.shape == (4,)
        assert (disc <= 0.02).all()

    def test_single_feature_closed_form(self, banknote_split):
        train, test = banknote_split
        train1, test1 = cs.project(train, [0]), cs.project(test, [0])
        area = shapley_exact(evaluate_all(GameSpec(Target.auc(), train1, test1)))
        spec = GameSpec(
            Target.roc_slice(0.0), train1, test1, strategy=Strategy.INTERPOLATION
        )
        curve = shapley_curve(evaluate_slices(spec, default_grid()))
        disc = auc_roc_consistency(area, curve)
        # n=1: the φ series IS the curve minus the diagonal; only grid error remains
        assert disc[0] <= 0.01

    def test_zero_game_has_zero_discrepancy(self):
        names = ("a",)
        area = Attribution(names, np.zeros(1), 0.5, 0.5, Target.auc())
        grid = default_grid()
        curve = cs.CurveAttribution(
            names,
            grid,
            np.zeros((1, grid.size)),
            grid.copy(),
            grid.copy(),
            "roc_slice",
        )
        np.testing.assert_array_equal(auc_roc_consistency(area, curve), [0.0])

    def test_matched_pr_pair_is_consistent(self, banknote_split):
        """AUPRC attributions are the recall integral of PRC-slice ones:
        ∫(precision − 0.5) drecall = AUPRC − 0.5."""
        train, test = banknote_split
        area = shapley_exact(evaluate_all(GameSpec(Target.auprc(), train, test)))
        spec = GameSpec(Target(PRC_SLICE), train, test, Strategy.INTERPOLATION)
        curve = shapley_curve(evaluate_slices(spec, default_grid()))
        assert (auc_roc_consistency(area, curve) <= 1e-3).all()

    @pytest.mark.parametrize("area_kind, curve_kind", [
        ("auc", PRC_SLICE), ("auprc", ROC_SLICE),
    ])
    def test_mismatched_curve_family_rejected(self, banknote_split, area_kind, curve_kind):
        """An area and a curve of different families are not an identity:
        AUC against PRC slices gives gaps of 0.01-0.03 that mean nothing."""
        train, test = banknote_split
        area = shapley_exact(evaluate_all(GameSpec(Target(area_kind), train, test)))
        spec = GameSpec(Target(curve_kind), train, test, Strategy.INTERPOLATION)
        curve = shapley_curve(evaluate_slices(spec, default_grid()))
        with pytest.raises(errors.DataError, match="do not integrate"):
            auc_roc_consistency(area, curve)

    def test_grid_too_coarse(self, banknote_split):
        train, test = banknote_split
        area = shapley_exact(evaluate_all(GameSpec(Target.auc(), train, test)))
        spec = GameSpec(
            Target.roc_slice(0.0), train, test, strategy=Strategy.INTERPOLATION
        )
        curve = shapley_curve(evaluate_slices(spec, np.linspace(0, 1, 5)))
        with pytest.raises(errors.GridTooCoarse):
            auc_roc_consistency(area, curve)


class TestProperties:
    def test_null_player_constant_feature(self, banknote_split):
        train, test = banknote_split
        pad_train = cs.Dataset(
            np.hstack([train.features, np.full((train.n_rows, 1), 2.5)]),
            train.labels,
            train.feature_names + ("pad",),
        )
        pad_test = cs.Dataset(
            np.hstack([test.features, np.full((test.n_rows, 1), 2.5)]),
            test.labels,
            test.feature_names + ("pad",),
        )
        attr = shapley_exact(evaluate_all(GameSpec(Target.auc(), pad_train, pad_test)))
        assert abs(attr.by_name("pad")) <= 1e-6

    def test_duplicate_feature_symmetry(self, banknote_split):
        train, test = banknote_split
        dup_train = cs.duplicate_feature(train, 0, "variance_copy")
        dup_test = cs.duplicate_feature(test, 0, "variance_copy")
        attr = shapley_exact(evaluate_all(GameSpec(Target.auc(), dup_train, dup_test)))
        assert abs(attr.by_name("variance") - attr.by_name("variance_copy")) < 1e-9

    def test_attribution_rejects_inefficiency(self):
        with pytest.raises(errors.DataError):
            Attribution(("a",), np.array([0.2]), 0.5, 0.9, Target.auc())


def test_exact_slice_game_memory_is_about_one_payoff_matrix():
    """The exact slice game at n=12 on the 101-point grid peaks near the bytes
    of its one (1 + 101, 2^12) payoff matrix: no per-coalition rows and no
    stacked copy of the whole grid (a memo, a stack and a second stack in
    `shapley_curve` used to peak at about 4 such matrices)."""
    d = make_blobs(np.random.default_rng(0), n_rows=80, n_features=12, informative=6)
    train = cs.Dataset(d.features[:40], d.labels[:40], d.feature_names)
    test = cs.Dataset(d.features[40:], d.labels[40:], d.feature_names)
    spec = GameSpec(Target(ROC_SLICE), train, test, Strategy.INTERPOLATION)
    tracemalloc.start()
    try:
        shapley_curve(evaluate_slices(spec, default_grid()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * (1 + 101) * 4096 * 8


def test_shapley_map_solves_each_row_alone_in_chunks(monkeypatch):
    """Chunked solves of an array or a list of rows give every row the bits
    of a one-row solve."""
    payoffs = np.random.default_rng(3).normal(size=(10, 1 << 5))
    alone = np.column_stack([shapley._shapley_map(row[np.newaxis]) for row in payoffs])
    monkeypatch.setattr(shapley, "SOLVE_FLOATS", 3 << 5)      # chunks of 3, 3, 3, 1
    assert np.array_equal(shapley._shapley_map(payoffs), alone)
    assert np.array_equal(shapley._shapley_map(list(payoffs)), alone)


def test_shapley_map_memory_is_bounded_by_the_chunk():
    """Solving a (102, 2^12) payoff matrix, as one Monte-Carlo iteration of
    `uncertainty --slices` does at n=12, peaks at a few chunks of
    SOLVE_FLOATS payoffs, well below the matrix's own 3.3 MB."""
    matrix = np.random.default_rng(0).normal(size=(102, 1 << 12))
    tracemalloc.start()
    try:
        shapley._shapley_map(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * shapley.SOLVE_FLOATS * 8 < matrix.nbytes


def test_sampled_reader_memory_is_bounded_by_the_chunk(banknote_split):
    """Reading 2,000 permutations at every point of the 101-point grid peaks,
    beyond the payoff matrix, at a few chunks of SOLVE_FLOATS payoffs, well
    below the 13 MB of gathered prefix payoffs and gains that one gather of
    all (2,000 × 4 × 102) would hold."""
    train, test = banknote_split
    spec = GameSpec(Target(ROC_SLICE), train, test, Strategy.INTERPOLATION)
    perms = shapley._permutations(spec.n, 2000, 0)
    tracemalloc.start()
    try:
        _, values, full = shapley._mean_marginals(spec, default_grid(), perms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = values.shape[1] * (1 << spec.n) * 8     # at most every coalition's row
    assert peak - matrix < 4 * shapley.SOLVE_FLOATS * 8 < 2 * 2000 * spec.n * 102 * 8


def test_sampled_reads_in_chunks_keep_their_bits(banknote_split, monkeypatch):
    """Reading the draw a few permutations at a time adds each feature's
    marginals in the same order as reading it at once."""
    train, test = banknote_split
    spec = GameSpec(Target(ROC_SLICE), train, test, Strategy.PESSIMISTIC)
    grid = np.linspace(0.0, 1.0, 6)
    whole = shapley_sampled_curve(spec, grid, samples=25, seed=1)
    # 7 payoff rows (the area and 6 slices) of 5 prefixes: 3 permutations a chunk.
    monkeypatch.setattr(shapley, "SOLVE_FLOATS", 3 * 7 * 5)
    chunked = shapley_sampled_curve(spec, grid, samples=25, seed=1)
    np.testing.assert_array_equal(chunked.values, whole.values)


def test_curve_attributions_leave_the_callers_grid_writable(banknote):
    """A curve attribution holds read-only copies, not the caller's grid."""
    train, test = cs.split(banknote, cs.SplitSpec(0.8, 0))
    spec = GameSpec(Target(ROC_SLICE), train, test, Strategy.INTERPOLATION)
    grid = np.linspace(0.0, 1.0, 5)
    shapley_sampled_curve(spec, grid, samples=3, seed=0)
    mc_bands(banknote, McConfig(iterations=2, grid=grid), "roc", [Target(ROC_SLICE)])
    grid[0] = 0.0

