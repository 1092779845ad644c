import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curveshap as cs
from curveshap import errors
from curveshap.curves import (
    PrCurve,
    RocCurve,
    Strategy,
    default_grid,
    estimate_precision,
    estimate_tpr,
    pr_batch,
    pr_from_scores,
    roc_batch,
    roc_from_scores,
    trapezoid,
)

from oracles import auc_rank_statistic, bracket_value, in_order_sum, stable_sweep_curve

STRATEGIES = tuple(Strategy)


def scores_with_ties(draw_seed):
    rng = np.random.default_rng(draw_seed)
    n = int(rng.integers(4, 40))
    scores = np.round(rng.random(n), 1)  # coarse rounding forces ties
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return scores, labels


class TestRoc:
    def test_perfect_separation_points(self):
        c = roc_from_scores([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        np.testing.assert_allclose(
            c.points,
            [(0, 0), (0, 0.5), (0, 1), (0.5, 1), (1, 1)],
        )
        assert c.auc == 1.0

    def test_all_tied_scores_collapse_to_diagonal(self):
        c = roc_from_scores([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        np.testing.assert_allclose(c.points, [(0, 0), (1, 1)])
        assert c.auc == 0.5

    def test_three_quarters(self):
        c = roc_from_scores([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert abs(c.auc - 0.75) < 1e-12

    def test_endpoints_and_monotonicity(self, blobs):
        m = cs.train_gnb(blobs)
        c = roc_from_scores(m.score(blobs), blobs.labels)
        assert (c.fpr[0], c.tpr[0]) == (0.0, 0.0)
        assert (c.fpr[-1], c.tpr[-1]) == (1.0, 1.0)
        assert (np.diff(c.fpr) >= 0).all()
        assert (np.diff(c.tpr) >= 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(errors.SingleClassLabels):
            roc_from_scores([0.1, 0.2], [1, 1])

    def test_auc_is_trapezoid_of_points(self, blobs):
        c = roc_from_scores(cs.train_gnb(blobs).score(blobs), blobs.labels)
        assert abs(c.auc - trapezoid(c.tpr, c.fpr)) < 1e-12


class TestPr:
    def test_perfect_separation(self):
        c = pr_from_scores([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        points = {tuple(p) for p in c.points}
        assert (0.5, 1.0) in points
        assert (1.0, 1.0) in points
        assert abs(c.auprc - 1.0) < 1e-12

    def test_anti_scores_full_recall_precision_is_prevalence(self):
        c = pr_from_scores([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert c.recall[-1] == 1.0
        assert abs(c.precision[-1] - 0.5) < 1e-12

    def test_single_positive_ranked_first(self):
        c = pr_from_scores([0.9, 0.5, 0.4], [1, 0, 0])
        assert (1.0, 1.0) in {tuple(p) for p in c.points}

    def test_left_endpoint_prepended(self):
        c = pr_from_scores([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        assert c.recall[0] == 0.0
        assert c.precision[0] == c.precision[1]

    def test_no_positive_rejected(self):
        with pytest.raises(errors.NoPositiveLabels):
            pr_from_scores([0.1, 0.2], [0, 0])

    def test_recall_ascending(self, blobs):
        c = pr_from_scores(cs.train_gnb(blobs).score(blobs), blobs.labels)
        assert (np.diff(c.recall) >= 0).all()
        assert abs(c.auprc - trapezoid(c.precision, c.recall)) < 1e-12


class TestEstimateTpr:
    def curve(self):
        fpr = np.array([0.0, 0.1, 0.3, 1.0])
        tpr = np.array([0.0, 0.6, 0.9, 1.0])
        return RocCurve(fpr, tpr, trapezoid(tpr, fpr))

    def test_bracket_strategies(self):
        c = self.curve()
        assert estimate_tpr(c, 0.2, Strategy.INTERPOLATION) == pytest.approx(0.75)
        assert estimate_tpr(c, 0.2, Strategy.OPTIMISTIC) == 0.9
        assert estimate_tpr(c, 0.2, Strategy.PESSIMISTIC) == 0.6

    def test_exact_hit_is_strategy_free(self):
        c = self.curve()
        for s in STRATEGIES:
            assert estimate_tpr(c, 0.3, s) == 0.9

    def test_query_zero_on_vertical_segment(self):
        # perfect classifier: several points share fpr == 0
        c = roc_from_scores([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        assert estimate_tpr(c, 0.0, Strategy.PESSIMISTIC) == 0.0
        assert estimate_tpr(c, 0.0, Strategy.OPTIMISTIC) == 1.0
        assert estimate_tpr(c, 0.0, Strategy.INTERPOLATION) == 0.5

    def test_query_one(self):
        c = self.curve()
        for s in STRATEGIES:
            assert estimate_tpr(c, 1.0, s) == 1.0


class TestEstimatePrecision:
    def curve(self):
        recall = np.array([0.0, 0.4, 0.6, 1.0])
        precision = np.array([0.9, 0.9, 0.7, 0.5])
        return PrCurve(recall, precision, trapezoid(precision, recall))

    def test_interpolation(self):
        assert estimate_precision(
            self.curve(), 0.5, Strategy.INTERPOLATION
        ) == pytest.approx(0.8)

    def test_exact_hit(self):
        for s in STRATEGIES:
            assert estimate_precision(self.curve(), 0.6, s) == 0.7

    def test_clamp_below_span(self):
        # span starts at recall 0.2 here; queries below clamp to it
        recall = np.array([0.2, 0.6, 1.0])
        precision = np.array([0.9, 0.7, 0.5])
        c = PrCurve(recall, precision, trapezoid(precision, recall))
        for s in STRATEGIES:
            assert estimate_precision(c, 0.05, s) == 0.9


class TestArrayQueries:
    def test_array_matches_scalar_queries(self):
        # tied scores collapse into one step; the two top positives make a
        # vertical segment, i.e. a repeated fpr abscissa of 0
        scores = [0.9, 0.85, 0.6, 0.6, 0.6, 0.3, 0.3, 0.1]
        labels = [1, 1, 0, 1, 0, 1, 0, 0]
        roc = roc_from_scores(scores, labels)
        assert roc.fpr[1] == roc.fpr[2] == 0.0
        # a PR span that starts at recall 0.2, so some queries lie below it
        recall = np.array([0.2, 0.6, 0.6, 1.0])
        precision = np.array([0.9, 0.7, 0.8, 0.5])
        pr = PrCurve(recall, precision, trapezoid(precision, recall))
        queries = np.concatenate([[-0.5, 0.05, 0.2], default_grid(), roc.fpr, [1.5]])
        for s in STRATEGIES:
            np.testing.assert_array_equal(
                estimate_tpr(roc, queries, s),
                [estimate_tpr(roc, float(q), s) for q in queries],
            )
            np.testing.assert_array_equal(
                estimate_precision(pr, queries, s),
                [estimate_precision(pr, float(q), s) for q in queries],
            )


class TestGrid:
    def test_default_is_101_points(self):
        g = default_grid()
        assert g.shape == (101,)
        assert g[0] == 0.0 and g[-1] == 1.0
        np.testing.assert_allclose(np.diff(g), 0.01)

    def test_too_small(self):
        with pytest.raises(errors.DataError):
            default_grid(1)


@settings(max_examples=120)
@given(seed=st.integers(0, 100_000))
def test_auc_matches_rank_statistic(seed):
    scores, labels = scores_with_ties(seed)
    c = roc_from_scores(scores, labels)
    assert abs(c.auc - auc_rank_statistic(scores, labels)) < 1e-12


@settings(max_examples=60)
@given(seed=st.integers(0, 100_000), query=st.floats(0.0, 1.0))
def test_strategy_ordering(seed, query):
    scores, labels = scores_with_ties(seed)
    c = roc_from_scores(scores, labels)
    pess = estimate_tpr(c, query, Strategy.PESSIMISTIC)
    interp = estimate_tpr(c, query, Strategy.INTERPOLATION)
    opt = estimate_tpr(c, query, Strategy.OPTIMISTIC)
    assert pess <= interp <= opt


@settings(max_examples=60)
@given(seed=st.integers(0, 100_000), query=st.floats(0.0, 1.0))
def test_strategy_ordering_pr(seed, query):
    scores, labels = scores_with_ties(seed)
    c = pr_from_scores(scores, labels)
    pess = estimate_precision(c, query, Strategy.PESSIMISTIC)
    interp = estimate_precision(c, query, Strategy.INTERPOLATION)
    opt = estimate_precision(c, query, Strategy.OPTIMISTIC)
    assert pess <= interp <= opt


@settings(max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_interpolation_reproduces_knots(seed):
    scores, labels = scores_with_ties(seed)
    c = roc_from_scores(scores, labels)
    distinct = np.flatnonzero(np.append(True, c.fpr[1:] != c.fpr[:-1]))
    for i in distinct:
        x = float(c.fpr[i])
        run = c.tpr[c.fpr == x]
        expected = float(c.tpr[i]) if run.size == 1 else 0.5 * (run[0] + run[-1])
        assert estimate_tpr(c, x, Strategy.INTERPOLATION) == pytest.approx(expected)


@settings(max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_monotone_transform_invariance(seed):
    scores, labels = scores_with_ties(seed)
    base = roc_from_scores(scores, labels)
    for transformed in (3.0 * scores + 2.0, np.exp(scores), scores**3):
        c = roc_from_scores(transformed, labels)
        np.testing.assert_array_equal(c.points, base.points)
        assert c.auc == base.auc


@settings(max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_sign_reversal_complements_auc(seed):
    scores, labels = scores_with_ties(seed)
    forward = roc_from_scores(scores, labels).auc
    reverse = roc_from_scores(-scores, labels).auc
    assert abs(forward + reverse - 1.0) < 1e-12


@settings(max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_batch_rows_equal_single_rows(seed):
    """Each row of a batch, tied or not, gets the curve it gets alone."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 40))
    labels = rng.integers(0, 2, rows)
    labels[:2] = [0, 1]
    scores = rng.random((int(rng.integers(1, 8)), rows))
    scores[::2] = np.round(scores[::2], 1)   # ties in every other row
    for batch, single, fields in (
        (roc_batch, roc_from_scores, ("fpr", "tpr", "auc")),
        (pr_batch, pr_from_scores, ("recall", "precision", "auprc")),
    ):
        for row, curve in zip(scores, batch(scores, labels).rows()):
            alone = single(row, labels)
            for got, field in zip(curve, fields):
                np.testing.assert_array_equal(got, getattr(alone, field))
        for row, (_, _, auc) in zip(scores, roc_batch(scores, labels).rows()):
            assert abs(auc - auc_rank_statistic(row, labels)) < 1e-12


@settings(max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_batch_estimates_equal_single_curve_estimates(seed):
    """Each row of a batch, tie-free or tied and padded, gets from
    `CurveBatch.estimate` what `estimate_tpr` / `estimate_precision` give its
    own curve, bit for bit, under every strategy, at 0, 1, every abscissa a
    point can take and the default grid; both equal a scan of the points."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 40))
    labels = rng.integers(0, 2, rows)
    labels[:2] = [0, 1]
    scores = rng.random((int(rng.integers(2, 8)), rows))
    scores[::2] = np.round(scores[::2], 1)   # ties in every other row
    scores[0, 1] = scores[0, 0]
    for batch, single, estimate, n in (
        (roc_batch, roc_from_scores, estimate_tpr, int((labels == 0).sum())),
        (pr_batch, pr_from_scores, estimate_precision, int((labels == 1).sum())),
    ):
        queries = np.concatenate([[0.0, 1.0], np.arange(n + 1) / n, default_grid()])
        curves = batch(scores, labels)
        assert (curves.lengths < rows + 1).any() and (curves.lengths == rows + 1).any()
        for s in STRATEGIES:
            for row, values in zip(scores, curves.estimate(queries, s)):
                curve = single(row, labels)
                alone = estimate(curve, queries, s)
                np.testing.assert_array_equal(values.view(np.int64), alone.view(np.int64))
                x, y = curve.points.T
                scanned = np.array([bracket_value(x, y, q, s.value) for q in queries])
                np.testing.assert_array_equal(alone.view(np.int64), scanned.view(np.int64))


@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), decimals=st.integers(1, 3))
def test_heavy_ties_match_stable_sweep(seed, decimals):
    """The sweep's sort is not stable; no curve can tell: points and areas
    equal, bit for bit, those of a stable sort with tied groups collapsed."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, 800)
    labels[:2] = [0, 1]
    scores = rng.random((6, 800)) ** 2
    scores[1:] = np.round(scores[1:], decimals)   # row 0 stays tie-free
    for family, batch in (("roc", roc_batch), ("pr", pr_batch)):
        for row, curve in zip(scores, batch(scores, labels).rows()):
            for got, want in zip(curve, stable_sweep_curve(row, labels, family)):
                np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                              np.asarray(want).view(np.int64))


def test_nan_scores_form_one_tied_group():
    """NaN scores rank last as one step, whatever the order of their rows."""
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, 300)
    scores = rng.random(300)
    scores[rng.random(300) < 0.3] = np.nan
    perm = rng.permutation(300)
    for single in (roc_from_scores, pr_from_scores):
        base = single(scores, labels)
        np.testing.assert_array_equal(single(scores[perm], labels[perm]).points, base.points)
        # the origin, one point per finite score, one for the NaN group
        assert len(base.points) == 2 + np.isfinite(scores).sum()


@pytest.mark.parametrize("bad", [2, -1])
@pytest.mark.parametrize("single", [roc_from_scores, pr_from_scores])
def test_labels_other_than_0_or_1_rejected(single, bad):
    """A label that is neither class is a DataError naming it, not a
    zero-length step."""
    with pytest.raises(errors.DataError, match=f"got {bad}"):
        single([0.9, 0.8, 0.7, 0.6, 0.5], [1, bad, 0, 1, 0])


# Scores that rank by their bits: subnormals, saturated posteriors, values
# above 1 and +inf, with -0.0 beside 0.0.
SPECIAL_SCORES = [0.0, -0.0, 5e-324, 2.5e-320, 1e-300, 0.25, 1.0 - 2.0**-53,
                  1.0, 2.0, 3.5, 1e300, np.inf]


def test_both_ranking_paths_agree_bit_for_bit(monkeypatch):
    """A batch of scores ≥ 0 ranks by packed (score, label) keys; one row
    with a NaN or a negative score switches the whole batch to `argsort`.
    The other rows' areas, points, counts and lengths keep every bit."""
    rng = np.random.default_rng(11)
    rows = 60
    labels = rng.integers(0, 2, rows)
    labels[:2] = [0, 1]
    special = np.array(SPECIAL_SCORES)
    scores = rng.random((9, rows))
    scores[1] = np.round(scores[1], 1)                          # ties
    scores[2] = rng.choice([0.0, -0.0, 0.5], rows)              # -0.0 ties 0.0
    scores[3, :special.size - 1] = [-0.0, *special[2:]]         # untied specials
    scores[4] = rng.choice(special, rows)                       # tied specials
    scores[5] = 1.0                                             # all saturated
    scores[6] = 2.0 + rng.random(rows)
    scores[7, labels.argmax()] = np.inf                         # a positive first
    scores[8, labels.argmin()] = np.inf                         # a negative first
    assert (scores >= 0.0).all() and np.signbit(scores).any()   # -0.0 is ≥ 0
    argsort, calls = np.argsort, []
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    for batch in (roc_batch, pr_batch):
        keyed = batch(scores, labels)
        assert calls == []
        assert keyed.tied.tolist() == [1, 2, 4, 5]
        for last in (np.nan, -0.5):
            extra = rng.random(rows)
            extra[rows // 2] = last
            sorted_ = batch(np.vstack([scores, extra]), labels)
            assert calls.pop() == 1
            for field in ("areas", "x", "y", "counts", "lengths"):
                got, want = getattr(sorted_, field)[:-1], getattr(keyed, field)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_areas_are_in_order_trapezoids_of_their_points(seed):
    """Each row's area, read from its ranked labels or, for a tied row, from
    its collapsed points, equals the trapezoid over its points with the terms
    added in point order, bit for bit; so for rows ranked first by a positive
    and by a negative, where the PR origin copies a precision of 1 or 0."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 40))
    labels = rng.integers(0, 2, rows)
    labels[:2] = [0, 1]
    scores = rng.random((6, rows))
    scores[::2] = np.round(scores[::2], 1)   # ties in every other row
    scores[:2, labels.argmax()] = 2.0        # a positive ranked first
    scores[2:4, labels.argmin()] = 2.0       # a negative ranked first
    for batch in (roc_batch, pr_batch):
        curves = batch(scores, labels)
        for x, y, area in curves.rows():
            assert area == 0.5 * float(in_order_sum((x[1:] - x[:-1]) * (y[1:] + y[:-1])))


def test_trapezoid_adds_its_terms_in_point_order():
    """Every area, of a 1-D curve or of each stacked row, is its trapezoid
    terms added in point order from 0.0, bit for bit; numpy's pairwise
    `np.sum` differs from that on most random 101-point rows."""
    rng = np.random.default_rng(0)
    x = np.sort(rng.random(101))
    y = rng.standard_normal((200, 101))
    want = 0.5 * in_order_sum((x[1:] - x[:-1]) * (y[:, 1:] + y[:, :-1]))
    got = trapezoid(y, x)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert [trapezoid(row, x) for row in y] == want.tolist()
    assert trapezoid(y.reshape(20, 10, 101), x).shape == (20, 10)
    assert trapezoid([0.3], [0.5]) == trapezoid([], []) == 0.0
    assert isinstance(trapezoid([0.3], [0.5]), float)
