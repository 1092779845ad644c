import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curveshap as cs
from curveshap import errors
from curveshap.model import (
    VAR_FLOOR, _in_order_sum, _posteriors, lattice_scores, score, train_gnb,
)

from conftest import make_blobs
from oracles import (
    in_order_sum, logaddexp_posteriors, logistic_posteriors, sorted_sum_scores,
)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def one_feature_dataset():
    # class 0 at {0, 2}, class 1 at {10, 12}
    return cs.Dataset(
        np.array([[0.0], [2.0], [10.0], [12.0]]),
        np.array([0, 0, 1, 1]),
        ("x",),
    )


class TestTrain:
    def test_hand_ml_estimates(self):
        m = train_gnb(one_feature_dataset())
        np.testing.assert_allclose(m.priors, [0.5, 0.5])
        np.testing.assert_allclose(m.means, [[1.0], [11.0]])
        # biased ML variance of {0,2} is 1, plus smoothing
        np.testing.assert_allclose(m.variances, [[1.0], [1.0]], rtol=1e-6)

    def test_priors_sum_to_one(self, blobs):
        m = train_gnb(blobs)
        assert abs(m.priors.sum() - 1.0) < 1e-12

    def test_unequal_priors(self):
        d = cs.Dataset(
            np.arange(5.0).reshape(5, 1),
            np.array([0, 0, 0, 1, 1]),
            ("x",),
        )
        m = train_gnb(d)
        np.testing.assert_allclose(m.priors, [0.6, 0.4])

    def test_variances_floored(self):
        # constant feature: raw ML variance 0, smoothing keeps it positive
        d = cs.Dataset(
            np.array([[1.0], [1.0], [1.0], [1.0]]),
            np.array([0, 0, 1, 1]),
            ("x",),
        )
        m = train_gnb(d)
        assert (m.variances >= VAR_FLOOR).all()

    def test_zero_feature_model(self, blobs):
        m = train_gnb(cs.project(blobs, []))
        assert m.n_features == 0
        assert m.means.shape == (2, 0)

    def test_single_class_rejected(self):
        class Stub:
            features = np.zeros((3, 1))
            labels = np.array([1, 1, 1])
            n_features = 1

        with pytest.raises(errors.SingleClassTrainingSet):
            train_gnb(Stub())

    def test_deterministic(self, blobs):
        a, b = train_gnb(blobs), train_gnb(blobs)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)


class TestScore:
    def test_prior_only_scores_equal_prior(self):
        d = cs.Dataset(
            np.zeros((5, 2)),
            np.array([0, 0, 0, 1, 1]),
            ("a", "b"),
        )
        m = train_gnb(cs.project(d, []))
        s = score(m, cs.project(d, []))
        np.testing.assert_allclose(s, 0.4)

    def test_instance_at_positive_mean(self):
        d = one_feature_dataset()
        m = train_gnb(d)
        probe = cs.Dataset(np.array([[11.0], [1.0]]), np.array([1, 0]), ("x",))
        s = score(m, probe)
        assert s[0] > 0.99
        assert s[1] < 0.01

    def test_midpoint_symmetry(self):
        m = train_gnb(one_feature_dataset())
        probe = cs.Dataset(np.array([[6.0], [0.0]]), np.array([1, 0]), ("x",))
        s = score(m, probe)
        assert abs(s[0] - 0.5) < 1e-9

    def test_range(self, blobs):
        m = train_gnb(blobs)
        s = score(m, blobs)
        assert (s >= 0.0).all() and (s <= 1.0).all()
        assert s.shape == (blobs.n_rows,)

    def test_arity_mismatch(self, blobs):
        m = train_gnb(blobs)
        with pytest.raises(errors.ArityMismatch) as exc:
            score(m, cs.project(blobs, [0]))
        assert exc.value.expected == blobs.n_features
        assert exc.value.got == 1

    def test_row_order_equivariance(self, blobs):
        m = train_gnb(blobs)
        perm = np.random.default_rng(0).permutation(blobs.n_rows)
        shuffled = cs.Dataset(
            blobs.features[perm], blobs.labels[perm], blobs.feature_names
        )
        np.testing.assert_array_equal(score(m, blobs)[perm], score(m, shuffled))

    def test_constant_feature_is_inert(self, blobs):
        base = score(train_gnb(blobs), blobs)
        padded = cs.Dataset(
            np.hstack([blobs.features, np.full((blobs.n_rows, 1), 3.0)]),
            blobs.labels,
            blobs.feature_names + ("pad",),
        )
        with_pad = score(train_gnb(padded), padded)
        np.testing.assert_allclose(with_pad, base, atol=1e-9)

    def test_column_order_does_not_change_scores(self, banknote):
        """Projections that differ only in column position score identically."""
        train, test = cs.split(banknote, cs.SplitSpec(0.8, 0))
        dup = cs.duplicate_feature(train, 0, "variance_copy")
        dup_test = cs.duplicate_feature(test, 0, "variance_copy")
        # {variance, skewness} vs {skewness, variance_copy}: same columns by
        # value, different order after projection
        a = score(train_gnb(cs.project(dup, [0, 1])), cs.project(dup_test, [0, 1]))
        b = score(train_gnb(cs.project(dup, [1, 4])), cs.project(dup_test, [1, 4]))
        np.testing.assert_array_equal(a, b)


@settings(max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_scores_always_probabilities(seed):
    d = make_blobs(np.random.default_rng(seed), n_rows=30, n_features=3)
    s = score(train_gnb(d), d)
    assert np.isfinite(s).all()
    assert (s >= 0.0).all() and (s <= 1.0).all()


class TestScoreColumns:
    def test_all_columns_are_the_full_model(self, banknote_split):
        train, test = banknote_split
        m = train_gnb(train)
        np.testing.assert_array_equal(
            score(m, test, range(test.n_features)), score(m, test)
        )

    def test_no_columns_are_the_prior_only_model(self, banknote_split):
        train, test = banknote_split
        prior_only = score(train_gnb(cs.project(train, [])), cs.project(test, []))
        np.testing.assert_array_equal(score(train_gnb(train), test, []), prior_only)

    def test_arity_mismatch_with_columns(self, blobs):
        m = train_gnb(blobs)
        with pytest.raises(errors.ArityMismatch):
            score(m, cs.project(blobs, [0]), [0])

    def test_column_out_of_range(self, blobs):
        m = train_gnb(blobs)
        for bad in (-1, blobs.n_features):
            with pytest.raises(errors.IndexOutOfRange):
                score(m, blobs, [0, bad])

    def test_batch_rows_equal_single_coalitions(self, banknote_split):
        """An (M, k) batch scores each coalition as if it were scored alone."""
        train, test = banknote_split
        m = train_gnb(train)
        n = test.n_features
        for k in range(n + 1):
            batch = np.array(list(itertools.combinations(range(n), k)),
                             dtype=np.intp).reshape(math.comb(n, k), k)
            scores = score(m, test, batch)
            assert scores.shape == (len(batch), test.n_rows)
            for row, columns in zip(scores, batch):
                np.testing.assert_array_equal(row, score(m, test, columns))

    def test_batch_column_out_of_range(self, blobs):
        m = train_gnb(blobs)
        with pytest.raises(errors.IndexOutOfRange):
            score(m, blobs, np.array([[0, 1], [1, blobs.n_features]]))

    @pytest.mark.parametrize("columns, dtype", [
        ([0.9], "float64"),
        ([True, False], "bool"),
        (np.ones((2, 2), dtype=bool), "bool"),
    ], ids=["float", "bool", "membership"])
    def test_non_integer_indices_rejected(self, blobs, columns, dtype):
        """Indices are integers: a float or boolean array is not read as the
        columns it would cast to, and a boolean membership row is not taken
        for a repeated column."""
        with pytest.raises(errors.DataError, match=dtype) as exc:
            score(train_gnb(blobs), blobs, columns)
        assert type(exc.value) is errors.DataError

    def test_repeated_column_rejected(self, blobs):
        m = train_gnb(blobs)
        with pytest.raises(errors.RepeatedColumn) as exc:
            score(m, blobs, [0, 0])
        assert exc.value.index == 0
        with pytest.raises(errors.RepeatedColumn) as exc:
            score(m, blobs, np.array([[0, 1], [1, 1]]))
        assert exc.value.index == 1


def test_each_test_set_gets_its_own_tables(banknote):
    """One model scores test sets in turn, each dropped before the next is
    made, so a freed test set's id may come back: other splits' test rows,
    each in two Dataset objects.  Every one gets the bits a fresh model gives
    it."""
    train, test = cs.split(banknote, cs.SplitSpec(0.8, 0))
    m = train_gnb(train)
    batch = np.array(list(itertools.combinations(range(4), 2)))
    score(m, test, batch)
    others = [cs.split(banknote, cs.SplitSpec(0.8, seed))[1] for seed in (1, 2, 3)]
    for rows in others:
        for _ in range(2):
            t = cs.Dataset(rows.features, rows.labels, rows.feature_names)
            assert_same_bits(score(m, t, batch), score(train_gnb(train), t, batch))
            del t


@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 120))
def test_score_batches_equal_sorted_sum_oracle(seed, rows):
    """Batches of every width from 0 to 44, every column of the dataset,
    score bit for bit as their terms added in column-rank order.  The last 22
    columns have variances below 1e-3, so they tie on own smoothing, and the
    very last is constant, so the batch's last coalition, drawn from them
    alone, is smoothed at VAR_FLOOR."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, rows)
    labels[:2] = [0, 1]
    spread = rng.normal(size=(rows, 22)) * 10.0 ** rng.uniform(-1, 3, 22)
    tiny = rng.normal(size=(rows, 22)) * 1e-3
    tiny[:, -1] = 0.25
    d = cs.Dataset(np.hstack([spread + labels[:, None], tiny]), labels,
                   tuple(f"f{i}" for i in range(44)))
    m = train_gnb(d)
    for k in range(45):
        batch = np.array([rng.permutation(44)[:k] for _ in range(5)]
                         + [np.arange(44 - k, 44)[::-1]], dtype=np.intp).reshape(6, k)
        assert_same_bits(score(m, d, batch), sorted_sum_scores(m, d, batch))


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_column_order_changes_no_bit_among_tied_columns(seed):
    """Permuting a dataset's columns changes no bit of any coalition's scores,
    also among columns tied on own smoothing: three columns constant in
    training at different values (all smoothed at VAR_FLOOR), an exact
    duplicate, and two columns equal in training but not in the test set."""
    rng = np.random.default_rng(seed)
    train_labels, test_labels = np.arange(40) % 2, np.arange(25) % 2
    spread = (rng.normal(size=(65, 2)) * 10.0 ** rng.uniform(-3, 3, 2)
              + np.concatenate([train_labels, test_labels])[:, np.newaxis])
    constant = np.tile(rng.normal(size=3), (65, 1))
    constant[40:] += rng.normal(size=(25, 3)) * 1e-4    # constant in training only
    twins = np.tile(rng.normal(size=(65, 1)), 2)
    twins[40:, 1] = rng.normal(size=25)                 # equal in training only
    features = np.hstack([spread, constant, spread[:, :1], twins])
    perm = rng.permutation(8)
    moved = np.argsort(perm)        # column j is column moved[j] once permuted

    def datasets(order):
        names = tuple(f"f{i}" for i in order)
        return (cs.Dataset(features[:40, order], train_labels, names),
                cs.Dataset(features[40:, order], test_labels, names))

    (train, test), (train_perm, test_perm) = datasets(range(8)), datasets(perm)
    m, m_perm = train_gnb(train), train_gnb(train_perm)
    for k in range(9):
        batch = np.array(list(itertools.combinations(range(8), k)),
                         dtype=np.intp).reshape(math.comb(8, k), k)
        assert_same_bits(score(m, test, batch), score(m_perm, test_perm, moved[batch]))


class TestNetworkSum:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_network_sorts_every_binary_input(self, k):
        """Every coalition of a k-column dataset, one per 0/1 membership
        input, its columns named in descending index order, scores bit for
        bit as its terms added in column-rank order.  The columns' variances,
        and so their ranks, run in a random order unlike their indices, and
        their scales span six decades, so a lane summed out of rank order
        differs in its bits."""
        rng = np.random.default_rng(k)
        labels = np.arange(30) % 2
        scale = 10.0 ** rng.permutation(np.linspace(-3, 3, k))
        d = cs.Dataset((rng.normal(size=(30, k)) + labels[:, None]) * scale, labels,
                       tuple(f"f{i}" for i in range(k)))
        m = train_gnb(d)
        bits = (np.arange(1 << k)[:, np.newaxis] >> np.arange(k)) & 1
        for width in range(k + 1):
            members = bits[bits.sum(axis=1) == width]
            batch = np.nonzero(members)[1].reshape(len(members), width)[:, ::-1]
            assert_same_bits(score(m, d, batch), sorted_sum_scores(m, d, batch))

    @pytest.mark.parametrize("k", range(1, 21))
    def test_network_sum_is_numpys_sorted_sum(self, k):
        """Guards the summation order: the planes are added in order, one
        after another from 0.0, through infinities, signed zeros and NaN."""
        rng = np.random.default_rng(k)
        lanes = rng.standard_normal((4000, k)) * 10.0 ** rng.integers(-8, 9, (4000, k))
        special = rng.random((4000, k))
        lanes[special < 0.03] = np.inf
        lanes[(0.03 <= special) & (special < 0.06)] = -np.inf
        lanes[(0.06 <= special) & (special < 0.1)] = -0.0
        lanes[(0.1 <= special) & (special < 0.11)] = np.nan
        lanes[:3] = [-0.0], [0.0], [np.nan]
        got = np.empty(len(lanes))
        with np.errstate(invalid="ignore"):     # inf - inf
            want = in_order_sum(lanes)
            _in_order_sum(np.ascontiguousarray(lanes.T), out=got)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert_same_bits(got[~nan], want[~nan])


def posteriors_of(l0, l1):
    """`_posteriors` of one (2, rows) pair of log-likelihoods, zero priors."""
    log_joint = np.array([l0, l1], dtype=np.float64)
    return _posteriors(log_joint, (np.float64(0.0), np.float64(0.0)))


class TestPosteriorTransform:
    """Scores are 1 / (1 + exp(l0 − l1)).  Against the old
    exp(l1 − logaddexp(l0, l1)) they differ in order or ties only in two
    bands, pinned here, and not at all on non-finite log-likelihoods."""

    def test_log_odds_below_exp_overflow_score_exactly_zero(self):
        """Below log-odds of about −709.8, exp(l0 − l1) overflows and the
        score is 0.0; the old transform stayed positive down to −745."""
        l1 = np.array([-709.7, -709.8, -709.9, -720.0, -745.0, -746.0])
        l0 = np.zeros_like(l1)
        got = posteriors_of(l0, l1)
        old = logaddexp_posteriors(l0, l1)
        assert got[0] > 0.0 and got[0] == old[0]
        np.testing.assert_array_equal(got[2:], 0.0)
        assert (old[2:5] > 0.0).all() and old[5] == 0.0
        assert got.tolist() == logistic_posteriors(l0, l1).tolist()

    def test_saturation_depends_on_the_log_odds_alone(self):
        """Log-odds of 35 score just below 1.0 however far l1 lies below 0;
        the old transform rounded to 1.0 once l1 lay far below 0."""
        l1 = np.array([0.0, -1e4])
        got = posteriors_of(l1 - 35.0, l1)
        np.testing.assert_array_equal(got, 0.9999999999999993)
        assert logaddexp_posteriors(l1 - 35.0, l1).tolist() == [0.9999999999999993, 1.0]
        # Past about 36.7 both round to 1.0.
        np.testing.assert_array_equal(posteriors_of(l1 - 37.0, l1), 1.0)

    @pytest.mark.parametrize("l0, l1, expected", [
        (-np.inf, -5.0, 1.0),
        (-5.0, -np.inf, 0.0),
        (-np.inf, -np.inf, np.nan),
        (np.nan, -5.0, np.nan),
        (-5.0, np.nan, np.nan),
    ], ids=["l0-minus-inf", "l1-minus-inf", "both-minus-inf", "nan-l0", "nan-l1"])
    def test_non_finite_log_likelihoods(self, l0, l1, expected):
        """A non-finite case scores as before, so degenerate coalitions (any
        non-finite score) are the same; numpy warns of none of them."""
        got = posteriors_of([l0], [l1])
        old = logaddexp_posteriors(np.array([l0]), np.array([l1]))
        np.testing.assert_array_equal(got, [expected])
        np.testing.assert_array_equal(old, [expected])

    def test_scores_own_their_data(self, banknote_split):
        """Scores are a fresh array, not a view of the log-likelihoods."""
        train, test = banknote_split
        m = train_gnb(train)
        assert score(m, test).base is None
        assert score(m, test, [2]).base is None
        assert score(m, test, np.array([[0, 1], [1, 3]])).base is None
        blocks = 0
        for floats in (1, 1 << 16):
            for _, scores in lattice_scores(m, test, floats):
                assert scores.base is None
                blocks += 1
        assert blocks > 2
