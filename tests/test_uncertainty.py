import itertools
from collections import Counter

import numpy as np
import pytest

import curveshap as cs
from curveshap import errors
from curveshap.curves import Strategy, trapezoid
from curveshap.dataset import SplitSpec
from curveshap.uncertainty import (
    BandedSeries,
    McAttribution,
    McConfig,
    McCurveAttribution,
    mc_attributions,
    mc_bands,
    mc_curves,
)
from curveshap import uncertainty

from conftest import make_blobs


class FixedSeedConfig(McConfig):
    """Every iteration reuses the base seed, forcing identical splits."""

    def split_spec(self, k):
        return SplitSpec(self.train_fraction, self.base_seed)


class TestMcConfig:
    def test_seed_schedule(self):
        cfg = McConfig(iterations=3, base_seed=10)
        assert [cfg.split_spec(k).seed for k in range(3)] == [10, 11, 12]
        assert cfg.split_spec(0).train_fraction == 0.8

    def test_single_iteration_rejected(self):
        with pytest.raises(errors.DataError):
            McConfig(iterations=1)

    def test_split_parameters_checked_on_construction(self):
        with pytest.raises(errors.DataError, match="train_fraction"):
            McConfig(2, train_fraction=1.5)
        with pytest.raises(errors.DataError, match="seed"):
            McConfig(2, base_seed=-1)

    def test_grid_validation(self):
        with pytest.raises(errors.DataError):
            McConfig(iterations=2, grid=np.array([0.5]))
        with pytest.raises(errors.DataError):
            McConfig(iterations=2, grid=np.array([0.5, 1.5]))
        with pytest.raises(errors.DataError, match="ascending"):
            McConfig(iterations=2, grid=np.array([0.5, 0.2]))

    def test_compares_and_hashes_by_identity(self):
        """The grid is an array, so configs compare by identity, not by value."""
        cfg = McConfig(iterations=2)
        assert cfg == cfg
        assert cfg != McConfig(iterations=2)
        assert {cfg: 1}[cfg] == 1


class TestMcCurves:
    def test_roc_band_shape_and_bounds(self, banknote):
        cfg = McConfig(iterations=4, base_seed=0)
        band = mc_curves(banknote, cfg)
        assert isinstance(band, BandedSeries)
        assert band.mean.shape == cfg.grid.shape
        assert (band.std >= 0).all()
        assert band.iterations == 4
        assert (band.mean >= 0).all() and (band.mean <= 1).all()

    def test_mean_curve_auc_near_reported(self, banknote):
        cfg = McConfig(iterations=10, base_seed=0)
        band = mc_curves(banknote, cfg)
        area = trapezoid(band.mean, band.abscissae)
        assert 0.92 <= area <= 0.96

    def test_pr_kind(self, banknote):
        cfg = McConfig(iterations=3, base_seed=0)
        band = mc_curves(banknote, cfg, kind="pr")
        assert (band.mean >= 0).all() and (band.mean <= 1).all()

    def test_unknown_kind(self, banknote):
        with pytest.raises(errors.DataError):
            mc_curves(banknote, McConfig(iterations=2), kind="det")

    def test_bit_identical_for_fixed_base_seed(self, banknote):
        cfg = McConfig(iterations=3, base_seed=42)
        a = mc_curves(banknote, cfg)
        b = mc_curves(banknote, cfg)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.std, b.std)

    def test_forced_identical_iterations_have_zero_std(self, banknote):
        # two copies of one iteration: mean of [x, x] is exact, so std is 0
        cfg = FixedSeedConfig(iterations=2, base_seed=1)
        band = mc_curves(banknote, cfg)
        assert (band.std == 0.0).all()

    def test_degenerate_split_reports_seed(self):
        d = cs.Dataset(
            np.arange(4.0).reshape(4, 1), np.array([1, 0, 0, 0]), ("a",)
        )
        cfg = McConfig(iterations=2, base_seed=9, train_fraction=0.5)
        with pytest.raises(errors.DegenerateSplit, match="seed=9"):
            mc_curves(d, cfg)


@pytest.fixture(scope="module")
def banknote_mc(banknote):
    return mc_attributions(
        banknote, McConfig(iterations=6, base_seed=0), cs.Target.auc()
    )


class TestMcAttributions:
    def test_mean_ordering(self, banknote_mc):
        by = dict(zip(banknote_mc.feature_names, banknote_mc.mean))
        assert by["variance"] > by["skewness"]
        assert by["skewness"] > by["kurtosis"]
        assert by["skewness"] > by["entropy"]
        assert 0.25 <= by["variance"] <= 0.37

    def test_mean_efficiency(self, banknote_mc):
        gap = banknote_mc.mean.sum() - (banknote_mc.mean_total - 0.5)
        assert abs(gap) < 1e-9

    def test_std_nonnegative(self, banknote_mc):
        assert isinstance(banknote_mc, McAttribution)
        assert (banknote_mc.std >= 0).all()

    def test_noise_feature_within_std_envelope(self):
        hits = 0
        for seed in range(10):
            d = make_blobs(
                np.random.default_rng(seed), n_rows=200, n_features=2, informative=1
            )
            mc = mc_attributions(
                d, McConfig(iterations=8, base_seed=seed), cs.Target.auc()
            )
            hits += abs(mc.mean[1]) < mc.std[1]
            assert mc.mean[0] > abs(mc.mean[1])  # informative dominates noise
        assert hits >= 6

    def test_forced_identical_iterations_have_zero_std(self, banknote):
        mc = mc_attributions(
            banknote, FixedSeedConfig(iterations=2, base_seed=4), cs.Target.auc()
        )
        assert (mc.std == 0.0).all()

    def test_bit_identical_for_fixed_base_seed(self, banknote):
        cfg = McConfig(iterations=3, base_seed=8)
        a = mc_attributions(banknote, cfg, cs.Target.auc())
        b = mc_attributions(banknote, cfg, cs.Target.auc())
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.std, b.std)


class TestMcSliceAttributions:
    def test_roc_slice_bands(self, banknote):
        grid = np.linspace(0.0, 1.0, 11)
        cfg = McConfig(iterations=3, base_seed=0, grid=grid)
        mc = mc_attributions(
            banknote, cfg, cs.Target.roc_slice(0.0), Strategy.INTERPOLATION
        )
        assert isinstance(mc, McCurveAttribution)
        assert mc.mean.shape == (4, 11)
        assert (mc.std >= 0).all()
        assert mc.kind == "roc_slice"

    def test_feature_band_lookup(self, banknote):
        grid = np.linspace(0.0, 1.0, 11)
        cfg = McConfig(iterations=2, base_seed=0, grid=grid)
        mc = mc_attributions(
            banknote, cfg, cs.Target.roc_slice(0.0), Strategy.INTERPOLATION
        )
        band = mc.feature_band("variance")
        np.testing.assert_array_equal(band.mean, mc.mean[0])
        assert band.iterations == 2


class Counted:
    """A function behind a call counter."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class TestMcBands:
    def test_one_split_and_fit_per_iteration(self, banknote, monkeypatch):
        split, fit = Counted(uncertainty.split), Counted(uncertainty.train_gnb)
        monkeypatch.setattr(uncertainty, "split", split)
        monkeypatch.setattr(uncertainty, "train_gnb", fit)
        cfg = McConfig(iterations=3, base_seed=2, grid=np.linspace(0.0, 1.0, 11))
        mc_bands(banknote, cfg, "roc", [cs.Target.auc(), cs.Target.roc_slice(0.0)])
        assert (split.calls, fit.calls) == (3, 3)

    def test_each_coalition_scored_once_per_iteration(self, banknote, monkeypatch):
        """An area and a slice target of one curve family share one game, so
        each iteration scores each of the 15 coalitions once, not twice."""
        scored = []

        class Recording:
            def __init__(self, model):
                self.model = model

            def score(self, test, columns=None):
                if columns is not None:      # the band scores the full set apart
                    scored.extend(frozenset(c) for c in np.asarray(columns).tolist())
                return self.model.score(test, columns)

        monkeypatch.setattr(uncertainty, "train_gnb", lambda d: Recording(cs.train_gnb(d)))
        cfg = McConfig(iterations=3, base_seed=2, grid=np.linspace(0.0, 1.0, 11))
        mc_bands(banknote, cfg, "roc", [cs.Target.auc(), cs.Target.roc_slice(0.0)])
        coalitions = [frozenset(c) for k in range(1, 5)
                      for c in itertools.combinations(range(4), k)]
        assert Counter(scored) == dict.fromkeys(coalitions, 3)

    @pytest.mark.parametrize("kind", ["roc", "pr"])
    def test_equals_separate_runs(self, banknote, kind):
        """mc_bands equals the public pipeline run target by target, each
        target in its own game on each iteration's split and fit."""
        cfg = McConfig(iterations=3, base_seed=5, grid=np.linspace(0.0, 1.0, 11))
        targets = [cs.Target.auc(), cs.Target.auprc(), cs.Target.roc_slice(0.3),
                   cs.Target.prc_slice(0.6)]
        band, attributions = mc_bands(banknote, cfg, kind, targets)
        rows, stacks = reference_bands(banknote, cfg, kind, targets)
        np.testing.assert_array_equal(band.mean, rows.mean(axis=0))
        np.testing.assert_array_equal(band.std, rows.std(axis=0))
        for target, together, stack in zip(targets, attributions, stacks):
            separate = mc_attributions(banknote, cfg, target)
            assert type(together) is type(separate)
            np.testing.assert_array_equal(together.mean, separate.mean)
            if target.is_slice:
                assert isinstance(together, McCurveAttribution)
                np.testing.assert_array_equal(together.mean, stack.mean(axis=0))
                np.testing.assert_array_equal(together.std, stack.std(axis=0))
            else:
                assert isinstance(together, McAttribution)
                np.testing.assert_array_equal(together.mean, stack[:, :-1].mean(axis=0))
                np.testing.assert_array_equal(together.std, stack[:, :-1].std(axis=0))
                assert together.mean_total == float(stack[:, -1].mean())

    @pytest.mark.parametrize("strategy", [Strategy.PESSIMISTIC, Strategy.OPTIMISTIC])
    @pytest.mark.parametrize("target", [cs.Target.roc_slice(0.3), cs.Target.prc_slice(0.6)],
                             ids=["roc", "prc"])
    def test_slice_attributions_follow_the_strategy(self, banknote, target, strategy):
        """mc_attributions under a non-default strategy equals evaluate_slices +
        shapley_curve under that strategy on each iteration's split and fit."""
        cfg = McConfig(iterations=3, base_seed=5, grid=np.linspace(0.0, 1.0, 11))
        mc = mc_attributions(banknote, cfg, target, strategy)
        _, (stack,) = reference_bands(banknote, cfg, "roc", [target], strategy)
        np.testing.assert_array_equal(mc.mean, stack.mean(axis=0))
        np.testing.assert_array_equal(mc.std, stack.std(axis=0))
        interpolated = mc_attributions(banknote, cfg, target)
        assert not np.array_equal(mc.mean, interpolated.mean)


def reference_bands(d, cfg, kind, targets, strategy=Strategy.INTERPOLATION):
    """Per-iteration band rows and each target's rows from the public
    pipeline: split, fit, then evaluate_all + shapley_exact for an area and
    evaluate_slices + shapley_curve on the config grid, under `strategy`,
    for a slice.  The band always interpolates."""
    band, stacks = [], [[] for _ in targets]
    for k in range(cfg.iterations):
        train, test = cs.split(d, cfg.split_spec(k))
        scores = cs.train_gnb(train).score(test)
        if kind == "roc":
            curve = cs.roc_from_scores(scores, test.labels)
            band.append(cs.estimate_tpr(curve, cfg.grid, Strategy.INTERPOLATION))
        else:
            curve = cs.pr_from_scores(scores, test.labels)
            band.append(cs.estimate_precision(curve, cfg.grid, Strategy.INTERPOLATION))
        for target, stack in zip(targets, stacks):
            if target.is_slice:
                spec = cs.GameSpec(cs.Target(target.kind), train, test, strategy)
                stack.append(cs.shapley_curve(cs.evaluate_slices(spec, cfg.grid)).values)
            else:
                attr = cs.shapley_exact(cs.evaluate_all(cs.GameSpec(target, train, test)))
                stack.append(np.append(attr.values, attr.total))
    return np.array(band), [np.array(stack) for stack in stacks]
