import warnings

import numpy as np
import pytest
from hypothesis import settings

import curveshap as cs

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

@pytest.hookimpl(wrapper=True)
def pytest_runtest_call():
    """Any warning that a test of this suite lets escape fails it: a stray
    DegenerateCurveWarning or numpy RuntimeWarning is a defect.  Set here, not
    in pyproject.toml, so that the benchmark's self-tests keep their own
    warning filters; and only around the test's setup, body and teardown, not
    while its report is built: hypothesis imports modules that warn when it
    reports a failure, and an error there would abort the whole run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (yield)


pytest_runtest_setup = pytest_runtest_teardown = pytest_runtest_call


# Default seed used throughout the banknote-based tests; seeds 0-4 all keep
# the reproduction targets inside their tolerance windows.
BANKNOTE_SEED = 0


@pytest.fixture(scope="session")
def banknote():
    return cs.load_banknote()


@pytest.fixture(scope="session")
def banknote_split(banknote):
    return cs.split(banknote, cs.SplitSpec(0.8, BANKNOTE_SEED))


def make_blobs(
    rng: np.random.Generator,
    n_rows: int = 40,
    n_features: int = 2,
    informative: int = 1,
    separation: float = 2.0,
) -> cs.Dataset:
    """Gaussian two-class blobs; features beyond `informative` are pure noise."""
    labels = rng.integers(0, 2, size=n_rows)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    shift = np.zeros(n_features)
    shift[:informative] = separation
    features = rng.normal(size=(n_rows, n_features)) + labels[:, None] * shift
    names = tuple(f"f{i}" for i in range(n_features))
    return cs.Dataset(features, labels, names)


@pytest.fixture
def blobs():
    return make_blobs(np.random.default_rng(7))
