"""The suite's own warning policy, run on tiny test files in a subprocess."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent


def run_pytest(tmp_path, source):
    """Run pytest on `source`, laid out beside a copy of this suite's conftest."""
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_tiny.py").write_text(source)
    src = str(TESTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    return done.stdout + done.stderr


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """Hypothesis imports modules that warn while it reports a failure; the
    warnings filter must not turn that into an error that aborts the run."""
    out = run_pytest(tmp_path, """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
""")
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_warnings_in_setup_body_and_teardown_fail_the_test(tmp_path):
    out = run_pytest(tmp_path, """
import warnings

import pytest


@pytest.fixture
def warns_in_setup():
    warnings.warn("setup")


@pytest.fixture
def warns_in_teardown():
    yield
    warnings.warn("teardown")


def test_setup(warns_in_setup):
    pass


def test_body():
    warnings.warn("body")


def test_teardown(warns_in_teardown):
    pass
""")
    assert "ERROR test_tiny.py::test_setup - UserWarning: setup" in out
    assert "FAILED test_tiny.py::test_body - UserWarning: body" in out
    assert "ERROR test_tiny.py::test_teardown - UserWarning: teardown" in out
