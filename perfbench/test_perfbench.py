"""Self-tests of the benchmark.  Run: PYTHONPATH=src python3 -m pytest -q perfbench"""

from __future__ import annotations

import types

import numpy as np
import pytest

import checks
import spans
from run import REFERENCES, ROOT
from workloads import WORKLOADS, generate_csv


def test_generator_is_deterministic_per_seed():
    text = generate_csv(ROOT, 8, 3)
    assert text == generate_csv(ROOT, 8, 3)
    assert text != generate_csv(ROOT, 8, 4)
    lines = text.splitlines()
    assert lines[0].split(",")[-1] == "class" and len(lines[0].split(",")) == 13
    banknote = (ROOT / "src/curveshap/data/banknote.csv").read_text().splitlines()
    assert len(lines) == len(banknote)
    assert lines[1].startswith(banknote[1].rsplit(",", 1)[0] + ",")
    assert generate_csv(ROOT, 0, 9) == "\n".join(banknote) + "\n"


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        spans.Span(1, 0, "game.evaluate_all", 1.0, 7.0, info=15),
        spans.Span(2, 1, "model.train_gnb", 2.0, 4.0),
        spans.Span(3, 1, "curves.roc_from_scores", 4.0, 5.0),
        spans.Span(4, 0, "report.write_csv", 8.0, 9.0, info=120),
        spans.Span(5, None, "model.train_gnb", 9.0, 9.5),
        spans.Span(0, None, spans.ROOT, 0.0, 10.0),
    ]
    m = spans.aggregate(tree)
    assert m["cli.self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert m["game.self_s"] == pytest.approx(6.0 - 2.0 - 1.0)
    assert m["game.evaluate_all.self_s"] == pytest.approx(3.0)
    assert m["model.train_gnb.calls"] == 2
    assert m["model.train_gnb.s"] == pytest.approx(2.5)
    assert m["report.write_csv.bytes"] == 120
    # Only the fit inside the game counts, against its 15 coalitions.
    assert m["game.fits_per_coalition"] == pytest.approx(1 / 15)
    assert m["game.memo_hit_ratio"] == 0.0


def test_output_check_rejects_phi_perturbed_by_1e_6(tmp_path):
    ref = REFERENCES / "exact-auc-wide12"
    text = (ref / "attribution.csv").read_text()
    lines = text.splitlines()
    feature, phi, percent = lines[1].split(",")

    def with_phi(value: float) -> str:
        return "\n".join([lines[0], f"{feature},{value!r},{percent}", *lines[2:]]) + "\n"

    assert checks.compare_csv(text, text) == []
    assert checks.compare_csv(with_phi(float(phi) + 1e-12), text) == []
    assert checks.compare_csv(with_phi(float(phi) + 1e-6), text)

    for name in WORKLOADS["exact-auc-wide12"].artifacts:
        (tmp_path / name).write_text((ref / name).read_text())
    (tmp_path / "attribution.csv").write_text(with_phi(float(phi) + 1e-6))
    assert checks.against_reference(WORKLOADS["exact-auc-wide12"], tmp_path, ref)

    exact = checks.read_phi(REFERENCES / "sampled-auc-wide16" / "exact_attribution.csv")
    total = 0.5 + exact.sum()
    assert checks.sampled_problems(exact, exact, total) == []
    assert checks.sampled_problems(exact + np.eye(exact.size)[0] * 1e-6, exact, total)


def test_missing_hook_is_an_absent_metric():
    dataset = types.ModuleType("dataset")
    dataset.split = lambda d: d            # project is gone
    tracer = spans.Tracer()
    tracer.install({"dataset": dataset})
    assert "dataset.project" in tracer.absent
    assert dataset.split(3) == 3
    tracer.uninstall()
    m = spans.aggregate(tracer.spans, tracer.absent)
    assert m["dataset.split.calls"] == 1
    assert "dataset.project.calls" not in m
    assert "model.train_gnb.calls" not in m


def test_hooks_reach_imported_names_and_dataclass_defaults():
    import curveshap as cs
    from curveshap import cli, game, model  # noqa: F401  (cli loads every module)

    train, test = cs.split(cs.load_banknote(), cs.SplitSpec(0.8, 0))
    tracer = spans.Tracer()
    tracer.install(spans.package_modules())
    try:
        tracer.call(spans.ROOT, lambda: game.evaluate_all(cs.GameSpec(cs.Target.auc(), train, test)))
    finally:
        tracer.uninstall()
    assert game.project is cs.dataset.project
    assert game.GameSpec(cs.Target.auc(), train, test).fit is model.train_gnb
    m = spans.aggregate(tracer.spans, tracer.absent)
    assert tracer.absent == []
    assert m["model.train_gnb.calls"] == 15
    assert m["dataset.project.calls"] == 30
    assert m["game.fits_per_coalition"] == 1.0
    assert m["game.evaluate_all.calls"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_artifacts_are_committed(name):
    for artifact in WORKLOADS[name].artifacts:
        assert (REFERENCES / name / artifact).is_file()
