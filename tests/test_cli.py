import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curveshap as cs
from curveshap.cli import main

BANKNOTE = str(cs.banknote_path())
SRC = str(Path(cs.__file__).resolve().parents[1])


def run(argv):
    return main(argv)


def read_attr_csv(path):
    lines = path.read_text().strip().splitlines()
    out = {}
    for line in lines[1:]:
        name, phi, pct = line.split(",")
        out[name] = float(phi)
    return out


def last_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """25-feature dataset, beyond the exact-mode cap."""
    rng = np.random.default_rng(0)
    n, k = 60, 25
    x = rng.normal(size=(n, k))
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    header = ",".join([f"f{i}" for i in range(k)] + ["y"])
    lines = [header]
    for row, label in zip(x, y):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestExplainAuc:
    def test_banknote_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run([
            "explain-auc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--seed", "0",
        ])
        assert code == 0
        for name in ("attribution.csv", "attribution.svg", "payoffs.csv",
                     "summary.txt", "manifest.json"):
            assert (out / name).exists(), name
        summary = (out / "summary.txt").read_text()
        assert "target: AUC" in summary
        achieved = float(summary.split("achieved: ")[1].split("%")[0])
        assert 92.0 <= achieved <= 96.0
        ranking = summary.split("phi ranking:\n")[1]
        assert ranking.split()[0] == "variance"

    def test_payoff_table_has_16_rows(self, tmp_path):
        out = tmp_path / "run"
        run([
            "explain-auc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out),
        ])
        lines = (out / "payoffs.csv").read_text().strip().splitlines()
        assert len(lines) == 17  # header + 2^4 coalitions
        assert lines[1].startswith("0,,0")

    def test_unknown_label_column(self, tmp_path, capsys):
        code = run([
            "explain-auc", "--data", BANKNOTE, "--label-column", "nope",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert last_error(capsys)["error"] == "MissingColumn"

    def test_exact_cap_surfaced(self, wide_csv, tmp_path, capsys):
        code = run([
            "explain-auc", "--data", wide_csv, "--label-column", "y",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 4
        assert last_error(capsys)["error"] == "TooManyFeaturesForExactMode"

    def test_sampled_lifts_cap(self, wide_csv, tmp_path):
        out = tmp_path / "run"
        code = run([
            "explain-auc", "--data", wide_csv, "--label-column", "y",
            "--out", str(out), "--sampled", "20",
        ])
        assert code == 0
        assert (out / "attribution.csv").exists()
        assert not (out / "payoffs.csv").exists()  # no table in sampled mode

    def test_missing_data_file(self, tmp_path, capsys):
        code = run([
            "explain-auc", "--data", str(tmp_path / "absent.csv"),
            "--label-column", "class", "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run([
                "explain-auc", "--data", BANKNOTE, "--label-column", "class",
                "--out", str(out), "--seed", "5",
            ])
            outs.append((out / "attribution.csv").read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("command, extra", [
    ("explain-auc", []),
    ("explain-auprc", []),
    ("explain-roc", []),
    ("explain-prc", []),
    ("uncertainty", ["--iterations", "2"]),
])
def test_label_only_data_is_a_data_error(command, extra, tmp_path, capsys):
    path = tmp_path / "labels.csv"
    path.write_text("y\n" + "0\n1\n" * 10)
    code = run([
        command, "--data", str(path), "--label-column", "y",
        "--out", str(tmp_path / "x"), *extra,
    ])
    assert code == 3
    record = last_error(capsys)
    assert record["error"] == "DataError"
    assert "no feature columns" in record["message"]


def test_label_column_named_twice_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    path.write_text("a,class,class\n" + "0.5,0,0\n1.5,1,1\n" * 10)
    code = run([
        "explain-auc", "--data", str(path), "--label-column", "class",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 3
    record = last_error(capsys)
    assert record["error"] == "DuplicateFeatureName"
    assert not (tmp_path / "x" / "attribution.csv").exists()


class TestExplainRoc:
    def test_grid_and_slice_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "explain-roc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--fpr", "0.2",
        ])
        assert code == 0
        for name in ("contributions.csv", "contributions.svg", "relative.svg",
                     "attribution_fpr.csv", "attribution_fpr.svg",
                     "payoffs_fpr.csv", "summary.txt", "manifest.json"):
            assert (out / name).exists(), name
        lines = (out / "contributions.csv").read_text().strip().splitlines()
        assert len(lines) == 102
        assert lines[0] == "fpr,variance,skewness,kurtosis,entropy,reference,baseline"
        summary = (out / "summary.txt").read_text()
        assert "slice at fpr=0.2" in summary
        achieved = float(summary.split("slice at fpr=0.2: ")[1].split("%")[0])
        assert 86.0 <= achieved <= 97.0  # reported single-split value is 91.59%
        attr = read_attr_csv(out / "attribution_fpr.csv")
        # the summary percent is rounded to 2 decimals, so ±5e-5 in raw units
        assert sum(attr.values()) == pytest.approx(achieved / 100 - 0.2, abs=5e-5)

    def test_strategies_ordered(self, tmp_path):
        references = {}
        for strategy in ("optimistic", "pessimistic"):
            out = tmp_path / strategy
            run([
                "explain-roc", "--data", BANKNOTE, "--label-column", "class",
                "--out", str(out), "--strategy", strategy, "--grid-size", "21",
            ])
            lines = (out / "contributions.csv").read_text().strip().splitlines()
            references[strategy] = [
                float(line.split(",")[-2]) for line in lines[1:]
            ]
        opt, pess = references["optimistic"], references["pessimistic"]
        assert all(a >= b - 1e-12 for a, b in zip(opt, pess))

    def test_fpr_out_of_range(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run([
                "explain-roc", "--data", BANKNOTE, "--label-column", "class",
                "--out", str(tmp_path / "x"), "--fpr", "1.5",
            ])
        assert exc.value.code == 2

    def test_sampled_curve(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "explain-roc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--sampled", "24", "--grid-size", "11",
        ])
        assert code == 0
        lines = (out / "contributions.csv").read_text().strip().splitlines()
        assert len(lines) == 12


@pytest.mark.parametrize("command, flag", [("explain-roc", "fpr"), ("explain-prc", "recall")])
def test_sampled_slice_equals_its_grid_point(command, flag, tmp_path):
    """The slice attribution at a grid point and the curve's row there read
    one permutation draw, so they print the same φ."""
    out = tmp_path / "run"
    assert run([
        command, "--data", BANKNOTE, "--label-column", "class", "--out", str(out),
        "--sampled", "12", "--grid-size", "11", f"--{flag}", "0.5", "--seed", "3",
    ]) == 0
    header, *rows = (out / "contributions.csv").read_text().splitlines()
    row = dict(zip(header.split(","), next(r for r in rows if r.startswith("0.5,")).split(",")))
    lines = (out / f"attribution_{flag}.csv").read_text().splitlines()[1:]
    assert {line.split(",")[0]: line.split(",")[1] for line in lines} == {
        name: row[name] for name in ("variance", "skewness", "kurtosis", "entropy")
    }


class TestExplainPrcAndAuprc:
    def test_balanced_auprc_efficiency(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "explain-auprc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out),
        ])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        achieved = float(summary.split("achieved: ")[1].split("%")[0])
        attr = read_attr_csv(out / "attribution.csv")
        assert sum(attr.values()) == pytest.approx(achieved / 100 - 0.5, abs=5e-5)

    def test_imbalanced_auprc_negative_contributions(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "explain-auprc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--imbalance", "0.10", "--seed", "0",
        ])
        assert code == 0
        attr = read_attr_csv(out / "attribution.csv")
        assert attr["kurtosis"] < 0
        assert attr["entropy"] < 0
        summary = (out / "summary.txt").read_text()
        proportion = float(summary.split("positive proportion: ")[1].split()[0])
        assert abs(proportion - 0.10) < 0.005

    def test_prc_curves(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "explain-prc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--grid-size", "21", "--recall", "0.5",
        ])
        assert code == 0
        lines = (out / "contributions.csv").read_text().strip().splitlines()
        assert lines[0].startswith("recall,")
        assert (out / "attribution_recall.csv").exists()

    def test_imbalance_zero_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run([
                "explain-auprc", "--data", BANKNOTE, "--label-column", "class",
                "--out", str(tmp_path / "x"), "--imbalance", "0",
            ])
        assert exc.value.code == 2


class TestUncertainty:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "uncertainty", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--iterations", "4", "--seed", "0",
        ])
        assert code == 0
        for name in ("roc_band.csv", "roc_band.svg", "attribution_mc.csv",
                     "attribution_mc.svg", "summary.txt", "manifest.json"):
            assert (out / name).exists(), name
        lines = (out / "roc_band.csv").read_text().strip().splitlines()
        assert lines[0] == "fpr,mean,std"
        assert len(lines) == 102

    def test_single_iteration_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run([
                "uncertainty", "--data", BANKNOTE, "--label-column", "class",
                "--out", str(tmp_path / "x"), "--iterations", "1",
            ])
        assert exc.value.code == 2

    def test_fixed_seed_reproducible(self, tmp_path):
        blobs = {}
        for name in ("a", "b"):
            out = tmp_path / name
            run([
                "uncertainty", "--data", BANKNOTE, "--label-column", "class",
                "--out", str(out), "--iterations", "3", "--seed", "7",
            ])
            blobs[name] = (
                (out / "roc_band.csv").read_bytes(),
                (out / "attribution_mc.csv").read_bytes(),
            )
        assert blobs["a"] == blobs["b"]

    def test_slice_bands(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "uncertainty", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--iterations", "2", "--grid-size", "11",
            "--slices",
        ])
        assert code == 0
        lines = (out / "slice_bands.csv").read_text().strip().splitlines()
        assert lines[0].startswith("fpr,mean_variance,std_variance")
        assert len(lines) == 12
        for name in ("variance", "skewness", "kurtosis", "entropy"):
            assert (out / f"band_{name}.svg").exists()


class TestFeatureSelect:
    def test_drop_weak_features_improves(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "feature-select", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--drop", "kurtosis,entropy", "--seed", "0",
        ])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        delta = float(summary.split("delta: ")[1].split(" points")[0])
        assert -0.5 <= delta <= 3.0
        lines = (out / "selection.csv").read_text().strip().splitlines()
        assert lines[0] == "set,n_features,features,auc"
        assert lines[1].startswith("full,4,")
        assert lines[2].startswith("reduced,2,variance+skewness,")

    def test_drop_variance_hurts(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "feature-select", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--drop", "variance", "--seed", "0",
        ])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        delta = float(summary.split("delta: ")[1].split(" points")[0])
        assert delta <= -10.0

    def test_drop_unknown_feature(self, tmp_path, capsys):
        code = run([
            "feature-select", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(tmp_path / "x"), "--drop", "wavelet",
        ])
        assert code == 3
        assert last_error(capsys)["error"] == "MissingColumn"

    def test_drop_everything_rejected(self, tmp_path, capsys):
        code = run([
            "feature-select", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(tmp_path / "x"),
            "--drop", "variance,skewness,kurtosis,entropy",
        ])
        assert code == 3


class TestDuplicate:
    def test_writes_augmented_dataset(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "duplicate", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--feature", "variance",
        ])
        assert code == 0
        d = cs.load_csv(out / "dataset.csv", "class")
        assert d.feature_names[-1] == "variance_copy"
        assert (d.features[:, 4] == d.features[:, 0]).all()
        assert d.n_rows == 1372

    def test_new_name_flag(self, tmp_path):
        out = tmp_path / "run"
        run([
            "duplicate", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--feature", "entropy", "--new-name", "entropy2",
        ])
        d = cs.load_csv(out / "dataset.csv", "class")
        assert "entropy2" in d.feature_names


class TestReplay:
    def test_bit_reproducible(self, tmp_path):
        out = tmp_path / "run"
        run([
            "explain-auc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out), "--seed", "3",
        ])
        names = ["attribution.csv", "attribution.svg", "payoffs.csv",
                 "summary.txt", "manifest.json"]
        before = {n: (out / n).read_bytes() for n in names}
        for n in names:
            if n != "manifest.json":
                (out / n).unlink()
        code = run(["replay", str(out / "manifest.json")])
        assert code == 0
        after = {n: (out / n).read_bytes() for n in names}
        assert before == after

    def test_missing_manifest(self, tmp_path, capsys):
        assert run(["replay", str(tmp_path / "none.json")]) == 3

    def test_unknown_command_in_manifest(self, tmp_path, capsys):
        """A hand-edited command, unhashable ones too, is a data error."""
        path = tmp_path / "m.json"
        for command in ("explode", ["explain-auc"], {"explain-auc": 1}):
            path.write_text(json.dumps({"command": command}))
            assert run(["replay", str(path)]) == 3
            error = last_error(capsys)
            assert error["error"] == "DataError"
            assert "unknown command" in error["message"]

    @staticmethod
    def edited_manifest(tmp_path, edit):
        """Manifest of a fresh explain-auc run, edited, re-targeted to a new out."""
        run([
            "explain-auc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(tmp_path / "run"),
        ])
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        manifest["out"] = str(tmp_path / "replayed")
        edit(manifest)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_manifest_missing_key(self, tmp_path, capsys):
        path = self.edited_manifest(tmp_path, lambda m: m.pop("data"))
        capsys.readouterr()
        assert run(["replay", str(path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "--data" in json.loads(err[0])["message"]

    def test_manifest_values_are_validated(self, tmp_path, capsys):
        path = self.edited_manifest(tmp_path, lambda m: m.update(sampled=0))
        capsys.readouterr()
        assert run(["replay", str(path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "--sampled" in json.loads(err[0])["message"]
        assert not (tmp_path / "replayed").exists()

    def test_manifest_list_for_a_scalar_flag_is_rejected(self, tmp_path, capsys):
        """Only --drop repeats; a list for any other flag is not a last-one-wins."""
        path = self.edited_manifest(tmp_path, lambda m: m.update(seed=[1, 2]))
        capsys.readouterr()
        assert run(["replay", str(path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "--seed" in json.loads(err[0])["message"]
        assert not (tmp_path / "replayed").exists()

    def test_manifest_is_sorted_json(self, tmp_path):
        out = tmp_path / "run"
        run([
            "explain-auc", "--data", BANKNOTE, "--label-column", "class",
            "--out", str(out),
        ])
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == sorted(manifest)
        assert manifest["command"] == "explain-auc"
        assert manifest["seed"] == 0


@pytest.mark.parametrize("command, key, value", [
    ("explain-auc", "train_fraction", 1.5),
    ("explain-auc", "seed", -1),
    ("explain-auprc", "imbalance", 0.0),
    ("explain-roc", "fpr", 1.5),
    ("explain-prc", "recall", -0.1),
    ("explain-roc", "grid_size", 1),
    # Sizes numpy cannot allocate: it raises MemoryError for 2^57 floats and
    # ValueError ("array is too big") for 2^60; neither allocates anything.
    ("explain-roc", "grid_size", 2 ** 57),
    ("explain-prc", "grid_size", 2 ** 60),
    ("uncertainty", "iterations", 1),
    ("explain-auc", "sampled", 0),
])
def test_out_of_range_flag_rejected(command, key, value, tmp_path, capsys):
    """Exit 2 on argv, exit 3 naming the flag on replay, no output either way."""
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "run"
    common = {"data": BANKNOTE, "label_column": "class", "out": str(out)}
    with pytest.raises(SystemExit) as exc:
        run([command, *(f"--{k.replace('_', '-')}={v}" for k, v in common.items()),
             f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"{flag}: " in capsys.readouterr().err
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": command, **common, key: value}))
    assert run(["replay", str(manifest)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["message"].startswith(f"{flag}: ")
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    # Petabytes: 10^14 iterations × 101 grid points and 10^15 permutations ×
    # 4 features lie beyond the 128 TiB user address space, so numpy raises
    # MemoryError without allocating anything; 10^18 permutations raise
    # ValueError ("array is too big").
    ("uncertainty", "--iterations", 10 ** 14),
    ("explain-auc", "--sampled", 10 ** 15),
    ("explain-roc", "--sampled", 10 ** 18),
])
def test_count_too_large_to_allocate_is_a_data_error(command, flag, value, tmp_path, capsys):
    """Exit 3 with one JSON record, before any permutation is drawn."""
    out = tmp_path / "run"
    assert run([command, "--data", BANKNOTE, "--label-column", "class",
                "--out", str(out), f"{flag}={value}"]) == 3
    record = only_error(capsys)
    assert record["error"] == "DataError"
    assert record["message"].startswith(f"cannot allocate {value} ")
    assert not out.exists()


def banknote_with_header(tmp_path, header):
    """Banknote's rows under another header line."""
    rows = cs.banknote_path().read_text().splitlines()[1:]
    path = tmp_path / "renamed.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


def only_error(capsys):
    """The one line on stderr, parsed as a JSON error record."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return json.loads(err[0])


class TestUnreadableInput:
    def test_non_utf8_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(cs.banknote_path().read_bytes().replace(b"3.6216", b"3.62\xff", 1))
        code = run(["explain-auc", "--data", str(path), "--label-column", "class",
                    "--out", str(tmp_path / "x")])
        assert code == 3
        assert only_error(capsys)["error"] == "DataError"

    def test_oversized_cell(self, tmp_path, capsys):
        data = banknote_with_header(tmp_path, "variance,skewness,kurtosis,entropy,class")
        path = tmp_path / "big.csv"
        path.write_text(Path(data).read_text().replace("3.6216", "3" + "0" * 200_000, 1))
        code = run(["explain-auc", "--data", str(path), "--label-column", "class",
                    "--out", str(tmp_path / "x")])
        assert code == 3
        assert "field larger" in only_error(capsys)["message"]

    def test_non_utf8_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"command": "explain-auc\xff"}')
        assert run(["replay", str(path)]) == 3
        assert only_error(capsys)["error"] == "DataError"

    def test_byte_order_mark(self, tmp_path):
        data = banknote_with_header(tmp_path, "\ufeffvariance,skewness,kurtosis,entropy,class")
        out = tmp_path / "run"
        code = run(["explain-auc", "--data", data, "--label-column", "class",
                    "--out", str(out)])
        assert code == 0
        assert "variance" in read_attr_csv(out / "attribution.csv")


class TestQuotedNames:
    def test_attribution_csv_round_trips(self, tmp_path):
        data = banknote_with_header(tmp_path, '"va,r","sk""ew",kurtosis,entropy,class')
        out = tmp_path / "run"
        code = run(["explain-auc", "--data", data, "--label-column", "class",
                    "--out", str(out)])
        assert code == 0
        with (out / "attribution.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert all(len(row) == 3 for row in rows)
        assert {row[0] for row in rows[1:]} == {"va,r", 'sk"ew', "kurtosis", "entropy"}
        # The payoff table names members; it parses into 3 cells a row too.
        with (out / "payoffs.csv").open(newline="") as handle:
            assert all(len(row) == 3 for row in csv.reader(handle))

    def test_duplicate_new_name_round_trips(self, tmp_path):
        out = tmp_path / "run"
        code = run(["duplicate", "--data", BANKNOTE, "--label-column", "class",
                    "--out", str(out), "--feature", "variance", "--new-name", 'v,"2"'])
        assert code == 0
        d = cs.load_csv(out / "dataset.csv", "class")
        assert d.feature_names[-1] == 'v,"2"'
        assert (d.features[:, 4] == d.features[:, 0]).all()


class TestUnwritableOutput:
    def test_out_names_a_file(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("x")
        argv = ["explain-auc", "--data", BANKNOTE, "--label-column", "class",
                "--out", str(target)]
        assert run(argv) == 3
        assert only_error(capsys)["error"] == "FileExistsError"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"command": "explain-auc", "data": BANKNOTE, "label_column": "class",
             "out": str(target)}
        ))
        assert run(["replay", str(manifest)]) == 3
        assert only_error(capsys)["error"] == "FileExistsError"

    def test_feature_name_that_is_a_path(self, tmp_path, capsys):
        data = banknote_with_header(tmp_path, "v/x,skewness,kurtosis,entropy,class")
        argv = ["uncertainty", "--data", data, "--label-column", "class",
                "--out", str(tmp_path / "run"), "--iterations", "2",
                "--grid-size", "11", "--slices"]
        assert run(argv) == 3
        assert only_error(capsys)["error"] == "FileNotFoundError"
        # The run made --out, so it removes it again; into an existing --out
        # it leaves no artifact and no staging directory.
        assert not (tmp_path / "run").exists()
        (tmp_path / "run").mkdir()
        assert run(argv) == 3
        assert only_error(capsys)["error"] == "FileNotFoundError"
        assert list((tmp_path / "run").iterdir()) == []

    def test_failed_load_leaves_no_directories(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "run"
        assert run(["explain-auc", "--data", str(tmp_path / "missing.csv"),
                    "--label-column", "class", "--out", str(out)]) == 3
        assert only_error(capsys)["error"] == "FileNotFoundError"
        assert list(tmp_path.iterdir()) == []


ARTIFACTS = {"summary.txt", "manifest.json"}


@pytest.mark.parametrize("argv, artifacts", [
    (["explain-auc"], {"attribution.csv", "attribution.svg", "payoffs.csv"}),
    (["explain-auc", "--sampled", "5"], {"attribution.csv", "attribution.svg"}),
    (["explain-roc", "--grid-size", "11", "--fpr", "0.2"],
     {"contributions.csv", "contributions.svg", "relative.svg",
      "attribution_fpr.csv", "attribution_fpr.svg", "payoffs_fpr.csv"}),
    (["explain-prc", "--grid-size", "11", "--sampled", "3", "--recall", "0.5"],
     {"contributions.csv", "contributions.svg", "relative.svg",
      "attribution_recall.csv", "attribution_recall.svg"}),
    (["uncertainty", "--iterations", "2", "--grid-size", "11", "--slices"],
     {"roc_band.csv", "roc_band.svg", "attribution_mc.csv", "attribution_mc.svg",
      "slice_bands.csv", *(f"band_{name}.svg" for name in
                           ("variance", "skewness", "kurtosis", "entropy"))}),
    (["feature-select", "--drop", "entropy"],
     {"selection.csv", "attribution_full.csv", "attribution_full.svg",
      "attribution_reduced.csv", "attribution_reduced.svg"}),
    (["duplicate", "--feature", "variance"], {"dataset.csv"}),
])
def test_out_holds_exactly_the_documented_artifacts(argv, artifacts, tmp_path):
    out = tmp_path / "run"
    assert run([*argv, "--data", BANKNOTE, "--label-column", "class",
                "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == artifacts | ARTIFACTS
    # A replay into a directory with an earlier run's files adds its own
    # artifacts and leaves the others where they are.
    again = tmp_path / "again"
    again.mkdir()
    (again / "earlier.txt").write_text("kept")
    manifest = json.loads((out / "manifest.json").read_text())
    (tmp_path / "m.json").write_text(json.dumps({**manifest, "out": str(again)}))
    assert run(["replay", str(tmp_path / "m.json")]) == 0
    assert {p.name for p in again.iterdir()} == artifacts | ARTIFACTS | {"earlier.txt"}
    for name in artifacts | {"summary.txt"}:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


C_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


@pytest.mark.parametrize("argv, header", [
    (["uncertainty", "--iterations", "2"], None),
    (["explain-auc"], "température,skewness,kurtosis,entropy,class"),
])
def test_artifacts_are_utf8_under_any_locale(argv, header, tmp_path):
    """`summary.txt` holds a ± and the artifacts of a non-ASCII feature name
    hold that name: a C locale writes the same UTF-8 bytes as UTF-8 mode."""
    data = BANKNOTE if header is None else banknote_with_header(tmp_path, header)
    outs = {}
    for mode, env in (("c", C_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        outs[mode] = tmp_path / mode
        proc = subprocess.run(
            [sys.executable, "-m", "curveshap.cli", *argv, "--data", data,
             "--label-column", "class", "--out", str(outs[mode])],
            env={**os.environ, "PYTHONPATH": SRC, **env},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in outs["utf8"].iterdir())
    assert sorted(p.name for p in outs["c"].iterdir()) == names
    for name in names:
        if name != "manifest.json":     # differs in `out` only
            assert (outs["c"] / name).read_bytes() == (outs["utf8"] / name).read_bytes(), name
