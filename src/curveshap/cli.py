"""Command-line front end.

Each subcommand loads a CSV, runs one attribution pipeline, and writes its
artifacts (CSV, SVG, a text summary, and a JSON run manifest) into the
output directory.  The pipeline writes into a staging directory inside it;
`main` moves the artifacts into place only once the whole run has
succeeded, so a failed run adds nothing.  Every artifact is UTF-8, whatever
the locale.  `replay` re-executes a previously written manifest and
reproduces the artifacts bit for bit.

Exit codes: 0 success, 2 argument error, 3 data error (an unreadable or
unwritable file included), 4 computation error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import game, report
from .curves import Strategy, default_grid
from .dataset import (
    Dataset,
    ImbalanceSpec,
    SplitSpec,
    drop_features,
    duplicate_feature,
    load_csv,
    split,
    subsample_imbalance,
    write_dataset_csv,
    write_text,
)
from .errors import CurveshapError, DataError
from .game import GameSpec, Target, evaluate_all, evaluate_slices
from .shapley import (
    Attribution,
    CurveAttribution,
    check_samples,
    shapley_curve,
    shapley_exact,
    shapley_sampled,
    shapley_sampled_curve,
)
from .uncertainty import McConfig, mc_bands

MANIFEST_NAME = "manifest.json"


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

class UsageError(DataError):
    """Arguments that the parser or `_validate` rejected."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting, so that `main` can report a bad
    replayed manifest as a data error."""

    def error(self, message):
        raise UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curveshap",
        description="Attribute classifier ROC/PR performance to features "
                    "with Shapley values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--data", required=True, help="input CSV path")
        p.add_argument("--label-column", required=True, help="0/1 label column")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--train-fraction", type=float, default=0.8)
        p.add_argument("--seed", type=int, default=0,
                       help="single source of all randomness in the run")

    def sampled_flag(p):
        p.add_argument("--sampled", type=int, default=None, metavar="N",
                       help="estimate with N permutation samples instead of "
                            "exact enumeration")

    def strategy_flag(p):
        p.add_argument("--strategy", default="interpolation",
                       choices=[s.value for s in Strategy])

    def grid_flag(p):
        p.add_argument("--grid-size", type=int, default=101)

    def imbalance_flag(p):
        p.add_argument("--imbalance", type=float, default=None,
                       metavar="POSITIVE_FRACTION",
                       help="down-sample positives to this proportion first")

    p = sub.add_parser("explain-auc", help="Shapley decomposition of AUC")
    common(p)
    sampled_flag(p)

    p = sub.add_parser("explain-roc", help="per-FPR Shapley contribution curves")
    common(p)
    sampled_flag(p)
    strategy_flag(p)
    grid_flag(p)
    p.add_argument("--fpr", type=float, default=None,
                   help="also explain the single ROC slice at this FPR")

    p = sub.add_parser("explain-prc", help="per-recall Shapley contribution curves")
    common(p)
    sampled_flag(p)
    strategy_flag(p)
    grid_flag(p)
    imbalance_flag(p)
    p.add_argument("--recall", type=float, default=None,
                   help="also explain the single PRC slice at this recall")

    p = sub.add_parser("explain-auprc", help="Shapley decomposition of AUPRC")
    common(p)
    sampled_flag(p)
    imbalance_flag(p)

    p = sub.add_parser("uncertainty",
                       help="Monte-Carlo bands for curves and attributions")
    common(p)
    grid_flag(p)
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--slices", action="store_true",
                   help="also emit per-feature ROC-slice bands over the grid")

    p = sub.add_parser("feature-select",
                       help="compare the metric with and without dropped features")
    common(p)
    sampled_flag(p)
    imbalance_flag(p)
    p.add_argument("--target", default="auc", choices=["auc", "auprc"])
    p.add_argument("--drop", action="append", required=True, metavar="NAME",
                   help="feature to drop; repeatable, commas allowed")

    p = sub.add_parser("duplicate",
                       help="write a copy of the dataset with one feature duplicated")
    common(p)
    p.add_argument("--feature", required=True, help="feature to duplicate")
    p.add_argument("--new-name", default=None,
                   help="name of the copy (default: <feature>_copy)")

    p = sub.add_parser("replay", help="re-execute a run manifest")
    p.add_argument("manifest", help="path to a manifest.json")

    return parser


# The library call that checks each ranged argument, by parameter name.
_CHECKS = {
    "train_fraction": lambda v: SplitSpec(train_fraction=v),
    "seed": lambda v: SplitSpec(seed=v),
    "imbalance": ImbalanceSpec,
    "fpr": Target.roc_slice,
    "recall": Target.prc_slice,
    "grid_size": default_grid,
    "iterations": McConfig,
    "sampled": check_samples,
}


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Check arguments through the library objects that consume them and
    flatten them into a manifest dict; replayed manifests come through here
    too, via `_manifest_argv`."""
    params = {k: v for k, v in vars(args).items() if k != "manifest"}
    for key, check in _CHECKS.items():
        if params.get(key) is not None:
            try:
                check(params[key])
            except DataError as exc:
                parser.error(f"--{key.replace('_', '-')}: {exc}")
    if params.get("drop") is not None:
        names = []
        for chunk in params["drop"]:
            names.extend(n.strip() for n in chunk.split(",") if n.strip())
        if not names:
            parser.error("--drop needs at least one feature name")
        params["drop"] = names
    return params


# ----------------------------------------------------------------------
# Shared pipeline pieces
# ----------------------------------------------------------------------

def _load(params: dict) -> Dataset:
    d = load_csv(params["data"], params["label_column"])
    if d.n_features == 0:
        raise DataError(f"{params['data']} has no feature columns")
    if params.get("imbalance") is not None:
        d = subsample_imbalance(
            d, ImbalanceSpec(params["imbalance"], params["seed"])
        )
    return d


def _split(d: Dataset, params: dict):
    return split(d, SplitSpec(params["train_fraction"], params["seed"]))


def _area_attribution(spec: GameSpec, params: dict):
    """Exact (with payoff table) or sampled (table-less) attribution."""
    if params.get("sampled"):
        return shapley_sampled(spec, params["sampled"], params["seed"]), None
    table = evaluate_all(spec)
    return shapley_exact(table), table


def _write_attribution(out: Path, stem: str, attr: Attribution) -> None:
    report.write_csv(out / f"{stem}.csv", *report.attribution_rows(attr))
    report.write_svg(out / f"{stem}.svg", report.render_waterfall(report.waterfall(attr)))


def _ranking(names, values, cells) -> list[str]:
    """Each feature's padded name and cell, by decreasing |value|."""
    width = max(len(n) for n in names)
    order = sorted(range(len(names)), key=lambda i: -abs(float(values[i])))
    return [f"  {names[i]:<{width}}  {cells[i]}" for i in order]


def _explain_area(attr: Attribution, table, out: Path, suffix: str, label: str,
                  notes=()) -> list[str]:
    """Write an area or slice attribution as `attribution<suffix>.*` (and its
    payoff `table`, if exact, as `payoffs<suffix>.csv`), and return its
    summary lines."""
    _write_attribution(out, f"attribution{suffix}", attr)
    if table is not None:
        report.write_payoffs(out / f"payoffs{suffix}.csv", table)
    return [
        f"{label}: {report.percent(attr.total)} (baseline {report.percent(attr.baseline)})",
        *notes,
        "phi ranking:",
        *_ranking(attr.feature_names, attr.values, [f"{100.0 * v:+.2f}%" for v in attr.values]),
    ]


# ----------------------------------------------------------------------
# Runners: each writes its artifacts into `out` and returns the summary lines
# ----------------------------------------------------------------------

def _run_area(target: Target, params: dict, out: Path) -> list[str]:
    d = _load(params)
    train, test = _split(d, params)
    notes = []
    if target.kind == game.AUPRC:
        notes.append(f"positive proportion: {d.n_positive / d.n_rows:.4f}")
    lines = _explain_area(*_area_attribution(GameSpec(target, train, test), params), out,
                          "", "achieved", notes)
    return [f"target: {target.describe()}", *lines]


def _run_slice_curves(kind: str, params: dict, out: Path) -> list[str]:
    """One game over the grid, plus the `--fpr`/`--recall` slice Q, if given,
    as one more abscissa: inserted at its sorted place even where the grid
    already holds it, so that Q keeps its own bits and its column is the
    single-slice game's, bit for bit."""
    d = _load(params)
    train, test = _split(d, params)
    strategy = Strategy(params["strategy"])
    spec = GameSpec(Target(kind), train, test, strategy)
    grid = default_grid(params["grid_size"])
    abscissa_key = report._ABSCISSA[kind][0]
    q = params.get(abscissa_key)
    at = None if q is None else int(np.searchsorted(grid, q))
    points = grid if q is None else np.insert(grid, at, q)
    if params.get("sampled"):
        ca, tables = shapley_sampled_curve(spec, points, params["sampled"], params["seed"]), None
    else:
        tables = evaluate_slices(spec, points)
        ca = shapley_curve(tables)
    lines = [
        f"target: {spec.target.describe()}",
        f"strategy: {strategy.value}",
        f"grid: {grid.size} points",
    ]
    if q is not None:
        attr = Attribution(ca.feature_names, ca.values[:, at], ca.baselines[at], ca.reference[at],
                           spec.target.with_abscissa(q))
        lines += _explain_area(attr, tables and tables[at], out, f"_{abscissa_key}",
                               f"slice at {abscissa_key}={q:g}")
        ca = CurveAttribution(ca.feature_names, *(
            np.delete(a, at, axis=-1) for a in (ca.abscissae, ca.values, ca.reference, ca.baselines)
        ), kind)
    report.write_csv(out / "contributions.csv", *report.curve_attribution_rows(ca))
    report.write_svg(out / "contributions.svg", report.contribution_curves(ca).to_svg())
    report.write_svg(out / "relative.svg", report.relative_contributions(ca).to_svg())
    mean_abs = np.abs(ca.values).mean(axis=1)
    return lines + [
        "mean |phi| over grid:",
        *_ranking(ca.feature_names, mean_abs, [f"{100.0 * v:.2f}%" for v in mean_abs]),
    ]


def run_uncertainty(params: dict, out: Path) -> list[str]:
    d = _load(params)
    cfg = McConfig(
        params["iterations"], params["seed"], params["train_fraction"],
        default_grid(params["grid_size"]),
    )
    slices = bool(params.get("slices"))
    target = Target(game.ROC_SLICE) if slices else Target.auc()
    band, mca, mcca = mc_bands(d, cfg, "roc", target)
    report.write_csv(out / "roc_band.csv", *report.banded_rows(band))
    report.write_svg(
        out / "roc_band.svg",
        report.banded_plot(band, title="Monte-Carlo ROC").to_svg(),
    )
    report.write_csv(out / "attribution_mc.csv", *report.mc_attribution_rows(mca))
    report.write_svg(
        out / "attribution_mc.svg",
        report.attribution_whiskers(
            mca, title=f"AUC attribution over {cfg.iterations} iterations"
        ).to_svg(),
    )
    if slices:
        report.write_csv(out / "slice_bands.csv", *report.slice_band_rows(mcca))
        for name in mcca.feature_names:
            fb = mcca.feature_band(name)
            report.write_svg(
                out / f"band_{name}.svg",
                report.banded_plot(
                    fb, title=f"{name} contribution band",
                    y_label="Shapley contribution", clip=None,
                    color=report.color_for(mcca.feature_names.index(name)),
                ).to_svg(),
            )
    return [
        f"iterations: {cfg.iterations}",
        f"mean achieved AUC: {report.percent(mca.mean_total)}",
        "mean phi (std):",
        *_ranking(mca.feature_names, mca.mean, [
            f"{100.0 * m:+.2f}% (±{100.0 * s:.2f}%)" for m, s in zip(mca.mean, mca.std)
        ]),
    ]


def run_feature_select(params: dict, out: Path) -> list[str]:
    d = _load(params)
    target = Target.auc() if params["target"] == "auc" else Target.auprc()
    reduced = drop_features(d, params["drop"])
    if reduced.n_features == 0:
        raise DataError("cannot drop every feature")
    sets = {"full": d, "reduced": reduced}
    results = {}
    for tag, data in sets.items():
        train, test = _split(data, params)
        results[tag], _ = _area_attribution(GameSpec(target, train, test), params)
        _write_attribution(out, f"attribution_{tag}", results[tag])
    report.write_csv(out / "selection.csv", ["set", "n_features", "features", target.kind], [
        (tag, data.n_features, "+".join(data.feature_names), results[tag].total)
        for tag, data in sets.items()
    ])
    delta = results["reduced"].total - results["full"].total
    return [
        f"target: {target.describe()}",
        f"dropped: {', '.join(params['drop'])}",
        f"full set:    {report.percent(results['full'].total)}",
        f"reduced set: {report.percent(results['reduced'].total)}",
        f"delta: {100.0 * delta:+.2f} points",
    ]


def run_duplicate(params: dict, out: Path) -> list[str]:
    d = _load(params)
    index = d.feature_index(params["feature"])
    new_name = params.get("new_name") or f"{params['feature']}_copy"
    augmented = duplicate_feature(d, index, new_name)
    write_dataset_csv(augmented, out / "dataset.csv", params["label_column"])
    return [
        f"duplicated feature: {params['feature']} -> {new_name}",
        f"columns: {', '.join(augmented.feature_names)}",
        f"rows: {augmented.n_rows}",
    ]


RUNNERS = {
    "explain-auc": partial(_run_area, Target.auc()),
    "explain-roc": partial(_run_slice_curves, game.ROC_SLICE),
    "explain-prc": partial(_run_slice_curves, game.PRC_SLICE),
    "explain-auprc": partial(_run_area, Target.auprc()),
    "uncertainty": run_uncertainty,
    "feature-select": run_feature_select,
    "duplicate": run_duplicate,
}


def _run(params: dict) -> None:
    """Run `params`' command into a fresh staging directory inside `--out`,
    add the summary and the manifest, and move every file into `--out`.

    A run that fails adds nothing to `--out`; the directories this call
    created for it are removed again.
    """
    out = Path(params["out"]).resolve()
    created = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    try:
        stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        try:
            lines = RUNNERS[params["command"]](params, stage)
            write_text(stage / "summary.txt", "\n".join(lines) + "\n")
            write_text(stage / MANIFEST_NAME, json.dumps(params, indent=2, sort_keys=True) + "\n")
            for path in stage.iterdir():
                path.replace(out / path.name)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise


def _error_record(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _manifest_argv(params: dict) -> list[str]:
    """The argv that reproduces a manifest's parameters."""
    argv = [params["command"]]
    for key, value in params.items():
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            # Only the one repeatable flag may hold a list; argparse would keep
            # the last of any other flag's values.
            if key != "drop":
                raise DataError(f"{flag} takes one value, not a list")
            argv += [f"{flag}={v}" for v in value]
        else:
            argv.append(f"{flag}={value}")
    return argv


def _replay_params(parser: argparse.ArgumentParser, path: str) -> dict:
    """Parameters of a manifest, validated as if they came from argv."""
    try:
        params = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:      # undecodable text or malformed JSON
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    command = params.get("command") if isinstance(params, dict) else None
    if not isinstance(command, str) or command not in RUNNERS:
        raise DataError(f"manifest names unknown command {command!r}")
    return _validate(parser, parser.parse_args(_manifest_argv(params)))


@contextmanager
def _bare_degenerate_warnings():
    """Format each DegenerateCurveWarning shown on stderr as one line,
    `warning: <message>`.  Its location, the first frame outside the
    package, names no line of the user's: under `python -m` it is the runpy
    frame.  The warning filters, and any recorder, still see every warning;
    other warnings keep their format."""
    format_warning = warnings.formatwarning

    def bare(message, category, filename, lineno, line=None):
        if issubclass(category, game.DegenerateCurveWarning):
            return f"warning: {message}\n"
        return format_warning(message, category, filename, lineno, line)

    warnings.formatwarning = bare
    try:
        yield
    finally:
        warnings.formatwarning = format_warning


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        params = None if args.command == "replay" else _validate(parser, args)
    except UsageError as exc:
        # A command-line mistake: usage text on stderr and exit code 2.
        argparse.ArgumentParser.error(exc.parser, str(exc))
    try:
        if params is None:
            params = _replay_params(parser, args.manifest)
        with _bare_degenerate_warnings():
            _run(params)
    except CurveshapError as exc:
        _error_record(exc)
        return 3 if isinstance(exc, DataError) else 4
    except OSError as exc:
        # Unreadable input or unwritable output: a data error too.
        _error_record(exc)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
