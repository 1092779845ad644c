import csv
import io
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import curveshap as cs
from curveshap import errors
from curveshap.curves import Strategy, default_grid
from curveshap.game import GameSpec, PayoffTable, Target, evaluate_all, evaluate_slices
from curveshap.report import (
    Band,
    PlotDocument,
    Series,
    WaterfallSpec,
    WhiskerBar,
    WhiskerChart,
    attribution_rows,
    attribution_whiskers,
    banded_plot,
    banded_rows,
    contribution_curves,
    curve_attribution_rows,
    format_cell,
    mc_attribution_rows,
    percent,
    relative_contributions,
    render_waterfall,
    waterfall,
    write_csv,
    write_payoffs,
)
from curveshap.shapley import Attribution, shapley_curve, shapley_exact
from curveshap.uncertainty import BandedSeries, McConfig, mc_attributions


@pytest.fixture(scope="module")
def banknote_attr(banknote_split):
    train, test = banknote_split
    return shapley_exact(evaluate_all(GameSpec(Target.auc(), train, test)))


@pytest.fixture(scope="module")
def banknote_roc_curveattr(banknote_split):
    train, test = banknote_split
    spec = GameSpec(
        Target.roc_slice(0.0), train, test, strategy=Strategy.INTERPOLATION
    )
    return shapley_curve(evaluate_slices(spec, default_grid()))


SVG = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def assert_clean_svg(svg: str):
    root = parse(svg)
    assert root.tag.endswith("svg")
    assert "nan" not in svg.lower().replace("ui-sans-serif, sans-serif", "")
    assert "inf" not in svg.lower()


class TestCsv:
    def test_format_cell_significant_digits(self):
        assert format_cell(1 / 3) == "0.333333333333"
        assert format_cell(0.5) == "0.5"
        assert format_cell(7) == "7"
        assert format_cell("x") == "x"

    def test_round_trip_12_digits(self):
        values = [1 / 3, 2 / 7, 0.123456789012345, 1e-7, 94.03]
        for v in values:
            back = float(format_cell(v))
            assert abs(back - v) <= abs(v) * 1e-11

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1, 0.25), (2, 0.5)])
        assert path.read_text() == "a,b\n1,0.25\n2,0.5\n"

    def test_string_cells_quoted_only_when_needed(self):
        assert format_cell("va,r") == '"va,r"'
        assert format_cell('sk"ew') == '"sk""ew"'
        assert format_cell("a\nb") == '"a\nb"'
        assert format_cell("a\rb") == '"a\rb"'
        assert format_cell("a b+c") == "a b+c"
        assert format_cell("") == ""

    def test_write_csv_quotes_header_and_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["feature", "x,y"], [("va,r", 0.5), ('q"', 1)])
        with path.open(newline="") as handle:
            assert list(csv.reader(handle)) == [
                ["feature", "x,y"], ["va,r", "0.5"], ['q"', "1"],
            ]

    def test_percent_labels(self):
        assert percent(0.9403) == "94.03%"
        assert percent(0.5) == "50.00%"
        assert percent(-0.19239) == "-19.24%"

    def test_attribution_rows(self, banknote_attr):
        header, rows = attribution_rows(banknote_attr)
        assert header == ["feature", "phi", "percent"]
        assert [r[0] for r in rows] == list(banknote_attr.feature_names)

    def test_curve_attribution_rows(self, banknote_roc_curveattr):
        header, rows = curve_attribution_rows(banknote_roc_curveattr)
        assert header[0] == "fpr"
        assert header[1:5] == list(banknote_roc_curveattr.feature_names)
        assert header[-2:] == ["reference", "baseline"]
        assert len(rows) == 101

    def test_banded_rows(self):
        b = BandedSeries(np.array([0.0, 1.0]), np.array([0.1, 0.9]),
                         np.array([0.0, 0.05]), 3)
        header, rows = banded_rows(b)
        assert header == ["fpr", "mean", "std"]
        assert rows == [(0.0, 0.1, 0.0), (1.0, 0.9, 0.05)]

    def test_payoff_rows(self, banknote_split, tmp_path):
        train, test = banknote_split
        table = evaluate_all(GameSpec(Target.auc(), train, test))
        write_payoffs(tmp_path / "payoffs.csv", table)
        with (tmp_path / "payoffs.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["coalition_mask", "members", "payoff"]
        assert rows[1] == ["0", "", "0"]

    def test_mc_attribution_rows(self, banknote):
        mc = mc_attributions(
            banknote, McConfig(iterations=2, base_seed=0), Target.auc()
        )
        header, rows = mc_attribution_rows(mc)
        assert header == ["feature", "mean_phi", "std_phi"]
        assert len(rows) == 4


def independent_payoffs_csv(table: PayoffTable) -> bytes:
    """`payoffs.csv` as csv.writer writes it: QUOTE_MINIMAL, one line per
    mask, members joined in bit order, payoffs to 12 significant digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(["coalition_mask", "members", "payoff"])
    for mask, value in enumerate(table.values.tolist()):
        members = "+".join(name for i, name in enumerate(table.feature_names) if mask >> i & 1)
        writer.writerow([mask, members, format(value, ".12g")])
    return buffer.getvalue().encode("utf-8")


def payoff_table(n: int) -> PayoffTable:
    """A table of n features whose names need quoting, with payoffs -0.0,
    1e-300 and 0.1 + 0.2 among them."""
    names = ("va,r", 'sk"ew', "line\nbreak", "plain", "a b+c")[:n]
    values = np.random.default_rng(n).normal(size=1 << n)
    values[0] = -0.0
    special = [1e-300, 0.1 + 0.2, -0.0][:(1 << n) - 1]
    values[1:1 + len(special)] = special
    return PayoffTable(n, values, Target.auc(), None, names, (1 << n) - 1)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_payoffs_csv_bytes_equal_an_independent_writer(n, tmp_path):
    table = payoff_table(n)
    write_payoffs(tmp_path / "payoffs.csv", table)
    assert (tmp_path / "payoffs.csv").read_bytes() == independent_payoffs_csv(table)


# Peak traced bytes of writing payoffs.csv, measured with Python 3.11 and
# numpy 2.4.6: 95 KiB at n=14 (16,384 lines), 33 KiB at n=10 and 419 KiB at
# n=18, growing as 2^(n/2): the member strings of the low and high masks and
# one chunk of 2^7 lines.  Building every row tuple, every line and the
# joined text before one write peaked at 9.0 MiB at n=14.
PAYOFFS_CSV_PEAK = 256 * 1024


def test_payoffs_csv_memory_does_not_grow_with_the_lattice(tmp_path):
    n = 14
    names = tuple(f"feature_{i}" for i in range(n))
    values = np.random.default_rng(0).normal(size=1 << n)
    values[0] = 0.0
    table = PayoffTable(n, values, Target.auc(), None, names, (1 << n) - 1)
    tracemalloc.start()
    try:
        write_payoffs(tmp_path / "payoffs.csv", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "payoffs.csv").read_text().splitlines()) == 1 + (1 << n)
    assert peak < PAYOFFS_CSV_PEAK


class TestWaterfall:
    def test_banknote_layout(self, banknote_attr):
        wf = waterfall(banknote_attr)
        assert wf.baseline_label == "random baseline"
        assert wf.baseline == 0.5
        assert wf.bars[0][0] == "variance"
        assert 0.92 <= wf.total <= 0.96
        magnitudes = [abs(v) for _, v in wf.bars]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_zero_attribution(self):
        attr = Attribution(("a", "b"), np.zeros(2), 0.5, 0.5, Target.auc())
        wf = waterfall(attr)
        assert wf.baseline == wf.total == 0.5
        assert all(v == 0.0 for _, v in wf.bars)

    def test_roc_slice_baseline(self, banknote_split):
        train, test = banknote_split
        spec = GameSpec(
            Target.roc_slice(0.2), train, test, strategy=Strategy.INTERPOLATION
        )
        wf = waterfall(shapley_exact(evaluate_all(spec)))
        assert wf.baseline == 0.2
        assert 0.88 <= wf.total <= 0.96
        assert wf.total_label == "TPR at FPR=0.2"

    def test_additivity_enforced(self):
        with pytest.raises(errors.DataError):
            WaterfallSpec("base", 0.5, (("a", 0.1),), "total", 0.9)

    def test_ordering_enforced(self):
        with pytest.raises(errors.DataError):
            WaterfallSpec(
                "base", 0.5, (("a", 0.1), ("b", -0.3)), "total", 0.3
            )

    def test_render_well_formed(self, banknote_attr):
        svg = render_waterfall(waterfall(banknote_attr))
        assert_clean_svg(svg)
        assert "50.00%" in svg
        assert "AUC" in svg

    def test_negative_bars_render(self):
        attr = Attribution(
            ("up", "down"), np.array([0.3, -0.1]), 0.5, 0.7, Target.auc()
        )
        svg = render_waterfall(waterfall(attr))
        assert_clean_svg(svg)
        assert "+30.00%" in svg
        assert "-10.00%" in svg

    def test_render_structure(self):
        attr = Attribution(
            ("up", "down", "flat"), np.array([0.3, -0.1, 0.0]), 0.5, 0.7, Target.auc()
        )
        root = parse(render_waterfall(waterfall(attr)))
        n = attr.n
        assert len(root.findall(f"{SVG}rect")) == n + 2
        connectors = [el for el in root.iter(f"{SVG}line")
                      if el.get("stroke-dasharray") == "3 2"]
        assert len(connectors) == n + 1
        texts = [el.text for el in root.iter(f"{SVG}text")]
        # Each column writes its value label, then its name.
        columns = [("random baseline", "50.00%"), ("up", "+30.00%"),
                   ("down", "-10.00%"), ("flat", "+0.00%"), ("AUC", "70.00%")]
        for name, label in columns:
            at = texts.index(name)
            assert texts[at - 1] == label
        assert texts[-1] == "AUC: 70.00%"


class TestContributionCurves:
    def test_banknote_series(self, banknote_roc_curveattr):
        doc = contribution_curves(banknote_roc_curveattr)
        names = [s.name for s in doc.series]
        assert names == [
            "variance", "skewness", "kurtosis", "entropy", "combined",
        ]
        assert doc.x_label == "false positive rate"
        assert_clean_svg(doc.to_svg())

    def test_variance_uppermost_over_most_of_grid(self, banknote_roc_curveattr):
        ca = banknote_roc_curveattr
        var = ca.series("variance")
        others = np.stack(
            [ca.series(n) for n in ("skewness", "kurtosis", "entropy")]
        )
        assert (var > others.max(axis=0)).sum() >= 80

    def test_combined_is_reference_minus_baseline(self, banknote_roc_curveattr):
        doc = contribution_curves(banknote_roc_curveattr)
        combined = doc.series[-1]
        np.testing.assert_array_equal(
            combined.y,
            banknote_roc_curveattr.reference - banknote_roc_curveattr.baselines,
        )
        assert combined.dash is not None

    def test_single_point_grid(self, banknote_split):
        train, test = banknote_split
        spec = GameSpec(
            Target.roc_slice(0.5), train, test, strategy=Strategy.INTERPOLATION
        )
        ca = shapley_curve(evaluate_slices(spec, np.array([0.5])))
        svg = contribution_curves(ca).to_svg()
        assert_clean_svg(svg)
        assert "<circle" in svg  # lone points render as dots

    def test_duplicate_feature_series_coincide(self, banknote_split):
        train, test = banknote_split
        dup_train = cs.duplicate_feature(train, 0, "variance_copy")
        dup_test = cs.duplicate_feature(test, 0, "variance_copy")
        spec = GameSpec(
            Target.roc_slice(0.0), dup_train, dup_test,
            strategy=Strategy.INTERPOLATION,
        )
        ca = shapley_curve(evaluate_slices(spec, np.linspace(0, 1, 21)))
        np.testing.assert_allclose(
            ca.series("variance"), ca.series("variance_copy"), atol=1e-9
        )


class TestRelativeContributions:
    def test_shares_sum_to_one(self, banknote_roc_curveattr):
        doc = relative_contributions(banknote_roc_curveattr)
        stack = np.stack([s.y for s in doc.series])
        sums = stack.sum(axis=0)
        valid = np.isfinite(sums)
        assert valid.any()
        np.testing.assert_allclose(sums[valid], 1.0, atol=1e-9)

    def test_zero_sum_points_are_gaps(self, banknote_roc_curveattr):
        doc = relative_contributions(banknote_roc_curveattr)
        stack = np.stack([s.y for s in doc.series])
        assert np.isnan(stack[:, -1]).all()  # fpr=1: all payoffs 0
        assert_clean_svg(doc.to_svg())

    def test_variance_share_dominant_in_tail(self, banknote_roc_curveattr):
        doc = relative_contributions(banknote_roc_curveattr)
        shares = {s.name: s.y for s in doc.series}
        tail = slice(95, 100)  # fpr 0.95..0.99; 1.0 is a gap
        for other in ("skewness", "kurtosis", "entropy"):
            assert (
                shares["variance"][tail] >= shares[other][tail] - 1e-12
            ).all()

    def test_all_zero_curve_is_all_gaps(self):
        grid = default_grid(11)
        ca = cs.CurveAttribution(
            ("a",), grid, np.zeros((1, grid.size)), grid.copy(), grid.copy(),
            "roc_slice",
        )
        doc = relative_contributions(ca)
        assert np.isnan(doc.series[0].y).all()
        assert_clean_svg(doc.to_svg())


class TestBandedPlot:
    def test_zero_std_degenerates_to_line(self):
        x = np.linspace(0, 1, 5)
        b = BandedSeries(x, x.copy(), np.zeros(5), 2)
        doc = banded_plot(b)
        band = doc.bands[0]
        np.testing.assert_array_equal(band.lo, band.hi)
        assert_clean_svg(doc.to_svg())

    def test_band_clipped_to_unit_interval(self):
        x = np.linspace(0, 1, 5)
        b = BandedSeries(x, np.full(5, 0.98), np.full(5, 0.05), 3)
        doc = banded_plot(b)
        assert doc.bands[0].hi.max() == 1.0
        assert doc.bands[0].lo.min() == pytest.approx(0.93)

    def test_clip_disabled(self):
        x = np.linspace(0, 1, 5)
        b = BandedSeries(x, np.full(5, 0.98), np.full(5, 0.05), 3)
        doc = banded_plot(b, clip=None)
        assert doc.bands[0].hi.max() == pytest.approx(1.03)


class TestWhiskers:
    def test_from_mc_attribution(self, banknote):
        mc = mc_attributions(
            banknote, McConfig(iterations=3, base_seed=0), Target.auc()
        )
        chart = attribution_whiskers(mc)
        assert [b.name for b in chart.bars] == list(mc.feature_names)
        np.testing.assert_array_equal([b.value for b in chart.bars], mc.mean)
        assert_clean_svg(chart.to_svg())

    def test_negative_err_rejected(self):
        with pytest.raises(errors.DataError):
            WhiskerChart("t", "y", (WhiskerBar("a", 0.5, -0.1, "#000"),))

    def test_render_structure(self):
        bars = (WhiskerBar("a", 0.25, 0.05, "#111111"),
                WhiskerBar("b", -0.1, 0.0, "#222222"))
        root = parse(WhiskerChart("title", "y label", bars).to_svg())
        rects = root.findall(f"{SVG}rect")
        assert [r.get("fill") for r in rects] == ["#111111", "#222222"]
        whiskers = [el for el in root.iter(f"{SVG}line") if el.get("stroke") == "#333333"]
        assert len(whiskers) == 3 * len(bars)
        texts = [el.text for el in root.iter(f"{SVG}text")]
        # Each bar writes its name, then its value label above the whisker.
        assert texts[:4] == ["a", "25.00%", "b", "-10.00%"]
        assert texts[-2:] == ["y label", "title"]

    def test_no_bars_render(self):
        svg = WhiskerChart("t", "y", ()).to_svg()
        assert_clean_svg(svg)
        assert parse(svg).find(f"{SVG}rect") is None


class TestPlotDocument:
    def test_rejects_infinite(self):
        with pytest.raises(errors.DataError):
            PlotDocument(
                "t", "x", "y",
                (Series("s", np.array([0.0, 1.0]), np.array([0.0, np.inf]), "#000"),),
            )

    def test_rejects_nan_abscissa(self):
        with pytest.raises(errors.DataError):
            PlotDocument(
                "t", "x", "y",
                (Series("s", np.array([0.0, np.nan]), np.array([0.0, 1.0]), "#000"),),
            )

    def test_band_must_be_finite(self):
        x = np.array([0.0, 1.0])
        with pytest.raises(errors.DataError):
            PlotDocument(
                "t", "x", "y", (),
                (Band(x, np.array([0.0, np.nan]), x, "#000"),),
            )

    def test_ranges_cover_data(self):
        doc = PlotDocument(
            "t", "x", "y",
            (Series("s", np.array([0.0, 2.0]), np.array([-1.0, 3.0]), "#000"),),
        )
        (x_lo, x_hi), (y_lo, y_hi) = doc.data_ranges()
        assert x_lo < 0.0 < 2.0 < x_hi
        assert y_lo < -1.0 < 3.0 < y_hi

    def test_gap_series_split_into_runs(self):
        y = np.array([0.1, np.nan, 0.3, 0.4])
        doc = PlotDocument(
            "t", "x", "y",
            (Series("s", np.linspace(0, 1, 4), y, "#000"),),
        )
        svg = doc.to_svg()
        assert_clean_svg(svg)
        assert svg.count("<circle") == 1  # the isolated leading point
        assert svg.count("<polyline") == 1  # the two-point tail run
