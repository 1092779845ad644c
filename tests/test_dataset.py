import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import curveshap as cs
from curveshap import dataset, errors
from curveshap.dataset import _take_rows, write_dataset_csv

from conftest import make_blobs
from oracles import reference_load_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "a,b,y\n1.5,2,0\n-0.25,4,1\n")
        d = cs.load_csv(path, "y")
        assert d.feature_names == ("a", "b")
        assert d.n_rows == 2
        np.testing.assert_array_equal(d.features, [[1.5, 2.0], [-0.25, 4.0]])
        np.testing.assert_array_equal(d.labels, [0, 1])

    def test_label_column_anywhere(self, tmp_path):
        path = write(tmp_path, "y,a\n0,1\n1,2\n")
        d = cs.load_csv(path, "y")
        assert d.feature_names == ("a",)
        np.testing.assert_array_equal(d.features[:, 0], [1.0, 2.0])

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,0\n2,1\n")
        with pytest.raises(errors.MissingColumn):
            cs.load_csv(path, "y")

    def test_non_numeric_cell_position(self, tmp_path):
        path = write(tmp_path, "a,y\n1,0\noops,1\n")
        with pytest.raises(errors.NonNumericCell) as exc:
            cs.load_csv(path, "y")
        assert exc.value.row == 3
        assert exc.value.column == "a"

    def test_non_finite_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\nnan,0\n1,1\n")
        with pytest.raises(errors.NonNumericCell):
            cs.load_csv(path, "y")

    def test_non_binary_label(self, tmp_path):
        path = write(tmp_path, "a,y\n1,0\n2,2\n")
        with pytest.raises(errors.NonBinaryLabel) as exc:
            cs.load_csv(path, "y")
        assert exc.value.row == 3

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(errors.EmptyDataset):
            cs.load_csv(path, "y")

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a,y\n")
        with pytest.raises(errors.EmptyDataset):
            cs.load_csv(path, "y")

    def test_duplicate_feature_name(self, tmp_path):
        path = write(tmp_path, "a,a,y\n1,2,0\n3,4,1\n")
        with pytest.raises(errors.DuplicateFeatureName):
            cs.load_csv(path, "y")

    def test_duplicate_label_column(self, tmp_path):
        # a second label column would be loaded as a feature named like it
        path = write(tmp_path, "a,y,y\n1,0,0\n3,1,1\n")
        with pytest.raises(errors.DuplicateFeatureName):
            cs.load_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,y\n1,0\n2\n")
        with pytest.raises(errors.DataError):
            cs.load_csv(path, "y")

    def test_two_row_minimal(self, tmp_path):
        path = write(tmp_path, "a,y\n5,0\n6,1\n")
        d = cs.load_csv(path, "y")
        assert d.n_rows == 2

    def test_byte_order_mark_dropped(self, tmp_path):
        """Spreadsheet tools write UTF-8 with a BOM; it is not part of a name."""
        path = write(tmp_path, "\ufeffy,a\n0,1\n1,2\n")
        assert cs.load_csv(path, "y").feature_names == ("a",)
        path = write(tmp_path, "\ufeffa,y\n0,1\n1,0\n")
        assert cs.load_csv(path, "y").feature_names == ("a",)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,y\n1\xff,0\n2,1\n")
        with pytest.raises(errors.DataError, match="cannot parse"):
            cs.load_csv(path, "y")

    def test_oversized_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a,y\n1" + "0" * 200_000 + ",0\n2,1\n")
        with pytest.raises(errors.DataError, match="field larger"):
            cs.load_csv(path, "y")


# Whitespace that str.strip() and float() both drop: ASCII, and Unicode
# spaces and separators.
_SPACES = st.sampled_from(["", " ", "\t", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u3000"])
_VALID_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "1_0", "+3", ".5", "1e308", "-1e308", "5e-324", "\u0661\u0662"]),
)
_BAD_NUMBERS = st.sampled_from(["nan", "-inf", "Infinity", "1e999", "abc", "", "1__0", "0x1"])
# The simplest label alternates between rows, so that most files hold both
# classes.
_VALID_LABELS = [st.sampled_from(["0", "1", "0.0", "1e0", "-0", "+1"]),
                 st.sampled_from(["1", "0", "1e0", "0.0", "+1", "-0"])]
_BAD_LABELS = st.sampled_from(["2", "0.5", "nan", "inf", "yes", "", "1_0"])


def _mostly(valid, bad):
    """`valid` nine draws in ten, else `bad`, so that most small files parse."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 9 else valid)


@st.composite
def csv_texts(draw):
    """A small CSV text with a label column `y`: cells with whitespace around
    them, finite and non-finite floats, non-numeric cells and labels, short
    and long rows, blank lines, a byte-order mark or none."""
    width = draw(st.integers(1, 4))
    label_idx = draw(st.integers(0, width - 1))
    names = draw(st.lists(st.sampled_from(["a", "b", " c", "c"]), min_size=width - 1,
                          max_size=width - 1))
    header = names[:label_idx] + [draw(st.sampled_from(["y", " y"]))] + names[label_idx:]
    lines = [",".join(header)]
    for r in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 7)) == 7:
            lines.append("")
            continue
        n_cells = draw(st.sampled_from([width] * 12 + [width - 1, width + 1]))
        cells = []
        for i in range(n_cells):
            token = draw(_mostly(_VALID_LABELS[r % 2], _BAD_LABELS) if i == label_idx
                         else _mostly(_VALID_NUMBERS, _BAD_NUMBERS))
            cells.append(draw(_SPACES) + token + draw(_SPACES))
        lines.append(",".join(cells))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + end.join(lines) + draw(st.sampled_from(["", end]))


def _load_outcome(load, path):
    """What `load` makes of the file: the dataset's features, labels and
    names, bit for bit, or the class and message of the error it raised."""
    try:
        d = load(path, "y")
    except errors.CurveshapError as exc:
        return type(exc), str(exc)
    return (d.features.shape, d.features.dtype, d.features.tobytes(),
            d.labels.dtype, d.labels.tobytes(), d.feature_names)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("parity")


@settings(max_examples=400)
@given(text=csv_texts())
@example(text="a,y\n1.5,0\n-0.0,1\n")
@example(text="\ufeffy\n0\n\n1\n")                          # label-only file, blank line
@example(text="a,y,b\n1,0,2\n1e999,1,2\n")                    # inf cell
@example(text="a,y,b\n1,0,2\nx,2,2\n")                       # bad number before a bad label
@example(text="a,y,b\n1,0,2\n1,2,x\n")                       # bad label before a bad number
@example(text="a,y\n1,0\noops,1\n1,7\n")                     # errors in two rows
@example(text="a,y\n1,0\n2\n")                               # short row
@example(text="a,y\n1,0\n2,1,3\n")                           # long row
@example(text="a,y\n1e308,0\n1e308,1\n")
@example(text="a,b,y\n1e308,1e308,0\n-1e308,2,1\n")          # finite cells near the float limit
@example(text="a,y\n\u20031_0\xa0,0\n\t2 ,1\n")
def test_load_csv_matches_the_per_cell_reference(csv_dir, text):
    """The buffered loader returns the per-cell loop's features, labels and
    names bit for bit, or raises its error class with its message."""
    path = csv_dir / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _load_outcome(cs.load_csv, path) == _load_outcome(reference_load_csv, path)


def test_load_csv_memory_is_bounded_by_the_array(tmp_path):
    """Loading a 10,000 × 30 CSV peaks below twice the bytes of its features
    array: the cells live in one float64 buffer, not as a Python float each
    (which peaks at about 5.5 times the array)."""
    d = make_blobs(np.random.default_rng(7), n_rows=10_000, n_features=30)
    path = tmp_path / "wide.csv"
    write_dataset_csv(d, path)
    tracemalloc.start()
    try:
        loaded = cs.load_csv(path, "class")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.features.shape == (10_000, 30)
    assert peak < 2 * loaded.features.nbytes


class TestDatasetValidation:
    def test_single_class_rejected(self):
        with pytest.raises(errors.SingleClassLabels):
            cs.Dataset(np.zeros((3, 1)), np.array([1, 1, 1]), ("a",))

    def test_non_binary_rejected(self):
        with pytest.raises(errors.DataError):
            cs.Dataset(np.zeros((2, 1)), np.array([0, 2]), ("a",))

    def test_no_rows_rejected(self):
        with pytest.raises(errors.EmptyDataset):
            cs.Dataset(np.zeros((0, 1)), np.array([]), ("a",))

    def test_nan_rejected(self):
        with pytest.raises(errors.DataError):
            cs.Dataset(np.array([[np.nan], [1.0]]), np.array([0, 1]), ("a",))

    def test_name_count_mismatch(self):
        with pytest.raises(errors.DataError):
            cs.Dataset(np.zeros((2, 2)), np.array([0, 1]), ("a",))

    def test_duplicate_names(self):
        with pytest.raises(errors.DuplicateFeatureName):
            cs.Dataset(np.zeros((2, 2)), np.array([0, 1]), ("a", "a"))

    def test_arrays_read_only(self, blobs):
        with pytest.raises(ValueError):
            blobs.features[0, 0] = 99.0


class TestSplit:
    def test_banknote_sizes(self, banknote):
        train, test = cs.split(banknote, cs.SplitSpec(0.8, 7))
        assert train.n_rows == 1097  # floor(0.8 * 1372)
        assert test.n_rows == 275

    def test_deterministic(self, blobs):
        a = cs.split(blobs, cs.SplitSpec(0.8, 7))
        b = cs.split(blobs, cs.SplitSpec(0.8, 7))
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_seed_changes_split(self, blobs):
        a, _ = cs.split(blobs, cs.SplitSpec(0.8, 0))
        b, _ = cs.split(blobs, cs.SplitSpec(0.8, 1))
        assert not np.array_equal(a.features, b.features)

    def test_degenerate_split(self):
        d = cs.Dataset(np.arange(3.0).reshape(3, 1), np.array([1, 0, 0]), ("a",))
        with pytest.raises(errors.DegenerateSplit):
            cs.split(d, cs.SplitSpec(0.34, 0))

    @pytest.mark.parametrize("labels, fraction, side", [
        ([1, 0, 0], 0.34, "train"), ([1, 0, 1, 0], 0.75, "test"),
    ])
    def test_degenerate_split_names_its_side(self, labels, fraction, side):
        d = cs.Dataset(np.arange(len(labels), dtype=float).reshape(-1, 1), np.array(labels),
                       ("a",))
        message = (f"{side} side of the split does not contain both classes "
                   f"(fraction={fraction}, seed=0)")
        with pytest.raises(errors.DegenerateSplit) as caught:
            cs.split(d, cs.SplitSpec(fraction, 0))
        assert str(caught.value) == message

    def test_fraction_bounds(self):
        with pytest.raises(errors.DataError):
            cs.SplitSpec(1.0, 0)
        with pytest.raises(errors.DataError):
            cs.SplitSpec(0.0, 0)

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), frac=st.floats(0.2, 0.8))
    def test_partition_disjoint_exhaustive(self, seed, frac):
        d = make_blobs(np.random.default_rng(3), n_rows=37)
        try:
            train, test = cs.split(d, cs.SplitSpec(frac, seed))
        except errors.DegenerateSplit:
            return
        assert train.n_rows + test.n_rows == d.n_rows
        combined = np.vstack([train.features, test.features])
        assert (
            np.sort(combined, axis=0) == np.sort(d.features, axis=0)
        ).all()


@settings(max_examples=60)
@given(n_features=st.integers(0, 3), data=st.data())
def test_take_rows_equals_the_checked_constructor(n_features, data):
    """A row subset of a checked dataset, built without checking its rows
    again, equals the one the public constructor builds, field by field."""
    d = make_blobs(np.random.default_rng(5), n_rows=30, n_features=n_features)
    idx = np.array(data.draw(st.lists(st.integers(0, 29), min_size=2, max_size=30,
                                      unique=True)))
    assume(d.labels[idx].min() < d.labels[idx].max())
    taken = _take_rows(d, idx)
    checked = cs.Dataset(d.features[idx], d.labels[idx], d.feature_names)
    for field in ("features", "labels"):
        a, b = getattr(taken, field), getattr(checked, field)
        np.testing.assert_array_equal(a, b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert (a.flags.writeable, a.flags.c_contiguous) == (b.flags.writeable,
                                                             b.flags.c_contiguous)
    assert taken.feature_names == checked.feature_names


class TestProject:
    def test_column_selection(self, banknote):
        p = cs.project(banknote, [0, 2])
        assert p.feature_names == ("variance", "kurtosis")
        np.testing.assert_array_equal(p.features[:, 1], banknote.features[:, 2])

    def test_full_identity(self, blobs):
        p = cs.project(blobs, range(blobs.n_features))
        np.testing.assert_array_equal(p.features, blobs.features)
        assert p.feature_names == blobs.feature_names

    def test_empty_coalition(self, blobs):
        p = cs.project(blobs, [])
        assert p.n_features == 0
        assert p.n_rows == blobs.n_rows
        np.testing.assert_array_equal(p.labels, blobs.labels)

    def test_out_of_range(self, blobs):
        with pytest.raises(errors.IndexOutOfRange):
            cs.project(blobs, [5])

    def test_composition(self, banknote):
        # project(d, A∩B) == project(project(d, A), positions of B within A)
        a = [0, 1, 3]
        b = [1, 3]
        inner = cs.project(banknote, a)
        positions = [a.index(i) for i in b]
        left = cs.project(banknote, b)
        right = cs.project(inner, positions)
        np.testing.assert_array_equal(left.features, right.features)
        assert left.feature_names == right.feature_names


class TestImbalance:
    def test_banknote_ten_percent(self, banknote):
        sub = cs.subsample_imbalance(banknote, cs.ImbalanceSpec(0.10, 0))
        assert sub.n_negative == banknote.n_negative  # negatives all kept
        proportion = sub.n_positive / sub.n_rows
        assert abs(proportion - 0.10) <= 1.0 / sub.n_rows

    def test_existing_proportion_is_noop(self, banknote):
        p = banknote.n_positive / banknote.n_rows
        sub = cs.subsample_imbalance(banknote, cs.ImbalanceSpec(p, 3))
        np.testing.assert_array_equal(sub.features, banknote.features)
        np.testing.assert_array_equal(sub.labels, banknote.labels)

    def test_infeasible(self):
        d = cs.Dataset(
            np.arange(3.0).reshape(3, 1), np.array([1, 0, 0]), ("a",)
        )
        with pytest.raises(errors.InfeasibleProportion):
            cs.subsample_imbalance(d, cs.ImbalanceSpec(0.10, 0))

    def test_cannot_upsample(self, banknote):
        with pytest.raises(errors.InfeasibleProportion) as caught:
            cs.subsample_imbalance(banknote, cs.ImbalanceSpec(0.9, 0))
        assert str(caught.value) == ("cannot reach positive_fraction=0.9 by down-sampling "
                                     "610 positives against 762 negatives")

    def test_deterministic(self, banknote):
        a = cs.subsample_imbalance(banknote, cs.ImbalanceSpec(0.10, 5))
        b = cs.subsample_imbalance(banknote, cs.ImbalanceSpec(0.10, 5))
        np.testing.assert_array_equal(a.features, b.features)


class TestDuplicateAndDrop:
    def test_duplicate_appends_bitwise_copy(self, banknote):
        dup = cs.duplicate_feature(banknote, 0, "variance_copy")
        assert dup.feature_names[-1] == "variance_copy"
        assert dup.n_features == 5
        assert (dup.features[:, 4] == dup.features[:, 0]).all()

    def test_duplicate_project_round_trip(self, banknote):
        dup = cs.duplicate_feature(banknote, 0, "variance_copy")
        back = cs.project(dup, range(banknote.n_features))
        np.testing.assert_array_equal(back.features, banknote.features)
        assert back.feature_names == banknote.feature_names

    def test_duplicate_name_collision(self, banknote):
        with pytest.raises(errors.DuplicateFeatureName):
            cs.duplicate_feature(banknote, 0, "skewness")

    def test_duplicate_bad_index(self, blobs):
        with pytest.raises(errors.IndexOutOfRange):
            cs.duplicate_feature(blobs, 9, "x")

    def test_drop_features(self, banknote):
        d = cs.drop_features(banknote, ["kurtosis", "entropy"])
        assert d.feature_names == ("variance", "skewness")

    def test_drop_unknown(self, banknote):
        with pytest.raises(errors.MissingColumn):
            cs.drop_features(banknote, ["nope"])


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path, blobs):
        path = tmp_path / "out.csv"
        write_dataset_csv(blobs, path, "label")
        back = cs.load_csv(path, "label")
        np.testing.assert_array_equal(back.features, blobs.features)
        np.testing.assert_array_equal(back.labels, blobs.labels)
        assert back.feature_names == blobs.feature_names

    def test_names_with_commas_quotes_and_newlines(self, tmp_path):
        names = ("va,r", 'sk"ew', "kur\ntosis", "a\rb", "plain")
        d = cs.Dataset(np.arange(10.0).reshape(2, 5), np.array([0, 1]), names)
        path = tmp_path / "out.csv"
        write_dataset_csv(d, path, "la,bel")
        back = cs.load_csv(path, "la,bel")
        assert back.feature_names == names
        np.testing.assert_array_equal(back.features, d.features)

    def test_writer_memory_is_bounded_by_the_chunk(self, tmp_path):
        """Writing 10,000 × 30 values peaks at a few chunks of WRITE_ROWS
        lines (the chunk's values, lines, text and its encoding), well below
        the text of the whole file."""
        d = make_blobs(np.random.default_rng(7), n_rows=10_000, n_features=30)
        path = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            write_dataset_csv(d, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        chunk = size * dataset.WRITE_ROWS / d.n_rows
        assert peak < 6 * chunk < size


class TestBanknoteFixture:
    def test_shape_and_classes(self, banknote):
        assert banknote.n_rows == 1372
        assert banknote.feature_names == (
            "variance", "skewness", "kurtosis", "entropy",
        )
        assert banknote.n_negative == 762
        assert banknote.n_positive == 610

    def test_hash_documented(self):
        digest = hashlib.sha256(cs.banknote_path().read_bytes()).hexdigest()
        assert digest == cs.dataset.BANKNOTE_SHA256

    def test_known_rows(self, banknote):
        np.testing.assert_allclose(
            banknote.features[0], [3.6216, 8.6661, -2.8073, -0.44699]
        )
        assert banknote.labels[0] == 0
        np.testing.assert_allclose(
            banknote.features[-1], [-2.5419, -0.65804, 2.6842, 1.1952]
        )
        assert banknote.labels[-1] == 1
