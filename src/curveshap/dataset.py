"""Binary-labelled tabular datasets and the row/column operations on them.

A :class:`Dataset` is an immutable bundle of a float feature matrix, a 0/1
label vector, and per-column feature names.  Everything downstream (model
training, curve construction, coalition games) consumes projections of one
of these.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    DegenerateSplit,
    DuplicateFeatureName,
    EmptyDataset,
    IndexOutOfRange,
    InfeasibleProportion,
    MissingColumn,
    NonBinaryLabel,
    NonNumericCell,
    SingleClassLabels,
)

BANKNOTE_SHA256 = "22ef6162c8f700703856c961d42b40f1aa5d915ce41546429cd803206f82d1f3"

# Characters that make a CSV cell need quotes under csv.QUOTE_MINIMAL.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')

# Rows of a dataset CSV formatted and written at a time.
WRITE_ROWS = 1024


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix with binary labels.

    Rows are instances; columns are named features.  Labels must contain at
    least one 0 and one 1.  A dataset with zero feature columns is legal
    (it is the empty-coalition projection).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got {feats.ndim}-D")
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DataError("labels must be 1-D and match the feature row count")
        if feats.shape[0] == 0:
            raise EmptyDataset("dataset has no rows")
        if not np.isin(labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        labels = labels.astype(np.int64)
        if labels.min() == labels.max():
            raise SingleClassLabels("dataset must contain both label classes")
        if not np.isfinite(feats).all():
            raise DataError("feature values must be finite")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != feats.shape[1]:
            raise DataError(
                f"{len(names)} feature names for {feats.shape[1]} columns"
            )
        seen = set()
        for name in names:
            if name in seen:
                raise DuplicateFeatureName(name)
            seen.add(name)
        feats = np.ascontiguousarray(feats)
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def n_negative(self) -> int:
        return self.n_rows - self.n_positive

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise MissingColumn(name) from None


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test split parameters."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if self.seed < 0:
            raise DataError("seed must be non-negative")


@dataclass(frozen=True)
class ImbalanceSpec:
    """Down-sampling recipe for a target positive-class proportion."""

    positive_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.positive_fraction < 1.0:
            raise DataError(
                f"positive_fraction must lie in (0, 1), got {self.positive_fraction}"
            )
        if self.seed < 0:
            raise DataError("seed must be non-negative")


def load_csv(path: str | Path, label_column: str) -> Dataset:
    """Read a headered CSV into a :class:`Dataset`.

    Every non-label cell must parse as a finite float; the label column must
    hold 0 or 1.  Reported row numbers are 1-based file line numbers (the
    header is line 1).  The file is UTF-8, with or without a byte-order mark;
    undecodable or unparsable text is a :class:`DataError`.

    Each row's cells go through ``float()`` straight into one float64 buffer
    and its label into one byte buffer, so the table is held once, not as a
    Python float per cell.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = _csv_rows(handle, path)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path} is empty") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise MissingColumn(label_column)
        if header.count(label_column) > 1:
            raise DuplicateFeatureName(label_column)
        label_idx = header.index(label_column)
        names = [n for i, n in enumerate(header) if i != label_idx]

        # Feature cells row after row as float64 bytes.  A bytearray, not an
        # array('d'): loading the array extension raises every run's RSS.
        row_bytes = struct.Struct(f"{len(names)}d")
        values = bytearray()
        labels = bytearray()
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"row {line_no}: expected {len(header)} cells, got {len(row)}"
                )
            cells = []
            for i, cell in enumerate(row):
                text = cell.strip()
                if i == label_idx:
                    label = _parse_label(text, line_no)
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise NonNumericCell(line_no, header[i], text) from None
                if not math.isfinite(value):
                    raise NonNumericCell(line_no, header[i], text)
                cells.append(value)
            values += row_bytes.pack(*cells)
            labels.append(label)

    if not labels:
        raise EmptyDataset(f"{path} has no data rows")
    features = np.frombuffer(values, dtype=np.float64).reshape(len(labels), len(names))
    return Dataset(features, np.frombuffer(labels, dtype=np.uint8), tuple(names))


def _csv_rows(handle, path: Path):
    try:
        yield from csv.reader(handle)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot parse {path}: {exc}") from exc


def csv_cell(text: str) -> str:
    """`text` as one CSV cell, quoted by csv.QUOTE_MINIMAL rules."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write an artifact's text, whole or as an iterable of chunks written
    one after another to one handle, as UTF-8, whatever the locale's
    encoding."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines([text] if isinstance(text, str) else text)


def _parse_label(text: str, line_no: int) -> int:
    try:
        value = float(text)
    except ValueError:
        raise NonBinaryLabel(line_no, text) from None
    if value == 0.0:
        return 0
    if value == 1.0:
        return 1
    raise NonBinaryLabel(line_no, text)


def split(d: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Shuffle rows with the spec's seed and cut at floor(train_fraction * n).

    Raises :class:`DegenerateSplit` when either side misses a label class.
    """
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(d.n_rows)
    cut = math.floor(spec.train_fraction * d.n_rows)
    train_idx, test_idx = order[:cut], order[cut:]
    for side, idx in (("train", train_idx), ("test", test_idx)):
        labels = d.labels[idx]
        if idx.size == 0 or labels.min() == labels.max():
            raise DegenerateSplit(
                f"{side} side of the split does not contain both classes "
                f"(fraction={spec.train_fraction}, seed={spec.seed})"
            )
    return _take_rows(d, train_idx), _take_rows(d, test_idx)


def _take_rows(d: Dataset, idx: np.ndarray) -> Dataset:
    """The rows `idx` of `d`, an integer index array that the caller has
    checked to keep both label classes.  The rows of a checked dataset are
    finite, labelled 0/1 and named, so they are not checked again; they are
    read-only and C-contiguous like any dataset's."""
    rows = object.__new__(Dataset)
    for name, array in (("features", d.features[idx]), ("labels", d.labels[idx])):
        array.setflags(write=False)
        object.__setattr__(rows, name, array)
    object.__setattr__(rows, "feature_names", d.feature_names)
    return rows


def project(d: Dataset, features: Iterable[int]) -> Dataset:
    """Restrict to the given feature columns (kept in ascending index order)."""
    idx = sorted(set(int(i) for i in features))
    for i in idx:
        if not 0 <= i < d.n_features:
            raise IndexOutOfRange(i, d.n_features)
    cols = np.array(idx, dtype=np.intp)
    return Dataset(
        d.features[:, cols],
        d.labels,
        tuple(d.feature_names[i] for i in idx),
    )


def drop_features(d: Dataset, names: Sequence[str]) -> Dataset:
    """Remove the named feature columns, keeping the rest in place."""
    to_drop = {d.feature_index(name) for name in names}
    keep = [i for i in range(d.n_features) if i not in to_drop]
    return project(d, keep)


def subsample_imbalance(d: Dataset, spec: ImbalanceSpec) -> Dataset:
    """Down-sample positives (keeping every negative) to hit a target proportion.

    The kept positives are chosen without replacement with the spec's seed;
    surviving rows stay in their original order.  The achieved positive
    proportion is within one row of the request, else
    :class:`InfeasibleProportion` is raised.
    """
    pos_idx = np.flatnonzero(d.labels == 1)
    n_neg = d.n_rows - pos_idx.size
    p = spec.positive_fraction
    wanted = int(round(p * n_neg / (1.0 - p)))
    if wanted < 1 or wanted > pos_idx.size:
        raise InfeasibleProportion(
            f"cannot reach positive_fraction={p} by down-sampling "
            f"{pos_idx.size} positives against {n_neg} negatives"
        )
    rng = np.random.default_rng(spec.seed)
    kept_pos = rng.choice(pos_idx, size=wanted, replace=False)
    mask = np.zeros(d.n_rows, dtype=bool)
    mask[d.labels == 0] = True
    mask[kept_pos] = True
    return _take_rows(d, np.flatnonzero(mask))


def duplicate_feature(d: Dataset, index: int, new_name: str) -> Dataset:
    """Append an exact copy of column `index` under `new_name`."""
    if not 0 <= index < d.n_features:
        raise IndexOutOfRange(index, d.n_features)
    if new_name in d.feature_names:
        raise DuplicateFeatureName(new_name)
    features = np.hstack([d.features, d.features[:, index : index + 1]])
    return Dataset(features, d.labels, d.feature_names + (new_name,))


def write_dataset_csv(d: Dataset, path: str | Path, label_column: str = "class") -> None:
    """Write a dataset back to headered CSV with exact value round trips.

    The lines are written WRITE_ROWS rows at a time, so the writer holds one
    chunk of text, never the whole file.
    """
    if label_column in d.feature_names:
        raise DuplicateFeatureName(label_column)

    def chunks():
        yield ",".join(map(csv_cell, (*d.feature_names, label_column))) + "\n"
        for first in range(0, d.n_rows, WRITE_ROWS):
            rows = d.features[first:first + WRITE_ROWS].tolist()
            labels = d.labels[first:first + WRITE_ROWS].tolist()
            yield "".join([
                ",".join([*map(repr, row), str(label)]) + "\n"
                for row, label in zip(rows, labels)
            ])

    write_text(path, chunks())


def banknote_path() -> Path:
    """Path of the bundled banknote authentication fixture."""
    return Path(__file__).parent / "data" / "banknote.csv"


def load_banknote() -> Dataset:
    """Load the bundled banknote fixture, checking its SHA-256."""
    path = banknote_path()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != BANKNOTE_SHA256:
        raise DataError(f"banknote fixture hash mismatch: {digest} != {BANKNOTE_SHA256}")
    return load_csv(path, "class")
