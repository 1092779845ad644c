"""Workload definitions: seeded input generation and the CLI argv per workload.

Each workload is one whole `curveshap` CLI run.  The program only ever sees
the generated CSV and the argv built here; the workload seed drives both the
noise columns and the CLI `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BANKNOTE = Path("src") / "curveshap" / "data" / "banknote.csv"
LABEL = "class"


@dataclass(frozen=True)
class Workload:
    name: str
    noise_columns: int
    args: tuple[str, ...]      # subcommand and its workload-specific flags
    artifacts: tuple[str, ...]  # numeric CSV outputs checked against references

    @property
    def sampled(self) -> bool:
        return "--sampled" in self.args

    def argv(self, data: Path, out: Path, seed: int) -> list[str]:
        return [
            *self.args[:1],
            "--data", str(data), "--label-column", LABEL, "--out", str(out),
            "--seed", str(seed), *self.args[1:],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-auc-wide12",
            8,
            ("explain-auc",),
            ("attribution.csv", "payoffs.csv"),
        ),
        Workload(
            "mc-slices-banknote",
            0,
            ("uncertainty", "--iterations", "100", "--slices"),
            ("attribution_mc.csv", "slice_bands.csv", "roc_band.csv"),
        ),
        Workload(
            "sampled-auc-wide16",
            12,
            ("explain-auc", "--sampled", "500"),
            ("attribution.csv",),
        ),
    )
}


def generate_csv(root: Path, noise_columns: int, seed: int) -> str:
    """Banknote plus `noise_columns` seeded N(0,1) columns, as CSV text.

    The banknote cells are copied verbatim and the noise values are written
    with `repr`, so one seed always gives the same bytes.
    """
    lines = (root / BANKNOTE).read_text().splitlines()
    header, rows = lines[0].split(","), [line for line in lines[1:] if line]
    label_at = header.index(LABEL)
    noise = np.random.default_rng(seed).standard_normal((len(rows), noise_columns))
    out = []
    for cells, extra in zip([header] + [r.split(",") for r in rows],
                            [[f"noise_{j + 1}" for j in range(noise_columns)]]
                            + [[repr(float(v)) for v in row] for row in noise]):
        features = cells[:label_at] + cells[label_at + 1:]
        out.append(",".join(features + extra + [cells[label_at]]))
    return "\n".join(out) + "\n"


def write_input(root: Path, work: Path, workload: Workload, seed: int) -> Path:
    """Write the workload's CSV for `seed` under `work` and return its path."""
    path = work / f"input-{workload.noise_columns}-{seed}.csv"
    path.write_text(generate_csv(root, workload.noise_columns, seed))
    return path
