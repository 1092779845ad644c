"""Write the reference artifacts that run.py checks the reference-seed run against.

Usage, from the root of a checkout of the commit whose outputs are the
reference (the artifacts committed here come from the seed commit):

    PYTHONPATH=src python3 perfbench/make_reference.py

For each workload it runs the CLI at the reference seed and copies the
numeric artifacts to perfbench/reference/seed<N>/<workload>/.  For the
sampled workload it also stores the exact-mode attribution of the same game
as exact_attribution.csv (65,535 coalitions; about a minute).
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from curveshap import cli

from run import REFERENCE_SEED, REFERENCES, ROOT
from workloads import WORKLOADS, write_input


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        for w in WORKLOADS.values():
            data = write_input(ROOT, tmp, w, REFERENCE_SEED)
            target = REFERENCES / w.name
            target.mkdir(parents=True, exist_ok=True)
            if cli.main(w.argv(data, tmp / w.name, REFERENCE_SEED)) != 0:
                return 1
            for name in w.artifacts:
                shutil.copyfile(tmp / w.name / name, target / name)
            if w.sampled:
                exact = replace(w, args=("explain-auc",))
                if cli.main(exact.argv(data, tmp / "exact", REFERENCE_SEED)) != 0:
                    return 1
                shutil.copyfile(tmp / "exact" / "attribution.csv",
                                target / "exact_attribution.csv")
            print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
