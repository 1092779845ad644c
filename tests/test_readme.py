"""The README's Python examples run as written."""

import re
from pathlib import Path

import curveshap as cs

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_run_in_order():
    """Every ```python block of README.md runs, in order and in one namespace,
    and every AUC/ROC consistency gap of the quickstart is within the bound
    its comment states."""
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    bounds = []
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        bound = re.search(r"auc_roc_consistency\(attr, ca\)\).*<= ([0-9.]+)", block)
        if bound:
            gaps = cs.auc_roc_consistency(namespace["attr"], namespace["ca"])
            assert (gaps <= float(bound.group(1))).all(), gaps
            bounds.append(float(bound.group(1)))
    assert bounds == [0.02]
