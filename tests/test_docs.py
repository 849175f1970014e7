"""Doc drift: prose that restates the code must agree with it.

* DESIGN.md's module tree must match ``src/repro/``.  The tree in
  "System inventory" once listed a ``noc/link.py`` that never existed
  and missed whole packages; this keeps it honest in both directions.
  Packages are named by their directory line, so ``__init__.py`` files
  are not listed.
* The bench-gate figures quoted in README and docs/VECTOR.md must be the
  gate's constants (CI once quoted "3x" two releases after the floor
  became 1.4).
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _tree_paths():
    """Paths of every ``*.py`` entry in DESIGN.md's ``src/repro/`` tree."""
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("```\nsrc/repro/\n", 1)[1].split("```", 1)[0]
    stack, paths = [], []
    for line in block.splitlines():
        entry = re.match(r"^((?:  )+)([\w.]+/|[\w.]+\.py)(?:\s|$)", line)
        if entry is None:
            continue  # continuation of the previous entry's description
        depth = len(entry.group(1)) // 2 - 1
        name = entry.group(2)
        del stack[depth:]
        if name.endswith("/"):
            stack.append(name)
        else:
            paths.append("".join(stack) + name)
    return paths


def test_design_tree_matches_the_source_tree():
    named = _tree_paths()
    assert len(named) == len(set(named)), "duplicate entry in DESIGN.md"
    actual = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }
    assert set(named) - actual == set(), "DESIGN.md names missing files"
    assert actual - set(named) == set(), "modules missing from DESIGN.md"


def _paragraph(path, start):
    """The blank-line-delimited paragraph of ``path`` opening with
    ``start``."""
    text = (ROOT / path).read_text()
    return text.split("\n" + start, 1)[1].split("\n\n", 1)[0]


@pytest.mark.parametrize("path, start", [
    ("README.md", "CI's `bench-gate` job"),
    ("docs/VECTOR.md", "3. **CI bench gate**"),
], ids=["README", "VECTOR"])
def test_quoted_bench_gate_figures_are_the_constants(path, start):
    from repro.harness.bench import (
        MAX_FALLBACK_SHARE,
        MIN_ENGINE_SPEEDUP,
        MIN_LOW_LOAD_RATIO,
    )

    text = _paragraph(path, start)
    ratios = {float(x) for x in re.findall(r"(\d+(?:\.\d+)?)×", text)}
    shares = {float(x) for x in re.findall(r"(\d+(?:\.\d+)?) ?%", text)}
    assert ratios == {MIN_ENGINE_SPEEDUP, MIN_LOW_LOAD_RATIO}, text
    assert shares == {round(MAX_FALLBACK_SHARE * 100, 6)}, text
