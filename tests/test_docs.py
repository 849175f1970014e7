"""Doc drift: DESIGN.md's module tree must match ``src/repro/``.

The tree in "System inventory" once listed a ``noc/link.py`` that never
existed and missed whole packages; this keeps it honest in both
directions.  Packages are named by their directory line, so
``__init__.py`` files are not listed.
"""

import re
from pathlib import Path

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
