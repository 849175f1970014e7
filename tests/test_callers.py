"""Every public ``def`` and ``class`` in ``src/repro`` has a caller.

A name counts as called when it occurs as a whole word in ``src/``,
``bench/``, ``benchmarks/`` or ``examples/`` outside its own definition.
Tests do not count: a function only its own test calls is dead code,
so it goes with its test.  The exceptions are test oracles and safety
counters, each named in ``ALLOWED`` with the reason it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

ALLOWED = {
    "same_row": "test oracle: placements never put two CBs on a row",
    "same_col": "test oracle: placements never put two CBs on a column",
    "same_diagonal": "test oracle: placements never put two CBs on a "
                     "diagonal",
    "direction_name": "the paper's x+/x-/y+/y- label of an EIR direction",
    "is_valid_solution": "test oracle: an N-Queen checker independent of "
                         "the solver",
    "count_solutions": "test oracle: the known N-Queen solution counts",
    "design_space_size": "the EIR design-space size the paper quotes "
                         "(~1.7e10 at 8x8)",
    "by_direction": "test oracle: an EIR group as direction -> node",
    "eir_nodes": "test oracle: no EIR sits on a CB or on another group",
    "hot_zone": "test oracle: the union of a CB's two access zones",
    "corrupt_evictions": "safety counter: corrupt design-cache entries "
                         "evicted since the last clear",
    "faulted": "test oracle: whether a verify case's fault plan can fire "
               "inside its window",
}

_WORD = re.compile(r"\w+")


def _sources():
    """Every caller-side file's lines, by path."""
    return {
        path: path.read_text().splitlines()
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def _uncalled():
    """Public names in ``src/repro`` that nothing outside their own
    definition mentions, as ``{name: "path:line"}``."""
    sources = _sources()
    words = Counter()
    for lines in sources.values():
        for line in lines:
            words.update(_WORD.findall(line))
    uncalled = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        lines = sources[path]
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            own = sum(
                _WORD.findall(line).count(node.name)
                for line in lines[node.lineno - 1:node.end_lineno]
            )
            if words[node.name] == own:
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                uncalled[node.name] = where
    return uncalled


def test_every_public_symbol_has_a_caller():
    dead = {
        name: where for name, where in _uncalled().items()
        if name not in ALLOWED
    }
    assert dead == {}, (
        "no caller in src/, bench/, benchmarks/ or examples/; delete "
        "these (and their tests) or add them to ALLOWED with a reason"
    )


def test_allowed_names_are_still_uncalled():
    # An entry whose name gained a caller, or lost its definition, is
    # stale: drop it so ALLOWED stays the list of real exceptions.
    assert sorted(_uncalled()) == sorted(ALLOWED)
