"""Doc drift: prose that restates the code must agree with it.

* DESIGN.md's module tree must match ``src/repro/``.  The tree in
  "System inventory" once listed a ``noc/link.py`` that never existed
  and missed whole packages; this keeps it honest in both directions.
  Packages are named by their directory line, so ``__init__.py`` files
  are not listed.
* Nothing outside the history files describes the retired checksum
  command, its baseline or its CI job, and README's row count of the
  golden cell table is the table's.
* Every line of ``BENCH_HISTORY.jsonl`` has the keys
  ``tools/bench_history.py`` writes, and versions never go back.
"""

import json
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


# Where the project describes itself.  CHANGES.md and ROADMAP.md keep
# history, and bench/ changes only with the benchmark itself.
DESCRIBED = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml",
    ".gitignore", ".github", "docs", "src", "tests", "examples",
    "benchmarks", "results",
)
# Mechanisms that are gone, and what replaced them.  Each term may
# appear only in bench/, CHANGES.md and ROADMAP.md, which are not
# scanned.
RETIRED_TERMS = (
    # The checksum command, its baseline file and its CI job: the golden
    # cell table (tests/test_golden_cells.py) replaced them.
    r"repro bench\b", r"BENCH_BASELINE", r"bench-gate",
    # Quiescence fast-forward: System.run simulates every base cycle.
    # System.fast_forwarded_cycles stays (always 0) for bench/.
    r"(?i:fast[-_]forward)(?!ed_cycles)", r"timer_only",
    r"next_event_cycle", r"skip_cycle", r"_skippable_cycles",
    r"quiescence-skipped",
    # Public names nothing but their own tests called (the caller guard,
    # tests/test_callers.py, removed them).
    r"\bbuild_mesh\b", r"\bno_eir_design\b", r"\bdefault_config\b",
    r"\bassert_healthy\b", r"\brouter_area_mm2\b",
    r"\blink_ubump_area_mm2\b", r"\bread_jsonl\b", r"\bartifact_bytes\b",
    r"\brun_many_to_few\b", r"\bdirection_name\b",
    r"\bdesign_space_size\b", r"\bcount_solutions\b",
)
RETIRED = re.compile("|".join(RETIRED_TERMS))


def test_nothing_describes_a_retired_mechanism():
    mentions = []
    for name in DESCRIBED:
        top = ROOT / name
        for path in [top] if top.is_file() else sorted(top.rglob("*")):
            if not path.is_file() or path == Path(__file__).resolve() \
                    or "__pycache__" in path.parts:
                continue
            text = path.read_text(errors="ignore")
            mentions += [f"{path.relative_to(ROOT)}: {match.group()}"
                         for match in RETIRED.finditer(text)]
    assert mentions == []


def test_readme_quotes_the_golden_row_count():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Golden cells\n", 1)[1].split("\n## ", 1)[0]
    quoted = {int(n) for n in re.findall(r"(\d+) rows\b", section)}
    table = json.loads((ROOT / "results" / "golden_cells.json").read_text())
    assert quoted == {len(table) - 1}  # every key but "schema" is a row


def test_bench_history_lines_have_every_key_in_version_order():
    lines = (ROOT / "BENCH_HISTORY.jsonl").read_text().splitlines()
    versions = []
    for number, line in enumerate(lines, 1):
        point = json.loads(line)
        assert set(point) == {
            "version", "commit", "nproc", "host.calibration_s",
            "workloads", "tier1", "full_sweep", "note",
        }, f"line {number}"
        assert point["workloads"], f"line {number}"
        for workload in point["workloads"].values():
            assert set(workload) == {
                "wall_s", "setup_s", "peak_rss_mb", "seeds", "seconds",
            }, f"line {number}"
        if point["tier1"] is not None:
            assert set(point["tier1"]) == {"wall_s", "top5"}
        if point["full_sweep"] is not None:
            assert set(point["full_sweep"]) == {"wall_s", "cpu_s"}
        versions.append(tuple(map(int, point["version"].split("."))))
    assert len(versions) >= 2
    assert versions == sorted(versions)
