"""Golden pin of every paper cell: ``results/golden_cells.json``.

One row per simulated cell the paper reports, at a CI-cheap quota:

* all 9 schemes x 29 benchmarks at 8x8 (Figures 9-10);
* SeparateBase and EquiNox x ``profiles.subset(5)`` at 12x12 and 16x16
  (Figure 12);
* named scenario rows: three small system cells (``system``,
  ``ring_router``, ``routerless``), one cell with a mesh link failing
  mid-run (``mesh_fault``, the only row whose packets take the
  fault-boundary detour), and two ``run_uniform`` networks
  (``synthetic``, ``low_load``) that are recomputed under both tick
  engines against the one expected row.

A cell row is keyed ``"<scheme> x <benchmark> @<w>x<w>/<config
digest>"`` and holds ``result_to_dict`` of the run without its
telemetry, plus the config it ran.  A ``run_uniform`` row holds the
cycle and delivery counts, a sha256 of the network's stats snapshot,
and the vector leg's arming counters (deterministic counts, not
timings).  The check runs every cell through ``run_sweep`` into a
fresh temporary store under ``settings.hermetic_env()``, with no
retries, so a stale record or a reseeded retry cannot pass it.

Regenerate after a deliberate behaviour change, and say why in the
commit message::

    PYTHONPATH=src python tests/test_golden_cells.py

Recompute and compare the whole table (CI's golden-cells job)::

    PYTHONPATH=src python tests/test_golden_cells.py --check --jobs 2
"""

import hashlib
import inspect
import json
import re
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro import settings
from repro.core.grid import Grid
from repro.harness.experiment import (
    ExperimentConfig,
    config_digest,
    config_to_dict,
)
from repro.harness.metrics import result_to_dict
from repro.harness.runner import SweepCell, run_sweep
from repro.harness.store import DirectoryResultStore
from repro.noc import routing
from repro.noc.faults import FaultSpec
from repro.noc.network import Network
from repro.schemes import SCHEME_ORDER
from repro.workloads import profiles
from repro.workloads.synthetic import run_uniform

GOLDEN = Path(__file__).resolve().parent.parent / "results" / "golden_cells.json"
SCHEMA = 1

GRID = ExperimentConfig(quota=24, mcts_iterations=40)
FIG12_WIDTHS = (12, 16)
FIG12_SCHEMES = ("SeparateBase", "EquiNox")

# name -> (scheme, benchmark, config) of the named system cells.
SCENARIO_CELLS = {
    "system": ("SeparateBase", "kmeans",
               ExperimentConfig(quota=40, mcts_iterations=40)),
    "ring_router": ("ring_router", "kmeans",
                    ExperimentConfig(width=6, num_cbs=5, quota=24)),
    "routerless": ("routerless", "kmeans",
                   ExperimentConfig(width=6, num_cbs=5, quota=24)),
    "mesh_fault": ("EquiNox", "kmeans", replace(GRID, faults=(
        FaultSpec(kind="mesh_link", node=27, peer=28, net="any",
                  at_cycle=100),
    ))),
}

# name -> (mesh width, injection rate, injection cycles) of a
# run_uniform network, seed 1, active scheduler.
UNIFORM = {
    "synthetic": (24, 0.08, 500),
    "low_load": (16, 0.002, 3000),
}

# The tier-1 subset's 8x8 cells: one cheap cell per scheme, each on its
# own benchmark.
TIER1_BENCHMARKS = {
    "SingleBase": "scan",
    "VC-Mono": "srad",
    "Interposer-CMesh": "vectorAdd",
    "SeparateBase": "heartwall",
    "DA2Mesh": "transpose",
    "MultiPort": "dwt2d",
    "EquiNox": "kmeans",
    "ring_router": "lud",
    "routerless": "BlackScholes",
}

# Ceiling on the pinned synthetic vector leg's golden-model fallback
# allocations, as a share of its VC allocations.
MAX_FALLBACK_SHARE = 0.05


def cell_label(cell):
    width = cell.config.width
    return (f"{cell.scheme} x {cell.benchmark} "
            f"@{width}x{width}/{config_digest(cell.config)}")


def grid_cells():
    return [SweepCell(scheme, benchmark, GRID)
            for scheme in SCHEME_ORDER for benchmark in profiles.names()]


def fig12_cells():
    return [SweepCell(scheme, profile.name, replace(GRID, width=width))
            for width in FIG12_WIDTHS
            for scheme in FIG12_SCHEMES
            for profile in profiles.subset(5)]


def scenario_cells(names=tuple(SCENARIO_CELLS)):
    return {name: SweepCell(*SCENARIO_CELLS[name]) for name in names}


def tier1_cells():
    return [SweepCell(scheme, benchmark, GRID)
            for scheme, benchmark in TIER1_BENCHMARKS.items()]


def run_cells(cells, scenarios, jobs):
    """Rows of ``cells`` plus ``scenarios`` (name -> cell), and the
    labels of cells that failed with their error's last line."""
    named = {cell_label(cell): name for name, cell in scenarios.items()}
    cells = list(cells) + list(scenarios.values())
    with settings.hermetic_env(), \
            tempfile.TemporaryDirectory(prefix="golden-cells-") as tmp:
        report = run_sweep(cells, jobs=jobs, retries=0,
                           store=DirectoryResultStore(tmp))
    rows, failed = {}, {}
    for outcome in report.outcomes:
        label = cell_label(outcome.cell)
        if not outcome.ok:
            failed[label] = outcome.error.strip().splitlines()[-1]
            continue
        row = result_to_dict(outcome.result)
        del row["telemetry"]
        row["config"] = config_to_dict(outcome.cell.config)
        if label in named:
            row["scenario"] = named[label]
        rows[label] = row
    return rows, failed


def uniform_row(name, engine):
    """One leg of a run_uniform row; the vector leg adds its arming."""
    width, rate, cycles = UNIFORM[name]
    with settings.hermetic_env():
        result = run_uniform(Grid(width), injection_rate=rate,
                             cycles=cycles, seed=1, scheduler="active",
                             engine=engine)
    net = result.network
    snapshot = json.dumps(net.stats.snapshot(), sort_keys=True)
    row = {
        "scenario": name,
        "run_uniform": {"width": width, "injection_rate": rate,
                        "cycles": cycles, "seed": 1},
        "cycles": result.cycles,
        "received": result.received,
        "stats_sha256": hashlib.sha256(snapshot.encode()).hexdigest(),
    }
    if engine == "vector":
        row["vector_arming"] = {
            "armed_cycles": net.armed_cycles,
            "arms": net.arms,
            "disarms": net.disarms,
            "fallback_allocs": net.fallback_allocs,
            "vc_allocs": net.stats.vc_allocs,
        }
    return row


def uniform_legs(rows):
    """Expand each run_uniform row into the two legs it is checked on:
    the object leg must match the row without ``vector_arming``."""
    legs = {}
    for label, row in rows.items():
        if "run_uniform" not in row:
            legs[label] = row
            continue
        legs[f"{label} [vector]"] = row
        legs[f"{label} [object]"] = {
            key: value for key, value in row.items()
            if key != "vector_arming"
        }
    return legs


def compute(cells, scenarios, uniform, jobs):
    """Recompute rows, run_uniform ones per engine leg: (label -> row,
    label -> error of each failed cell)."""
    rows, failed = run_cells(cells, scenarios, jobs)
    for name in uniform:
        for engine in ("object", "vector"):
            rows[f"{name} [{engine}]"] = uniform_row(name, engine)
    return rows, failed


def _flat(row, prefix=""):
    for key, value in row.items():
        if isinstance(value, dict):
            yield from _flat(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def first_difference(expected, actual):
    """``"<field> <expected> -> <actual>"`` for the first field, in the
    expected row's order, that differs (``None`` when equal)."""
    want = dict(_flat(expected))
    # The JSON round trip turns tuples into lists; floats survive exactly.
    got = dict(_flat(json.loads(json.dumps(actual))))
    for field in list(want) + sorted(set(got) - set(want)):
        if want.get(field, "<absent>") != got.get(field, "<absent>"):
            return (f"{field} {want.get(field, '<absent>')!r} -> "
                    f"{got.get(field, '<absent>')!r}")
    return None


def diff(expected, actual, failed=()):
    """Problems between a table and recomputed rows: failed cells, the
    first differing row and field, and every missing or extra row."""
    expected = uniform_legs(expected)
    failed = dict(failed)
    problems = [f"{label}: failed: {error}"
                for label, error in sorted(failed.items())]
    changed = [
        (label, first_difference(row, actual[label]))
        for label, row in expected.items()
        if label in actual and first_difference(row, actual[label])
    ]
    if changed:
        label, field = changed[0]
        problems.append(
            f"{len(changed)} of {len(expected)} rows differ; first "
            f"{label}: {field}"
        )
    missing = sorted(set(expected) - set(actual) - set(failed))
    extra = sorted(set(actual) - set(expected))
    if missing:
        problems.append(f"{len(missing)} rows missing: {', '.join(missing)}")
    if extra:
        problems.append(f"{len(extra)} rows extra: {', '.join(extra)}")
    return problems


def as_table(rows):
    """Fold recomputed engine legs back into one row per network."""
    return {
        label.replace(" [vector]", ""): row
        for label, row in rows.items()
        if not label.endswith(" [object]")
    }


def load(path=GOLDEN):
    """The committed table, label -> row; raises ``ValueError`` when
    its schema is not this file's."""
    data = json.loads(path.read_text())
    if data.pop("schema", None) != SCHEMA:
        raise ValueError(f"{path.name}: schema is not {SCHEMA}")
    return data


def write(rows):
    """One row per line, so a changed row is one changed line."""
    lines = [f' "schema": {SCHEMA}'] + [
        f" {json.dumps(label)}: {json.dumps(rows[label])}"
        for label in sorted(rows)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


# A part of the table: (sweep cells, name -> scenario cell, run_uniform
# network names).
ALL = (grid_cells() + fig12_cells(), scenario_cells(), tuple(UNIFORM))
# Tier-1 adds the faulted cell and the quiet run_uniform network (the
# saturated one takes ~13 s).
TIER1 = (tier1_cells(), scenario_cells(("mesh_fault",)), ("low_load",))


def labels(part):
    cells, scenarios, uniform = part
    return [cell_label(cell)
            for cell in list(cells) + list(scenarios.values())] + list(uniform)


def one_row_parts(part):
    cells, scenarios, uniform = part
    return ([([], {name: cell}, ()) for name, cell in scenarios.items()]
            + [([], {}, (name,)) for name in uniform]
            + [([cell], {}, ()) for cell in cells])


def check(table, part, jobs=1):
    """Problems of ``part`` recomputed against its rows of ``table``."""
    expected = {label: table[label] for label in labels(part)
                if label in table}
    return diff(expected, *compute(*part, jobs=jobs))


@pytest.fixture(scope="module")
def table():
    return load()


def test_table_covers_every_paper_cell(table):
    assert set(table) == set(labels(ALL))
    grid = [table[cell_label(cell)] for cell in grid_cells()]
    assert {(row["scheme"], row["benchmark"], row["width"])
            for row in grid} == {
        (scheme, benchmark, 8)
        for scheme in SCHEME_ORDER for benchmark in profiles.names()
    }
    assert len(grid) == 261
    fig12 = [table[cell_label(cell)] for cell in fig12_cells()]
    assert len(fig12) == 20
    assert {row["width"] for row in fig12} == set(FIG12_WIDTHS)
    assert {row["scenario"] for row in table.values() if "scenario" in row} \
        == set(SCENARIO_CELLS) | set(UNIFORM)


def test_loader_checks_the_schema(tmp_path):
    stale = tmp_path / "golden_cells.json"
    stale.write_text(json.dumps({"schema": SCHEMA + 1}))
    with pytest.raises(ValueError, match="schema"):
        load(stale)


def test_tier1_subset_matches_the_table(table):
    assert check(table, TIER1) == []


def test_synthetic_vector_leg_rarely_falls_back(table):
    # The batched allocator must cover the common allocation shape: at
    # most 5 % of the saturated network's VC allocations go through the
    # golden-model fallback (pinned: 7363 of 370230, 2.0 %).
    arming = table["synthetic"]["vector_arming"]
    assert arming["armed_cycles"] > 0
    assert arming["fallback_allocs"] <= (
        MAX_FALLBACK_SHARE * arming["vc_allocs"]
    )


def test_a_changed_field_is_named_with_its_row():
    row = {"cycles": 812, "latency": {"reply_queuing": 1.5}}
    label = "EquiNox x kmeans @8x8/0123"
    bumped = {"cycles": 813, "latency": {"reply_queuing": 1.5}}
    assert diff({label: row}, {label: bumped}) == [
        f"1 of 1 rows differ; first {label}: cycles 812 -> 813"
    ]
    assert diff({label: row}, {}) == [f"1 rows missing: {label}"]
    assert diff({}, {label: row}) == [f"1 rows extra: {label}"]
    assert diff({label: row}, {}, {label: "SimulationStall: stuck"}) == [
        f"{label}: failed: SimulationStall: stuck"
    ]


def _mutate(monkeypatch, owner, name, old, new):
    """Patch ``owner.name`` with a copy whose source has ``old``
    replaced by ``new`` (exactly one occurrence)."""
    func = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, (owner, name, old)
    scope = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(func),
                 "exec"), func.__globals__, scope)
    monkeypatch.setattr(owner, name, scope[name])


# mutation -> (owner, name, source text, its replacement)
MUTATIONS = {
    # The fault-boundary detour's tie-break: minimal directions tried
    # in the opposite order (only mesh_fault's packets take it).
    "minimal-ports-reversed": (
        routing, "minimal_ports", "return out", "return out[::-1]"),
    # One cycle too many in every packet's zero-load latency.
    "deliver-plus-3": (
        Network, "_deliver", "hops + packet.size + 2",
        "hops + packet.size + 3"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_tier1_subset_catches_the_mutation(mutation, monkeypatch, table):
    _mutate(monkeypatch, *MUTATIONS[mutation])
    # Row by row, stopping at the first that fails: the subset's verdict.
    problems = next(filter(None, (
        check(table, part) for part in one_row_parts(TIER1))), [])
    assert problems, "the mutation changed no pinned row"
    # The message names the row and the field.
    assert re.search(r"first \S+ x \S+ @\d+x\d+/\w+: \S+ .+ -> ",
                     problems[0]), problems


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed table instead "
                             "of writing it")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    rows, failed = compute(*ALL, jobs=args.jobs)
    # Written only if the rows agree with themselves: no failed cell,
    # and each run_uniform network's object leg matches its vector leg.
    table = load() if args.check else as_table(rows)
    problems = diff(table, rows, failed)
    if problems:
        sys.exit("\n".join(problems))
    if args.check:
        print(f"{len(table)} golden rows match")
    else:
        write(table)
        print(f"wrote {len(table)} rows to {GOLDEN}")
