"""Behaviour checksums and same-run engine gates (``repro bench``).

Scenarios bracket the simulator's tick hot path (:data:`SCENARIOS`):

* ``synthetic`` — uniform random traffic on a saturated 24x24 network,
  dominated by the allocation/traversal loop; ``synthetic_vector``
  runs it under the vector engine, which must reproduce the object
  engine's checksum bit-for-bit while clearing a minimum speedup;
* ``low_load`` — a 16x16 network at a 0.2% injection rate, the
  mostly-idle regime the active-set scheduler exists for (twin:
  ``low_load_vector``);
* ``system`` — one full (scheme, benchmark) cell through the GPU model,
  the shape every harness sweep repeats hundreds of times;
* ``ring_router`` / ``routerless`` — full-system cells on the two loop
  baselines (object engine only), on a 6x6 mesh: the serpentine ring's
  average hop count grows with the square of the width, so 6x6 already
  costs about what ``system`` does.

Each scenario reports a behaviour checksum over the simulated
statistics and its best-of-``repeat`` wall-clock time.  ``compare_bench``
gates a run against a baseline on checksums — a changed or missing one
means simulated behaviour drifted — plus the same-run engine checks of
:func:`engine_violations`, whose ratios come from one run on one
machine.  The baseline's timings are informational and never read:
comparing speed across commits is the repository benchmark's job
(``bench/``, paired runs on one host).  ``repro bench`` wires this into
CI as the bench-gate job against the committed ``BENCH_BASELINE.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .. import __version__
from ..core.grid import Grid
from ..workloads.synthetic import run_uniform

BENCH_SCHEMA = 4

# Baseline schemas the gate reads: 4 only dropped top-level fields, so a
# schema-3 baseline's rows carry the same checksums and gate the same.
GATE_SCHEMAS = (3, BENCH_SCHEMA)

# The vector engine must beat the object engine by at least this factor
# on the saturated ``synthetic`` scenario (wall-clock cycles/s measured
# on the same machine in the same run, so machine speed cancels out).
# Measured 1.80-1.93x (object 7.3 s, vector 3.8-4.05 s) on a host that
# reads 1.13 at 2.96x (13.9 / 4.7 s): 1.14 halved the denominator, not
# the SoA.  The floor stays 77 % of the measurement, as 3.0 was of 3.9.
MIN_ENGINE_SPEEDUP = 1.4

# ...and may not fall below this fraction of it on the quiet
# ``low_load`` scenario, where the occupancy-adaptive engine should be
# ticking through the object path (same run, same machine).
MIN_LOW_LOAD_RATIO = 0.8

# The vector engine batches the common allocation shape and hands every
# other attempt, one router at a time, to the object model's
# ``Router._route_and_allocate`` — exact but ~50 us a call.  That is only
# the cheaper design while such attempts are rare: on ``synthetic_vector``
# at most this many per successful VC allocation (counts from one run,
# so machine-independent; measured 0.022).
MAX_FALLBACK_SHARE = 0.05

# (vector scenario, object scenario) pairs whose behaviour checksums
# must agree: both engines simulate the identical configuration.
ENGINE_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("synthetic_vector", "synthetic"),
    ("low_load_vector", "low_load"),
)

# name -> (engine, kind, arguments), all under the active scheduler: a
# ``uniform`` row runs ``run_uniform`` on (mesh width, injection rate,
# injection cycles), a ``system`` row one (scheme, benchmark,
# ExperimentConfig kwargs) cell.
SCENARIOS: Dict[str, Tuple[str, str, tuple]] = {
    "synthetic": ("object", "uniform", (24, 0.08, 500)),
    "synthetic_vector": ("vector", "uniform", (24, 0.08, 500)),
    "low_load": ("object", "uniform", (16, 0.002, 3000)),
    "low_load_vector": ("vector", "uniform", (16, 0.002, 3000)),
    "system": ("object", "system", (
        "SeparateBase", "kmeans", {"quota": 40, "mcts_iterations": 40},
    )),
    "ring_router": ("object", "system", (
        "ring_router", "kmeans", {"width": 6, "num_cbs": 5, "quota": 24},
    )),
    "routerless": ("object", "system", (
        "routerless", "kmeans", {"width": 6, "num_cbs": 5, "quota": 24},
    )),
}

_CALIBRATION_LOOPS = 2_000_000


def calibrate(repeat: int = 3) -> float:
    """Wall-clock seconds for a fixed pure-Python loop (best of N).

    A machine-speed yardstick: the repository benchmark (``bench/``)
    records it as ``host.calibration_s`` next to every run, so two runs
    can be told apart by host speed.  Nothing here gates on it.
    """
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_LOOPS):
            acc += i
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _time_best(repeat: int, fn: Callable[[], object]):
    """Best-of-N wall-clock timing; returns (seconds, last result)."""
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _network_checksum(result) -> str:
    return hashlib.sha256(
        json.dumps(result.network.stats.snapshot(), sort_keys=True).encode()
    ).hexdigest()[:10]


def arming_note(row: Dict[str, object]) -> str:
    """How a vector row spent its cycles: never armed, armed, thrashing."""
    arming = row.get("arming")
    if not arming:
        return ""
    return (
        f"  armed {arming['armed_cycles']}/{row['cycles']} cycles "
        f"({arming['arms']} arms, {arming['disarms']} disarms), "
        f"fallback {arming['fallback_allocs']}/{arming['vc_allocs']} allocs"
    )


def run_scenario(name: str, repeat: int = 3) -> Dict[str, object]:
    """Run one named scenario of :data:`SCENARIOS`; returns its row."""
    engine, kind, args = SCENARIOS[name]
    if kind == "uniform":
        width, rate, cycles = args
        best, result = _time_best(repeat, lambda: run_uniform(
            Grid(width), injection_rate=rate, cycles=cycles, seed=1,
            scheduler="active", engine=engine,
        ))
        checksum = _network_checksum(result)
        received = result.received
    else:
        from .experiment import ExperimentConfig, run_experiment

        scheme, benchmark, kwargs = args
        config = ExperimentConfig(scheduler="active", engine=engine,
                                  **kwargs)
        best, result = _time_best(
            repeat, lambda: run_experiment(scheme, benchmark, config)
        )
        checksum = (f"{result.cycles}/{result.instructions}/"
                    f"{result.stats_fingerprint[:10]}")
        received = result.instructions
    row = {
        "engine": engine,
        "cycles": result.cycles,
        "seconds": best,
        "cycles_per_s": result.cycles / best,
        "checksum": checksum,
        "received": received,
    }
    if engine == "vector":
        net = result.network
        row["arming"] = {
            "armed_cycles": net.armed_cycles,
            "arms": net.arms,
            "disarms": net.disarms,
            "fallback_allocs": net.fallback_allocs,
            "vc_allocs": net.stats.vc_allocs,
        }
    return row


def run_bench(
    scenarios: Optional[Iterable[str]] = None, repeat: int = 3
) -> Dict[str, object]:
    """Run the scenario suite (default: all); returns the BENCH payload."""
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    return {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "repeat": repeat,
        "scenarios": {name: run_scenario(name, repeat) for name in names},
    }


def write_bench(path, data: Dict[str, object]) -> Path:
    """Write a BENCH payload as stable, human-diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return path


def _gate_rows(baseline: object) -> Optional[Dict[str, Dict[str, object]]]:
    """The baseline's scenario rows, if non-empty and all checksummed."""
    rows = baseline.get("scenarios") if isinstance(baseline, dict) else None
    if isinstance(rows, dict) and rows and all(
        isinstance(row, dict) and "checksum" in row for row in rows.values()
    ):
        return rows
    return None


def _baseline_problems(baseline: object) -> List[str]:
    """Why ``baseline`` cannot gate a run (empty when it can)."""
    problems = []
    schema = baseline.get("schema") if isinstance(baseline, dict) else None
    if schema not in GATE_SCHEMAS:
        problems.append(
            f"schema {schema!r} does not match the gate's schema "
            f"{BENCH_SCHEMA} (refresh BENCH_BASELINE)"
        )
    if _gate_rows(baseline) is None:
        problems.append(
            "no scenarios to compare against (empty or malformed "
            "baseline — the gate cannot pass vacuously)"
        )
    return problems


def load_bench(path) -> Dict[str, object]:
    """Read a BENCH payload the gate can use; raises ``OSError`` if the
    file cannot be read, ``ValueError`` if it is not JSON or cannot gate."""
    data = json.loads(Path(path).read_text())
    problems = _baseline_problems(data)
    if problems:
        raise ValueError("; ".join(problems))
    return data


def _vector_ratio(
    rows: Dict[str, Dict[str, object]], name: str
) -> Optional[float]:
    """``<name>_vector`` cycles/s over ``<name>``'s, if both rows ran."""
    vec = rows.get(f"{name}_vector")
    obj = rows.get(name)
    if not vec or not obj or not obj["cycles_per_s"]:
        return None
    return vec["cycles_per_s"] / obj["cycles_per_s"]


def engine_violations(
    rows: Dict[str, Dict[str, object]],
    min_speedup: float = MIN_ENGINE_SPEEDUP,
    min_low_load_ratio: float = MIN_LOW_LOAD_RATIO,
    max_fallback_share: float = MAX_FALLBACK_SHARE,
) -> List[str]:
    """Cross-engine checks within one bench run.

    * Paired scenarios (``ENGINE_PAIRS``) simulate the identical
      configuration under both tick engines, so a checksum mismatch
      means the engine-parity contract broke — always fatal.
    * On ``synthetic`` the vector engine must clear ``min_speedup``
      over the object engine, and on ``low_load`` it must hold
      ``min_low_load_ratio`` of it.  Both figures of a ratio come from
      the same run on the same machine, so machine speed cancels out.
    * ``synthetic_vector`` may put at most ``max_fallback_share`` of
      its allocations through the golden-model fallback — two counts
      from one run, so no machine enters into it at all.
    """
    violations: List[str] = []
    for vec_name, obj_name in ENGINE_PAIRS:
        vec, obj = rows.get(vec_name), rows.get(obj_name)
        if vec and obj and vec["checksum"] != obj["checksum"]:
            violations.append(
                f"{obj_name}: object/vector checksum divergence "
                f"{obj['checksum']} != {vec['checksum']} "
                f"(engine-parity contract broke)"
            )
    for name, floor, what in (
        ("synthetic", min_speedup, "speedup"),
        ("low_load", min_low_load_ratio, "ratio"),
    ):
        ratio = _vector_ratio(rows, name)
        if ratio is not None and ratio < floor:
            vec = rows[f"{name}_vector"]
            violations.append(
                f"{name}: vector engine {what} {ratio:.2f}x is "
                f"below the {floor:.1f}x floor "
                f"({vec['cycles_per_s']:.0f} vs "
                f"{rows[name]['cycles_per_s']:.0f} cycles/s)"
                f"{arming_note(vec)}"
            )
    arming = rows.get("synthetic_vector", {}).get("arming")
    if arming and (
        arming["fallback_allocs"] > max_fallback_share * arming["vc_allocs"]
    ):
        violations.append(
            f"synthetic_vector: {arming['fallback_allocs']} of "
            f"{arming['vc_allocs']} allocations took the golden-model "
            f"fallback, above the {max_fallback_share:.0%} ceiling "
            f"(the batched allocator stopped covering the common shape)"
        )
    return violations


def compare_bench(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Gate a current run against a baseline; returns violations.

    * A baseline whose ``schema`` is not in :data:`GATE_SCHEMAS`, or
      without a non-empty ``scenarios`` mapping of checksummed rows, is
      itself a violation — the gate must never pass vacuously.
    * Any checksum change is a violation — simulated behaviour drifted.
    * A scenario present in the baseline but missing from the current
      run is a violation (silent coverage loss).
    * Cross-engine checks (:func:`engine_violations`) run on the
      current rows.

    The baseline's timings are never read, and new scenarios never
    fail the gate.
    """
    violations = [
        f"baseline: {problem}" for problem in _baseline_problems(baseline)
    ]
    base_rows = _gate_rows(baseline) or {}
    cur_rows = current.get("scenarios", {})
    for name, base in sorted(base_rows.items()):
        cur = cur_rows.get(name)
        if cur is None:
            violations.append(f"{name}: missing from current run")
        elif cur["checksum"] != base["checksum"]:
            violations.append(
                f"{name}: checksum changed "
                f"{base['checksum']} -> {cur['checksum']} "
                f"(simulated behaviour drifted)"
            )
    violations.extend(engine_violations(cur_rows))
    return violations


def format_bench(data: Dict[str, object]) -> str:
    """Plain-text table of a BENCH payload."""
    lines = [
        f"bench — repeat {data.get('repeat')}, "
        f"version {data.get('version')}"
    ]
    rows = data.get("scenarios", {})
    for name, row in sorted(rows.items()):
        lines.append(
            f"{name:<18} {row['cycles']:>8} cycles  "
            f"{row['seconds']:.3f} s  "
            f"{row['cycles_per_s']:>10.0f} cycles/s  "
            f"checksum {row['checksum']}"
            f"{arming_note(row)}"
        )
    for name, floor, what in (
        ("synthetic", MIN_ENGINE_SPEEDUP, "speedup"),
        ("low_load", MIN_LOW_LOAD_RATIO, "ratio"),
    ):
        ratio = _vector_ratio(rows, name)
        if ratio is not None:
            lines.append(
                f"vector/object {what} on {name}: {ratio:.2f}x "
                f"(floor {floor:.1f}x)"
            )
    return "\n".join(lines)
