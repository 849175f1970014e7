"""Performance scenarios and the ``BENCH.json`` regression gate.

Scenarios bracket the simulator's tick hot path:

* ``synthetic`` — uniform random traffic on a saturated 24x24 network,
  dominated by the allocation/traversal loop.  This is the scenario the
  vector engine is gated on: ``synthetic_vector`` runs the identical
  configuration under ``--engine vector`` and must reproduce the object
  engine's checksum bit-for-bit while clearing a minimum speedup;
* ``low_load`` — uniform traffic on a 16x16 network at a 0.2% injection
  rate, the mostly-idle regime the active-set scheduler exists for
  (also paired with ``low_load_vector``);
* ``system`` — one full (scheme, benchmark) cell through the GPU model,
  the shape every harness sweep repeats hundreds of times;
* ``ring_router`` / ``routerless`` — full-system cells on the loop
  topologies, so checksum or cycles/s regressions in the independent
  baseline schemes fail the gate like the mesh ones (object engine
  only — the loop schemes have no vector twin by design).

Each scenario reports wall-clock throughput (cycles/s, best of
``repeat`` runs) *and* a behaviour checksum over the simulated
statistics.  ``compare_bench`` turns a current/baseline pair into a
list of violations: a checksum change is always fatal (simulated
behaviour drifted), a throughput drop is fatal past the tolerance, an
object<->vector checksum divergence between paired scenarios is fatal
(the engine-parity contract broke), a vector speedup below
``MIN_ENGINE_SPEEDUP`` on ``synthetic`` is fatal (the vector engine
stopped paying for itself), ``low_load_vector`` below
``MIN_LOW_LOAD_RATIO`` of ``low_load`` is fatal (the vector engine
stopped staying out of the way of a quiet mesh), and more than
``MAX_FALLBACK_SHARE`` of ``synthetic_vector``'s allocations going
through the per-router golden-model fallback is fatal (the traffic
assumption the engine's design rests on stopped holding).  ``repro
bench`` wires this into CI as the bench-gate job against the committed
``BENCH_BASELINE.json``.
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

BENCH_SCHEMA = 3
DEFAULT_TOLERANCE = 0.25

# The vector engine must beat the object engine by at least this factor
# on the saturated ``synthetic`` scenario (wall-clock cycles/s measured
# on the same machine in the same run, so no calibration applies).
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

_CALIBRATION_LOOPS = 2_000_000


def calibrate(repeat: int = 3) -> float:
    """Wall-clock seconds for a fixed pure-Python loop (best of N).

    A machine-speed yardstick recorded alongside the scenario timings:
    the gate scales the baseline's cycles/s by the calibration ratio,
    so a run on a slower (or busier) machine is compared against what
    the baseline machine would have scored at that speed, not against
    its absolute numbers.
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


def _uniform_row(
    repeat: int,
    scheduler: str,
    engine: str,
    width: int,
    rate: float,
    cycles: int,
) -> Dict[str, object]:
    best, result = _time_best(repeat, lambda: run_uniform(
        Grid(width), injection_rate=rate, cycles=cycles, seed=1,
        scheduler=scheduler, engine=engine,
    ))
    row = {
        "engine": engine,
        "cycles": result.cycles,
        "seconds": best,
        "cycles_per_s": result.cycles / best,
        "checksum": _network_checksum(result),
        "received": result.received,
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


def _scenario_synthetic(
    repeat: int, scheduler: str, engine: str = "object"
) -> Dict[str, object]:
    """Saturated uniform traffic: the allocation/traversal hot loop."""
    return _uniform_row(repeat, scheduler, engine,
                        width=24, rate=0.08, cycles=500)


def _scenario_synthetic_vector(
    repeat: int, scheduler: str, engine: str = "vector"
) -> Dict[str, object]:
    """``synthetic`` under the struct-of-arrays engine."""
    return _scenario_synthetic(repeat, scheduler, engine)


def _scenario_low_load(
    repeat: int, scheduler: str, engine: str = "object"
) -> Dict[str, object]:
    """Sparse traffic on a big mesh: mostly-idle routers and NIs."""
    return _uniform_row(repeat, scheduler, engine,
                        width=16, rate=0.002, cycles=3000)


def _scenario_low_load_vector(
    repeat: int, scheduler: str, engine: str = "vector"
) -> Dict[str, object]:
    """``low_load`` under the struct-of-arrays engine."""
    return _scenario_low_load(repeat, scheduler, engine)


def _system_row(
    repeat: int,
    scheduler: str,
    engine: str,
    scheme: str,
    benchmark: str,
    **config_kwargs,
) -> Dict[str, object]:
    """One full (scheme, benchmark) cell through the GPU model."""
    from .experiment import ExperimentConfig, run_experiment

    config = ExperimentConfig(scheduler=scheduler, engine=engine,
                              **config_kwargs)
    best, result = _time_best(
        repeat, lambda: run_experiment(scheme, benchmark, config)
    )
    return {
        "engine": engine,
        "cycles": result.cycles,
        "seconds": best,
        "cycles_per_s": result.cycles / best,
        "checksum": f"{result.cycles}/{result.instructions}/"
                    f"{result.stats_fingerprint[:10]}",
        "received": result.instructions,
    }


def _scenario_system(
    repeat: int, scheduler: str, engine: str = "object"
) -> Dict[str, object]:
    """One full-system experiment cell (SeparateBase x kmeans)."""
    return _system_row(repeat, scheduler, engine, "SeparateBase",
                       "kmeans", quota=40, mcts_iterations=40)


def _scenario_ring_router(
    repeat: int, scheduler: str, engine: str = "object"
) -> Dict[str, object]:
    """Full-system cell on the counter-rotating-ring baseline.

    A smaller mesh than ``system``: the serpentine ring's average hop
    count grows with the square of the width, so a 6x6 cell already
    exercises the loop hot path at comparable wall-clock cost.  The
    engine is pinned to object — loop topologies have no vector twin,
    so a forced ``--engine vector`` run keeps these cells meaningful
    instead of crashing.
    """
    return _system_row(repeat, scheduler, "object", "ring_router",
                       "kmeans", width=6, num_cbs=5, quota=24)


def _scenario_routerless(
    repeat: int, scheduler: str, engine: str = "object"
) -> Dict[str, object]:
    """Full-system cell on the routerless loop baseline (object-only)."""
    return _system_row(repeat, scheduler, "object", "routerless",
                       "kmeans", width=6, num_cbs=5, quota=24)


SCENARIOS: Dict[str, Callable[..., Dict[str, object]]] = {
    "synthetic": _scenario_synthetic,
    "synthetic_vector": _scenario_synthetic_vector,
    "low_load": _scenario_low_load,
    "low_load_vector": _scenario_low_load_vector,
    "system": _scenario_system,
    "ring_router": _scenario_ring_router,
    "routerless": _scenario_routerless,
}


def run_scenario(
    name: str,
    repeat: int = 3,
    scheduler: str = "active",
    engine: Optional[str] = None,
) -> Dict[str, object]:
    """Run one named scenario under one scheduler (and engine)."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown bench scenario {name!r}; "
            f"known: {sorted(SCENARIOS)}"
        ) from None
    if engine is not None:
        return fn(repeat, scheduler, engine)
    return fn(repeat, scheduler)


def run_bench(
    scenarios: Optional[Iterable[str]] = None,
    repeat: int = 3,
    scheduler: str = "active",
    engine: Optional[str] = None,
) -> Dict[str, object]:
    """Run the scenario suite; returns the BENCH.json payload.

    ``engine`` of ``None`` keeps each scenario's own engine (the
    ``*_vector`` twins run vectorised, everything else object) — the
    shape the gate's cross-engine checks expect.  Forcing one engine
    for every scenario is a measurement convenience; gating a forced
    run would trip the vector-speedup floor at 1.0x.
    """
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    return {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "scheduler": scheduler,
        "engine": engine or "",
        "repeat": repeat,
        "calibration_s": calibrate(),
        "scenarios": {
            name: run_scenario(name, repeat, scheduler, engine)
            for name in names
        },
    }


def write_bench(path, data: Dict[str, object]) -> Path:
    """Write a BENCH payload as stable, human-diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return path


def load_bench(path) -> Dict[str, object]:
    return json.loads(Path(path).read_text())


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
      the same run on the same machine, so no calibration scaling
      applies.
    * ``synthetic_vector`` may put at most ``max_fallback_share`` of
      its allocations through the golden-model fallback — two counts
      from one run, so no machine enters into it at all.
    """
    violations: List[str] = []
    for vec_name, obj_name in ENGINE_PAIRS:
        vec = rows.get(vec_name)
        obj = rows.get(obj_name)
        if vec is None or obj is None:
            continue
        if vec["checksum"] != obj["checksum"]:
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
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Gate a current run against a baseline; returns violations.

    * A baseline without a usable ``scenarios`` mapping, or whose
      ``schema`` does not match :data:`BENCH_SCHEMA`, is itself a
      violation — an empty or stale baseline must never let the gate
      pass vacuously.
    * Any checksum change is a violation — simulated behaviour drifted,
      no tolerance applies.
    * A cycles/s figure below ``expected * (1 - tolerance)`` is a
      violation, where ``expected`` is the baseline figure scaled by
      the machines' calibration ratio (when both records carry a
      nonzero ``calibration_s``) — so a slower or busier machine is
      held to what the baseline box would have scored at that speed,
      not to its absolute numbers.  When either record lacks the
      calibration figure the comparison runs *uncalibrated* and each
      throughput violation says so explicitly.
    * A scenario present in the baseline but missing from the current
      run is a violation (silent coverage loss).
    * Cross-engine checks (:func:`engine_violations`) run on the
      current rows: object/vector checksum divergence and a vector
      speedup below the floor are violations.

    Speedups and new scenarios never fail the gate.
    """
    violations: List[str] = []
    base_schema = baseline.get("schema")
    if base_schema != BENCH_SCHEMA:
        violations.append(
            f"baseline: schema {base_schema!r} does not match the "
            f"gate's schema {BENCH_SCHEMA} (refresh BENCH_BASELINE)"
        )
    base_rows = baseline.get("scenarios")
    if not isinstance(base_rows, dict) or not base_rows:
        violations.append(
            "baseline: no scenarios to compare against (empty or "
            "malformed baseline — the gate cannot pass vacuously)"
        )
        base_rows = {}
    scale = 1.0
    base_cal = baseline.get("calibration_s")
    cur_cal = current.get("calibration_s")
    calibrated = bool(base_cal) and bool(cur_cal)
    if calibrated:
        scale = base_cal / cur_cal
    cur_rows = current.get("scenarios", {})
    for name in sorted(base_rows):
        base = base_rows[name]
        cur = cur_rows.get(name)
        if cur is None:
            violations.append(f"{name}: missing from current run")
            continue
        if cur["checksum"] != base["checksum"]:
            violations.append(
                f"{name}: checksum changed "
                f"{base['checksum']} -> {cur['checksum']} "
                f"(simulated behaviour drifted)"
            )
        expected = base["cycles_per_s"] * scale
        floor = expected * (1.0 - tolerance)
        if cur["cycles_per_s"] < floor:
            ratio = cur["cycles_per_s"] / expected
            if calibrated:
                detail = (
                    f"the speed-adjusted baseline {expected:.0f} "
                    f"(floor {floor:.0f}, tolerance {tolerance:.0%}, "
                    f"machine-speed scale {scale:.2f})"
                )
            else:
                detail = (
                    f"the baseline {expected:.0f} compared "
                    f"UNCALIBRATED — calibration_s missing from "
                    f"{'baseline' if not base_cal else 'current'} "
                    f"record (floor {floor:.0f}, tolerance "
                    f"{tolerance:.0%})"
                )
            violations.append(
                f"{name}: {cur['cycles_per_s']:.0f} cycles/s is "
                f"{ratio:.2f}x {detail}"
            )
    violations.extend(engine_violations(cur_rows))
    return violations


def format_bench(
    data: Dict[str, object],
    baseline: Optional[Dict[str, object]] = None,
) -> str:
    """Plain-text table of a BENCH payload (optionally vs a baseline)."""
    lines = [
        f"bench — scheduler {data.get('scheduler')}, "
        f"repeat {data.get('repeat')}, version {data.get('version')}"
    ]
    base_rows = (baseline or {}).get("scenarios", {})
    rows = data.get("scenarios", {})
    for name, row in sorted(rows.items()):
        line = (
            f"{name:<18} {row['cycles']:>8} cycles  "
            f"{row['seconds']:.3f} s  "
            f"{row['cycles_per_s']:>10.0f} cycles/s  "
            f"checksum {row['checksum']}"
        )
        base = base_rows.get(name)
        if base:
            ratio = row["cycles_per_s"] / base["cycles_per_s"]
            line += f"  ({ratio:.2f}x baseline)"
        lines.append(line + arming_note(row))
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


def checksum_divergence(
    rows: Dict[str, Dict[str, object]]
) -> Optional[Tuple[str, str]]:
    """Checksum pair if two scheduler runs of one scenario diverge."""
    if len(rows) != 2:
        return None
    a, b = rows.values()
    if a["checksum"] != b["checksum"]:
        return a["checksum"], b["checksum"]
    return None
