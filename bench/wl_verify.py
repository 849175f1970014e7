"""``verify_mini``: a short property-fuzzing campaign.

``verify.run_profile`` drives 12 derandomized cases (6 invariants, 4
differential, 2 engine-parity) on 4-6-wide meshes, about 4.5 s, so a
30 s run reports the median of six campaigns: dozens of very short
system runs with the conservation audit asserted every cycle,
both schedulers, both engines, fault plans, telemetry on and off.

It uses the same layers as the other workloads the opposite way round:
``Fabric`` / ``System`` / ``VectorNetwork`` construction, the audits and
``sync_for_inspection`` dominate, not the steady-state tick.  A tick
optimisation that moves work into construction, or slows the audits,
loses here and nowhere else.  It is also a correctness gate.

``--seed`` shifts the workload seed inside every generated case, so the
amount of simulated work differs from seed to seed (4.1-5.2 s a
campaign); ``wall_s``'s bound allows for it.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

import spans
import wl_fabric
from common import (
    Outcome,
    child_reported_seconds,
    median_put,
    median_rounds,
    peak_rss_mb,
    rounds,
    timed,
)
from wl_sweep import config as sweep_config

EXAMPLES = (6, 4, 2)  # invariants, differential, engine-parity
SETUP_REPS = 3
PROBE_WIDTH = 8
PROBE_LOAD_CYCLES = 150
PROBE_RATE = 0.05
PROBE_REPS = 20
TELEMETRY_CELL = ("SeparateBase", "kmeans")
SPAN_OF_PROPERTY = {
    "invariants": "verify.invariants",
    "differential": "verify.differential",
    "engine-parity": "verify.engine_parity",
}


def profile():
    from repro.verify import FAST_WIDTHS, VerifyProfile

    return VerifyProfile("bench", *EXAMPLES, FAST_WIDTHS)


def setup_seconds(seed: int) -> float:
    """Import ``repro.verify`` and build the case strategy, in a fresh
    interpreter (an import can only be paid once per process)."""
    return child_reported_seconds(
        "from repro.verify import FAST_WIDTHS, cases\n"
        f"cases(widths=FAST_WIDTHS, base_seed={seed})"
    )


def campaign(seed: int, out: Outcome, log=lambda _line: None) -> Tuple[float, object]:
    from repro.verify import run_profile

    start = time.perf_counter()
    report = run_profile(profile(), seed=seed, log=log)
    wall = time.perf_counter() - start
    for outcome in report.outcomes:
        out.op(outcome.ok)
    out.check(
        "verify report ok and every budgeted case ran",
        report.ok and report.cases_run == sum(EXAMPLES),
        report.summary().splitlines()[0],
    )
    out.sim["cases_run"] = report.cases_run
    return wall, report


def measure(name: str, seed: int, seconds: float, out: Outcome, work: Path) -> None:
    median_put(out, "setup_s", [setup_seconds(seed) for _ in range(SETUP_REPS)])
    walls: List[float] = []
    rounds(seconds, lambda: walls.append(campaign(seed, out)[0]))
    median_rounds(out, "wall_s", walls)
    out.put("peak_rss_mb", peak_rss_mb())


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def loaded_network(engine: str, seed: int):
    """An 8x8 network stopped mid-run with traffic in flight."""
    from repro.noc.types import Packet, PacketType, packet_flits

    _grid, network, nis = wl_fabric.build(PROBE_WIDTH, engine)
    nodes = list(network.grid.nodes())
    rng = random.Random(seed)
    ptype = PacketType.READ_REPLY
    size = packet_flits(ptype, network.flit_bytes)
    pid = 0
    for _ in range(PROBE_LOAD_CYCLES):
        for src in nodes:
            dst = rng.choice(nodes)
            if dst != src and rng.random() < PROBE_RATE:
                pid += 1
                nis[src].enqueue(Packet(pid, ptype, src, dst, size, 0, vc_class=1))
        network.tick()
        for node in nodes:
            while network.pop_delivered(node) is not None:
                pass
    return network


def noc_probes(seed: int, out: Outcome) -> None:
    from repro.noc.validation import audit_network

    network = loaded_network("object", seed)
    out.check("audit probe network is loaded", network.in_flight() > 0)
    reports = []
    median_put(
        out, "noc.audit_us",
        [timed(lambda: reports.append(audit_network(network))) * 1e6
         for _ in range(PROBE_REPS)],
    )
    out.check("audit of the loaded probe network is clean", reports[-1].ok)
    vector = loaded_network("vector", seed)
    syncs = []
    for _ in range(PROBE_REPS):
        vector.tick()  # leaves the object view behind the SoA state
        syncs.append(timed(vector.sync_for_inspection) * 1e6)
    median_put(out, "noc.sync_for_inspection_us", syncs)


def telemetry_probes(seed: int, work: Path, out: Outcome) -> None:
    """One cell with sampling on vs off (base = off), and its export."""
    from repro.harness.experiment import run_experiment
    from repro.telemetry import write_json

    off = sweep_config(seed)
    on = replace(off, telemetry=1)
    walls: Dict[int, List[float]] = {0: [], 1: []}
    results = {}
    for _ in range(2):
        for cfg in (off, on):
            start = time.perf_counter()
            results[cfg.telemetry] = run_experiment(*TELEMETRY_CELL, cfg)
            walls[cfg.telemetry].append(time.perf_counter() - start)
    out.check(
        "telemetry leaves the stats fingerprint unchanged",
        results[0].stats_fingerprint == results[1].stats_fingerprint,
    )
    out.put("telemetry.overhead_frac", min(walls[1]) / min(walls[0]) - 1.0)
    record = results[1].telemetry
    out.put("telemetry.export_s", timed(
        lambda: write_json(work / "telemetry-probe.json", record)
    ))


def trace(
    name: str, seed: int, out: Outcome, work: Path, rec: spans.Recorder
) -> Dict:
    untraced_wall, _report = campaign(seed, out)
    stamps: List[Tuple[float, str]] = []
    with rec.span("verify.run_profile", "verify") as root:
        _wall, report = campaign(
            seed, out, log=lambda line: stamps.append((time.perf_counter(), line))
        )
        end = time.perf_counter()
        # One span per property, from the campaign's own log lines
        # ("verify: <property> (N examples, ...)" opens each one).
        starts = [
            (t, line.split()[1]) for t, line in stamps if line.startswith("verify: ")
        ]
        for (t, prop), (t_next, _p) in zip(starts, starts[1:] + [(end, "")]):
            rec.add(SPAN_OF_PROPERTY[prop], "verify", t, t_next)
    by_name = spans.self_by(rec.spans, lambda s: s.name)
    for span_name in SPAN_OF_PROPERTY.values():
        out.put(f"{span_name}_s", by_name.get(span_name, 0.0))
    out.put("verify.cases_run", report.cases_run)
    out.put("host.trace_overhead_frac", root.busy / untraced_wall - 1.0)
    noc_probes(seed, out)
    telemetry_probes(seed, work, out)
    return {
        "cases_per_property": {o.prop: o.examples for o in report.outcomes},
        "walls_s": {"untraced": untraced_wall, "traced": root.busy},
    }
