#!/usr/bin/env python
"""Cross-scheme latency/throughput comparison at large mesh sizes.

The paper evaluates its schemes on an 8x8 interposer mesh; this
benchmark produces the Figure-4-style comparison the paper never ran —
every scheme in the zoo (the EquiNox ablation ladder *plus* the
independent ring-router and routerless baselines) on the same large
mesh, reported as mean packet latency, delivered throughput and the
per-EIR injection balance from the telemetry probes, plus, for the loop
schemes, the max and mean number of loops through one node (the number
Lin et al. price a routerless design by), read from the loop table:

    PYTHONPATH=src python benchmarks/bench_scheme_zoo.py
        [--width 32] [--schemes ...] [--tier mesh32 | --benchmarks ...]
        [--quota N] [--output results/scheme_zoo.json]

Schemes whose config rejects the requested geometry (e.g. the
concentrated mesh on an odd width) are reported as skipped rather than
failing the whole comparison.  Results land in a plain-JSON artifact so
nightly CI can upload them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.grid import Grid
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.metrics import format_table
from repro.noc.loops import LOOP_SETS
from repro.noc.routing import LoopTable
from repro.schemes import SCHEME_ORDER, get_config
from repro.workloads import tier as workload_tier


def loops_per_node(scheme: str, width: int):
    """``(max, mean)`` loops through one node, or None on a mesh."""
    make = LOOP_SETS.get(get_config(scheme).topology)
    if make is None:
        return None
    grid = Grid(width)
    table = LoopTable(grid.size, make(grid))
    pos = np.frombuffer(table.pos, dtype=np.intc)
    counts = (pos.reshape(len(table.loops), grid.size) >= 0).sum(axis=0)
    return int(counts.max()), float(counts.mean())


def run_cell(
    scheme: str, benchmark: str, args: argparse.Namespace
) -> dict:
    """One (scheme, benchmark) cell at the requested mesh size."""
    config = ExperimentConfig(
        width=args.width,
        num_cbs=args.cbs,
        quota=args.quota,
        seed=args.seed,
        mcts_iterations=args.iterations,
        telemetry=args.telemetry,
    )
    start = time.time()
    result = run_experiment(scheme, benchmark, config)
    wall = time.time() - start
    counters = (result.telemetry or {}).get("counters", {})
    injected = sum(
        value for name, value in counters.items()
        if name.startswith("net.") and name.endswith(".flits_injected")
    )
    row = {
        "scheme": scheme,
        "benchmark": benchmark,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "latency_ns": result.latency.total,
        "request_latency_ns": result.latency.request_total,
        "reply_latency_ns": result.latency.reply_total,
        "throughput_flits_per_cycle": (
            injected / result.cycles if result.cycles else 0.0
        ),
        "energy_nj": result.energy_nj,
        "area_mm2": result.area_mm2,
        "stats_fingerprint": result.stats_fingerprint,
        "wall_seconds": round(wall, 3),
    }
    loops = loops_per_node(scheme, args.width)
    if loops is not None:
        row["loops_per_node_max"], row["loops_per_node_mean"] = loops
    if result.telemetry is not None:
        from repro.telemetry.export import summarize_record

        summary = summarize_record(result.telemetry)
        if "eir_balance" in summary:
            row["eir_balance"] = summary["eir_balance"]
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=32,
                        help="mesh dimension (default 32)")
    parser.add_argument("--cbs", type=int, default=0,
                        help="cache banks (default: same as width)")
    parser.add_argument("--schemes", nargs="*", choices=SCHEME_ORDER,
                        default=None,
                        help="schemes to compare (default: all 9)")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="explicit benchmark names (overrides --tier)")
    parser.add_argument("--tier", default="mesh32",
                        help="workload tier when --benchmarks is absent "
                             "(default mesh32)")
    parser.add_argument("--quota", type=int, default=4,
                        help="memory-instruction quota per PE (default 4; "
                             "a 32x32 mesh has ~16x the PEs of the paper's "
                             "8x8, so small quotas already saturate)")
    parser.add_argument("--iterations", type=int, default=10,
                        help="MCTS budget for the EquiNox design step")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--telemetry", type=int, default=4,
                        help="telemetry sampling interval in base cycles "
                             "(0 disables the per-EIR balance column)")
    parser.add_argument("--output", default="results/scheme_zoo.json",
                        help="JSON artifact path (default "
                             "results/scheme_zoo.json)")
    args = parser.parse_args()
    if not args.cbs:
        args.cbs = args.width

    schemes = args.schemes or list(SCHEME_ORDER)
    benchmarks = args.benchmarks or workload_tier(args.tier)
    rows, skipped = [], []
    for benchmark in benchmarks:
        for scheme in schemes:
            try:
                row = run_cell(scheme, benchmark, args)
            except ValueError as exc:
                # A scheme may reject the geometry (e.g. CMesh needs an
                # even width); record it instead of aborting the zoo.
                skipped.append(
                    {"scheme": scheme, "benchmark": benchmark,
                     "reason": str(exc)}
                )
                continue
            rows.append(row)
            print(
                f"{scheme:<18} {benchmark:<14} {row['cycles']:>8} cycles  "
                f"{row['latency_ns']:>8.2f} ns  "
                f"{row['throughput_flits_per_cycle']:>6.3f} flits/cyc  "
                f"{row['wall_seconds']:>7.1f} s",
                flush=True,
            )

    for benchmark in benchmarks:
        cells = [r for r in rows if r["benchmark"] == benchmark]
        if not cells:
            continue
        table = [
            (
                r["scheme"],
                float(r["cycles"]),
                r["latency_ns"],
                r["throughput_flits_per_cycle"],
                r.get("eir_balance", float("nan")),
                float(r.get("loops_per_node_max", "nan")),
            )
            for r in cells
        ]
        print(f"\n{benchmark} ({args.width}x{args.width}, "
              f"quota {args.quota})")
        print(format_table(
            ("Scheme", "Cycles", "Latency(ns)", "Flits/cyc", "EIRbal",
             "Loops/node"),
            table,
        ))
    for entry in skipped:
        print(f"skipped {entry['scheme']} x {entry['benchmark']}: "
              f"{entry['reason']}")

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(
        {
            "width": args.width,
            "num_cbs": args.cbs,
            "quota": args.quota,
            "seed": args.seed,
            "rows": rows,
            "skipped": skipped,
        },
        indent=2,
        sort_keys=True,
    ) + "\n")
    print(f"\nwrote {output}")
    return 0 if rows else 1


if __name__ == "__main__":
    sys.exit(main())
