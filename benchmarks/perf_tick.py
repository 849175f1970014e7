#!/usr/bin/env python
"""Micro-benchmark of the simulator's tick hot path.

Thin wrapper over :mod:`repro.harness.bench`, which owns the scenario
definitions (``synthetic``, ``low_load``, ``system``) and the
``BENCH.json`` regression gate that CI runs via ``repro bench``.  This
script keeps the historical developer workflow:

    PYTHONPATH=src python benchmarks/perf_tick.py [--repeat N]
        [--scheduler dense|active|both]

and compare the cycles/second figures across commits.  The checksum is
a digest of the network statistics, so a perf change that alters
simulated behaviour is visible immediately.  With ``--scheduler both``
(the default) every workload runs under the dense oracle and the
active-set scheduler and the benchmark *fails* (exit 1) if their
checksums diverge — the same differential guard CI runs.

Reference numbers are recorded in ``results/perf_tick.txt`` (written on
every run) and quoted in CHANGES.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.harness.bench import (
    SCENARIOS,
    arming_note,
    checksum_divergence,
    run_scenario,
)


def slots_note() -> str:
    """Per-instance size of the hot allocation classes (all slotted).

    ``__slots__`` removes the per-instance ``__dict__`` (~104 bytes on
    CPython 3.11) from the classes the tick loop allocates or touches
    millions of times.
    """
    import sys as _sys

    from repro.mem.hbm import MemoryAccess
    from repro.noc.stats import LatencyAccumulator
    from repro.noc.types import Flit, Packet, PacketType
    from repro.workloads.generator import GeneratedRequest

    packet = Packet(1, PacketType.READ_REQUEST, 0, 1, 1, 0)
    samples = [
        ("Packet", packet),
        ("Flit", Flit(packet, 0, True, True)),
        ("GeneratedRequest", GeneratedRequest(True, 0, True)),
        ("MemoryAccess", MemoryAccess(None, True, True, 0)),
        ("LatencyAccumulator", LatencyAccumulator()),
    ]
    parts = []
    for name, obj in samples:
        assert not hasattr(obj, "__dict__"), f"{name} grew a __dict__"
        parts.append(f"{name} {_sys.getsizeof(obj)} B")
    return "slotted hot classes (no per-instance __dict__): " + ", ".join(
        parts
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of N runs (default 3)")
    parser.add_argument("--scheduler", default="both",
                        choices=["dense", "active", "both"],
                        help="tick discipline to benchmark; 'both' also "
                             "cross-checks the checksums (default)")
    args = parser.parse_args()

    schedulers = (
        ["dense", "active"] if args.scheduler == "both" else [args.scheduler]
    )
    lines = ["perf_tick — simulator hot-path micro-benchmark"]
    diverged = False
    for name in SCENARIOS:
        rows = {}
        for scheduler in schedulers:
            row = run_scenario(name, args.repeat, scheduler)
            rows[scheduler] = row
            line = (
                f"{name:<10} {scheduler:<7} {row['cycles']:>8} cycles  "
                f"{row['seconds']:.3f} s  "
                f"{row['cycles_per_s']:>10.0f} cycles/s  "
                f"checksum {row['checksum']}{arming_note(row)}"
            )
            print(line, flush=True)
            lines.append(line)
        divergence = checksum_divergence(rows)
        if divergence is not None:
            line = (f"{name:<10} CHECKSUM DIVERGENCE: "
                    f"dense {divergence[0]} != active {divergence[1]}")
            diverged = True
            print(line, flush=True)
            lines.append(line)
        elif len(rows) == 2:
            speedup = (rows["active"]["cycles_per_s"]
                       / rows["dense"]["cycles_per_s"])
            line = (f"{name:<10} active/dense speedup "
                    f"{speedup:.2f}x (checksums match)")
            print(line, flush=True)
            lines.append(line)

    line = slots_note()
    print(line, flush=True)
    lines.append(line)

    results_dir = Path(__file__).resolve().parent.parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "perf_tick.txt").write_text("\n".join(lines) + "\n")
    return 1 if diverged else 0


if __name__ == "__main__":
    sys.exit(main())
