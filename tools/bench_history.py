#!/usr/bin/env python3
"""Append one performance point to ``BENCH_HISTORY.jsonl``.

    python3 tools/bench_history.py RESULT.json [RESULT.json ...]
        [--tier1 PYTEST.log] [--sweep WALL_S CPU_S] [--note TEXT]

Each ``RESULT.json`` is what ``python3 bench/run.py --trace 0`` writes
(``bench/out/result.json`` by default); give one per run, all from the
same tree.  Per workload the line keeps the median ``wall_s``,
``setup_s`` and ``peak_rss_mb`` over the runs, with their seeds and
``--seconds``.  ``--tier1`` reads the log of ``pytest -q
--durations=5`` for the suite's wall time and its five slowest tests;
``--sweep`` takes the wall and CPU seconds of ``repro sweep --tier full
--quota 100 --iterations 150 --jobs 2`` (cold caches).  What is not
given is null.  ``commit`` is HEAD when the runs were made, so a change
measured before it is committed names its parent and its own version.
"""

import argparse
import json
import re
import statistics
from pathlib import Path

HISTORY = Path(__file__).resolve().parent.parent / "BENCH_HISTORY.jsonl"
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def point(results, tier1_log=None, sweep=None, note=""):
    """One history line from ``bench/run.py`` result documents."""
    metas = [doc["meta"] for doc in results]
    runs = {}
    for doc in results:
        for name, passes in doc["workloads"].items():
            runs.setdefault(name, []).append(
                (doc["meta"], passes["end_to_end"]["metrics"])
            )
    workloads = {
        name: {
            **{m: statistics.median(r[m]["value"] for _, r in rs) for m in METRICS},
            "seeds": sorted(meta["seed"] for meta, _ in rs),
            "seconds": sorted({meta["seconds"] for meta, _ in rs}),
        }
        for name, rs in sorted(runs.items())
    }
    tier1 = None
    if tier1_log is not None:
        text = Path(tier1_log).read_text()
        slowest = re.findall(r"^([\d.]+)s (?:call|setup)\s+(\S+)", text, re.M)
        tier1 = {
            "wall_s": float(re.findall(r" passed.* in ([\d.]+)s", text)[-1]),
            "top5": [[test, float(s)] for s, test in slowest[:5]],
        }
    return {
        "version": metas[0]["repro_version"],
        "commit": metas[0]["git_commit"],
        "nproc": metas[0]["nproc"],
        "host.calibration_s": statistics.median(
            m["host.calibration_s"] for m in metas
        ),
        "workloads": workloads,
        "tier1": tier1,
        "full_sweep": None if sweep is None
        else {"wall_s": sweep[0], "cpu_s": sweep[1]},
        "note": note,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--tier1", type=Path)
    parser.add_argument("--sweep", nargs=2, type=float, metavar=("WALL_S", "CPU_S"))
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    docs = [json.loads(path.read_text()) for path in args.results]
    line = point(docs, args.tier1, args.sweep, args.note)
    with HISTORY.open("a") as history:
        history.write(json.dumps(line, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
