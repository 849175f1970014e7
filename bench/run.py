#!/usr/bin/env python3
"""The repository benchmark: one command, every metric, checked outputs.

    python3 bench/run.py                      # all workloads, both passes
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --aa                 # run twice, must agree
    python3 bench/run.py --compare A.json B.json

``--trace 0`` runs the untraced pass (end-to-end metrics), ``--trace 1``
the traced pass (per-layer metrics, ``trace-<workload>.json``); without
``--trace`` both run.  The last line of standard output is one JSON
object; for a single workload and a single pass it carries exactly the
metrics ``BENCHMARK.json`` declares for that pass.  Exit status is 0
only if every correctness check passed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import catalog
import common
import compare as compare_mod
import spans

E2E, LAYER = "end_to_end", "per_layer"


def _module_for(workload: str):
    import wl_fabric
    import wl_sweep
    import wl_verify

    return {
        catalog.SWEEP: wl_sweep,
        catalog.SATURATED: wl_fabric,
        catalog.LOW_LOAD: wl_fabric,
        catalog.VERIFY: wl_verify,
    }[workload]


def run_pass(
    workload: str, kind: str, seed: int, seconds: float, out_dir: Path
) -> common.Outcome:
    """One pass of one workload inside its own throw-away sandbox."""
    from repro.harness.bench import calibrate

    module = _module_for(workload)
    out = common.Outcome(workload=workload, kind=kind, seed=seed)
    with common.sandbox(out_dir) as work:
        if kind == E2E:
            module.measure(workload, seed, seconds, out, work)
        else:
            out.put("host.calibration_s", calibrate())
            rec = spans.Recorder(workload)
            extra = module.trace(workload, seed, out, work, rec)
            rec.write(out_dir / f"trace-{workload}.json", extra)
    if kind == E2E:
        out.put("failed_fraction", out.failed / max(out.attempted, 1))
    _note_drift(out)
    _outcome_file(out_dir, workload, kind).write_text(json.dumps(out.to_dict()))
    return out


def _outcome_file(out_dir: Path, workload: str, kind: str) -> Path:
    return out_dir / f"outcome-{workload}-{kind}.json"


def run_pass_in_child(
    workload: str, kind: str, seed: int, seconds: float, out_dir: Path
) -> common.Outcome:
    """One pass in a fresh interpreter, exactly as the driver invokes it.

    A suite of several passes runs each in its own process so that peak
    RSS (a high-water mark), heap state and import costs of one pass
    cannot leak into the next.
    """
    args = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str((E2E, LAYER).index(kind)), "--out", str(out_dir),
    ]
    target = _outcome_file(out_dir, workload, kind)
    target.unlink(missing_ok=True)
    done = subprocess.run(args, stdout=subprocess.DEVNULL, timeout=900)
    if not target.exists():
        raise RuntimeError(
            f"{workload} [{kind}] exited {done.returncode} without an outcome"
        )
    return common.Outcome(**json.loads(target.read_text()))


def _note_drift(out: common.Outcome) -> None:
    """Report (never fail) simulated values that left the recorded ones.

    ``reference.json`` holds the ``sim`` block of each pass at its seed;
    a difference means simulated behaviour changed since it was recorded
    — expected after an intentional model fix, a bug otherwise.
    """
    reference = json.loads((common.BENCH_DIR / "reference.json").read_text())
    if out.seed != reference["seed"]:
        return
    expected = reference["workloads"].get(out.workload, {}).get(out.kind, {})
    for key, want in expected.items():
        got = out.sim.get(key)
        if got != want:
            out.behaviour_drift.append(f"{key}: {got!r} (reference {want!r})")


def contract_metrics(out: common.Outcome) -> Dict[str, Dict[str, object]]:
    """Exactly the metrics ``BENCHMARK.json`` declares for this pass.

    A per-layer metric that is not defined on this workload is reported
    as 0 (that layer did no work here); one that is defined on it but
    was not measured is a bug in the workload and raises.
    """
    metrics = {}
    for metric in catalog.of_kind(out.kind):
        if out.workload in metric.workloads:
            value = out.metrics[metric.name]["value"]
        else:
            value = 0.0
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return metrics


def final_line(outcomes: Sequence[common.Outcome], result_file: Path) -> Dict:
    line: Dict[str, object] = {
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
    }
    if len(outcomes) == 1:
        line["metrics"] = contract_metrics(outcomes[0])
    else:
        line["result_file"] = str(result_file)
    return line


def exit_code(outcomes: Sequence[common.Outcome]) -> int:
    return 0 if all(o.correct for o in outcomes) else 1


def meta(seed: int, seconds: float) -> Dict[str, object]:
    import numpy
    import repro
    import wl_sweep
    from repro.harness.bench import calibrate

    return {
        "seed": seed,
        "seconds": seconds,
        "git_commit": common.git_commit(),
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "jobs": wl_sweep.JOBS,
        "host.calibration_s": calibrate(),
    }


def document(outcomes: Sequence[common.Outcome], seed: int, seconds: float) -> Dict:
    workloads: Dict[str, Dict[str, object]] = {}
    for out in outcomes:
        workloads.setdefault(out.workload, {})[out.kind] = out.to_dict()
    return {"meta": meta(seed, seconds), "workloads": workloads}


def render(out: common.Outcome) -> str:
    """Every metric of one pass by name: value, unit, samples, bound."""
    lines = [
        f"== {out.workload} [{out.kind}] seed={out.seed}: "
        f"{out.attempted} operations, {out.failed} failed"
    ]
    for name, entry in out.metrics.items():
        metric = catalog.BY_NAME[name]
        bound = "unbounded"
        if metric.bound is not None:
            how = "abs" if metric.bound_kind == "abs" else "of base"
            bound = f"bound {metric.bound:g} {how}"
        spread = entry.get("spread")
        lines.append(
            f"  {name:<36} {entry['value']:>14.6g} {metric.unit:<7}"
            f" n={entry.get('n', 1):<6} {metric.better:<6} {bound}"
            + (f"  spread {spread:.3f}" if spread is not None else "")
        )
    for check in out.checks:
        if not check["ok"]:
            lines.append(f"  FAILED check: {check['name']} {check['detail']}")
    for drift in out.behaviour_drift:
        lines.append(f"  behaviour_drift: {drift}")
    for note in out.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def run_suite(
    workloads: Sequence[str], kinds: Sequence[str], seed: int, seconds: float,
    out_dir: Path, result_name: str = "result.json", isolate: bool = False,
) -> List[common.Outcome]:
    """``isolate`` runs even a single pass in a child: ``--aa`` calls this
    twice, and the second suite must not inherit the first one's heap."""
    passes = [(workload, kind) for workload in workloads for kind in kinds]
    in_child = isolate or len(passes) > 1
    run_one = run_pass_in_child if in_child else run_pass
    outcomes = []
    for workload, kind in passes:
        out = run_one(workload, kind, seed, seconds, out_dir)
        print(render(out), flush=True)
        outcomes.append(out)
    result_file = out_dir / result_name
    result_file.write_text(
        json.dumps(document(outcomes, seed, seconds), indent=1, sort_keys=True)
    )
    print(f"results: {result_file}", flush=True)
    return outcomes


def run_compare(path_a: Path, path_b: Path, same_code: bool) -> int:
    rows, agree = compare_mod.compare(
        json.loads(path_a.read_text()), json.loads(path_b.read_text()), same_code
    )
    print(compare_mod.render(rows))
    print("agree" if agree else "DISAGREE")
    return 0 if agree else 1


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=catalog.ALL, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="measuring budget per untraced pass: fixed-size rounds repeat "
             "while another one fits (at least one always runs)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
        help="0 = untraced pass only, 1 = traced pass only, absent = both",
    )
    parser.add_argument(
        "--out", type=Path, default=common.DEFAULT_OUT,
        help="directory for result.json, trace-*.json and scratch space",
    )
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced suite twice and compare")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return run_compare(*args.compare, same_code=False)
    common.add_src_to_path()
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import repro from {common.SRC}: {exc}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(catalog.ALL)
    out_dir = args.out.resolve()
    print(f"bench: output directory {out_dir}", flush=True)
    if args.aa:
        status = 0
        for name in ("result-a.json", "result-b.json"):
            outcomes = run_suite(
                workloads, [E2E], args.seed, args.seconds, out_dir, name,
                isolate=True,
            )
            status |= exit_code(outcomes)
        return status | run_compare(
            out_dir / "result-a.json", out_dir / "result-b.json", same_code=True
        )
    kinds = [E2E, LAYER] if args.trace is None else [(E2E, LAYER)[args.trace]]
    outcomes = run_suite(workloads, kinds, args.seed, args.seconds, out_dir)
    print(json.dumps(final_line(outcomes, out_dir / "result.json")), flush=True)
    return exit_code(outcomes)


if __name__ == "__main__":
    sys.exit(main())
