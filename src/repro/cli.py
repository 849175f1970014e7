"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``design``
    Run the EquiNox design flow and print (optionally save) the result.
``run``
    Run one scheme x benchmark experiment and print its metrics.
``sweep``
    Run several schemes over several benchmarks; print a normalised
    Figure-9-style table.
``figure``
    Regenerate one of the paper's light figures/tables.
``verify``
    Property-based verification: fuzz generated configurations against
    the invariant/liveness/differential contract, or replay a shrunk
    failure artifact.
``list``
    Show the available schemes and benchmarks.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__, settings
from .core.equinox import design_equinox
from .core.mcts import SearchConfig
from .core.serialize import load_design, save_design
from .harness.experiment import ExperimentConfig, run_experiment, run_suite
from .harness.metrics import format_table, normalize
from .schemes import SCHEME_ORDER
from .workloads import TIERS as WORKLOAD_TIERS
from .workloads import names as benchmark_names
from .workloads import tier as workload_tier


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=8,
                        help="mesh dimension (default 8)")
    parser.add_argument("--cbs", type=int, default=8,
                        help="number of cache banks (default 8)")
    parser.add_argument("--seed", type=int, default=0)


def _add_validation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--validate", nargs="?", const=1, default=0, type=int,
        metavar="N",
        help="run conservation audits every N cycles (bare flag = the "
             "default interval; same as REPRO_VALIDATE)",
    )
    parser.add_argument(
        "--watchdog-cycles", type=int, default=0, metavar="N",
        help="stall-watchdog window in base cycles (0 = "
             "REPRO_WATCHDOG_CYCLES env or the model default)",
    )
    parser.add_argument(
        "--faults", metavar="SPEC",
        help="fault plan: a JSON file path, or inline JSON (a list of "
             "fault specs or {\"faults\": [...]}); same format as "
             "REPRO_FAULTS",
    )
    parser.add_argument(
        "--engine", choices=["object", "vector"], default="",
        help="tick engine: 'object' is the per-object golden "
             "reference, 'vector' the struct-of-arrays batched engine; "
             "default = REPRO_ENGINE env or object — both produce "
             "bit-identical stats fingerprints",
    )
    parser.add_argument(
        "--telemetry", nargs="?", const=1, default=0, type=int,
        metavar="N",
        help="sample read-only telemetry probes every N cycles (bare "
             "flag = the default interval; same as REPRO_TELEMETRY); "
             "results keep the exact same stats fingerprint",
    )
    parser.add_argument(
        "--telemetry-out", default="results/telemetry", metavar="DIR",
        help="directory for telemetry export artifacts "
             "(default results/telemetry)",
    )


def _cmd_design(args: argparse.Namespace) -> int:
    if args.load:
        design = load_design(args.load)
        print(f"loaded {args.load}")
    else:
        design = design_equinox(
            args.width,
            args.cbs,
            SearchConfig(iterations_per_level=args.iterations,
                         seed=args.seed),
        )
    print(design.summary())
    if args.save:
        path = save_design(design, args.save)
        print(f"saved to {path}")
    return 0


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The run's config: flags first, then the environment, resolved
    once here so everything keyed on it describes the actual run."""
    faults = ()
    spec = getattr(args, "faults", None)
    if spec:
        from .noc.faults import parse_faults_arg

        faults = parse_faults_arg(spec)
    return settings.resolve(ExperimentConfig(
        width=args.width,
        num_cbs=args.cbs,
        quota=args.quota,
        seed=args.seed,
        mcts_iterations=args.iterations,
        validate=getattr(args, "validate", 0),
        watchdog_cycles=getattr(args, "watchdog_cycles", 0),
        faults=faults,
        engine=getattr(args, "engine", ""),
        telemetry=getattr(args, "telemetry", 0),
    ))


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(args.scheme, args.benchmark,
                            _experiment_config(args))
    lat = result.latency
    rows = [
        ("cycles", float(result.cycles)),
        ("IPC", result.ipc),
        ("execution (ns)", result.execution_ns),
        ("NoC energy (nJ)", result.energy_nj),
        ("EDP (nJ*ns)", result.edp),
        ("NoC area (mm^2)", result.area_mm2),
        ("reply bit share", result.reply_bits_fraction),
        ("request latency (ns)", lat.request_total),
        ("reply latency (ns)", lat.reply_total),
    ]
    print(f"{args.scheme} x {args.benchmark} "
          f"({args.width}x{args.width}, quota {args.quota})")
    print(format_table(("Metric", "Value"), rows))
    if result.telemetry is not None:
        from .telemetry import experiment_filename, write_json

        path = Path(args.telemetry_out) / experiment_filename(
            result.scheme, result.benchmark,
            result.telemetry["config_digest"],
        )
        write_json(path, result.telemetry)
        print(f"telemetry written to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    store = None
    if args.store:
        from .harness.store import resolve_store

        store = resolve_store(args.store)
    schemes = args.schemes or SCHEME_ORDER
    benchmarks = args.benchmarks or workload_tier(args.tier or "smoke")
    config = _experiment_config(args)
    results = run_suite(schemes, benchmarks, config,
                        progress=True, jobs=args.jobs,
                        cell_timeout=args.cell_timeout,
                        retries=args.retries,
                        store=store)
    for metric, label in (("cycles", "Execution time"),
                          ("energy_nj", "Energy"), ("edp", "EDP")):
        rows = []
        for bench in benchmarks:
            values = {s: getattr(results[(s, bench)], metric)
                      for s in schemes}
            base = schemes[0]
            normed = normalize(values, base)
            rows.append(tuple([bench] + [normed[s] for s in schemes]))
        print(f"\n{label} (normalised to {schemes[0]})")
        print(format_table(tuple(["Benchmark"] + list(schemes)), rows))
    cell_records = [
        results[(s, b)].telemetry
        for s in schemes for b in benchmarks
        if results[(s, b)].telemetry is not None
    ]
    if cell_records:
        from .harness.experiment import config_digest
        from .telemetry import sweep_filename, sweep_records, write_jsonl

        digest = config_digest(config)
        path = Path(args.telemetry_out) / sweep_filename(digest)
        write_jsonl(
            path, sweep_records(cell_records, __version__, digest)
        )
        print(f"\ntelemetry written to {path} "
              f"({len(cell_records)} cells)")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .harness import figures

    config = ExperimentConfig(
        width=args.width, num_cbs=args.cbs, seed=args.seed,
        quota=args.quota, mcts_iterations=args.iterations,
    )
    producers = {
        "table1": lambda: figures.table1(config),
        "fig4": figures.figure4,
        "fig5": figures.figure5,
        "fig7": lambda: figures.figure7(config),
        "fig11": lambda: figures.figure11(config),
        "sec66": lambda: figures.section66(config),
    }
    print(producers[args.name]().render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .harness.report import write_report

    path = write_report(args.results, args.output)
    print(f"report written to {path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import replay, run_profile

    if args.replay:
        try:
            reproduced = replay(args.replay)
        except (ValueError, OSError) as exc:
            # Invalid/truncated/unreadable artifacts are a usage error
            # (exit 2), distinct from "bug still reproduces" (exit 1).
            print(f"error: cannot replay {args.replay}: {exc}")
            return 2
        if reproduced:
            print(f"FAIL: {args.replay} still reproduces")
            return 1
        print(f"ok: {args.replay} no longer reproduces")
        return 0
    report = run_profile(
        args.profile,
        artifact_dir=args.artifact_dir,
        seed=args.seed,
        log=lambda line: print(line, flush=True),
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_sweepd_submit(args: argparse.Namespace) -> int:
    from .harness.bus import BusPolicy
    from .harness.bus import SqliteBus
    from .harness.runner import expand_grid
    from .harness.service import submit

    schemes = args.schemes or SCHEME_ORDER
    benchmarks = args.benchmarks or workload_tier("smoke")
    cells = expand_grid(schemes, benchmarks, _experiment_config(args),
                        reseed_cells=args.reseed_cells)
    policy = BusPolicy(
        retries=max(0, args.retries or 0),
        backoff_s=args.backoff,
        redelivery_limit=args.redelivery_limit,
    )
    bus = SqliteBus(args.bus, policy=policy)
    task_ids = submit(bus, cells)
    print(f"submitted {len(task_ids)} cells to {args.bus} "
          f"({len(schemes)} schemes x {len(benchmarks)} benchmarks, "
          f"retries={policy.retries})")
    return 0


def _cmd_sweepd_worker(args: argparse.Namespace) -> int:
    from .harness.service import (
        WorkerOptions,
        open_submitted_bus,
        worker_loop,
    )
    from .harness.store import resolve_store

    bus = open_submitted_bus(args.bus)
    store = resolve_store(args.store)
    cell_timeout = args.cell_timeout
    if cell_timeout is None:
        cell_timeout = settings.from_env("cell_timeout")
    options = WorkerOptions(
        lease_s=args.lease,
        heartbeat_s=args.heartbeat,
        cell_timeout=cell_timeout,
        drain=not args.oneshot,
        max_cells=args.max_cells,
        chaos_kill_after=(
            args.chaos_kill_after or settings.from_env("chaos_kill_after")
        ),
    )
    stats = worker_loop(
        bus, store=store, worker_id=args.name, options=options,
        log=lambda line: print(line, flush=True),
    )
    print(f"worker done: {stats.executed} executed, {stats.acked} acked "
          f"({stats.store_hits} store hits), {stats.failed} failed "
          f"({stats.dead} dead-lettered), {stats.stale} stale")
    return 0


def _cmd_sweepd_status(args: argparse.Namespace) -> int:
    import json as json_mod

    from .harness.service import (
        dead_letter_dump,
        open_submitted_bus,
        status,
    )

    bus = open_submitted_bus(args.bus)
    snapshot = status(bus)
    if args.json:
        print(json_mod.dumps(snapshot, indent=2, sort_keys=True))
    else:
        counts = snapshot["counts"]
        state = "complete" if snapshot["complete"] else "in progress"
        print(f"{args.bus}: {snapshot['cells']} cells, {state} "
              f"(pending {counts['pending']}, leased {counts['leased']}, "
              f"done {counts['done']}, dead {counts['dead']})")
        for letter in snapshot["dead_letters"]:
            print(f"  dead: {letter['task_id']} "
                  f"({letter['reason']}, {letter['failures']} failures, "
                  f"{letter['deliveries']} deliveries)")
    if args.dumps:
        for record in bus.dead_letters():
            print(dead_letter_dump(record))
    return 0


def _cmd_sweepd_requeue(args: argparse.Namespace) -> int:
    from .harness.service import open_submitted_bus, requeue_dead

    bus = open_submitted_bus(args.bus)
    moved = requeue_dead(bus, args.task or None)
    print(f"requeued {moved} dead-lettered cell(s) with a fresh "
          "retry budget")
    return 0


def _cmd_sweepd_query(args: argparse.Namespace) -> int:
    import json as json_mod

    from .harness.store import record_result, resolve_store

    store = resolve_store(args.store)
    if store is None:
        print("error: result store disabled (set --store or "
              "REPRO_STORE_DIR)", file=sys.stderr)
        return 2
    records = store.query(
        scheme=args.scheme, benchmark=args.benchmark, width=args.width,
    )
    if args.json:
        print(json_mod.dumps(records, indent=2, sort_keys=True))
        return 0
    if not records:
        print("no stored results match")
        return 1
    rows = []
    for record in records:
        result = record_result(record)
        if result is None:
            continue
        rows.append((
            record["scheme"], record["benchmark"],
            f"{record['width']}x{record['width']}",
            float(result.cycles), result.ipc,
            result.stats_fingerprint[:12],
        ))
    print(format_table(
        ("Scheme", "Benchmark", "Mesh", "Cycles", "IPC", "Fingerprint"),
        rows,
    ))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("schemes:")
    for name in SCHEME_ORDER:
        print(f"  {name}")
    print("benchmarks:")
    for name in benchmark_names():
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EquiNox (HPCA 2020) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="run the EquiNox design flow")
    _add_common(p_design)
    p_design.add_argument("--iterations", type=int, default=150,
                          help="MCTS iterations per tree level")
    p_design.add_argument("--save", help="write the design to a JSON file")
    p_design.add_argument("--load", help="load a design instead of searching")
    p_design.set_defaults(func=_cmd_design)

    p_run = sub.add_parser("run", help="run one scheme x benchmark")
    _add_common(p_run)
    p_run.add_argument("--scheme", default="EquiNox", choices=SCHEME_ORDER)
    p_run.add_argument("--benchmark", default="kmeans")
    p_run.add_argument("--quota", type=int, default=100)
    p_run.add_argument("--iterations", type=int, default=150)
    _add_validation(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="scheme x benchmark grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--schemes", nargs="*", choices=SCHEME_ORDER)
    p_sweep.add_argument("--benchmarks", nargs="*")
    p_sweep.add_argument(
        "--tier", choices=sorted(WORKLOAD_TIERS), default=None,
        help="named benchmark tier used when --benchmarks is absent: "
             "'smoke' is the cheap CI trio (the default), 'full' the "
             "29-benchmark paper suite, 'mesh32' a representative "
             "6-benchmark slice for 32x32 scale-up sweeps",
    )
    p_sweep.add_argument("--quota", type=int, default=60)
    p_sweep.add_argument("--iterations", type=int, default=100)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the sweep grid "
                              "(default 1 = serial)")
    p_sweep.add_argument("--cell-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock limit per cell attempt "
                              "(default: REPRO_CELL_TIMEOUT or unbounded)")
    p_sweep.add_argument("--retries", type=int, default=None, metavar="N",
                         help="retry failed cells up to N times with "
                              "backoff and fresh deterministic seeds "
                              "(default: REPRO_RETRIES or 0)")
    p_sweep.add_argument("--store", metavar="DIR",
                         help="content-addressed result store: hits "
                              "skip execution, fresh results are "
                              "recorded, so re-running with the same "
                              "DIR resumes a killed sweep (default: off)")
    _add_validation(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sweepd = sub.add_parser(
        "sweepd",
        help="distributed sweep service over a shared SQLite work queue",
    )
    sd = p_sweepd.add_subparsers(dest="sweepd_command", required=True)

    d_submit = sd.add_parser(
        "submit", help="enqueue a scheme x benchmark grid onto a bus"
    )
    _add_common(d_submit)
    d_submit.add_argument("--bus", required=True, metavar="PATH",
                          help="SQLite bus file (created if absent)")
    d_submit.add_argument("--schemes", nargs="*", choices=SCHEME_ORDER)
    d_submit.add_argument("--benchmarks", nargs="*")
    d_submit.add_argument("--quota", type=int, default=60)
    d_submit.add_argument("--iterations", type=int, default=100)
    d_submit.add_argument("--reseed-cells", action="store_true",
                          help="derive a per-cell seed instead of "
                               "sharing the base seed")
    d_submit.add_argument("--retries", type=int, default=0, metavar="N",
                          help="cell failures tolerated before "
                               "dead-lettering (deterministic reseed "
                               "per retry; default 0)")
    d_submit.add_argument("--backoff", type=float, default=0.05,
                          metavar="SECONDS",
                          help="redelivery backoff base after a "
                               "failure (default 0.05)")
    d_submit.add_argument("--redelivery-limit", type=int, default=5,
                          metavar="N",
                          help="extra crash deliveries tolerated "
                               "beyond the retry budget before a cell "
                               "is presumed poisonous (default 5)")
    _add_validation(d_submit)
    d_submit.set_defaults(func=_cmd_sweepd_submit)

    d_worker = sd.add_parser(
        "worker", help="lease and execute cells until the bus drains"
    )
    d_worker.add_argument("--bus", required=True, metavar="PATH")
    d_worker.add_argument("--store", metavar="DIR",
                          help="content-addressed result store "
                               "(default: REPRO_STORE_DIR or the user "
                               "cache dir; 'off' disables)")
    d_worker.add_argument("--name", metavar="ID",
                          help="worker id shown in logs and lease "
                               "records (default: worker-<pid>)")
    d_worker.add_argument("--lease", type=float, default=60.0,
                          metavar="SECONDS",
                          help="lease duration; a worker silent this "
                               "long is presumed dead (default 60)")
    d_worker.add_argument("--heartbeat", type=float, default=5.0,
                          metavar="SECONDS",
                          help="lease renewal period while executing "
                               "(default 5)")
    d_worker.add_argument("--cell-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock limit per cell attempt "
                               "(default: REPRO_CELL_TIMEOUT or "
                               "unbounded)")
    d_worker.add_argument("--max-cells", type=int, default=0,
                          metavar="N",
                          help="stop after N executed cells "
                               "(default: unlimited)")
    d_worker.add_argument("--oneshot", action="store_true",
                          help="exit when no lease is immediately "
                               "available instead of polling until "
                               "the sweep completes")
    # Test-only crash injection (see docs/DISTRIBUTED.md): SIGKILL
    # self right after taking the N-th lease.
    d_worker.add_argument("--chaos-kill-after", type=int, default=0,
                          help=argparse.SUPPRESS)
    d_worker.set_defaults(func=_cmd_sweepd_worker)

    d_status = sd.add_parser(
        "status", help="queue counts and dead letters for one bus"
    )
    d_status.add_argument("--bus", required=True, metavar="PATH")
    d_status.add_argument("--json", action="store_true",
                          help="machine-readable snapshot")
    d_status.add_argument("--dumps", action="store_true",
                          help="also print dead-letter tracebacks and "
                               "stall dumps")
    d_status.set_defaults(func=_cmd_sweepd_status)

    d_requeue = sd.add_parser(
        "requeue",
        help="return dead-lettered cells to the queue for replay",
    )
    d_requeue.add_argument("--bus", required=True, metavar="PATH")
    d_requeue.add_argument("--task", nargs="*", metavar="ID",
                           help="specific task ids (default: all dead "
                                "letters)")
    d_requeue.set_defaults(func=_cmd_sweepd_requeue)

    d_query = sd.add_parser(
        "query",
        help="answer design-space queries from the result store "
             "in O(lookup)",
    )
    d_query.add_argument("--store", metavar="DIR",
                         help="store location (default: REPRO_STORE_DIR "
                              "or the user cache dir)")
    d_query.add_argument("--scheme", choices=SCHEME_ORDER)
    d_query.add_argument("--benchmark")
    d_query.add_argument("--width", type=int,
                         help="mesh dimension filter (e.g. 16 for "
                              "16x16)")
    d_query.add_argument("--json", action="store_true")
    d_query.set_defaults(func=_cmd_sweepd_query)

    p_fig = sub.add_parser("figure", help="regenerate a light paper figure")
    _add_common(p_fig)
    p_fig.add_argument("name", choices=["table1", "fig4", "fig5", "fig7",
                                        "fig11", "sec66"])
    p_fig.add_argument("--quota", type=int, default=60)
    p_fig.add_argument("--iterations", type=int, default=100)
    p_fig.set_defaults(func=_cmd_figure)

    p_report = sub.add_parser(
        "report", help="collect results/ into one markdown report"
    )
    p_report.add_argument("--results", default="results")
    p_report.add_argument("--output", default="results/REPORT.md")
    p_report.set_defaults(func=_cmd_report)

    p_verify = sub.add_parser(
        "verify",
        help="property-based verification: fuzz configs, audit "
             "invariants, replay shrunk failures",
    )
    p_verify.add_argument(
        "--profile", choices=["fast", "deep"], default="fast",
        help="fuzzing budget: 'fast' is the tier-1 profile, 'deep' the "
             "dedicated CI job (default fast)",
    )
    p_verify.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed: decorrelates generated workload seeds, "
             "deterministic for a fixed value (default 0)",
    )
    p_verify.add_argument(
        "--artifact-dir", default="results/verify", metavar="DIR",
        help="where shrunk failure artifacts are written "
             "(default results/verify)",
    )
    p_verify.add_argument(
        "--replay", metavar="FILE",
        help="re-run one failure artifact instead of fuzzing; exits 1 "
             "if it still reproduces",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_list = sub.add_parser("list", help="show schemes and benchmarks")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
