"""Per-cycle invariant checking and bounded liveness for one case.

:func:`check_invariants_case` is the core property the fuzzer drives:
it runs a case's short simulation with the **full**
:func:`~repro.noc.validation.audit_network` invariant set asserted
every base cycle (flit/packet/credit conservation over every link, VC
ownership, active-set ground truth), then applies the end-state
contract:

* **bounded liveness** — the run terminates well inside ``max_cycles``
  (every PE's quota issued and every reply received) and no stall
  window ever exceeds ``watchdog_cycles``; a violation raises with the
  stall diagnosis attached;
* **delivery accounting** — at the end every network is idle, every
  injected flit is ejected or in the ``flits_dropped`` fault ledger,
  and every created packet is delivered;
* **zero-load model** — no packet's latency ever fell below the
  ``hops + size + 2`` model ``Network._deliver`` splits it with
  (``LatencyAccumulator.clamped`` is zero), so the queuing /
  non-queuing split of Figure 10 is unbiased;
* **fault inertness** — if the case's plan never actually fired, the
  fault ledgers must be exactly zero.

All checks raise :class:`VerifyFailure` (or let the simulator's own
``NetworkAuditError`` / ``SimulationStall`` propagate); the harness
turns whichever exception reaches it into a shrunk replay artifact.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, List, Optional

from ..gpu.system import SystemResult
from ..harness.experiment import build_fabric, simulate
from ..noc.faults import FaultInjector
from ..noc.validation import audit_network
from ..schemes.base import Fabric
from ..settings import hermetic_env
from .space import VerifyCase

#: Arming thresholds a vector-engine case runs under, picked by ``seed
#: % 3``: SoA armed from the first tick, forced arm/disarm round trips,
#: or the shipped constants (which 4-8-wide meshes never reach, so
#: without the first two the SoA would go unfuzzed).  A pure function
#: of the case, so artifacts replay with no extra field.
ARMING_REGIMES = ((0, 0), (3, 2), None)


def arming_regime(case: VerifyCase) -> ContextManager[None]:
    """The :func:`repro.noc.vector.arming` override ``case`` runs under."""
    thresholds = (
        ARMING_REGIMES[case.seed % 3] if case.engine == "vector" else None
    )
    if thresholds is None:
        return nullcontext()
    # Imported on use, like network_class(): object-only campaigns and
    # `import repro.verify` itself never load the SoA engine.
    from ..noc.vector import arming

    return arming(*thresholds)


class VerifyFailure(AssertionError):
    """A verification property failed for one concrete case."""

    def __init__(self, case: VerifyCase, problems: List[str]) -> None:
        self.case = case
        self.problems = list(problems)
        summary = "\n  ".join(self.problems)
        super().__init__(
            f"{len(self.problems)} verification failure(s) for "
            f"[{case.label()}]:\n  {summary}"
        )


@dataclass
class CaseRun:
    """A completed case simulation plus everything the checks inspect."""

    case: VerifyCase
    fabric: Fabric
    result: SystemResult
    injector: Optional[FaultInjector]
    stats_fingerprint: str
    transactions_completed: int
    transactions_total: int

    @property
    def fired(self) -> bool:
        return self.injector is not None and self.injector.applied > 0


def run_case(
    case: VerifyCase, validate_every: int = 1
) -> CaseRun:
    """Run one case with audits every ``validate_every`` base cycles.

    Unlike the sweep harness this passes the audit and telemetry
    intervals to :func:`~repro.harness.experiment.simulate` *raw* (1
    really means every cycle), runs hermetically with respect to
    ``REPRO_*`` env knobs, and keeps the live fabric for post-run
    inspection.  ``NetworkAuditError`` and ``SimulationStall``
    propagate to the caller.
    """
    with hermetic_env(), arming_regime(case):
        config = case.experiment_config()
        fabric = build_fabric(case.scheme, config, scheduler=case.scheduler)
        run = simulate(
            fabric, case.benchmark, config, validate_every, case.telemetry
        )
    transactions = run.result.transactions
    return CaseRun(
        case=case,
        fabric=fabric,
        result=run.result,
        injector=run.injector,
        stats_fingerprint=run.stats_fingerprint,
        transactions_completed=sum(
            1 for t in transactions if t.completed is not None
        ),
        transactions_total=len(transactions),
    )


# ----------------------------------------------------------------------
# End-state contract
# ----------------------------------------------------------------------
def end_state_problems(run: CaseRun) -> List[str]:
    """Violations of the liveness/accounting contract after a run."""
    problems: List[str] = []
    case = run.case
    if run.result.cycles >= case.max_cycles:
        pending = run.transactions_total - run.transactions_completed
        problems.append(
            f"liveness: run hit the {case.max_cycles}-cycle bound with "
            f"{pending} of {run.transactions_total} transactions "
            f"outstanding"
        )
    if run.transactions_completed != run.transactions_total:
        problems.append(
            f"liveness: {run.transactions_total - run.transactions_completed}"
            f" transaction(s) never completed"
        )
    for net, _ratio, _role in run.fabric.networks:
        if not net.idle():
            problems.append(
                f"net.{net.name}: not idle after termination "
                f"({net.in_flight()} flits still in flight)"
            )
        report = audit_network(net)
        if not report.ok:
            problems.extend(
                f"net.{net.name}: {p}" for p in report.problems
            )
        stats = net.stats
        if stats.flits_injected != stats.flits_ejected + stats.flits_dropped:
            problems.append(
                f"net.{net.name}: flit accounting — injected "
                f"{stats.flits_injected} != ejected {stats.flits_ejected} "
                f"+ dropped {stats.flits_dropped}"
            )
        if stats.packets_created != stats.packets_delivered:
            problems.append(
                f"net.{net.name}: packet accounting — created "
                f"{stats.packets_created} != delivered "
                f"{stats.packets_delivered}"
            )
        clamped = sum(acc.clamped for acc in stats.latency.values())
        if clamped:
            problems.append(
                f"net.{net.name}: zero-load model — {clamped} packet(s) "
                f"delivered faster than hops + size + 2 (latency clamped)"
            )
        if not run.fired and (stats.flits_dropped or stats.packets_recovered):
            problems.append(
                f"net.{net.name}: fault ledger nonzero without a fired "
                f"fault (dropped {stats.flits_dropped}, recovered "
                f"{stats.packets_recovered})"
            )
    return problems


def check_invariants_case(
    case: VerifyCase, validate_every: int = 1
) -> CaseRun:
    """The fuzzer's core property: per-cycle audits + end-state contract.

    Raises on any violation; returns the completed :class:`CaseRun`
    otherwise (differential checks reuse it).
    """
    run = run_case(case, validate_every=validate_every)
    problems = end_state_problems(run)
    if problems:
        raise VerifyFailure(case, problems)
    return run
