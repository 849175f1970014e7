"""Profile driver: run the properties over a budget of generated cases.

Two profiles ship:

* ``fast`` — the tier-1 profile: small meshes, ~270 generated configs
  across three properties (invariants, differential purity, object vs
  vector engine parity), 18-35 s on a 2-CPU host.  A pytest wrapper
  runs it in the normal test suite, so every CI matrix entry fuzzes.
* ``deep`` — the dedicated CI-job profile: wider meshes (including the
  paper's 8x8), several hundred configs.

Both are **deterministic**: hypothesis runs with ``derandomize=True``
and no example database, so a given (profile, seed) pair always
generates the same cases in the same order and a failure artifact is
byte-identical run-to-run.  The campaign ``seed`` decorrelates the
workload seeds inside the generated cases without breaking that
determinism.

A campaign runs in three steps.  Hypothesis *draws* every property's
cases in this process (:func:`_drive` with a check that only records
them).  All drawn cases are then *checked* in one pool of forked
workers, one per usable CPU, which inherit the checks and the cases and
receive only indices.  The verdicts are taken property by property, in
plan order.  Only a property with a failing case is *re-driven* inline
by :func:`_drive` with the real check: hypothesis draws the same cases,
reproduces the failure and shrinks it, so the report and the artifact
are those of a serial campaign.  A harness crash, a dead worker or a
pool that cannot start takes that same inline path.  A one-CPU host,
or one without fork, checks the drawn cases in this process instead.

Shrinking is captured by recording every failing example as hypothesis
minimizes; the last recorded failure is the minimal one and becomes
the replay artifact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from hypothesis import HealthCheck, Phase, given, settings

from . import artifact as artifact_mod
from ..gpu.system import SimulationStall
from ..noc.validation import NetworkAuditError
from .differential import check_differential_case, check_engine_parity_case
from .invariants import check_invariants_case
from .space import VerifyCase
from .strategies import DEEP_WIDTHS, FAST_WIDTHS, cases

#: Exception types that count as a *property failure* (and therefore
#: shrink to a replay artifact) rather than a harness crash: explicit
#: check violations plus the simulator's own per-cycle audit and
#: stall-watchdog errors, which subclass RuntimeError — not
#: AssertionError — and are documented to propagate out of
#: :func:`~repro.verify.invariants.run_case`.
FAILURE_EXCEPTIONS = (AssertionError, NetworkAuditError, SimulationStall)

Check = Callable[[VerifyCase], object]


@dataclass(frozen=True)
class VerifyProfile:
    """One fuzzing budget: example counts per property + width pool."""

    name: str
    invariant_examples: int
    differential_examples: int
    engine_examples: int
    widths: Tuple[int, ...]


FAST = VerifyProfile(
    name="fast",
    invariant_examples=130,
    differential_examples=80,
    engine_examples=60,
    widths=FAST_WIDTHS,
)
DEEP = VerifyProfile(
    name="deep",
    invariant_examples=320,
    differential_examples=160,
    engine_examples=120,
    widths=DEEP_WIDTHS,
)
PROFILES: Dict[str, VerifyProfile] = {p.name: p for p in (FAST, DEEP)}

_SETTINGS_KWARGS = dict(
    deadline=None,
    derandomize=True,
    database=None,
    print_blob=False,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
        HealthCheck.large_base_example,
    ],
    phases=(Phase.generate, Phase.shrink),
    # One minimal counterexample per property: without this hypothesis
    # may raise an ExceptionGroup bundling several distinct bugs, and
    # "the last recorded failure is the minimal one" no longer holds.
    report_multiple_bugs=False,
)


@dataclass
class PropertyOutcome:
    """Result of driving one property for one profile."""

    prop: str
    # Run state, filled in as the property is driven.
    examples: int = field(default=0, init=False)
    # Wall-clock seconds of the property's draw, of the wait for its
    # verdicts and of its re-drive (shrinking included): the three
    # properties' seconds add up to the campaign's wall time.
    seconds: float = field(default=0.0, init=False)
    failure: Optional[VerifyCase] = field(default=None, init=False)
    error: str = field(default="", init=False)
    artifact_path: Optional[Path] = field(default=None, init=False)

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class VerifyReport:
    """Everything one campaign produced."""

    profile: str
    seed: int
    outcomes: List[PropertyOutcome] = field(default_factory=list, init=False)

    @property
    def cases_run(self) -> int:
        return sum(o.examples for o in self.outcomes)

    @property
    def failures(self) -> List[PropertyOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"verify profile={self.profile} seed={self.seed}: "
            f"{self.cases_run} cases across {len(self.outcomes)} "
            f"properties — "
            + ("all passed" if self.ok else f"{len(self.failures)} FAILED")
        ]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else "FAIL"
            line = (
                f"  [{status}] {outcome.prop}: {outcome.examples} cases "
                f"in {outcome.seconds:.1f} s"
            )
            if outcome.artifact_path is not None:
                line += f" -> {outcome.artifact_path}"
            lines.append(line)
            if not outcome.ok:
                first = outcome.error.strip().splitlines()
                if first:
                    lines.append(f"         {first[0][:200]}")
        return "\n".join(lines)


def _drive(
    prop: str,
    check: Callable[[VerifyCase], object],
    strategy,
    max_examples: int,
    log: Callable[[str], None],
) -> PropertyOutcome:
    """Run one property under hypothesis, capturing the shrunk minimum.

    The inner test records every failing example while hypothesis
    shrinks; the last recorded pair is the minimal counterexample (the
    final re-run hypothesis performs before raising).
    """
    outcome = PropertyOutcome(prop=prop)
    failures: List[Tuple[VerifyCase, str]] = []

    @settings(max_examples=max_examples, **_SETTINGS_KWARGS)
    @given(case=strategy)
    def property_test(case: VerifyCase) -> None:
        if not failures:
            # Count generated examples only: once a failure is recorded
            # every further execution is a shrink-phase re-run and must
            # not inflate the report's case count.
            outcome.examples += 1
            if outcome.examples % 50 == 0:
                log(f"  ... {prop}: {outcome.examples} cases")
        try:
            check(case)
        except FAILURE_EXCEPTIONS as exc:
            failures.append((case, f"{type(exc).__name__}: {exc}"))
            raise

    try:
        property_test()
    except Exception:
        # Hypothesis re-raises the minimal example's failure last.  Any
        # recorded failure (AssertionError, NetworkAuditError,
        # SimulationStall — however hypothesis wraps it) becomes the
        # outcome; an exception with nothing recorded is a harness
        # crash, not a property failure, and must propagate.
        if not failures:
            raise
        case, error = failures[-1]
        outcome.failure = case
        outcome.error = error
    return outcome


#: Every drawn ``(check, case)`` pair of the campaign, set before the
#: pool forks.  Workers inherit it and receive only indices: a check may
#: be a local function (tests monkeypatch them), which cannot be
#: pickled, hence the fork context.
_work: List[Tuple[Check, VerifyCase]] = []


def _passes(index: int) -> bool:
    """Whether drawn pair ``index`` passes; any exception is a failure
    for the inline re-drive to reproduce (or propagate)."""
    check, case = _work[index]
    try:
        check(case)
    except Exception:
        return False
    return True


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS, Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _fork_context():
    # Imported on use: `import repro.verify` loads no multiprocessing.
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        return None


def _verdicts(work: List[Tuple[Check, VerifyCase]]) -> Iterator[bool]:
    """Whether each pair of ``work`` passes, in order, checked on every
    usable CPU by one pool (inline and lazily on one CPU, or without
    fork).

    Once a worker dies or the pool cannot start, every pair not yet
    answered reads False: the caller re-drives those properties inline.
    Closing the iterator cancels what is queued and joins the workers.
    """
    global _work
    workers = min(_usable_cpus(), len(work))
    context = _fork_context() if workers > 1 else None
    _work = work
    try:
        if context is None:
            yield from map(_passes, range(len(work)))
            return
        from concurrent.futures.process import (
            BrokenProcessPool,
            ProcessPoolExecutor,
        )

        answered = 0
        try:
            pool = ProcessPoolExecutor(workers, mp_context=context)
            try:
                for verdict in pool.map(_passes, range(len(work))):
                    answered += 1
                    yield verdict
            finally:
                pool.shutdown(cancel_futures=True)
        except (BrokenProcessPool, OSError):
            yield from repeat(False, len(work) - answered)
    finally:
        _work = []


def run_profile(
    profile: Union[str, VerifyProfile],
    artifact_dir: Union[str, Path, None] = None,
    seed: int = 0,
    log: Callable[[str], None] = lambda _line: None,
) -> VerifyReport:
    """Run every property at ``profile``'s budget; write failure artifacts."""
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown verify profile {profile!r}; "
                f"known: {sorted(PROFILES)}"
            ) from None
    report = VerifyReport(profile=profile.name, seed=seed)
    plan = [
        (
            artifact_mod.PROPERTY_INVARIANTS,
            check_invariants_case,
            cases(
                widths=profile.widths,
                base_seed=seed,
                with_faults=True,
            ),
            profile.invariant_examples,
        ),
        (
            artifact_mod.PROPERTY_DIFFERENTIAL,
            check_differential_case,
            cases(
                widths=profile.widths,
                base_seed=seed,
                with_faults=False,
            ),
            profile.differential_examples,
        ),
        (
            artifact_mod.PROPERTY_ENGINE_PARITY,
            check_engine_parity_case,
            # Faults stay ON: the engine-parity contract covers firing
            # fault plans, not just the fault-stripped differential
            # baseline.
            cases(
                widths=profile.widths,
                base_seed=seed + 1,
                with_faults=True,
            ),
            profile.engine_examples,
        ),
    ]
    # Draw every property's cases, holding back its log lines.
    work: List[Tuple[Check, VerifyCase]] = []
    draws = []
    for prop, check, strategy, budget in plan:
        start = time.perf_counter()
        lines = [f"verify: {prop} ({budget} examples, profile={profile.name})"]
        drawn: List[VerifyCase] = []
        outcome = _drive(prop, drawn.append, strategy, budget, lines.append)
        outcome.seconds = time.perf_counter() - start
        work.extend((check, case) for case in drawn)
        draws.append((outcome, lines, len(drawn)))
    # Check them all in one pool, then take the verdicts property by
    # property.  A property takes all of its verdicts, failing or not,
    # so the next property's verdicts follow.
    verdicts = _verdicts(work)
    try:
        for (prop, check, strategy, budget), (outcome, lines, count) in zip(
            plan, draws
        ):
            start = time.perf_counter()
            for line in lines:
                log(line)
            if not all(list(islice(verdicts, count))):
                draw_seconds = outcome.seconds
                outcome = _drive(prop, check, strategy, budget, lambda _line: None)
                outcome.seconds = draw_seconds
            outcome.seconds += time.perf_counter() - start
            if outcome.failure is not None and artifact_dir is not None:
                outcome.artifact_path = artifact_mod.write_failure(
                    artifact_dir, prop, outcome.failure, outcome.error
                )
            report.outcomes.append(outcome)
    finally:
        verdicts.close()
    return report
