"""Profile driver: run the properties over a budget of generated cases.

Two profiles ship:

* ``fast`` — the tier-1 profile: small meshes, ~270 generated configs
  across three properties (invariants, differential purity, object vs
  vector engine parity), finishes in a couple of minutes.  A pytest
  wrapper runs it in the normal test suite, so every CI matrix entry
  fuzzes.
* ``deep`` — the dedicated CI-job profile: wider meshes (including the
  paper's 8x8), several hundred configs.

Both are **deterministic**: hypothesis runs with ``derandomize=True``
and no example database, so a given (profile, seed) pair always
generates the same cases in the same order and a failure artifact is
byte-identical run-to-run.  The campaign ``seed`` decorrelates the
workload seeds inside the generated cases without breaking that
determinism.

Each property runs in three steps.  Hypothesis *draws* the cases in
this process (:func:`_drive` with a check that only records them).
The drawn cases are *checked* on every usable CPU by forked workers,
which inherit the check and the cases and receive only indices.  Only
a property with a failing case is *re-driven* inline by :func:`_drive`
with the real check: hypothesis draws the same cases, reproduces the
failure and shrinks it, so the report and the artifact are those of a
serial campaign.  A harness crash, a dead worker or a pool that cannot
start takes that same inline path, and so does a one-CPU host after
checking the drawn cases in this process.

Shrinking is captured by recording every failing example as hypothesis
minimizes; the last recorded failure is the minimal one and becomes
the replay artifact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

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


@dataclass(frozen=True)
class VerifyProfile:
    """One fuzzing budget: example counts per property + width pool."""

    name: str
    invariant_examples: int
    differential_examples: int
    engine_examples: int
    widths: Tuple[int, ...]
    # 0 keeps the VerifyCase default cycle bound.
    max_cycles: int = 0


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
    examples: int = 0
    # Wall-clock seconds the property took, shrinking included.
    seconds: float = 0.0
    failure: Optional[VerifyCase] = None
    error: str = ""
    artifact_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class VerifyReport:
    """Everything one campaign produced."""

    profile: str
    seed: int
    outcomes: List[PropertyOutcome] = field(default_factory=list)

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


#: The check and drawn cases of the property being checked, set before
#: the pool forks.  Workers inherit them and receive only indices: a
#: check may be a local function (tests monkeypatch them), which cannot
#: be pickled, hence the fork context.
_work: Tuple[Optional[Callable], List[VerifyCase]] = (None, [])


def _passes(index: int) -> bool:
    """Whether drawn case ``index`` passes; any exception is a failure
    for the inline re-drive to reproduce (or propagate)."""
    check, drawn = _work
    try:
        check(drawn[index])
    except Exception:
        return False
    return True


def _all_pass(check: Callable[[VerifyCase], object], drawn: List[VerifyCase]) -> bool:
    """Check ``drawn`` on every usable CPU; stop at the first failure.

    False also when a worker dies or the pool cannot start: the caller
    re-drives the property inline either way.
    """
    global _work
    workers = min(len(os.sched_getaffinity(0)), len(drawn))
    _work = (check, drawn)
    try:
        if workers <= 1:
            return all(map(_passes, range(len(drawn))))
        # Imported on use: `import repro.verify` loads no multiprocessing.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                if all(pool.map(_passes, range(len(drawn)))):
                    return True
                pool.shutdown(cancel_futures=True)
                return False
        except (BrokenProcessPool, OSError):
            return False
    finally:
        _work = (None, [])


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
                max_cycles=profile.max_cycles,
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
                max_cycles=profile.max_cycles,
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
                max_cycles=profile.max_cycles,
            ),
            profile.engine_examples,
        ),
    ]
    for prop, check, strategy, budget in plan:
        log(f"verify: {prop} ({budget} examples, profile={profile.name})")
        start = time.perf_counter()
        drawn: List[VerifyCase] = []
        outcome = _drive(prop, drawn.append, strategy, budget, log)
        if not _all_pass(check, drawn):
            outcome = _drive(prop, check, strategy, budget, lambda _line: None)
        outcome.seconds = time.perf_counter() - start
        if outcome.failure is not None and artifact_dir is not None:
            outcome.artifact_path = artifact_mod.write_failure(
                artifact_dir, prop, outcome.failure, outcome.error
            )
        report.outcomes.append(outcome)
    return report
