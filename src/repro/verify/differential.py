"""Cross-product differential checks on ``stats_fingerprint``.

The simulator promises that several whole families of configuration
knobs are *observationally pure*: they may change wall-clock cost or
produce extra artifacts, but never the simulated behaviour.  For any
base case the following variants must produce a bit-identical
``stats_fingerprint`` (the sha256 over every network's full counter
snapshot):

``dense``
    The dense scheduler oracle vs the default active-set scheduler
    (which also lets blocked routers sleep).
``telemetry``
    Telemetry sampling enabled vs disabled — probes are read-only.
``armed``
    A fault plan that is armed (binds real structure, passes
    validation) but provably never fires inside the run, vs no plan.
``all``
    All three perturbations at once — catches interactions the
    pairwise checks miss.

The engine-parity contract is the strongest promise of the family and
gets its own property (:func:`check_engine_parity_case`): the
struct-of-arrays vector engine (:mod:`repro.noc.vector`) must be
bit-identical to the per-object golden model on the case *verbatim* —
firing fault plans included, under either scheduler — not just on the
fault-stripped differential baseline.

A divergence raises :class:`DifferentialFailure` naming the variant,
which the harness shrinks and serializes like any other failure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..schemes import get_config
from .invariants import run_case
from .space import VerifyCase


class DifferentialFailure(AssertionError):
    """A supposedly-pure knob changed the simulated behaviour."""

    def __init__(
        self,
        case: VerifyCase,
        base_fingerprint: str,
        divergent: List[Tuple[str, str]],
    ) -> None:
        self.case = case
        self.base_fingerprint = base_fingerprint
        self.divergent = list(divergent)
        names = ", ".join(name for name, _ in self.divergent)
        lines = "\n  ".join(
            f"{name}: {fp} != base {base_fingerprint}"
            for name, fp in self.divergent
        )
        super().__init__(
            f"stats_fingerprint diverged under [{names}] for "
            f"[{case.label()}]:\n  {lines}"
        )


def differential_variants(case: VerifyCase) -> Dict[str, VerifyCase]:
    """The variant map checked against the normalized base case."""
    base = base_case(case)
    other = "dense" if base.scheduler == "active" else "active"
    telemetry = case.telemetry or 2
    variants = {
        "scheduler": base.with_variant(scheduler=other),
        "telemetry": base.with_variant(telemetry=telemetry),
    }
    if get_config(case.scheme).supports_faults:
        # Armed-plan purity only applies to schemes that accept fault
        # plans at all; a no-fault-capability scheme rejects even a
        # never-firing plan at arm time (by design, and tested).
        variants["armed-faults"] = base.with_variant(
            faults=base.armed_faults()
        )
        variants["all"] = base.with_variant(
            scheduler=other,
            telemetry=telemetry,
            faults=base.armed_faults(),
        )
    else:
        variants["all"] = base.with_variant(
            scheduler=other, telemetry=telemetry
        )
    return variants


def base_case(case: VerifyCase) -> VerifyCase:
    """Normalize a generated case into the differential baseline.

    Fault plans that can actually fire are stripped — a firing fault
    legitimately changes behaviour, so the differential baseline keeps
    only the topology/workload knobs and checks the pure ones around
    it.
    """
    return case.with_variant(faults=(), telemetry=0)


def check_differential_case(case: VerifyCase) -> str:
    """Run the base case and all variants; raise on any divergence.

    Runs without per-cycle audits (``validate_every=0``) — purity is
    about externally observable counters, and the invariant property
    already audits the same space.  Returns the base fingerprint.
    """
    base = base_case(case)
    base_run = run_case(base, validate_every=0)
    divergent: List[Tuple[str, str]] = []
    for name, variant in differential_variants(case).items():
        variant_run = run_case(variant, validate_every=0)
        if variant_run.stats_fingerprint != base_run.stats_fingerprint:
            divergent.append((name, variant_run.stats_fingerprint))
    if divergent:
        raise DifferentialFailure(
            case, base_run.stats_fingerprint, divergent
        )
    return base_run.stats_fingerprint


def engine_counterpart(case: VerifyCase) -> VerifyCase:
    """The same case on the other tick engine."""
    other = "vector" if case.engine == "object" else "object"
    return case.with_variant(engine=other)


def check_engine_parity_case(case: VerifyCase) -> str:
    """Run the case verbatim under both engines; raise on divergence.

    Unlike :func:`check_differential_case` this does *not* normalize
    through :func:`base_case`: firing fault plans, telemetry sampling
    and the generated scheduler all stay in place, because the vector
    engine claims equivalence on the full config space, not just the
    pure-knob baseline.  Returns the fingerprint both engines agree on.
    """
    base_run = run_case(case, validate_every=0)
    twin = engine_counterpart(case)
    twin_run = run_case(twin, validate_every=0)
    if twin_run.stats_fingerprint != base_run.stats_fingerprint:
        raise DifferentialFailure(
            case,
            base_run.stats_fingerprint,
            [(f"engine={twin.engine}", twin_run.stats_fingerprint)],
        )
    return base_run.stats_fingerprint
