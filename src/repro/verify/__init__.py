"""Property verification harness: randomized invariant mining.

Generates valid-by-construction configurations (topology, scheme,
workload, scheduler, telemetry, fault plans), runs short simulations
with the full audit set asserted every cycle, checks bounded liveness
and delivery accounting, and differentially checks that pure knobs
(scheduler discipline, telemetry, armed-but-never-firing fault plans)
never change ``stats_fingerprint``.  A dedicated engine-parity
property runs every generated case — firing fault plans included —
under both the object and vector tick engines and requires
bit-identical fingerprints.  Failures shrink to a minimal case and
serialize as replayable artifacts (``repro verify --replay``).

See ``docs/VERIFY.md`` for the invariant catalogue and workflow.
"""

from .artifact import (
    ARTIFACT_SCHEMA,
    KNOWN_PROPERTIES,
    PROPERTY_DIFFERENTIAL,
    PROPERTY_ENGINE_PARITY,
    PROPERTY_INVARIANTS,
    artifact_bytes,
    artifact_filename,
    build_artifact,
    load_artifact,
    replay,
    sanitize_error,
    write_failure,
)
from .differential import (
    DifferentialFailure,
    base_case,
    check_differential_case,
    check_engine_parity_case,
    differential_variants,
    engine_counterpart,
)
from .harness import (
    DEEP,
    FAILURE_EXCEPTIONS,
    FAST,
    PROFILES,
    PropertyOutcome,
    VerifyProfile,
    VerifyReport,
    run_profile,
)
from .invariants import (
    CaseRun,
    VerifyFailure,
    check_invariants_case,
    end_state_problems,
    hermetic_env,
    run_case,
)
from .space import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_WATCHDOG,
    VerifyCase,
)
from .strategies import (
    DEEP_WIDTHS,
    FAST_WIDTHS,
    cases,
    fault_plans,
    fault_specs,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "DEEP",
    "DEEP_WIDTHS",
    "DEFAULT_MAX_CYCLES",
    "DEFAULT_WATCHDOG",
    "FAILURE_EXCEPTIONS",
    "FAST",
    "FAST_WIDTHS",
    "KNOWN_PROPERTIES",
    "PROFILES",
    "PROPERTY_DIFFERENTIAL",
    "PROPERTY_ENGINE_PARITY",
    "PROPERTY_INVARIANTS",
    "CaseRun",
    "DifferentialFailure",
    "PropertyOutcome",
    "VerifyCase",
    "VerifyFailure",
    "VerifyProfile",
    "VerifyReport",
    "artifact_bytes",
    "artifact_filename",
    "base_case",
    "build_artifact",
    "cases",
    "check_differential_case",
    "check_engine_parity_case",
    "check_invariants_case",
    "differential_variants",
    "engine_counterpart",
    "end_state_problems",
    "fault_plans",
    "fault_specs",
    "hermetic_env",
    "load_artifact",
    "replay",
    "run_case",
    "run_profile",
    "sanitize_error",
    "write_failure",
]
