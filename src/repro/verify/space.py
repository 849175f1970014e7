"""The verification configuration space: one generated case = one run.

A :class:`VerifyCase` is the unit the property harness generates,
shrinks and replays: everything a short simulation needs — scheme,
benchmark, mesh size, CB count, workload seed, scheduler discipline,
telemetry sampling and a (possibly empty) fault plan — expressed as
plain data with a canonical JSON form.  The canonical form feeds the
replay artifacts (:mod:`repro.verify.artifact`) and the case digest, so
a CI failure names a config that reproduces locally byte-for-byte.

Validity is enforced at construction (`__post_init__`), mirroring the
real constraints of the fabric builders: square grids only, ``num_cbs
<= width`` (diamond/N-Queen placements), an even width for the
concentrated-mesh overlay, and fault specs that pass
:class:`~repro.noc.faults.FaultSpec` validation.  The hypothesis
strategies in :mod:`repro.verify.strategies` only ever produce valid
cases; the checks here are the safety net for hand-written replays.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Tuple

from ..harness.experiment import ExperimentConfig
from ..noc.faults import FaultSpec
from ..noc.network import ENGINES
from ..schemes import SCHEME_ORDER, get_spec
from ..workloads.profiles import BY_NAME

#: Default simulated-cycle bound: liveness means finishing well inside it.
DEFAULT_MAX_CYCLES = 6000
#: Default stall-watchdog window: generously above any transient-fault
#: heal window the strategies generate, so only a genuine deadlock trips.
DEFAULT_WATCHDOG = 2500
#: MCTS budget for EquiNox cases: tiny meshes need only a shallow search.
DEFAULT_MCTS_ITERATIONS = 4


@dataclass(frozen=True)
class VerifyCase:
    """One generated verification configuration (plain, canonical data)."""

    scheme: str
    benchmark: str
    width: int
    num_cbs: int
    quota: int
    seed: int
    scheduler: str = "active"
    # Tick engine: "object" (per-object golden reference) or "vector"
    # (struct-of-arrays batched tick).  Both must produce bit-identical
    # stats fingerprints; the engine-parity property enforces it.
    engine: str = "object"
    # Telemetry sampling interval in base cycles (0 = off).  Passed to
    # the registry verbatim (1 really means every cycle here).
    telemetry: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    max_cycles: int = DEFAULT_MAX_CYCLES
    watchdog_cycles: int = DEFAULT_WATCHDOG
    mcts_iterations: int = DEFAULT_MCTS_ITERATIONS

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_ORDER:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; known: {SCHEME_ORDER}"
            )
        spec = get_spec(self.scheme)
        if self.faults and not spec.supports_faults:
            # Even an armed-but-never-firing plan is rejected at
            # arm time for a no-fault-capability scheme, so the
            # differential harness must not generate one here.
            raise ValueError(
                f"scheme {self.scheme!r} does not support fault plans"
            )
        if self.benchmark not in BY_NAME:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        if self.width < 3:
            raise ValueError("width must be >= 3")
        if not 1 <= self.num_cbs <= self.width:
            raise ValueError(
                f"num_cbs {self.num_cbs} outside [1, width={self.width}]"
            )
        if self.scheme == "Interposer-CMesh" and self.width % 2:
            raise ValueError("Interposer-CMesh needs an even mesh width")
        if self.quota < 1:
            raise ValueError("quota must be >= 1")
        if self.scheduler not in ("active", "dense"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.engine not in ENGINES:  # replayed artifacts are outside input
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.telemetry < 0:
            raise ValueError("telemetry interval must be >= 0")
        if self.max_cycles < 100:
            raise ValueError("max_cycles must be >= 100")
        if self.watchdog_cycles < 1:
            raise ValueError("watchdog_cycles must be >= 1")
        object.__setattr__(self, "faults", tuple(self.faults))

    # ------------------------------------------------------------------
    @property
    def faulted(self) -> bool:
        """Whether any spec can fire inside the simulated window."""
        return any(s.at_cycle <= self.max_cycles for s in self.faults)

    def experiment_config(self) -> ExperimentConfig:
        """The harness-level config this case corresponds to."""
        return ExperimentConfig(
            width=self.width,
            num_cbs=self.num_cbs,
            quota=self.quota,
            seed=self.seed,
            mcts_iterations=self.mcts_iterations,
            max_cycles=self.max_cycles,
            watchdog_cycles=self.watchdog_cycles,
            faults=self.faults,
            scheduler=self.scheduler,
            engine=self.engine,
        )

    def label(self) -> str:
        """Short human-readable identity for progress lines and reports."""
        bits = [
            f"{self.scheme} x {self.benchmark}",
            f"{self.width}x{self.width}",
            f"cbs={self.num_cbs}",
            f"quota={self.quota}",
            f"seed={self.seed}",
            self.scheduler,
        ]
        if self.engine != "object":
            bits.append(self.engine)
        if self.telemetry:
            bits.append(f"telemetry={self.telemetry}")
        if self.faults:
            bits.append(f"faults={len(self.faults)}")
        return " ".join(bits)

    # ------------------------------------------------------------------
    # Canonical plain-data form (replay artifacts)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["faults"] = [spec.to_dict() for spec in self.faults]
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "VerifyCase":
        if not isinstance(data, dict):
            raise ValueError(f"verify case must be an object, got {data!r}")
        payload = dict(data)
        raw_faults = payload.pop("faults", [])
        if not isinstance(raw_faults, (list, tuple)):
            raise ValueError("verify case 'faults' must be a list")
        faults = tuple(FaultSpec.from_dict(item) for item in raw_faults)
        required = {
            "scheme", "benchmark", "width", "num_cbs", "quota", "seed",
        }
        optional = {
            "scheduler", "engine", "telemetry", "max_cycles",
            "watchdog_cycles", "mcts_iterations",
        }
        unknown = set(payload) - required - optional
        if unknown:
            raise ValueError(f"unknown verify case fields {sorted(unknown)}")
        missing = required - set(payload)
        if missing:
            # A truncated or hand-edited artifact must fail the same
            # ValueError way as every other validation, not leak a
            # TypeError from the dataclass constructor.
            raise ValueError(
                f"verify case missing required fields {sorted(missing)}"
            )
        return VerifyCase(faults=faults, **payload)

    def digest(self) -> str:
        """Short stable digest of the canonical form (artifact keying)."""
        from ..telemetry import dumps_record

        payload = dumps_record(self.to_dict())
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    def with_variant(self, **changes: object) -> "VerifyCase":
        """A copy with some knobs changed (differential variants)."""
        return replace(self, **changes)

    def armed_faults(self) -> Tuple[FaultSpec, ...]:
        """A plan that is armed but provably never fires in this run.

        Every spec is shifted past ``max_cycles`` (heals stay ordered),
        and a wildcard EIR-link + NI-buffer pair is added so even a
        case generated without faults gets a non-empty armed plan.  The
        differential contract says running with this plan must be
        bit-identical to running with no plan at all.
        """
        beyond = self.max_cycles + 1
        shifted = []
        for spec in self.faults:
            heal = None
            if spec.heal_cycle is not None:
                heal = beyond + 1 + (spec.heal_cycle - spec.at_cycle)
            shifted.append(
                replace(spec, at_cycle=beyond + 1, heal_cycle=heal)
            )
        shifted.append(FaultSpec(kind="eir_link", at_cycle=beyond))
        # Nodes 0 and 1 are adjacent on every grid, so this spec always
        # binds a real link — the armed plan is never vacuously empty.
        shifted.append(
            FaultSpec(kind="mesh_link", node=0, peer=1, at_cycle=beyond)
        )
        return tuple(shifted)
