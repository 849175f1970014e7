"""The full-chip model: PEs + cache banks + fabric + memory.

``System.run`` executes one benchmark on one scheme and returns a
:class:`SystemResult` with everything the harness needs: execution
cycles, IPC, per-network statistics, memory utilisation, and the
transaction population for latency analysis.

Termination: every PE exhausts its instruction quota and receives all
replies.  A watchdog raises :class:`SimulationStall` if nothing makes
progress for a configurable window (a protocol deadlock would
otherwise hang the harness silently); the exception carries a full
diagnostic dump — per-router occupancy, VC owners, NI backlogs, the
conservation-audit report and the oldest stuck packet's position.
With validation enabled (``SystemConfig.validate_interval`` /
``REPRO_VALIDATE``), every network is also audited periodically so a
credit leak or arbitration bug surfaces as a named violation long
before the watchdog window elapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..noc.diagnostics import audit_networks, stall_dump
from ..schemes.base import Fabric
from ..workloads.profiles import WorkloadProfile
from .cachebank import CacheBank
from .pe import ProcessingElement
from .transaction import Transaction

DEFAULT_QUOTA = 150
WATCHDOG_CYCLES = 20000


class SimulationStall(RuntimeError):
    """No progress for the watchdog window; carries a diagnostic dump."""

    def __init__(self, message: str, dump: str = "") -> None:
        self.dump = dump
        super().__init__(f"{message}\n{dump}" if dump else message)


@dataclass
class SystemConfig:
    """Per-run knobs of the full-system model."""

    quota: int = DEFAULT_QUOTA           # memory instructions per PE
    mshrs: int = 32
    cb_capacity: int = 16
    seed: int = 0
    max_cycles: int = 400000
    # Conservation-audit interval in base cycles (0 = off).  Audits are
    # read-only; enabling them must not change simulated behaviour.
    validate_interval: int = 0
    # Stall-watchdog window in base cycles (None = WATCHDOG_CYCLES).
    watchdog_cycles: Optional[int] = None
    # Optional FaultInjector (noc.faults), already bound to the fabric;
    # its on_cycle hook fires due fail/heal events at base-cycle
    # boundaries, before any component ticks.
    fault_injector: Optional[object] = None
    # Optional telemetry registry (repro.telemetry.TelemetryRegistry),
    # sampled every ``telemetry.interval`` base cycles.  Probes are
    # read-only, so an enabled run stays bit-identical to a disabled
    # one; disabled costs one ``is None`` test per cycle.
    telemetry: Optional[object] = None


@dataclass
class SystemResult:
    """Outcome of one full-system run."""

    cycles: int
    instructions: int
    transactions: List[Transaction]
    fabric: Fabric
    pe_stall_cycles: int
    cb_stall_cycles: int

    @property
    def ipc(self) -> float:
        """Memory instructions completed per cycle (whole chip)."""
        return self.instructions / self.cycles if self.cycles else 0.0


class System:
    """One scheme x workload instance, ready to run."""

    def __init__(
        self,
        fabric: Fabric,
        profile: WorkloadProfile,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.fabric = fabric
        self.profile = profile
        self.config = config or SystemConfig()
        cfg = self.config
        placement = list(fabric.placement)
        self.pes: Dict[int, ProcessingElement] = {}
        for index, node in enumerate(fabric.pes):
            self.pes[node] = ProcessingElement(
                node=node,
                profile=profile,
                num_cbs=len(placement),
                quota=cfg.quota,
                seed=cfg.seed,
                pe_index=index,
                mshrs=cfg.mshrs,
            )
        self.banks: Dict[int, CacheBank] = {
            node: CacheBank(
                node=node,
                profile=profile,
                fabric=fabric,
                seed=cfg.seed,
                capacity=cfg.cb_capacity,
            )
            for node in placement
        }
        self.transactions: List[Transaction] = []
        self.cycle = 0
        # Every base cycle is simulated, so this is always 0.  Kept only
        # for bench/wl_sweep.py, which reads it into its
        # gpu.fast_forwarded_cycles per-layer metric.
        self.fast_forwarded_cycles = 0
        self.telemetry = cfg.telemetry
        if self.telemetry is not None:
            self._register_telemetry(self.telemetry)

    # ------------------------------------------------------------------
    def _register_telemetry(self, registry: "object") -> None:
        """Register system-level probes (fabric and NI probes included)."""
        self.fabric.register_telemetry(registry)
        for node, bank in self.banks.items():
            registry.register_series(
                f"hbm.cb{node}.queue_depth",
                lambda bank=bank: bank.memory.queue_depth(),
            )
        registry.register_series(
            "hbm.queue_depth",
            lambda: sum(
                bank.memory.queue_depth() for bank in self.banks.values()
            ),
        )
        registry.register_series(
            "pe.instructions_issued",
            lambda: sum(pe.issued for pe in self.pes.values()),
        )
        registry.register_final("system.cycles", lambda: self.cycle)
        registry.register_final(
            "system.pe_stall_cycles",
            lambda: sum(pe.stall_cycles for pe in self.pes.values()),
        )
        registry.register_final(
            "system.cb_stall_cycles",
            lambda: sum(bank.stall_cycles for bank in self.banks.values()),
        )

    def run(self) -> SystemResult:
        cfg = self.config
        cb_nodes = list(self.fabric.placement)
        pes = list(self.pes.values())
        banks = list(self.banks.values())
        # PEs with quota left, in ``pes`` order: a spent PE's try_issue
        # returns None and changes nothing, so it leaves the walk.
        issuing = [pe for pe in pes if pe.remaining > 0]
        tid = 0
        received = 0
        last_progress_seen = 0
        watchdog_window = cfg.watchdog_cycles or WATCHDOG_CYCLES
        networks = [net for net, _ratio, _role in self.fabric.networks]
        validate_interval = cfg.validate_interval
        injector = cfg.fault_injector
        telemetry = self.telemetry
        t_interval = telemetry.interval if telemetry is not None else 0
        while self.cycle < cfg.max_cycles:
            self.cycle += 1
            cycle = self.cycle
            # 0. Fault injection fires between ticks, so every audit
            #    invariant holds when faults are applied or healed.
            if injector is not None:
                injector.on_cycle(cycle)
            # 1. PEs issue new requests ...
            spent = False
            for pe in issuing:
                transaction = pe.try_issue(cycle, tid + 1, cb_nodes)
                if transaction is not None:
                    tid += 1
                    self.transactions.append(transaction)
                    self.fabric.send_request(
                        transaction.pe,
                        transaction.cb,
                        ProcessingElement.request_type(transaction),
                        transaction,
                    )
                    spent = spent or not pe.remaining
            if spent:
                issuing = [pe for pe in issuing if pe.remaining]
            # ... and the PEs a reply waits for absorb them.  Issuing
            # never delivers a reply and pops at different PEs touch
            # disjoint state, so this equals interleaving the two.
            for node, count in self.fabric.replies_waiting().items():
                pe = self.pes[node]
                for _ in range(count):
                    pe.receive_reply(self.fabric.pop_reply(node), cycle)
                received += count
            # 2. Networks move flits.
            self.fabric.tick()
            # 3. CBs accept requests, talk to memory, emit replies.
            for bank in banks:
                bank.tick(cycle)
            # 3.5 Telemetry sampling (read-only, interval-gated).
            if telemetry is not None and cycle % t_interval == 0:
                telemetry.sample(cycle)
            # 4. Periodic conservation audit (validation mode only).
            if validate_interval > 0 and cycle % validate_interval == 0:
                audit_networks(networks)
            # 5. Termination: every quota spent and every reply home.
            if not issuing and received == tid:
                break
            # 6. Watchdog.  Progress never moves backwards, so reading
            #    it only once the window looks exceeded, then re-testing,
            #    trips on the cycle an every-cycle read would.
            if cycle - last_progress_seen > watchdog_window:
                last_progress_seen = max(
                    last_progress_seen, self.fabric.last_progress()
                )
            if cycle - last_progress_seen > watchdog_window:
                if all(bank.memory.idle() for bank in banks):
                    raise SimulationStall(
                        f"no network progress since base cycle "
                        f"{last_progress_seen} (watchdog window "
                        f"{watchdog_window})",
                        dump=stall_dump(networks),
                    )
                last_progress_seen = cycle  # memory still working; extend
        if telemetry is not None:
            # Final-state sample (deduplicated if the loop just sampled).
            telemetry.sample(self.cycle)
        return SystemResult(
            cycles=self.cycle,
            instructions=sum(pe.issued for pe in pes),
            transactions=self.transactions,
            fabric=self.fabric,
            pe_stall_cycles=sum(pe.stall_cycles for pe in pes),
            cb_stall_cycles=sum(bank.stall_cycles for bank in banks),
        )
