"""Deterministic fault injection: failing links, ports and NI buffers.

EquiNox's redundancy argument — any of a CB's Equivalent Injection
Routers can inject its replies — is only meaningful if the system
survives losing injectors.  This module makes faults a first-class,
reproducible experiment input:

* :class:`FaultSpec` — one declarative fault: *what* fails (a mesh
  link, an interposer RDL link to an EIR, a router port, or one NI
  injection buffer), *when* (``at_cycle``), and optionally when it
  heals (``heal_cycle``) for transient faults;
* :class:`FaultPlan` — an ordered collection of specs with JSON
  round-tripping (``repro sweep --faults plan.json`` / ``REPRO_FAULTS``);
* :class:`FaultInjector` — binds a plan to a live fabric and applies /
  heals faults at exact base cycles from the system run loop.

Degradation semantics (audit-aware, not audit-disabled):

* a failed **NI buffer / EIR link** is *quarantined*: an idle buffer
  stops accepting packets; an untransmitted packet (no VC held — VC
  allocation and the first flit send are atomic in ``try_send``) is
  reclaimed whole and requeued at the head of the NI source queue for
  re-selection among the surviving injectors; a mid-wormhole packet has
  its on-wire flits pulled back (credits restored, ``flits_dropped``
  ledger incremented so the flit-conservation audit still balances) and
  either aborts entirely (nothing committed downstream) or *drains* —
  finishes its packet over the failing link at a packet boundary —
  before the buffer quarantines itself;
* a failed **mesh link** is fail-stop for new allocations only: the
  router stops routing packets onto it; when every turn-model-legal
  port is structurally unusable the router walks the fault boundary
  (minimal directions first, then right/left/reverse of the primary
  one, never back out the arrival port); packets already allocated
  finish their wormhole;
* a **router port** fault expands to the mesh link in both directions
  (or, for an injection port, to the NI buffer feeding it).

Everything is deterministic: faults fire at fixed base cycles in spec
order, and an *armed but never-firing* plan leaves the run bit-identical
(``stats_fingerprint``) to an unarmed one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from . import routing

FAULT_KINDS = ("eir_link", "ni_buffer", "mesh_link", "router_port")

@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    ``kind`` selects the target class:

    * ``eir_link`` — the RDL link from CB ``node`` to EIR ``peer``
      (both ``None`` = wildcard: the injector picks the next unused EIR
      link in deterministic design order, so a generic plan like "fail
      two EIR links" works for any MCTS design);
    * ``ni_buffer`` — injection buffer ``buffer`` of the NI at ``node``;
    * ``mesh_link`` — the mesh link between ``node`` and ``peer``
      (failed in both directions);
    * ``router_port`` — port ``port`` of the router at ``node``.

    ``net`` names the fabric role the fault applies to (``reply``,
    ``request`` or ``any``).  ``heal_cycle`` (exclusive of ``at_cycle``)
    makes the fault transient.
    """

    kind: str
    node: Optional[int] = None
    peer: Optional[int] = None
    port: Optional[int] = None
    buffer: Optional[int] = None
    net: str = "reply"
    at_cycle: int = 0
    heal_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.net not in ("reply", "request", "any"):
            raise ValueError(f"unknown fault net role {self.net!r}")
        if self.at_cycle < 0:
            raise ValueError("at_cycle must be non-negative")
        if self.heal_cycle is not None and self.heal_cycle <= self.at_cycle:
            raise ValueError("heal_cycle must be after at_cycle")
        if self.kind == "ni_buffer" and (
            self.node is None or self.buffer is None
        ):
            raise ValueError("ni_buffer faults need node and buffer")
        if self.kind == "mesh_link" and (
            self.node is None or self.peer is None
        ):
            raise ValueError("mesh_link faults need node and peer")
        if self.kind == "router_port" and (
            self.node is None or self.port is None
        ):
            raise ValueError("router_port faults need node and port")
        if self.kind == "eir_link" and (self.node is None) != (
            self.peer is None
        ):
            raise ValueError(
                "eir_link faults need both node and peer, or neither "
                "(wildcard)"
            )

    def to_dict(self) -> Dict[str, object]:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ValueError(f"fault spec must be an object, got {data!r}")
        unknown = set(data) - {
            "kind", "node", "peer", "port", "buffer", "net",
            "at_cycle", "heal_cycle",
        }
        if unknown:
            raise ValueError(f"unknown fault spec fields {sorted(unknown)}")
        if "kind" not in data:
            raise ValueError("fault spec is missing 'kind'")
        return FaultSpec(**data)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, serialisable collection of fault specs."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def empty(self) -> bool:
        return not self.faults

    def to_json(self) -> str:
        return json.dumps(
            {"faults": [spec.to_dict() for spec in self.faults]},
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from None
        if isinstance(data, dict):
            data = data.get("faults", [])
        if not isinstance(data, list):
            raise ValueError(
                "fault plan must be a JSON list of specs or an object "
                "with a 'faults' list"
            )
        return FaultPlan(tuple(FaultSpec.from_dict(item) for item in data))

    @staticmethod
    def load(path: Union[str, Path]) -> "FaultPlan":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read fault plan {path}: {exc}") from None
        try:
            return FaultPlan.from_json(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path


def parse_faults_arg(value: str) -> Tuple[FaultSpec, ...]:
    """``--faults`` / ``REPRO_FAULTS``: inline JSON or a plan file path."""
    value = value.strip()
    if not value:
        return ()
    if value.startswith("[") or value.startswith("{"):
        return FaultPlan.from_json(value).faults
    return FaultPlan.load(value).faults


# ----------------------------------------------------------------------
# Plan builders
# ----------------------------------------------------------------------
def eir_link_faults(
    design: "object",
    per_group: int,
    at_cycle: int = 0,
) -> Tuple[FaultSpec, ...]:
    """Fail the first ``per_group`` EIR links of every CB group for
    good."""
    specs: List[FaultSpec] = []
    for group in design.groups:
        for eir in group.nodes[:per_group]:
            specs.append(
                FaultSpec(
                    kind="eir_link",
                    node=group.cb,
                    peer=eir,
                    at_cycle=at_cycle,
                )
            )
    return tuple(specs)


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class _BufferTarget:
    """A fault bound to one NI injection buffer."""

    __slots__ = ("net", "ni", "buf")

    def __init__(self, net, ni, buf) -> None:
        self.net = net
        self.ni = ni
        self.buf = buf


class _LinkTarget:
    """A fault bound to one directed router output port."""

    __slots__ = ("net", "router", "port")

    def __init__(self, net, router, port: int) -> None:
        self.net = net
        self.router = router
        self.port = port


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live fabric, cycle by cycle.

    Binding happens once at construction; :meth:`on_cycle` is called by
    the system run loop at every base cycle and fires any due fail/heal
    events in deterministic ``(cycle, spec order)`` order.  Specs that
    match nothing in this fabric (e.g. EIR-link faults applied to a
    baseline scheme) are recorded in ``unmatched`` and skipped — the
    same plan can drive a whole sweep.
    """

    def __init__(self, fabric, plan: FaultPlan) -> None:
        self.fabric = fabric
        self.plan = plan
        self.unmatched: List[FaultSpec] = []
        self.applied = 0
        self.healed = 0
        self._next = 0
        # Wildcard eir_link specs consume EIR links in deterministic
        # design order (NI registration order, then buffer order).
        self._wildcard_pool = self._eir_link_pool()
        self._wildcard_used = 0
        events: List[Tuple[int, int, str, object]] = []
        for order, spec in enumerate(plan.faults):
            targets = self._resolve(spec)
            if not targets:
                self.unmatched.append(spec)
                continue
            for target in targets:
                events.append((spec.at_cycle, order, "fail", target))
                if spec.heal_cycle is not None:
                    events.append((spec.heal_cycle, order, "heal", target))
        events.sort(key=lambda ev: (ev[0], ev[1], ev[2] == "heal"))
        self._events = events

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def _nets(self, role: str):
        return self.fabric.networks_by_role(role)

    def _eir_link_pool(self) -> List[_BufferTarget]:
        pool: List[_BufferTarget] = []
        for net in self._nets("reply"):
            for ni in net.nis:
                eir_buffer = getattr(ni, "_eir_buffer", None)
                if not eir_buffer:
                    continue
                for _eir, idx in eir_buffer.items():
                    pool.append(_BufferTarget(net, ni, ni.buffers[idx]))
        return pool

    def _resolve(self, spec: FaultSpec) -> List[object]:
        if spec.kind == "eir_link":
            return self._resolve_eir_link(spec)
        if spec.kind == "ni_buffer":
            return self._resolve_ni_buffer(spec)
        if spec.kind == "mesh_link":
            return self._resolve_mesh_link(spec)
        return self._resolve_router_port(spec)

    def _resolve_eir_link(self, spec: FaultSpec) -> List[object]:
        if spec.node is None:  # wildcard: next unused EIR link
            if self._wildcard_used >= len(self._wildcard_pool):
                return []
            target = self._wildcard_pool[self._wildcard_used]
            self._wildcard_used += 1
            return [target]
        for net in self._nets(spec.net):
            for ni in net.nis:
                if ni.node != spec.node:
                    continue
                idx = getattr(ni, "_eir_buffer", {}).get(spec.peer)
                if idx is not None:
                    return [_BufferTarget(net, ni, ni.buffers[idx])]
        return []

    def _resolve_ni_buffer(self, spec: FaultSpec) -> List[object]:
        targets: List[object] = []
        for net in self._nets(spec.net):
            for ni in net.nis:
                if ni.node != spec.node:
                    continue
                if spec.buffer < len(ni.buffers):
                    targets.append(
                        _BufferTarget(net, ni, ni.buffers[spec.buffer])
                    )
        return targets

    def _resolve_mesh_link(self, spec: FaultSpec) -> List[object]:
        targets: List[object] = []
        for net in self._nets(spec.net):
            if spec.node >= len(net.routers) or spec.peer >= len(net.routers):
                continue
            for a, b in ((spec.node, spec.peer), (spec.peer, spec.node)):
                router = net.routers[a]
                for port, (nbr, _nbr_port) in router.neighbors.items():
                    if nbr == b:
                        targets.append(_LinkTarget(net, router, port))
        return targets

    def _resolve_router_port(self, spec: FaultSpec) -> List[object]:
        targets: List[object] = []
        for net in self._nets(spec.net):
            if spec.node >= len(net.routers):
                continue
            router = net.routers[spec.node]
            if spec.port < routing.NUM_MESH_PORTS:
                if spec.port not in router.neighbors:
                    continue
                nbr, _nbr_port = router.neighbors[spec.port]
                targets.append(_LinkTarget(net, router, spec.port))
                targets.append(
                    _LinkTarget(
                        net, net.routers[nbr], routing.opposite(spec.port)
                    )
                )
            else:
                # Injection/interposer input port: fail the NI buffer
                # that feeds it (same quarantine semantics).
                link = net.upstream.get((spec.node, spec.port))
                if link is None:
                    continue
                for ni in net.nis:
                    for buf in ni.buffers:
                        if buf.link is link:
                            targets.append(_BufferTarget(net, ni, buf))
        return targets

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def on_cycle(self, cycle: int) -> None:
        """Fire every event due at or before ``cycle`` (base cycles)."""
        events = self._events
        while self._next < len(events) and events[self._next][0] <= cycle:
            _at, _order, action, target = events[self._next]
            self._next += 1
            if isinstance(target, _BufferTarget):
                if action == "fail":
                    self._fail_buffer(target)
                else:
                    self._heal_buffer(target)
            else:
                if action == "fail":
                    self._fail_link(target)
                else:
                    self._heal_link(target)

    def _fail_buffer(self, target: _BufferTarget) -> None:
        buf = target.buf
        if buf.failed or buf.draining:
            return  # already down (overlapping specs)
        self.applied += 1
        net = target.net
        # The injector mutates buffer/link state behind the scheduler's
        # back, so any credit-stall hint is stale.  The wake happens at
        # the end of this method, after every mutation, so the armed
        # set tracks has_work exactly.
        buf.stalled = False
        net.faults_fired = True
        net.soa_invalidate()
        stats = net.stats
        if buf.cur_vc is not None:
            # Mid-wormhole: pull the on-wire flits back first.  They
            # were counted as injected, so they enter the dropped-flit
            # ledger and their link credits are restored.
            wire = net.reclaim_scheduled_flits(
                buf.target_node, buf.target_port
            )
            for flit in reversed(wire):
                buf.flits.appendleft(flit)
            if wire:
                buf.link.credits[buf.cur_vc] += len(wire)
                stats.flits_dropped += len(wire)
            packet = buf.flits[0].packet
            if len(buf.flits) == packet.size:
                # Nothing committed downstream: abort the transmission
                # entirely and recover the packet for re-selection.
                buf.link.owner[buf.cur_vc] = None
                buf.cur_vc = None
                stats.flits_reclaimed += packet.size - len(wire)
                buf.flits.clear()
                target.ni.source_queue.appendleft(packet)
                stats.packets_recovered += 1
                buf.failed = True
            else:
                # Flits are already inside the downstream router: finish
                # the packet over the failing link (fail at a packet
                # boundary), then quarantine.
                buf.draining = True
        elif buf.flits:
            # Loaded but untransmitted (no VC held implies zero flits
            # sent): reclaim the whole packet, never injected.
            packet = buf.flits[0].packet
            stats.flits_reclaimed += len(buf.flits)
            buf.flits.clear()
            target.ni.source_queue.appendleft(packet)
            stats.packets_recovered += 1
            buf.failed = True
        else:
            buf.failed = True
        net.wake_ni(target.ni)

    def _heal_buffer(self, target: _BufferTarget) -> None:
        buf = target.buf
        if buf.failed or buf.draining:
            self.healed += 1
        buf.failed = False
        buf.draining = False
        # A healed buffer can accept queued packets again: wake the NI,
        # whose sleep decision predates the heal.
        buf.stalled = False
        target.net.wake_ni(target.ni)

    def _fail_link(self, target: _LinkTarget) -> None:
        if target.port not in target.router.failed_outputs:
            target.router.failed_outputs.add(target.port)
            target.net.faults_fired = True
            target.net.soa_invalidate()
            self.applied += 1

    def _heal_link(self, target: _LinkTarget) -> None:
        if target.port in target.router.failed_outputs:
            target.router.failed_outputs.discard(target.port)
            target.net.soa_invalidate()
            self.healed += 1

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Counters for reports: bound/applied/healed/unmatched."""
        return {
            "specs": len(self.plan),
            "events": len(self._events),
            "applied": self.applied,
            "healed": self.healed,
            "unmatched": len(self.unmatched),
        }
