"""Struct-of-arrays tick engine, bit-identical to the object model.

A :class:`_SoA` is the object an armed :class:`~repro.noc.network.Network`
holds in ``_soa``: it replaces the per-object router tick with batched
numpy phases over flat arrays (``self`` is the arrays, ``net`` the
network they stand for).  All router state lives in struct-of-arrays
form:

* every input VC is a *slot* ``(node * P + port) * V + vc`` where ``P``
  is the network-wide input-port stride and ``V`` the VC count; a slot
  owns a power-of-two ring of flit ids (``ring``/``headpos``/``qlen``)
  and its allocated route (``route_cs``/``route_oi``/``route_dest``);
* every router output VC is a *credit slot* holding its credit count
  (``credits_all``), an ``owned`` flag, and the owner identity encoded
  as ``port * V + vc`` (decoded back to the ``(port, vc)`` tuples the
  audits expect only on materialisation);
* flits are interned integer ids into ``f_objs``; the hot phases touch
  only the ``f_tail``/``f_buffered`` arrays.

Per cycle the engine applies pending credits and arrivals with fancy
indexing, selects the winning request of every input port with one
vectorised rotate-min, and evaluates route/VC allocations in batch:
route candidates are gathered from the ``routing.route_table`` bytes
(on a loop network, the ``routing.LoopTable`` columns) the object path
reads one at a time, so the common allocation shape — no fired faults,
no VC monopolisation, unfiltered single eject port, at most one
attempting head per router — reduces to gathers over the credit/owner
arrays.  Anything else is not re-implemented here: the one affected
router is materialised onto its :class:`Router` object, the golden
``Router._route_and_allocate`` decides, and the decision is imported
back into the arrays — so every allocation rule (VC borrowing, eject
filters, fault detours) lives in ``router.py`` alone.  A per-node
``epoch`` vs per-slot ``fail_epoch`` comparison skips retries that
cannot succeed: a failed allocation mutates nothing in the object
model, so eliding one is bit-identical, and every event that could
change an allocation's outcome (arrival, pop, credit return, owner
release, delivered-packet pop) bumps the affected router's epoch.

The object model stays the golden reference: the engine-parity
differential property pins ``stats_fingerprint`` equality across the
verify config space, and ``Network.sync_for_inspection`` materialises
the SoA back onto the Router/OutputPort objects so the conservation
audits and diagnostics read the same state they would on an object
network.

The SoA is *occupancy-adaptive* — a batched tick costs the same ~100
numpy calls whether it moves 5 flits or 500 — and ``Network.tick`` does
the arming: an ``engine = "vector"`` network (:class:`VectorNetwork` is
only that attribute) ticks the object path (``_soa is None``) while
fewer than ``ARM_FLITS`` flits move per cycle; it arms by importing live
object state (the ``_SoA`` constructor) and disarms by materialising
back below ``DISARM_FLITS`` (or before a structural change: a port
added, a fault fired, a link healed) — the conversions the per-cycle
audits already prove exact, so transitions are bit-identical
(docs/VECTOR.md, "When the SoA is armed").  Every event lands one cycle
after it is raised, so besides router state only the network's two
next-cycle lists cross the seam.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import routing
from .network import Network
from .router import Router
from .types import Flit


#: Flits landing at the start of a cycle (= flits that moved in the
#: previous one) at which the SoA arms, and below which it disarms
#: again.  Measured, not tuned per mesh: per-cycle object/SoA break-even
#: sits at ~160-175 moves on 16- and 24-wide meshes alike (~100-120
#: before 1.14 taught the object path to sleep blocked routers and move
#: a flit in one pass; 144/64 then, same ratios now); arming waits a
#: little past it because the signal is spiky and a round trip costs
#: 4-45 ms, and the wide gap is hysteresis against thrashing.
#: docs/VECTOR.md has the per-bin table and the threshold replay.
ARM_FLITS = 216
DISARM_FLITS = 96


@contextmanager
def arming(arm: int, disarm: int) -> Iterator[None]:
    """Override the arming thresholds (tests and ``repro.verify`` only).

    ``arming(0, 0)`` keeps the SoA armed from the first tick; tiny
    thresholds such as ``arming(3, 2)`` force arm/disarm round trips on
    meshes far too small to reach the measured break-even.
    """
    global ARM_FLITS, DISARM_FLITS
    saved = ARM_FLITS, DISARM_FLITS
    ARM_FLITS, DISARM_FLITS = arm, disarm
    try:
        yield
    finally:
        ARM_FLITS, DISARM_FLITS = saved


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


#: Row 0 / row 1: first / second candidate direction (``-1``: none) of
#: each ``routing.CANDIDATES`` entry, for gathers over route-table bytes.
_CANDS = np.array(
    [(*ports, -1)[:2] for ports in routing.CANDIDATES], dtype=np.int64
).T


class _SoA:
    """Flat-array snapshot of one network, imported from object state.

    Construction reads whatever the Router/OutputPort objects and the
    two event lists currently hold, so arming an empty network, arming
    mid-run and re-arming after a structural change (ports added
    mid-run, after a materialise) share one code path.
    """

    def __init__(self, net: Network) -> None:
        grid = net.grid
        routers = net.routers
        N = grid.size
        V = net.num_vcs
        self.N = N
        self.V = V
        P = 1 + max(max(r.inputs) for r in routers)
        self.P = P
        S = N * P * V
        self.S = S
        C = _next_pow2(max(2, net.vc_capacity))
        self.C = C
        self.cmask = C - 1

        # --- flit interning --------------------------------------------
        self.f_objs: List[Flit] = []
        self.f_cap = 1024
        self.f_tail = np.zeros(self.f_cap, dtype=np.uint8)
        self.f_head = np.zeros(self.f_cap, dtype=np.uint8)
        self.f_buffered = np.zeros(self.f_cap, dtype=np.int64)
        self.f_dst = np.zeros(self.f_cap, dtype=np.int64)
        self.f_cls = np.zeros(self.f_cap, dtype=np.int64)
        # Routing source (inject_router): assigned by the NI *after* the
        # head flit is scheduled, so it is filled lazily at the first
        # allocation attempt rather than at registration; the loop lane
        # (-1 on a mesh) with it.
        self.f_src = np.full(self.f_cap, -1, dtype=np.int64)
        self.f_lane = np.full(self.f_cap, -1, dtype=np.int64)
        self.f_n = 0

        # --- input slots -----------------------------------------------
        self.ring = np.full(S * C, -1, dtype=np.int64)
        self.headpos = np.zeros(S, dtype=np.int64)
        self.qlen = np.zeros(S, dtype=np.int64)
        self.route_cs = np.full(S, -1, dtype=np.int64)   # credit slot or -1
        self.route_oi = np.full(S, -1, dtype=np.int64)   # output index
        self.route_dest = np.full(S, -1, dtype=np.int64)  # dest slot / S+oi
        self.rr_in = np.zeros(N * P, dtype=np.int64)
        self.fail_epoch = np.full(S, -1, dtype=np.int64)
        self.epoch = np.zeros(N, dtype=np.int64)
        self.slot_node = np.repeat(np.arange(N, dtype=np.int64), P * V)
        self.slot_vc = np.tile(np.arange(V, dtype=np.int64), N * P)

        # --- outputs / credit slots ------------------------------------
        out_obj = []
        out_node = []
        out_port_nr = []
        out_base = []
        dest_base = []
        cs_pair: List[Tuple[object, int]] = []
        cs_node: List[int] = []
        owner: List[Optional[object]] = []
        credits: List[int] = []
        self.out_idx: Dict[Tuple[int, int], int] = {}
        self.id2oi: Dict[int, int] = {}
        # Node n owns outputs node_oi[n]:node_oi[n + 1], and the credit
        # slots node_cs[n]:node_cs[n + 1]: one contiguous range each.
        node_oi: List[int] = []
        node_cs: List[int] = []
        base = 0
        for node, router in enumerate(routers):
            node_oi.append(len(out_obj))
            node_cs.append(base)
            for port in sorted(router.outputs):
                out = router.outputs[port]
                oi = len(out_obj)
                self.out_idx[(node, port)] = oi
                self.id2oi[id(out)] = oi
                out_obj.append(out)
                out_node.append(node)
                out_port_nr.append(port)
                out_base.append(base)
                if port in router.neighbors:
                    nbr, nbr_port = router.neighbors[port]
                    dest_base.append((nbr * P + nbr_port) * V)
                else:
                    dest_base.append(-1)
                for v in range(out.num_vcs):
                    cs_pair.append((out, v))
                    cs_node.append(node)
                    owner.append(out.owner[v])
                    credits.append(out.credits[v])
                base += out.num_vcs
        self.node_oi = node_oi + [len(out_obj)]
        self.node_cs = node_cs + [base]
        self.out_obj = out_obj
        self.out_node = out_node
        self.out_port_nr = out_port_nr
        self.out_base = np.array(out_base, dtype=np.int64)
        self.dest_base = np.array(dest_base, dtype=np.int64)
        self.cs_pair = cs_pair
        self.cs_node = np.array(cs_node, dtype=np.int64)
        # Owner identity, encoded port * V + vc; only meaningful where
        # ``owned`` is set (stale codes are never read).
        self.owner_code = np.array(
            [-1 if o is None else o[0] * V + o[1] for o in owner],
            dtype=np.int64,
        )
        self.credits_all = np.array(credits, dtype=np.int64)
        self.out_rr = np.array([o.rr for o in out_obj], dtype=np.int64)
        rr_mod = np.array([r.rr_mod for r in routers], dtype=np.int64)
        self.rr_mod_out = rr_mod[np.array(out_node, dtype=np.int64)]

        # --- upstream credit wiring per input slot ---------------------
        self.up_cs = np.full(S, -1, dtype=np.int64)
        self.up_obj: List[Optional[Tuple[object, int]]] = [None] * S
        for (node, port), obj in net.upstream.items():
            oi = self.id2oi.get(id(obj))
            for vc in range(V):
                slot = (node * P + port) * V + vc
                if oi is not None:
                    self.up_cs[slot] = out_base[oi] + vc
                else:
                    self.up_obj[slot] = (obj, vc)

        self.vc_orders = [
            tuple((s + k) % V for k in range(V)) for s in range(V)
        ]
        self.peak = np.array([r.peak_flits for r in routers], dtype=np.int64)
        self.buffered_total = 0

        # --- vectorised-allocator tables -------------------------------
        self.owned = np.array(
            [0 if o is None else 1 for o in owner], dtype=np.uint8
        )
        NM = routing.NUM_MESH_PORTS
        self.node_out = np.full(N * NM, -1, dtype=np.int64)
        for (node, port), oi in self.out_idx.items():
            if port < NM:
                self.node_out[node * NM + port] = oi
        # Eject fast path: one unfiltered eject port (out_vc is always 0)
        self.ej_oi = np.full(N, -1, dtype=np.int64)
        self.ej_cs = np.zeros(N, dtype=np.int64)
        self.ej_rare = np.ones(N, dtype=np.uint8)
        for node, router in enumerate(routers):
            eps = router.eject_ports
            if router.eject_filter is None and len(eps) == 1:
                oi = self.out_idx[(node, eps[0])]
                self.ej_oi[node] = oi
                self.ej_cs[node] = out_base[oi]
                self.ej_rare[node] = 0
        classes = net.vc_classes
        self.av0 = np.zeros(len(classes), dtype=np.int64)
        self.av1 = np.full(len(classes), -1, dtype=np.int64)
        self.cls_rare = np.zeros(len(classes), dtype=np.uint8)
        for c, allowed in enumerate(classes):
            if not 1 <= len(allowed) <= 2:
                self.cls_rare[c] = 1
                continue
            self.av0[c] = allowed[0]
            if len(allowed) == 2:
                self.av1[c] = allowed[1]
        self.any_monopolize = any(r.monopolize for r in routers)
        table = routing.route_table(
            grid.width, grid.height, routers[0].routing_algorithm
        )
        self.routes = np.frombuffer(table, dtype=np.uint8)
        # Loop rows: views of the network's LoopTable columns, and each
        # (lane, node)'s forwarding port as an output index.
        loops = net.loop_table
        self.loop_oi = None
        if loops is not None:
            self.loop_pos = np.frombuffer(loops.pos, dtype=np.intc)
            self.loop_nxt = np.frombuffer(loops.nxt, dtype=np.intc)
            out = np.frombuffer(loops.out, dtype=np.intc)
            port_oi = np.full((N, max(out_port_nr) + 1), -1, dtype=np.int64)
            port_oi[out_node, out_port_nr] = np.arange(len(out_obj))
            node = np.arange(len(out)) % N
            self.loop_oi = np.where(out >= 0, port_oi[node, out], -1)

        # --- pending events (applied at the start of the next tick) ----
        self.p_slots: List[int] = []
        self.p_vids: List[int] = []
        self.p_sink: List[Tuple[int, int, Flit]] = []
        self.p_cs: List[int] = []
        self.p_obj_credits: List[Tuple[object, int]] = []

        # --- import current object state -------------------------------
        for node, router in enumerate(routers):
            for port in router.input_ports:
                self.rr_in[node * P + port] = router.rr_in[port]
                for vc in range(V):
                    ivc = router.inputs[port][vc]
                    slot = (node * P + port) * V + vc
                    for k, flit in enumerate(ivc.queue):
                        self.ring[slot * C + (k & self.cmask)] = (
                            self.register(flit)
                        )
                    self.qlen[slot] = len(ivc.queue)
                    self.buffered_total += len(ivc.queue)
                    if ivc.out_port is not None:
                        self.import_route(slot, node, ivc)
        # Rotation key of every slot under its port's current rr_in,
        # kept incrementally: rr_in only changes at traversal commits,
        # which rewrite the winner ports' V entries.
        self.arangeV = np.arange(V, dtype=np.int64)
        self.key = (self.slot_vc - np.repeat(self.rr_in, V)) % V
        for node, port, vc, flit in net._arrivals:
            if port < 0:
                self.p_sink.append((node, -port - 1, flit))
            else:
                self.schedule(node, port, vc, flit)
        for obj, vc in net._credits:
            oi = self.id2oi.get(id(obj))
            if oi is not None:
                self.p_cs.append(out_base[oi] + vc)
            else:
                self.p_obj_credits.append((obj, vc))

    # ------------------------------------------------------------------
    def register(self, flit: Flit) -> int:
        """Intern a flit, returning its integer id."""
        i = self.f_n
        if i >= self.f_cap:
            self.f_cap *= 2
            tail = np.zeros(self.f_cap, dtype=np.uint8)
            tail[:i] = self.f_tail
            self.f_tail = tail
            head = np.zeros(self.f_cap, dtype=np.uint8)
            head[:i] = self.f_head
            self.f_head = head
            for name in ("f_buffered", "f_dst", "f_cls", "f_src", "f_lane"):
                old = getattr(self, name)
                buf = np.full(self.f_cap, -1, dtype=np.int64)
                buf[:i] = old
                setattr(self, name, buf)
        self.f_objs.append(flit)
        packet = flit.packet
        if flit.is_tail:
            self.f_tail[i] = 1
        if flit.is_head:
            self.f_head[i] = 1
        self.f_buffered[i] = flit.buffered_at
        self.f_dst[i] = packet.dst
        self.f_cls[i] = packet.vc_class
        self.f_n = i + 1
        return i

    def import_route(self, slot: int, node: int, ivc) -> int:
        """Copy ``ivc``'s allocated route into ``slot``; returns its ``cs``."""
        oi = self.out_idx[(node, ivc.out_port)]
        cs = int(self.out_base[oi]) + ivc.out_vc
        self.route_oi[slot] = oi
        self.route_cs[slot] = cs
        db = int(self.dest_base[oi])
        self.route_dest[slot] = self.S + oi if db < 0 else db + ivc.out_vc
        return cs

    def schedule(self, node: int, port: int, vc: int, flit: Flit) -> None:
        """Queue ``flit`` to arrive in ``(node, port, vc)`` at the next tick.

        The flit is written into the ring now and counted in ``qlen``
        when the arrival applies.  Its position is stable until then:
        pops keep ``headpos + qlen`` invariant, and one link feeds each
        slot at most one flit per cycle, so no second landing is ever
        pending on the same slot.
        """
        slot = (node * self.P + port) * self.V + vc
        vid = self.register(flit)
        pos = slot * self.C + (
            (int(self.headpos[slot]) + int(self.qlen[slot])) & self.cmask
        )
        self.ring[pos] = vid
        self.p_slots.append(slot)
        self.p_vids.append(vid)

    def tick(self, net: Network, cycle: int) -> None:
        """One armed cycle; ``Network.tick`` has advanced the clock."""
        stats = net.stats

        # --- pending credit returns ------------------------------------
        if self.p_cs:
            cs = np.array(self.p_cs, dtype=np.int64)
            self.credits_all[cs] += 1  # distinct winners -> distinct slots
            self.epoch[self.cs_node[cs]] = cycle
            self.p_cs = []
        if self.p_obj_credits:
            for obj, vc in self.p_obj_credits:
                obj.credits[vc] += 1
                if obj.waker is not None:
                    obj.waker()
            self.p_obj_credits = []

        # --- pending arrivals ------------------------------------------
        if self.p_slots:
            slots = np.array(self.p_slots, dtype=np.int64)
            vids = np.array(self.p_vids, dtype=np.int64)
            self.p_slots = []
            self.p_vids = []
            prev = self.qlen[slots]
            self.qlen[slots] = prev + 1
            self.f_buffered[vids] = cycle
            # Only a previously empty slot gained a new front flit (a
            # fresh head that must attempt); an arrival behind an
            # existing front changes nothing an allocation reads —
            # outcomes depend solely on this router's output
            # owner/credit state — so its fail memo stays valid.
            self.fail_epoch[slots[prev == 0]] = -1
            stats.buffer_writes += len(slots)
            self.buffered_total += len(slots)
            counts = self.qlen.reshape(self.N, -1).sum(axis=1)
            np.maximum(self.peak, counts, out=self.peak)
        if self.p_sink:
            sink = self.p_sink
            self.p_sink = []
            for node, eject_port, flit in sink:
                net._deliver(node, eject_port, flit, cycle)

        net._tick_nis(cycle)
        if not self.buffered_total:
            return

        # --- request selection -----------------------------------------
        V = self.V
        occ = self.qlen > 0
        routed = self.route_cs >= 0
        ready = occ & routed
        ready &= self.credits_all[np.where(routed, self.route_cs, 0)] > 0
        attempt = occ & ~routed
        any_att = attempt.any()
        if any_att:
            attempt &= self.epoch[self.slot_node] > self.fail_epoch
        elif not ready.any():
            return
        key = self.key
        # Per-port minimum rotation key over ready slots.  Fresh
        # allocations update it in place inside _attempt, so the winner
        # selection below reuses it without a second full-size pass.
        pm = np.where(ready, key, V).reshape(-1, V).min(axis=1)
        scan_ports: List[int] = []
        if any_att:
            att_idx = np.flatnonzero(attempt)
            if len(att_idx):
                # Only head flits attempt; a body at the front of an
                # unrouted VC is skipped by the rotation like an empty
                # slot.
                hv = self.ring[
                    att_idx * self.C + (self.headpos[att_idx] & self.cmask)
                ]
                is_h = self.f_head[hv].astype(bool)
                if not is_h.all():
                    att_idx = att_idx[is_h]
                    hv = hv[is_h]
            if len(att_idx):
                # The object scan stops at the first requesting slot, so
                # an attempt happens only when no ready slot precedes it
                # in the port's VC rotation.
                reach = key[att_idx] < pm[att_idx // V]
                att_idx = att_idx[reach]
                hv = hv[reach]
            if len(att_idx):
                scan_ports = self._attempt(net, att_idx, hv, key, ready,
                                           pm, cycle)
        vec_mask = pm < V
        if scan_ports:
            blocked = np.zeros(len(pm), dtype=bool)
            blocked[scan_ports] = True
            vec_mask &= ~blocked
        vp = np.flatnonzero(vec_mask)
        if len(vp):
            keyed_sub = np.where(
                ready.reshape(-1, V)[vp], key.reshape(-1, V)[vp], V
            )
            v_slot = vp * V + keyed_sub.argmin(axis=1)
            v_oi = self.route_oi[v_slot]
            v_cs = self.route_cs[v_slot]
            v_dest = self.route_dest[v_slot]
        else:
            v_slot = v_oi = v_cs = v_dest = np.empty(0, dtype=np.int64)
        if scan_ports:
            s_slot: List[int] = []
            s_oi: List[int] = []
            s_cs: List[int] = []
            s_dest: List[int] = []
            for p in scan_ports:
                r = self._scan_port(net, p, cycle)
                if r is not None:
                    s_slot.append(r[0])
                    s_oi.append(r[1])
                    s_cs.append(r[2])
                    s_dest.append(r[3])
            if s_slot:
                # Splice scanned requests into global port order, so the
                # request list matches the object engine's port-ascending
                # construction exactly.
                sl = np.array(s_slot, dtype=np.int64)
                pos = np.searchsorted(v_slot, sl)
                v_slot = np.insert(v_slot, pos, sl)
                v_oi = np.insert(v_oi, pos, np.array(s_oi, dtype=np.int64))
                v_cs = np.insert(v_cs, pos, np.array(s_cs, dtype=np.int64))
                v_dest = np.insert(
                    v_dest, pos, np.array(s_dest, dtype=np.int64)
                )
        nrq = len(v_slot)
        if not nrq:
            return

        # --- output arbitration ----------------------------------------
        if nrq == 1:
            w_slot, w_oi, w_cs, w_dest = v_slot, v_oi, v_cs, v_dest
        else:
            order = np.argsort(v_oi, kind="stable")
            so = v_oi[order]
            starts = np.flatnonzero(
                np.concatenate(([True], so[1:] != so[:-1]))
            )
            akey = (
                (v_slot // V) % self.P - self.out_rr[v_oi]
            ) % self.rr_mod_out[v_oi]
            # Input ports are distinct per output, so keys never tie and
            # the packed min recovers the unique winner index (nrq is
            # bounded by the port count, which is at most S).
            comb = akey * self.S + np.arange(nrq, dtype=np.int64)
            w_idx = np.minimum.reduceat(comb[order], starts) % self.S
            # The object engine emits winners in first-appearance order
            # of their output in the request list (dict insertion
            # order); a stable sort's group starts give exactly that.
            w_idx = w_idx[np.argsort(order[starts], kind="stable")]
            w_slot = v_slot[w_idx]
            w_oi = v_oi[w_idx]
            w_cs = v_cs[w_idx]
            w_dest = v_dest[w_idx]
        n = len(w_slot)
        heads = self.headpos[w_slot]
        vids = self.ring[w_slot * self.C + (heads & self.cmask)]
        self.headpos[w_slot] = heads + 1
        self.qlen[w_slot] -= 1
        self.buffered_total -= n
        self.credits_all[w_cs] -= 1
        w_port = w_slot // V
        newrr = (w_slot % V + 1) % V
        self.rr_in[w_port] = newrr
        # Winner ports are unique (one request per input port per
        # cycle), so the incremental rotation-key rewrite is exact.
        self.key[(w_port[:, None] * V + self.arangeV).ravel()] = (
            (self.arangeV - newrr[:, None]) % V
        ).ravel()
        self.out_rr[w_oi] = (w_port % self.P + 1) % self.rr_mod_out[w_oi]
        nodes_w = self.slot_node[w_slot]
        if self.any_monopolize:
            # VC monopolisation reads foreign-VC queue occupancy, which
            # any move changes, so keep the broad invalidation there.
            self.epoch[nodes_w] = cycle + 1
        stats.buffer_reads += n
        stats.xbar_traversals += n
        residence = cycle - self.f_buffered[vids] + 1
        np.add.at(stats.batched_residence_cycles, nodes_w, residence)
        np.add.at(stats.batched_residence_count, nodes_w, 1)
        tails = self.f_tail[vids].astype(bool)
        if tails.any():
            t_slot = w_slot[tails]
            self.route_cs[t_slot] = -1
            self.route_oi[t_slot] = -1
            self.route_dest[t_slot] = -1
            self.fail_epoch[t_slot] = -1
            t_cs = w_cs[tails]
            self.owned[t_cs] = 0
            # A tail traversal releases an output VC of its own router:
            # the only commit-side event that can turn a failed
            # allocation into a success there.  Non-tail moves only
            # consume credits, so they leave fail memos valid.
            self.epoch[self.slot_node[t_slot]] = cycle + 1
        ucs = self.up_cs[w_slot]
        has_up = ucs >= 0
        self.p_cs.extend(ucs[has_up].tolist())
        if not has_up.all():
            for s in w_slot[~has_up].tolist():
                pair = self.up_obj[s]
                if pair is not None:
                    self.p_obj_credits.append(pair)
        is_ej = w_dest >= self.S
        if is_ej.any():
            mesh = ~is_ej
            mesh_d = w_dest[mesh]
            mesh_v = vids[mesh]
            ej_oi = w_oi[is_ej].tolist()
            ej_vids = vids[is_ej].tolist()
            stats.flits_ejected += len(ej_oi)
            for oi, vid in zip(ej_oi, ej_vids):
                flit = self.f_objs[vid]
                flit.packet.eject_port = self.out_obj[oi]
                self.p_sink.append(
                    (self.out_node[oi], self.out_port_nr[oi], flit)
                )
        else:
            mesh_d = w_dest
            mesh_v = vids
        nm = len(mesh_d)
        if nm:
            pos = mesh_d * self.C + (
                (self.headpos[mesh_d] + self.qlen[mesh_d]) & self.cmask
            )
            self.ring[pos] = mesh_v
            self.p_slots.extend(mesh_d.tolist())
            self.p_vids.extend(mesh_v.tolist())
            if net.interposer_mesh_links:
                stats.link_hops_interposer += nm
                stats.interposer_hop_length += float(nm)
            else:
                stats.link_hops_onchip += nm
        net.last_progress = cycle

    # ------------------------------------------------------------------
    # Batched route/VC allocation for the common shape
    # ------------------------------------------------------------------
    def _eval_candidate(
        self, oi: np.ndarray, v0: np.ndarray, v1: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate route candidates ``oi`` for a batch of attempts.

        ``oi`` may stack candidate rows over the attempts ``v0``/``v1``
        describe.  Returns ``(has_free, best_vc, total_credits)`` with
        the object model's exact choice rule: the free VC with the most
        credits, first-of-ties in allowed order.  Entries with ``oi <
        0`` read garbage and must be masked by the caller.
        """
        credits = self.credits_all
        owned = self.owned
        b = self.out_base[np.where(oi >= 0, oi, 0)]
        cs0 = b + v0
        cr0 = credits[cs0]
        f0 = (owned[cs0] == 0) & (cr0 > 0)
        hasv1 = v1 >= 0
        cs1 = b + np.where(hasv1, v1, v0)
        cr1 = np.where(hasv1, credits[cs1], 0)
        f1 = hasv1 & (owned[cs1] == 0) & (cr1 > 0)
        has = (oi >= 0) & (f0 | f1)
        vc = np.where(f0 & (~f1 | (cr0 >= cr1)), v0, v1)
        return has, vc, cr0 + cr1

    def _attempt(
        self,
        net: Network,
        att: np.ndarray,
        hv: np.ndarray,
        key: np.ndarray,
        ready: np.ndarray,
        pm: np.ndarray,
        cycle: int,
    ) -> List[int]:
        """Batch-allocate routes for attempting head slots.

        Mutates the SoA route/owner state and marks fresh allocations as
        ready (a new allocation always has a credit, so it requests
        immediately, exactly like the object scan).  Returns the sorted
        port indices left to :meth:`_scan_port` and the golden Router
        instead: any attempt once faults have fired or under VC
        monopolisation, filtered or multi-port ejection, and classes
        with more than two VCs.

        Routers with several attempting heads are handled in rounds —
        the object scan processes them sequentially (port order, VC
        rotation order within a port), and an earlier success both
        claims an output VC the later attempts must see and terminates
        its own port's scan.  Each round therefore commits only the
        earliest remaining attempt per router, drops the rest of a
        successful port, and re-evaluates survivors against the updated
        claims.
        """
        V = self.V
        if net.faults_fired or self.any_monopolize:
            return sorted(set((att // V).tolist()))
        N = self.N
        P = self.P
        nodes = att // (P * V)
        miss = self.f_src[hv] < 0
        if miss.any():
            # Routing source = inject_router, which the NI assigns only
            # after scheduling the head flit — so it cannot be interned
            # at registration time.  Fill lazily at first attempt, the
            # loop lane with it; re-injection after a fault registers a
            # fresh flit id, so an interned source can never go stale.
            f_objs = self.f_objs
            f_src = self.f_src
            f_lane = self.f_lane
            for vid in hv[miss].tolist():
                pkt = f_objs[vid].packet
                s = pkt.inject_router
                f_src[vid] = pkt.src if s is None else s
                if pkt.lane is not None:
                    f_lane[vid] = pkt.lane
        dst = self.f_dst[hv]
        cls = self.f_cls[hv]
        eject = dst == nodes
        # One row per attempt column (the order _attempt_round unpacks),
        # so each filter below is a single take.
        cols = np.stack((att, nodes, dst, cls, self.f_src[hv], eject,
                         self.f_lane[hv]))
        rare = self.cls_rare[cls].astype(bool)
        rare |= eject & self.ej_rare[nodes].astype(bool)
        if rare.any():
            # A rare attempt sends the whole router to the port scan:
            # its claims interleave with any batched attempts there.
            bad = np.zeros(N, dtype=bool)
            bad[nodes[rare]] = True
            py = bad[nodes]
            py_ports = sorted(set((att[py] // V).tolist()))
            cols = cols[:, ~py]
            if not cols.shape[1]:
                return py_ports
        else:
            py_ports = []
        att = cols[0]
        if len(att) <= 4:
            # A tiny batch is cheaper through the port scan than
            # through the fixed cost of a vector round.
            return sorted(set(py_ports) | set((att // V).tolist()))
        # Object scan order within a router: ports ascending, VC
        # rotation within a port.  att is slot-sorted (ports already
        # ascend), so only the in-port VC order needs fixing.
        cols = cols[:, np.argsort((att // V) * V + key[att], kind="stable")]
        while True:
            valid, commit = self._attempt_round(
                net, cols, key, ready, pm, cycle
            )
            if valid.all():
                return py_ports
            # Survivors: attempts after their router's first success —
            # minus every attempt on a port whose scan just allocated
            # (the object scan breaks at the success).
            port_g = cols[0] // V
            done = np.zeros(N * P, dtype=bool)
            done[port_g[commit]] = True
            keep = ~valid & ~done[port_g]
            nk = int(keep.sum())
            if not nk:
                return py_ports
            if nk <= 8:
                # Short tail: hand the leftover ports to the port
                # scan.  It replays each port's whole rotation — already
                # routed slots just become the port's request, already
                # failed attempts fail identically (claims are router-
                # local and this cycle's are committed) — so the replay
                # is bit-identical, only slower per attempt.
                tail = set(port_g[keep].tolist())
                return sorted(set(py_ports) | tail)
            cols = cols[:, keep]

    def _attempt_round(
        self,
        net: Network,
        cols: np.ndarray,
        key: np.ndarray,
        ready: np.ndarray,
        pm: np.ndarray,
        cycle: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate one round of attempts against the round-entry state.

        Within a router the object scan is sequential, but a failed
        attempt mutates nothing — so every attempt up to and including
        the router's first success saw exactly the round-entry claim
        state.  That longest valid prefix per router is committed (the
        success) or memoised (the failures) in one batch; only attempts
        after a success need re-evaluation.  Returns ``(valid, commit)``
        masks over the attempts, the columns of ``cols``.
        """
        att, nodes, dst, cls, src, eject, lane = cols
        eject = eject.astype(bool)
        na = len(att)
        ok = np.zeros(na, dtype=bool)
        sel_oi = np.zeros(na, dtype=np.int64)
        sel_cs = np.zeros(na, dtype=np.int64)
        sel_dest = np.zeros(na, dtype=np.int64)
        e = np.flatnonzero(eject)
        if len(e):
            en = nodes[e]
            ecs = self.ej_cs[en]
            # The object's _allocate_eject does not count vc_allocs.
            ok[e] = (self.owned[ecs] == 0) & (self.credits_all[ecs] > 0)
            eoi = self.ej_oi[en]
            sel_oi[e] = eoi
            sel_cs[e] = ecs
            sel_dest[e] = self.S + eoi
        m = np.flatnonzero(~eject)
        if len(m) and self.loop_oi is not None:
            # A loop lane: one forward port per (lane, node), and the
            # dateline VC, both read from the network's LoopTable.
            at = lane[m] * self.N + nodes[m]
            soi = self.loop_oi[at]
            dateline = self.loop_nxt[at] < self.loop_pos[
                lane[m] * self.N + src[m]
            ]
            mok, svc, _ = self._eval_candidate(
                soi, dateline.astype(np.int64), np.full(len(m), -1)
            )
        elif len(m):
            W = net.grid.width
            mn = nodes[m]
            same = (src[m] % W) == (mn % W)
            tix = (same * self.N + mn) * self.N + dst[m]
            # Both candidate directions of every attempt in one gather,
            # then one stacked evaluation of the two rows.
            cand = _CANDS[:, self.routes[tix]]
            out = mn * routing.NUM_MESH_PORTS + (cand & 3)
            oi = np.where(cand >= 0, self.node_out[out], -1)
            oi1, oi2 = oi
            (has1, has2), (vc1, vc2), (tot1, tot2) = self._eval_candidate(
                oi, self.av0[cls[m]], self.av1[cls[m]]
            )
            # Strictly-greater total wins: the object keeps the first
            # candidate on ties.
            use2 = has2 & (~has1 | (tot2 > tot1))
            mok = has1 | has2
            soi = np.where(use2, oi2, oi1)
            svc = np.where(use2, vc2, vc1)
        if len(m):
            ok[m] = mok
            sel_oi[m] = soi
            sel_cs[m] = self.out_base[soi] + svc
            sel_dest[m] = self.dest_base[soi] + svc
        # Longest valid prefix per router: attempts preceded by no
        # same-router success this round.  excl is non-decreasing, so
        # spreading the group-start value with a running max recovers
        # each attempt's count of earlier in-group successes.
        if na > 1:
            excl = np.cumsum(ok) - ok
            newg = np.empty(na, dtype=bool)
            newg[0] = True
            newg[1:] = nodes[1:] != nodes[:-1]
            valid = excl == np.maximum.accumulate(np.where(newg, excl, 0))
        else:
            valid = np.ones(1, dtype=bool)
        commit = valid & ok
        w = np.flatnonzero(commit)
        if len(w):
            V = self.V
            ws = att[w]
            wcs = sel_cs[w]
            self.route_cs[ws] = wcs
            self.route_oi[ws] = sel_oi[w]
            self.route_dest[ws] = sel_dest[w]
            self.owned[wcs] = 1
            self.owner_code[wcs] = (ws // V) % self.P * V + ws % V
            ready[ws] = True
            # The reach pre-filter guaranteed key[ws] < pm at its port,
            # and a port allocates at most once per cycle, so the fresh
            # allocation is the port's new minimum outright.
            pm[ws // V] = key[ws]
            # The object counts a VC allocation per successful mesh
            # grant (never for ejects).
            net.stats.vc_allocs += int((~eject[w]).sum())
        failn = valid & ~ok
        if failn.any():
            self.fail_epoch[att[failn]] = cycle
        return valid, commit

    # ------------------------------------------------------------------
    # Per-port scan for the ports _attempt left out of the batch; its
    # allocation attempts are decided by the golden Router itself
    # ------------------------------------------------------------------
    def _scan_port(
        self, net: Network, port_idx: int, cycle: int
    ) -> Optional[Tuple[int, int, int, int]]:
        V = self.V
        node = port_idx // self.P
        port_nr = port_idx % self.P
        qlen = self.qlen
        route_cs = self.route_cs
        base = port_idx * V
        epoch = int(self.epoch[node])
        for vc in self.vc_orders[int(self.rr_in[port_idx])]:
            slot = base + vc
            if not qlen[slot]:
                continue
            cs = int(route_cs[slot])
            if cs < 0:
                if epoch > self.fail_epoch[slot]:
                    self._alloc(net, node, port_nr, vc, slot, cycle)
                    cs = int(route_cs[slot])
                if cs < 0:
                    continue
            if self.credits_all[cs] <= 0:
                continue
            return (
                slot, int(self.route_oi[slot]), cs, int(self.route_dest[slot])
            )
        return None

    def _alloc(
        self, net: Network, node: int, port_nr: int, vc: int, slot: int,
        cycle: int,
    ) -> None:
        """One route/VC allocation attempt, decided by the object model.

        Materialises what the call reads of the router (earlier claims
        of this cycle included — the arrays are canonical), lets
        ``Router._route_and_allocate`` decide, and imports the decision;
        a refusal mutates nothing and is memoised in ``fail_epoch``.
        """
        vid = int(self.ring[slot * self.C + (int(self.headpos[slot]) & self.cmask)])
        flit = self.f_objs[vid]
        if not flit.is_head:
            return  # body at head of an unrouted VC: no attempt, no memo
        net.fallback_allocs += 1
        router = net.routers[node]
        ivc = router.inputs[port_nr][vc]
        if router.monopolize:
            # VC borrowing looks at the head of every input VC.
            self.materialize_inputs(router)
        else:
            # Otherwise the call reads only its own head flit.
            ivc.queue.clear()
            ivc.queue.append(flit)
            ivc.out_port = None
        self.materialize_outputs(router)
        router._route_and_allocate(port_nr, vc, ivc, flit)
        if ivc.out_port is None:
            self.fail_epoch[slot] = cycle
            return
        cs = self.import_route(slot, node, ivc)
        self.owner_code[cs] = port_nr * self.V + vc
        self.owned[cs] = 1

    def materialize_inputs(self, router: Router) -> None:
        """Per-router step of :meth:`materialize`: input VCs and counts."""
        node = router.node
        V, P, C, cmask = self.V, self.P, self.C, self.cmask
        # The router's slots are one contiguous range: read each array
        # once, as a list slice, and index plain lists.
        lo = node * P * V
        hi = lo + P * V
        qlen = self.qlen[lo:hi].tolist()
        route_cs = self.route_cs[lo:hi].tolist()
        route_oi = self.route_oi[lo:hi].tolist()
        headpos = self.headpos[lo:hi].tolist() if any(qlen) else None
        oi0 = self.node_oi[node]
        bases = self.out_base[oi0:self.node_oi[node + 1]].tolist()
        rr_in = self.rr_in[node * P:node * P + P].tolist()
        out_port_nr, f_objs, f_buffered = (
            self.out_port_nr, self.f_objs, self.f_buffered
        )
        count = 0
        occ = 0
        for p in router.input_ports:
            port_flits = 0
            vcs = router.inputs[p]
            for vc in range(V):
                i = p * V + vc
                ivc = vcs[vc]
                queue = ivc.queue
                queue.clear()
                length = qlen[i]
                if length:
                    h = headpos[i]
                    ring = self.ring[(lo + i) * C:(lo + i + 1) * C].tolist()
                    for k in range(length):
                        vid = ring[(h + k) & cmask]
                        flit = f_objs[vid]
                        flit.buffered_at = int(f_buffered[vid])
                        queue.append(flit)
                    port_flits += length
                cs = route_cs[i]
                if cs >= 0:
                    oi = route_oi[i]
                    ivc.out_port = out_port_nr[oi]
                    ivc.out_vc = cs - bases[oi - oi0]
                else:
                    ivc.out_port = ivc.out_vc = None
            router.port_flits[p] = port_flits
            if port_flits:
                occ |= 1 << p
            count += port_flits
            router.rr_in[p] = rr_in[p]
        router.occ = occ
        router.flit_count = count
        router.peak_flits = int(self.peak[node])
        # Whatever its last object-path tick concluded no longer holds.
        router.blocked = False

    def materialize_outputs(self, router: Router) -> None:
        """Per-router step of :meth:`materialize`: credits and owners."""
        node = router.node
        V = self.V
        oi0, oi1 = self.node_oi[node], self.node_oi[node + 1]
        b, end = self.node_cs[node], self.node_cs[node + 1]
        credits = self.credits_all[b:end].tolist()
        owned = self.owned[b:end].tolist()
        codes = self.owner_code[b:end].tolist()
        rrs = self.out_rr[oi0:oi1].tolist()
        k = 0
        for out, rr in zip(self.out_obj[oi0:oi1], rrs):
            owner = out.owner
            for v in range(out.num_vcs):
                out.credits[v] = credits[k]
                if owned[k]:
                    code = codes[k]
                    owner[v] = (code // V, code % V)
                else:
                    owner[v] = None
                k += 1
            out.rr = rr

    def materialize(self, net: Network) -> None:
        """Write SoA state back onto the Router/OutputPort objects.

        Read-only with respect to the SoA: an armed network carries on
        from the arrays; the objects (and the event-list mirrors
        ``_arrivals``/``_credits``) become a consistent snapshot for
        auditors, dump tools and tests, or what a disarm resumes from.
        """
        V = self.V
        P = self.P
        f_objs = self.f_objs
        for router in net.routers:
            self.materialize_inputs(router)
            self.materialize_outputs(router)
        arrivals: List[Tuple[int, int, int, Flit]] = []
        for s, v in zip(self.p_slots, self.p_vids):
            arrivals.append(
                (s // (P * V), (s // V) % P, s % V, f_objs[v])
            )
        for node, eject_port, flit in self.p_sink:
            arrivals.append((node, -eject_port - 1, 0, flit))
        net._arrivals = arrivals
        net._credits = [self.cs_pair[cs] for cs in self.p_cs]
        net._credits.extend(self.p_obj_credits)
        if net._active_scheduler:
            net.active = {r.node for r in net.routers if r.flit_count}

    def occupied_nodes(self) -> List[int]:
        """Nodes whose router holds a flit (the active set's ground truth)."""
        return np.flatnonzero(self.qlen.reshape(self.N, -1).sum(axis=1)).tolist()

    def return_eject_credits(self, eject_port, flits: int, cycle: int) -> None:
        """Free ``flits`` of receive-buffer space behind ``eject_port``."""
        oi = self.id2oi[id(eject_port)]
        self.credits_all[int(self.out_base[oi])] += flits
        self.epoch[self.out_node[oi]] = cycle + 1


class VectorNetwork(Network):
    """The ``--engine vector`` network: a :class:`Network` that arms."""

    engine = "vector"
