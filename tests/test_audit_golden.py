"""Golden pin of the conservation audit, report byte for byte.

Each row of ``tests/data/audit_golden.json`` is one deterministic
network state — a mid-run fabric, optionally with one deliberate
corruption applied — together with the exact ``problems`` list and
``counters`` dict that :func:`~repro.noc.validation.audit_network`
returns for every network of the fabric.  The states cover the object
and the armed vector engine, EquiNox's loaded NI links, MultiPort's
several ejection ports, the concentrated-mesh overlay, a routerless
loop network and a fired fault; the corruptions each target one check.
A change to the audit that rewords, reorders, drops or adds a single
problem fails here, and so does a change to the SoA read-back that
alters the snapshot an armed network is audited on.

Regenerate after a deliberate change to the audit with::

    PYTHONPATH=src python tests/test_audit_golden.py
"""

import hashlib
import json
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.gpu.system import System, SystemConfig
from repro.harness.experiment import ExperimentConfig, build_fabric
from repro.noc import vector
from repro.noc.faults import FaultInjector, FaultPlan, FaultSpec
from repro.noc.types import Packet
from repro.noc.validation import audit_network
from repro.settings import hermetic_env
from repro.workloads import profiles

GOLDEN = Path(__file__).parent / "data" / "audit_golden.json"

# name -> (scheme, engine, cycles, fault plan, index of the corrupted
# network in ``fabric.networks``).  Every state stops mid-run, with
# flits in router queues, on links, in NI buffers and receive queues.
STATES = {
    "mesh": ("SingleBase", "object", 66, (), 0),
    "mesh-armed": ("SingleBase", "vector", 66, (), 0),
    "equinox": ("EquiNox", "object", 90, (), 1),
    "multiport": ("MultiPort", "object", 60, (), 1),
    "cmesh": ("Interposer-CMesh", "object", 76, (), 1),
    "routerless": ("routerless", "object", 76, (), 0),
    "faulted": (
        "SingleBase", "object", 60,
        (FaultSpec(kind="mesh_link", node=5, peer=6, at_cycle=30,
                   heal_cycle=500),),
        0,
    ),
}


def build(state):
    """The fabric of ``state``, run to its cycle and stopped there."""
    scheme, engine, cycles, faults, _target = STATES[state]
    config = ExperimentConfig(
        width=4, num_cbs=3, quota=200, seed=1, mcts_iterations=4,
        max_cycles=cycles, faults=faults, engine=engine,
    )
    armed = vector.arming(0, 0) if engine == "vector" else nullcontext()
    with hermetic_env(), armed:
        fabric = build_fabric(scheme, config)
        injector = FaultInjector(fabric, FaultPlan(faults)) if faults else None
        System(
            fabric, profiles.get("kmeans"),
            SystemConfig(quota=200, seed=1, max_cycles=cycles,
                         fault_injector=injector),
        ).run()
    if injector is not None:
        assert injector.applied, "the fault plan must have fired"
    return fabric


# ----------------------------------------------------------------------
# Target pickers: the first matching object in a fixed walk order
# ----------------------------------------------------------------------
def _input_vcs(net):
    for router in net.routers:
        for port in router.input_ports:
            for vc, ivc in enumerate(router.inputs[port]):
                yield router, port, vc, ivc


def _busy_vc(net):
    return next(item for item in _input_vcs(net) if item[3].queue)


def _free_vc(net):
    # Not in a sleeping router: the sleep check reads the route, and a
    # route corrupted this way has no credit counter to read.
    return next(
        item for item in _input_vcs(net)
        if item[3].out_port is None and not item[0].blocked
    )


def _mid_router(net):
    return net.routers[len(net.routers) // 2]


def _first_output(router):
    port = next(iter(router.outputs))
    return port, router.outputs[port]


def _ni_buffers(net):
    return [buf for ni in net.nis for buf in ni.buffers]


# ----------------------------------------------------------------------
# Corruptions: each breaks one fact the audit checks
# ----------------------------------------------------------------------
def negative_output_credit(net):
    _first_output(_mid_router(net))[1].credits[0] = -1


def output_credit_over_capacity(net):
    out = _first_output(_mid_router(net))[1]
    out.credits[0] = out.capacity + 2


def ni_link_leak(net):
    _ni_buffers(net)[0].link.credits[0] -= 1


def mesh_link_leak(net):
    ni_links = {id(buf.link) for buf in _ni_buffers(net)}
    link = next(
        link for link in net.upstream.values() if id(link) not in ni_links
    )
    link.credits[0] -= 1


def queue_flit_dropped(net):
    _busy_vc(net)[3].queue.popleft()


def arrival_dropped(net):
    index = next(
        i for i, arrival in enumerate(net._arrivals) if arrival[1] >= 0
    )
    del net._arrivals[index]


def eject_credit_leak(net):
    router = _mid_router(net)
    router.outputs[router.eject_ports[0]].credits[0] -= 1


def flit_count_drift(net):
    _busy_vc(net)[0].flit_count += 1


def port_flits_drift(net):
    router, port, _vc, _ivc = _busy_vc(net)
    router.port_flits[port] += 1


def vc_over_capacity(net):
    queue = _busy_vc(net)[3].queue
    while len(queue) <= net.vc_capacity:
        queue.append(queue[0])


def orphan_owner(net):
    for router in net.routers:
        for port, out in router.outputs.items():
            for vc in range(out.num_vcs):
                if out.owner[vc] is None:
                    in_port = router.input_ports[0]
                    out.owner[vc] = (in_port, 0)
                    return
    raise LookupError("no free output VC")


def foreign_owner(net):
    _first_output(_mid_router(net))[1].owner[0] = ("ghost", 7)


def route_without_out_vc(net):
    router, _port, _vc, ivc = _free_vc(net)
    ivc.out_port = _first_output(router)[0]
    ivc.out_vc = None


def route_to_missing_port(net):
    ivc = _free_vc(net)[3]
    ivc.out_port = 99
    ivc.out_vc = 0


def foreign_class_flit(net):
    _router, _port, vc, ivc = _busy_vc(net)
    packet = ivc.queue[0].packet
    for cls, allowed in enumerate(net.vc_classes):
        if vc not in allowed:
            packet.vc_class = cls
            return
    # One class owns every VC (reply networks): add a class that
    # forbids this VC and move the packet into it.
    num_vcs = len(net.routers[0].inputs[net.routers[0].input_ports[0]])
    narrow = tuple(v for v in range(num_vcs) if v != vc)
    net.vc_classes = [*net.vc_classes, narrow]
    packet.vc_class = len(net.vc_classes) - 1


def off_dateline_flit(net):
    router, port, vc, ivc = _busy_vc(net)
    other = router.inputs[port][(vc + 1) % len(router.inputs[port])]
    other.queue.append(ivc.queue.pop())


def delivered_drift(net):
    node = next(iter(net._delivered))
    net._delivered[node] += 1


def blocked_empty_router(net):
    next(r for r in net.routers if not r.flit_count).blocked = True


def blocked_ready_router(net):
    router = next(
        router for router, _port, _vc, ivc in _input_vcs(net)
        if ivc.queue and ivc.out_port is not None
        and router.outputs[ivc.out_port].credits[ivc.out_vc] > 0
    )
    router.blocked = True


def occupancy_drift(net):
    router, port, _vc, _ivc = _busy_vc(net)
    router.occ &= ~(1 << port)


def upstream_drift(net):
    node, port = next(iter(net.upstream))
    net.routers[node].up[port] = None


def ni_cur_vc_mismatch(net):
    bufs = _ni_buffers(net)
    held = [buf for buf in bufs if buf.cur_vc is not None]
    if held:
        held[0].cur_vc = (held[0].cur_vc + 1) % held[0].link.num_vcs
    else:
        bufs[0].cur_vc = 0


def ni_two_packets(net):
    buf = next(buf for buf in _ni_buffers(net) if buf.flits)
    packet = buf.flits[0].packet
    stranger = Packet(
        10**6, packet.ptype, packet.src, packet.dst, packet.size,
        packet.created, vc_class=packet.vc_class,
    )
    buf.flits.append(stranger.make_flits()[0])


def several_at_once(net):
    """Problems from four audit sections, across two routers."""
    orphan_owner(net)
    net.routers[-1].flit_count += 1
    negative_output_credit(net)
    delivered_drift(net)


CORRUPTIONS = {
    f.__name__: f
    for f in (
        negative_output_credit, output_credit_over_capacity, ni_link_leak,
        mesh_link_leak, queue_flit_dropped, arrival_dropped,
        eject_credit_leak, flit_count_drift, port_flits_drift,
        vc_over_capacity, orphan_owner, foreign_owner, route_without_out_vc,
        route_to_missing_port, foreign_class_flit, off_dateline_flit,
        delivered_drift, blocked_empty_router, blocked_ready_router,
        ni_cur_vc_mismatch, ni_two_packets, occupancy_drift, upstream_drift,
    )
}

# Class legality is positional on loop networks: the dateline replaces
# the VC classes, and the two flit corruptions swap accordingly.
CASES = [
    (state, name)
    for state in STATES
    for name in ["healthy", *CORRUPTIONS]
    if name != ("foreign_class_flit" if state == "routerless"
                else "off_dateline_flit")
] + [("mesh", "several_at_once")]


def case_id(case):
    return "/".join(case)


def _snapshot_digest(net):
    """sha256 over the object state an audit reads of every router."""
    rows = []
    for router in net.routers:
        inputs = [
            (port, vc, [(f.packet.pid, f.idx, f.buffered_at)
                        for f in ivc.queue], ivc.out_port, ivc.out_vc)
            for router_, port, vc, ivc in _input_vcs(net)
            if router_ is router
        ]
        outputs = [
            (port, list(out.credits), list(out.owner), out.rr)
            for port, out in router.outputs.items()
        ]
        rows.append((
            router.node, inputs, outputs,
            [(p, router.port_flits[p]) for p in router.input_ports],
            router.flit_count, router.peak_flits, router.blocked,
            [(p, router.rr_in[p]) for p in router.input_ports],
        ))
    rows.append([(n, p, v, f.packet.pid, f.idx)
                 for n, p, v, f in net._arrivals])
    links = {
        id(out): (router.node, port)
        for router in net.routers for port, out in router.outputs.items()
    }
    links.update(
        (id(buf.link), ("ni", ni.node, index))
        for ni in net.nis for index, buf in enumerate(ni.buffers)
    )
    rows.append([(links[id(port)], vc) for port, vc in net._credits])
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def golden_row(case):
    state, name = case
    fabric = build(state)
    networks = [net for net, _ratio, _role in fabric.networks]
    row = {"id": case_id(case)}
    if name == "healthy":
        row["snapshots"] = []
        for net in networks:
            net.sync_for_inspection()
            row["snapshots"].append(_snapshot_digest(net))
    else:
        net = networks[STATES[state][4]]
        # An armed network is audited on the snapshot its arrays write
        # back; corrupt that snapshot and keep the arrays from
        # overwriting it again.
        net.sync_for_inspection()
        net._soa = None
        (several_at_once if name == "several_at_once"
         else CORRUPTIONS[name])(net)
    row["reports"] = []
    for net in networks:
        report = audit_network(net)
        row["reports"].append({
            "network": report.network,
            "cycle": report.cycle,
            "problems": report.problems,
            "counters": report.counters,
        })
    return row


def _load():
    return {row["id"]: row for row in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(case_id(c) for c in CASES)


def test_every_corruption_is_caught():
    """A corruption the audit cannot see would pin nothing."""
    golden = _load()
    for state, name in CASES:
        problems = [
            p for r in golden[case_id((state, name))]["reports"]
            for p in r["problems"]
        ]
        assert bool(problems) == (name != "healthy"), (state, name)


def test_armed_state_is_audited_armed():
    fabric = build("mesh-armed")
    assert all(net._soa is not None for net, _r, _role in fabric.networks)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_audit_matches_golden(case):
    assert golden_row(case) == _load()[case_id(case)]


if __name__ == "__main__":
    rows = [golden_row(case) for case in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
