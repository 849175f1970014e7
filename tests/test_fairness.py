"""Regression tests for the arbitration-fairness fixes.

Three bugs pinned here:

* ``Router.tick`` used a hard-coded ``% 16`` in output arbitration, so
  round-robin fairness silently degraded once dynamically added
  injection/interposer port indices reached 16 (aliased indices tie and
  the earlier port always wins);
* ``EquiNoxInterface._select_buffer`` advanced one shared round-robin
  pointer modulo the transient free-list length, biasing EIR choice
  whenever candidate sets differ per destination;
* ``Network.pop_delivered`` advanced the per-node eject rotation even
  when nothing was popped and regardless of which port served, starving
  later ports under asymmetric load.
"""

from collections import deque
from types import SimpleNamespace

from repro.core.grid import Grid
from repro.noc import Network, Packet, PacketType
from repro.noc.interface import EquiNoxInterface
from tests.parking import park


class TestOutputArbitrationModulus:
    def _net(self):
        return Network(
            "t", Grid(2), flit_bytes=16, num_vcs=2, vc_capacity=200,
            vc_classes=[(0, 1)],
        )

    def test_rr_mod_tracks_added_ports(self):
        net = self._net()
        router = net.routers[0]
        assert router.rr_mod == 1 + max(max(router.inputs),
                                        max(router.outputs))
        for _ in range(20):
            router.add_input_port()
        assert router.rr_mod == 1 + max(router.inputs)
        eject = net.add_eject_port(0)
        assert router.rr_mod == eject + 1

    def test_high_port_indices_share_the_link(self):
        """Ports 16 apart must alternate, not alias to the same slot.

        With the old ``% 16`` both contenders hash to the same
        round-robin key, the tie resolves by scan order, and the
        higher-indexed port never wins.
        """
        net = self._net()
        router = net.routers[0]
        ports = [router.add_input_port() for _ in range(17)]
        lo, hi = ports[0], ports[-1]
        assert hi - lo == 16  # the aliasing distance of the old modulus
        pid = 0
        winners = []
        contenders = ((lo, 0), (hi, 1))
        for cycle in range(1, 13):
            # Keep a multi-flit packet streaming at each port (input VC
            # 0 at lo, input VC 1 at hi, so both hold an output VC and
            # contend in switch allocation every cycle).
            for port, vc in contenders:
                ivc = router.inputs[port][vc]
                if not ivc.queue:
                    pid += 1
                    packet = Packet(pid, PacketType.READ_REPLY, 0, 1, 4, 0)
                    for flit in packet.make_flits():
                        park(router, port, vc, flit, cycle)
            before = [len(router.inputs[p][v].queue) for p, v in contenders]
            router.tick(cycle, [], [])  # lone router: events discarded
            # The cycle's winner is whichever input VC lost a flit.
            winners.extend(
                port for (port, vc), n in zip(contenders, before)
                if len(router.inputs[port][vc].queue) < n
            )
        assert winners.count(lo) >= 4
        assert winners.count(hi) >= 4


class _StubBuffer:
    """Just the policy surface ``_select_buffer`` reads."""

    def __init__(self):
        self.free = True
        self.failed = False
        self.draining = False

    @property
    def available(self):
        return self.free and not self.failed and not self.draining


class TestEirBufferSelection:
    def _ni(self, choices):
        """A minimal stand-in carrying just the state the policy reads."""
        size = 1 + max((i for c in choices.values() for i in c), default=0)
        return SimpleNamespace(
            buffers=[_StubBuffer() for _ in range(size)],
            _choices=choices,
            _rr={},
        )

    def test_ties_alternate_within_a_candidate_set(self):
        ni = self._ni({9: (1, 2)})
        select = EquiNoxInterface._select_buffer
        picks = [select(ni, SimpleNamespace(dst=9)) for _ in range(6)]
        assert sorted(set(picks)) == [1, 2]
        assert picks.count(1) == 3 and picks.count(2) == 3
        assert all(a != b for a, b in zip(picks, picks[1:]))

    def test_candidate_sets_rotate_independently(self):
        """Traffic to one destination must not skew another's tie-break."""
        ni = self._ni({9: (1, 2), 7: (3, 4)})
        select = EquiNoxInterface._select_buffer
        seq = [select(ni, SimpleNamespace(dst=d))
               for d in (9, 7, 9, 7, 9, 7)]
        for pair, picks in (((1, 2), seq[0::2]), ((3, 4), seq[1::2])):
            assert sorted(set(picks)) == list(pair)
            assert all(a != b for a, b in zip(picks, picks[1:]))

    def test_busy_candidates_fall_back_to_local(self):
        ni = self._ni({9: (1, 2)})
        for i in (1, 2):
            ni.buffers[i].free = False
        select = EquiNoxInterface._select_buffer
        assert select(ni, SimpleNamespace(dst=9)) == 0
        ni.buffers[0].free = False
        assert select(ni, SimpleNamespace(dst=9)) is None

    def test_forced_choice_still_advances_rotation(self):
        """After a forced pick, the next tie starts past the served one."""
        ni = self._ni({9: (1, 2)})
        select = EquiNoxInterface._select_buffer
        ni.buffers[1].free = False
        assert select(ni, SimpleNamespace(dst=9)) == 2  # forced
        ni.buffers[1].free = True
        assert select(ni, SimpleNamespace(dst=9)) == 1  # rotation moved on


class TestEjectPopRotation:
    def _net_with_ports(self):
        net = Network("t", Grid(2), flit_bytes=16)
        net.add_eject_port(0)
        net.add_eject_port(0)
        return net, net.routers[0].eject_ports

    def _load(self, net, node, port, count):
        router = net.routers[node]
        queue = net.receive_queues.setdefault((node, port), deque())
        for _ in range(count):
            packet = Packet(1, PacketType.READ_REQUEST, 1, node, 1, 0)
            queue.append((packet, router.outputs[port]))
            net._delivered[node] = net._delivered.get(node, 0) + 1

    def test_empty_pop_does_not_rotate(self):
        net, ports = self._net_with_ports()
        assert net.pop_delivered(0) is None
        assert net._pop_rr.get(0, 0) == 0
        # The next pop therefore starts at the first port, as if the
        # empty scans never happened.
        self._load(net, 0, ports[0], 1)
        assert net.pop_delivered(0) is not None
        assert net._pop_rr[0] == 1

    def test_rotation_advances_past_serving_port(self):
        """The pointer moves past the port that served, not by one."""
        net, ports = self._net_with_ports()
        self._load(net, 0, ports[1], 1)  # only the middle port is loaded
        assert net.pop_delivered(0) is not None
        assert net._pop_rr[0] == 2  # past ports[1], old code left 1
        self._load(net, 0, ports[0], 1)
        self._load(net, 0, ports[1], 1)
        self._load(net, 0, ports[2], 1)
        # Scan resumes at ports[2]: the port after the one that served.
        assert net.pop_delivered(0) is not None
        assert net._pop_rr[0] == 0

    def test_symmetric_load_round_robins(self):
        net, ports = self._net_with_ports()
        for p in ports:
            self._load(net, 0, p, 2)
        served = []
        for _ in range(6):
            packet = net.pop_delivered(0)
            assert packet is not None
            served.append(net._pop_rr[0])
        assert served == [1, 2, 0, 1, 2, 0]

    def test_explicit_port_does_not_rotate(self):
        net, ports = self._net_with_ports()
        self._load(net, 0, ports[2], 1)
        assert net.pop_delivered(0, port=ports[2]) is not None
        assert net._pop_rr.get(0, 0) == 0
