"""Unit tests for the mesh / CMesh topology builders."""

from collections import Counter

import pytest

from repro.core.grid import Grid
from repro.noc import (
    CmeshEnvelope,
    CmeshMap,
    NetworkInterface,
    Packet,
    PacketType,
    build_cmesh,
    build_mesh,
)


class TestMesh:
    def test_build_mesh(self):
        net = build_mesh("m", 8, 16)
        assert len(net.routers) == 64
        interior = net.routers[net.grid.node(3, 3)]
        assert len(interior.neighbors) == 4
        corner = net.routers[net.grid.node(0, 0)]
        assert len(corner.neighbors) == 2

    def test_mesh_links_bidirectional(self):
        net = build_mesh("m", 4, 16)
        for router in net.routers:
            for port, (nbr, nbr_port) in router.neighbors.items():
                back = net.routers[nbr].neighbors[nbr_port]
                assert back == (router.node, port)


class TestCmeshMap:
    def test_mapping_8x8(self):
        cmap = CmeshMap(Grid(8))
        assert cmap.cgrid.size == 16
        assert cmap.cmesh_node(Grid(8).node(0, 0)) == 0
        assert cmap.cmesh_node(Grid(8).node(7, 7)) == 15

    def test_local_index(self):
        base = Grid(8)
        cmap = CmeshMap(base)
        assert cmap.local_index(base.node(0, 0)) == 0
        assert cmap.local_index(base.node(1, 0)) == 1
        assert cmap.local_index(base.node(0, 1)) == 2
        assert cmap.local_index(base.node(1, 1)) == 3

    def test_all_tiles_covered(self):
        base = Grid(8)
        cmap = CmeshMap(base)
        counts = Counter(cmap.cmesh_node(tile) for tile in base.nodes())
        assert counts == {cnode: 4 for cnode in cmap.cgrid.nodes()}

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError):
            CmeshMap(Grid(7))


class TestCmeshNetwork:
    def test_build(self):
        net, cmap, eject_of = build_cmesh(Grid(8), 32,
                                          vc_classes=[(0,), (1,)])
        assert net.grid.size == 16
        # Four dedicated ejection ports per router.
        for router in net.routers:
            assert len(router.eject_ports) == 4
        assert len(eject_of) == 64
        assert net.interposer_mesh_links

    def test_dedicated_ejection(self):
        base = Grid(8)
        net, cmap, eject_of = build_cmesh(base, 32, vc_classes=[(0,), (1,)])
        nis = {
            tile: NetworkInterface(net, cmap.cmesh_node(tile))
            for tile in base.nodes()
        }
        src_tile = base.node(0, 0)
        dst_tile = base.node(7, 6)  # local index 1 in its block
        envelope = CmeshEnvelope(real_src=src_tile, real_dst=dst_tile)
        packet = Packet(
            1,
            PacketType.READ_REPLY,
            cmap.cmesh_node(src_tile),
            cmap.cmesh_node(dst_tile),
            3,
            0,
            vc_class=1,
            token=envelope,
        )
        nis[src_tile].enqueue(packet)
        cnode = cmap.cmesh_node(dst_tile)
        port = eject_of[(cnode, cmap.local_index(dst_tile))]
        got = None
        for _ in range(200):
            net.tick()
            got = net.pop_delivered(cnode, port=port)
            if got:
                break
        assert got is packet
        # The other tiles' ports stayed empty.
        for other_local in range(4):
            other_port = eject_of[(cnode, other_local)]
            if other_port != port:
                assert net.pop_delivered(cnode, port=other_port) is None

    def test_interposer_link_stats(self):
        base = Grid(8)
        net, cmap, eject_of = build_cmesh(base, 32, vc_classes=[(0,), (1,)])
        ni = NetworkInterface(net, 0)
        envelope = CmeshEnvelope(real_src=0, real_dst=base.node(7, 7))
        packet = Packet(1, PacketType.READ_REPLY, 0, 15, 3, 0, vc_class=1,
                        token=envelope)
        ni.enqueue(packet)
        for _ in range(100):
            net.tick()
            if net.pop_delivered(15, port=eject_of[(15, 3)]):
                break
        assert net.stats.link_hops_interposer > 0
        assert net.stats.link_hops_onchip == 0
