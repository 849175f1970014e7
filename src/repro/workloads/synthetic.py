"""Synthetic traffic drivers for network-only studies.

These bypass the GPU/memory layers and drive a single network directly:

* :func:`run_uniform` — uniform random all-to-all traffic (sanity and
  latency-throughput studies),
* :func:`run_few_to_many` — the reply-side injection pattern (each CB
  sprays data packets at random PEs), used to draw the Figure-4 heat
  maps under different CB placements,
* :func:`sweep_few_to_many` — a latency-throughput sweep of that
  pattern.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.grid import Grid
from ..noc.interface import NetworkInterface
from ..noc.network import Network, network_class
from ..noc.types import Packet, PacketType, packet_flits


@dataclass
class SyntheticResult:
    """Outcome of a synthetic run."""

    network: Network
    sent: int
    received: int
    cycles: int

    @property
    def mean_latency(self) -> float:
        return self.network.stats.mean_latency()

    @property
    def heatmap_variance(self) -> float:
        return self.network.stats.heatmap_variance()


def _drain(network: Network) -> int:
    """Pop every delivered packet; return how many there were.

    Visits only the nodes holding one (``Network._delivered``'s keys),
    in the dict's order rather than node order: pops at different nodes
    touch disjoint state (the node's queues, its ``_pop_rr`` entry and
    its eject credits), so the order changes nothing.
    """
    received = 0
    for node in list(network._delivered):
        while network.pop_delivered(node) is not None:
            received += 1
    return received


DRAIN_LIMIT = 20000
"""Cycles a synthetic run may tick after its injection window to drain."""


def _run(
    network: Network,
    nis: Dict[int, NetworkInterface],
    make_packets,
    cycles: int,
) -> SyntheticResult:
    sent = 0
    received = 0
    pid = 0
    for _ in range(cycles):
        for packet_args in make_packets():
            src, dst, ptype, vc_class = packet_args
            pid += 1
            size = packet_flits(ptype, network.flit_bytes)
            packet = Packet(pid, ptype, src, dst, size, 0, vc_class=vc_class)
            nis[src].enqueue(packet)
            sent += 1
        network.tick()
        received += _drain(network)
    for _ in range(DRAIN_LIMIT):
        if network.idle():
            break
        network.tick()
        received += _drain(network)
    return SyntheticResult(
        network=network, sent=sent, received=received, cycles=network.cycle
    )


def _fresh_network(grid: Grid, **kwargs) -> Dict:
    kwargs.setdefault("flit_bytes", 16)
    kwargs.setdefault("vc_classes", [(0,), (1,)])
    cls = network_class(kwargs.pop("engine", None))
    network = cls("synthetic", grid, **kwargs)
    nis = {node: NetworkInterface(network, node) for node in grid.nodes()}
    return {"network": network, "nis": nis}


def run_uniform(
    grid: Grid,
    injection_rate: float,
    cycles: int = 2000,
    seed: int = 0,
    **net_kwargs,
) -> SyntheticResult:
    """Uniform random traffic at ``injection_rate`` packets/node/cycle."""
    env = _fresh_network(grid, **net_kwargs)
    rng = random.Random(seed)
    rand, choice = rng.random, rng.choice
    nodes = list(grid.nodes())

    def make_packets():
        out = []
        for src in nodes:
            if rand() < injection_rate:
                dst = choice(nodes)
                if dst == src:
                    continue
                ptype = (
                    PacketType.READ_REPLY
                    if rand() < 0.5
                    else PacketType.READ_REQUEST
                )
                out.append((src, dst, ptype, 1 if ptype.is_reply else 0))
        return out

    return _run(env["network"], env["nis"], make_packets, cycles)


def run_few_to_many(
    grid: Grid,
    cbs: Sequence[int],
    injection_rate: float = 0.5,
    cycles: int = 2000,
    seed: int = 0,
    **net_kwargs,
) -> SyntheticResult:
    """Reply-pattern traffic: CBs send data packets to random PEs.

    ``injection_rate`` is packets per CB per cycle *offered*; the
    network accepts what the injection points can absorb, which is
    exactly the bottleneck under study.
    """
    env = _fresh_network(grid, **net_kwargs)
    rng = random.Random(seed)
    pes = [n for n in grid.nodes() if n not in set(cbs)]

    def make_packets():
        out = []
        for cb in cbs:
            if rng.random() < injection_rate:
                dst = rng.choice(pes)
                out.append((cb, dst, PacketType.READ_REPLY, 1))
        return out

    return _run(env["network"], env["nis"], make_packets, cycles)


@dataclass
class SweepPoint:
    """One offered-rate point of a latency-throughput sweep."""

    offered: float
    throughput: float  # accepted packets per CB per cycle
    mean_latency: float


def sweep_few_to_many(
    grid: Grid,
    cbs: Sequence[int],
    rates: Sequence[float],
    cycles: int = 1200,
    network_factory=None,
    **net_kwargs,
) -> List[SweepPoint]:
    """Latency-throughput sweep of the few-to-many reply pattern.

    Runs an independent network per offered rate (classic open-loop
    methodology: latency at a point is meaningless once the previous
    point's backlog leaks in).  ``network_factory(grid) -> (network,
    nis)`` lets callers attach custom NIs (e.g. EquiNox's) to measure
    how a design moves the saturation point.
    """
    points = []
    for rate in rates:
        if network_factory is not None:
            network, nis = network_factory(grid)
        else:
            env = _fresh_network(grid, **net_kwargs)
            network, nis = env["network"], env["nis"]
        rng = random.Random(0)
        pes = [n for n in grid.nodes() if n not in set(cbs)]
        vc_class = min(1, len(network.vc_classes) - 1)
        pid = 0
        received = 0
        for _ in range(cycles):
            for cb in cbs:
                if rng.random() < rate:
                    pid += 1
                    size = packet_flits(PacketType.READ_REPLY,
                                        network.flit_bytes)
                    nis[cb].enqueue(
                        Packet(pid, PacketType.READ_REPLY, cb,
                               rng.choice(pes), size, 0, vc_class=vc_class)
                    )
            network.tick()
            received += _drain(network)
        points.append(
            SweepPoint(
                offered=rate,
                throughput=received / cycles / len(cbs),
                mean_latency=network.stats.mean_latency(),
            )
        )
    return points


def saturation_throughput(points: Sequence[SweepPoint]) -> float:
    """The highest accepted throughput across a sweep."""
    return max(p.throughput for p in points) if points else 0.0

