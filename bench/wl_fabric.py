"""``fabric_saturated`` and ``fabric_low_load``: one network, no GPU model.

Both drive uniform random traffic through ``workloads.synthetic.
run_uniform`` under each tick engine.  They use the ``noc`` layer in
opposite ways: past saturation nearly all host time is router
allocation/traversal (object) or batch rounds plus the replica fallback
(vector); at 0.2 % load routers are idle, so allocation does little and
the per-tick fixed cost and active-set bookkeeping dominate (the traced
pass puts 80-90 % of a rep in ``tick`` and under 10 % in the Python
traffic driver).

Sizes make one round (both engines once) 4.5-6 s, so a 30 s run reports
medians over five or six rounds: single 19 s rounds (``repro bench``'s
``synthetic`` scenario, the saturated network here with 500 injection
cycles) read the shared host's bursts directly.  The saturated mesh
stays 24x24 because congestion forms differently under every seed and a
smaller mesh averages over fewer hot spots: across seeds the same
traffic cost +-12 % host time on 16x16 and +-5 % on 24x24.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List

import catalog
import spans
from common import Outcome, median_put, peak_rss_mb, rounds

CONFIGS = {
    catalog.SATURATED: {"width": 24, "rate": 0.08, "cycles": 150},
    catalog.LOW_LOAD: {"width": 16, "rate": 0.002, "cycles": 10000},
}
SCHEDULER = "active"
SETUP_REPS = 41
DRAIN_LIMIT = 20000  # run_uniform's bound on post-injection cycles


def checksum(network) -> str:
    """The behaviour checksum ``repro bench`` prints for a network."""
    payload = json.dumps(network.stats.snapshot(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:10]


def build(width: int, engine):
    """The network + NIs ``run_uniform`` builds, via public constructors."""
    from repro.core.grid import Grid
    from repro.noc.interface import NetworkInterface
    from repro.noc.network import network_class

    grid = Grid(width)
    network = network_class(engine)(
        "synthetic", grid, flit_bytes=16, vc_classes=[(0,), (1,)],
        scheduler=SCHEDULER,
    )
    nis = {node: NetworkInterface(network, node) for node in grid.nodes()}
    return grid, network, nis


def setup_seconds(width: int, engine) -> float:
    """Build the network and advance one idle cycle.

    The idle tick is part of set-up on purpose: an engine that builds
    its tables lazily on the first tick (the vector engine's
    struct-of-arrays state) pays for them here, so precomputation that
    speeds up the timed body cannot hide.
    """
    start = time.perf_counter()
    _grid, network, _nis = build(width, engine)
    network.tick()
    return time.perf_counter() - start


def _uniform(cfg: Dict, seed: int, engine: str):
    from repro.core.grid import Grid
    from repro.workloads.synthetic import run_uniform

    gc.collect()  # every rep starts from the same heap state
    start = time.perf_counter()
    result = run_uniform(
        Grid(cfg["width"]), cfg["rate"], cycles=cfg["cycles"], seed=seed,
        scheduler=SCHEDULER, engine=engine,
    )
    return time.perf_counter() - start, result


def _delivered_all(result) -> bool:
    return result.sent == result.received and result.network.idle()


def measure(name: str, seed: int, seconds: float, out: Outcome, work: Path) -> None:
    from repro.noc.network import network_class

    cfg = CONFIGS[name]
    default_engine = network_class(None).engine
    median_put(
        out, "setup_s",
        [setup_seconds(cfg["width"], None) for _ in range(SETUP_REPS)],
    )
    walls: Dict[str, List[float]] = {e: [] for e in catalog.ENGINES}
    sums: Dict[str, set] = {e: set() for e in catalog.ENGINES}
    cycles: Dict[str, int] = {}

    def one_round() -> None:
        for engine in catalog.ENGINES:
            wall, result = _uniform(cfg, seed, engine)
            out.op(_delivered_all(result))
            walls[engine].append(wall)
            sums[engine].add(checksum(result.network))
            cycles[engine] = result.cycles
            out.sim.update(
                sent=result.sent, received=result.received,
                cycles=result.cycles,
            )
            del result  # or the next rep runs beside this rep's network

    rounds(seconds, one_round)
    seen = set().union(*sums.values())
    out.check(
        "object and vector checksums equal, and repeat across reps",
        len(seen) == 1, f"checksums {sorted(seen)}",
    )
    out.sim["checksum"] = sorted(seen)[0]
    medians = {e: statistics.median(walls[e]) for e in catalog.ENGINES}
    out.put(
        "wall_s", sum(medians.values()),
        rounds=[sum(pair) for pair in zip(*walls.values())],
    )
    for engine in catalog.ENGINES:
        out.put(
            f"sim_cycles_per_s.{engine}", cycles[engine] / medians[engine],
            rounds=walls[engine],
        )
    out.put(
        "sim_cycles_per_s", cycles[default_engine] / medians[default_engine],
        rounds=walls[default_engine],
    )
    out.put("peak_rss_mb", peak_rss_mb())
    out.notes.append(f"default engine: {default_engine}")


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def replay(rec: spans.Recorder, cfg: Dict, seed: int, engine: str) -> Dict:
    """``run_uniform``'s packet sequence through public calls, timed.

    Built only from the public constructors and ``enqueue`` / ``tick`` /
    ``pop_delivered`` / ``idle``; the RNG call order, packet ids and the
    per-cycle pop order match ``run_uniform`` exactly, so the run must
    reproduce its checksum.  Deliveries are detected through the public
    ``stats.packets_delivered`` counter where ``run_uniform`` peeks at a
    private one.
    """
    from repro.noc.types import Packet, PacketType, packet_flits

    rec.cell = engine
    pc = time.perf_counter
    gc.collect()  # as the untraced reps do
    with rec.span("workloads.uniform_driver", "workloads") as root:
        with rec.span("noc.build", "noc") as built:
            _grid, network, nis = build(cfg["width"], engine)
        nodes = list(network.grid.nodes())
        rng = random.Random(seed)
        rand, choice, rate = rng.random, rng.choice, cfg["rate"]
        reply, request = PacketType.READ_REPLY, PacketType.READ_REQUEST
        size = {t: packet_flits(t, network.flit_bytes) for t in (reply, request)}
        stats = network.stats
        ticks: List[float] = []
        enqueue_s = drain_s = 0.0
        enqueues = drains = sent = received = 0
        first = pc()
        for cycle in range(cfg["cycles"] + DRAIN_LIMIT):
            batch = []
            if cycle < cfg["cycles"]:
                for src in nodes:
                    if rand() < rate:
                        dst = choice(nodes)
                        if dst == src:
                            continue
                        ptype = reply if rand() < 0.5 else request
                        sent += 1
                        batch.append(Packet(
                            sent, ptype, src, dst, size[ptype], 0,
                            vc_class=1 if ptype.is_reply else 0,
                        ))
            elif network.idle():
                break
            t0 = pc()
            for packet in batch:
                nis[packet.src].enqueue(packet)
            t1 = pc()
            network.tick()
            t2 = pc()
            if stats.packets_delivered != received:
                for node in nodes:
                    while network.pop_delivered(node) is not None:
                        received += 1
                drains += 1
            t3 = pc()
            enqueue_s += t1 - t0
            enqueues += len(batch)
            ticks.append(t2 - t1)
            drain_s += t3 - t2
        last = pc()
        rec.add("noc.ni_enqueue", "noc", first, last, enqueue_s, enqueues)
        rec.add("noc.tick", "noc", first, last, sum(ticks), len(ticks))
        rec.add("noc.drain", "noc", first, last, drain_s, drains)
    return {
        "wall_s": root.busy,
        "build_s": built.busy,
        "ticks": ticks,
        "enqueue_s": enqueue_s,
        "drain_s": drain_s,
        "driver_s": root.busy - built.busy - sum(ticks) - enqueue_s - drain_s,
        "cycles": network.cycle,
        "sent": sent,
        "received": received,
        "idle": network.idle(),
        "checksum": checksum(network),
        "mean_latency": stats.mean_latency(),
        "delivered": stats.packets_delivered,
    }


def trace(
    name: str, seed: int, out: Outcome, work: Path, rec: spans.Recorder
) -> Dict:
    cfg = CONFIGS[name]
    # Untraced reference on the faster-to-verify engine only: the
    # untraced pass already requires object == vector, and here both
    # traced engines must match this one checksum.
    ref_wall, ref = _uniform(cfg, seed, "vector")
    out.op(_delivered_all(ref))
    ref_sum = checksum(ref.network)
    ref_cycles, ref_sent, ref_received = ref.cycles, ref.sent, ref.received
    del ref  # the traced reps should not run beside a live 24x24 network
    reps = {}
    for engine in catalog.ENGINES:
        rep = reps[engine] = replay(rec, cfg, seed, engine)
        out.op(rep["sent"] == rep["received"] and rep["idle"])
        out.check(
            f"traced {engine} rep reproduces the untraced checksum",
            rep["checksum"] == ref_sum and rep["cycles"] == ref_cycles,
            f"{rep['checksum']}/{rep['cycles']} vs {ref_sum}/{ref_cycles}",
        )
        ticks_us = [t * 1e6 for t in rep["ticks"]]
        out.put(f"noc.build_s.{engine}", rep["build_s"])
        for p in (50, 99):
            out.put(
                f"noc.tick_us_p{p}.{engine}", catalog.percentile(ticks_us, p),
                n=len(ticks_us),
            )
        out.put(f"noc.ni_enqueue_s.{engine}", rep["enqueue_s"])
        out.put(f"noc.drain_s.{engine}", rep["drain_s"])
        out.put(f"workloads.driver_s.{engine}", rep["driver_s"])
    out.put(
        "noc.vector_speedup", reps["object"]["wall_s"] / reps["vector"]["wall_s"]
    )
    out.put("noc.mean_latency_cycles", reps["vector"]["mean_latency"])
    out.put("noc.packets_delivered", reps["vector"]["delivered"])
    out.put(
        "host.trace_overhead_frac", reps["vector"]["wall_s"] / ref_wall - 1.0
    )
    out.sim.update(
        checksum=ref_sum, cycles=ref_cycles, sent=ref_sent, received=ref_received
    )
    dominant = {}
    for engine in catalog.ENGINES:
        span_name, share = spans.dominant(
            rec.spans, lambda s, engine=engine: s.cell == engine
        )
        dominant[engine] = {"span": span_name, "share_of_rep": share}
        out.notes.append(
            f"dominant under {engine}: {span_name} ({share:.0%} of the rep)"
        )
    return {"dominant": dominant}
