"""Hypothesis strategies that generate valid-by-construction cases.

Every strategy here produces configurations the fabric builders accept
without further filtering — the constraints live in the generators, not
in ``assume`` calls, so shrinking stays fast and the example budget is
spent on real simulations:

* mesh widths and CB counts respect the placement rules probed from
  :mod:`repro.core.placement` (square grids, ``num_cbs <= width``, even
  widths for the concentrated-mesh overlay);
* fault specs only name links/buffers that exist on the generated grid
  (plus deliberate wildcards, which the injector resolves in design
  order), and every spec that can fire inside the run is transient —
  EquiNox's redundancy argument covers losing *some* injectors, not a
  plan that permanently severs a tile, so permanent faults are fuzzed
  separately via armed-but-never-firing plans;
* workload profiles are drawn from the real 29-benchmark suite.

Widths are weighted toward 4 so the per-cycle-audited fast profile
stays cheap; the deep profile widens the distribution.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from hypothesis import strategies as st

from ..noc.faults import FaultSpec
from ..noc.network import ENGINES
from ..schemes import SCHEME_ORDER, get_config
from ..workloads import profiles
from .space import VerifyCase

#: Width pool for the fast profile, weighted toward the cheapest mesh.
FAST_WIDTHS: Tuple[int, ...] = (4, 4, 4, 4, 5, 6)
#: Width pool for the deep profile (adds the paper's 8x8).
DEEP_WIDTHS: Tuple[int, ...] = (4, 4, 5, 6, 6, 8)

#: Latest base cycle a generated fault may fire at (well inside the
#: simulated window so its effects and heal are fully exercised).
FAULT_FIRE_MAX = 1200
#: Transient-fault heal delay bounds (cycles after the fire).
HEAL_DELAY = (1, 300)


def benchmarks() -> st.SearchStrategy[str]:
    """All 29 real benchmark names."""
    return st.sampled_from(profiles.names())


def schemes() -> st.SearchStrategy[str]:
    """All 9 compared schemes (loop baselines included)."""
    return st.sampled_from(SCHEME_ORDER)


@st.composite
def _mesh(draw, widths: Sequence[int], scheme: str) -> Tuple[int, int]:
    """A (width, num_cbs) pair valid for ``scheme``."""
    pool = [w for w in widths if w % 2 == 0] if (
        scheme == "Interposer-CMesh"
    ) else list(widths)
    if not pool:
        raise ValueError(
            f"width pool {tuple(widths)} has no even entry, so no valid "
            f"{scheme} mesh can be generated (even width required)"
        )
    width = draw(st.sampled_from(pool))
    num_cbs = draw(st.integers(2, width))
    return width, num_cbs


@st.composite
def fault_specs(
    draw,
    width: int,
    max_cycles: int,
    transient_only: bool = True,
) -> FaultSpec:
    """One fault spec that names real structure on a ``width`` mesh.

    ``transient_only`` forces a heal cycle onto any spec that can fire
    inside the run, keeping generated cases live-by-construction; the
    armed-but-never-firing differential plans exercise permanence.
    """
    kind = draw(
        st.sampled_from(
            ["eir_link", "eir_link_wild", "ni_buffer", "mesh_link",
             "router_port"]
        )
    )
    at_cycle = draw(st.integers(0, min(FAULT_FIRE_MAX, max_cycles // 2)))
    heal_cycle: Optional[int] = at_cycle + draw(
        st.integers(HEAL_DELAY[0], HEAL_DELAY[1])
    )
    if not transient_only and draw(st.booleans()):
        heal_cycle = None
    net = draw(st.sampled_from(["reply", "request", "any"]))
    node = draw(st.integers(0, width * width - 1))
    x, y = node % width, node // width
    if kind == "eir_link_wild":
        # Wildcard: the injector picks the next unused EIR link in
        # design order (matches nothing outside EquiNox — also worth
        # fuzzing: unmatched specs must be inert).
        return FaultSpec(
            kind="eir_link", net="reply",
            at_cycle=at_cycle, heal_cycle=heal_cycle,
        )
    if kind == "ni_buffer":
        return FaultSpec(
            kind="ni_buffer", node=node, buffer=draw(st.integers(0, 3)),
            net=net, at_cycle=at_cycle, heal_cycle=heal_cycle,
        )
    if kind == "mesh_link":
        # A real neighbour: east unless on the east edge, else north,
        # else (the north-east corner) west.
        if x + 1 < width:
            peer = node + 1
        elif y > 0:
            peer = node - width
        else:
            peer = node - 1
        return FaultSpec(
            kind="mesh_link", node=node, peer=peer,
            net=net, at_cycle=at_cycle, heal_cycle=heal_cycle,
        )
    if kind == "router_port":
        # Port 0 is east, 1 is west (routing.PORT_E/PORT_W): every node
        # on a width>=3 mesh has one of the two, so the spec always
        # expands to a real bidirectional link.
        port = 0 if x + 1 < width else 1
        return FaultSpec(
            kind="router_port", node=node, port=port,
            net=net, at_cycle=at_cycle, heal_cycle=heal_cycle,
        )
    # Targeted eir_link: name a CB/EIR pair that may or may not exist —
    # the injector must treat a non-existent pair as unmatched/inert.
    peer = draw(st.integers(0, width * width - 1))
    return FaultSpec(
        kind="eir_link", node=node, peer=peer, net="reply",
        at_cycle=at_cycle, heal_cycle=heal_cycle,
    )


@st.composite
def fault_plans(
    draw, width: int, max_cycles: int, max_specs: int = 3
) -> Tuple[FaultSpec, ...]:
    """An ordered plan of 0..``max_specs`` valid transient specs."""
    count = draw(st.integers(0, max_specs))
    return tuple(
        draw(fault_specs(width, max_cycles)) for _ in range(count)
    )


@st.composite
def _cases(
    draw,
    widths: Sequence[int],
    base_seed: int,
    with_faults: bool,
    max_cycles: int,
) -> VerifyCase:
    scheme = draw(schemes())
    width, num_cbs = draw(_mesh(widths, scheme))
    kwargs = {}
    if max_cycles:
        kwargs["max_cycles"] = max_cycles
    case = VerifyCase(
        scheme=scheme,
        benchmark=draw(benchmarks()),
        width=width,
        num_cbs=num_cbs,
        quota=draw(st.integers(2, 10)),
        seed=(draw(st.integers(0, 2**16 - 1)) + base_seed) % 2**20,
        scheduler=draw(st.sampled_from(["active", "dense"])),
        engine=draw(st.sampled_from(ENGINES)),
        telemetry=draw(st.sampled_from([0, 0, 1, 3])),
        **kwargs,
    )
    if (
        with_faults
        and get_config(scheme).supports_faults
        and draw(st.integers(0, 9)) < 4
    ):
        case = case.with_variant(
            faults=draw(fault_plans(width, case.max_cycles))
        )
    return case


def cases(
    widths: Sequence[int] = FAST_WIDTHS,
    base_seed: int = 0,
    with_faults: bool = True,
    max_cycles: int = 0,
) -> st.SearchStrategy[VerifyCase]:
    """A complete valid :class:`VerifyCase`.

    ``base_seed`` decorrelates whole fuzzing campaigns (CLI ``--seed``)
    while staying deterministic for a fixed value; ``with_faults``
    gates fault-plan generation (differential checks supply their own
    plans); ``max_cycles`` of 0 keeps the space default.

    The width pool is validated *here*, at strategy construction, so a
    custom pool with no even entry (Interposer-CMesh needs one) fails
    with a clear ValueError before any campaign starts — not with an
    opaque ``sampled_from([])`` error mid-run.
    """
    widths = tuple(widths)
    if not widths:
        raise ValueError("verify width pool must not be empty")
    if not any(w % 2 == 0 for w in widths):
        raise ValueError(
            f"width pool {widths} has no even entry; Interposer-CMesh "
            f"needs an even mesh width — add one or drop the scheme"
        )
    return _cases(
        widths=widths,
        base_seed=base_seed,
        with_faults=with_faults,
        max_cycles=max_cycles,
    )
