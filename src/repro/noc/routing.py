"""Routing functions: XY dimension-order and odd-even minimal adaptive.

Output ports use the direction constants below; routing functions return
the set of *productive, turn-legal* output ports for a packet at some
router, and the router picks among them by downstream credit count
(minimal adaptive) or takes the single option (deterministic XY).

The odd-even turn model (Chiu, 2000) restricts where turns may happen
based on column parity, which keeps the channel dependency graph acyclic
without consuming virtual channels — that is what lets the single
network dedicate its two VCs to the request/reply protocol classes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

from ..core.grid import Grid

PORT_E = 0  # +x
PORT_W = 1  # -x
PORT_S = 2  # +y
PORT_N = 3  # -y
NUM_MESH_PORTS = 4
PORT_EJECT = 4
"""Ejection is always port 4; injection ports are appended after it."""

PORT_NAMES = {PORT_E: "E", PORT_W: "W", PORT_S: "S", PORT_N: "N",
              PORT_EJECT: "EJ"}

_OPPOSITE = {PORT_E: PORT_W, PORT_W: PORT_E, PORT_S: PORT_N, PORT_N: PORT_S}


def opposite(port: int) -> int:
    """The port on the far side of a link (E<->W, N<->S)."""
    return _OPPOSITE[port]


_RIGHT = {PORT_E: PORT_S, PORT_S: PORT_W, PORT_W: PORT_N, PORT_N: PORT_E}
_LEFT = {v: k for k, v in _RIGHT.items()}


def turn_right(port: int) -> int:
    """90-degree clockwise turn (+y is south, so E -> S -> W -> N)."""
    return _RIGHT[port]


def turn_left(port: int) -> int:
    """90-degree counter-clockwise turn (E -> N -> W -> S)."""
    return _LEFT[port]


def port_delta(port: int) -> tuple:
    """The coordinate delta a mesh port moves a flit by."""
    return {
        PORT_E: (1, 0),
        PORT_W: (-1, 0),
        PORT_S: (0, 1),
        PORT_N: (0, -1),
    }[port]


def xy_route(grid: Grid, cur: int, dst: int) -> List[int]:
    """Deterministic XY: exhaust the x dimension, then y."""
    cx, cy = grid.coord(cur)
    dx, dy = grid.coord(dst)
    if cx < dx:
        return [PORT_E]
    if cx > dx:
        return [PORT_W]
    if cy < dy:
        return [PORT_S]
    if cy > dy:
        return [PORT_N]
    return [PORT_EJECT]


def odd_even_routes(grid: Grid, cur: int, src: int, dst: int) -> List[int]:
    """Minimal adaptive routes legal under the odd-even turn model.

    Implements the ROUTE function of Chiu's odd-even paper: East-to-
    North/South turns are forbidden in even columns and North/South-to-
    West turns in odd columns, and the returned set is never empty for
    a minimal route.  ``src`` is the router where the packet entered
    the network (the local router or an EIR).
    """
    cx, cy = grid.coord(cur)
    sx, _sy = grid.coord(src)
    dx, dy = grid.coord(dst)
    ex, ey = dx - cx, dy - cy
    if ex == 0 and ey == 0:
        return [PORT_EJECT]
    vertical = PORT_S if ey > 0 else PORT_N
    avail: List[int] = []
    if ex == 0:
        avail.append(vertical)
    elif ex > 0:  # eastbound
        if ey == 0:
            avail.append(PORT_E)
        else:
            if cx % 2 == 1 or cx == sx:
                avail.append(vertical)
            if dx % 2 == 1 or ex != 1:
                avail.append(PORT_E)
    else:  # westbound
        avail.append(PORT_W)
        if cx % 2 == 0 and ey != 0:
            avail.append(vertical)
    return avail


def minimal_ports(grid: Grid, cur: int, dst: int) -> List[int]:
    """Every productive mesh port toward ``dst``, ignoring turn models.

    Fault-avoidance fallback: when all turn-model-legal ports at a
    router have failed, a packet may take any other minimal port (or,
    if those are gone too, a one-hop perpendicular detour — see
    ``Router._route_and_allocate``).  The turn-model guarantee is
    traded for availability; the stall watchdog backstops the rare
    fault layouts that still trap a packet.
    """
    cx, cy = grid.coord(cur)
    dx, dy = grid.coord(dst)
    out: List[int] = []
    if dx > cx:
        out.append(PORT_E)
    if dx < cx:
        out.append(PORT_W)
    if dy > cy:
        out.append(PORT_S)
    if dy < cy:
        out.append(PORT_N)
    return out


CANDIDATES = (
    (PORT_E,), (PORT_W,), (PORT_S,), (PORT_N,), (PORT_EJECT,),
    (PORT_S, PORT_E), (PORT_N, PORT_E), (PORT_W, PORT_S), (PORT_W, PORT_N),
)
"""Every candidate list either algorithm returns, in list order (the
router keeps the first of equally credited ports); table bytes index it."""

_CODE = {ports: code for code, ports in enumerate(CANDIDATES)}
_SCALAR = {
    "xy": lambda grid, cur, src, dst: xy_route(grid, cur, dst),
    "oddeven": odd_even_routes,
}


@lru_cache(maxsize=None)
def route_table(width: int, height: int, algorithm: str) -> bytes:
    """Candidate codes for every ``(same_column, cur, dst)`` of a mesh.

    One :data:`CANDIDATES` index per byte at ``(same * N + cur) * N +
    dst``; ``same`` — does the packet's source router share ``cur``'s
    column — is all either algorithm asks about the source.  Built on
    first lookup and held once per process and (shape, algorithm), so
    route state is ``2 * N * N`` bytes by topology, not by traffic, and
    every network of that shape, on either tick path, reads one object.

    Neither algorithm reads the two rows beyond the sign of their
    difference, so the scalar function is asked only on a three-row
    mesh (``6 * width**2`` calls) and a router's row is its column's
    north / level / south band repeated to the real height.
    """
    scalar = _SCALAR.get(algorithm)
    if scalar is None:
        raise ValueError(f"unknown routing algorithm {algorithm!r}")
    ref = Grid(width, 3)
    rows = []
    for same in (0, 1):
        bands = []
        for cur in range(width, 2 * width):
            src = cur if same else width + (cur + 1) % width
            row = bytes(
                _CODE[tuple(scalar(ref, cur, src, dst))]
                for dst in range(3 * width)
            )
            bands.append((row[:width], row[width:-width], row[-width:]))
        rows.extend(
            north * cy + level + south * (height - 1 - cy)
            for cy in range(height)
            for north, level, south in bands
        )
    return b"".join(rows)


def route_candidates(
    grid: Grid, algorithm: str, cur: int, src: int, dst: int
) -> Sequence[int]:
    """The configured algorithm's candidates, read from its route table."""
    width = grid.width
    size = width * grid.height
    same_column = (src - cur) % width == 0
    table = route_table(width, grid.height, algorithm)
    return CANDIDATES[table[(same_column * size + cur) * size + dst]]
