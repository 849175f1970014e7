"""Put a flit straight into a router's input VC, as a link landing does.

The network applies landings in line in ``Network.tick``; tests that
build a router state by hand use this instead.
"""


def park(router, port, vc, flit, cycle):
    """Buffer ``flit`` at ``router``'s input ``(port, vc)`` at ``cycle``."""
    flit.buffered_at = cycle
    router.inputs[port][vc].queue.append(flit)
    router.flit_count += 1
    router.peak_flits = max(router.peak_flits, router.flit_count)
    router.port_flits[port] += 1
    router.blocked = False
