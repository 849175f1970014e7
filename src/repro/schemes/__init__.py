"""The nine compared schemes and the fabric builder.

The seven paper schemes (section 5, Figure-9 order) plus two
independent loop-topology baselines from the literature: ``ring_router``
(Wu's ring-router NoC) and ``routerless`` (Lin's routerless NoC).
Each entry is a :class:`SchemeSpec` carrying the scheme's config
factory; capabilities (``SchemeConfig.supports_faults``) follow from
the config itself.
"""

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Tuple

from ..noc.network import ENGINES
from . import (
    da2mesh,
    equinox,
    interposer_cmesh,
    multiport,
    ring_router,
    routerless,
    separate_base,
    single_base,
    vc_mono,
)
from .base import BASE_FREQUENCY_GHZ, Fabric, SchemeConfig


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme's name and config factory."""

    name: str
    factory: Callable[[], SchemeConfig]
    # Every scheme runs on every tick engine: not a field, only the one
    # tuple for readers that still ask a spec (bench/wl_sweep.py).
    engines: ClassVar[Tuple[str, ...]] = ENGINES


SCHEMES: Dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        SchemeSpec("SingleBase", single_base.config),
        SchemeSpec("VC-Mono", vc_mono.config),
        SchemeSpec("Interposer-CMesh", interposer_cmesh.config),
        SchemeSpec("SeparateBase", separate_base.config),
        SchemeSpec("DA2Mesh", da2mesh.config),
        SchemeSpec("MultiPort", multiport.config),
        SchemeSpec("EquiNox", equinox.config),
        SchemeSpec("ring_router", ring_router.config),
        SchemeSpec("routerless", routerless.config),
    )
}
"""Spec per scheme, keyed by name: the paper's seven in Figure-9 order,
then the loop baselines."""

SCHEME_ORDER: List[str] = list(SCHEMES)


def get_spec(name: str) -> SchemeSpec:
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; known: {SCHEME_ORDER}"
        ) from None


def get_config(name: str) -> SchemeConfig:
    return get_spec(name).factory()


__all__ = [
    "BASE_FREQUENCY_GHZ",
    "Fabric",
    "SchemeConfig",
    "SchemeSpec",
    "SCHEMES",
    "SCHEME_ORDER",
    "get_config",
    "get_spec",
]
