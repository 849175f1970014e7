"""The one table of ``REPRO_*`` behaviour knobs, and their one reader.

Every knob a user can set through the environment is a row of
:data:`SETTINGS`: the config field or sweep argument it fills, its
variable, how its text is parsed and validated, and the value that
means "unset".  Precedence is explicit argument > environment >
default, and the environment is consulted only here, where a user's
config enters the harness — :func:`resolve` for
:class:`~repro.harness.experiment.ExperimentConfig` fields,
:func:`from_env` for the sweep arguments.  Everything below that line
(networks, fabrics, the system model, workers executing a leased cell)
takes explicit values, so a store key, a bus payload and a telemetry
digest always describe the run that actually happened.

``REPRO_CACHE_DIR`` / ``REPRO_STORE_DIR`` are *locations*, not
behaviour: they cannot change a result, and stay in
:func:`repro.harness.cache.env_dir`.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator

from .noc.faults import parse_faults_arg
from .noc.network import resolve_engine


def _integer(raw: str) -> int:
    # Unparseable is a loud config error: REPRO_VALIDATE=true must fail
    # the run, not quietly leave every audit off.
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, got {raw!r}") from None


def _interval(raw: str) -> int:
    """An integer where anything <= 0 means "unset"."""
    return max(0, _integer(raw))


def _count(raw: str) -> int:
    value = _integer(raw)
    if value < 0:
        raise ValueError(f"must be >= 0, got {raw!r}")
    return value


def _seconds(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"must be a number, got {raw!r}") from None
    # float() happily parses 'nan'/'inf': NaN defeats every <=/>=
    # guard downstream (nan <= 0 is False, so it would reach
    # setitimer), and infinities/negatives are never meaningful for a
    # timeout.  Fail loudly instead of arming a broken timer.
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"must be finite, got {raw!r}")
    if value < 0:
        raise ValueError(f"must be >= 0, got {raw!r}")
    return value


@dataclass(frozen=True)
class Setting:
    """One environment-settable knob (a row of README's Environment table)."""

    # The ExperimentConfig field, else the run_sweep / WorkerOptions
    # argument, the variable stands in for; its flag is --<name>.
    name: str
    env: str
    # Text -> value; a ValueError is re-raised naming the variable.
    parse: Callable[[str], object]
    # The value that means "not given": an explicit value equal to it
    # defers to the environment.
    default: object
    accepts: str


SETTINGS: Dict[str, Setting] = {
    setting.name: setting
    for setting in (
        Setting("validate", "REPRO_VALIDATE", _interval, 0,
                "integer: 1 = audit every 512 cycles, N > 1 = every N"),
        Setting("watchdog_cycles", "REPRO_WATCHDOG_CYCLES", _interval, 0,
                "integer > 0: stall-watchdog window in base cycles"),
        Setting("faults", "REPRO_FAULTS", parse_faults_arg, (),
                "fault plan: a JSON file path or inline JSON"),
        Setting("engine", "REPRO_ENGINE", resolve_engine, "",
                "`object` or `vector`"),
        Setting("telemetry", "REPRO_TELEMETRY", _interval, 0,
                "integer: 1 = sample every 100 cycles, N > 1 = every N"),
        Setting("cell_timeout", "REPRO_CELL_TIMEOUT", _seconds, 0.0,
                "finite number >= 0: wall-clock limit per cell attempt"),
        Setting("retries", "REPRO_RETRIES", _count, 0,
                "integer >= 0: reseeded retries of a failed cell"),
        Setting("chaos_kill_after", "REPRO_SWEEPD_CHAOS_KILL", _interval, 0,
                "integer: test-only, `sweepd worker` SIGKILLs itself "
                "after its N-th lease"),
    )
}


def from_env(name: str) -> object:
    """Knob ``name`` as the environment sets it, else its default."""
    setting = SETTINGS[name]
    raw = os.environ.get(setting.env, "").strip()
    if not raw:
        return setting.default
    try:
        return setting.parse(raw)
    except ValueError as exc:
        raise ValueError(f"{setting.env} {exc}") from None


def resolve(config):
    """Fill each unset config field from its environment variable.

    Explicit values win.  The identity on an environment with no
    behaviour variable set, and idempotent, so resolving at every
    harness entry point is safe; call it *before* a config is keyed
    (``config_digest``, ``result_key``) or shipped (bus payloads).
    """
    updates = {}
    for setting in SETTINGS.values():
        # The sweep/worker arguments are not config fields: skipped.
        if getattr(config, setting.name, None) == setting.default:
            value = from_env(setting.name)
            if value != setting.default:
                updates[setting.name] = value
    return replace(config, **updates) if updates else config


@contextmanager
def hermetic_env() -> Iterator[None]:
    """Temporarily clear every behaviour knob of the table.

    Inside, :func:`resolve` is the identity: a verification case or a
    leased cell runs under exactly the config it carries.
    """
    saved = {
        setting.env: os.environ.pop(setting.env)
        for setting in SETTINGS.values()
        if setting.env in os.environ
    }
    try:
        yield
    finally:
        os.environ.update(saved)
