"""Replayable failure artifacts: a CI failure is a one-command repro.

When a property fails, the harness serializes the *shrunk* minimal
case as canonical JSON (the same ``sort_keys`` / tight-separator form
the telemetry exporter uses, so artifacts diff cleanly and hash
stably) together with the property name and a sanitized error text.
``repro verify --replay <file>`` re-runs exactly that property on
exactly that case.

Artifacts are byte-identical across runs of the same failure: the
error text is scrubbed of memory addresses (``repr`` of live routers
and buffers embeds ``0x...`` ids) and nothing time- or host-dependent
is recorded.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Union

from .. import __version__
from ..telemetry import write_json
from .space import VerifyCase

ARTIFACT_SCHEMA = 1

#: Properties a replay can re-run, by artifact ``property`` name.
PROPERTY_INVARIANTS = "invariants"
PROPERTY_DIFFERENTIAL = "differential"
PROPERTY_ENGINE_PARITY = "engine-parity"
KNOWN_PROPERTIES = (
    PROPERTY_INVARIANTS, PROPERTY_DIFFERENTIAL, PROPERTY_ENGINE_PARITY
)

_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


ERROR_LIMIT = 4000
"""Characters of an error message an artifact keeps."""


def sanitize_error(text: str) -> str:
    """Strip run-dependent bytes (object addresses) and bound the size."""
    cleaned = _ADDRESS.sub("0x...", text)
    if len(cleaned) > ERROR_LIMIT:
        cleaned = cleaned[:ERROR_LIMIT] + " ...[truncated]"
    return cleaned


def build_artifact(
    prop: str, case: VerifyCase, error: str
) -> Dict[str, object]:
    if prop not in KNOWN_PROPERTIES:
        raise ValueError(
            f"unknown verify property {prop!r}; known: {KNOWN_PROPERTIES}"
        )
    return {
        "schema": ARTIFACT_SCHEMA,
        "kind": "verify_repro",
        "version": __version__,
        "property": prop,
        "error": sanitize_error(error),
        "case": case.to_dict(),
        "case_digest": case.digest(),
    }


def artifact_filename(prop: str, case: VerifyCase) -> str:
    return f"verify-{prop}-{case.digest()}.json"


def write_failure(
    directory: Union[str, Path], prop: str, case: VerifyCase, error: str
) -> Path:
    """Serialize one shrunk failure; returns the artifact path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    record = build_artifact(prop, case, error)
    return write_json(directory / artifact_filename(prop, case), record)


def load_artifact(path: Union[str, Path]) -> Dict[str, object]:
    """Parse and validate a replay artifact."""
    import json

    raw = Path(path).read_text()
    record = json.loads(raw)
    if not isinstance(record, dict):
        raise ValueError(f"artifact {path} is not a JSON object")
    if record.get("kind") != "verify_repro":
        raise ValueError(
            f"artifact {path} has kind {record.get('kind')!r}, "
            f"expected 'verify_repro'"
        )
    schema = record.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(
            f"artifact {path} has schema {schema!r}, supported: "
            f"{ARTIFACT_SCHEMA}"
        )
    prop = record.get("property")
    if prop not in KNOWN_PROPERTIES:
        raise ValueError(
            f"artifact {path} names unknown property {prop!r}"
        )
    case = VerifyCase.from_dict(record.get("case"))
    digest = record.get("case_digest")
    if digest is not None and digest != case.digest():
        raise ValueError(
            f"artifact {path} case_digest {digest!r} does not match the "
            f"embedded case ({case.digest()}); file edited or corrupted"
        )
    record["case"] = case
    return record


def replay(path: Union[str, Path]) -> bool:
    """Re-run the artifact's property on its case.

    Returns ``True`` when the failure still reproduces (the property
    raises), ``False`` when the case now passes — i.e. the bug is
    fixed.  Unknown/invalid artifacts raise ``ValueError``.

    "Still reproduces" means any of the harness's failure exceptions —
    explicit check violations *and* the simulator's per-cycle audit and
    stall-watchdog errors — exactly the ``FAILURE_EXCEPTIONS`` set the
    campaign records.
    """
    from .differential import (
        check_differential_case,
        check_engine_parity_case,
    )
    from .harness import FAILURE_EXCEPTIONS
    from .invariants import check_invariants_case

    record = load_artifact(path)
    case = record["case"]
    prop = record["property"]
    try:
        if prop == PROPERTY_INVARIANTS:
            check_invariants_case(case)
        elif prop == PROPERTY_ENGINE_PARITY:
            check_engine_parity_case(case)
        else:
            check_differential_case(case)
    except FAILURE_EXCEPTIONS:
        return True
    return False

