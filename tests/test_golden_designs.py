"""Golden pin of the EquiNox design flow, search path included.

Each row of ``tests/data/golden_designs.json`` records one
``design_equinox`` run: the committed design (``design_to_dict``), the
exact score, the per-level score trace and the search counters.  A
change that alters the search path (a different rollout, an extra or
missing evaluation, a reordered float addition) fails here even when
the final design happens to survive it.

Regenerate after a deliberate change to the flow with::

    PYTHONPATH=src python tests/test_golden_designs.py
"""

import json
from pathlib import Path

import pytest

from repro.core.equinox import design_equinox
from repro.core.mcts import SearchConfig
from repro.core.serialize import design_to_dict

GOLDEN = Path(__file__).parent / "data" / "golden_designs.json"

# CBs per width: fewer than N everywhere but 8x8, so placement pruning
# runs both exhaustively (4, 6) and on a sampled subset (12, 16).  Four
# CBs on 4x4 would leave no legal EIR at all.
NUM_CBS = {4: 2, 6: 4, 8: 8, 12: 8, 16: 8}

# (width, iterations_per_level, seed)
CASES = [
    (width, iterations, seed)
    for width in (4, 6, 8)
    for iterations in (25, 150)
    for seed in (0, 1)
] + [(12, 5, 0), (16, 5, 0)]


def case_id(case):
    width, iterations, seed = case
    return f"w{width}-i{iterations}-s{seed}"


def golden_row(case):
    width, iterations, seed = case
    design = design_equinox(
        width, NUM_CBS[width],
        SearchConfig(iterations_per_level=iterations, seed=seed),
    )
    search = design.search
    return {
        "id": case_id(case),
        "design": design_to_dict(design),
        "score": repr(design.evaluation.score),
        "best_score_trace": [repr(s) for s in search.best_score_trace],
        "designs_evaluated": search.designs_evaluated,
        "nodes_expanded": search.nodes_expanded,
        "eval_cache_hits": search.eval_cache_hits,
    }


def _load():
    return {row["id"]: row for row in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_case():
    assert sorted(_load()) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_design_flow_matches_golden(case):
    expected = _load()[case_id(case)]
    # The JSON round trip turns tuples into lists; floats survive exactly.
    assert json.loads(json.dumps(golden_row(case))) == expected


if __name__ == "__main__":
    rows = [golden_row(case) for case in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
