"""Tests for design JSON (de)serialisation."""

import json

import pytest

from repro.core.serialize import (
    FORMAT_VERSION,
    design_from_dict,
    design_to_dict,
    load_design,
    save_design,
)
from repro.harness import cache


@pytest.fixture(scope="module")
def design():
    return cache.equinox_design(8, 8, iterations_per_level=20, seed=0)


class TestRoundTrip:
    def test_dict_roundtrip(self, design):
        data = design_to_dict(design)
        rebuilt = design_from_dict(data)
        assert rebuilt.placement.nodes == design.placement.nodes
        assert rebuilt.eir_design == design.eir_design
        assert rebuilt.evaluation.score == pytest.approx(
            design.evaluation.score
        )
        assert rebuilt.rdl_plan.num_crossings == design.rdl_plan.num_crossings

    def test_file_roundtrip(self, design, tmp_path):
        path = save_design(design, tmp_path / "designs" / "d8.json")
        assert path.exists()
        rebuilt = load_design(path)
        assert rebuilt.eir_design == design.eir_design

    def test_json_is_plain(self, design, tmp_path):
        path = save_design(design, tmp_path / "d.json")
        data = json.loads(path.read_text())
        assert data["version"] == FORMAT_VERSION
        assert data["grid"] == {"width": 8, "height": 8}
        assert len(data["groups"]) == 8


class TestValidation:
    def test_bad_version_rejected(self, design):
        data = design_to_dict(design)
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            design_from_dict(data)

    def test_tampered_score_rejected_when_strict(self, design):
        data = design_to_dict(design)
        data["evaluation"]["score"] = 123.0
        with pytest.raises(ValueError, match="score"):
            design_from_dict(data)

    def test_corrupt_groups_rejected(self, design):
        data = design_to_dict(design)
        # Duplicate an EIR across two CBs.
        node = data["groups"][0]["eirs"][0]["node"]
        data["groups"][1]["eirs"][0]["node"] = node
        with pytest.raises(ValueError, match="shared between CBs"):
            design_from_dict(data)
