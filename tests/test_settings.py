"""The settings table: one reader of the environment, one documented list."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro import settings
from repro.harness.experiment import ExperimentConfig, config_digest
from repro.harness.store import result_key
from repro.noc.faults import FaultSpec

README = Path(__file__).resolve().parent.parent / "README.md"

#: One valid non-default value per knob: (environment text, parsed).
SAMPLES = {
    "validate": ("64", 64),
    "watchdog_cycles": ("1234", 1234),
    "faults": ('[{"kind": "eir_link"}]', (FaultSpec(kind="eir_link"),)),
    "engine": ("vector", "vector"),
    "telemetry": ("50", 50),
    "cell_timeout": ("1.5", 1.5),
    "retries": ("2", 2),
    "chaos_kill_after": ("3", 3),
}


@pytest.fixture
def clean_env(monkeypatch):
    for setting in settings.SETTINGS.values():
        monkeypatch.delenv(setting.env, raising=False)
    return monkeypatch


CONFIG_FIELDS = {f.name: f.default for f in fields(ExperimentConfig)}
SWEEP_ARGUMENTS = {"cell_timeout", "retries", "chaos_kill_after"}


def _flag(name):
    return "--" + name.replace("_", "-")


class TestTable:
    def test_eight_knobs_and_config_fields_exist(self):
        assert set(SAMPLES) == set(settings.SETTINGS)
        assert set(settings.SETTINGS) - set(CONFIG_FIELDS) == SWEEP_ARGUMENTS
        for name, setting in settings.SETTINGS.items():
            assert setting.name == name
            if name in CONFIG_FIELDS:
                # "unset" in the table is the dataclass default itself.
                assert CONFIG_FIELDS[name] == setting.default

    def test_every_knob_has_its_flag(self):
        from repro.cli import build_parser

        def flags(parser):
            found = set()
            for action in parser._actions:
                found.update(action.option_strings)
                if isinstance(action.choices, dict):  # subcommands
                    for sub in action.choices.values():
                        found |= flags(sub)
            return found

        cli_flags = flags(build_parser())
        for name in settings.SETTINGS:
            assert _flag(name) in cli_flags

    def test_readme_environment_table_matches(self):
        section = README.read_text().split("## Environment", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = [
            tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in section.splitlines()
            if line.startswith("| `REPRO_")
        ]
        assert [row[:3] for row in documented] == [
            (f"`{s.env}`", f"`{_flag(s.name)}`", s.accepts)
            for s in settings.SETTINGS.values()
        ]
        # The default column leads with the table's "unset" value and
        # glosses what it means (off, the model default, ...).
        for row, setting in zip(documented, settings.SETTINGS.values()):
            assert row[3].startswith(f"`{setting.default!r}`: ")
        # Nothing else in the README's table: the two location
        # variables are described in prose, not as behaviour rows.
        assert set(re.findall(r"REPRO_[A-Z_]+", section)) == {
            s.env for s in settings.SETTINGS.values()
        } | {"REPRO_CACHE_DIR", "REPRO_STORE_DIR"}


class TestResolve:
    def test_identity_on_a_clean_environment(self, clean_env):
        config = ExperimentConfig(quota=8, mcts_iterations=10)
        assert settings.resolve(config) is config
        for name, setting in settings.SETTINGS.items():
            assert settings.from_env(name) == setting.default

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_argument_beats_environment_beats_default(self, clean_env, name):
        setting = settings.SETTINGS[name]
        raw, parsed = SAMPLES[name]
        clean_env.setenv(setting.env, f"  {raw} ")
        assert settings.from_env(name) == parsed
        if name in SWEEP_ARGUMENTS:
            assert settings.resolve(ExperimentConfig()) == ExperimentConfig()
            return
        base = ExperimentConfig()
        resolved = settings.resolve(base)
        assert getattr(resolved, name) == parsed
        assert settings.resolve(resolved) is resolved  # idempotent
        # The variable is now part of everything keyed on the config.
        assert config_digest(resolved) != config_digest(base)
        assert (result_key("EquiNox", "hotspot", resolved)
                != result_key("EquiNox", "hotspot", base))
        # An explicit value is left alone, whatever the variable says.
        clean_env.setenv(setting.env, "not even parseable")
        assert settings.resolve(resolved) is resolved

    @pytest.mark.parametrize("name", ["validate", "watchdog_cycles",
                                      "telemetry", "chaos_kill_after"])
    def test_non_positive_interval_means_unset(self, clean_env, name):
        clean_env.setenv(settings.SETTINGS[name].env, "-5")
        assert settings.from_env(name) == 0
        assert settings.resolve(ExperimentConfig()) == ExperimentConfig()

    def test_hermetic_env_scrubs_and_restores(self, clean_env):
        for name, (raw, _parsed) in SAMPLES.items():
            clean_env.setenv(settings.SETTINGS[name].env, raw)
        config = ExperimentConfig()
        with settings.hermetic_env():
            assert settings.resolve(config) is config
        assert settings.resolve(config).engine == "vector"
