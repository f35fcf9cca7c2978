"""The package root's public surface: the README's library list."""

import importlib
import re
from pathlib import Path

import pytest

import ringrc

README = Path(__file__).resolve().parents[1] / "README.md"

#: Names imported from their modules only, not from the package root.
MODULE_ONLY = {
    "reporting": ("emit_report", "emit_binning", "format_validation_text", "waveform_csv",
                  "waveform_svg", "BinningReport", "GeometryValidation"),
    "files": ("emit_report_json", "write_text_atomic", "ConfigFile"),
    "simulator": ("simulate_step", "crossing_time", "quiet_delay_ratio", "NetworkStateSpace"),
    "extraction": ("ErrorReport", "SpecTable"),
    "lumpmodel": ("LumpCoefficients",),
}


def readme_library() -> dict[str, list[str]]:
    """The README's "Library API" list: module -> the names listed for it."""
    section = README.read_text(encoding="utf-8").split("\n## Library API\n")[1]
    section = section.split("\n## ")[0]
    listed = {}
    for module, names in re.findall(r"^- `(ringrc\.\w+)`: (.*)$", section, re.M):
        listed[module] = re.findall(r"`(\w+)`", names)
    return listed


def test_all_is_the_readme_list():
    listed = readme_library()
    names = [name for group in listed.values() for name in group]
    assert len(names) == len(set(names)) == 57
    assert sorted(ringrc.__all__) == sorted(names)
    for module, group in listed.items():  # each listed under the module defining it
        owner = importlib.import_module(module)
        assert all(getattr(ringrc, name) is getattr(owner, name) for name in group), module


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ringrc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ringrc.__all__)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MODULE_ONLY.items()
                                          for n in names])
def test_module_only_names(module, name):
    assert hasattr(importlib.import_module(f"ringrc.{module}"), name)
    assert not hasattr(ringrc, name)
    assert name not in ringrc.__all__
