"""Inventory of the ``REPRO_*`` environment knobs.

Every knob the package reads must be documented in README.md, and every
knob in README's switch table must still be read by the package — so a
knob cannot be added undocumented, and a deleted knob cannot linger in
the docs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
README = ROOT / "README.md"

_KNOB = re.compile(r"_?REPRO_[A-Z0-9_]+")
_TABLE_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)")


def source_knobs():
    """Every ``REPRO_*`` string literal under ``src/repro``."""
    knobs = set()
    for path in SOURCE.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _KNOB.fullmatch(node.value):
                knobs.add(node.value)
    return knobs


def readme_table_knobs():
    """The knob names in README's env-switch table rows."""
    knobs = set()
    for line in README.read_text().splitlines():
        match = _TABLE_ROW.match(line)
        if match:
            knobs.add(match.group(1))
    return knobs


def test_inventory_finds_knobs():
    assert "REPRO_NO_METRICS_PLAN" in source_knobs()
    assert "REPRO_NO_METRICS_PLAN" in readme_table_knobs()


def test_every_source_knob_is_documented():
    documented = set(_KNOB.findall(README.read_text()))
    undocumented = sorted(source_knobs() - documented)
    assert undocumented == []


def test_every_table_knob_is_read_by_the_package():
    dead = sorted(readme_table_knobs() - source_knobs())
    assert dead == []
