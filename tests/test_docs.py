"""The README stays in step with the code it documents."""

import importlib
import re
from pathlib import Path

from hetnet_rrm.scenario import _SETTINGS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text of the README's ``## title`` section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_settings_table_names_every_setting_in_table_order():
    rows = [line for line in _section("Scenario format").splitlines() if line.startswith("| `")]
    keys = [(key, row.split("|")[2].strip()) for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert keys == [(key, row.section) for key, row in _SETTINGS.items()]


def test_library_use_imports_resolve():
    imports = re.findall(r"^from (hetnet_rrm\.\w+) import (.+)$", _section("Library use"), re.MULTILINE)
    assert imports
    for module_name, names in imports:
        module = importlib.import_module(module_name)
        missing = [name for name in map(str.strip, names.split(",")) if not hasattr(module, name)]
        assert missing == [], module_name
