"""Every public name the package defines has a caller outside the tests.

Code only the tests use belongs in ``tests/``.  The guard walks the
module-level functions, classes and assigned names of ``src/hetnet_rrm/*.py``
whose names do not start with ``_``, and fails on any name that nothing
mentions outside its own definition: not ``src/``, ``perfbench/*.py`` nor
``README.md``.  It walks the public methods and properties of those classes
too, and fails on any that nothing there uses as an attribute, ``.name``: a
plain word match would count common words such as ``utilities``.  Dataclass
fields are not covered.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hetnet_rrm"


def _public_definitions(tree: ast.Module):
    """``(name, node)`` for each public module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            elts = [e for t in targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
            names = [e.id for e in elts if isinstance(e, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _texts() -> dict[Path, str]:
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    return {path: path.read_text(encoding="utf-8") for path in paths}


def test_every_public_name_has_a_caller_outside_the_tests():
    texts = _texts()
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines(keepends=True)
        for name, node in _public_definitions(ast.parse(texts[path])):
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = "".join(lines[node.lineno - 1 : node.end_lineno])
            mentions = sum(len(word.findall(text)) for text in texts.values())
            if mentions == len(word.findall(own)):
                uncalled.append(f"{path.name}: {name}")
    assert uncalled == []


def test_every_public_method_has_a_caller_outside_the_tests():
    texts = _texts()
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, node in _public_definitions(ast.parse(texts[path])):
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                use = re.compile(rf"\.{re.escape(member.name)}\b")
                if not any(use.search(text) for text in texts.values()):
                    uncalled.append(f"{path.name}: {cls}.{member.name}")
    assert uncalled == []
