"""The packages export only what the library itself or the benchmark reaches."""

import ast
from pathlib import Path

import pytest

import beclab
import beclab.manybody

REPO = Path(__file__).resolve().parents[1]
# the package __init__ files export the names; they do not count as a use
SOURCES = sorted(p for p in (REPO / "src" / "beclab").rglob("*.py") if p.name != "__init__.py")
SOURCES += sorted((REPO / "perfbench").glob("*.py"))


def _references(path: Path) -> set[str]:
    """The names a file reads: loaded names, attributes, imported names and
    strings (``perfbench/spans.py`` names what it wraps by string).  A def
    or class statement only defines its name, so it reads none."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


@pytest.mark.parametrize("package", [beclab, beclab.manybody], ids=lambda p: p.__name__)
def test_every_exported_name_is_used_outside_the_package_init(package):
    referenced = set().union(*map(_references, SOURCES))
    assert sorted(set(package.__all__) - referenced) == []
