"""The packages export only what the library itself or the benchmark
reaches, and the library's records hold only fields that it reads."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import beclab
import beclab.manybody

REPO = Path(__file__).resolve().parents[1]
# the package __init__ files export the names; they do not count as a use
SOURCES = sorted(p for p in (REPO / "src" / "beclab").rglob("*.py") if p.name != "__init__.py")
SOURCES += sorted((REPO / "perfbench").glob("*.py"))
# records the CLI writes whole with ``asdict``: every field is read by the report
WRITTEN_WHOLE = {"CondensateReport", "LocalizationProfile"}


def _reads(path: Path) -> set[str]:
    """What a file reads off objects and modules: attributes, imported
    names and strings (``perfbench/spans.py`` names what it wraps by
    string).  A bare name is a local or a module-level name, never a
    record's field."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _references(path: Path) -> set[str]:
    """The names a file reads: ``_reads`` and its loaded bare names.  A def
    or class statement only defines its name, and a keyword argument (a
    record's constructor) only writes one, so they read none."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return _reads(path) | {node.id for node in ast.walk(tree)
                           if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _record_fields():
    """(class name, field name) of every dataclass defined in ``beclab``."""
    for info in pkgutil.walk_packages(beclab.__path__, "beclab."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                yield from ((cls.__name__, f.name) for f in dataclasses.fields(cls))


@pytest.mark.parametrize("package", [beclab, beclab.manybody], ids=lambda p: p.__name__)
def test_every_exported_name_is_used_outside_the_package_init(package):
    referenced = set().union(*map(_references, SOURCES))
    assert sorted(set(package.__all__) - referenced) == []


def test_every_record_field_is_read():
    read = set().union(*map(_reads, SOURCES))
    unread = sorted(f"{cls}.{name}" for cls, name in _record_fields()
                    if cls not in WRITTEN_WHOLE and name not in read)
    assert unread == []
