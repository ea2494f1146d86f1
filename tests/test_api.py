"""The public API is what README documents.

Every name `pathreach` exports, and every public method and property of
an exported class, must appear in README.md, and README's library example
must run as shown; README names no private symbol, and the names of the
retired API must not come back.  That the oracles in `pathreach.testkit`
stay independent of the engine is checked in `tests/test_lint.py`.
"""

import dataclasses
import functools
import inspect
import re
from pathlib import Path

import pytest

import pathreach
from pathreach import dagcover, graph, reach

README = Path(__file__).resolve().parent.parent / "README.md"

RETIRED = (
    "RegisterMeter",
    "FrontierRegisters",
    "earliest_occurrence",
    "occurs_from",
    "initial_frontier",
    "advance_frontier",
    "EdgeIndexing",
    "assign_edge_indices",
    "trace_path",
    "degrees",
    "DegreePair",
)
RETIRED_MEMBERS = (
    ("Digraph", "has_edge"),
    ("WalkDecomposition", "max_vertex"),
    ("WalkDecomposition", "occurrences"),
)


def _readme_spans() -> list[str]:
    """README's inline code spans, outside its fenced code blocks."""
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    return re.findall(r"`([^`]+)`", prose)


def _class_members():
    """(class, member) for every field of an exported dataclass, and every
    public function, property and cached property in the own namespace of
    an exported class."""
    for name in pathreach.__all__:
        cls = getattr(pathreach, name)
        if inspect.isclass(cls):
            if dataclasses.is_dataclass(cls):
                yield from ((name, field.name) for field in dataclasses.fields(cls))
            for member, obj in vars(cls).items():
                if not member.startswith("_") and (inspect.isfunction(obj) or isinstance(
                        obj, (property, functools.cached_property))):
                    yield name, member


@pytest.mark.parametrize("name", pathreach.__all__)
def test_exported_name_is_documented(name):
    assert re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", README.read_text()), (
        f"{name} is exported but README.md does not mention it")


@pytest.mark.parametrize("cls, member", list(_class_members()))
def test_class_member_is_documented(cls, member):
    # The span is the member itself, maybe qualified by its class or called.
    pattern = re.compile(rf"(?:{cls}\.)?{member}(?:\(.*\))?")
    assert any(map(pattern.fullmatch, _readme_spans())), (
        f"{cls}.{member} is public but no README code span names it")


def test_readme_names_no_private_symbol():
    # A name segment with one leading underscore, such as the _b of a._b,
    # is private; dunders like __init__ are not caught.
    private = [span for span in _readme_spans() if re.search(r"(?<!\w)_(?!_)\w", span)]
    assert not private, f"README code spans name private symbols: {private}"


@pytest.mark.parametrize("cls, member", RETIRED_MEMBERS)
def test_retired_member_is_gone(cls, member):
    assert not hasattr(getattr(pathreach, cls), member)


def test_all_lists_every_export():
    public = {name for name, obj in vars(pathreach).items()
              if not name.startswith("_") and not isinstance(obj, type(pathreach))}
    assert public == set(pathreach.__all__)


def test_readme_library_overview_runs():
    block = re.search(r"## Library overview\n\n```python\n(.*?)```", README.read_text(), re.S)[1]
    expected = re.search(r"^# (ReachResult\(.*\))$", block, re.M)[1]
    namespace = {}
    exec(block, namespace)
    assert repr(namespace["res"]) == expected


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_gone(name):
    for module in (pathreach, reach, dagcover, graph):
        assert not hasattr(module, name), f"{module.__name__}.{name} exists"

