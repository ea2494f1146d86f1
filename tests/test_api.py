"""The public API is what README documents, and the oracles stay independent.

Every name `pathreach` exports must appear in README.md, and README's
library example must run as shown; the names of the retired test-only API
must not come back; and `pathreach.testkit`, which supplies the oracles the
engine is checked against, must not import the engine (`reach`) or the
cover (`dagcover`).
"""

import ast
import re
from pathlib import Path

import pytest

import pathreach
from pathreach import dagcover, graph, reach, testkit

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


@pytest.mark.parametrize("name", pathreach.__all__)
def test_exported_name_is_documented(name):
    assert re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", README.read_text()), (
        f"{name} is exported but README.md does not mention it")


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


def test_testkit_imports_neither_engine_nor_cover():
    imported = set()
    for node in ast.walk(ast.parse(Path(testkit.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert not imported & {"reach", "dagcover"}
