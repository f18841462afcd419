"""numpy is the only runtime dependency: of the package metadata and of every
import.  Every name a package module imports is used there."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest
from test_tracer_sites import UNCALLED_SITES

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "msfacedet").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_stdlib_or_numpy(path):
    # ast.walk reaches imports inside functions too; relative imports (level > 0) stay in the package
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots - sys.stdlib_module_names - {"numpy"} == set()


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py re-exports what it imports, and the tracer sites in
    # UNCALLED_SITES are imported only so that the benchmark can wrap them
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    tracer_sites = {attr for module, attr in UNCALLED_SITES if module == f"msfacedet.{path.stem}"}
    assert imported - used - tracer_sites == set()


def test_declared_runtime_dependencies_are_numpy_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
