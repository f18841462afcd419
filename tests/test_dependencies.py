"""numpy is the only runtime dependency: of the package metadata and of every import."""

import ast
import re
import sys
from pathlib import Path

import pytest

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


def test_declared_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
