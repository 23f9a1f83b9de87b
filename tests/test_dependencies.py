"""The package declares exactly the third-party modules it imports, so
that ``pip install -e .`` on a fresh interpreter can import all of it
and installs nothing it never uses."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_levels(package: Path):
    """Top-level module names of every import statement under ``package``."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_dependencies(pyproject: Path):
    """Distribution names in ``[project].dependencies``, normalized to
    import form."""
    text = pyproject.read_text(encoding="utf-8")
    match = re.search(r"^dependencies\s*=\s*(\[[^\]]*\])", text, re.M)
    assert match, "pyproject.toml declares no [project].dependencies"
    return {
        re.split(r"[\s<>=!~;\[]", requirement, 1)[0].lower().replace("-", "_")
        for requirement in ast.literal_eval(match.group(1))
    }


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="needs sys.stdlib_module_names"
)
def test_every_third_party_import_is_declared():
    imported = _imported_top_levels(ROOT / "src" / "repro")
    assert {"json", "repro"} <= imported, "the scan missed known imports"
    third_party = {
        name
        for name in imported
        if name not in sys.stdlib_module_names and name != "repro"
    }
    undeclared = third_party - _declared_dependencies(ROOT / "pyproject.toml")
    assert not undeclared, f"imported but not declared: {sorted(undeclared)}"


def test_every_declared_dependency_is_imported():
    declared = _declared_dependencies(ROOT / "pyproject.toml")
    unused = declared - _imported_top_levels(ROOT / "src" / "repro")
    assert not unused, f"declared but never imported: {sorted(unused)}"


def test_cli_and_engine_import_without_numpy():
    # A fresh interpreter, so modules other tests imported cannot mask
    # an import the package, the CLI or the engine makes.
    probe = (
        "import repro; import repro.cli; from repro.runtime import run_study; "
        "import sys; assert 'numpy' not in sys.modules; "
        "assert 'networkx' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
