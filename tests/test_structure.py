"""The module layout of `ifsdyn`: what one module may take from another."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ifsdyn"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_private_names_of_another(path):
    """A name with a leading underscore stays in its module, so a catalog
    such as the map forms of `core._compile_map` is written in one place."""
    private = [f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ifsdyn"))
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names {private}"
