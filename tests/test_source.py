"""Invariants of the package source, read from its syntax tree."""

import ast
from pathlib import Path

import cayleyunits

SRC = Path(cayleyunits.__file__).parent


def test_no_module_has_an_assert_statement():
    # Guarantees must survive python -O, which strips assert statements.
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_cli_imports_only_run_suite_from_verify():
    # The CLI must not take production logic from the self-check module.
    cli = ast.parse((SRC / "cli.py").read_text())
    from_verify = [alias.name for node in ast.walk(cli)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
                   if "verify" in f"{getattr(node, 'module', None)}.{alias.name}"]
    assert from_verify == ["run_suite"]
