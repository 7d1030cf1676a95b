"""The package stays standard-library only, and importing it stays cheap."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kleinfour"
MODULES = sorted(SRC.glob("*.py"))


def absolute_imports(path):
    """Top-level module names of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"__init__.py", "census.py", "field.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = set(absolute_imports(path)) - sys.stdlib_module_names
    assert not outside, f"{path.name} imports {sorted(outside)}"


# Modules that cost milliseconds to import (dataclasses pulls in inspect,
# ast, dis and tokenize) and that the package does without.
HEAVY = {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_neither_dataclasses_nor_typing(path):
    heavy = set(absolute_imports(path)) & {"dataclasses", "typing"}
    assert not heavy, f"{path.name} imports {sorted(heavy)}"


def test_a_bare_import_loads_no_heavy_module():
    # -S leaves out the site hooks, which may import typing themselves
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, kleinfour; "
            f"print(sorted(sys.modules.keys() & {sorted(HEAVY)!r}))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
