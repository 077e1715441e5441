"""The README's library example runs, and the package exports what it imports."""

import ast
import re
import types
from pathlib import Path

import timefair

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    assert namespace["records"] and namespace["result"].target == 20.0


def test_package_exports_exactly_the_readme_imports():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "timefair"
        for alias in node.names
    }
    public = {
        name
        for name, value in vars(timefair).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(imported) == 9
    assert public == imported
    assert isinstance(timefair.__version__, str)
