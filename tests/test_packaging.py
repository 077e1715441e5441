import ast
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_declared_dependencies_are_the_imported_ones():
    import tomllib

    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        declared = {
            re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
            for requirement in tomllib.load(fh)["project"]["dependencies"]
        }
    imported = set()
    for path in (REPO_ROOT / "src" / "timefair").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__"}
    assert declared == third_party
