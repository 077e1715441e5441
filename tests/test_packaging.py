import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run_python(args, pythonpath, cwd):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(pythonpath)},
        timeout=120,
    )


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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_demo_is_one_file_shipped_with_the_package():
    import tomllib

    link = REPO_ROOT / "configs" / "demo.json"
    assert link.is_symlink() and not os.path.isabs(os.readlink(link))
    assert link.resolve() == (SRC / "timefair" / "demo.json").resolve()
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert package_data == {"timefair": ["demo.json"]}


def test_simulate_runs_from_an_installed_copy_of_the_package(tmp_path):
    # only the package directory, as a non-editable install lays it out
    site = tmp_path / "lib" / "python3" / "site-packages"
    shutil.copytree(SRC / "timefair", site / "timefair", ignore=shutil.ignore_patterns("__pycache__"))
    where = run_python(["-c", "import timefair; print(timefair.__file__)"], site, tmp_path)
    assert Path(where.stdout.strip()).parent == site / "timefair"
    installed = run_python(["-m", "timefair.cli", "simulate"], site, tmp_path)
    assert installed.returncode == 0, installed.stderr
    checkout = run_python(["-m", "timefair.cli", "simulate"], SRC, REPO_ROOT)
    assert checkout.returncode == 0, checkout.stderr
    assert installed.stdout == checkout.stdout


def test_importing_the_cli_does_not_load_multiprocessing(tmp_path):
    # the process pool is imported only by a parallel run
    code = "import sys, timefair.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    proc = run_python(["-c", code], SRC, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_analyze_does_not_import_numpy_ma(tmp_path):
    # np.median's NaN check imports numpy.ma, a cost of its own in every
    # analyze; the medians are read from sorted columns instead (a fresh
    # interpreter, because the test process imports numpy.ma through the oracles)
    out = tmp_path / "demo-out"
    demo = REPO_ROOT / "configs" / "demo.json"
    ran = run_python(["-m", "timefair.cli", "run", "--config", str(demo), "--out", str(out)], SRC, tmp_path)
    assert ran.returncode == 0, ran.stderr
    code = "import sys; from timefair.cli import main; print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    analyzed = run_python(["-c", code, "analyze", str(out)], SRC, tmp_path)
    assert analyzed.returncode == 0, analyzed.stderr
    assert analyzed.stdout.splitlines()[-1] == "0 False"
