"""numpy is the only runtime dependency, in the package metadata and at run time."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from util import run_fresh

ROOT = Path(__file__).resolve().parents[1]


def test_import_and_invert_load_numpy_only():
    # modules that site start-up loads are set aside; stdlib ones never count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import numpy, modulikit, modulikit.cli\n"
        "modulikit.linalg.invert(numpy.eye(2))\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - sys.stdlib_module_names))\n"
    )
    run = run_fresh(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "['modulikit', 'numpy']\n"


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
