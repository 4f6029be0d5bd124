"""Each command loads only its own layer, and ``import modulikit`` loads none.

Every check runs in a fresh interpreter, because this test process has
long since imported every module.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from util import run_fresh

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def _loaded_after(code: str):
    """Run ``code`` in a fresh interpreter; it prints one JSON value last."""
    run = run_fresh(code)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


# evaluated in the fresh interpreter: the loaded modules these tests look at
LOADED = "sorted(m for m in sys.modules if m.startswith('modulikit.') or m == 'numpy')"


def test_bare_import_loads_no_submodule_and_no_numpy():
    assert _loaded_after(f"import json, sys, modulikit\nprint(json.dumps({LOADED}))") == []


def _argv(command: str, *inputs: str) -> list[str]:
    return [command, *(arg for name in inputs for arg in ("--input", str(INPUTS / name)))]


FAMILIES = {
    "connection": (
        [
            _argv("decompose", "weights_rank1.json"),
            _argv("validate", "connection_pass.json"),
            _argv("pure", "frame_pure.json"),
            _argv("involute", "connection_pass.json"),
            _argv("hermitian", "connection_hermitian.json"),
            _argv("gauge", "connection_pass.json", "gauge_matrix.json"),
        ],
        {"connection", "weights"},
        {"quiver", "jordan", "selftest"},
    ),
    "quiver": (
        [
            _argv("invariants", "rep_chain.json"),
            _argv("equiv", "rep_chain.json", "rep_chain_other.json"),
            _argv("moment", "rep_chain.json"),
        ],
        {"quiver"},
        {"jordan", "selftest"},
    ),
    "jordan": (
        [_argv("jordan-spectral", "matrix_spectral.json")],
        {"jordan"},
        {"quiver", "selftest"},
    ),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_each_command_loads_only_its_layer(family):
    argvs, needed, absent = FAMILIES[family]
    code = (
        "import contextlib, io, json, sys\n"
        "from modulikit import cli\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        f"print(json.dumps({{'codes': codes, 'modules': {LOADED}}}))\n"
    )
    seen = _loaded_after(code)
    assert set(seen["codes"]) <= {0, 1}
    loaded = {m.removeprefix("modulikit.") for m in seen["modules"]}
    assert needed <= loaded and not absent & loaded
