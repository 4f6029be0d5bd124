"""Golden command-line reports: stdout bytes and exit code on fixed inputs.

Every command runs in-process on the small JSON files under
``tests/golden/inputs``; verdict commands run once per verdict.  The
expected stdout of case ``<name>`` is ``tests/golden/<name>.out`` and the
expected exit codes are in ``tests/golden/exit_codes.json``.  These files
change only together with a stated behaviour change; regenerate them with
``PYTHONPATH=src python tests/test_cli_golden.py``.

The same cases, fed damaged copies of their inputs, gate the exit-code
contract: every run ends in 0, 1 or 2 and never in an uncaught exception.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib

import pytest

from modulikit import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

# (case name, argv); every value after --input names a file in INPUTS
CASES = (
    ("decompose-rank1", ["decompose", "--input", "weights_rank1.json"]),
    ("decompose-rank2", ["decompose", "--input", "weights_rank2.json"]),
    ("validate-pass", ["validate", "--input", "connection_pass.json"]),
    ("validate-fail", ["validate", "--input", "connection_fail.json"]),
    ("validate-seed5-tol", ["validate", "--input", "connection_pass.json", "--seed", "5", "--tol", "1e-8"]),
    ("validate-big-weights", ["validate", "--input", "connection_big_weights.json"]),
    ("validate-rank2-pass", ["validate", "--input", "connection_rank2.json"]),
    ("validate-rank2-fail", ["validate", "--input", "connection_rank2_swapped.json"]),
    ("pure-pure", ["pure", "--input", "frame_pure.json"]),
    ("pure-impure", ["pure", "--input", "frame_impure.json"]),
    ("involute", ["involute", "--input", "connection_pass.json"]),
    ("hermitian-true", ["hermitian", "--input", "connection_hermitian.json"]),
    ("hermitian-false", ["hermitian", "--input", "connection_pass.json"]),
    ("gauge", ["gauge", "--input", "connection_pass.json", "--input", "gauge_matrix.json"]),
    ("invariants-default", ["invariants", "--input", "rep_chain.json"]),
    ("invariants-max-len-4", ["invariants", "--input", "rep_chain.json", "--max-len", "4"]),
    ("equiv-distinct", ["equiv", "--input", "rep_chain.json", "--input", "rep_chain_other.json"]),
    (
        "equiv-indistinguishable",
        ["equiv", "--input", "rep_scalar_23.json", "--input", "rep_scalar_32.json", "--max-len", "8"],
    ),
    ("moment-paper", ["moment", "--input", "rep_chain.json"]),
    ("moment-standard", ["moment", "--input", "rep_chain.json", "--convention", "standard"]),
    ("jordan-spectral", ["jordan-spectral", "--input", "matrix_spectral.json"]),
    ("selftest-seed-42", ["selftest", "--seed", "42"]),
    ("gauge-one-input", ["gauge", "--input", "connection_pass.json"]),
    (
        "decompose-two-inputs",
        ["decompose", "--input", "weights_rank1.json", "--input", "weights_rank2.json"],
    ),
)


def _argv(args: list[str]) -> list[str]:
    out = []
    for k, arg in enumerate(args):
        out.append(str(INPUTS / arg) if k and args[k - 1] == "--input" else arg)
    return out


def _run(args: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(_argv(args))
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name, args", CASES, ids=[name for name, _ in CASES])
def test_golden_report(name, args, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    code, stdout = _run(args)
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert code == exit_codes[name]


# values that replace each field in turn; DROP removes the field instead
HOSTILE = (None, True, "x", [], {}, 2**1100)
DROP = object()


def _fields(doc, path=()):
    """Paths to every object field and to the first item of every array."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc[:1]))
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _scaled(doc, s):
    """Every matrix entry multiplied by s."""
    if isinstance(doc, dict):
        return {
            k: [[s * x for x in pair] for pair in v] if k == "entries" else _scaled(v, s)
            for k, v in doc.items()
        }
    return [_scaled(v, s) for v in doc] if isinstance(doc, list) else doc


def _damaged(doc):
    yield "entries * 1e200", _scaled(doc, 1e200)
    for path in _fields(doc):
        for value in HOSTILE + (DROP,):
            label = "drop" if value is DROP else repr(value)[:12]
            yield f"{'/'.join(map(str, path))} = {label}", _replaced(doc, path, value)


INPUT_CASES = [(name, args) for name, args in CASES if "--input" in args]


@pytest.mark.parametrize("name, args", INPUT_CASES, ids=[name for name, _ in INPUT_CASES])
def test_damaged_inputs_keep_the_exit_code_contract(name, args, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    argv = _argv(args)
    for k in (k for k, arg in enumerate(args) if k and args[k - 1] == "--input"):
        doc = json.loads((INPUTS / args[k]).read_text(encoding="utf-8"))
        for n, (what, variant) in enumerate(_damaged(doc)):
            path = tmp_path / f"{k}-{n}.json"
            path.write_text(json.dumps(variant), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv[:k] + [str(path)] + argv[k + 1 :])
                except Exception as exc:
                    pytest.fail(f"{args[k]}: {what} raises {exc!r}")
            assert code in (0, 1, 2), f"{args[k]}: {what} exits {code}"


VALIDATE_CASES = [(name, args) for name, args in CASES if args[0] == "validate"]


@pytest.mark.parametrize("seed", ["0", "7"])
@pytest.mark.parametrize("tol", ["1e-300", "1e300"])
@pytest.mark.parametrize("name, args", VALIDATE_CASES, ids=[name for name, _ in VALIDATE_CASES])
def test_tol_and_seed_never_change_validate(name, args, tol, seed, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    code, stdout = _run(args + ["--tol", tol, "--seed", seed])
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert code == exit_codes[name]


@pytest.mark.parametrize("s", [2.0**-560, 2.0**530], ids=["2^-560", "2^530"])
@pytest.mark.parametrize("name, args", VALIDATE_CASES, ids=[name for name, _ in VALIDATE_CASES])
def test_validate_verdict_holds_at_the_ends_of_the_double_range(name, args, s, tmp_path, monkeypatch):
    # s is a power of two, so the scaled entries are exact and the weights are untouched
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    k = args.index("--input") + 1
    path = tmp_path / args[k]
    path.write_text(json.dumps(_scaled(json.loads((INPUTS / args[k]).read_text(encoding="utf-8")), s)))
    code, stdout = _run(args[:k] + [str(path)] + args[k + 1 :])
    want = json.loads((GOLDEN / f"{name}.out").read_bytes())
    assert (code, json.loads(stdout)["result"]) == (exit_codes[name], want["result"])


if __name__ == "__main__":
    import os

    os.environ.pop(cli.SEED_ENV_VAR, None)
    codes = {}
    for name, args in CASES:
        codes[name], stdout = _run(args)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")
