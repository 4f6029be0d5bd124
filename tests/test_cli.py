"""Exit-code contract, report shape, and determinism of the command line."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modulikit.connection
from modulikit import cli, connection, jordan, jsonio, linalg, quiver, weights
from util import run_fresh


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(jsonio.dumps(obj), encoding="utf-8")
    return str(p)


def _decomp(vals):
    return weights.decompose(weights.WeightData.of(vals))


def _connection_json(vals, a, b):
    c = connection.ConnectionData(decomposition=_decomp(vals), a_list=(a,), b_list=(b,))
    return jsonio.connection_to_json(c)


def _scalar_rep_json(a_val, b_val):
    dq = quiver.double(quiver.weight_quiver(_decomp([0, 1])))
    rep = quiver.DoubleQuiverRep(quiver=dq, matrices={"A1": [[a_val]], "B1": [[b_val]]})
    return jsonio.rep_to_json(rep)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


# --- decompose ----------------------------------------------------------------


def test_decompose_reports_blocks_and_chains(tmp_path, capsys):
    path = _write(tmp_path, "w.json", {"rank": 1, "weights": [0, 0, 1, 3]})
    code, report, _ = _run(capsys, ["decompose", "--input", path])
    assert code == 0
    assert report["command"] == "decompose"
    assert report["result"]["blocks"] == [
        {"weight": [0], "indices": [0, 1]},
        {"weight": [1], "indices": [2]},
        {"weight": [3], "indices": [3]},
    ]
    assert [c["dims"] for c in report["result"]["chains"]] == [[2, 1], [1]]


def test_decompose_rank2_reports_weight_quiver_components(tmp_path, capsys):
    ws = [[0, 0], [1, 0], [0, 1], [3, 3], [1, 1], [5, 0]]
    path = _write(tmp_path, "w.json", {"rank": 2, "weights": ws})
    code, report, _ = _run(capsys, ["decompose", "--input", path])
    assert code == 0
    assert report["result"]["chains"] == [
        {"base_weight": [0, 0], "dims": [1, 1, 1, 1], "indices": [[0], [2], [1], [4]]},
        {"base_weight": [3, 3], "dims": [1], "indices": [[3]]},
        {"base_weight": [5, 0], "dims": [1], "indices": [[5]]},
    ]


# --- validate -----------------------------------------------------------------


def test_validate_pass_and_fail(tmp_path, capsys):
    n = 2
    a = np.zeros((n, n), dtype=complex)
    a[1, 0] = 2.0
    good = _write(tmp_path, "good.json", _connection_json([0, 1], a, np.zeros((n, n))))
    code, report, _ = _run(capsys, ["validate", "--input", good])
    assert code == 0 and report["result"] == "pass"

    bad_obj = _connection_json([0, 1], a, np.zeros((n, n)))
    bad_obj["A"]["entries"][1] = [1.0, 0.0]  # row 0, col 1: a lowering entry in A
    bad = _write(tmp_path, "bad.json", bad_obj)
    code, report, _ = _run(capsys, ["validate", "--input", bad])
    assert code == 1 and report["result"] == "fail"
    assert report["violations"]


# --- pure ----------------------------------------------------------------------


def test_pure_exit_codes(tmp_path, capsys):
    commuting = {
        "rank": 2,
        "A_list": [
            jsonio.matrix_to_json(np.diag([1.0, 2.0])),
            jsonio.matrix_to_json(np.diag([3.0, 4.0])),
        ],
    }
    path = _write(tmp_path, "t.json", commuting)
    code, report, _ = _run(capsys, ["pure", "--input", path])
    assert code == 0 and report["result"] is True and report["witness"] is None

    m1, m2 = np.zeros((2, 2)), np.zeros((2, 2))
    m1[0, 1] = 1.0
    m2[1, 0] = 1.0
    impure = {
        "rank": 2,
        "A_list": [jsonio.matrix_to_json(m1), jsonio.matrix_to_json(m2)],
    }
    path = _write(tmp_path, "t2.json", impure)
    code, report, _ = _run(capsys, ["pure", "--input", path])
    assert code == 1 and report["result"] is False
    assert report["witness"]["side"] == "A"
    assert (report["witness"]["i"], report["witness"]["j"]) == (1, 2)


def test_pure_verdict_holds_at_small_scale(tmp_path, capsys):
    # the impure pair of test_pure_exit_codes times 1e-7: the commutator is
    # 1e-14, but relative to the operand norms it is as large as at scale 1
    m1, m2 = np.zeros((2, 2)), np.zeros((2, 2))
    m1[0, 1] = m2[1, 0] = 1e-7
    impure = {"rank": 2, "A_list": [jsonio.matrix_to_json(m1), jsonio.matrix_to_json(m2)]}
    path = _write(tmp_path, "t.json", impure)
    code, report, _ = _run(capsys, ["pure", "--input", path])
    assert code == 1 and report["result"] is False
    assert (report["witness"]["i"], report["witness"]["j"]) == (1, 2)


# --- involute / hermitian ---------------------------------------------------------


def test_involute_round_trip(tmp_path, capsys):
    a = np.zeros((2, 2), dtype=complex)
    a[1, 0] = 1.0
    path = _write(tmp_path, "c.json", _connection_json([0, 1], a, np.zeros((2, 2))))
    code, report, _ = _run(capsys, ["involute", "--input", path])
    assert code == 0
    out = jsonio.connection_from_json(report["result"])
    assert np.array_equal(out.a_list[0], np.zeros((2, 2)))
    assert np.array_equal(out.b_list[0], -a.conj().T)


def test_involute_rank2_round_trip(tmp_path, capsys):
    golden = Path(__file__).parent / "golden" / "inputs" / "connection_rank2.json"
    data = json.loads(golden.read_text(encoding="utf-8"))
    once = _write(tmp_path, "once.json", data)
    code, report, _ = _run(capsys, ["involute", "--input", once])
    assert code == 0 and report["result"] != data
    twice = _write(tmp_path, "twice.json", report["result"])
    code, report, _ = _run(capsys, ["involute", "--input", twice])
    assert code == 0 and report["result"] == data


def test_hermitian_verdicts(tmp_path, capsys):
    a = np.zeros((2, 2), dtype=complex)
    a[1, 0] = 1.0 + 2.0j
    fixed = _write(tmp_path, "h.json", _connection_json([0, 1], a, -a.conj().T))
    code, report, _ = _run(capsys, ["hermitian", "--input", fixed])
    assert code == 0 and report["result"] is True

    moved = _write(tmp_path, "nh.json", _connection_json([0, 1], a, a.conj().T))
    code, report, _ = _run(capsys, ["hermitian", "--input", moved])
    assert code == 1 and report["result"] is False


# --- gauge -----------------------------------------------------------------------


def test_gauge_needs_two_inputs(tmp_path, capsys):
    a = np.zeros((2, 2), dtype=complex)
    a[1, 0] = 2.0
    data = _write(tmp_path, "c.json", _connection_json([0, 1], a, np.zeros((2, 2))))
    gauge = _write(tmp_path, "g.json", jsonio.matrix_to_json(np.diag([4.0, 6.0])))

    code, report, _ = _run(capsys, ["gauge", "--input", data, "--input", gauge])
    assert code == 0
    out = jsonio.connection_from_json(report["result"])
    assert out.a_list[0][1, 0] == pytest.approx(3.0)

    code, _, err = _run(capsys, ["gauge", "--input", data])
    assert code == 2
    assert "error:" in err


def test_gauge_off_block_at_small_scale_exits_2(tmp_path, capsys):
    # every entry of the anti-diagonal J is off-block for weights [0, 0, 1, 1],
    # so h = s (I + 100 J) is far from the centralizer at every s > 0
    zero = np.zeros((4, 4))
    data = _write(tmp_path, "c.json", _connection_json([0, 0, 1, 1], zero, zero))
    h = 1e-20 * (np.eye(4) + 100 * np.fliplr(np.eye(4)))
    gauge = _write(tmp_path, "g.json", jsonio.matrix_to_json(h))
    code, report, err = _run(capsys, ["gauge", "--input", data, "--input", gauge])
    assert code == 2 and report is None
    assert err == "error: gauge matrix is not block diagonal for the grading\n"


# --- invariants / equiv / moment ----------------------------------------------------


def test_invariants_scalar(tmp_path, capsys):
    path = _write(tmp_path, "r.json", _scalar_rep_json(2.0, 3.0))
    code, report, _ = _run(capsys, ["invariants", "--input", path, "--max-len", "2"])
    assert code == 0
    assert report["result"]["entries"] == {"A1,B1": [6.0, 0.0]}


def test_equiv_distinct_and_indistinguishable(tmp_path, capsys):
    r11 = _write(tmp_path, "r11.json", _scalar_rep_json(1.0, 1.0))
    r21 = _write(tmp_path, "r21.json", _scalar_rep_json(2.0, 1.0))
    code, report, _ = _run(capsys, ["equiv", "--input", r11, "--input", r21])
    assert code == 1
    assert report["result"]["verdict"] == "distinct"
    assert report["result"]["witness"] == "A1,B1"
    assert report["result"]["left_trace"] == [1.0, 0.0]
    assert report["result"]["right_trace"] == [2.0, 0.0]

    r23 = _write(tmp_path, "r23.json", _scalar_rep_json(2.0, 3.0))
    r32 = _write(tmp_path, "r32.json", _scalar_rep_json(3.0, 2.0))
    code, report, _ = _run(
        capsys, ["equiv", "--input", r23, "--input", r32, "--max-len", "8"]
    )
    assert code == 0
    assert report["result"]["verdict"] == "indistinguishable"
    assert "witness" not in report["result"]


def test_moment_conventions(tmp_path, capsys):
    path = _write(tmp_path, "r.json", _scalar_rep_json(1.0, 1.0))
    code, report, _ = _run(capsys, ["moment", "--input", path])
    assert code == 0
    assert report["result"]["convention"] == "paper"
    assert report["result"]["max_entry"] <= 1e-14

    code, report, _ = _run(capsys, ["moment", "--input", path, "--convention", "standard"])
    assert code == 0
    vertices = [jsonio.matrix_from_json(m) for m in report["result"]["vertices"]]
    assert vertices[0][0, 0] == pytest.approx(-1.0)
    assert vertices[1][0, 0] == pytest.approx(1.0)


# --- jordan-spectral -----------------------------------------------------------------


def test_jordan_spectral_ascending(tmp_path, capsys):
    path = _write(tmp_path, "z.json", jsonio.matrix_to_json(np.diag([3.0, 1.0])))
    code, report, _ = _run(capsys, ["jordan-spectral", "--input", path])
    assert code == 0
    assert report["result"]["t"] == pytest.approx([1.0, 3.0])
    u = jsonio.matrix_from_json(report["result"]["u"])
    v = jsonio.matrix_from_json(report["result"]["v"])
    t = np.array(report["result"]["t"])
    assert np.allclose(u @ np.diag(t) @ v.conj().T, np.diag([3.0, 1.0]), atol=1e-12)


# --- selftest --------------------------------------------------------------------------


def test_selftest_runs_and_is_deterministic(capsys):
    code1, report1, _ = _run(capsys, ["selftest", "--seed", "7"])
    assert code1 == 0
    assert report1["result"] == "pass"
    assert report1["violations"] == []
    assert len(report1["properties"]) == 25

    code2, report2, _ = _run(capsys, ["selftest", "--seed", "7"])
    assert report1 == report2


def test_selftest_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    _, via_env, _ = _run(capsys, ["selftest"])
    _, via_flag, _ = _run(capsys, ["selftest", "--seed", "7"])
    assert via_env == via_flag

    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    code, _, err = _run(capsys, ["selftest"])
    assert code == 2 and "error:" in err


def test_negative_seed_in_the_environment_exits_2(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "-4")
    code, report, err = _run(capsys, ["selftest"])
    assert code == 2 and report is None
    assert err == f"error: {cli.SEED_ENV_VAR} must be >= 0, got -4\n"


def test_selftest_detects_broken_involution(capsys, monkeypatch):
    # mutate a checked operation; the property suite must notice and exit 1
    original = modulikit.connection.involution

    def broken(c):
        out = original(c)
        return modulikit.connection.ConnectionData(
            decomposition=out.decomposition, a_list=(2.0 * out.a_list[0],), b_list=out.b_list
        )

    monkeypatch.setattr(modulikit.connection, "involution", broken)
    code, report, _ = _run(capsys, ["selftest", "--seed", "7"])
    assert code == 1
    assert report["result"] == "fail"
    assert "connection.involution_order_2" in report["violations"]


def _rows(report):
    return {row["name"]: row for row in report["properties"]}


def test_selftest_kernel_that_raises_fails_only_its_own_rows(capsys, monkeypatch):
    # a NaN from sharp makes gauge reject its input: each row that meets the
    # ValueError fails with a null worst, and the suite still runs to the end
    monkeypatch.setattr(linalg, "sharp", lambda h: np.full(np.shape(h), np.nan, dtype=complex))
    code, report, err = _run(capsys, ["selftest", "--seed", "7"])
    broken = ["linalg.sharp_involution", "linalg.sharp_multiplicative", "connection.involution_gauge_compat"]
    assert code == 1 and err == ""
    assert report["violations"] == broken
    rows = _rows(report)
    assert len(rows) == 25
    for name in broken:
        assert rows[name]["worst"] is None and not rows[name]["ok"]
        assert rows[name]["samples"] == 200 and rows[name]["tol"] == 1e-10


def test_selftest_memory_error_still_exits_2(capsys, monkeypatch):
    def exhausted(h):
        raise MemoryError("out of memory")

    monkeypatch.setattr(linalg, "sharp", exhausted)
    code, report, err = _run(capsys, ["selftest", "--seed", "7"])
    assert code == 2 and report is None and err == "error: out of memory\n"


def test_selftest_nan_measure_fails_its_row(capsys, monkeypatch):
    # max(0.0, nan) is 0.0: a NaN measure must not vanish into a passing row
    monkeypatch.setattr(
        jordan, "triple_product", lambda x, y, z: np.full(np.shape(x), np.nan, dtype=complex)
    )
    code, report, _ = _run(capsys, ["selftest", "--seed", "7"])
    assert code == 1
    rows = _rows(report)
    for name in ["jordan.triple_identity", "jordan.quadratic_fields_commute"]:
        assert rows[name]["ok"] is False and rows[name]["worst"] is None
        assert name in report["violations"]


# --- error handling ---------------------------------------------------------------------


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    code, _, err = _run(capsys, ["validate", "--input", str(p)])
    assert code == 2 and "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["validate", "--input", "/nonexistent/x.json"])
    assert code == 2 and "error:" in err


def test_wrong_payload_shape_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "w.json", {"rank": 1, "weights": [0, 1]})
    code, _, err = _run(capsys, ["validate", "--input", path])
    assert code == 2 and "error:" in err


def test_usage_error_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose"])  # missing required --input
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, names",
    [
        (["validate"], "error: modulikit validate: the following arguments are required: --input"),
        (["validate", "--input", "c.json", "--tol", "abc"], "error: modulikit validate: argument --tol"),
        (["frobnicate"], "error: modulikit: argument command: invalid choice: 'frobnicate'"),
        (
            ["decompose", "--input", "w.json", "--bogus"],
            "error: modulikit decompose: unrecognized arguments: --bogus",
        ),
        (
            ["moment", "--input", "r.json", "--convention", "bogus"],
            "error: modulikit moment: argument --convention: invalid choice: 'bogus' "
            "(choose from 'paper', 'standard')\n",
        ),
    ],
    ids=["missing-input", "tol-abc", "unknown-command", "unknown-flag", "convention-bogus"],
)
def test_usage_errors_are_one_line_exit_2(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(names) and captured.err.count("\n") == 1


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "-h"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: modulikit validate")


def test_reports_always_carry_contract_keys(tmp_path, capsys):
    path = _write(tmp_path, "w.json", {"rank": 1, "weights": [0, 1]})
    _, report, _ = _run(capsys, ["decompose", "--input", path])
    assert {"command", "result", "violations", "tolerances_used"} <= set(report)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("validate", "--tol", "nan"),
        ("validate", "--tol", "inf"),
        ("validate", "--tol", "-1"),
        ("validate", "--tol", "0"),
        ("invariants", "--max-len", "-3"),
        ("invariants", "--max-len", "0"),
        ("validate", "--seed", "-5"),
        ("selftest", "--seed", "-1"),
    ],
)
def test_out_of_range_arguments_exit_2(tmp_path, capsys, command, flag, value):
    a = np.zeros((2, 2), dtype=complex)
    a[1, 0] = 1.0
    inputs = {
        "validate": _connection_json([0, 1], a, np.zeros((2, 2))),
        "invariants": _scalar_rep_json(2.0, 3.0),
    }
    argv = [command, flag, value]
    if command in inputs:
        argv += ["--input", _write(tmp_path, "in.json", inputs[command])]
    code, report, err = _run(capsys, argv)
    assert code == 2 and report is None
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("decompose", {"rank": 1, "weights": [0, 1.7]}),
        ("jordan-spectral", {"rows": None, "cols": 1, "entries": []}),
    ],
)
def test_non_integer_counts_and_weights_exit_2(tmp_path, capsys, command, payload):
    path = _write(tmp_path, "in.json", payload)
    code, report, err = _run(capsys, [command, "--input", path])
    assert code == 2 and report is None
    assert err.startswith("error:") and "must be an integer" in err


_ONE = {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}
_ZERO2 = {"rows": 2, "cols": 2, "entries": [[0.0, 0.0]] * 4}
_SCALAR_1E200 = _scalar_rep_json(1e200, 1e200)


_BOOL_STRING = {"rows": 2, "cols": 2, "entries": [[True, "1.5"]] + [[0.0, 0.0]] * 3}
_PASS = json.loads((Path(__file__).parent / "golden" / "inputs" / "connection_pass.json").read_text())


def _with(obj, keys, value):
    """Deep copy of ``obj`` with ``value`` at the path ``keys``."""
    out = json.loads(json.dumps(obj))
    target = out
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return out


def _labelled_scalar_rep(first, second):
    obj = _scalar_rep_json(2.0, 3.0)
    obj["arrows"][0]["label"], obj["arrows"][1]["label"] = first, second
    obj["matrices"] = {str(first): obj["matrices"]["A1"], str(second): obj["matrices"]["B1"]}
    return obj


# "X,X" and ("X", "X") would both be written as the report key "X,X"
_COMMA_LABELS = {
    "vertices": [1],
    "arrows": [{"tail": 0, "head": 0, "label": x} for x in ("X", "X_op", "X,X", "X,X_op")],
    "matrices": {x: _ONE for x in ("X", "X_op", "X,X", "X,X_op")},
}


@pytest.mark.parametrize(
    "command, payload, names",
    [
        ("pure", {"rank": 1, "A_list": 5}, "A_list"),
        ("pure", {"rank": 1, "A_list": [_ONE], "B_list": 5}, "B_list"),
        ("invariants", {"vertices": [1, 1], "arrows": 5, "matrices": {}}, "arrows"),
        ("validate", "[" * 100_000, "nested too deeply"),
        ("decompose", {"rank": 1, "weights": [0, 2**70]}, "weights[1]"),
        ("decompose", {"rank": 2, "weights": [[1, 2], [3]]}, "weights[1] has length 1, expected rank 2"),
        ("decompose", {"rank": 2, "weights": [1, 2]}, "weights[0] has length 1, expected rank 2"),
        ("validate", {"weights": {"rank": 1, "weights": [0, 2**62]}, "A": _ZERO2, "B": _ZERO2}, "weights[1]"),
        ("validate", {"weights": {"rank": 1, "weights": [0, [1, 2]]}, "A": _ZERO2, "B": _ZERO2},
         "error: weights.weights[1] has length 2, expected rank 1\n"),
        ("validate", {"weights": {"rank": 1, "weights": [0, 2**62]}, "A": _ZERO2, "B": _ZERO2},
         "error: weights.weights[1] = (4611686018427387904,) is out of range"),
        ("decompose", {"rank": 1, "weights": [0, [1, 2]]}, "error: weights[1] has length 2, expected rank 1\n"),
        ("validate", _with(_PASS, ["weights", "rank"], 0), "error: weights.rank must be positive, got 0\n"),
        ("jordan-spectral", {"rows": 1, "cols": 1, "entries": [[None, 0]]}, "entries[0][0]"),
        ("jordan-spectral", {"rows": 1, "cols": 1, "entries": [[[], 0]]}, "entries[0][0]"),
        ("jordan-spectral", {"rows": 1, "cols": 1, "entries": [[{}, 0]]}, "entries[0][0]"),
        ("jordan-spectral", {"rows": 1, "cols": 1, "entries": [[2**1100, 0]]}, "entries[0][0]"),
        ("validate", {"weights": {"rank": 1, "weights": [0, 1]}, "A": _BOOL_STRING, "B": _ZERO2}, "A.entries[0][0]"),
        ("invariants", _SCALAR_1E200, "not finite"),
        ("moment", _SCALAR_1E200, "not finite"),
        ("invariants", _labelled_scalar_rep(7, "7_op"), "arrows[0].label must be a string, got 7"),
        ("invariants", _labelled_scalar_rep(None, "None_op"), "arrows[0].label must be a string, got None"),
        ("invariants", _labelled_scalar_rep(True, "True_op"), "arrows[0].label must be a string, got True"),
        ("invariants", _labelled_scalar_rep("A1", {}), "arrows[1].label must be a string, got {}"),
        ("invariants", _with(_scalar_rep_json(2.0, 3.0), ["arrows", 1], {"tail": 1, "head": 0}), "arrows[1] needs tail, head, label"),
        ("invariants", _COMMA_LABELS, "error: arrows[2].label must not contain ','\n"),
        ("validate", _with(_PASS, ["B", "entries"], _PASS["B"]["entries"][:-1]), "B.entries: expected 16 entries, got 15"),
        ("validate", _with(_PASS, ["A"], 5), "A must be a JSON object"),
        ("validate", _with(_PASS, ["B"], {"rows": 4, "cols": 4}), "B needs rows, cols, entries"),
        ("validate", _with(_PASS, ["A", "rows"], -4), "A.rows and A.cols must be nonnegative"),
        ("validate", _with(_PASS, ["weights", "weights"], []), "weights.weights must be a nonempty list"),
        ("decompose", {"rank": 1, "weights": []}, "weights must be a nonempty list"),
        ("jordan-spectral", [1, 2], "matrix must be a JSON object"),
        ("validate", {"rank": 1, "A_list": [_ONE]}, "connection data as a frame tuple needs weights"),
    ],
    ids=[
        "A_list", "B_list", "arrows", "deep-nesting", "weight-2**70", "weight-short",
        "weights-scalar", "weight-2**62", "nested-weight-long", "nested-weight-2**62", "decompose-weight-long",
        "nested-rank-0",
        "entry-null", "entry-list", "entry-object", "entry-2**1100", "entry-bool-string",
        "invariants-overflow", "moment-overflow",
        "label-int", "label-null", "label-bool", "label-object", "arrow-no-label",
        "label-comma",
        "B-entry-missing", "A-not-object", "B-no-entries", "A-negative-rows",
        "weights-empty", "decompose-weights-empty", "matrix-not-object",
        "frame-tuple-no-weights",
    ],
)
def test_hostile_payloads_exit_2(tmp_path, capsys, command, payload, names):
    path = tmp_path / "in.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
    code, report, err = _run(capsys, [command, "--input", str(path)])
    assert code == 2 and report is None
    assert err.startswith("error:") and err.count("\n") == 1
    assert names in err and "Traceback" not in err


def test_cycle_search_past_its_budget_exits_2(tmp_path, capsys):
    # about 2**40 / 40 words; the search stops after MAX_CYCLE_WORDS visits
    dq = quiver.double(quiver.Quiver(dims=(1,), arrows=(quiver.Arrow(0, 0, "A1"),)))
    rep = quiver.DoubleQuiverRep(quiver=dq, matrices={"A1": [[1.0]], "B1": [[1.0]]})
    path = _write(tmp_path, "loop.json", jsonio.rep_to_json(rep))
    code, report, err = _run(capsys, ["invariants", "--input", path, "--max-len", "40"])
    assert code == 2 and report is None
    assert err.startswith("error:") and err.count("\n") == 1
    assert "max_len 40" in err and "Traceback" not in err


def _idle_vertex_rep_json():
    # vertex 0 has no arrows; an array of its dimension squared would need
    # 142 PiB, which numpy refuses at once
    dq = quiver.DoubleQuiver(
        dims=(10**8, 1), arrows=(quiver.Arrow(1, 1, "A1"), quiver.Arrow(1, 1, "B1"))
    )
    rep = quiver.DoubleQuiverRep(quiver=dq, matrices={"A1": [[2.0]], "B1": [[3.0]]})
    return jsonio.rep_to_json(rep)


def test_a_vertex_with_no_arrows_costs_nothing(tmp_path, capsys):
    path = _write(tmp_path, "idle.json", _idle_vertex_rep_json())
    code, report, err = _run(capsys, ["invariants", "--input", path, "--max-len", "2"])
    assert code == 0 and err == ""
    assert report["result"]["entries"] == {
        "A1": [2.0, 0.0], "B1": [3.0, 0.0], "A1,A1": [4.0, 0.0], "A1,B1": [6.0, 0.0], "B1,B1": [9.0, 0.0],
    }
    code, report, err = _run(capsys, ["equiv", "--input", path, "--input", path])
    assert code == 0 and err == ""
    assert report["result"] == {"verdict": "indistinguishable", "max_len": 12}


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from Linux procfs")
def test_many_arrowless_vertices_build_no_hop_table(tmp_path):
    # a V x V table of hop distances would hold 16 million floats here;
    # the search keeps, per start, only the vertices within max_len - 1.
    # VmHWM is the fresh interpreter's own peak: ru_maxrss would carry the
    # peak of the test process, which Linux keeps across fork and exec
    path = _write(tmp_path, "idle.json", {"vertices": [1] * 4000, "arrows": [], "matrices": {}})
    run = run_fresh(
        "import sys\n"
        "from modulikit import cli\n"
        f"code = cli.main(['invariants', '--input', {path!r}, '--max-len', '2'])\n"
        "with open('/proc/self/status') as f:\n"
        "    print(*[line for line in f if line.startswith('VmHWM:')], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["result"]["entries"] == {}
    assert int(run.stderr.split()[-2]) < 100 * 1024  # "VmHWM: <n> kB"


def test_running_out_of_memory_exits_2(tmp_path, capsys):
    # the moment map holds one matrix per vertex, so it allocates the 142 PiB
    path = _write(tmp_path, "idle.json", _idle_vertex_rep_json())
    code, report, err = _run(capsys, ["moment", "--input", path])
    assert code == 2 and report is None
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert "allocate" in err


def test_equiv_answers_at_the_shortest_differing_length(tmp_path, capsys):
    # every word shorter than B1,B1 has trace 0 on both sides; the search
    # meets B1,B1 at length 2, far inside the word budget of length 21
    dq = quiver.double(quiver.Quiver(dims=(2,), arrows=(quiver.Arrow(0, 0, "A1"),)))
    paths = []
    for b1 in (np.diag([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]]):
        rep = quiver.DoubleQuiverRep(quiver=dq, matrices={"A1": np.zeros((2, 2)), "B1": b1})
        paths += ["--input", _write(tmp_path, f"loop{len(paths)}.json", jsonio.rep_to_json(rep))]
    code, report, err = _run(capsys, ["equiv", *paths, "--max-len", "21"])
    assert code == 1 and err == ""
    assert report["result"] == {
        "verdict": "distinct",
        "max_len": 21,
        "witness": "B1,B1",
        "left_trace": [2.0, 0.0],
        "right_trace": [0.0, 0.0],
    }


def _loop_rep_json(diag):
    dq = quiver.double(quiver.Quiver(dims=(2,), arrows=(quiver.Arrow(0, 0, "A1"),)))
    rep = quiver.DoubleQuiverRep(quiver=dq, matrices={"A1": np.diag(diag), "B1": np.zeros((2, 2))})
    return jsonio.rep_to_json(rep)


def test_equiv_with_an_overflowing_trace_exits_2(tmp_path, capsys):
    # tr(A1 A1) is inf on the left and 2e200 on the right: their difference
    # relative to inf is nan, so only the finiteness check gives an answer
    left = _write(tmp_path, "l.json", _loop_rep_json([1e200, -1e200]))
    right = _write(tmp_path, "r.json", _loop_rep_json([1e100, -1e100]))
    code, report, err = _run(capsys, ["equiv", "--input", left, "--input", right, "--max-len", "2"])
    assert code == 2 and report is None
    assert err == "error: trace along word A1,A1 is not finite\n"


def test_invariants_of_walks_longer_than_the_recursion_limit(tmp_path, capsys):
    path = _write(tmp_path, "r.json", _scalar_rep_json(1.0, 1.0))
    code, report, _ = _run(capsys, ["invariants", "--input", path, "--max-len", "1200"])
    assert code == 0
    entries = report["result"]["entries"]
    assert len(entries) == 600  # (A1, B1)^k for k = 1..600
    assert all(t == [1.0, 0.0] for t in entries.values())


def test_a_second_call_in_one_process_reports_like_a_fresh_one(tmp_path, capsys):
    # the parser is built once per process, so nothing of one parse may
    # reach the next: not an --input appended, nor a --max-len or --tol
    one = _write(tmp_path, "one.json", _scalar_rep_json(2.0, 3.0))
    two = _write(tmp_path, "two.json", _scalar_rep_json(1.0, 5.0))
    calls = [
        ["equiv", "--input", one, "--input", two, "--max-len", "4", "--tol", "1e-3"],
        ["equiv", "--input", two, "--input", two, "--max-len", "2"],
        ["invariants", "--input", one],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_run(capsys, argv))
    cli.build_parser.cache_clear()
    assert [_run(capsys, argv) for argv in calls + calls] == fresh + fresh
    assert cli.build_parser() is cli.build_parser()
    assert fresh[0][1]["tolerances_used"] == {"tol": 1e-3} and fresh[1][1]["result"]["max_len"] == 2


# --- collector pause and output stream -----------------------------------------------


def _collector_cases(tmp_path):
    """(argv, COMMANDS patch, expected outcome) for every way out of ``main``."""
    a = np.zeros((2, 2), dtype=complex)
    a[1, 0] = 2.0
    good = _write(tmp_path, "good.json", _connection_json([0, 1], a, np.zeros((2, 2))))
    m1, m2 = np.zeros((2, 2)), np.zeros((2, 2))
    m1[0, 1] = m2[1, 0] = 1.0
    mixed = _write(
        tmp_path, "mixed.json", {"rank": 2, "A_list": [jsonio.matrix_to_json(m1), jsonio.matrix_to_json(m2)]}
    )
    malformed = tmp_path / "bad.json"
    malformed.write_text("{not json", encoding="utf-8")

    def boom(args, c):
        raise RuntimeError("unexpected")

    crash = cli.Command("crashes", ("connection",), None, boom)
    return {
        "exit-0": (["validate", "--input", good], None, 0),
        "exit-1": (["pure", "--input", mixed], None, 1),
        "missing-file": (["validate", "--input", str(tmp_path / "absent.json")], None, 2),
        "malformed-json": (["validate", "--input", str(malformed)], None, 2),
        "usage-error": (["validate"], None, SystemExit),
        "unexpected": (["validate", "--input", good], crash, RuntimeError),
    }


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "case", ["exit-0", "exit-1", "missing-file", "malformed-json", "usage-error", "unexpected"]
)
def test_the_callers_collector_state_survives_main(tmp_path, capsys, monkeypatch, enabled, case):
    argv, patch, outcome = _collector_cases(tmp_path)[case]
    if patch is not None:
        monkeypatch.setitem(cli.COMMANDS, argv[0], patch)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert cli.main(argv) == outcome
        else:
            with pytest.raises(outcome):
                cli.main(argv)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def _dense_connection(rng, w):
    """Connection data over the integer weights ``w`` (n x r), random on every allowed entry."""
    n, r = w.shape
    shift = w[:, None, :] - w[None, :, :]
    e = np.eye(r, dtype=int)

    def on(mask):
        return np.where(mask, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0)

    return connection.ConnectionData(
        decomposition=weights.decompose(weights.WeightData(rank=r, weights=tuple(map(tuple, w.tolist())))),
        a_list=tuple(on((shift == e[i]).all(-1)) for i in range(r)),
        b_list=tuple(on((shift == -e[i]).all(-1)) for i in range(r)),
    )


def _dense_inputs(tmp_path, n=64):
    """Seeded rank-1 connection data on 16 weight levels, a centralizer element and a dense matrix."""
    rng = np.random.default_rng(6401)
    c = _dense_connection(rng, (np.arange(n) % 16)[:, None])
    h = weights.sample_commutant(c.decomposition, seed=6402)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    paths = [_write(tmp_path, name, obj) for name, obj in
             [("c.json", jsonio.connection_to_json(c)), ("h.json", jsonio.matrix_to_json(h)),
              ("m.json", jsonio.matrix_to_json(m))]]
    return paths, [jsonio.loads_path(p) for p in paths]


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _canonical_out(capsys, argv):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, allow_nan=False) + "\n"
    return out


def test_large_reports_keep_the_canonical_encoding(tmp_path, capsys):
    (c_path, h_path, m_path), (c_obj, h_obj, m_obj) = _dense_inputs(tmp_path)
    c, h, m = jsonio.connection_from_json(c_obj), jsonio.matrix_from_json(h_obj), jsonio.matrix_from_json(m_obj)
    grid = np.arange(64)
    c2 = _dense_connection(np.random.default_rng(6403), np.stack([grid % 4, grid // 4 % 4], 1))
    h2 = weights.sample_commutant(c2.decomposition, seed=6404)
    c2_path = _write(tmp_path, "c2.json", jsonio.connection_to_json(c2))
    h2_path = _write(tmp_path, "h2.json", jsonio.matrix_to_json(h2))

    runs = {
        "gauge": (["gauge", "--input", c_path, "--input", h_path], connection.gauge(c, h)),
        # -B* and -A* turn every exact zero into the pair [-0.0, 0.0]
        "involute": (["involute", "--input", c_path], connection.involution(c)),
        # rank 2 takes the A_list/B_list shape
        "gauge-rank2": (["gauge", "--input", c2_path, "--input", h2_path], connection.gauge(c2, h2)),
    }
    for name, (argv, want) in runs.items():
        out = _canonical_out(capsys, argv)
        got = jsonio.connection_from_json(json.loads(out)["result"])
        assert got.rank == want.rank and ("A_list" in out) == (want.rank == 2)
        assert all(map(_same_bits, got.a_list + got.b_list, want.a_list + want.b_list)), name
        if name == "involute":
            assert out.count("[-0.0, 0.0]") == 2 * (64 * 64 - 15 * 4 * 4)

    result = json.loads(_canonical_out(capsys, ["jordan-spectral", "--input", m_path]))["result"]
    sd = jordan.spectral(m)
    assert _same_bits(np.array(result["t"]), np.asarray(sd.t, dtype=float))
    assert _same_bits(jsonio.matrix_from_json(result["u"]), sd.u.astype(complex))
    assert _same_bits(jsonio.matrix_from_json(result["v"]), sd.v.astype(complex))


def test_matrix_reports_build_no_pair_lists(tmp_path, capsys, monkeypatch):
    # arrays go to dumps as they are: a report that falls back to the
    # [re, im] lists of matrix_to_json would still print the same bytes
    (c_path, h_path, m_path), (c_obj, _, _) = _dense_inputs(tmp_path)
    rep = quiver.from_connection(jsonio.connection_from_json(c_obj))
    rep_path = _write(tmp_path, "rep.json", jsonio.rep_to_json(rep))
    argvs = [
        ["gauge", "--input", c_path, "--input", h_path],
        ["involute", "--input", c_path],
        ["jordan-spectral", "--input", m_path],
        ["moment", "--input", rep_path, "--convention", "standard"],
    ]
    outs = [_canonical_out(capsys, argv) for argv in argvs]

    def refuse(*_):
        raise AssertionError("a report was built from [re, im] lists")

    monkeypatch.setattr(jsonio, "matrix_to_json", refuse)
    monkeypatch.setattr(jsonio, "complex_to_json", refuse)
    for argv, out in zip(argvs, outs):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out


def test_the_collector_resumes_after_the_op_is_freed(tmp_path, capsys, monkeypatch):
    # Containers allocated while the collector is paused count towards its
    # next pass; the op's lists must be gone by then, or that pass scans them.
    (c_path, h_path, _), _ = _dense_inputs(tmp_path)
    counts = []
    enable = gc.enable

    def spy():
        counts.append(gc.get_count()[0])
        enable()

    monkeypatch.setattr(gc, "enable", spy)
    assert gc.isenabled()
    gc.collect()
    assert cli.main(["gauge", "--input", c_path, "--input", h_path]) == 0
    out = capsys.readouterr().out
    assert len(counts) == 1 and gc.isenabled()
    # the report text holds 2 * 64 * 64 [re, im] pairs
    assert out.count("], [") > 8000 and counts[0] < 64 * 64


@pytest.mark.parametrize("command", ["decompose", "jordan-spectral"])
def test_a_closed_stdout_exits_2_with_one_error_line(tmp_path, command):
    if command == "decompose":
        path = _write(tmp_path, "w.json", {"rank": 1, "weights": [0, 1, 1]})  # report fits the buffer
    else:
        (_, _, path), _ = _dense_inputs(tmp_path)  # report is larger than a pipe holds
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "modulikit", command, "--input", path],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=55, env=env,
        )
    finally:
        os.close(write_end)
    assert run.returncode == 2
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in run.stderr and "Exception ignored" not in run.stderr
