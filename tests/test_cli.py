"""Exit-code contract, report shape, and determinism of the command line."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import modulikit.connection
from modulikit import cli, connection, jsonio, quiver, weights


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
    dq = quiver.double(quiver.chain_quiver(weights.chains(_decomp([0, 1]))))
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


def test_decompose_rank2_has_no_chains(tmp_path, capsys):
    path = _write(tmp_path, "w.json", {"rank": 2, "weights": [[0, 0], [1, 0]]})
    code, report, _ = _run(capsys, ["decompose", "--input", path])
    assert code == 0
    assert report["result"]["chains"] is None


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
        (["decompose", "--input", "w.json", "--bogus"], "error: modulikit: unrecognized arguments: --bogus"),
    ],
    ids=["missing-input", "tol-abc", "unknown-command", "unknown-flag"],
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
