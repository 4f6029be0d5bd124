"""Wire-format round trips and malformed-input rejection."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from modulikit import connection, jordan, jsonio, quiver, weights


def _decomp(vals):
    return weights.decompose(weights.WeightData.of(vals))


def test_complex_scalar_pairs():
    assert jsonio.complex_to_json(1.5 - 2j) == [1.5, -2.0]
    assert jsonio.complex_to_json(3) == [3.0, 0.0]


def test_matrix_round_trip():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    obj = jsonio.matrix_to_json(m)
    assert (obj["rows"], obj["cols"]) == (3, 2)
    assert len(obj["entries"]) == 6
    back = jsonio.matrix_from_json(obj)
    assert np.array_equal(back, m)


def test_matrix_row_major_order():
    obj = jsonio.matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert [e[0] for e in obj["entries"]] == [1.0, 2.0, 3.0, 4.0]


def test_matrix_rejects_malformed():
    good = jsonio.matrix_to_json(np.eye(2))
    for mutate in (
        lambda o: o.pop("rows"),
        lambda o: o["entries"].pop(),
        lambda o: o["entries"].__setitem__(0, [1.0]),
        lambda o: o["entries"].__setitem__(0, [float("nan"), 0.0]),
        lambda o: o.__setitem__("rows", -1),
    ):
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(ValueError):
            jsonio.matrix_from_json(obj)
    with pytest.raises(ValueError):
        jsonio.matrix_from_json([[1.0, 0.0]])


def test_weight_data_round_trip():
    w = weights.WeightData(rank=2, weights=((0, 1), (2, -1)))
    assert jsonio.weight_data_from_json(jsonio.weight_data_to_json(w)) == w
    flat = jsonio.weight_data_to_json(weights.WeightData.of([0, 0, 3]))
    assert flat == {"rank": 1, "weights": [[0], [0], [3]]}


def test_weight_data_accepts_bare_integers():
    w = jsonio.weight_data_from_json({"rank": 1, "weights": [0, 1, 3]})
    assert w == weights.WeightData.of([0, 1, 3])


def test_weight_data_rejects_malformed():
    with pytest.raises(ValueError):
        jsonio.weight_data_from_json({"rank": 1})
    with pytest.raises(ValueError):
        jsonio.weight_data_from_json({"rank": 1, "weights": []})
    with pytest.raises(ValueError):
        jsonio.weight_data_from_json("nope")


def test_connection_round_trip():
    rng = np.random.default_rng(12)
    d = _decomp([0, 1, 1, 2])
    w = d.index_weights()[:, 0]
    mask_up = (w[:, None] - w[None, :]) == 1
    a = np.where(mask_up, rng.standard_normal((4, 4)), 0.0).astype(complex)
    b = np.where(mask_up.T, rng.standard_normal((4, 4)), 0.0).astype(complex)
    c = connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))
    back = jsonio.connection_from_json(json.loads(jsonio.dumps(jsonio.connection_to_json(c))))
    assert np.array_equal(back.a_list[0], c.a_list[0])
    assert np.array_equal(back.b_list[0], c.b_list[0])
    assert back.decomposition.blocks == c.decomposition.blocks


def test_connection_rejects_missing_field():
    obj = jsonio.connection_to_json(
        connection.ConnectionData(
            decomposition=_decomp([0, 1]), a_list=(np.zeros((2, 2)),), b_list=(np.zeros((2, 2)),)
        )
    )
    del obj["B"]
    with pytest.raises(ValueError):
        jsonio.connection_from_json(obj)


def test_frame_tuple_round_trip_with_weights():
    rng = np.random.default_rng(13)
    w = weights.WeightData(rank=2, weights=((0, 0), (1, 0), (0, 1)))
    t = connection.ConnectionData(
        a_list=(rng.standard_normal((3, 3)), rng.standard_normal((3, 3))),
        decomposition=weights.decompose(w),
    )
    obj = jsonio.frame_tuple_to_json(t)
    assert obj["weights"] == jsonio.weight_data_to_json(w)
    # connection data of rank 2 travels in the frame-tuple shape
    assert jsonio.connection_to_json(t) == obj
    for back in (jsonio.frame_tuple_from_json(obj), jsonio.connection_from_json(obj)):
        assert back.rank == 2
        assert back.decomposition == t.decomposition
        for m1, m2 in zip(back.a_list, t.a_list):
            assert np.array_equal(m1, m2)
        for b in back.b_list:
            assert np.count_nonzero(b) == 0


def test_frame_tuple_rank_must_match():
    obj = {"rank": 2, "A_list": [jsonio.matrix_to_json(np.eye(2))]}
    with pytest.raises(ValueError):
        jsonio.frame_tuple_from_json(obj)


def _loop(label):
    return quiver.Quiver(dims=(2,), arrows=(quiver.Arrow(tail=0, head=0, label=label),))


def test_rep_round_trip():
    rng = np.random.default_rng(14)
    # a bare A pairs with B and any other label X with X_op, as double names them
    chain = quiver.weight_quiver(_decomp([0, 0, 1]))
    for q in (chain, _loop("A1"), _loop("A"), _loop("X"), _loop("B1")):
        dq = quiver.double(q)
        rep = quiver.DoubleQuiverRep(
            quiver=dq,
            matrices={a.label: rng.standard_normal((dq.dims[a.head], dq.dims[a.tail])) for a in dq.arrows},
        )
        back = jsonio.rep_from_json(json.loads(jsonio.dumps(jsonio.rep_to_json(rep))))
        assert quiver.same_quiver(back.quiver, rep.quiver)
        assert back.quiver.pairs == rep.quiver.pairs
        for label in rep.matrices:
            assert np.array_equal(back.matrices[label], rep.matrices[label])


def test_double_and_decoder_reject_the_same_ambiguous_pairing():
    # doubling X and X_op_op adds X_op and X_op_op_op, so X_op and X_op_op
    # would each be in two pairs; the decoder reads the same arrows the same way
    q = quiver.Quiver(
        dims=(1,), arrows=(quiver.Arrow(0, 0, "X"), quiver.Arrow(0, 0, "X_op_op"))
    )
    with pytest.raises(ValueError, match="exactly one pair"):
        quiver.double(q)
    labels = ("X", "X_op_op", "X_op", "X_op_op_op")
    obj = {
        "vertices": [1],
        "arrows": [{"tail": 0, "head": 0, "label": label} for label in labels],
        "matrices": {label: jsonio.matrix_to_json(np.eye(1)) for label in labels},
    }
    with pytest.raises(ValueError, match="exactly one pair"):
        jsonio.rep_from_json(obj)


def test_rep_requires_paired_labels():
    base = {
        "vertices": [1, 1],
        "arrows": [
            {"tail": 0, "head": 1, "label": "A1"},
            {"tail": 1, "head": 0, "label": "B1"},
        ],
        "matrices": {
            "A1": jsonio.matrix_to_json(np.eye(1)),
            "B1": jsonio.matrix_to_json(np.eye(1)),
        },
    }
    assert jsonio.rep_from_json(json.loads(json.dumps(base))).quiver.pairs == (("A1", "B1"),)

    missing = json.loads(json.dumps(base))
    missing["arrows"] = missing["arrows"][:1]
    del missing["matrices"]["B1"]
    with pytest.raises(ValueError):
        jsonio.rep_from_json(missing)

    not_reversed = json.loads(json.dumps(base))
    not_reversed["arrows"][1]["tail"] = 0
    not_reversed["arrows"][1]["head"] = 1
    with pytest.raises(ValueError):
        jsonio.rep_from_json(not_reversed)

    unpaired = json.loads(json.dumps(base))
    unpaired["arrows"].append({"tail": 0, "head": 0, "label": "C1"})
    unpaired["matrices"]["C1"] = jsonio.matrix_to_json(np.eye(1))
    with pytest.raises(ValueError):
        jsonio.rep_from_json(unpaired)

    # X pairs with X_op and X_op with X_op_op: X_op would be in two pairs
    twice = json.loads(json.dumps(base))
    for k, label in enumerate(("X", "X_op", "X_op_op")):
        twice["arrows"].append({"tail": k % 2, "head": 1 - k % 2, "label": label})
        twice["matrices"][label] = jsonio.matrix_to_json(np.eye(1))
    with pytest.raises(ValueError, match="exactly one pair"):
        jsonio.rep_from_json(twice)



def _scalar_rep_obj():
    dq = quiver.double(quiver.weight_quiver(_decomp([0, 1])))
    rep = quiver.DoubleQuiverRep(quiver=dq, matrices={"A1": [[1.0]], "B1": [[2.0]]})
    return json.loads(jsonio.dumps(jsonio.rep_to_json(rep)))


def _zero_connection_obj():
    c = connection.ConnectionData(decomposition=_decomp([0, 1]), a_list=(np.zeros((2, 2)),), b_list=(np.zeros((2, 2)),))
    return json.loads(jsonio.dumps(jsonio.connection_to_json(c)))


def _set(obj, keys, value):
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value


# (decoder, valid input factory, keys of one integer field, its JSON path)
INTEGER_FIELDS = [
    (jsonio.weight_data_from_json, lambda: {"rank": 1, "weights": [0, 1]}, ["rank"], "rank"),
    (jsonio.weight_data_from_json, lambda: {"rank": 1, "weights": [0, 1]}, ["weights", 1], "weights[1]"),
    (
        jsonio.weight_data_from_json,
        lambda: {"rank": 2, "weights": [[0, 0], [1, 0]]},
        ["weights", 1, 0],
        "weights[1][0]",
    ),
    (jsonio.matrix_from_json, lambda: jsonio.matrix_to_json(np.eye(1)), ["rows"], "rows"),
    (jsonio.matrix_from_json, lambda: jsonio.matrix_to_json(np.eye(1)), ["cols"], "cols"),
    (jsonio.connection_from_json, _zero_connection_obj, ["B", "rows"], "B.rows"),
    (
        jsonio.frame_tuple_from_json,
        lambda: {"rank": 1, "A_list": [jsonio.matrix_to_json(np.eye(1))]},
        ["rank"],
        "rank",
    ),
    (jsonio.rep_from_json, _scalar_rep_obj, ["vertices", 0], "vertices[0]"),
    (jsonio.rep_from_json, _scalar_rep_obj, ["arrows", 1, "tail"], "arrows[1].tail"),
    (jsonio.rep_from_json, _scalar_rep_obj, ["arrows", 0, "head"], "arrows[0].head"),
    (jsonio.rep_from_json, _scalar_rep_obj, ["matrices", "A1", "cols"], "matrices.A1.cols"),
]


@pytest.mark.parametrize("bad", [True, 1.7, 2.0, None, "2"], ids=repr)
@pytest.mark.parametrize("decode, make, keys, path", INTEGER_FIELDS, ids=[f[3] for f in INTEGER_FIELDS])
def test_counts_and_weights_must_be_json_integers(decode, make, keys, path, bad):
    obj = make()
    decode(obj)
    _set(obj, keys, bad)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)} must be an integer"):
        decode(obj)


@pytest.mark.parametrize(
    "bad",
    [None, [], {}, 2**1100, True, "1.5", float("nan"), float("inf")],
    ids=["null", "list", "object", "2**1100", "true", "string", "nan", "inf"],
)
@pytest.mark.parametrize("part", [0, 1])
def test_matrix_entries_must_be_finite_json_numbers(bad, part):
    obj = _zero_connection_obj()
    jsonio.connection_from_json(obj)
    obj["A"]["entries"][0][part] = bad
    with pytest.raises(ValueError, match=rf"^A\.entries\[0\]\[{part}\] must be a finite"):
        jsonio.connection_from_json(obj)


def test_matrix_entries_take_ints_and_floats_alike():
    m = jsonio.matrix_from_json({"rows": 1, "cols": 2, "entries": [[1, -2], [0.5, 3]]})
    assert m.tolist() == [[1 - 2j, 0.5 + 3j]]
    # a float subclass skips the whole-list conversion; entry by entry gives the same matrix
    slow = jsonio.matrix_from_json({"rows": 1, "cols": 2, "entries": [[np.float64(1), -2], [0.5, 3]]})
    assert np.array_equal(slow, m)
    with pytest.raises(ValueError, match=r"^entries\[1\] must be a \[re, im\] pair"):
        jsonio.matrix_from_json({"rows": 1, "cols": 2, "entries": [[1, 0], [1, 2, 3]]})


def test_dumps_is_canonical():
    assert jsonio.dumps({"b": 1, "a": [1.5, -2.0]}) == '{"a": [1.5, -2.0], "b": 1}'
    with pytest.raises(ValueError):
        jsonio.dumps({"x": float("inf")})


def test_loads_path(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(jsonio.dumps(jsonio.matrix_to_json(np.eye(2))), encoding="utf-8")
    m = jsonio.matrix_from_json(jsonio.loads_path(str(p)))
    assert np.array_equal(m, np.eye(2))


# --- dumps: arrays in a report are written as matrices ---------------------------------

_EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 3e-4, 0.1, 1e16, 1e22, 1e308]
_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (7, 3), (4, 4)]


def _reference(value):
    """json.dumps of ``value`` with each array replaced by ``matrix_to_json`` of it."""
    def plain(v):
        if isinstance(v, np.ndarray):
            return jsonio.matrix_to_json(v)
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return [plain(x) for x in v] if isinstance(v, list) else v

    return json.dumps(plain(value), sort_keys=True, allow_nan=False)


def _edge_matrix(rng, shape):
    """Parts drawn from the edge values with either sign, over half of them zero."""
    m = np.empty(shape, dtype=complex)
    for part in ("real", "imag"):
        values = rng.choice(_EDGES, shape) * (rng.random(shape) < 0.4)
        setattr(m, part, np.where(rng.random(shape) < 0.5, -values, values))
    return m


def test_dumps_writes_arrays_as_their_matrix_json():
    rng = np.random.default_rng(1707)
    for k in range(400):
        m = _edge_matrix(rng, _SHAPES[k % len(_SHAPES)])
        assert jsonio.dumps(m) == _reference(m)
    zeros = np.array([[0.0, -0.0], [complex(-0.0, 0.0), complex(-0.0, -0.0)]], dtype=complex)
    zeros[0, 1] = complex(0.0, -0.0)
    assert jsonio.dumps(zeros) == (
        '{"cols": 2, "entries": [[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]], "rows": 2}'
    )


def test_dumps_takes_views_read_only_and_real_arrays():
    rng = np.random.default_rng(1708)
    m = _edge_matrix(rng, (5, 6))
    sd = jordan.spectral(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    assert not sd.u.flags.writeable
    real = rng.standard_normal((3, 4))
    real[0] = -0.0
    views = [m.T, m[::2, 1::3], m[:, ::-1], sd.u, sd.v, real, real.T, m.real, m.imag.T, np.arange(6).reshape(2, 3)]
    for v in views:
        assert jsonio.dumps(v) == _reference(v)
    report = {"views": views, "t": sd.t.tolist()}
    assert jsonio.dumps(report) == _reference(report)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)], ids=repr)
def test_dumps_rejects_non_finite_entries(bad):
    m = np.zeros((2, 3), dtype=complex)
    m[1, 2] = bad
    reports = [m, {"a": [m.T]}] + ([] if isinstance(bad, complex) else [np.full((1, 2), bad)])
    for report in reports:
        with pytest.raises(ValueError, match="^result is not finite: floating-point overflow$"):
            jsonio.dumps(report)


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_dumps_rejects_arrays_that_are_not_matrices(shape):
    with pytest.raises(TypeError):
        jsonio.dumps({"x": np.zeros(shape)})


def test_dumps_mark_collisions():
    m = _edge_matrix(np.random.default_rng(1709), (3, 4))
    reports = [
        {"\0": m, "label": "\0"},
        {"entries": "entries", "x": [m, "\0", m.T], "\0\0": {"\0": "\0\0", "m": m}},
        {'q"\0': 'r"\0', "s": 'x"\0\0', "m": [m, [m]]},
        {"\0" * k: "\0" * (k + 1) for k in range(1, 6)} | {"m": m},
        ["\0", m, "\\u0000", '"\\u0000"', "entries"],
    ]
    for report in reports:
        assert jsonio.dumps(report) == _reference(report)


def test_dumps_without_arrays_is_one_json_dumps_call(monkeypatch):
    report = {"b": 1, "a": [1.5, -2.0], "\0": "\0"}
    want = _reference(report)
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(1) or dumps(*a, **k))
    assert jsonio.dumps(report) == want
    assert len(calls) == 1
