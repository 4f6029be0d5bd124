"""JSON wire formats.

Complex scalars travel as ``[re, im]`` pairs; matrices as
``{"rows": N, "cols": M, "entries": [[re, im], ...]}`` in row-major
order.  Reports are serialized with sorted keys so a fixed seed yields
byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers

import numpy as np

from .connection import ConnectionData, FrameTuple
from .quiver import Arrow, DoubleQuiver, DoubleQuiverRep
from .weights import WeightData, WeightDecomposition, decompose


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": np.stack([m.real.ravel(), m.imag.ravel()], 1).tolist(),
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _int(value, path: str) -> int:
    """A JSON integer; bool, float, null and string are rejected.

    ``path`` names the value in error messages.  Nested decoders take an
    ``at`` prefix, such as ``"A."``, for the JSON path of their input.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{path} must be an integer, got {value!r}")


def _list(value, path: str) -> list:
    """A JSON array; ``path`` names the value in error messages."""
    if isinstance(value, list):
        return value
    raise ValueError(f"{path} must be a list, got {type(value).__name__}")


def _number(value, path: str) -> float:
    """A finite JSON number: an int or a float, but not a bool."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{path} must be a finite double-precision number, got {value!r:.40}")


def _entries(entries: list, at: str) -> np.ndarray:
    """Complex values of ``[re, im]`` pairs whose parts are finite JSON numbers.

    The whole list is converted at once; only when that fails does the
    entry-by-entry decode run, to name the first bad entry.  Both give
    the same values.
    """
    try:
        if set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}:
            parts = np.array(entries, dtype=float).reshape(len(entries), 2)
            if np.isfinite(parts).all():
                return parts.view(complex).reshape(-1)
    except (TypeError, ValueError, OverflowError):
        pass
    values = []
    for k, pair in enumerate(entries):
        _require(
            isinstance(pair, (list, tuple)) and len(pair) == 2,
            f"{at}entries[{k}] must be a [re, im] pair",
        )
        re, im = (_number(x, f"{at}entries[{k}][{j}]") for j, x in enumerate(pair))
        values.append(complex(re, im))
    return np.array(values, dtype=complex)


def matrix_from_json(obj, at: str = "") -> np.ndarray:
    name = at[:-1] or "matrix"
    _require(isinstance(obj, dict), f"{name} must be a JSON object")
    _require(set(obj) >= {"rows", "cols", "entries"}, f"{name} needs rows, cols, entries")
    rows, cols = _int(obj["rows"], f"{at}rows"), _int(obj["cols"], f"{at}cols")
    _require(rows >= 0 and cols >= 0, f"{at}rows and {at}cols must be nonnegative")
    entries = _list(obj["entries"], f"{at}entries")
    _require(
        len(entries) == rows * cols,
        f"{at}entries: expected {rows * cols} entries, got {len(entries)}",
    )
    return _entries(entries, at).reshape(rows, cols)


def weight_data_to_json(w: WeightData) -> dict:
    return {"rank": w.rank, "weights": [list(vec) for vec in w.weights]}


def weight_data_from_json(obj, at: str = "") -> WeightData:
    name = at[:-1] or "weight data"
    _require(isinstance(obj, dict), f"{name} must be a JSON object")
    _require(set(obj) >= {"rank", "weights"}, f"{name} needs rank and weights")
    rank = _int(obj["rank"], f"{at}rank")
    ws = obj["weights"]
    _require(isinstance(ws, list) and ws, f"{at}weights must be a nonempty list")
    vecs = []
    for k, w in enumerate(ws):
        if isinstance(w, list):
            vecs.append(tuple(_int(c, f"{at}weights[{k}][{j}]") for j, c in enumerate(w)))
        else:
            vecs.append((_int(w, f"{at}weights[{k}]"),))
    try:
        return WeightData(rank=rank, weights=tuple(vecs))
    except ValueError as exc:
        # WeightData names its fields (rank, weights[k]) relative to itself
        raise type(exc)(f"{at}{exc}") from None


def _weight_data(d: WeightDecomposition) -> WeightData:
    return WeightData(rank=d.rank, weights=tuple(map(tuple, d.index_weights().tolist())))


def connection_to_json(c: ConnectionData) -> dict:
    """The ``{weights, A, B}`` shape at rank 1, the frame-tuple shape otherwise."""
    if c.rank != 1:
        return frame_tuple_to_json(c)
    return {
        "weights": weight_data_to_json(_weight_data(c.decomposition)),
        "A": matrix_to_json(c.a_list[0]),
        "B": matrix_to_json(c.b_list[0]),
    }


def connection_from_json(obj) -> ConnectionData:
    """Connection data: ``{weights, A, B}`` at rank 1, or a frame tuple with weights."""
    _require(isinstance(obj, dict), "connection data must be a JSON object")
    if "A_list" in obj:
        c = frame_tuple_from_json(obj)
        _require(isinstance(c, ConnectionData), "connection data as a frame tuple needs weights")
        return c
    _require(set(obj) >= {"weights", "A", "B"}, "connection data needs weights, A, B")
    w = weight_data_from_json(obj["weights"], "weights.")
    return ConnectionData(
        decomposition=decompose(w),
        a_list=(matrix_from_json(obj["A"], "A."),),
        b_list=(matrix_from_json(obj["B"], "B."),),
    )


def frame_tuple_to_json(t: FrameTuple) -> dict:
    out = {
        "rank": t.rank,
        "A_list": [matrix_to_json(a) for a in t.a_list],
        "B_list": [matrix_to_json(b) for b in t.b_list],
    }
    if isinstance(t, ConnectionData):
        out["weights"] = weight_data_to_json(_weight_data(t.decomposition))
    return out


def _matrix_list(value, path: str) -> tuple[np.ndarray, ...]:
    return tuple(matrix_from_json(m, f"{path}[{k}].") for k, m in enumerate(_list(value, path)))


def frame_tuple_from_json(obj) -> FrameTuple:
    """A frame tuple; with ``weights`` it is connection data over their grading."""
    _require(isinstance(obj, dict), "frame tuple must be a JSON object")
    _require(set(obj) >= {"rank", "A_list"}, "frame tuple needs rank and A_list")
    a_list = _matrix_list(obj["A_list"], "A_list")
    _require(len(a_list) == _int(obj["rank"], "rank"), "rank must equal the length of A_list")
    b_list = None
    if obj.get("B_list") is not None:
        b_list = _matrix_list(obj["B_list"], "B_list")
    if obj.get("weights") is None:
        return FrameTuple(a_list=a_list, b_list=b_list)
    w = weight_data_from_json(obj["weights"], "weights.")
    return ConnectionData(a_list=a_list, b_list=b_list, decomposition=decompose(w))


def rep_to_json(rep: DoubleQuiverRep) -> dict:
    return {
        "vertices": list(rep.quiver.dims),
        "arrows": [
            {"tail": a.tail, "head": a.head, "label": a.label} for a in rep.quiver.arrows
        ],
        "matrices": {label: matrix_to_json(m) for label, m in sorted(rep.matrices.items())},
    }


def rep_from_json(obj) -> DoubleQuiverRep:
    """Load a double-quiver representation.

    Labels must be JSON strings.  DoubleQuiver pairs the arrows by the
    rule of :func:`modulikit.quiver.double` (``A<rest>`` with ``B<rest>``,
    any other label ``X`` with ``X_op``) and rejects an arrow that is not
    in exactly one orientation-reversed pair.
    """
    _require(isinstance(obj, dict), "representation must be a JSON object")
    _require(
        set(obj) >= {"vertices", "arrows", "matrices"},
        "representation needs vertices, arrows, matrices",
    )
    dims = tuple(_int(d, f"vertices[{k}]") for k, d in enumerate(_list(obj["vertices"], "vertices")))
    arrows = []
    for k, entry in enumerate(_list(obj["arrows"], "arrows")):
        _require(
            isinstance(entry, dict) and set(entry) >= {"tail", "head", "label"},
            f"arrows[{k}] needs tail, head, label",
        )
        tail, head = _int(entry["tail"], f"arrows[{k}].tail"), _int(entry["head"], f"arrows[{k}].head")
        arrows.append(Arrow(tail=tail, head=head, label=entry["label"]))
    quiver = DoubleQuiver(dims=dims, arrows=tuple(arrows))
    mats = obj["matrices"]
    _require(isinstance(mats, dict), "matrices must be a JSON object")
    matrices = {label: matrix_from_json(m, f"matrices.{label}.") for label, m in mats.items()}
    return DoubleQuiverRep(quiver=quiver, matrices=matrices)


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, no NaN/Inf, deterministic bytes."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError("result is not finite: floating-point overflow") from None


def loads_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON is nested too deeply") from None
