"""JSON wire formats.

Complex scalars travel as ``[re, im]`` pairs; matrices as
``{"rows": N, "cols": M, "entries": [[re, im], ...]}`` in row-major
order.  Reports are serialized with sorted keys so a fixed seed yields
byte-identical output.  A report may hold 2-D numpy arrays: ``dumps``
writes each one as a matrix, straight from the array to text.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .connection import ConnectionData, FrameTuple
from .weights import WeightData, WeightDecomposition, _int, decompose

if TYPE_CHECKING:  # rep_from_json imports quiver when it runs
    from .quiver import DoubleQuiverRep


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _matrix(m: np.ndarray, entries) -> dict:
    """The matrix wire object of ``m`` around its ``entries`` value."""
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def _parts(m: np.ndarray) -> np.ndarray:
    """The ``(re, im)`` rows of ``m``'s entries in row-major order."""
    return np.stack([m.real.ravel(), m.imag.ravel()], 1)


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return _matrix(m, _parts(m).tolist())


# The text of a zero [re, im] pair, indexed by 2 * signbit(re) + signbit(im).
_ZERO_PAIRS = np.array(["[0.0, 0.0]", "[0.0, -0.0]", "[-0.0, 0.0]", "[-0.0, -0.0]"], dtype=object)
_NOT_FINITE = "result is not finite: floating-point overflow"


def _entries_text(m: np.ndarray) -> str:
    """``json.dumps`` of ``matrix_to_json(m)["entries"]``, written from the array.

    A covariant connection puts each matrix on one weight shift, so most
    entries of a report's matrices are exact zeros; their pairs are
    constant strings, and only the others pass through ``float.__repr__``.
    """
    parts = _parts(m)
    if not np.isfinite(parts).all():
        raise ValueError(_NOT_FINITE)
    pairs = _ZERO_PAIRS[np.signbit(parts).dot([2, 1])]
    nonzero = np.flatnonzero(parts.any(axis=1))
    re, im = parts[nonzero].T.tolist()
    pairs[nonzero] = [f"[{a!r}, {b!r}]" for a, b in zip(re, im)]
    return "[" + ", ".join(pairs.tolist()) + "]"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


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

    The whole list is converted at once, by one pass over its parts; only
    when that fails does the entry-by-entry decode run, to name the first
    bad entry.  Both give the same values.
    """
    try:
        if (
            set(map(type, entries)) <= {list}
            and set(map(len, entries)) == {2}
            and set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}
        ):
            parts = np.fromiter(itertools.chain.from_iterable(entries), float, 2 * len(entries))
            if np.isfinite(parts).all():
                return parts.view(complex)
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
    ws = obj["weights"]
    _require(isinstance(ws, list) and ws, f"{at}weights must be a nonempty list")
    try:
        return WeightData(rank=obj["rank"], weights=tuple(ws))
    except ValueError as exc:
        # WeightData names its fields (rank, weights[k]) relative to itself
        raise type(exc)(f"{at}{exc}") from None


def _weight_data(d: WeightDecomposition) -> WeightData:
    return WeightData(rank=d.rank, weights=tuple(map(tuple, d.index_weights().tolist())))


def _plain(value):
    """``value`` with each numpy array in it replaced by its ``matrix_to_json``."""
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def connection_arrays(c: ConnectionData) -> dict:
    """The ``{weights, A, B}`` shape at rank 1, the frame-tuple shape otherwise.

    Its matrices stay numpy arrays, for a report that ``dumps`` writes;
    ``connection_to_json`` is the same value in plain JSON types.
    """
    if c.rank != 1:
        return _frame_tuple_arrays(c)
    return {
        "weights": weight_data_to_json(_weight_data(c.decomposition)),
        "A": c.a_list[0],
        "B": c.b_list[0],
    }


def connection_to_json(c: ConnectionData) -> dict:
    """The ``{weights, A, B}`` shape at rank 1, the frame-tuple shape otherwise."""
    return _plain(connection_arrays(c))


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


def _frame_tuple_arrays(t: FrameTuple) -> dict:
    out = {"rank": t.rank, "A_list": list(t.a_list), "B_list": list(t.b_list)}
    if isinstance(t, ConnectionData):
        out["weights"] = weight_data_to_json(_weight_data(t.decomposition))
    return out


def frame_tuple_to_json(t: FrameTuple) -> dict:
    return _plain(_frame_tuple_arrays(t))


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

    Labels must be JSON strings with no comma, since a report joins the
    labels of a word with commas.  DoubleQuiver pairs the arrows by the
    rule of :func:`modulikit.quiver.double` (``A<rest>`` with ``B<rest>``,
    any other label ``X`` with ``X_op``) and rejects an arrow that is not
    in exactly one orientation-reversed pair.
    """
    from .quiver import Arrow, DoubleQuiver, DoubleQuiverRep

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
        label = entry["label"]
        _require(not (isinstance(label, str) and "," in label), f"arrows[{k}].label must not contain ','")
        arrows.append(Arrow(tail=tail, head=head, label=label))
    quiver = DoubleQuiver(dims=dims, arrows=tuple(arrows))
    mats = obj["matrices"]
    _require(isinstance(mats, dict), "matrices must be a JSON object")
    matrices = {label: matrix_from_json(m, f"matrices.{label}.") for label, m in mats.items()}
    return DoubleQuiverRep(quiver=quiver, matrices=matrices)


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, no NaN/Inf, deterministic bytes.

    A 2-D numpy array anywhere in ``obj`` is written as the matrix wire
    object, byte for byte as ``matrix_to_json`` of it would be; an array
    of another ndim raises TypeError.

    ``json.dumps`` writes each array's ``entries`` as a mark string, which
    is then replaced by the entries' text.  The quoted mark (``"\\u0000"``
    for the mark ``"\\0"``) occurs once for each array.  Only a report
    string or key that equals the mark, or ends in a double quote and the
    mark, adds an occurrence: on a surplus the report is written again
    with a longer mark.
    """
    mark = "\0"
    while True:
        arrays = []

        def matrix(value):
            if isinstance(value, np.ndarray) and value.ndim == 2:
                arrays.append(np.asarray(value, dtype=complex))
                return _matrix(value, mark)
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

        try:
            text = json.dumps(obj, sort_keys=True, allow_nan=False, default=matrix)
            if not arrays:
                return text
            pieces = text.split(json.dumps(mark))
            if len(pieces) == len(arrays) + 1:
                out = [pieces[0]]
                for m, piece in zip(arrays, pieces[1:]):
                    out += (_entries_text(m), piece)
                return "".join(out)
        except ValueError:
            raise ValueError(_NOT_FINITE) from None
        mark += "\0"


def loads_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON is nested too deeply") from None
