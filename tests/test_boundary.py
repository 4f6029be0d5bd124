"""The input boundary and the cost of a numpy call.

Every public entry that takes a raw matrix checks it once, and a kernel
trusts an array that its caller or a constructor has checked.  These tests
pin the checks that must stay: NaN and inf are rejected at every public
entry, and an arithmetic result that overflows is rejected by the
constructor it is passed to.  The last test keeps numpy's reductions
called as array methods.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from modulikit import connection, jordan, linalg, quiver, weights

SRC = Path(__file__).resolve().parents[1] / "src" / "modulikit"

OK = np.array([[1.0, 0.5], [0.25, 2.0]], dtype=complex)
EYE = np.eye(2, dtype=complex)
D = weights.decompose(weights.WeightData.of([0, 1]))
C = connection.ConnectionData(
    decomposition=D,
    a_list=(np.array([[0, 0], [1, 0]], dtype=complex),),
    b_list=(np.array([[0, 1], [0, 0]], dtype=complex),),
)
LOOP = quiver.double(quiver.Quiver(dims=(2,), arrows=(quiver.Arrow(0, 0, "A1"),)))

ENTRIES = {
    "linalg.invert": lambda m: linalg.invert(m),
    "linalg.sharp": lambda m: linalg.sharp(m),
    "linalg.lie_sharp": lambda m: linalg.lie_sharp(m),
    "linalg.commutator[0]": lambda m: linalg.commutator(m, OK),
    "linalg.commutator[1]": lambda m: linalg.commutator(OK, m),
    "linalg.hermitian_sqrt": lambda m: linalg.hermitian_sqrt(m),
    "linalg.is_unitary": lambda m: linalg.is_unitary(m),
    "weights.commutant_contains": lambda m: weights.commutant_contains(D, m),
    "connection.gauge": lambda m: connection.gauge(C, m),
    "jordan.triple_product[0]": lambda m: jordan.triple_product(m, OK, OK),
    "jordan.triple_product[1]": lambda m: jordan.triple_product(OK, m, OK),
    "jordan.triple_product[2]": lambda m: jordan.triple_product(OK, OK, m),
    "jordan.is_tripotent": lambda m: jordan.is_tripotent(m),
    "jordan.are_orthogonal": lambda m: jordan.are_orthogonal(m, EYE),
    "jordan.spectral": lambda m: jordan.spectral(m),
    "jordan.quadratic_field[0]": lambda m: jordan.quadratic_field(m, OK),
    "jordan.quadratic_field[1]": lambda m: jordan.quadratic_field(OK, m),
    "jordan.QuadraticField.value": lambda m: jordan.QuadraticField(OK).value(m),
    "jordan.QuadraticField.derivative[0]": lambda m: jordan.QuadraticField(OK).derivative(m, OK),
    "jordan.QuadraticField.derivative[1]": lambda m: jordan.QuadraticField(OK).derivative(OK, m),
    "jordan.ConstantField.derivative": lambda m: jordan.ConstantField(OK).derivative(OK, m),
    "jordan.field_bracket.z": lambda m: jordan.field_bracket(
        jordan.QuadraticField(OK), jordan.ConstantField(OK), m
    ),
    "jordan.field_bracket.quadratic_u": lambda m: jordan.field_bracket(
        jordan.QuadraticField(m), jordan.QuadraticField(OK), OK
    ),
    "jordan.field_bracket.constant_u": lambda m: jordan.field_bracket(
        jordan.ConstantField(m), jordan.QuadraticField(OK), OK
    ),
    "quiver.gauge_action": lambda m: quiver.gauge_action(
        quiver.DoubleQuiverRep(quiver=LOOP, matrices={"A1": OK, "B1": OK}), [m]
    ),
    "FrameTuple.a_list": lambda m: connection.FrameTuple(a_list=(OK, m)),
    "FrameTuple.b_list": lambda m: connection.FrameTuple(a_list=(OK,), b_list=(m,)),
    "ConnectionData": lambda m: connection.ConnectionData(
        decomposition=D, a_list=(m,), b_list=(C.b_list[0],)
    ),
    "DoubleQuiverRep": lambda m: quiver.DoubleQuiverRep(
        quiver=LOOP, matrices={"A1": OK, "B1": m}
    ),
    "SpectralDecomposition.u": lambda m: jordan.SpectralDecomposition(
        t=np.ones(2), u=m, v=EYE
    ),
    "SpectralDecomposition.v": lambda m: jordan.SpectralDecomposition(
        t=np.ones(2), u=EYE, v=m
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-inf-j"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_public_entries_reject_nonfinite_matrices(entry, bad):
    m = OK.copy()
    m[1, 0] = bad
    with pytest.raises(ValueError):
        ENTRIES[entry](m)
    # the same value inside a nested list, the raw form a library caller passes
    with pytest.raises(ValueError):
        ENTRIES[entry](m.tolist())


def test_overflowing_gauge_results_are_rejected():
    big = connection.ConnectionData(
        decomposition=D,
        a_list=(np.array([[0, 0], [1e200, 0]], dtype=complex),),
        b_list=(np.array([[0, 1e200], [0, 0]], dtype=complex),),
    )
    h = np.diag([1.0, 1e200]).astype(complex)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="finite"):
            connection.gauge(big, h)
        with pytest.raises(ValueError, match="finite"):
            quiver.gauge_action(quiver.from_connection(big), [EYE[:1, :1], 1e200 * EYE[:1, :1]])


WRAPPERS = {"all", "any", "max", "min", "sum", "prod", "trace"}


def test_reductions_are_array_methods():
    # np.max(a) goes through numpy's Python dispatch; a.max() runs the same
    # ufunc reduce without it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            f = node.func if isinstance(node, ast.Call) else None
            if (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id in {"np", "numpy"}
                and f.attr in WRAPPERS
            ):
                found.append(f"{path.name}:{node.lineno} np.{f.attr}")
    assert found == []
