"""Dense complex matrix kernel.

Implements the antiholomorphic group involution ``h -> (h^*)^{-1}`` on
GL_N(C) whose fixed points are the unitary matrices, its Lie-algebra
differential ``X -> -X^*``, commutators, hermitian square roots, and the
norm/tolerance conventions every other module builds on.

Every tolerance verdict in the package reads ``relative(measure, scale)
<= tol``: a measured defect divided by the size of the data it was
measured on.  Both sides scale alike, so multiplying the data by s > 0
changes no verdict.  ``ABS_FLOOR`` only keeps a zero scale from dividing
by zero.

All functions are pure and never mutate their arguments.

Input boundary: a public function that takes a raw array checks it once,
with :func:`as_matrix`; a kernel on an array already checked by its caller
or a constructor calls a private core such as :func:`_invert`.  Arithmetic
results keep their check: the constructor they go to rejects an overflow.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)

# Default relative tolerance for pass/fail decisions.
DEFAULT_TOL = 1e-10
# The moment map conventions of ``quiver.moment_map``, kept here so that the
# command-line parser can offer them without importing ``quiver``.
MOMENT_CONVENTIONS = ("paper", "standard")
# Least scale ``relative`` divides by: the smallest normal double, so only a
# zero (or subnormal) scale is floored; roundoff itself is relative.
ABS_FLOOR = sys.float_info.min
# With s = max|h_ij|, invert declares h singular unless its Frobenius
# condition number ||h/s|| * ||s h^{-1}|| is at most 1 / SINGULAR_RTOL, so a
# non-finite inverse fails too; the scaling by s keeps the test valid at any
# entry scale.
SINGULAR_RTOL = 1e-12


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a complex 2-D array, rejecting text and non-finite entries."""
    m = a
    if type(m) is not np.ndarray or m.dtype != complex:
        m = np.asarray(m)
        if m.dtype.kind in "OSU" and any(isinstance(x, (str, bytes)) for x in m.flat):
            raise ValueError("matrix entries must be numbers, not text")
        try:
            m = m.astype(complex)
        except TypeError as exc:
            raise ValueError(f"matrix entries must be numbers: {exc}") from None
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def frob(m) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(m))


def relative(measure, scale: float):
    """``measure / scale``, the quantity every verdict compares with ``tol``.

    ``scale`` is floored at ``ABS_FLOOR`` so zero data divides safely.
    """
    return measure / max(scale, ABS_FLOOR)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m.T)


def invert(h) -> np.ndarray:
    """``np.linalg.inv(h)``, or SingularMatrixError by the ``SINGULAR_RTOL`` rule."""
    return _invert(as_matrix(h, square=True))


def _invert(h: np.ndarray) -> np.ndarray:
    """:func:`invert` of a square complex matrix that is already checked."""
    if h.shape[0] == 0:
        return h.copy()
    s = float(np.abs(h).max())
    if s == 0.0:
        raise SingularMatrixError("matrix is zero")
    try:
        inv = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is singular (exact zero pivot)") from None
    with np.errstate(over="ignore"):
        kappa = frob(h / s) * frob(s * inv)
    if not kappa <= 1.0 / SINGULAR_RTOL:
        raise SingularMatrixError(
            f"matrix is singular within tolerance (condition number {kappa:.3e} "
            f"> 1/{SINGULAR_RTOL:.0e})"
        )
    return inv


def sharp(h) -> np.ndarray:
    """Group involution ``h -> (h^*)^{-1}``.

    An antiholomorphic automorphism of GL_N(C); a matrix is fixed exactly
    when it is unitary.
    """
    return _invert(dagger(as_matrix(h, square=True)))


def lie_sharp(x) -> np.ndarray:
    """Lie-algebra differential of :func:`sharp`: ``X -> -X^*``.

    Anti-linear, preserves brackets, and fixes exactly the anti-hermitian
    matrices.
    """
    return -dagger(as_matrix(x, square=True))


def commutator(x, y) -> np.ndarray:
    """Matrix commutator ``[X, Y] = XY - YX``."""
    x = as_matrix(x, square=True)
    y = as_matrix(y, square=True)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"commutator needs equal shapes, got {x.shape} and {y.shape}")
    return x @ y - y @ x


def hermitian_sqrt(k, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian positive-definite square root ``h`` of ``k`` with ``h h^* = k``.

    The input is symmetrized before the eigendecomposition;
    NotPositiveDefiniteError is raised when ``k`` is not hermitian within
    tolerance or its least eigenvalue relative to ``|k|`` is at most ``tol``.

    Since ``h`` is hermitian, ``h^{-1} = sharp(h)``, so ``k`` factors as
    ``h * sharp(h)^{-1}``.
    """
    k = as_matrix(k, square=True)
    scale = frob(k)
    if not relative(frob(k - dagger(k)), scale) <= tol:
        raise NotPositiveDefiniteError("input is not hermitian within tolerance")
    sym = (k + dagger(k)) / 2.0
    evals, vecs = np.linalg.eigh(sym)
    if evals.size == 0 or relative(float(evals.min()), scale) <= tol:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite within tolerance (min eigenvalue "
            f"{float(evals.min()) if evals.size else 0.0:.3e})"
        )
    root = (vecs * np.sqrt(evals)) @ dagger(vecs)
    # Symmetrize so h == dagger(h) holds exactly.
    return (root + dagger(root)) / 2.0


def is_unitary(h, tol: float = DEFAULT_TOL) -> bool:
    """True when ``h^* h`` is within ``tol`` of the identity in Frobenius norm."""
    return _is_unitary(as_matrix(h, square=True), tol)


def _is_unitary(h: np.ndarray, tol: float) -> bool:
    """:func:`is_unitary` of a square complex matrix that is already checked."""
    eye = np.eye(h.shape[0], dtype=complex)
    return frob(dagger(h) @ h - eye) <= tol
