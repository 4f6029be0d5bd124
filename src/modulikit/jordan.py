"""Rectangular-matrix Jordan triple system and its spectral theory.

On Z = C^{p x q} the triple product is
``{x; y; z} = (x y^* z + z y^* x) / 2``: linear in the outer arguments,
anti-linear in the middle one, and symmetric under swapping x and z.
Tripotents ``{e; e; e} = e`` are exactly the partial isometries, and
every element is a nonnegative combination of pairwise orthogonal
tripotents moved by a simultaneous unitary pair, which is a singular
value decomposition read with ascending values.

Quadratic vector fields ``z -> {z; u; z}`` pairwise commute; their
brackets with constant fields recover the triple product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotTripotentError
from .linalg import DEFAULT_TOL, as_matrix, dagger, frob, is_unitary, relative

# Unitarity slack accepted on spectral frames.
FRAME_TOL = 1e-10


def _same_shape(*mats: np.ndarray) -> None:
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise DimensionMismatchError(
            f"triple arguments must share one shape, got {[m.shape for m in mats]}"
        )


def triple_product(x, y, z) -> np.ndarray:
    """Jordan triple product ``(x y^* z + z y^* x) / 2``."""
    x, y, z = as_matrix(x), as_matrix(y), as_matrix(z)
    _same_shape(x, y, z)
    yd = dagger(y)
    return (x @ yd @ z + z @ yd @ x) / 2.0


def is_tripotent(e, tol: float = DEFAULT_TOL) -> bool:
    """True when ``{e; e; e} = e`` within tolerance (relative to ``|e|``)."""
    e = as_matrix(e)
    return relative(frob(triple_product(e, e, e) - e), frob(e)) <= tol


def are_orthogonal(e1, e2, tol: float = DEFAULT_TOL) -> bool:
    """Orthogonality of two tripotents: ``e1 e2^* = 0`` and ``e1^* e2 = 0``.

    Raises NotTripotentError when either argument fails the tripotent
    test at the same tolerance.
    """
    e1, e2 = as_matrix(e1), as_matrix(e2)
    _same_shape(e1, e2)
    for name, e in (("first", e1), ("second", e2)):
        if not is_tripotent(e, tol):
            raise NotTripotentError(f"{name} argument is not a tripotent within tolerance")
    return frob(e1 @ dagger(e2)) <= tol and frob(dagger(e1) @ e2) <= tol


@dataclass(eq=False)
class SpectralDecomposition:
    """Ascending singular values with the unitary pair realizing the frame.

    ``z`` reconstructs as ``u @ diag(t, padded) @ v^*``; the i-th frame
    tripotent is ``u E_ii v^*``.
    """

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        u = as_matrix(self.u, square=True)
        v = as_matrix(self.v, square=True)
        if t.ndim != 1 or t.size != min(u.shape[0], v.shape[0]):
            raise DimensionMismatchError(
                "need one singular value per unit of min(p, q)"
            )
        if t.size and (t[0] < -FRAME_TOL or np.any(np.diff(t) < -FRAME_TOL)):
            raise ValueError("singular values must be nonnegative and ascending")
        for name, m in (("u", u), ("v", v)):
            if not is_unitary(m, FRAME_TOL):
                raise ValueError(f"frame matrix {name} is not unitary within tolerance")
        t = np.maximum(t, 0.0)
        u = np.array(u, dtype=complex)
        v = np.array(v, dtype=complex)
        for m in (t, u, v):
            m.setflags(write=False)
        self.t = t
        self.u = u
        self.v = v

    @property
    def rank(self) -> int:
        return int(self.t.size)


def spectral(z) -> SpectralDecomposition:
    """Spectral decomposition of ``z`` with ascending singular values."""
    z = as_matrix(z)
    p, q = z.shape
    u, s, vh = np.linalg.svd(z, full_matrices=True)
    r = min(p, q)
    order = np.arange(r)[::-1]
    t = s[order]
    u = np.array(u, dtype=complex)
    v = np.array(dagger(vh), dtype=complex)
    u[:, :r] = u[:, order]
    v[:, :r] = v[:, order]
    return SpectralDecomposition(t=t, u=u, v=v)


def reconstruct(sd: SpectralDecomposition, p: int | None = None, q: int | None = None) -> np.ndarray:
    """Assemble ``u @ diag(t, padded) @ v^*`` back into a p x q matrix."""
    p = sd.u.shape[0] if p is None else int(p)
    q = sd.v.shape[0] if q is None else int(q)
    if (p, q) != (sd.u.shape[0], sd.v.shape[0]):
        raise DimensionMismatchError("requested shape does not match the frame matrices")
    core = np.zeros((p, q), dtype=complex)
    r = sd.rank
    core[:r, :r] = np.diag(sd.t)
    return sd.u @ core @ dagger(sd.v)


def quadratic_field(u, z) -> np.ndarray:
    """Value of the quadratic vector field attached to ``u``: ``{z; u; z} = z u^* z``."""
    u, z = as_matrix(u), as_matrix(z)
    _same_shape(u, z)
    return z @ dagger(u) @ z


@dataclass(frozen=True, eq=False)
class ConstantField:
    """Constant vector field ``z -> u``."""

    u: np.ndarray

    def value(self, z: np.ndarray) -> np.ndarray:
        return as_matrix(self.u)

    def derivative(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.zeros_like(as_matrix(w))


@dataclass(frozen=True, eq=False)
class QuadraticField:
    """Quadratic vector field ``z -> {z; u; z}``.

    Its exact derivative at ``z`` applied to ``w`` is ``2 {z; u; w}``.
    """

    u: np.ndarray

    def value(self, z: np.ndarray) -> np.ndarray:
        return quadratic_field(self.u, z)

    def derivative(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        return 2.0 * triple_product(z, self.u, w)


def field_bracket(f1, f2, z) -> np.ndarray:
    """Lie bracket of two vector fields at ``z``: ``DY(z) X(z) - DX(z) Y(z)``.

    Brackets of two quadratic fields vanish identically; a constant field
    against a quadratic one evaluates to ``2 {z; u_quad; u_const}``.
    """
    z = as_matrix(z)
    x_val = as_matrix(f1.value(z))
    y_val = as_matrix(f2.value(z))
    _same_shape(x_val, y_val, z)
    return f2.derivative(z, x_val) - f1.derivative(z, y_val)
