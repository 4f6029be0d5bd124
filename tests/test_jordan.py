"""Rectangular triple system: products, tripotents, spectra, vector fields."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modulikit import jordan
from modulikit.errors import DimensionMismatchError, NotTripotentError
from util import rel_err, unitary

SEED = 36000

FD_STEP = 1e-5
FD_TOL = 1e-6


def _crandn(rng, p, q):
    return rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))


def _e(p, q, i, j):
    m = np.zeros((p, q), dtype=complex)
    m[i, j] = 1.0
    return m


# --- triple product ------------------------------------------------------------


def test_triple_product_idempotent_example():
    e = _e(2, 2, 0, 0)
    assert_allclose(jordan.triple_product(e, e, e), e, atol=0)


def test_triple_product_zero_middle():
    rng = np.random.default_rng(SEED)
    x, z = _crandn(rng, 3, 2), _crandn(rng, 3, 2)
    assert_allclose(jordan.triple_product(x, np.zeros((3, 2)), z), np.zeros((3, 2)), atol=0)


def test_triple_product_symmetric_in_outer_arguments():
    rng = np.random.default_rng(SEED + 1)
    x, y, z = (_crandn(rng, 2, 4) for _ in range(3))
    assert_allclose(
        jordan.triple_product(x, y, z), jordan.triple_product(z, y, x), atol=1e-14
    )


def test_triple_product_antilinear_middle():
    rng = np.random.default_rng(SEED + 2)
    x, y, z = (_crandn(rng, 3, 3) for _ in range(3))
    lam = 0.7 - 1.2j
    got = jordan.triple_product(x, lam * y, z)
    want = np.conj(lam) * jordan.triple_product(x, y, z)
    assert rel_err(got - want, np.linalg.norm(want)) <= 1e-14


def test_triple_product_identity_holds():
    # {a;b;{x;y;z}} - {x;y;{a;b;z}} = {{a;b;x};y;z} - {x;{b;a;y};z}
    rng = np.random.default_rng(SEED + 3)
    a, b, x, y, z = (_crandn(rng, 3, 2) for _ in range(5))
    tp = jordan.triple_product
    lhs = tp(a, b, tp(x, y, z)) - tp(x, y, tp(a, b, z))
    rhs = tp(tp(a, b, x), y, z) - tp(x, tp(b, a, y), z)
    assert rel_err(lhs - rhs, max(np.linalg.norm(rhs), 1.0)) <= 1e-12


def test_triple_product_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        jordan.triple_product(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


# --- tripotents -------------------------------------------------------------------


def test_partial_isometries_are_tripotents():
    rng = np.random.default_rng(SEED + 4)
    assert jordan.is_tripotent(_e(2, 3, 0, 0))
    assert jordan.is_tripotent(np.zeros((2, 2)))
    u, v = unitary(rng, 3), unitary(rng, 3)
    e = u @ np.diag([1.0, 1.0, 0.0]) @ v
    assert jordan.is_tripotent(e)


def test_scaled_projection_is_not_tripotent():
    # {2e; 2e; 2e} = 8 e e* e = 8e != 2e
    assert not jordan.is_tripotent(2.0 * _e(2, 2, 0, 0))


def test_orthogonal_tripotents():
    e1 = _e(2, 2, 0, 0)
    e2 = _e(2, 2, 1, 1)
    assert jordan.are_orthogonal(e1, e2)
    assert not jordan.are_orthogonal(e1, e1 + 0.0)


def test_are_orthogonal_requires_tripotents():
    with pytest.raises(NotTripotentError):
        jordan.are_orthogonal(2.0 * _e(2, 2, 0, 0), _e(2, 2, 1, 1))


# --- spectral decomposition ----------------------------------------------------------


def test_spectral_of_zero():
    sd = jordan.spectral(np.zeros((2, 3)))
    assert_allclose(sd.t, [0.0, 0.0], atol=0)
    assert_allclose(jordan.reconstruct(sd), np.zeros((2, 3)), atol=1e-14)


def test_spectral_diagonal_is_ascending():
    sd = jordan.spectral(np.diag([3.0, 1.0]))
    assert_allclose(sd.t, [1.0, 3.0], atol=1e-14)


def test_spectral_matches_gram_eigenvalues():
    # independent route: ascending eigenvalues of the smaller Gram matrix
    rng = np.random.default_rng(SEED + 5)
    for p, q in [(2, 2), (3, 5), (5, 3), (1, 4)]:
        z = _crandn(rng, p, q)
        sd = jordan.spectral(z)
        gram = np.conj(z).T @ z if p >= q else z @ np.conj(z).T
        want = np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0))
        assert_allclose(sd.t, want, atol=1e-10)


def test_spectral_roundtrip():
    rng = np.random.default_rng(SEED + 6)
    for p, q in [(2, 2), (4, 2), (2, 4), (5, 5)]:
        z = _crandn(rng, p, q)
        sd = jordan.spectral(z)
        assert rel_err(jordan.reconstruct(sd) - z, np.linalg.norm(z)) <= 1e-12


def test_spectral_frame_members_are_orthogonal_tripotents():
    rng = np.random.default_rng(SEED + 7)
    z = _crandn(rng, 3, 4)
    sd = jordan.spectral(z)
    frames = [
        sd.u @ _e(3, 4, i, i) @ np.conj(sd.v).T for i in range(sd.rank)
    ]
    for e in frames:
        assert jordan.is_tripotent(e, tol=1e-8)
    for i in range(len(frames)):
        for j in range(i + 1, len(frames)):
            assert jordan.are_orthogonal(frames[i], frames[j], tol=1e-8)


def test_singular_values_invariant_under_unitary_pair():
    rng = np.random.default_rng(SEED + 8)
    z = _crandn(rng, 4, 3)
    a, b = unitary(rng, 4), unitary(rng, 3)
    t1 = jordan.spectral(z).t
    t2 = jordan.spectral(a @ z @ b).t
    assert_allclose(t1, t2, atol=1e-10)


def test_spectral_decomposition_validation():
    with pytest.raises(ValueError):
        jordan.SpectralDecomposition(t=np.array([2.0, 1.0]), u=np.eye(2), v=np.eye(2))
    with pytest.raises(ValueError):
        jordan.SpectralDecomposition(t=np.array([-1.0, 1.0]), u=np.eye(2), v=np.eye(2))
    with pytest.raises(ValueError):
        jordan.SpectralDecomposition(t=np.array([1.0]), u=np.eye(1) * 2, v=np.eye(1))
    with pytest.raises(DimensionMismatchError):
        jordan.SpectralDecomposition(t=np.array([1.0]), u=np.eye(2), v=np.eye(2))


# --- vector fields ---------------------------------------------------------------------


def test_quadratic_field_example():
    z = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    u = _e(2, 2, 0, 0)
    # z u^* z with u = E11 keeps the first column of z against its first row
    assert_allclose(jordan.quadratic_field(u, z), z[:, [0]] @ z[[0], :], atol=0)


def test_quadratic_field_agrees_with_triple_product():
    rng = np.random.default_rng(SEED + 9)
    u, z = _crandn(rng, 3, 2), _crandn(rng, 3, 2)
    assert_allclose(
        jordan.quadratic_field(u, z), jordan.triple_product(z, u, z), atol=1e-12
    )


def test_quadratic_derivative_matches_finite_difference():
    rng = np.random.default_rng(SEED + 10)
    f = jordan.QuadraticField(u=_crandn(rng, 3, 3))
    z, w = _crandn(rng, 3, 3), _crandn(rng, 3, 3)
    exact = f.derivative(z, w)
    fd = (f.value(z + FD_STEP * w) - f.value(z - FD_STEP * w)) / (2 * FD_STEP)
    assert rel_err(exact - fd, max(np.linalg.norm(exact), 1.0)) <= FD_TOL


def test_bracket_of_constant_fields_vanishes():
    rng = np.random.default_rng(SEED + 11)
    f1 = jordan.ConstantField(u=_crandn(rng, 2, 3))
    f2 = jordan.ConstantField(u=_crandn(rng, 2, 3))
    z = _crandn(rng, 2, 3)
    assert_allclose(jordan.field_bracket(f1, f2, z), np.zeros((2, 3)), atol=0)


def test_bracket_of_quadratic_fields_vanishes():
    rng = np.random.default_rng(SEED + 12)
    for _ in range(20):
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        f1 = jordan.QuadraticField(u=_crandn(rng, p, q))
        f2 = jordan.QuadraticField(u=_crandn(rng, p, q))
        z = _crandn(rng, p, q)
        scale = max(
            np.linalg.norm(f1.u) * np.linalg.norm(f2.u) * np.linalg.norm(z) ** 3, 1.0
        )
        assert np.linalg.norm(jordan.field_bracket(f1, f2, z)) <= 1e-12 * scale


def test_bracket_constant_against_quadratic():
    rng = np.random.default_rng(SEED + 13)
    u, v, z = (_crandn(rng, 2, 2) for _ in range(3))
    got = jordan.field_bracket(jordan.ConstantField(u=u), jordan.QuadraticField(u=v), z)
    want = 2.0 * jordan.triple_product(z, v, u)
    assert rel_err(got - want, max(np.linalg.norm(want), 1.0)) <= 1e-13


def test_field_bracket_shape_mismatch():
    f1 = jordan.ConstantField(u=np.zeros((2, 2)))
    f2 = jordan.ConstantField(u=np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        jordan.field_bracket(f1, f2, np.zeros((2, 2)))
