"""Matrix kernel tests: the sharp involution, its differential, square roots."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from modulikit import linalg
from modulikit.errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from util import cnormal, rel_err, unitary, well_conditioned

SEED = 20260814
# Central finite differences of sharp(exp(tX)) use this step and bound.
FD_STEP = 1e-5
FD_TOL = 1e-6

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


# --- sharp -----------------------------------------------------------------


def test_sharp_identity_is_fixed():
    assert_allclose(linalg.sharp(np.eye(3)), np.eye(3), atol=1e-14)


def test_sharp_diagonal_value():
    got = linalg.sharp(np.diag([2.0, 1j]))
    assert_allclose(got, np.diag([0.5, 1j]), atol=1e-14)


def test_sharp_unipotent_frozen():
    # hand computation: conjugate transpose is [[1,0],[1,1]], inverse [[1,0],[-1,1]]
    h = np.array([[1, 1], [0, 1]], dtype=complex)
    assert_allclose(linalg.sharp(h), np.array([[1, 0], [-1, 1]]), atol=1e-14)


def test_sharp_fixes_exactly_the_unitaries():
    rng = np.random.default_rng(SEED)
    for k in range(25):
        n = int(rng.integers(2, 6))
        u = unitary(rng, n)
        assert rel_err(linalg.sharp(u) - u, 1.0) < 1e-12
        assert linalg.is_unitary(u)
        h = np.diag(np.arange(1, n + 1, dtype=complex))
        assert rel_err(linalg.sharp(h) - h, 1.0) > 1e-3
        assert not linalg.is_unitary(h)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
def test_sharp_is_an_involution(seed, n):
    h = well_conditioned(np.random.default_rng(seed), n)
    assert rel_err(linalg.sharp(linalg.sharp(h)) - h, np.linalg.norm(h)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
def test_sharp_is_multiplicative(seed, n):
    rng = np.random.default_rng(seed)
    h1, h2 = well_conditioned(rng, n), well_conditioned(rng, n)
    lhs = linalg.sharp(h1 @ h2)
    rhs = linalg.sharp(h1) @ linalg.sharp(h2)
    assert rel_err(lhs - rhs, np.linalg.norm(rhs)) <= 1e-10


def test_sharp_singular_raises():
    with pytest.raises(SingularMatrixError):
        linalg.sharp(np.array([[1, 1], [1, 1]], dtype=complex))
    with pytest.raises(SingularMatrixError):
        linalg.sharp(np.zeros((2, 2)))


def test_sharp_near_singular_raises():
    h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        linalg.sharp(h)


def test_sharp_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        linalg.sharp(np.ones((2, 3)))


# --- lie_sharp ---------------------------------------------------------------


def test_lie_sharp_values():
    assert_allclose(linalg.lie_sharp(E12), -E21, atol=0)
    skew = np.diag([1j, -1j])
    assert_allclose(linalg.lie_sharp(skew), skew, atol=0)


def test_lie_sharp_is_exact_involution():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        x = cnormal(rng, int(rng.integers(1, 8)))
        assert np.array_equal(linalg.lie_sharp(linalg.lie_sharp(x)), x)


def test_lie_sharp_fixed_points_are_antihermitian():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        x = cnormal(rng, 4)
        anti = (x - np.conj(x.T)) / 2
        assert_allclose(linalg.lie_sharp(anti), anti, atol=1e-15)
        herm = (x + np.conj(x.T)) / 2
        assert not np.allclose(linalg.lie_sharp(herm), herm, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 8))
def test_lie_sharp_preserves_brackets(seed, n):
    rng = np.random.default_rng(seed)
    x, y = cnormal(rng, n), cnormal(rng, n)
    lhs = linalg.lie_sharp(linalg.commutator(x, y))
    rhs = linalg.commutator(linalg.lie_sharp(x), linalg.lie_sharp(y))
    assert rel_err(lhs - rhs, np.linalg.norm(lhs)) <= 1e-12


def _expm_taylor(a):
    """Five-term Taylor polynomial of exp(a); at |a| ~ FD_STEP it is off by < 1e-20."""
    term = out = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 5):
        term = term @ a / k
        out = out + term
    return out


def test_lie_sharp_matches_finite_difference_of_sharp():
    # independent oracle: central difference of t -> sharp(exp(tX)) at t = 0
    rng = np.random.default_rng(SEED + 2)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        x = cnormal(rng, n)
        plus = linalg.sharp(_expm_taylor(FD_STEP * x))
        minus = linalg.sharp(_expm_taylor(-FD_STEP * x))
        fd = (plus - minus) / (2.0 * FD_STEP)
        assert np.linalg.norm(fd - linalg.lie_sharp(x)) < FD_TOL


# --- commutator --------------------------------------------------------------


def test_commutator_identity_is_central():
    rng = np.random.default_rng(SEED + 3)
    x = cnormal(rng, 3)
    assert_allclose(linalg.commutator(x, np.eye(3)), np.zeros((3, 3)), atol=0)


def test_commutator_elementary_matrices():
    got = linalg.commutator(E12, E21)
    assert_allclose(got, np.diag([1.0, -1.0]), atol=0)


def test_commutator_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        linalg.commutator(np.eye(2), np.eye(3))


# --- hermitian_sqrt ----------------------------------------------------------


def test_hermitian_sqrt_diagonal():
    assert_allclose(linalg.hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_hermitian_sqrt_identity():
    assert_allclose(linalg.hermitian_sqrt(np.eye(4)), np.eye(4), atol=1e-14)


def test_hermitian_sqrt_random_factorization():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = well_conditioned(rng, n)
        k = g @ np.conj(g.T)
        h = linalg.hermitian_sqrt(k)
        # exactly hermitian by construction
        assert np.array_equal(h, np.conj(h.T))
        assert np.linalg.eigvalsh(h).min() > 0
        assert rel_err(h @ np.conj(h.T) - k, np.linalg.norm(k)) <= 1e-10
        # h is the positive factor of k = h * (sharp(h))^{-1}
        assert rel_err(h @ linalg.invert(linalg.sharp(h)) - k, np.linalg.norm(k)) <= 1e-9


def test_hermitian_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        linalg.hermitian_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefiniteError):
        linalg.hermitian_sqrt(np.zeros((2, 2)))


def test_hermitian_sqrt_rejects_nonhermitian():
    with pytest.raises(NotPositiveDefiniteError):
        linalg.hermitian_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


# --- is_unitary / invert ------------------------------------------------------


def test_is_unitary_values():
    assert linalg.is_unitary(np.eye(3))
    assert not linalg.is_unitary(np.diag([2.0, 1.0]))


def test_is_unitary_tolerance_is_respected():
    almost = np.eye(2) * (1.0 + 1e-6)
    assert not linalg.is_unitary(almost, tol=1e-10)
    assert linalg.is_unitary(almost, tol=1e-3)


def test_invert_matches_numpy_on_well_conditioned_input():
    rng = np.random.default_rng(SEED + 5)
    h = well_conditioned(rng, 5)
    assert_allclose(linalg.invert(h), np.linalg.inv(h), atol=1e-12)


def test_invert_singularity_threshold_is_the_condition_number():
    # diag(1, d) has Frobenius condition number about 1/d: 5e11 passes, 2e12 fails
    linalg.invert(np.diag([1.0, 2e-12]))
    with pytest.raises(SingularMatrixError):
        linalg.invert(np.diag([1.0, 5e-13]))
    # both LU pivots are 1, but the condition number is about 4e12
    with pytest.raises(SingularMatrixError):
        linalg.invert(np.array([[1.0, 2e6], [0.0, 1.0]]))
    # s * h^{-1} overflows to inf here: still singular, and no warning
    with warnings.catch_warnings(), pytest.raises(SingularMatrixError):
        warnings.simplefilter("error")
        linalg.invert(np.diag([1e10, 1e-300]))


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
def test_invert_is_scale_free(scale):
    h = well_conditioned(np.random.default_rng(SEED + 6), 4) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = linalg.invert(h)
    assert rel_err(h @ inv - np.eye(4), np.linalg.norm(np.eye(4))) <= 1e-12


# --- helpers ------------------------------------------------------------------


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        linalg.as_matrix(np.ones(3))


def test_as_matrix_rejects_entries_that_are_not_numbers():
    with pytest.raises(ValueError, match="matrix entries must be numbers"):
        linalg.as_matrix([[object()]])


@pytest.mark.parametrize("text", [[["1", "2j"]], [["x"]], [[b"1"]], [[1.0, "2"]], [[None, "x"]]])
def test_as_matrix_does_not_parse_text(text):
    with pytest.raises(ValueError, match="matrix entries must be numbers"):
        linalg.as_matrix(text)
    with pytest.raises(ValueError, match="matrix entries must be numbers"):
        linalg.as_matrix(np.array(text, dtype=object))


def test_as_matrix_takes_a_complex_array_as_it_is():
    m = cnormal(np.random.default_rng(SEED + 7), 3)
    assert linalg.as_matrix(m) is m


@pytest.mark.parametrize(
    "raw",
    [
        [[1, 2**53 + 1], [2**63 - 1, 2**64]],
        [[True, 2.5], [1 + 2j, -0.0]],
        np.array([[1.1, 2.2]], dtype=np.float32),
        np.array([[1, -3]], dtype=np.int8),
        np.array([[1 + 1j]], dtype=np.complex64),
        np.array([[1 + 1j]], dtype=">c16"),
        np.array([[1 + 1j, 2]]).view(type("Sub", (np.ndarray,), {})),
    ],
)
def test_as_matrix_converts_numbers_as_numpy_does(raw):
    got = linalg.as_matrix(raw)
    want = np.asarray(raw, dtype=complex)
    assert type(got) is np.ndarray and got.dtype == np.dtype(complex)
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
