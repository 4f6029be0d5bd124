"""Graded connection data: covariance, purity, involution, gauge."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modulikit import connection, linalg, weights
from modulikit.errors import (
    DimensionMismatchError,
    NotInCommutantError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from util import cnormal, rel_err, well_conditioned

SEED = 47100


def _decomp(vals):
    return weights.decompose(weights.WeightData.of(vals))


def _random_connection(rng, vals):
    """Draw (a, b) supported exactly on the allowed raising/lowering blocks."""
    d = _decomp(vals)
    n = d.dim
    w = d.index_weights()[:, 0]
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if w[i] - w[j] == 1:
                a[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
            if w[i] - w[j] == -1:
                b[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    return connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))


def _e(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


# --- construction and validation -------------------------------------------------


def test_connection_data_locks_arrays():
    d = _decomp([0, 1])
    c = connection.ConnectionData(decomposition=d, a_list=(_e(2, 1, 0),), b_list=(_e(2, 0, 1),))
    with pytest.raises(ValueError):
        c.a_list[0][0, 0] = 5.0


def test_connection_data_rejects_wrong_shape():
    d = _decomp([0, 1])
    with pytest.raises(DimensionMismatchError):
        connection.ConnectionData(decomposition=d, a_list=(np.eye(3),), b_list=(np.eye(3),))


def test_connection_data_rejects_higher_rank():
    # a rank-2 grading needs two raising and two lowering matrices
    w = weights.WeightData(rank=2, weights=((0, 0), (1, 0)))
    with pytest.raises(DimensionMismatchError):
        connection.ConnectionData(decomposition=weights.decompose(w), a_list=(np.eye(2),), b_list=(np.eye(2),))


def test_validate_accepts_shift_pattern():
    rng = np.random.default_rng(SEED)
    c = _random_connection(rng, [0, 0, 1, 3])
    report = connection.validate_covariance(c, seed=0)
    assert report.ok
    assert report.worst <= 1e-12
    assert report.checks == 2 * connection.DEFAULT_SAMPLES


def test_validate_rejects_any_entry_on_forbidden_block():
    # weights [0, 2]: no pair differs by 1, so every nonzero raising entry fails
    d = _decomp([0, 2])
    for i in range(2):
        for j in range(2):
            a = np.zeros((2, 2), dtype=complex)
            a[i, j] = 1.0
            c = connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(np.zeros((2, 2)),))
            report = connection.validate_covariance(c, seed=0)
            assert not report.ok
            assert any(v.check == "structural:A" for v in report.violations)


def test_validate_flags_injected_entry():
    rng = np.random.default_rng(SEED + 1)
    good = _random_connection(rng, [0, 1, 2])
    bad_a = np.array(good.a_list[0])
    bad_a[0, 2] = 1e-6  # lowers by 2: forbidden for the raising matrix
    c = connection.ConnectionData(decomposition=good.decomposition, a_list=(bad_a,), b_list=good.b_list)
    report = connection.validate_covariance(c, seed=0)
    assert not report.ok
    hits = [v for v in report.violations if v.check == "structural:A"]
    assert len(hits) == 1
    assert "(0, 2)" in hits[0].detail
    assert hits[0].measure == pytest.approx(1e-6)


def test_validate_zero_matrices_pass():
    d = _decomp([0, 5])
    c = connection.ConnectionData(decomposition=d, a_list=(np.zeros((2, 2)),), b_list=(np.zeros((2, 2)),))
    assert connection.validate_covariance(c, seed=3).ok


@pytest.mark.parametrize("offset", [10**9, 2**40])
def test_validate_is_exact_at_large_weights(offset):
    rng = np.random.default_rng(SEED + 2)
    good = _random_connection(rng, [offset + w for w in (0, 1, 1, 2)])
    report = connection.validate_covariance(good, seed=0)
    assert report.ok and report.worst == 0.0
    bad_a = np.array(good.a_list[0])
    bad_a[0, 3] = 0.5  # lowers by 2: forbidden for the raising matrix
    bad = connection.ConnectionData(decomposition=good.decomposition, a_list=(bad_a,), b_list=good.b_list)
    checks = {v.check for v in connection.validate_covariance(bad, seed=0).violations}
    assert checks == {"structural:A", "sampled:A"}


def test_sampled_residuals_match_dense_reference():
    # small weights, so tau ** w is exact enough to serve as the reference
    rng = np.random.default_rng(SEED + 4)
    good = _random_connection(rng, [0, 1, 1, 2])
    a = good.a_list[0] + cnormal(rng, 4)
    c = connection.ConnectionData(decomposition=good.decomposition, a_list=(a,), b_list=good.b_list)
    report = connection.validate_covariance(c, samples=8, seed=7)
    taus = np.exp(2j * np.pi * np.random.default_rng(7).uniform(size=8))
    want = []
    for tau in taus:
        f = weights.f_of(c.decomposition, complex(tau))
        want.append(linalg.frob(f @ a @ np.conj(f) - tau * a) / linalg.frob(a))
    got = [v.measure for v in report.violations if v.check == "sampled:A"]
    assert_allclose(got, want, rtol=1e-13)


# --- purity ------------------------------------------------------------------------


def test_single_member_tuple_is_pure():
    rng = np.random.default_rng(SEED + 3)
    t = connection.FrameTuple(a_list=(cnormal(rng, 4),))
    res = connection.is_pure(t)
    assert res and res.witness is None


def test_pure_pair_of_commuting_raisers():
    t = connection.FrameTuple(a_list=(_e(3, 1, 0), _e(3, 2, 0)))
    assert bool(connection.is_pure(t)) is True


def test_impure_pair_has_first_witness():
    t = connection.FrameTuple(a_list=(_e(2, 0, 1), _e(2, 1, 0)))
    res = connection.is_pure(t)
    assert not res
    assert res.witness.side == "A"
    assert (res.witness.i, res.witness.j) == (1, 2)  # 1-based
    # [E12, E21] = diag(1, -1), Frobenius norm sqrt(2)
    assert res.witness.commutator_norm == pytest.approx(np.sqrt(2.0))


def test_impure_b_side_witness():
    zero = np.zeros((2, 2))
    t = connection.FrameTuple(a_list=(zero, zero), b_list=(_e(2, 0, 1), _e(2, 1, 0)))
    res = connection.is_pure(t)
    assert not res
    assert res.witness.side == "B"
    assert (res.witness.i, res.witness.j) == (1, 2)


def test_a_side_witness_reported_before_b_side():
    bad1, bad2 = _e(2, 0, 1), _e(2, 1, 0)
    res = connection.is_pure(connection.FrameTuple(a_list=(bad1, bad2), b_list=(bad1, bad2)))
    assert res.witness.side == "A"


def test_first_offending_pair_in_scan_order():
    comm1, comm2 = _e(3, 0, 1), _e(3, 1, 0)
    t = connection.FrameTuple(a_list=(comm1, _e(3, 2, 2), comm2))
    res = connection.is_pure(t)
    assert (res.witness.i, res.witness.j) == (1, 3)


def test_purity_threshold_scales_with_norms():
    # commutator of large commuting matrices picks up roundoff; the relative
    # floor has to absorb it
    rng = np.random.default_rng(SEED + 4)
    m = well_conditioned(rng, 5)
    t = connection.FrameTuple(a_list=(1e6 * m, 1e6 * (m @ m)))
    assert bool(connection.is_pure(t)) is True


def test_frame_tuple_needs_at_least_one_matrix():
    with pytest.raises(ValueError):
        connection.FrameTuple(a_list=())


# --- involution ----------------------------------------------------------------------


def test_involution_example():
    d = _decomp([0, 1])
    c = connection.ConnectionData(decomposition=d, a_list=(_e(2, 1, 0),), b_list=(np.zeros((2, 2)),))
    out = connection.involution(c)
    assert_allclose(out.a_list[0], np.zeros((2, 2)), atol=0)
    assert_allclose(out.b_list[0], -_e(2, 0, 1), atol=0)


def test_involution_is_an_involution_exactly():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(25):
        c = _random_connection(rng, [0, 0, 1, 2, 2])
        cc = connection.involution(connection.involution(c))
        assert np.array_equal(cc.a_list[0], c.a_list[0])
        assert np.array_equal(cc.b_list[0], c.b_list[0])


def test_involution_preserves_covariance():
    rng = np.random.default_rng(SEED + 6)
    c = _random_connection(rng, [0, 1, 1, 2])
    out = connection.involution(c)
    assert connection.validate_covariance(out, seed=0).ok


def test_is_hermitian_iff_involution_fixes():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(25):
        c = _random_connection(rng, [0, 1, 2])
        fixed = connection.ConnectionData(
            decomposition=c.decomposition, a_list=c.a_list, b_list=(-linalg.dagger(c.a_list[0]),)
        )
        assert connection.is_hermitian(fixed)
        out = connection.involution(fixed)
        assert np.array_equal(out.a_list[0], fixed.a_list[0])
        assert np.array_equal(out.b_list[0], fixed.b_list[0])
        if linalg.frob(c.b_list[0] + linalg.dagger(c.a_list[0])) > 1e-6 * linalg.frob(c.a_list[0]):
            assert not connection.is_hermitian(c)


# --- gauge action --------------------------------------------------------------------


def test_gauge_scalar_blocks():
    d = _decomp([0, 1])
    a = _e(2, 1, 0)
    b = _e(2, 0, 1)
    c = connection.ConnectionData(decomposition=d, a_list=(2.0 * a,), b_list=(3.0 * b,))
    h = np.diag([4.0, 6.0]).astype(complex)  # block scalars g0=4, g1=6
    out = connection.gauge(c, h)
    # A block maps g1 . a . g0^{-1}: 2 * 6/4 = 3 ; B block: 3 * 4/6 = 2
    assert_allclose(out.a_list[0], 3.0 * a, atol=1e-14)
    assert_allclose(out.b_list[0], 2.0 * b, atol=1e-14)


def test_gauge_requires_commutant_element():
    rng = np.random.default_rng(SEED + 8)
    c = _random_connection(rng, [0, 1])
    h = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)  # off-block entry
    with pytest.raises(NotInCommutantError):
        connection.gauge(c, h)


def test_gauge_requires_invertible_blocks():
    rng = np.random.default_rng(SEED + 9)
    c = _random_connection(rng, [0, 1])
    with pytest.raises(SingularMatrixError):
        connection.gauge(c, np.diag([1.0, 0.0]))


def test_gauge_preserves_zero_pattern_exactly():
    rng = np.random.default_rng(SEED + 10)
    c = _random_connection(rng, [0, 0, 1, 2, 2, 3])
    h = weights.sample_commutant(c.decomposition, seed=11)
    out = connection.gauge(c, h)
    assert np.array_equal(out.a_list[0] == 0, c.a_list[0] == 0)
    assert np.array_equal(out.b_list[0] == 0, c.b_list[0] == 0)
    assert connection.validate_covariance(out, seed=0).ok


def test_gauge_matches_block_by_block_reference():
    rng = np.random.default_rng(SEED + 12)
    c = _random_connection(rng, [0, 0, 1, 1, 1, 2, 4])
    h = weights.sample_commutant(c.decomposition, seed=13)
    blocks = [list(b.indices) for b in c.decomposition.blocks]
    want = np.zeros_like(c.a_list[0])
    for ip in blocks:
        for iq in blocks:
            hp, hq = h[np.ix_(ip, ip)], h[np.ix_(iq, iq)]
            want[np.ix_(ip, iq)] = hp @ c.a_list[0][np.ix_(ip, iq)] @ np.linalg.inv(hq)
    out = connection.gauge(c, h)
    assert np.array_equal(out.a_list[0] == 0, want == 0)
    assert rel_err(out.a_list[0] - want, linalg.frob(want)) <= 1e-14


def test_gauge_composes():
    rng = np.random.default_rng(SEED + 11)
    c = _random_connection(rng, [0, 0, 1, 2])
    h1 = weights.sample_commutant(c.decomposition, seed=21)
    h2 = weights.sample_commutant(c.decomposition, seed=22)
    once = connection.gauge(connection.gauge(c, h1), h2)
    both = connection.gauge(c, h2 @ h1)
    assert rel_err(once.a_list[0] - both.a_list[0], linalg.frob(both.a_list[0])) <= 1e-9
    assert rel_err(once.b_list[0] - both.b_list[0], linalg.frob(both.b_list[0])) <= 1e-9


def test_gauge_commutes_with_involution_through_sharp():
    rng = np.random.default_rng(SEED + 12)
    c = _random_connection(rng, [0, 1, 1, 2])
    h = weights.sample_commutant(c.decomposition, seed=31)
    lhs = connection.involution(connection.gauge(c, h))
    rhs = connection.gauge(connection.involution(c), linalg.sharp(h))
    assert rel_err(lhs.a_list[0] - rhs.a_list[0], max(linalg.frob(rhs.a_list[0]), 1.0)) <= 1e-9
    assert rel_err(lhs.b_list[0] - rhs.b_list[0], max(linalg.frob(rhs.b_list[0]), 1.0)) <= 1e-9


# --- tolerance rule ------------------------------------------------------------------


def _has_sqrt(k):
    try:
        linalg.hermitian_sqrt(k)
    except NotPositiveDefiniteError:
        return False
    return True


def _verdicts(s):
    """Homogeneous verdicts on fixed data multiplied by ``s``: the same at every s > 0."""
    m = well_conditioned(np.random.default_rng(SEED + 20), 4)
    d = _decomp([0, 0, 1, 1])
    flip = np.fliplr(np.eye(4))
    block = np.where(d.shifts().any(axis=-1), 0, m)
    a = (1.0 + 2.0j) * _e(2, 1, 0)
    return {
        "is_pure": [
            connection.is_pure(connection.FrameTuple(a_list=(s * x, s * y))).pure
            for x, y in [(_e(2, 0, 1), _e(2, 1, 0)), (m, m @ m)]
        ],
        "commutant_contains": [
            weights.commutant_contains(d, s * h)
            for h in (np.eye(4) + 100 * flip, block, block + 1e-12 * flip)
        ],
        "hermitian_sqrt": [
            _has_sqrt(s * k)
            for k in (
                np.diag([1.0, 2.0, 3.0]),
                np.diag([1.0, -2.0, 3.0]),
                np.triu(np.ones((2, 2))),
                m @ linalg.dagger(m),
            )
        ],
        "is_hermitian": [
            connection.is_hermitian(
                connection.ConnectionData(decomposition=_decomp([0, 1]), a_list=(s * a,), b_list=(s * b,))
            )
            for b in (-linalg.dagger(a), linalg.dagger(a))
        ],
    }


@pytest.mark.parametrize("s", [1e-20, 1e-7, 1e7, 1e20])
def test_verdicts_are_scale_free(s):
    expected = {
        "is_pure": [False, True],
        "commutant_contains": [False, True, True],
        "hermitian_sqrt": [True, False, False, True],
        "is_hermitian": [True, False],
    }
    assert _verdicts(1.0) == expected
    assert _verdicts(s) == expected


# --- rank-2 torus covariance -------------------------------------------------------------

_W2 = weights.WeightData(rank=2, weights=((0, 0), (1, 0), (0, 1)))


def _rank2(a_list, b_list=None, w=_W2):
    return connection.ConnectionData(decomposition=weights.decompose(w), a_list=a_list, b_list=b_list)


def test_torus_multirank_accepts_matching_pattern():
    a1 = _e(3, 1, 0)  # raises the first coordinate by one
    a2 = _e(3, 2, 0)  # raises the second coordinate by one
    rep = connection.validate_covariance(_rank2((a1, a2)), seed=0)
    assert rep.ok and rep.worst <= 1e-12
    assert rep.checks == 4 * connection.DEFAULT_SAMPLES


def test_torus_multirank_rejects_wrong_shift():
    a1 = _e(3, 2, 0)  # raises the second coordinate, claimed as the first
    a2 = _e(3, 1, 0)
    rep = connection.validate_covariance(_rank2((a1, a2)), seed=0)
    assert not rep.ok
    assert any(v.check.startswith("sampled:A_1") for v in rep.violations)
    structural = [(v.check, v.detail) for v in rep.violations if v.check.startswith("structural:")]
    assert structural == [
        ("structural:A_1", "forbidden entry (2, 0) with weight shift (0, 1)"),
        ("structural:A_2", "forbidden entry (1, 0) with weight shift (1, 0)"),
    ]


def test_torus_multirank_checks_lowering_side():
    good = _rank2((_e(3, 1, 0), _e(3, 2, 0)), (_e(3, 0, 1), _e(3, 0, 2)))
    assert connection.validate_covariance(good, seed=1).ok

    # swapped lowering directions
    bad = _rank2((_e(3, 1, 0), _e(3, 2, 0)), (_e(3, 0, 2), _e(3, 0, 1)))
    rep = connection.validate_covariance(bad, seed=1)
    assert not rep.ok
    assert {v.check for v in rep.violations} == {
        "structural:B_1", "structural:B_2", "sampled:B_1", "sampled:B_2"
    }


def test_torus_multirank_is_exact_at_large_weights():
    o = 10**9
    w = weights.WeightData(rank=2, weights=((o, o), (o + 1, o), (o, o + 1)))
    rep = connection.validate_covariance(_rank2((_e(3, 1, 0), _e(3, 2, 0)), w=w), seed=0)
    assert rep.ok and rep.worst == 0.0
    swapped = _rank2((_e(3, 2, 0), _e(3, 1, 0)), w=w)
    assert not connection.validate_covariance(swapped, seed=0).ok


def test_rank2_involution_hermitian_and_gauge_act_on_every_pair():
    c = _rank2((_e(3, 1, 0), 2.0 * _e(3, 2, 0)), (_e(3, 0, 1), _e(3, 0, 2)))
    out = connection.involution(c)
    assert [np.count_nonzero(a + linalg.dagger(b)) for a, b in zip(out.a_list, c.b_list)] == [0, 0]
    assert connection.validate_covariance(out, seed=0).ok
    fixed = _rank2(c.a_list, tuple(-linalg.dagger(a) for a in c.a_list))
    assert connection.is_hermitian(fixed) and not connection.is_hermitian(c)
    moved = connection.gauge(c, np.diag([2.0, 4.0, 8.0]))
    assert_allclose(moved.a_list[1], 8.0 * _e(3, 2, 0), atol=0)
    assert_allclose(moved.b_list[0], 0.5 * _e(3, 0, 1), atol=0)


def test_frame_tuple_weight_rank_must_match_count():
    w = weights.WeightData(rank=2, weights=((0, 0), (1, 0)))
    with pytest.raises(DimensionMismatchError):
        _rank2((np.eye(2),), w=w)


def test_frame_tuple_defaults_and_validation():
    a = _e(2, 1, 0)
    t = connection.FrameTuple(a_list=(a,))
    assert len(t.b_list) == 1
    assert np.count_nonzero(t.b_list[0]) == 0
    assert t.rank == 1 and t.dim == 2
    with pytest.raises(DimensionMismatchError):
        connection.FrameTuple(a_list=(a,), b_list=(np.zeros((3, 3)),))
