"""Graded connection pairs: covariance, purity, involution, gauge, witnesses."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modulikit import connection, linalg, weights
from modulikit.errors import (
    BadWitnessError,
    DimensionMismatchError,
    MissingWeightsError,
    NotInCommutantError,
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
    return connection.ConnectionData(decomposition=d, a=a, b=b)


def _e(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


# --- construction and validation -------------------------------------------------


def test_connection_data_locks_arrays():
    d = _decomp([0, 1])
    c = connection.ConnectionData(decomposition=d, a=_e(2, 1, 0), b=_e(2, 0, 1))
    with pytest.raises(ValueError):
        c.a[0, 0] = 5.0


def test_connection_data_rejects_wrong_shape():
    d = _decomp([0, 1])
    with pytest.raises(DimensionMismatchError):
        connection.ConnectionData(decomposition=d, a=np.eye(3), b=np.eye(3))


def test_connection_data_rejects_higher_rank():
    w = weights.WeightData(rank=2, weights=((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        connection.ConnectionData(decomposition=weights.decompose(w), a=np.eye(2), b=np.eye(2))


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
            c = connection.ConnectionData(decomposition=d, a=a, b=np.zeros((2, 2)))
            report = connection.validate_covariance(c, seed=0)
            assert not report.ok
            assert any(v.check == "structural:A" for v in report.violations)


def test_validate_flags_injected_entry():
    rng = np.random.default_rng(SEED + 1)
    good = _random_connection(rng, [0, 1, 2])
    bad_a = np.array(good.a)
    bad_a[0, 2] = 1e-6  # lowers by 2: forbidden for the raising matrix
    c = connection.ConnectionData(decomposition=good.decomposition, a=bad_a, b=good.b)
    report = connection.validate_covariance(c, seed=0)
    assert not report.ok
    hits = [v for v in report.violations if v.check == "structural:A"]
    assert len(hits) == 1
    assert "(0, 2)" in hits[0].detail
    assert hits[0].measure == pytest.approx(1e-6)


def test_validate_zero_matrices_pass():
    d = _decomp([0, 5])
    c = connection.ConnectionData(decomposition=d, a=np.zeros((2, 2)), b=np.zeros((2, 2)))
    assert connection.validate_covariance(c, seed=3).ok


@pytest.mark.parametrize("offset", [10**9, 2**40])
def test_validate_is_exact_at_large_weights(offset):
    rng = np.random.default_rng(SEED + 2)
    good = _random_connection(rng, [offset + w for w in (0, 1, 1, 2)])
    report = connection.validate_covariance(good, seed=0)
    assert report.ok and report.worst == 0.0
    bad_a = np.array(good.a)
    bad_a[0, 3] = 0.5  # lowers by 2: forbidden for the raising matrix
    bad = connection.ConnectionData(decomposition=good.decomposition, a=bad_a, b=good.b)
    checks = {v.check for v in connection.validate_covariance(bad, seed=0).violations}
    assert checks == {"structural:A", "sampled:A"}


def test_sampled_residuals_match_dense_reference():
    # small weights, so tau ** w is exact enough to serve as the reference
    rng = np.random.default_rng(SEED + 4)
    good = _random_connection(rng, [0, 1, 1, 2])
    a = good.a + cnormal(rng, 4)
    c = connection.ConnectionData(decomposition=good.decomposition, a=a, b=good.b)
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
    c = connection.ConnectionData(decomposition=d, a=_e(2, 1, 0), b=np.zeros((2, 2)))
    out = connection.involution(c)
    assert_allclose(out.a, np.zeros((2, 2)), atol=0)
    assert_allclose(out.b, -_e(2, 0, 1), atol=0)


def test_involution_is_an_involution_exactly():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(25):
        c = _random_connection(rng, [0, 0, 1, 2, 2])
        cc = connection.involution(connection.involution(c))
        assert np.array_equal(cc.a, c.a)
        assert np.array_equal(cc.b, c.b)


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
            decomposition=c.decomposition, a=c.a, b=-linalg.dagger(c.a)
        )
        assert connection.is_hermitian(fixed)
        out = connection.involution(fixed)
        assert np.array_equal(out.a, fixed.a)
        assert np.array_equal(out.b, fixed.b)
        if linalg.frob(c.b + linalg.dagger(c.a)) > 1e-6 * linalg.frob(c.a):
            assert not connection.is_hermitian(c)


# --- gauge action --------------------------------------------------------------------


def test_gauge_scalar_blocks():
    d = _decomp([0, 1])
    a = _e(2, 1, 0)
    b = _e(2, 0, 1)
    c = connection.ConnectionData(decomposition=d, a=2.0 * a, b=3.0 * b)
    h = np.diag([4.0, 6.0]).astype(complex)  # block scalars g0=4, g1=6
    out = connection.gauge(c, h)
    # A block maps g1 . a . g0^{-1}: 2 * 6/4 = 3 ; B block: 3 * 4/6 = 2
    assert_allclose(out.a, 3.0 * a, atol=1e-14)
    assert_allclose(out.b, 2.0 * b, atol=1e-14)


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
    assert np.array_equal(out.a == 0, c.a == 0)
    assert np.array_equal(out.b == 0, c.b == 0)
    assert connection.validate_covariance(out, seed=0).ok


def test_gauge_matches_block_by_block_reference():
    rng = np.random.default_rng(SEED + 12)
    c = _random_connection(rng, [0, 0, 1, 1, 1, 2, 4])
    h = weights.sample_commutant(c.decomposition, seed=13)
    blocks = [list(b.indices) for b in c.decomposition.blocks]
    want = np.zeros_like(c.a)
    for ip in blocks:
        for iq in blocks:
            hp, hq = h[np.ix_(ip, ip)], h[np.ix_(iq, iq)]
            want[np.ix_(ip, iq)] = hp @ c.a[np.ix_(ip, iq)] @ np.linalg.inv(hq)
    out = connection.gauge(c, h)
    assert np.array_equal(out.a == 0, want == 0)
    assert rel_err(out.a - want, linalg.frob(want)) <= 1e-14


def test_gauge_composes():
    rng = np.random.default_rng(SEED + 11)
    c = _random_connection(rng, [0, 0, 1, 2])
    h1 = weights.sample_commutant(c.decomposition, seed=21)
    h2 = weights.sample_commutant(c.decomposition, seed=22)
    once = connection.gauge(connection.gauge(c, h1), h2)
    both = connection.gauge(c, h2 @ h1)
    assert rel_err(once.a - both.a, linalg.frob(both.a)) <= 1e-9
    assert rel_err(once.b - both.b, linalg.frob(both.b)) <= 1e-9


def test_gauge_commutes_with_involution_through_sharp():
    rng = np.random.default_rng(SEED + 12)
    c = _random_connection(rng, [0, 1, 1, 2])
    h = weights.sample_commutant(c.decomposition, seed=31)
    lhs = connection.involution(connection.gauge(c, h))
    rhs = connection.gauge(connection.involution(c), linalg.sharp(h))
    assert rel_err(lhs.a - rhs.a, max(linalg.frob(rhs.a), 1.0)) <= 1e-9
    assert rel_err(lhs.b - rhs.b, max(linalg.frob(rhs.b), 1.0)) <= 1e-9


# --- multi-rank torus covariance ------------------------------------------------------


def test_torus_multirank_accepts_matching_pattern():
    w = weights.WeightData(rank=2, weights=((0, 0), (1, 0), (0, 1)))
    a1 = _e(3, 1, 0)  # raises the first coordinate by one
    a2 = _e(3, 2, 0)  # raises the second coordinate by one
    t = connection.FrameTuple(a_list=(a1, a2), weights=w)
    rep = connection.check_torus_multirank(t, seed=0)
    assert rep.ok and rep.worst <= 1e-12


def test_torus_multirank_rejects_wrong_shift():
    w = weights.WeightData(rank=2, weights=((0, 0), (1, 0), (0, 1)))
    a1 = _e(3, 2, 0)  # raises the second coordinate, claimed as the first
    a2 = _e(3, 1, 0)
    t = connection.FrameTuple(a_list=(a1, a2), weights=w)
    rep = connection.check_torus_multirank(t, seed=0)
    assert not rep.ok
    assert any(v.check.startswith("torus:A_1") for v in rep.violations)


def test_torus_multirank_checks_lowering_side():
    w = weights.WeightData(rank=2, weights=((0, 0), (1, 0), (0, 1)))
    t = connection.FrameTuple(
        a_list=(_e(3, 1, 0), _e(3, 2, 0)),
        b_list=(_e(3, 0, 1), _e(3, 0, 2)),
        weights=w,
    )
    assert connection.check_torus_multirank(t, seed=1).ok

    bad = connection.FrameTuple(
        a_list=(_e(3, 1, 0), _e(3, 2, 0)),
        b_list=(_e(3, 0, 2), _e(3, 0, 1)),  # swapped lowering directions
        weights=w,
    )
    assert not connection.check_torus_multirank(bad, seed=1).ok


def test_torus_multirank_is_exact_at_large_weights():
    o = 10**9
    w = weights.WeightData(rank=2, weights=((o, o), (o + 1, o), (o, o + 1)))
    good = connection.FrameTuple(a_list=(_e(3, 1, 0), _e(3, 2, 0)), weights=w)
    rep = connection.check_torus_multirank(good, seed=0)
    assert rep.ok and rep.worst == 0.0
    swapped = connection.FrameTuple(a_list=(_e(3, 2, 0), _e(3, 1, 0)), weights=w)
    assert not connection.check_torus_multirank(swapped, seed=0).ok


def test_torus_multirank_needs_weights():
    t = connection.FrameTuple(a_list=(np.eye(2),))
    with pytest.raises(MissingWeightsError):
        connection.check_torus_multirank(t, seed=0)


def test_frame_tuple_weight_rank_must_match_count():
    w = weights.WeightData(rank=2, weights=((0, 0), (1, 0)))
    with pytest.raises(DimensionMismatchError):
        connection.FrameTuple(a_list=(np.eye(2),), weights=w)


# --- stabilizer sums ---------------------------------------------------------------------


def test_stabilizer_sums_identity_witness():
    rng = np.random.default_rng(SEED + 13)
    a = cnormal(rng, 3)
    t = connection.FrameTuple(a_list=(a, a))
    wit = connection.Witness(matrix=np.eye(3), left=(1,), right=(2,))
    rep = connection.check_stabilizer_sums(t, connection.TorusWitness(witnesses=(wit,)))
    assert rep.ok and rep.checks == 1


def test_stabilizer_sums_permutation_witness():
    # k swaps coordinates 0 and 1; it carries E11 to E22
    k = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    e11, e22 = _e(3, 0, 0), _e(3, 1, 1)
    good = connection.Witness(matrix=k, left=(1,), right=(2,))
    basket = connection.TorusWitness(witnesses=(good,))

    t = connection.FrameTuple(a_list=(e11, e22))
    assert connection.check_stabilizer_sums(t, basket).ok

    t_bad = connection.FrameTuple(a_list=(e11, 2.0 * e22))
    rep = connection.check_stabilizer_sums(t_bad, basket)
    assert not rep.ok
    assert rep.violations[0].check == "witness:0"


def test_stabilizer_sums_multi_index_sets():
    rng = np.random.default_rng(SEED + 14)
    a1, a2 = cnormal(rng, 2), cnormal(rng, 2)
    # sums over {1, 2} and {3, 4} agree even though no single pair matches
    t = connection.FrameTuple(a_list=(a1, a2, a1 + a2, np.zeros((2, 2))))
    wit = connection.Witness(matrix=np.eye(2), left=(1, 2), right=(3, 4))
    assert connection.check_stabilizer_sums(t, connection.TorusWitness(witnesses=(wit,))).ok


def test_stabilizer_sums_rejects_out_of_range_position():
    t = connection.FrameTuple(a_list=(np.eye(2),))
    wit = connection.Witness(matrix=np.eye(2), left=(1,), right=(2,))
    with pytest.raises(BadWitnessError):
        connection.check_stabilizer_sums(t, connection.TorusWitness(witnesses=(wit,)))


def test_witness_validation():
    with pytest.raises(BadWitnessError):
        connection.Witness(matrix=np.eye(2), left=(1,), right=(1, 2))
    with pytest.raises(BadWitnessError):
        connection.Witness(matrix=2.0 * np.eye(2), left=(1,), right=(2,))
    with pytest.raises(BadWitnessError):
        connection.Witness(matrix=np.eye(2), left=(0,), right=(1,))
    with pytest.raises(BadWitnessError):
        connection.Witness(matrix=np.eye(2), left=(1, 1), right=(1, 2))


def test_frame_tuple_defaults_and_validation():
    a = _e(2, 1, 0)
    t = connection.FrameTuple(a_list=(a,))
    assert len(t.b_list) == 1
    assert np.count_nonzero(t.b_list[0]) == 0
    assert t.rank == 1 and t.dim == 2
    with pytest.raises(DimensionMismatchError):
        connection.FrameTuple(a_list=(a,), b_list=(np.zeros((3, 3)),))
