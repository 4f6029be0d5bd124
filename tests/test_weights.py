"""Weight grading tests: decomposition, chains, torus action, centralizer."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modulikit import weights
from modulikit.errors import (
    DimensionMismatchError,
    NotUnitModulusError,
    RankNotOneError,
)
from util import cnormal, rel_err

SEED = 20260814


def _brute_commutant_dim(d, rng):
    """Independent oracle: null-space dimension of h f(tau) = f(tau) h.

    Stacks the linear maps h -> f h - h f for several sampled tau and
    counts near-zero singular values.
    """
    n = d.dim
    rows = []
    for _ in range(3):
        tau = np.exp(2j * np.pi * rng.uniform(size=d.rank))
        f = weights.f_of(d, tau if d.rank > 1 else complex(tau[0]))
        rows.append(np.kron(np.eye(n), f) - np.kron(f.T, np.eye(n)))
    sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
    return int(np.sum(sv < 1e-8))


# --- decompose ----------------------------------------------------------------


def test_decompose_groups_and_sorts():
    d = weights.decompose(weights.WeightData.of([0, 0, 1, 3]))
    assert [(b.weight, b.indices) for b in d.blocks] == [
        ((0,), (0, 1)),
        ((1,), (2,)),
        ((3,), (3,)),
    ]
    assert d.dim == 4 and d.rank == 1


def test_decompose_single_index():
    d = weights.decompose(weights.WeightData.of([5]))
    assert [(b.weight, b.indices) for b in d.blocks] == [((5,), (0,))]


def test_decompose_unsorted_input():
    d = weights.decompose(weights.WeightData.of([2, 0, 1]))
    assert [(b.weight, b.indices) for b in d.blocks] == [
        ((0,), (1,)),
        ((1,), (2,)),
        ((2,), (0,)),
    ]


def test_decompose_rank2_lexicographic():
    w = weights.WeightData(rank=2, weights=((1, 0), (0, 1), (0, 0)))
    d = weights.decompose(w)
    assert [b.weight for b in d.blocks] == [(0, 0), (0, 1), (1, 0)]


def test_decompose_permutation_moves_only_indices():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        vals = [int(v) for v in rng.integers(-3, 4, n)]
        perm = rng.permutation(n)
        d1 = weights.decompose(weights.WeightData.of(vals))
        d2 = weights.decompose(weights.WeightData.of([vals[p] for p in perm]))
        inverse = {int(p): i for i, p in enumerate(perm)}
        assert [b.weight for b in d1.blocks] == [b.weight for b in d2.blocks]
        for b1, b2 in zip(d1.blocks, d2.blocks):
            assert tuple(sorted(inverse[i] for i in b1.indices)) == b2.indices


def test_weight_data_validation():
    with pytest.raises(ValueError):
        weights.WeightData(rank=0, weights=((0,),))
    with pytest.raises(ValueError):
        weights.WeightData(rank=1, weights=())
    with pytest.raises(DimensionMismatchError):
        weights.WeightData(rank=2, weights=((0,),))


@pytest.mark.parametrize(
    "w, ok", [(2**62 - 1, True), (1 - 2**62, True), (2**62, False), (-(2**62), False), (2**70, False)]
)
def test_weight_entries_must_fit_exact_differences(w, ok):
    if ok:
        assert weights.WeightData.of([0, w]).weights == ((0,), (w,))
    else:
        with pytest.raises(ValueError, match=r"weights\[1\].*out of range"):
            weights.WeightData.of([0, w])


# --- chains --------------------------------------------------------------------


def test_chains_split_at_gaps():
    d = weights.decompose(weights.WeightData.of([0, 0, 1, 3]))
    ch = weights.chains(d)
    assert [(c.base_weight, c.dims) for c in ch.chains] == [(0, (2, 1)), (3, (1,))]


def test_chains_consecutive_is_one_chain():
    d = weights.decompose(weights.WeightData.of([0, 1, 2]))
    ch = weights.chains(d)
    assert len(ch.chains) == 1
    assert ch.chains[0].dims == (1, 1, 1)


def test_chains_require_rank_one():
    w = weights.WeightData(rank=2, weights=((0, 0), (1, 0)))
    with pytest.raises(RankNotOneError):
        weights.chains(weights.decompose(w))


def test_chains_reconstruct_decomposition():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        d = weights.decompose(weights.WeightData.of([int(v) for v in rng.integers(-4, 5, n)]))
        ch = weights.chains(d)
        assert sum(sum(c.dims) for c in ch.chains) == d.dim
        rebuilt = [
            weights.WeightBlock(weight=(c.base_weight + lvl,), indices=ix)
            for c in ch.chains
            for lvl, ix in enumerate(c.indices)
        ]
        assert tuple(rebuilt) == d.blocks


# --- torus action ---------------------------------------------------------------


def test_f_of_trivial_tau():
    d = weights.decompose(weights.WeightData.of([0, 2, 5]))
    assert_allclose(weights.f_of(d, 1.0), np.eye(3), atol=0)


def test_f_of_imaginary_tau():
    d = weights.decompose(weights.WeightData.of([0, 1]))
    assert_allclose(weights.f_of(d, 1j), np.diag([1.0, 1j]), atol=1e-15)


def test_f_of_negative_weights():
    d = weights.decompose(weights.WeightData.of([-1, 1]))
    assert_allclose(weights.f_of(d, 1j), np.diag([-1j, 1j]), atol=1e-15)


def test_f_of_rank_two():
    w = weights.WeightData(rank=2, weights=((1, 0), (0, 1), (1, 1)))
    d = weights.decompose(w)
    t1, t2 = np.exp(0.3j), np.exp(-1.1j)
    got = np.diag(weights.f_of(d, (t1, t2)))
    # original index order: weights (1,0), (0,1), (1,1)
    assert_allclose(got, [t1, t2, t1 * t2], atol=1e-14)


def test_f_of_is_a_homomorphism():
    rng = np.random.default_rng(SEED + 2)
    d = weights.decompose(weights.WeightData.of([-2, 0, 0, 3]))
    for _ in range(20):
        t1, t2 = np.exp(2j * np.pi * rng.uniform(size=2))
        lhs = weights.f_of(d, complex(t1 * t2))
        rhs = weights.f_of(d, complex(t1)) @ weights.f_of(d, complex(t2))
        assert rel_err(lhs - rhs, 1.0) < 1e-12


def test_f_of_rejects_off_circle_tau():
    d = weights.decompose(weights.WeightData.of([0, 1]))
    with pytest.raises(NotUnitModulusError):
        weights.f_of(d, 2.0)
    with pytest.raises(DimensionMismatchError):
        weights.f_of(d, (1.0, 1.0))


def test_shifts_are_exact_weight_differences():
    ws = [(0, 2**61), (3, 1 - 2**61), (0, 2**61)]
    s = weights.decompose(weights.WeightData.of(ws)).shifts()
    assert s.shape == (3, 3, 2) and s.dtype == np.int64
    for i, wi in enumerate(ws):
        for j, wj in enumerate(ws):
            assert [int(x) for x in s[i, j]] == [wi[0] - wj[0], wi[1] - wj[1]]


# --- commutant -------------------------------------------------------------------


def test_commutant_contains_identity():
    d = weights.decompose(weights.WeightData.of([0, 0, 1]))
    assert weights.commutant_contains(d, np.eye(3))


def test_commutant_rejects_off_block_entry():
    d = weights.decompose(weights.WeightData.of([0, 1]))
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not weights.commutant_contains(d, e12)
    assert not weights.commutant_contains(d, np.eye(2) + 1e-3 * e12)


def test_commutant_accepts_block_diagonal():
    rng = np.random.default_rng(SEED + 3)
    d = weights.decompose(weights.WeightData.of([0, 0, 2, 2, 2]))
    h = np.zeros((5, 5), dtype=complex)
    for block in d.blocks:
        ix = list(block.indices)
        h[np.ix_(ix, ix)] = cnormal(rng, block.dim)
    assert weights.commutant_contains(d, h)


def test_commutant_of_rank2_grading_joins_only_equal_weight_vectors():
    # indices 0 and 2 share (0, 1); index 1 shares a first entry with them
    d = weights.decompose(weights.WeightData.of([(0, 1), (0, 2), (0, 1)]))
    h = np.eye(3, dtype=complex)
    h[0, 2] = h[2, 0] = 1.0
    assert weights.commutant_contains(d, h)
    h[0, 1] = 1.0
    assert not weights.commutant_contains(d, h)


def test_commutant_contains_checks_dimension():
    d = weights.decompose(weights.WeightData.of([0, 1]))
    with pytest.raises(DimensionMismatchError):
        weights.commutant_contains(d, np.eye(3))


def test_commutant_elements_commute_with_torus():
    rng = np.random.default_rng(SEED + 4)
    for k in range(25):
        n = int(rng.integers(2, 9))
        d = weights.decompose(weights.WeightData.of([int(v) for v in rng.integers(-2, 3, n)]))
        h = weights.sample_commutant(d, seed=1000 + k)
        for _ in range(4):
            f = weights.f_of(d, complex(np.exp(2j * np.pi * rng.uniform())))
            assert rel_err(f @ h - h @ f, np.linalg.norm(h)) <= 1e-10


def test_commutant_dim_values():
    assert weights.commutant_dim(weights.decompose(weights.WeightData.of([0, 0, 1]))) == 5
    assert weights.commutant_dim(weights.decompose(weights.WeightData.of([7, 7, 7]))) == 9
    assert weights.commutant_dim(weights.decompose(weights.WeightData.of([0, 1, 2]))) == 3


def test_commutant_dim_matches_bruteforce_solve():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        rank = int(rng.integers(1, 3))
        vecs = tuple(tuple(int(x) for x in rng.integers(-2, 3, rank)) for _ in range(n))
        d = weights.decompose(weights.WeightData(rank=rank, weights=vecs))
        assert weights.commutant_dim(d) == _brute_commutant_dim(d, rng)


# --- sampling ---------------------------------------------------------------------


def test_sample_commutant_is_deterministic_and_valid():
    d = weights.decompose(weights.WeightData.of([0, 0, 1, 3]))
    h1 = weights.sample_commutant(d, seed=7)
    h2 = weights.sample_commutant(d, seed=7)
    assert np.array_equal(h1, h2)
    assert not np.array_equal(h1, weights.sample_commutant(d, seed=8))
    assert weights.commutant_contains(d, h1)
    assert np.linalg.cond(h1) <= 1e6


def test_sample_commutant_distinct_weights_gives_diagonal():
    d = weights.decompose(weights.WeightData.of([0, 1, 2]))
    h = weights.sample_commutant(d, seed=3)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
