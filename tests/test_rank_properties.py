"""Seeded properties of the connection layer at torus ranks 1, 2 and 3.

Each draw is a random grading with a repeated weight (a weight block of
dimension at least 2) and at least one allowed shift, with connection
data nonzero on every allowed entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from modulikit import connection, linalg, quiver, weights
from util import f_of, pattern_connection, rel_err

SEED = 31337
DRAWS = 12
RANKS = [1, 2, 3]


def _grading(rng, rank):
    n = int(rng.integers(rank + 2, 8))
    w = rng.integers(-1, 2, size=(n, rank))
    w[1] = w[0]
    w[2] = w[0] + np.eye(rank, dtype=int)[rng.integers(rank)]
    w = w[rng.permutation(n)]
    return weights.decompose(weights.WeightData(rank=rank, weights=tuple(map(tuple, w.tolist()))))


def _draws(rank):
    rng = np.random.default_rng([SEED, rank])
    for _ in range(DRAWS):
        d = _grading(rng, rank)
        yield rng, d, pattern_connection(rng, d)


def _same(c1, c2):
    pairs = zip(c1.a_list + c1.b_list, c2.a_list + c2.b_list)
    return c1.decomposition == c2.decomposition and all(np.array_equal(x, y) for x, y in pairs)


def _with_forbidden_entry(rng, c):
    """``c`` with one nonzero entry off the pattern, its matrix name and its position."""
    mats = list(c.graded_matrices())
    k = int(rng.integers(len(mats)))
    name, m, target = mats[k]
    off = np.argwhere((c.decomposition.shifts() != target).any(axis=-1))
    i, j = off[rng.integers(len(off))]
    m = m.copy()
    m[i, j] = 1.0 + 1.0j
    parts = [*c.a_list, *c.b_list]
    parts[k] = m
    bad = connection.ConnectionData(
        decomposition=c.decomposition, a_list=tuple(parts[: c.rank]), b_list=tuple(parts[c.rank :])
    )
    return bad, name, (int(i), int(j))


@pytest.mark.parametrize("rank", RANKS)
def test_pattern_data_passes_validate(rank):
    for _, d, c in _draws(rank):
        assert d.rank == rank and max(b.dim for b in d.blocks) >= 2
        report = connection.validate_covariance(c)
        assert report.ok and report.violations == () and report.worst == 0.0


@pytest.mark.parametrize("rank", RANKS)
def test_one_forbidden_entry_fails_validate_with_its_check_name(rank):
    for rng, d, c in _draws(rank):
        bad, name, (i, j) = _with_forbidden_entry(rng, c)
        assert name in (("A", "B") if rank == 1 else [f"{s}_{k}" for s in "AB" for k in range(1, rank + 1)])
        report = connection.validate_covariance(bad)
        assert not report.ok
        structural = [v for v in report.violations if v.check.startswith("structural:")]
        assert [v.check for v in structural] == [f"structural:{name}"]
        assert structural[0].detail.startswith(f"forbidden entry ({i}, {j}) ")
        assert len(report.violations) == 1 and report.checks == 2 * rank * d.dim**2


def _covariant_at(c, taus):
    """The definition: ``f(tau) M f(tau)^{-1} = tau^t M`` for every graded M at every tau."""
    for tau in taus:
        f = f_of(c.decomposition, tau)
        finv = np.linalg.inv(f)
        for _, m, t in c.graded_matrices():
            if not linalg.frob(f @ m @ finv - np.prod(tau**t) * m) <= 1e-10 * linalg.frob(m):
                return False
    return True


@pytest.mark.parametrize("rank", RANKS)
def test_validate_agrees_with_the_covariance_definition(rank):
    # weights lie in [-1, 2], so tau ** t and f(tau) are exact enough to be the oracle
    verdicts = []
    for rng, _, c in _draws(rank):
        taus = np.exp(2j * np.pi * rng.uniform(size=(8, rank)))
        for data in (c, _with_forbidden_entry(rng, c)[0]):
            ok = connection.validate_covariance(data).ok
            assert ok == _covariant_at(data, taus)
            verdicts.append(ok)
    assert verdicts == [True, False] * DRAWS


@pytest.mark.parametrize("rank", RANKS)
def test_involution_has_order_two(rank):
    for _, _, c in _draws(rank):
        once = connection.involution(c)
        assert not _same(once, c)
        assert _same(connection.involution(once), c)


@pytest.mark.parametrize("rank", RANKS)
def test_gauge_is_compatible_with_the_involution(rank):
    # involution(h . c) = sharp(h) . involution(c)
    for rng, d, c in _draws(rank):
        h = weights.sample_commutant(d, seed=int(rng.integers(2**32)))
        lhs = connection.involution(connection.gauge(c, h))
        rhs = connection.gauge(connection.involution(c), linalg.sharp(h))
        for x, y in zip(lhs.a_list + lhs.b_list, rhs.a_list + rhs.b_list):
            assert rel_err(x - y, max(linalg.frob(x), 1.0)) <= 1e-10


@pytest.mark.parametrize("rank", RANKS)
def test_hermitian_iff_fixed_point(rank):
    for _, d, c in _draws(rank):
        fixed = connection.ConnectionData(
            decomposition=d, a_list=c.a_list, b_list=tuple(-linalg.dagger(a) for a in c.a_list)
        )
        for data in (c, fixed):
            assert connection.is_hermitian(data) == _same(connection.involution(data), data)
        assert connection.is_hermitian(fixed) and not connection.is_hermitian(c)


@pytest.mark.parametrize("rank", RANKS)
def test_purity_is_gauge_invariant(rank):
    verdicts = set()
    for rng, d, c in _draws(rank):
        # with all but the first raising and lowering matrix zeroed, the
        # data is pure at every rank
        first = connection.ConnectionData(
            decomposition=d,
            a_list=c.a_list[:1] + tuple(np.zeros_like(a) for a in c.a_list[1:]),
            b_list=c.b_list[:1] + tuple(np.zeros_like(b) for b in c.b_list[1:]),
        )
        h = weights.sample_commutant(d, seed=int(rng.integers(2**32)))
        for data in (c, first):
            pure = connection.is_pure(data).pure
            assert connection.is_pure(connection.gauge(data, h)).pure == pure
            verdicts.add(pure)
    assert verdicts == ({True} if rank == 1 else {True, False})


@pytest.mark.parametrize("rank", RANKS)
def test_weight_double_round_trip_is_exact(rank):
    for _, d, c in _draws(rank):
        assert _same(quiver.to_connection(quiver.from_connection(c), d), c)
