"""Seeded property suite covering the documented invariants of every module.

Each property draws its own deterministic generator from the suite seed,
runs at desk scale (matrix sizes at most 8), and reports its worst
violation measure against the property tolerance.  Reports are plain
dictionaries ready for canonical JSON output; for a fixed seed the bytes
never change.

A property body checks one sample; :func:`_property` runs it over the
samples and reduces the results.  A NaN measure, or a ``ValueError`` from
a kernel, fails that property's row alone, with ``worst`` written as null.
"""

from __future__ import annotations

import math

import numpy as np

from . import connection, jordan, linalg, quiver, weights
from ._sampling import cnormal, unitary, well_conditioned

DEFAULT_SAMPLES = 200
DESK_MAX_DIM = 8


# ---------------------------------------------------------------------------
# measures and the sample loop


def _worst(*measures) -> float:
    """The largest of ``measures`` (0.0 for none), or NaN if any is NaN.

    Every combination of measures goes through here: Python's ``max``
    drops a NaN that does not come first, which would let a broken kernel
    pass its row.
    """
    if any(m != m for m in measures):
        return math.nan
    return float(max((0.0, *measures)))


def _failures(*holds) -> float:
    """The ``worst`` of a counted property: how many samples fail."""
    return float(sum(not h for h in holds))


def _property(tol, reduce=_worst, fixed=None):
    """Make ``one(rng, k)``, a check of sample ``k``, a suite property.

    ``one`` returns a violation measure, or with ``reduce=_failures``
    whether the sample holds.  The property ``fn(rng, samples)`` returns
    ``(worst, tol, used)`` over ``used`` samples: the suite's ``samples``,
    or ``fixed`` when given.  A ``ValueError`` (every ``ModulikitError``,
    numpy's ``LinAlgError``) gives a NaN ``worst``.
    """

    def wrap(one):
        def prop(rng, samples):
            used = samples if fixed is None else fixed
            try:
                worst = reduce(*(one(rng, k) for k in range(used)))
            except ValueError:
                worst = math.nan
            return worst, tol, used

        return prop

    return wrap


def _rel(diff, scale):
    return linalg.relative(linalg.frob(diff), scale)


def _maxabs(m) -> float:
    """Largest entry modulus of ``m``, 0.0 when it is empty."""
    return float(np.abs(m).max(initial=0.0))


# ---------------------------------------------------------------------------
# deterministic sample builders


def _invertible(rng, n):
    for _ in range(64):
        h = cnormal(rng, n)
        if np.linalg.cond(h) <= 1e3:
            return h
    raise RuntimeError("no well-conditioned sample")


def _rand_decomposition(rng):
    n = int(rng.integers(2, DESK_MAX_DIM + 1))
    return weights.decompose(weights.WeightData.of([int(x) for x in rng.integers(-3, 4, n)]))


def _pattern_pair(rng, d):
    """Random (A, B) supported exactly on the allowed shift pattern."""
    diff = d.shifts()[:, :, 0]
    a = np.where(diff == 1, cnormal(rng, d.dim), 0.0)
    b = np.where(diff == -1, cnormal(rng, d.dim), 0.0)
    return a, b


def _rand_connection(rng):
    d = _rand_decomposition(rng)
    a, b = _pattern_pair(rng, d)
    return connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))


def _rand_chain_rep(rng):
    d = _rand_decomposition(rng)
    dq = quiver.double(quiver.weight_quiver(d))
    dims = dq.dims
    mats = {a.label: cnormal(rng, dims[a.head], dims[a.tail]) for a in dq.arrows}
    return quiver.DoubleQuiverRep(quiver=dq, matrices=mats)


def _loop_rep(rng):
    dim = int(rng.integers(1, 4))
    dq = quiver.double(quiver.Quiver(dims=(dim,), arrows=(quiver.Arrow(0, 0, "A1"),)))
    mats = {a.label: cnormal(rng, dim, dim) for a in dq.arrows}
    return quiver.DoubleQuiverRep(quiver=dq, matrices=mats)


def _vertex_gauges(rng, dims, spread=False):
    gs = []
    for d in dims:
        g = _invertible(rng, d)
        if spread:
            # stretch individual rows to push the condition number up
            g = np.diag(10.0 ** rng.uniform(-1.5, 1.5, d)) @ g
        gs.append(g)
    return gs


# ---------------------------------------------------------------------------
# linalg properties


@_property(1e-10)
def _prop_sharp_involution(rng, k):
    h = well_conditioned(rng, int(rng.integers(2, 7)))
    return _rel(linalg.sharp(linalg.sharp(h)) - h, linalg.frob(h))


@_property(1e-10)
def _prop_sharp_multiplicative(rng, k):
    n = int(rng.integers(2, 7))
    h1, h2 = well_conditioned(rng, n), well_conditioned(rng, n)
    lhs = linalg.sharp(h1 @ h2)
    rhs = linalg.sharp(h1) @ linalg.sharp(h2)
    return _rel(lhs - rhs, linalg.frob(rhs))


@_property(0.0)
def _prop_lie_sharp_involution(rng, k):
    x = cnormal(rng, int(rng.integers(1, DESK_MAX_DIM + 1)))
    return _maxabs(linalg.lie_sharp(linalg.lie_sharp(x)) - x)


@_property(1e-12)
def _prop_lie_sharp_bracket(rng, k):
    n = int(rng.integers(2, DESK_MAX_DIM + 1))
    x, y = cnormal(rng, n), cnormal(rng, n)
    lhs = linalg.lie_sharp(linalg.commutator(x, y))
    rhs = linalg.commutator(linalg.lie_sharp(x), linalg.lie_sharp(y))
    return _rel(lhs - rhs, linalg.frob(lhs))


@_property(1e-10)
def _prop_hermitian_sqrt(rng, k):
    n = int(rng.integers(2, 7))
    g = well_conditioned(rng, n)
    gram = g @ linalg.dagger(g)
    h = linalg.hermitian_sqrt(gram)
    return _worst(
        1.0 if float(np.linalg.eigvalsh(h).min()) <= 0.0 else 0.0,
        linalg.frob(h - linalg.dagger(h)),
        _rel(h @ linalg.dagger(h) - gram, linalg.frob(gram)),
    )


# ---------------------------------------------------------------------------
# weights properties


@_property(0.0, _failures)
def _prop_decompose_permutation(rng, k):
    n = int(rng.integers(2, DESK_MAX_DIM + 1))
    vals = [int(x) for x in rng.integers(-3, 4, n)]
    perm = rng.permutation(n)
    d1 = weights.decompose(weights.WeightData.of(vals))
    d2 = weights.decompose(weights.WeightData.of([vals[p] for p in perm]))
    # index i of the permuted data carries the weight of original perm[i]
    inverse = {int(p): i for i, p in enumerate(perm)}
    mapped = tuple(
        weights.WeightBlock(weight=b.weight, indices=tuple(sorted(inverse[i] for i in b.indices)))
        for b in d1.blocks
    )
    return mapped == d2.blocks


@_property(0.0, _failures)
def _prop_chains_lossless(rng, k):
    d = _rand_decomposition(rng)
    runs = weights.components(d)
    if sum(b.dim for run in runs for b in run) != d.dim:
        return False
    rebuilt = tuple(
        weights.WeightBlock(weight=(run[0].weight[0] + lvl,), indices=b.indices)
        for run in runs
        for lvl, b in enumerate(run)
    )
    return rebuilt == d.blocks


@_property(1e-10)
def _prop_commutant_commutes(rng, k):
    d = _rand_decomposition(rng)
    h = weights.sample_commutant(d, seed=int(rng.integers(0, 2**32)))
    contained = weights.commutant_contains(d, h)
    fs = (
        np.diag(weights.phase_vector(d, complex(np.exp(2j * np.pi * rng.uniform()))))
        for _ in range(4)
    )
    return _worst(
        0.0 if contained else 1.0, *(_rel(f @ h - h @ f, linalg.frob(h)) for f in fs)
    )


def _bruteforce_commutant_dim(d, rng):
    """Null-space dimension of the stacked commutation constraints."""
    n = d.dim
    rows = []
    for _ in range(3):
        tau = np.exp(2j * np.pi * rng.uniform(size=d.rank))
        f = np.diag(weights.phase_vector(d, tau))
        rows.append(np.kron(np.eye(n), f) - np.kron(f.T, np.eye(n)))
    stacked = np.vstack(rows)
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int((sv < 1e-8).sum())


@_property(0.0, _failures)
def _prop_commutant_dim(rng, k):
    n = int(rng.integers(2, 6))
    rank = int(rng.integers(1, 3))
    vecs = [tuple(int(x) for x in rng.integers(-2, 3, rank)) for _ in range(n)]
    d = weights.decompose(weights.WeightData(rank=rank, weights=tuple(vecs)))
    return weights.commutant_dim(d) == _bruteforce_commutant_dim(d, rng)


# ---------------------------------------------------------------------------
# connection properties


def _pattern_max_violation(c):
    return _worst(*(v.measure for v in connection.structural_violations(c)))


@_property(1e-14)
def _prop_involution_order_2(rng, k):
    c = _rand_connection(rng)
    once = connection.involution(c)
    twice = connection.involution(once)
    return _worst(
        _pattern_max_violation(once),
        _maxabs(twice.a_list[0] - c.a_list[0]),
        _maxabs(twice.b_list[0] - c.b_list[0]),
    )


@_property(1e-10)
def _prop_involution_gauge_compat(rng, k):
    c = _rand_connection(rng)
    h = weights.sample_commutant(c.decomposition, seed=int(rng.integers(0, 2**32)))
    lhs = connection.involution(connection.gauge(c, h))
    rhs = connection.gauge(connection.involution(c), linalg.sharp(h))
    scale = max(linalg.frob(lhs.a_list[0]), linalg.frob(lhs.b_list[0]), 1.0)
    return _worst(
        _rel(lhs.a_list[0] - rhs.a_list[0], scale),
        _rel(lhs.b_list[0] - rhs.b_list[0], scale),
    )


@_property(0.0, _failures)
def _prop_purity_gauge_invariant(rng, k):
    n = int(rng.integers(2, 6))
    r = int(rng.integers(2, 4))
    if k % 2 == 0:
        # simultaneously diagonal values commute exactly
        a_list = [np.diag(cnormal(rng, 1, n)[0]) for _ in range(r)]
    else:
        a_list = [cnormal(rng, n) for _ in range(r)]
    t = connection.FrameTuple(a_list=tuple(a_list))
    h = _invertible(rng, n)
    conj = connection.FrameTuple(
        a_list=tuple(h @ a @ np.linalg.inv(h) for a in t.a_list),
        b_list=tuple(h @ b @ np.linalg.inv(h) for b in t.b_list),
    )
    return connection.is_pure(t).pure == connection.is_pure(conj).pure


@_property(0.0)
def _prop_pattern_preserved(rng, k):
    c = _rand_connection(rng)
    h = weights.sample_commutant(c.decomposition, seed=int(rng.integers(0, 2**32)))
    return _worst(
        _pattern_max_violation(connection.involution(c)),
        _pattern_max_violation(connection.gauge(c, h)),
    )


@_property(0.0, _failures)
def _prop_rank1_always_pure(rng, k):
    n = int(rng.integers(1, DESK_MAX_DIM + 1))
    t = connection.FrameTuple(a_list=(cnormal(rng, n),), b_list=(cnormal(rng, n),))
    return connection.is_pure(t).pure


@_property(0.0, _failures)
def _prop_hermitian_iff_fixed(rng, k):
    d = _rand_decomposition(rng)
    a, b = _pattern_pair(rng, d)
    if k % 2 == 0:
        b = -linalg.dagger(a)
    c = connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))
    folded = connection.involution(c)
    fixed_dist = _worst(
        _rel(folded.a_list[0] - c.a_list[0], max(linalg.frob(c.a_list[0]), 1.0)),
        _rel(folded.b_list[0] - c.b_list[0], max(linalg.frob(c.b_list[0]), 1.0)),
    )
    return connection.is_hermitian(c) == (fixed_dist <= linalg.DEFAULT_TOL)


# ---------------------------------------------------------------------------
# quiver properties


@_property(1e-14)
def _prop_moment_paper_zero(rng, k):
    rep = _loop_rep(rng) if k % 5 == 4 else _rand_chain_rep(rng)
    return _worst(*(_maxabs(mu) for mu in quiver.moment_map(rep, convention="paper")))


@_property(1e-10)
def _prop_moment_standard_equivariant(rng, k):
    rep = _rand_chain_rep(rng)
    gs = _vertex_gauges(rng, rep.quiver.dims)
    moved = quiver.gauge_action(rep, gs)
    mu = quiver.moment_map(rep, convention="standard")
    mu_moved = quiver.moment_map(moved, convention="standard")
    expects = [g @ m @ np.linalg.inv(g) for g, m in zip(gs, mu)]
    return _worst(
        *(_rel(m - e, max(linalg.frob(e), 1.0)) for m, e in zip(mu_moved, expects))
    )


@_property(1e-9)
def _prop_invariants_gauge_invariant(rng, k):
    rep = _rand_chain_rep(rng)
    gs = _vertex_gauges(rng, rep.quiver.dims, spread=True)
    moved = quiver.gauge_action(rep, gs)
    v1 = quiver.invariants(rep, max_len=6)
    v2 = quiver.invariants(moved, max_len=6)
    if not v1.entries:
        return 0.0
    scale = max(
        max(abs(t) for t in v1.entries.values()),
        max(abs(t) for t in v2.entries.values()),
        1.0,
    )
    return quiver.invariant_distance(v1, v2) / scale


def _rotation_defect(rep, word):
    """Largest trace change over the rotations of ``word``, relative to the traces."""
    traces = [quiver.cycle_trace(rep, word[r:] + word[:r]) for r in range(len(word))]
    scale = max(max(abs(t) for t in traces), 1.0)
    return _worst(*(abs(t - traces[0]) / scale for t in traces[1:]))


@_property(1e-12)
def _prop_trace_rotation_invariant(rng, k):
    rep = _rand_chain_rep(rng)
    words = quiver.enumerate_cycles(rep.quiver, max_len=5)
    return _worst(*(_rotation_defect(rep, word) for word in words[:8]))


def _bruteforce_cycles(dq, max_len):
    """All closed label words up to rotation, by exhaustive walk search.

    From every vertex it follows every walk of at most ``max_len`` arrows,
    extending a word only by the arrows that leave its current head, and
    keeps each walk that ends where it started.  It shares nothing with
    enumerate_cycles but canonical_rotation: no prenecklace rule, no
    pruning, no budget.  The tests' oracle filters every label string
    instead, on purpose, so that each search checks the other.
    """
    leaving = {}
    for a in dq.arrows:
        leaving.setdefault(a.tail, []).append(a)
    found = set()
    for start in range(len(dq.dims)):
        walks = [((), start)]
        for _ in range(max_len):
            walks = [
                (word + (a.label,), a.head) for word, head in walks for a in leaving.get(head, ())
            ]
            found.update(quiver.canonical_rotation(word) for word, head in walks if head == start)
    return sorted(found, key=lambda w: (len(w), w))


# Levels per chain of the weight doubles checked against brute force; one
# vertex with a loop is the last sample.  (1,) is the one shape without
# arrows.
_CHAIN_SHAPES = ((1,), (2,), (3,), (4,), (5,), (2, 1), (2, 2), (3, 1), (3, 2), (2, 1, 1), (2, 2, 2))


def _cycle_sample(k):
    if k == len(_CHAIN_SHAPES):
        return quiver.double(quiver.Quiver(dims=(2,), arrows=(quiver.Arrow(0, 0, "A1"),)))
    vals = []
    base = 0
    for levels in _CHAIN_SHAPES[k]:
        vals.extend(range(base, base + levels))
        base += levels + 2
    return quiver.double(quiver.weight_quiver(weights.decompose(weights.WeightData.of(vals))))


@_property(0.0, _failures, fixed=len(_CHAIN_SHAPES) + 1)
def _prop_cycles_match_bruteforce(rng, k):
    dq = _cycle_sample(k)
    return quiver.enumerate_cycles(dq, 6) == _bruteforce_cycles(dq, 6)


# ---------------------------------------------------------------------------
# jordan properties


@_property(0.0, _failures)
def _prop_tripotent_unitary_orbit(rng, k):
    p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    e = np.zeros((p, q), dtype=complex)
    e[0, 0] = 1.0
    return jordan.is_tripotent(unitary(rng, p) @ e @ linalg.dagger(unitary(rng, q)))


@_property(1e-10)
def _prop_singular_values_unitary_invariant(rng, k):
    p, q = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    z = cnormal(rng, p, q)
    moved = unitary(rng, p) @ z @ linalg.dagger(unitary(rng, q))
    return _maxabs(jordan.spectral(z).t - jordan.spectral(moved).t)


@_property(1e-12)
def _prop_triple_identity(rng, k):
    p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    u, v, x, y, z = (cnormal(rng, p, q) for _ in range(5))
    lhs = jordan.triple_product(u, v, jordan.triple_product(x, y, z))
    t1 = jordan.triple_product(jordan.triple_product(u, v, x), y, z)
    t2 = jordan.triple_product(x, jordan.triple_product(v, u, y), z)
    t3 = jordan.triple_product(x, y, jordan.triple_product(u, v, z))
    scale = max(linalg.frob(lhs), linalg.frob(t1), linalg.frob(t2), linalg.frob(t3))
    return _rel(lhs - (t1 - t2 + t3), scale)


@_property(1e-12)
def _prop_quadratic_fields_commute(rng, k):
    p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    # draws scaled into the unit ball
    u, v, z = (m / max(linalg.frob(m), 1.0) for m in (cnormal(rng, p, q) for _ in range(3)))
    bracket = jordan.field_bracket(jordan.QuadraticField(u), jordan.QuadraticField(v), z)
    return linalg.frob(bracket)


@_property(1e-10)
def _prop_spectral_roundtrip(rng, k):
    p, q = int(rng.integers(1, DESK_MAX_DIM + 1)), int(rng.integers(1, DESK_MAX_DIM + 1))
    z = cnormal(rng, p, q)
    return _rel(jordan.reconstruct(jordan.spectral(z)) - z, linalg.frob(z))


# ---------------------------------------------------------------------------
# suite driver

PROPERTIES = (
    ("linalg.sharp_involution", _prop_sharp_involution),
    ("linalg.sharp_multiplicative", _prop_sharp_multiplicative),
    ("linalg.lie_sharp_involution", _prop_lie_sharp_involution),
    ("linalg.lie_sharp_bracket", _prop_lie_sharp_bracket),
    ("linalg.hermitian_sqrt", _prop_hermitian_sqrt),
    ("weights.decompose_permutation", _prop_decompose_permutation),
    ("weights.chains_lossless", _prop_chains_lossless),
    ("weights.commutant_commutes", _prop_commutant_commutes),
    ("weights.commutant_dim_bruteforce", _prop_commutant_dim),
    ("connection.involution_order_2", _prop_involution_order_2),
    ("connection.involution_gauge_compat", _prop_involution_gauge_compat),
    ("connection.purity_gauge_invariant", _prop_purity_gauge_invariant),
    ("connection.pattern_preserved", _prop_pattern_preserved),
    ("connection.rank1_always_pure", _prop_rank1_always_pure),
    ("connection.hermitian_iff_fixed", _prop_hermitian_iff_fixed),
    ("quiver.moment_paper_zero", _prop_moment_paper_zero),
    ("quiver.moment_standard_equivariant", _prop_moment_standard_equivariant),
    ("quiver.invariants_gauge_invariant", _prop_invariants_gauge_invariant),
    ("quiver.trace_rotation_invariant", _prop_trace_rotation_invariant),
    ("quiver.cycles_match_bruteforce", _prop_cycles_match_bruteforce),
    ("jordan.tripotent_unitary_orbit", _prop_tripotent_unitary_orbit),
    ("jordan.singular_values_unitary_invariant", _prop_singular_values_unitary_invariant),
    ("jordan.triple_identity", _prop_triple_identity),
    ("jordan.quadratic_fields_commute", _prop_quadratic_fields_commute),
    ("jordan.spectral_roundtrip", _prop_spectral_roundtrip),
)


def run_properties(seed: int = 0, samples: int = DEFAULT_SAMPLES) -> dict:
    """Run every property and collect a JSON-ready report.

    A row fails when its ``worst`` exceeds its ``tol`` or is not finite;
    a non-finite ``worst`` is written as null, since JSON has no NaN.
    """
    rows = []
    failed = []
    for idx, (name, fn) in enumerate(PROPERTIES):
        worst, tol, used = fn(np.random.default_rng([int(seed), idx]), samples)
        ok = worst <= tol
        if not ok:
            failed.append(name)
        rows.append(
            {
                "name": name,
                "ok": bool(ok),
                "worst": float(worst) if math.isfinite(worst) else None,
                "tol": float(tol),
                "samples": int(used),
            }
        )
    return {
        "command": "selftest",
        "seed": int(seed),
        "samples": int(samples),
        "result": "pass" if not failed else "fail",
        "failed": failed,
        "properties": rows,
    }
