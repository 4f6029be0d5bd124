"""Seeded property suite covering the documented invariants of every module.

Each property draws its own deterministic generator from the suite seed,
runs at desk scale (matrix sizes at most 8), and reports its worst
violation measure against the property tolerance.  Reports are plain
dictionaries ready for canonical JSON output; for a fixed seed the bytes
never change.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import connection, jordan, linalg, quiver, weights
from ._sampling import cnormal, unitary, well_conditioned

DEFAULT_SAMPLES = 200
DESK_MAX_DIM = 8


# ---------------------------------------------------------------------------
# deterministic sample builders


def _invertible(rng, n, bound=1e3):
    for _ in range(64):
        h = cnormal(rng, n)
        if np.linalg.cond(h) <= bound:
            return h
    raise RuntimeError("no well-conditioned sample")


def _rel(diff, scale):
    return linalg.relative(linalg.frob(diff), scale)


def _rand_decomposition(rng, n=None, lo=-3, hi=3):
    n = int(rng.integers(2, DESK_MAX_DIM + 1)) if n is None else n
    w = weights.WeightData.of([int(x) for x in rng.integers(lo, hi + 1, n)])
    return weights.decompose(w)


def _pattern_pair(rng, d):
    """Random (A, B) supported exactly on the allowed shift pattern."""
    diff = d.shifts()[:, :, 0]
    a = np.where(diff == 1, cnormal(rng, d.dim), 0.0)
    b = np.where(diff == -1, cnormal(rng, d.dim), 0.0)
    return a, b


def _rand_connection(rng, n=None):
    d = _rand_decomposition(rng, n)
    a, b = _pattern_pair(rng, d)
    return connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))


def _rand_chain_rep(rng):
    d = _rand_decomposition(rng)
    ch = weights.chains(d)
    dq = quiver.double(quiver.chain_quiver(ch))
    dims = dq.dims
    mats = {
        a.label: cnormal(rng, dims[a.head], dims[a.tail]) for a in dq.arrows
    }
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


def _prop_sharp_involution(rng, samples):
    worst = 0.0
    for _ in range(samples):
        h = well_conditioned(rng, int(rng.integers(2, 7)))
        worst = max(worst, _rel(linalg.sharp(linalg.sharp(h)) - h, linalg.frob(h)))
    return worst, 1e-10


def _prop_sharp_multiplicative(rng, samples):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        h1, h2 = well_conditioned(rng, n), well_conditioned(rng, n)
        lhs = linalg.sharp(h1 @ h2)
        rhs = linalg.sharp(h1) @ linalg.sharp(h2)
        worst = max(worst, _rel(lhs - rhs, linalg.frob(rhs)))
    return worst, 1e-10


def _prop_lie_sharp_involution(rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = cnormal(rng, int(rng.integers(1, DESK_MAX_DIM + 1)))
        again = linalg.lie_sharp(linalg.lie_sharp(x))
        worst = max(worst, float(np.max(np.abs(again - x))) if x.size else 0.0)
    return worst, 0.0


def _prop_lie_sharp_bracket(rng, samples):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, DESK_MAX_DIM + 1))
        x, y = cnormal(rng, n), cnormal(rng, n)
        lhs = linalg.lie_sharp(linalg.commutator(x, y))
        rhs = linalg.commutator(linalg.lie_sharp(x), linalg.lie_sharp(y))
        worst = max(worst, _rel(lhs - rhs, linalg.frob(lhs)))
    return worst, 1e-12


def _prop_hermitian_sqrt(rng, samples):
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        g = well_conditioned(rng, n)
        k = g @ linalg.dagger(g)
        h = linalg.hermitian_sqrt(k)
        if float(np.linalg.eigvalsh(h).min()) <= 0.0:
            worst = max(worst, 1.0)
        worst = max(worst, linalg.frob(h - linalg.dagger(h)))
        worst = max(worst, _rel(h @ linalg.dagger(h) - k, linalg.frob(k)))
    return worst, 1e-10


# ---------------------------------------------------------------------------
# weights properties


def _prop_decompose_permutation(rng, samples):
    bad = 0
    for _ in range(samples):
        n = int(rng.integers(2, DESK_MAX_DIM + 1))
        vals = [int(x) for x in rng.integers(-3, 4, n)]
        perm = rng.permutation(n)
        d1 = weights.decompose(weights.WeightData.of(vals))
        d2 = weights.decompose(weights.WeightData.of([vals[p] for p in perm]))
        # index i of the permuted data carries the weight of original perm[i]
        inverse = {int(p): i for i, p in enumerate(perm)}
        mapped = tuple(
            weights.WeightBlock(
                weight=b.weight,
                indices=tuple(sorted(inverse[i] for i in b.indices)),
            )
            for b in d1.blocks
        )
        if mapped != d2.blocks:
            bad += 1
    return float(bad), 0.0


def _prop_chains_lossless(rng, samples):
    bad = 0
    for _ in range(samples):
        d = _rand_decomposition(rng)
        ch = weights.chains(d)
        if sum(sum(c.dims) for c in ch.chains) != d.dim:
            bad += 1
            continue
        rebuilt = []
        for c in ch.chains:
            for lvl, ix in enumerate(c.indices):
                rebuilt.append(weights.WeightBlock(weight=(c.base_weight + lvl,), indices=ix))
        if tuple(rebuilt) != d.blocks:
            bad += 1
    return float(bad), 0.0


def _prop_commutant_commutes(rng, samples):
    worst = 0.0
    for k in range(samples):
        d = _rand_decomposition(rng)
        h = weights.sample_commutant(d, seed=int(rng.integers(0, 2**32)))
        if not weights.commutant_contains(d, h):
            worst = max(worst, 1.0)
        for _ in range(4):
            tau = complex(np.exp(2j * np.pi * rng.uniform()))
            f = weights.f_of(d, tau)
            worst = max(worst, _rel(f @ h - h @ f, linalg.frob(h)))
    return worst, 1e-10


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
    return int(np.sum(sv < 1e-8))


def _prop_commutant_dim(rng, samples):
    bad = 0
    for _ in range(samples):
        n = int(rng.integers(2, 6))
        rank = int(rng.integers(1, 3))
        vecs = [tuple(int(x) for x in rng.integers(-2, 3, rank)) for _ in range(n)]
        d = weights.decompose(weights.WeightData(rank=rank, weights=tuple(vecs)))
        if weights.commutant_dim(d) != _bruteforce_commutant_dim(d, rng):
            bad += 1
    return float(bad), 0.0


# ---------------------------------------------------------------------------
# connection properties


def _pattern_max_violation(c):
    bad = connection.structural_violations(c)
    return max((v.measure for v in bad), default=0.0)


def _prop_involution_order_2(rng, samples):
    worst = 0.0
    for _ in range(samples):
        c = _rand_connection(rng)
        once = connection.involution(c)
        twice = connection.involution(once)
        worst = max(worst, _pattern_max_violation(once))
        delta = max(
            float(np.max(np.abs(twice.a_list[0] - c.a_list[0]))),
            float(np.max(np.abs(twice.b_list[0] - c.b_list[0]))),
        )
        worst = max(worst, delta)
    return worst, 1e-14


def _prop_involution_gauge_compat(rng, samples):
    worst = 0.0
    for _ in range(samples):
        c = _rand_connection(rng)
        h = weights.sample_commutant(c.decomposition, seed=int(rng.integers(0, 2**32)))
        lhs = connection.involution(connection.gauge(c, h))
        rhs = connection.gauge(connection.involution(c), linalg.sharp(h))
        scale = max(linalg.frob(lhs.a_list[0]), linalg.frob(lhs.b_list[0]), 1.0)
        worst = max(
            worst,
            _rel(lhs.a_list[0] - rhs.a_list[0], scale),
            _rel(lhs.b_list[0] - rhs.b_list[0], scale),
        )
    return worst, 1e-10


def _prop_purity_gauge_invariant(rng, samples):
    bad = 0
    for k in range(samples):
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
        if connection.is_pure(t).pure != connection.is_pure(conj).pure:
            bad += 1
    return float(bad), 0.0


def _prop_pattern_preserved(rng, samples):
    worst = 0.0
    for _ in range(samples):
        c = _rand_connection(rng)
        h = weights.sample_commutant(c.decomposition, seed=int(rng.integers(0, 2**32)))
        worst = max(worst, _pattern_max_violation(connection.involution(c)))
        worst = max(worst, _pattern_max_violation(connection.gauge(c, h)))
    return worst, 0.0


def _prop_rank1_always_pure(rng, samples):
    bad = 0
    for _ in range(samples):
        n = int(rng.integers(1, DESK_MAX_DIM + 1))
        t = connection.FrameTuple(a_list=(cnormal(rng, n),), b_list=(cnormal(rng, n),))
        if not connection.is_pure(t).pure:
            bad += 1
    return float(bad), 0.0


def _prop_hermitian_iff_fixed(rng, samples):
    bad = 0
    for k in range(samples):
        d = _rand_decomposition(rng)
        a, b = _pattern_pair(rng, d)
        if k % 2 == 0:
            b = -linalg.dagger(a)
        c = connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))
        folded = connection.involution(c)
        fixed_dist = max(
            _rel(folded.a_list[0] - c.a_list[0], max(linalg.frob(c.a_list[0]), 1.0)),
            _rel(folded.b_list[0] - c.b_list[0], max(linalg.frob(c.b_list[0]), 1.0)),
        )
        if connection.is_hermitian(c) != (fixed_dist <= linalg.DEFAULT_TOL):
            bad += 1
    return float(bad), 0.0


# ---------------------------------------------------------------------------
# quiver properties


def _prop_moment_paper_zero(rng, samples):
    worst = 0.0
    for k in range(samples):
        rep = _loop_rep(rng) if k % 5 == 4 else _rand_chain_rep(rng)
        for mu in quiver.moment_map(rep, convention="paper"):
            if mu.size:
                worst = max(worst, float(np.max(np.abs(mu))))
    return worst, 1e-14


def _prop_moment_standard_equivariant(rng, samples):
    worst = 0.0
    for _ in range(samples):
        rep = _rand_chain_rep(rng)
        gs = _vertex_gauges(rng, rep.quiver.dims)
        moved = quiver.gauge_action(rep, gs)
        mu = quiver.moment_map(rep, convention="standard")
        mu_moved = quiver.moment_map(moved, convention="standard")
        for v, g in enumerate(gs):
            expect = g @ mu[v] @ np.linalg.inv(g)
            worst = max(worst, _rel(mu_moved[v] - expect, max(linalg.frob(expect), 1.0)))
    return worst, 1e-10


def _prop_invariants_gauge_invariant(rng, samples):
    worst = 0.0
    for _ in range(samples):
        rep = _rand_chain_rep(rng)
        gs = _vertex_gauges(rng, rep.quiver.dims, spread=True)
        moved = quiver.gauge_action(rep, gs)
        v1 = quiver.invariants(rep, max_len=6)
        v2 = quiver.invariants(moved, max_len=6)
        if not v1.entries:
            continue
        scale = max(
            max(abs(t) for t in v1.entries.values()),
            max(abs(t) for t in v2.entries.values()),
            1.0,
        )
        worst = max(worst, quiver.invariant_distance(v1, v2) / scale)
    return worst, 1e-9


def _prop_trace_rotation_invariant(rng, samples):
    worst = 0.0
    for _ in range(samples):
        rep = _rand_chain_rep(rng)
        words = quiver.enumerate_cycles(rep.quiver, max_len=5)
        for word in words[:8]:
            traces = [
                quiver.cycle_trace(rep, word[r:] + word[:r]) for r in range(len(word))
            ]
            scale = max(max(abs(t) for t in traces), 1.0)
            for t in traces[1:]:
                worst = max(worst, abs(t - traces[0]) / scale)
    return worst, 1e-12


def _bruteforce_cycles(dq, max_len):
    """All closed label words up to rotation, by exhaustive search.

    The tests keep their own copy of this oracle on purpose, so that a
    fault here cannot hide the same fault in enumerate_cycles.
    """
    by_label = {a.label: a for a in dq.arrows}
    labels = sorted(by_label)
    found = set()
    for length in range(1, max_len + 1):
        for combo in itertools.product(labels, repeat=length):
            ok = True
            for k in range(length):
                here = by_label[combo[k]]
                after = by_label[combo[(k + 1) % length]]
                if here.head != after.tail:
                    ok = False
                    break
            if ok:
                found.add(quiver.canonical_rotation(combo))
    return sorted(found, key=lambda w: (len(w), w))


def _chain_shape_family():
    shapes = [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)]
    family = []
    for shape in shapes:
        vals = []
        base = 0
        for levels in shape:
            vals.extend(range(base, base + levels))
            base += levels + 2
        d = weights.decompose(weights.WeightData.of(vals))
        family.append(quiver.double(quiver.chain_quiver(weights.chains(d))))
    family.append(quiver.double(quiver.Quiver(dims=(2,), arrows=(quiver.Arrow(0, 0, "A1"),))))
    return family


def _prop_cycles_match_bruteforce(rng, samples):
    bad = 0
    family = _chain_shape_family()
    for dq in family:
        if quiver.enumerate_cycles(dq, 6) != _bruteforce_cycles(dq, 6):
            bad += 1
    return float(bad), 0.0, len(family)


# ---------------------------------------------------------------------------
# jordan properties


def _prop_tripotent_unitary_orbit(rng, samples):
    bad = 0
    for _ in range(samples):
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        e = np.zeros((p, q), dtype=complex)
        e[0, 0] = 1.0
        moved = unitary(rng, p) @ e @ linalg.dagger(unitary(rng, q))
        if not jordan.is_tripotent(moved):
            bad += 1
    return float(bad), 0.0


def _prop_singular_values_unitary_invariant(rng, samples):
    worst = 0.0
    for _ in range(samples):
        p, q = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        z = cnormal(rng, p, q)
        moved = unitary(rng, p) @ z @ linalg.dagger(unitary(rng, q))
        t1 = jordan.spectral(z).t
        t2 = jordan.spectral(moved).t
        worst = max(worst, float(np.max(np.abs(t1 - t2))))
    return worst, 1e-10


def _prop_triple_identity(rng, samples):
    worst = 0.0
    for _ in range(samples):
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        u, v, x, y, z = (cnormal(rng, p, q) for _ in range(5))
        lhs = jordan.triple_product(u, v, jordan.triple_product(x, y, z))
        t1 = jordan.triple_product(jordan.triple_product(u, v, x), y, z)
        t2 = jordan.triple_product(x, jordan.triple_product(v, u, y), z)
        t3 = jordan.triple_product(x, y, jordan.triple_product(u, v, z))
        rhs = t1 - t2 + t3
        scale = max(linalg.frob(lhs), linalg.frob(t1), linalg.frob(t2), linalg.frob(t3))
        worst = max(worst, _rel(lhs - rhs, scale))
    return worst, 1e-12


def _prop_quadratic_fields_commute(rng, samples):
    worst = 0.0
    for _ in range(samples):
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        draws = []
        for _ in range(3):
            m = cnormal(rng, p, q)
            n = linalg.frob(m)
            draws.append(m / n if n > 1.0 else m)
        u, v, z = draws
        bracket = jordan.field_bracket(jordan.QuadraticField(u), jordan.QuadraticField(v), z)
        worst = max(worst, linalg.frob(bracket))
    return worst, 1e-12


def _prop_spectral_roundtrip(rng, samples):
    worst = 0.0
    for _ in range(samples):
        p, q = int(rng.integers(1, DESK_MAX_DIM + 1)), int(rng.integers(1, DESK_MAX_DIM + 1))
        z = cnormal(rng, p, q)
        back = jordan.reconstruct(jordan.spectral(z))
        worst = max(worst, _rel(back - z, linalg.frob(z)))
    return worst, 1e-10


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
    """Run every property and collect a JSON-ready report."""
    rows = []
    failed = []
    for idx, (name, fn) in enumerate(PROPERTIES):
        rng = np.random.default_rng([int(seed), idx])
        out = fn(rng, samples)
        worst, tol = out[0], out[1]
        used = out[2] if len(out) > 2 else samples
        ok = worst <= tol
        if not ok:
            failed.append(name)
        rows.append(
            {
                "name": name,
                "ok": bool(ok),
                "worst": float(worst),
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
