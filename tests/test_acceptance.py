"""Acceptance gate: one timed test per shipped guarantee.

Each criterion prints a single pass/fail line (visible with ``pytest -s``)
and asserts both the numerical bound and its runtime budget.  Tolerances
here are contractual; loosening them is a behavior change, not a tweak.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import modulikit
from modulikit import connection, jordan, linalg, quiver, weights
from util import brute_cycles, cnormal, disk_invertible, rel_err

TRIPLE = jordan.triple_product


def _stamp(n, ok, detail, budget, elapsed):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {verdict} ({elapsed:.2f}s of {budget:.0f}s) {detail}")
    assert ok, f"criterion {n} failed: {detail}"
    assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s, budget {budget:.0f}s"


def _decomp(vals):
    return weights.decompose(weights.WeightData.of(vals))


def _shift_pair(rng, d):
    """Matrices supported exactly on the raising/lowering blocks of d."""
    n = d.dim
    w = d.index_weights()[:, 0]
    diff = w[:, None] - w[None, :]
    a = np.where(diff == 1, cnormal(rng, n), 0.0)
    b = np.where(diff == -1, cnormal(rng, n), 0.0)
    return a, b


def test_criterion_01_involution_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4201)
    worst_double = worst_mult = worst_bracket = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        h = disk_invertible(rng, n)
        g = disk_invertible(rng, n)
        worst_double = max(
            worst_double, rel_err(linalg.sharp(linalg.sharp(h)) - h, np.linalg.norm(h))
        )
        prod = linalg.sharp(g @ h)
        worst_mult = max(
            worst_mult,
            rel_err(prod - linalg.sharp(g) @ linalg.sharp(h), np.linalg.norm(prod)),
        )
        x, y = cnormal(rng, n), cnormal(rng, n)
        lhs = linalg.lie_sharp(linalg.commutator(x, y))
        rhs = linalg.commutator(linalg.lie_sharp(x), linalg.lie_sharp(y))
        worst_bracket = max(
            worst_bracket, rel_err(lhs - rhs, np.linalg.norm(x) * np.linalg.norm(y))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_double <= 1e-10 and worst_mult <= 1e-10 and worst_bracket <= 1e-12
    _stamp(
        1,
        ok,
        f"sharp twice {worst_double:.1e}, multiplicative {worst_mult:.1e} (tol 1e-10); "
        f"brackets {worst_bracket:.1e} (tol 1e-12) on 500 draws",
        5.0,
        elapsed,
    )


def _scan_pairs(a_list, b_list, tol=1e-10):
    """Independent all-pairs commutator scan using the documented threshold."""
    for side, mats in (("A", a_list), ("B", b_list)):
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
                floor = max(tol * np.linalg.norm(mats[i]) * np.linalg.norm(mats[j]), 1e-12)
                if comm > floor:
                    return (side, i + 1, j + 1)
    return None


def test_criterion_02_rank_one_purity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4202)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        t = connection.FrameTuple(a_list=(cnormal(rng, n),), b_list=(cnormal(rng, n),))
        ok = ok and bool(connection.is_pure(t))
    for k in range(50):
        n = int(rng.integers(2, 6))
        noisy = (cnormal(rng, n), cnormal(rng, n))
        flat = (np.eye(n, dtype=complex), 2.0 * np.eye(n, dtype=complex))
        # alternate the offending side so both scan branches are exercised
        a_list, b_list = (noisy, flat) if k % 2 == 0 else (flat, noisy)
        res = connection.is_pure(connection.FrameTuple(a_list=a_list, b_list=b_list))
        expected = _scan_pairs(a_list, b_list)
        if expected is None:  # astronomically unlikely commuting draw
            continue
        got = (res.witness.side, res.witness.i, res.witness.j) if res.witness else None
        ok = ok and (not res.pure) and got == expected
    elapsed = time.perf_counter() - t0
    _stamp(
        2,
        ok,
        "200 rank-1 tuples pure; 50 non-commuting rank-2 tuples rejected with "
        "witnesses matching a brute-force scan",
        5.0,
        elapsed,
    )


def test_criterion_03_covariance_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4203)
    ok = True
    for k in range(100):
        n = int(rng.integers(2, 9))
        d = _decomp([int(v) for v in rng.integers(-3, 4, n)])
        a, b = _shift_pair(rng, d)
        c = connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))
        ok = ok and connection.validate_covariance(c, samples=32, tol=1e-10, seed=k).ok

        diff = d.index_weights()[:, 0][:, None] - d.index_weights()[:, 0][None, :]
        forbidden = np.argwhere(diff != 1)
        i, j = forbidden[int(rng.integers(len(forbidden)))]
        bad = np.array(a)
        bad[i, j] += 0.5
        spoiled = connection.ConnectionData(decomposition=d, a_list=(bad,), b_list=(b,))
        ok = ok and not connection.validate_covariance(spoiled, samples=32, tol=1e-10, seed=k).ok
    elapsed = time.perf_counter() - t0
    _stamp(
        3,
        ok,
        "100 weight vectors (N<=8): shift-pattern data passes the exact "
        "weight-shift pattern check; every injected forbidden entry fails",
        5.0,
        elapsed,
    )


def test_criterion_04_involution_fixed_points():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4204)
    ok = True
    worst_double = 0.0
    for k in range(200):
        n = int(rng.integers(2, 7))
        d = _decomp([int(v) for v in rng.integers(-2, 3, n)])
        a, b = _shift_pair(rng, d)
        if k < 50:
            b = -linalg.dagger(a)
        c = connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))

        cc = connection.involution(connection.involution(c))
        ok = ok and np.array_equal(cc.a_list[0] == 0, c.a_list[0] == 0) and np.array_equal(cc.b_list[0] == 0, c.b_list[0] == 0)
        scale = max(linalg.frob(c.a_list[0]), linalg.frob(c.b_list[0]), 1.0)
        worst_double = max(
            worst_double,
            max(linalg.frob(cc.a_list[0] - c.a_list[0]), linalg.frob(cc.b_list[0] - c.b_list[0])) / scale,
        )

        moved = connection.involution(c)
        residual = max(linalg.frob(moved.a_list[0] - c.a_list[0]), linalg.frob(moved.b_list[0] - c.b_list[0]))
        fixed = residual <= 1e-10 * max(linalg.frob(c.a_list[0]), 1e-14)
        ok = ok and connection.is_hermitian(c) == fixed
        if k < 50:
            ok = ok and fixed
    elapsed = time.perf_counter() - t0
    ok = ok and worst_double <= 1e-14
    _stamp(
        4,
        ok,
        f"involution squares to id (zero-pattern exact, numeric {worst_double:.1e} <= 1e-14); "
        "hermitian <=> fixed point on 200 draws incl. 50 constructed (A, -A*)",
        2.0,
        elapsed,
    )


def _loop_double(dim):
    q = quiver.Quiver(dims=(dim,), arrows=(quiver.Arrow(tail=0, head=0, label="X"),))
    return quiver.double(q)


def _chain_double_from_weights(vals):
    return quiver.double(quiver.weight_quiver(_decomp(vals)))


def _random_rep(rng, dq):
    mats = {
        a.label: cnormal(rng, dq.dims[a.head], dq.dims[a.tail]) for a in dq.arrows
    }
    return quiver.DoubleQuiverRep(quiver=dq, matrices=mats)


_CHAIN_SHAPES = [
    [0, 1],
    [0, 0, 1],
    [0, 1, 2],
    [0, 1, 1, 2],
    [0, 1, 2, 3],
    [0, 0, 1, 2, 2, 3],
    [0, 1, 2, 3, 4, 5],
    [0, 1, 2, 4, 5, 6],
]


def test_criterion_05_moment_map():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4205)
    worst_paper = 0.0
    worst_equiv = 0.0
    for k in range(200):
        if k % 10 == 9:
            dq = _loop_double(int(rng.integers(1, 4)))
        else:
            dq = _chain_double_from_weights(_CHAIN_SHAPES[int(rng.integers(len(_CHAIN_SHAPES)))])
        rep = _random_rep(rng, dq)

        for mu in quiver.moment_map(rep, convention="paper"):
            worst_paper = max(worst_paper, float(np.max(np.abs(mu))) if mu.size else 0.0)

        gs = [disk_invertible(rng, d) for d in dq.dims]
        before = quiver.moment_map(rep, convention="standard")
        after = quiver.moment_map(quiver.gauge_action(rep, gs), convention="standard")
        for g, m0, m1 in zip(gs, before, after):
            want = g @ m0 @ np.linalg.inv(g)
            worst_equiv = max(worst_equiv, rel_err(m1 - want, max(np.linalg.norm(want), 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst_paper <= 1e-14 and worst_equiv <= 1e-10
    _stamp(
        5,
        ok,
        f"paper-convention max entry {worst_paper:.1e} (tol 1e-14) on 200 reps incl. "
        f"6-vertex chains and loops; standard equivariance {worst_equiv:.1e} (tol 1e-10)",
        5.0,
        elapsed,
    )


def _scalar_rep(a_val, b_val):
    dq = _chain_double_from_weights([0, 1])
    return quiver.DoubleQuiverRep(quiver=dq, matrices={"A1": [[a_val]], "B1": [[b_val]]})


def test_criterion_06_trace_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4206)
    worst = 0.0
    worst_cond = 1.0
    shapes = [[0, 1], [0, 0, 1], [0, 1, 2], [0, 1, 1, 2]]
    for _ in range(200):
        dq = _chain_double_from_weights(shapes[int(rng.integers(len(shapes)))])
        rep = _random_rep(rng, dq)
        gs = []
        for d in dq.dims:
            g = np.diag(10.0 ** rng.uniform(-1.5, 1.5, d)) @ disk_invertible(rng, d)
            while np.linalg.cond(g) > 1e6:
                g = np.diag(10.0 ** rng.uniform(-1.5, 1.5, d)) @ disk_invertible(rng, d)
            worst_cond = max(worst_cond, float(np.linalg.cond(g)))
            gs.append(g)
        v1 = quiver.invariants(rep, max_len=6)
        v2 = quiver.invariants(quiver.gauge_action(rep, gs), max_len=6)
        scale = max(max((abs(t) for t in v1.entries.values()), default=0.0), 1.0)
        worst = max(worst, quiver.invariant_distance(v1, v2) / scale)
    invariance_ok = worst <= 1e-9 and worst_cond <= 1e6

    distinct = quiver.equivalence_certificate(_scalar_rep(1.0, 1.0), _scalar_rep(2.0, 1.0), max_len=8)
    swapped = quiver.equivalence_certificate(_scalar_rep(2.0, 3.0), _scalar_rep(3.0, 2.0), max_len=8)
    nilpotent = quiver.equivalence_certificate(_scalar_rep(1.0, 0.0), _scalar_rep(0.0, 1.0), max_len=8)
    verdicts_ok = (
        distinct.distinct
        and distinct.witness == ("A1", "B1")
        and swapped.verdict == "indistinguishable"
        and nilpotent.verdict == "indistinguishable"
    )
    elapsed = time.perf_counter() - t0
    _stamp(
        6,
        invariance_ok and verdicts_ok,
        f"gauge invariance {worst:.1e} (tol 1e-9, cond <= {worst_cond:.1e}) over 200 pairs; "
        "certificates: (1,1)/(2,1) distinct, (2,3)/(3,2) and (1,0)/(0,1) "
        "indistinguishable at max_len 8",
        10.0,
        elapsed,
    )


def test_criterion_07_jordan_layer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4207)
    worst_identity = worst_round = worst_bracket = 0.0
    for _ in range(500):
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a, b, x, y, z = (cnormal(rng, p, q) for _ in range(5))
        lhs = TRIPLE(a, b, TRIPLE(x, y, z)) - TRIPLE(x, y, TRIPLE(a, b, z))
        rhs = TRIPLE(TRIPLE(a, b, x), y, z) - TRIPLE(x, TRIPLE(b, a, y), z)
        scale = np.prod([np.linalg.norm(m) for m in (a, b, x, y, z)])
        worst_identity = max(worst_identity, rel_err(lhs - rhs, max(scale, 1e-14)))

        sd = jordan.spectral(z)
        worst_round = max(
            worst_round, rel_err(jordan.reconstruct(sd) - z, max(np.linalg.norm(z), 1e-14))
        )
    for _ in range(200):
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        u, v, z = (cnormal(rng, p, q) for _ in range(3))
        u, v, z = (m / max(np.linalg.norm(m), 1e-14) for m in (u, v, z))
        br = jordan.field_bracket(jordan.QuadraticField(u=u), jordan.QuadraticField(u=v), z)
        worst_bracket = max(worst_bracket, float(np.linalg.norm(br)))
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-12 and worst_round <= 1e-10 and worst_bracket <= 1e-12
    _stamp(
        7,
        ok,
        f"triple identity {worst_identity:.1e} (tol 1e-12) on 500 quintuples; spectral "
        f"round-trip {worst_round:.1e} (tol 1e-10); quadratic brackets {worst_bracket:.1e} "
        "(tol 1e-12) on 200 draws",
        10.0,
        elapsed,
    )


def _chain_weight_vals(parts):
    """Weight list realizing chains with the given vertex counts, gap 2 apart."""
    vals, start = [], 0
    for p in parts:
        vals.extend(range(start, start + p))
        start += p + 2
    return vals


def test_criterion_08_cycle_enumeration_oracle():
    t0 = time.perf_counter()
    partitions = [
        (1,),
        (2,), (1, 1),
        (3,), (2, 1), (1, 1, 1),
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    checked = 0
    ok = True
    for parts in partitions:
        dq = _chain_double_from_weights(_chain_weight_vals(parts))
        for max_len in range(1, 7):
            ok = ok and quiver.enumerate_cycles(dq, max_len) == brute_cycles(dq, max_len)
            checked += 1
    elapsed = time.perf_counter() - t0
    _stamp(
        8,
        ok,
        f"enumerate_cycles equals the brute-force enumerator on all {len(partitions)} "
        f"chain doubles with <=4 vertices, max_len 1..6 ({checked} comparisons)",
        5.0,
        elapsed,
    )


def test_criterion_09_cli_determinism():
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "modulikit", "selftest", "--seed", "42"]
    # the child runs the package under test, also when only pytest's pythonpath finds it
    src = str(Path(modulikit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    first = subprocess.run(cmd, capture_output=True, timeout=55, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=55, env=env)
    elapsed = time.perf_counter() - t0
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and b'"result": "pass"' in first.stdout
    )
    _stamp(
        9,
        ok,
        "selftest --seed 42 exits 0 with byte-identical reports across two runs",
        60.0,
        elapsed,
    )
