"""Weight doubles: block extraction, moment maps, cycles, trace invariants."""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modulikit import cli, connection, jsonio, quiver, weights
from modulikit.errors import (
    CovarianceViolationError,
    DimensionMismatchError,
    QuiverMismatchError,
)
from util import brute_cycles, disk_invertible, pattern_connection, rel_err

SEED = 90210


def _decomp(vals):
    return weights.decompose(weights.WeightData.of(vals))


def _chain_double(vals):
    return quiver.double(quiver.weight_quiver(_decomp(vals)))


# the commuting square: weights (0,0), (1,0), (0,1) and (1,1) twice
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 1)]


def _scalar_chain_rep(a_val, b_val):
    dq = _chain_double([0, 1])
    return quiver.DoubleQuiverRep(
        quiver=dq,
        matrices={"A1": [[a_val]], "B1": [[b_val]]},
    )


def _random_rep(rng, dq):
    mats = {
        a.label: rng.standard_normal((dq.dims[a.head], dq.dims[a.tail]))
        + 1j * rng.standard_normal((dq.dims[a.head], dq.dims[a.tail]))
        for a in dq.arrows
    }
    return quiver.DoubleQuiverRep(quiver=dq, matrices=mats)


# --- quiver construction ----------------------------------------------------------


def test_chain_quiver_shape():
    q = quiver.weight_quiver(_decomp([0, 0, 1, 3]))
    assert q.dims == (2, 1, 1)
    assert [(a.tail, a.head, a.label) for a in q.arrows] == [(0, 1, "A1")]


def test_chain_quiver_numbers_arrows_globally():
    q = quiver.weight_quiver(_decomp([0, 1, 2, 5, 6]))
    assert q.dims == (1, 1, 1, 1, 1)
    assert [a.label for a in q.arrows] == ["A1", "A2", "A3"]
    assert [(a.tail, a.head) for a in q.arrows] == [(0, 1), (1, 2), (3, 4)]


def test_weight_quiver_of_the_commuting_square():
    q = quiver.weight_quiver(_decomp(SQUARE))
    assert q.dims == (1, 1, 1, 2)
    assert [(a.label, a.tail, a.head) for a in q.arrows] == [
        ("A1", 0, 2),
        ("A2", 0, 1),
        ("A3", 1, 3),
        ("A4", 2, 3),
    ]


def test_rank1_weight_quiver_chains_each_run():
    rng = np.random.default_rng(SEED + 12)
    for _ in range(200):
        d = _decomp([int(v) for v in rng.integers(-5, 6, int(rng.integers(1, 10)))])
        # the rank-1 runs rule: an arrow joins each pair of consecutive weights
        want = [
            (v, v + 1)
            for v, (lo, hi) in enumerate(zip(d.blocks, d.blocks[1:]))
            if hi.weight[0] == lo.weight[0] + 1
        ]
        q = quiver.weight_quiver(d)
        assert q.dims == tuple(b.dim for b in d.blocks)
        assert [(a.tail, a.head) for a in q.arrows] == want
        assert [a.label for a in q.arrows] == [f"A{k}" for k in range(1, len(want) + 1)]


def test_double_pairs_and_orientation():
    dq = _chain_double([0, 1, 2])
    assert dq.pairs == (("A1", "B1"), ("A2", "B2"))
    for orig, opp in dq.pairs:
        fwd, rev = dq.by_label[orig], dq.by_label[opp]
        assert (fwd.tail, fwd.head) == (rev.head, rev.tail)
    assert dq.opposites["A1"] == "B1"
    assert dq.opposites["B2"] == "A2"


def test_double_of_loop_uses_op_suffix():
    q = quiver.Quiver(dims=(2,), arrows=(quiver.Arrow(tail=0, head=0, label="X"),))
    dq = quiver.double(q)
    assert dq.pairs == (("X", "X_op"),)
    q = quiver.Quiver(dims=(2,), arrows=(quiver.Arrow(tail=0, head=0, label="A"),))
    assert quiver.double(q).pairs == (("A", "B"),)


def test_double_rejects_label_collision():
    q = quiver.Quiver(
        dims=(1, 1),
        arrows=(
            quiver.Arrow(tail=0, head=1, label="A1"),
            quiver.Arrow(tail=1, head=0, label="B1"),
        ),
    )
    with pytest.raises(ValueError):
        quiver.double(q)


@pytest.mark.parametrize("label", [7, None])
def test_quiver_rejects_non_string_labels(label):
    arrows = (quiver.Arrow(0, 0, "X"), quiver.Arrow(0, 0, label))
    with pytest.raises(ValueError, match=rf"arrows\[1\]\.label must be a string, got {label!r}"):
        quiver.Quiver(dims=(1,), arrows=arrows)
    with pytest.raises(ValueError, match=r"arrows\[0\]\.label"):
        quiver.double(quiver.Quiver(dims=(1,), arrows=arrows[1:]))


@pytest.mark.parametrize(
    "dims, arrow, match",
    [
        ((2.7, 1), quiver.Arrow(0, 1, "A1"), r"dims\[0\] must be an integer, got 2\.7"),
        ((2, True), quiver.Arrow(0, 1, "A1"), r"dims\[1\] must be an integer, got True"),
        ((2, 1), quiver.Arrow(0.0, 1, "A1"), r"arrows\[0\]\.tail must be an integer, got 0\.0"),
        ((2, 1), quiver.Arrow(0, True, "A1"), r"arrows\[0\]\.head must be an integer, got True"),
    ],
)
def test_quiver_integer_fields_are_not_truncated(dims, arrow, match):
    with pytest.raises(ValueError, match=match):
        quiver.Quiver(dims=dims, arrows=(arrow,))


def test_quiver_arrows_must_be_arrows():
    with pytest.raises(ValueError, match=r"arrows\[0\] must be an Arrow, got \(0, 0, 'x'\)"):
        quiver.Quiver(dims=(1,), arrows=((0, 0, "x"),))


def test_same_quiver_ignores_arrow_order():
    dq = _chain_double([0, 1])
    reordered = quiver.DoubleQuiver(dims=dq.dims, arrows=tuple(reversed(dq.arrows)))
    assert quiver.same_quiver(dq, reordered)
    assert not quiver.same_quiver(dq, _chain_double([0, 1, 2]))


def test_rep_shape_validation():
    dq = _chain_double([0, 0, 1])
    with pytest.raises(DimensionMismatchError):
        quiver.DoubleQuiverRep(quiver=dq, matrices={"A1": np.zeros((2, 2)), "B1": np.zeros((2, 1))})
    with pytest.raises(DimensionMismatchError):
        quiver.DoubleQuiverRep(quiver=dq, matrices={"A1": np.zeros((1, 2))})
    with pytest.raises(DimensionMismatchError):
        quiver.DoubleQuiverRep(
            quiver=dq,
            matrices={"A1": np.zeros((1, 2)), "B1": np.zeros((2, 1)), "C9": np.eye(1)},
        )


# --- connection <-> representation --------------------------------------------------


def test_from_connection_extracts_blocks():
    d = _decomp([0, 0, 1, 3])
    a = np.zeros((4, 4), dtype=complex)
    b = np.zeros((4, 4), dtype=complex)
    a[2, 0], a[2, 1] = 5.0, 6.0
    b[0, 2], b[1, 2] = 7.0, 8.0
    c = connection.ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))
    rep = quiver.from_connection(c)
    assert rep.quiver.dims == (2, 1, 1)
    assert_allclose(rep.matrices["A1"], [[5.0, 6.0]], atol=0)
    assert_allclose(rep.matrices["B1"], [[7.0], [8.0]], atol=0)


@pytest.mark.parametrize(
    "vals",
    [[0, 0, 1, 2, 2, 4, 5], SQUARE + [(2, 1), (3, 1), (2, 2), (2, 2), (-1, 0)]],
    ids=["rank1", "rank2"],
)
def test_connection_round_trip_is_exact(vals):
    d = _decomp(vals)
    c = pattern_connection(np.random.default_rng(SEED), d)
    back = quiver.to_connection(quiver.from_connection(c), d)
    assert back.decomposition == d
    for m2, m in zip(back.a_list + back.b_list, c.a_list + c.b_list):
        assert np.array_equal(m2, m)


def test_to_connection_needs_the_weight_double_of_its_grading():
    # dims (1, 1) against (2, 1): the 1x1 blocks would broadcast into 1x2 ones
    rep = _scalar_chain_rep(1.0, 2.0)
    for vals in ([0, 0, 1], [0, 1, 2]):
        with pytest.raises(QuiverMismatchError):
            quiver.to_connection(rep, _decomp(vals))


def _forbidden_rank1():
    d = _decomp([0, 1])
    return connection.ConnectionData(decomposition=d, a_list=(np.eye(2),), b_list=(np.zeros((2, 2)),))


def _forbidden_rank2():
    # A_2 joins weight (0, 0) to (1, 0), a shift of e_1 that only A_1 may use
    a = np.zeros((2, 5, 5))
    a[1, 1, 0] = 1.0
    return connection.ConnectionData(decomposition=_decomp(SQUARE), a_list=tuple(a))


@pytest.mark.parametrize("make", [_forbidden_rank1, _forbidden_rank2], ids=["rank1", "rank2"])
def test_from_connection_rejects_forbidden_entries(make):
    with pytest.raises(CovarianceViolationError):
        quiver.from_connection(make())


# --- moment maps ----------------------------------------------------------------------


def test_moment_map_paper_vanishes():
    # the same products enter with both signs; only summation-order roundoff
    # survives, far below the 1e-14 contract
    rng = np.random.default_rng(SEED + 1)
    rep = _random_rep(rng, _chain_double([0, 0, 1, 1, 2]))
    for mu in quiver.moment_map(rep, convention="paper"):
        assert np.max(np.abs(mu)) <= 1e-14


def test_moment_map_paper_vanishes_on_loop():
    rng = np.random.default_rng(SEED + 2)
    q = quiver.Quiver(dims=(3,), arrows=(quiver.Arrow(tail=0, head=0, label="X"),))
    rep = _random_rep(rng, quiver.double(q))
    (mu,) = quiver.moment_map(rep, convention="paper")
    assert np.max(np.abs(mu)) <= 1e-14


def test_moment_map_standard_scalar_chain():
    rep = _scalar_chain_rep(1.0, 1.0)
    mu = quiver.moment_map(rep, convention="standard")
    assert_allclose(mu[0], [[-1.0]], atol=0)
    assert_allclose(mu[1], [[1.0]], atol=0)


def test_moment_map_standard_is_equivariant():
    rng = np.random.default_rng(SEED + 3)
    dq = _chain_double([0, 0, 1, 2])
    rep = _random_rep(rng, dq)
    gs = [disk_invertible(rng, d) for d in dq.dims]
    mu_before = quiver.moment_map(rep, convention="standard")
    mu_after = quiver.moment_map(quiver.gauge_action(rep, gs), convention="standard")
    for g, m0, m1 in zip(gs, mu_before, mu_after):
        expected = g @ m0 @ np.linalg.inv(g)
        assert rel_err(m1 - expected, max(np.linalg.norm(expected), 1.0)) <= 1e-9


def test_moment_map_rejects_unknown_convention():
    rep = _scalar_chain_rep(1.0, 1.0)
    with pytest.raises(ValueError):
        quiver.moment_map(rep, convention="other")


# --- gauge action -----------------------------------------------------------------------


def test_gauge_action_scalar_values():
    rep = _scalar_chain_rep(1.0, 1.0)
    out = quiver.gauge_action(rep, [np.eye(1) * 2.0, np.eye(1) * 3.0])
    assert_allclose(out.matrices["A1"], [[1.5]], atol=1e-15)  # 3 * 1 / 2
    assert_allclose(out.matrices["B1"], [[2.0 / 3.0]], atol=1e-15)


def test_gauge_action_composes():
    rng = np.random.default_rng(SEED + 4)
    dq = _chain_double([0, 1, 1])
    rep = _random_rep(rng, dq)
    g1 = [disk_invertible(rng, d) for d in dq.dims]
    g2 = [disk_invertible(rng, d) for d in dq.dims]
    twice = quiver.gauge_action(quiver.gauge_action(rep, g1), g2)
    once = quiver.gauge_action(rep, [a @ b for a, b in zip(g2, g1)])
    for label in twice.matrices:
        assert rel_err(
            twice.matrices[label] - once.matrices[label],
            max(np.linalg.norm(once.matrices[label]), 1.0),
        ) <= 1e-9


def test_gauge_action_validates_sizes():
    rep = _scalar_chain_rep(1.0, 1.0)
    with pytest.raises(DimensionMismatchError):
        quiver.gauge_action(rep, [np.eye(1)])
    with pytest.raises(DimensionMismatchError):
        quiver.gauge_action(rep, [np.eye(1), np.eye(2)])


# --- cycle enumeration -------------------------------------------------------------------


def test_canonical_rotation_picks_least():
    assert quiver.canonical_rotation(("B1", "A1")) == ("A1", "B1")
    assert quiver.canonical_rotation(("A2", "B2", "B1", "A1")) == ("A1", "A2", "B2", "B1")
    assert quiver.canonical_rotation(("A1",)) == ("A1",)


def test_enumerate_cycles_single_pair():
    dq = _chain_double([0, 1])
    assert quiver.enumerate_cycles(dq, 2) == [("A1", "B1")]
    assert quiver.enumerate_cycles(dq, 1) == []
    with pytest.raises(ValueError, match="max_len must be >= 1, got 0"):
        quiver.enumerate_cycles(dq, 0)


def test_enumerate_cycles_two_pair_chain():
    dq = _chain_double([0, 1, 2])
    got = quiver.enumerate_cycles(dq, 4)
    assert got == [
        ("A1", "B1"),
        ("A2", "B2"),
        ("A1", "A2", "B2", "B1"),
        ("A1", "B1", "A1", "B1"),
        ("A2", "B2", "A2", "B2"),
    ]


def test_enumerate_cycles_counts_loop_powers():
    q = quiver.Quiver(dims=(1,), arrows=(quiver.Arrow(tail=0, head=0, label="X"),))
    dq = quiver.double(q)
    got = quiver.enumerate_cycles(dq, 2)
    assert ("X",) in got and ("X_op",) in got
    assert ("X", "X") in got and ("X", "X_op") in got


def _loop_double():
    return quiver.double(quiver.Quiver(dims=(1,), arrows=(quiver.Arrow(tail=0, head=0, label="A1"),)))


def test_enumerate_cycles_matches_bruteforce():
    cases = [
        (_chain_double([0, 1]), 5),
        (_chain_double([0, 0, 1]), 5),
        (_chain_double([0, 1, 2]), 5),
        (_chain_double([0, 1, 3, 4]), 5),
        (
            quiver.double(
                quiver.Quiver(dims=(1, 2), arrows=(quiver.Arrow(tail=0, head=1, label="X"),))
            ),
            5,
        ),
        (_loop_double(), 8),
        (_chain_double([0, 0, 1, 2]), 6),
    ]
    for dq, longest in cases:
        for max_len in (1, 2, 3, longest):
            assert quiver.enumerate_cycles(dq, max_len) == brute_cycles(dq, max_len)


def test_enumerate_cycles_counts():
    # one word per binary necklace of each length 1..14
    necklaces = sum(sum(2 ** math.gcd(i, n) for i in range(n)) // n for n in range(1, 15))
    assert necklaces == 2615
    assert len(quiver.enumerate_cycles(_loop_double(), 14)) == 2615
    assert len(quiver.enumerate_cycles(_chain_double(list(range(8))), 12)) == 599


def test_enumerate_cycles_stops_past_its_word_budget():
    # the loop double visits 236 315 words at length 20 and 447 186 at 21
    assert quiver.MAX_CYCLE_WORDS == 2**18
    necklaces = sum(sum(2 ** math.gcd(i, n) for i in range(n)) // n for n in range(1, 21))
    assert len(quiver.enumerate_cycles(_loop_double(), 20)) == necklaces
    with pytest.raises(ValueError, match="max_len 21"):
        quiver.enumerate_cycles(_loop_double(), 21)


@pytest.mark.parametrize("max_len", [0, -3, True, 2.5])
@pytest.mark.parametrize("entry", ["equivalence_certificate", "invariants", "enumerate_cycles"])
def test_cycle_searches_need_an_integer_max_len_of_at_least_one(entry, max_len):
    # on this pair the default search finds a difference; no bound may hide it
    inputs = pathlib.Path(__file__).resolve().parent / "golden" / "inputs"
    r1, r2 = (
        jsonio.rep_from_json(json.loads((inputs / f).read_text()))
        for f in ("rep_chain.json", "rep_chain_other.json")
    )
    assert quiver.equivalence_certificate(r1, r2).distinct
    calls = {
        "equivalence_certificate": lambda: quiver.equivalence_certificate(r1, r2, max_len=max_len),
        "invariants": lambda: quiver.invariants(r1, max_len=max_len),
        "enumerate_cycles": lambda: quiver.enumerate_cycles(r1.quiver, max_len),
    }
    with pytest.raises(ValueError, match="max_len must be"):
        calls[entry]()


def test_enumerate_cycles_walks_far_beyond_the_recursion_limit():
    words = quiver.enumerate_cycles(_chain_double([0, 1]), 3000)
    assert words == [("A1", "B1") * k for k in range(1, 1501)]


def test_default_max_len_cap():
    assert quiver.default_max_len(_scalar_chain_rep(1.0, 1.0)) == 4  # total dim 2
    rng = np.random.default_rng(SEED + 6)
    big = _random_rep(rng, _chain_double([0, 0, 1, 2]))
    assert quiver.default_max_len(big) == 12  # 4^2 capped at 12


# --- trace invariants -----------------------------------------------------------------


def test_cycle_trace_scalar():
    rep = _scalar_chain_rep(2.0, 3.0)
    assert quiver.cycle_trace(rep, ("A1", "B1")) == pytest.approx(6.0)
    assert quiver.cycle_trace(rep, ("B1", "A1")) == pytest.approx(6.0)


def test_cycle_trace_rejects_non_paths():
    dq = _chain_double([0, 1, 2])
    rng = np.random.default_rng(SEED + 7)
    rep = _random_rep(rng, dq)
    with pytest.raises(ValueError):
        quiver.cycle_trace(rep, ("A1", "A2", "B2"))  # open path
    with pytest.raises(ValueError):
        quiver.cycle_trace(rep, ("A1", "A1"))  # not even a path


def test_invariants_scalar_chain():
    rep = _scalar_chain_rep(2.0, 3.0)
    v = quiver.invariants(rep, max_len=2)
    assert set(v.entries) == {("A1", "B1")}
    assert v.entries[("A1", "B1")] == pytest.approx(6.0)


def _search_cases():
    """Chain doubles with uneven vertex dims, several chains, and loop doubles.

    The dimension-12 loop and the chain with dims (1, 9, 1, 10) stack
    products of sizes where a BLAS kernel or a pairwise sum could round a
    stacked product or a batched trace differently from a single one.
    """
    return [
        (_chain_double([0, 0, 1, 2, 2, 2]), 8),
        (_chain_double([0, 1, 1, 3, 4, 4, 4, 7]), 6),
        (_chain_double([0, 1, 2, 3]), 6),
        (_chain_double([0, 0, 1, 5, 6, 6, 9, 10]), 6),
        (_loop_double(), 8),
        (quiver.double(quiver.Quiver(dims=(3,), arrows=(quiver.Arrow(0, 0, "A1"),))), 6),
        (quiver.double(quiver.Quiver(dims=(12,), arrows=(quiver.Arrow(0, 0, "A1"),))), 6),
        (_chain_double([0, *[1] * 9, 2, *[3] * 10]), 6),
    ]


def test_invariants_equal_cycle_trace_bit_for_bit():
    rng = np.random.default_rng(SEED + 12)
    for dq, max_len in _search_cases():
        rep = _random_rep(rng, dq)
        entries = quiver.invariants(rep, max_len=max_len).entries
        words = quiver.enumerate_cycles(dq, max_len)
        assert list(entries) == words  # shortlex order
        assert all(entries[w] == quiver.cycle_trace(rep, w) for w in words)


def test_two_representation_traces_equal_cycle_trace_bit_for_bit():
    rng = np.random.default_rng(SEED + 15)
    for dq, max_len in _search_cases():
        r1 = _random_rep(rng, dq)
        moved = quiver.gauge_action(r1, [disk_invertible(rng, d) for d in dq.dims])
        for r2 in (moved, _random_rep(rng, dq)):
            walks = list(quiver._closed_walks(dq, max_len, (r1, r2)))
            assert [word for word, _ in walks] == quiver.enumerate_cycles(dq, max_len)
            for word, traces in walks:
                assert traces == (quiver.cycle_trace(r1, word), quiver.cycle_trace(r2, word))


def _shortlex_scan(r1, r2, words, tol):
    """Brute-force certificate: every word of ``words`` in order, traced from scratch."""
    for word in words:
        t1, t2 = quiver.cycle_trace(r1, word), quiver.cycle_trace(r2, word)
        if abs(t1 - t2) > tol * max(abs(t1), abs(t2), 1.0):
            return "distinct", word, t1, t2
    return "indistinguishable", None, None, None


def _assert_matches_scan(r1, r2, max_len, words, tol):
    cert = quiver.equivalence_certificate(r1, r2, max_len=max_len, tol=tol)
    want = _shortlex_scan(r1, r2, words, tol)
    assert (cert.verdict, cert.witness, cert.left_trace, cert.right_trace) == want
    return cert


def test_certificate_matches_a_shortlex_scan():
    rng = np.random.default_rng(SEED + 13)
    for dq, max_len in _search_cases():
        words = brute_cycles(dq, max_len)
        r1 = _random_rep(rng, dq)
        gs = [disk_invertible(rng, d) for d in dq.dims]
        moved = quiver.gauge_action(r1, gs)
        assert _assert_matches_scan(r1, moved, max_len, words, 1e-8).verdict == "indistinguishable"
        for label in sorted(r1.matrices):
            mats = dict(r1.matrices, **{label: r1.matrices[label] * (1 + 1e-3)})
            r2 = quiver.DoubleQuiverRep(quiver=dq, matrices=mats)
            _assert_matches_scan(r1, r2, max_len, words, 1e-8)
            assert _assert_matches_scan(_random_rep(rng, dq), r2, max_len, words, 1e-8).distinct


def test_certificate_finds_a_first_difference_at_the_longest_length():
    # scaling every arrow by c = 1 + eps scales a trace of length L by c**L, a
    # relative move of 1 - c**-L where |t| >= 1 and less elsewhere; a tol
    # between the largest move below max_len and the largest at max_len
    # leaves only words of length max_len distinct
    rng = np.random.default_rng(SEED + 14)
    for dq, max_len in _search_cases():
        r1 = quiver.DoubleQuiverRep(
            quiver=dq, matrices={k: 2 * m for k, m in _random_rep(rng, dq).matrices.items()}
        )
        r2 = quiver.DoubleQuiverRep(
            quiver=dq, matrices={k: m * (1 + 1e-6) for k, m in r1.matrices.items()}
        )
        moves = {}
        for word in quiver.enumerate_cycles(dq, max_len):
            t1, t2 = quiver.cycle_trace(r1, word), quiver.cycle_trace(r2, word)
            short = len(word) < max_len
            moves[short] = max(moves.get(short, 0.0), abs(t1 - t2) / max(abs(t1), abs(t2), 1.0))
        assert moves[False] > moves[True]
        tol = math.sqrt(moves[False] * moves[True])
        cert = _assert_matches_scan(r1, r2, max_len, brute_cycles(dq, max_len), tol)
        assert cert.distinct and len(cert.witness) == max_len


def _loop_rep(a_val, b_val):
    return quiver.DoubleQuiverRep(quiver=_loop_double(), matrices={"A1": [[a_val]], "B1": [[b_val]]})


def test_library_words_keep_labels_that_contain_commas():
    labels = ("X", "X_op", "X,X", "X,X_op")
    dq = quiver.DoubleQuiver(dims=(1,), arrows=tuple(quiver.Arrow(0, 0, x) for x in labels))
    rep = quiver.DoubleQuiverRep(quiver=dq, matrices={x: [[k + 2.0]] for k, x in enumerate(labels)})
    entries = quiver.invariants(rep, max_len=2).entries
    assert len(entries) == 4 + 10
    assert (entries[("X", "X")], entries[("X,X",)]) == (4.0, 4.0)
    assert entries[("X", "X,X")] == 8.0


def test_certificate_counts_words_only_up_to_its_witness(monkeypatch):
    # level 1 is A1, B1: a budget of one word covers the witness A1, not B1
    monkeypatch.setattr(quiver, "MAX_CYCLE_WORDS", 1)
    cert = quiver.equivalence_certificate(_loop_rep(2.0, 1.0), _loop_rep(3.0, 1.0), max_len=3)
    assert (cert.verdict, cert.witness) == ("distinct", ("A1",))
    with pytest.raises(ValueError, match="^cycle search at max_len 3 exceeds 1 words$"):
        quiver.equivalence_certificate(_loop_rep(2.0, 1.0), _loop_rep(2.0, 3.0), max_len=3)
    with pytest.raises(ValueError, match="^cycle search at max_len 3 exceeds 1 words$"):
        quiver.invariants(_loop_rep(2.0, 1.0), max_len=3)


def test_overflow_raises_without_warnings():
    # pytest turns warnings into errors, so an overflow warning would fail here
    rep = _loop_rep(2.0, 1e200)
    with pytest.raises(ValueError, match="^trace along word B1,B1 is not finite$"):
        quiver.invariants(rep, max_len=3)
    with pytest.raises(ValueError, match="^trace along word B1,B1,B1 is not finite$"):
        quiver.cycle_trace(rep, ("B1", "B1", "B1"))
    with pytest.raises(ValueError, match="^trace along word B1,B1 is not finite$"):
        quiver.equivalence_certificate(rep, _loop_rep(2.0, 1e200), max_len=3)


def test_certificate_reports_a_difference_before_a_later_overflow(tmp_path, capsys):
    # A1 differs at length 1; B1,B1 overflows on both sides at length 2
    paths = []
    for a_val in (2.0, 3.0):
        path = tmp_path / f"loop{a_val}.json"
        path.write_text(jsonio.dumps(jsonio.rep_to_json(_loop_rep(a_val, 1e200))), encoding="utf-8")
        paths += ["--input", str(path)]
    code = cli.main(["equiv", *paths, "--max-len", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    result = json.loads(captured.out)["result"]
    assert (result["verdict"], result["witness"]) == ("distinct", "A1")


def test_invariants_are_gauge_invariant():
    rng = np.random.default_rng(SEED + 8)
    dq = _chain_double([0, 0, 1, 2])
    rep = _random_rep(rng, dq)
    gs = [disk_invertible(rng, d) for d in dq.dims]
    v1 = quiver.invariants(rep, max_len=6)
    v2 = quiver.invariants(quiver.gauge_action(rep, gs), max_len=6)
    scale = max(max(abs(t) for t in v1.entries.values()), 1.0)
    assert quiver.invariant_distance(v1, v2) <= 1e-9 * scale


@pytest.mark.parametrize("vals", [[0, 0, 1, 2], SQUARE], ids=["rank1", "rank2"])
def test_traces_are_invariant_under_connection_gauge(vals):
    d = _decomp(vals)
    c = pattern_connection(np.random.default_rng(SEED + 13), d)
    v1 = quiver.invariants(quiver.from_connection(c), max_len=4)
    for seed in range(3):
        moved = connection.gauge(c, weights.sample_commutant(d, seed))
        v2 = quiver.invariants(quiver.from_connection(moved), max_len=4)
        assert v2.entries.keys() == v1.entries.keys()
        for word, t in v1.entries.items():
            assert abs(v2.entries[word] - t) <= 1e-9 * abs(t)


def test_trace_is_rotation_invariant():
    rng = np.random.default_rng(SEED + 9)
    dq = _chain_double([0, 0, 1, 2])
    rep = _random_rep(rng, dq)
    word = ("A1", "A2", "B2", "B1")
    base = quiver.cycle_trace(rep, word)
    for k in range(1, len(word)):
        rotated = word[k:] + word[:k]
        assert abs(quiver.cycle_trace(rep, rotated) - base) <= 1e-12 * max(abs(base), 1.0)


# --- equivalence certificates ------------------------------------------------------------


def test_certificate_distinct_scalar_pair():
    r1 = _scalar_chain_rep(1.0, 1.0)
    r2 = _scalar_chain_rep(2.0, 1.0)
    cert = quiver.equivalence_certificate(r1, r2)
    assert cert.distinct and cert.verdict == "distinct"
    assert cert.witness == ("A1", "B1")
    assert cert.left_trace == pytest.approx(1.0)
    assert cert.right_trace == pytest.approx(2.0)


def test_certificate_indistinguishable_swapped_factors():
    cert = quiver.equivalence_certificate(
        _scalar_chain_rep(2.0, 3.0), _scalar_chain_rep(3.0, 2.0), max_len=8
    )
    assert cert.verdict == "indistinguishable"
    assert not cert.distinct
    assert cert.witness is None


def test_certificate_indistinguishable_nilpotent_pair():
    cert = quiver.equivalence_certificate(
        _scalar_chain_rep(1.0, 0.0), _scalar_chain_rep(0.0, 1.0), max_len=8
    )
    assert cert.verdict == "indistinguishable"


def test_certificate_needs_same_quiver():
    rng = np.random.default_rng(SEED + 10)
    r1 = _random_rep(rng, _chain_double([0, 1]))
    r2 = _random_rep(rng, _chain_double([0, 1, 2]))
    with pytest.raises(QuiverMismatchError):
        quiver.equivalence_certificate(r1, r2)


def test_certificate_gauge_equivalent_reps_indistinguishable():
    rng = np.random.default_rng(SEED + 11)
    dq = _chain_double([0, 1, 2])
    rep = _random_rep(rng, dq)
    gs = [disk_invertible(rng, d) for d in dq.dims]
    cert = quiver.equivalence_certificate(rep, quiver.gauge_action(rep, gs), tol=1e-8)
    assert cert.verdict == "indistinguishable"


def test_invariant_distance_requires_same_cycles():
    r = _scalar_chain_rep(1.0, 1.0)
    v1 = quiver.invariants(r, max_len=2)
    v2 = quiver.invariants(r, max_len=4)
    with pytest.raises(QuiverMismatchError):
        quiver.invariant_distance(v1, v2)
    assert quiver.invariant_distance(v1, v1) == 0.0
