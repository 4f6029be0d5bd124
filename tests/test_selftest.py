"""The selftest cycle oracle and the property that uses it."""

from __future__ import annotations

from modulikit import quiver, selftest
from util import brute_cycles


def _samples():
    # the fixed family, plus two vertices joined by arrows both ways
    two_way = quiver.double(quiver.Quiver(dims=(1, 2), arrows=(quiver.Arrow(0, 1, "X"),)))
    return [selftest._cycle_sample(k) for k in range(len(selftest._CHAIN_SHAPES) + 1)] + [two_way]


def test_walk_oracle_matches_the_label_string_filter():
    for dq in _samples():
        for max_len in range(1, 7):
            assert selftest._bruteforce_cycles(dq, max_len) == brute_cycles(dq, max_len)


def test_fixed_family_has_one_arrowless_quiver():
    family = _samples()[:-1]
    assert len(family) == 12
    assert [k for k, dq in enumerate(family) if not dq.arrows] == [0]


def test_cycles_property_catches_a_lost_word(monkeypatch):
    # drop the last word of every nonempty list the walk generator returns
    original = quiver.enumerate_cycles
    monkeypatch.setattr(quiver, "enumerate_cycles", lambda dq, max_len: original(dq, max_len)[:-1])
    report = selftest.run_properties(seed=7, samples=2)
    rows = {row["name"]: row for row in report["properties"]}
    row = rows["quiver.cycles_match_bruteforce"]
    assert report["result"] == "fail"
    assert "quiver.cycles_match_bruteforce" in report["failed"]
    assert row["ok"] is False and row["worst"] >= 1 and row["samples"] == 12
