"""Shared random samplers and oracles for the test suite.

Everything is driven by an explicit numpy Generator so tests stay
deterministic; conditioning of invertible draws is bounded so relative
error bounds are meaningful.  The matrix samplers are the library's own
(``modulikit._sampling``); the cycle oracle is independent of it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from modulikit import connection, quiver, weights
from modulikit._sampling import cnormal, unit_disk, unitary, well_conditioned


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's modulikit."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=55, env={**os.environ, "PYTHONPATH": path},
    )


def disk_invertible(rng, n, bound=1e3):
    """Identity plus unit-disk entries, rejecting condition numbers above bound."""
    for _ in range(64):
        h = np.eye(n) + unit_disk(rng, (n, n))
        if np.linalg.cond(h) <= bound:
            return h
    raise RuntimeError("no well-conditioned draw")


def f_of(d, tau):
    """The torus element ``tau`` acting on the grading ``d``, as a diagonal matrix."""
    return np.diag(weights.phase_vector(d, tau))


def pattern_connection(rng, d):
    """Random connection data over ``d``, nonzero on every allowed entry."""
    shifts = d.shifts()
    unit = np.eye(d.rank, dtype=np.int64)

    def draw(target):
        on = (shifts == target).all(axis=-1)
        return np.where(on, rng.standard_normal(on.shape) + 1j * rng.standard_normal(on.shape), 0)

    return connection.ConnectionData(
        decomposition=d,
        a_list=tuple(draw(e) for e in unit),
        b_list=tuple(draw(-e) for e in unit),
    )


def rel_err(diff, scale):
    """Frobenius norm of diff relative to scale, floored at 1e-14."""
    return float(np.linalg.norm(diff)) / max(float(scale), 1e-14)


def brute_cycles(dq, max_len):
    """Independent oracle: filter all label words for cyclic path-consistency.

    It builds every one of the ``n**L`` label strings of each length ``L``,
    unlike the walk search in ``selftest._bruteforce_cycles``; the two
    oracles differ on purpose, so that each checks the other.  The strings
    are the columns of one index array, filtered by an adjacency lookup
    per letter.
    """
    labels = sorted(a.label for a in dq.arrows)
    by_label = {a.label: a for a in dq.arrows}
    # the reshape keeps follows 2-D (0 x 0) for a quiver without arrows
    follows = np.array(
        [[by_label[x].head == by_label[y].tail for y in labels] for x in labels], dtype=bool
    ).reshape(len(labels), len(labels))
    found = set()
    for length in range(1, max_len + 1):
        strings = np.indices((len(labels),) * length).reshape(length, -1)
        ok = np.ones(strings.shape[1], dtype=bool)
        for k in range(length):
            ok &= follows[strings[k], strings[(k + 1) % length]]
        for combo in strings[:, ok].T:
            found.add(quiver.canonical_rotation(tuple(labels[i] for i in combo)))
    return sorted(found, key=lambda w: (len(w), w))
