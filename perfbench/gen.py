"""Seeded input generators for the benchmark workloads.

Each generator takes a ``numpy.random.Generator`` and returns a case: the
JSON payloads handed to the program plus the plain numpy data the oracle
checks against.  Shapes and block counts are fixed per case, so the seed
changes values, never the amount of work.
"""

from __future__ import annotations

import numpy as np

from oracle import shift_masks


def cnormal(rng, n, m=None):
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def unitary(rng, n):
    q, r = np.linalg.qr(cnormal(rng, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def well_conditioned(rng, n):
    """Invertible with singular values in [1/e, e]."""
    core = np.exp(rng.uniform(-1.0, 1.0, n))
    return unitary(rng, n) @ np.diag(core) @ unitary(rng, n)


def contraction(rng, rows, cols):
    """Random matrix rescaled to spectral norm in [0.8, 1]."""
    m = cnormal(rng, rows, cols)
    return m * (rng.uniform(0.8, 1.0) / np.linalg.norm(m, 2))


def matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    flat = m.reshape(-1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in flat.tolist()],
    }


def weights_json(w) -> dict:
    return {"rank": 1, "weights": [int(x) for x in w]}


def grading(rng, n, blocks, chain_len, offset=0):
    """Integer weights for ``n`` indices in exactly ``blocks`` distinct values.

    Weight values ascend by one with a gap of two after every
    ``chain_len`` blocks, so the grading splits into chains of at most
    ``chain_len`` levels; indices are assigned to blocks through a seeded
    permutation.
    """
    sizes = 1 + rng.multinomial(n - blocks, np.full(blocks, 1.0 / blocks))
    values = np.arange(blocks) + 2 * (np.arange(blocks) // chain_len)
    per_index = np.repeat(values, sizes)
    w = np.empty(n, dtype=np.int64)
    w[rng.permutation(n)] = per_index
    return [int(x) + offset for x in w]


def connection(rng, w, hermitian=False):
    """Connection data supported exactly on the allowed weight shifts."""
    up, down = shift_masks(w)
    n = len(w)
    a = np.where(up, cnormal(rng, n), 0.0)
    b = -np.conj(a.T) if hermitian else np.where(down, cnormal(rng, n), 0.0)
    return a, b


def connection_json(w, a, b) -> dict:
    return {"weights": weights_json(w), "A": matrix_json(a), "B": matrix_json(b)}


def block_gauge(rng, w):
    """Block-diagonal centralizer element with well-conditioned blocks."""
    w = np.asarray(w)
    h = np.zeros((len(w), len(w)), dtype=complex)
    for value in np.unique(w):
        ix = np.flatnonzero(w == value)
        h[np.ix_(ix, ix)] = well_conditioned(rng, len(ix))
    return h


# --- double-quiver representations -------------------------------------


def chain_arrows(levels):
    """Arrows of the double of a linear chain, labelled as the CLI expects."""
    arrows = []
    for k in range(1, levels):
        arrows.append((k - 1, k, f"A{k}"))
        arrows.append((k, k - 1, f"B{k}"))
    return arrows


LOOP_ARROWS = [(0, 0, "A1"), (0, 0, "B1")]


def representation(rng, dims, arrows):
    return {label: contraction(rng, dims[h], dims[t]) for t, h, label in arrows}


def gauge_rep(rng, dims, arrows, mats):
    """Representation moved by a random vertex gauge: x -> g_head x g_tail^-1."""
    gs = [well_conditioned(rng, d) for d in dims]
    return {
        label: gs[h] @ mats[label] @ np.linalg.inv(gs[t]) for t, h, label in arrows
    }


def rep_json(dims, arrows, mats) -> dict:
    return {
        "vertices": [int(d) for d in dims],
        "arrows": [{"tail": t, "head": h, "label": lab} for t, h, lab in arrows],
        "matrices": {lab: matrix_json(m) for lab, m in mats.items()},
    }
