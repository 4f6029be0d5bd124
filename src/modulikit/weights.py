"""Integer weight data for a torus action on C^N.

A homomorphism from a rank-r torus into GL_N(C) that is diagonal in the
standard basis is encoded by one integer weight vector per basis index:
the torus element ``tau`` acts on index ``i`` by the scalar
``prod_k tau_k ** m[i][k]``.  This module groups equal weight vectors into
the graded decomposition, joins two blocks in the weight quiver when their
weights differ by a unit vector, splits the grading into the connected
components of that quiver, and works with the block-diagonal centralizer.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._sampling import unit_disk
from .errors import DimensionMismatchError, NotUnitModulusError
from .linalg import DEFAULT_TOL, as_matrix, frob, relative

# |tau| must sit on the unit circle within this absolute slack.
UNIT_MODULUS_TOL = 1e-12
# Rejection bound for sampled centralizer elements.
SAMPLE_COND_BOUND = 1e6
# Every weight entry satisfies |w| < WEIGHT_BOUND, so that each difference
# w_i - w_j, which the covariance checks and the gauge action use, is exact
# in int64.
WEIGHT_BOUND = 2**62


def _int(value, path: str) -> int:
    """An integer field; bool, float, None and str are rejected.

    This is the one rule for every integer the library and the JSON
    decoders take.  ``path`` names the value in error messages; the
    decoders prefix it with the JSON path of their input, such as ``"A."``.
    """
    # int and np.integer are Integral too, and cheaper to test than the ABC
    if isinstance(value, (int, np.integer, numbers.Integral)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{path} must be an integer, got {value!r}")


def _is_vector(w) -> bool:
    """A list, a tuple or an array with an axis is a weight vector; anything else is one integer."""
    return isinstance(w, (list, tuple)) or isinstance(w, np.ndarray) and w.ndim > 0


def _normalize_weight(w, rank: int, k: int) -> tuple[int, ...]:
    if _is_vector(w):
        vec = tuple(_int(c, f"weights[{k}][{j}]") for j, c in enumerate(w))
    else:
        vec = (_int(w, f"weights[{k}]"),)
    if len(vec) != rank:
        raise DimensionMismatchError(f"weights[{k}] has length {len(vec)}, expected rank {rank}")
    if any(abs(c) >= WEIGHT_BOUND for c in vec):
        raise ValueError(f"weights[{k}] = {vec} is out of range: every entry needs |w| < 2**62")
    return vec


@dataclass(frozen=True)
class WeightData:
    """One integer weight vector per basis index of C^N."""

    rank: int
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rank = _int(self.rank, "rank")
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        weights = tuple(_normalize_weight(w, rank, k) for k, w in enumerate(self.weights))
        if not weights:
            raise ValueError("weight data needs at least one basis index")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def of(cls, weights, rank: int | None = None) -> "WeightData":
        """Build weight data, inferring the rank from the first entry."""
        ws = list(weights)
        if rank is None:
            rank = len(ws[0]) if ws and _is_vector(ws[0]) else 1
        return cls(rank=rank, weights=tuple(ws))

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class WeightBlock:
    """A weight vector together with the basis indices carrying it."""

    weight: tuple[int, ...]
    indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class WeightDecomposition:
    """Grading of C^N into weight blocks, sorted by ascending weight.

    Rank-1 blocks sort numerically; higher ranks sort lexicographically.
    """

    rank: int
    dim: int
    blocks: tuple[WeightBlock, ...]

    def index_weights(self) -> np.ndarray:
        """Integer array of shape (dim, rank): the weight vector of each index."""
        out = np.zeros((self.dim, self.rank), dtype=np.int64)
        for block in self.blocks:
            out[list(block.indices)] = block.weight
        return out

    def shifts(self) -> np.ndarray:
        """Exact weight differences ``w_i - w_j``: int64 array of shape (dim, dim, rank)."""
        w = self.index_weights()
        return w[:, None, :] - w[None, :, :]


def decompose(w: WeightData) -> WeightDecomposition:
    """Group equal weight vectors into blocks, ascending."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, vec in enumerate(w.weights):
        groups.setdefault(vec, []).append(i)
    blocks = tuple(
        WeightBlock(weight=vec, indices=tuple(groups[vec])) for vec in sorted(groups)
    )
    return WeightDecomposition(rank=w.rank, dim=w.dim, blocks=blocks)


def _weight_arrows(d: WeightDecomposition):
    """Arrows of the weight quiver of ``d``, numbered by (tail block, direction).

    Yields ``(k, i, tail, head)`` for arrow ``A<k>``: ``tail`` and ``head``
    are block positions with ``w_head - w_tail = e_i``, the shift on which
    ``A_i`` may be nonzero.  ``B<k>`` is the same arrow reversed, on the
    shift ``-e_i`` that ``B_i`` may use.
    """
    at = {block.weight: v for v, block in enumerate(d.blocks)}
    k = 0
    for tail, block in enumerate(d.blocks):
        w = block.weight
        for i in range(d.rank):
            head = at.get(w[:i] + (w[i] + 1,) + w[i + 1 :])
            if head is not None:
                k += 1
                yield k, i, tail, head


def components(d: WeightDecomposition) -> tuple[tuple[WeightBlock, ...], ...]:
    """Connected components of the weight quiver of ``d``, each in block order, by first block.

    At rank 1 they are the maximal runs of consecutive weights ``m, m+1, ..., m+l``.
    """
    root = list(range(len(d.blocks)))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for _, _, tail, head in _weight_arrows(d):
        a, b = find(tail), find(head)
        root[max(a, b)] = min(a, b)
    groups: dict[int, list[WeightBlock]] = {}
    for v, block in enumerate(d.blocks):
        groups.setdefault(find(v), []).append(block)
    return tuple(map(tuple, groups.values()))


def phase_vector(d: WeightDecomposition, tau) -> np.ndarray:
    """Diagonal of the torus action: entry ``i`` is ``prod_k tau_k**m[i][k]``.

    Each tau component must be unit modulus within ``UNIT_MODULUS_TOL``.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=complex))
    if taus.shape != (d.rank,):
        raise DimensionMismatchError(
            f"tau has shape {taus.shape}, expected ({d.rank},) for rank {d.rank}"
        )
    if (np.abs(np.abs(taus) - 1.0) > UNIT_MODULUS_TOL).any():
        raise NotUnitModulusError("every tau component must have modulus 1")
    out = np.ones(d.dim, dtype=complex)
    for block in d.blocks:
        val = complex((taus ** np.array(block.weight, dtype=int)).prod())
        out[list(block.indices)] = val
    return out


def commutant_contains(d: WeightDecomposition, h, tol: float = DEFAULT_TOL) -> bool:
    """True when ``h`` is block diagonal for the grading within tolerance.

    Measured as the Frobenius norm of all entries joining distinct weight
    blocks, relative to the norm of ``h``.
    """
    h = as_matrix(h, square=True)
    if h.shape[0] != d.dim:
        raise DimensionMismatchError(f"matrix is {h.shape[0]}x{h.shape[0]}, grading has dim {d.dim}")
    return _in_commutant(h, d.shifts().any(axis=-1), tol)


def _in_commutant(h: np.ndarray, off: np.ndarray, tol: float) -> bool:
    """:func:`commutant_contains` of a checked ``h``, given the grading's off-block mask ``off``."""
    return relative(frob(h[off]), frob(h)) <= tol


def commutant_dim(d: WeightDecomposition) -> int:
    """Complex dimension of the block-diagonal centralizer: sum of dim^2."""
    return sum(block.dim**2 for block in d.blocks)


def sample_commutant(d: WeightDecomposition, seed: int) -> np.ndarray:
    """Seeded random invertible element of the centralizer.

    Each block is the identity plus entries drawn uniformly from the unit
    disk; draws with condition number above ``SAMPLE_COND_BOUND`` are
    rejected and redrawn.
    """
    rng = np.random.default_rng(seed)
    for _ in range(128):
        h = np.zeros((d.dim, d.dim), dtype=complex)
        for block in d.blocks:
            ix = list(block.indices)
            h[np.ix_(ix, ix)] = np.eye(block.dim) + unit_disk(rng, (block.dim, block.dim))
        if np.linalg.cond(h) <= SAMPLE_COND_BOUND:
            return h
    raise RuntimeError("could not sample a well-conditioned centralizer element")
