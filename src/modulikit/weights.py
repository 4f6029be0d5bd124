"""Integer weight data for a torus action on C^N.

A homomorphism from a rank-r torus into GL_N(C) that is diagonal in the
standard basis is encoded by one integer weight vector per basis index:
the torus element ``tau`` acts on index ``i`` by the scalar
``prod_k tau_k ** m[i][k]``.  This module groups equal weight vectors into
the graded decomposition, splits rank-1 gradings into maximal chains of
consecutive weights, and works with the block-diagonal centralizer of the
grading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sampling import unit_disk
from .errors import (
    DimensionMismatchError,
    NotUnitModulusError,
    RankNotOneError,
)
from .linalg import DEFAULT_TOL, as_matrix, frob, relative

# |tau| must sit on the unit circle within this absolute slack.
UNIT_MODULUS_TOL = 1e-12
# Rejection bound for sampled centralizer elements.
SAMPLE_COND_BOUND = 1e6
# Every weight entry satisfies |w| < WEIGHT_BOUND, so that each difference
# w_i - w_j, which the covariance checks and the gauge action use, is exact
# in int64.
WEIGHT_BOUND = 2**62


def _normalize_weight(w, rank: int, k: int) -> tuple[int, ...]:
    if np.isscalar(w):
        vec = (int(w),)
    else:
        vec = tuple(int(c) for c in w)
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
        rank = int(self.rank)
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
        if not ws:
            raise ValueError("weight data needs at least one basis index")
        if rank is None:
            rank = 1 if np.isscalar(ws[0]) else len(tuple(ws[0]))
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


@dataclass(frozen=True)
class Chain:
    """Maximal run of consecutive rank-1 weights ``m, m+1, ..., m+l``."""

    base_weight: int
    indices: tuple[tuple[int, ...], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(ix) for ix in self.indices)


@dataclass(frozen=True)
class ChainDecomposition:
    """Rank-1 grading split at weight gaps of at least 2."""

    dim: int
    chains: tuple[Chain, ...]


def chains(d: WeightDecomposition) -> ChainDecomposition:
    """Split a rank-1 decomposition into maximal consecutive-weight chains."""
    if d.rank != 1:
        raise RankNotOneError(f"chain decomposition needs rank 1, got rank {d.rank}")
    runs: list[list[WeightBlock]] = []
    for block in d.blocks:
        if runs and block.weight[0] == runs[-1][-1].weight[0] + 1:
            runs[-1].append(block)
        else:
            runs.append([block])
    return ChainDecomposition(
        dim=d.dim,
        chains=tuple(
            Chain(base_weight=run[0].weight[0], indices=tuple(b.indices for b in run))
            for run in runs
        ),
    )


def _tau_vector(d: WeightDecomposition, tau) -> np.ndarray:
    taus = np.atleast_1d(np.asarray(tau, dtype=complex))
    if taus.shape != (d.rank,):
        raise DimensionMismatchError(
            f"tau has shape {taus.shape}, expected ({d.rank},) for rank {d.rank}"
        )
    if np.any(np.abs(np.abs(taus) - 1.0) > UNIT_MODULUS_TOL):
        raise NotUnitModulusError("every tau component must have modulus 1")
    return taus


def phase_vector(d: WeightDecomposition, tau) -> np.ndarray:
    """Diagonal of the torus action: entry ``i`` is ``prod_k tau_k**m[i][k]``."""
    taus = _tau_vector(d, tau)
    out = np.ones(d.dim, dtype=complex)
    for block in d.blocks:
        val = complex(np.prod(taus ** np.array(block.weight, dtype=int)))
        out[list(block.indices)] = val
    return out


def f_of(d: WeightDecomposition, tau) -> np.ndarray:
    """Diagonal matrix of the torus element ``tau`` acting on the grading.

    Each tau component must be unit modulus within ``UNIT_MODULUS_TOL``.
    """
    return np.diag(phase_vector(d, tau))


def commutant_contains(d: WeightDecomposition, h, tol: float = DEFAULT_TOL) -> bool:
    """True when ``h`` is block diagonal for the grading within tolerance.

    Measured as the Frobenius norm of all entries joining distinct weight
    blocks, relative to the norm of ``h``.
    """
    h = as_matrix(h, square=True)
    if h.shape[0] != d.dim:
        raise DimensionMismatchError(f"matrix is {h.shape[0]}x{h.shape[0]}, grading has dim {d.dim}")
    off = h[d.shifts().any(axis=-1)]
    return relative(frob(off), frob(h)) <= tol


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
