"""Chain quivers, their doubles, moment maps, and trace invariants.

A rank-1 weight grading with levels ``m, m+1, ..., m+l`` yields a linear
chain quiver: one vertex per level, one arrow per consecutive pair,
pointing from lower to higher weight.  Doubling adds the reversed arrow
for every original one (``A<rest>`` pairs with ``B<rest>``, any other
label ``X`` with ``X_op``).  Connection data restricted to its allowed
blocks is exactly a representation of the double.

Two moment-map conventions are provided.  With ``"paper"`` the sum runs
over every arrow of the double, which makes the map vanish identically:
each product appears once with head bookkeeping and once with tail
bookkeeping.  With ``"standard"`` only original arrows contribute,
``mu_v = sum_{head(a)=v} x_a x_abar - sum_{tail(a)=v} x_abar x_a``,
which is the familiar equivariant moment map.

Trace invariants are traces of matrix products along closed oriented
paths, one representative per rotation class of the arrow-label word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CovarianceViolationError,
    DimensionMismatchError,
    QuiverMismatchError,
)
from .linalg import DEFAULT_TOL, as_matrix, invert
from .weights import ChainDecomposition, chains

MOMENT_CONVENTIONS = ("paper", "standard")
# Cap applied to the default cycle length min(N^2, MAX_LEN_CAP).
MAX_LEN_CAP = 12
# Budget of words the cycle search may visit (pop from its stack) before it
# gives up; the loop double reaches it between max_len 20 and 21.
MAX_CYCLE_WORDS = 2**18


@dataclass(frozen=True)
class Arrow:
    """Oriented edge between vertex positions, carrying a unique label."""

    tail: int
    head: int
    label: str


def _check_arrows(dims: tuple[int, ...], arrows: tuple[Arrow, ...]) -> None:
    nv = len(dims)
    if any(d <= 0 for d in dims):
        raise ValueError("vertex dimensions must be positive")
    for k, a in enumerate(arrows):
        if not isinstance(a.label, str):
            raise ValueError(f"arrows[{k}].label must be a string, got {a.label!r:.40}")
    labels = [a.label for a in arrows]
    if len(set(labels)) != len(labels):
        raise ValueError("arrow labels must be unique")
    for a in arrows:
        if not (0 <= a.tail < nv and 0 <= a.head < nv):
            raise ValueError(f"arrow {a.label} references a missing vertex")


@dataclass(frozen=True)
class Quiver:
    """Finite quiver: vertex dimensions plus labeled oriented arrows."""

    dims: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        _check_arrows(self.dims, self.arrows)


def _opposite_label(label: str) -> str:
    """The one pairing rule: ``A<rest>`` pairs with ``B<rest>``, any other ``X`` with ``X_op``."""
    if label.startswith("A"):
        return "B" + label[1:]
    return label + "_op"


@dataclass(frozen=True)
class DoubleQuiver(Quiver):
    """Quiver whose arrows come in original/opposite pairs.

    Arrow ``X`` pairs with the arrow labelled ``_opposite_label(X)`` when
    that arrow exists, and every arrow must belong to exactly one such
    orientation-reversed pair.  ``pairs`` lists (original label, opposite
    label) in arrow order; ``by_label`` and ``opposites`` index the arrows
    and the pairing by label.
    """

    pairs: tuple[tuple[str, str], ...] = field(init=False)
    by_label: dict[str, Arrow] = field(init=False, repr=False, compare=False)
    opposites: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        by_label = {a.label: a for a in self.arrows}
        candidates = ((a.label, _opposite_label(a.label)) for a in self.arrows)
        pairs = tuple((orig, opp) for orig, opp in candidates if opp in by_label)
        table = {}
        for orig, opp in pairs:
            fwd, rev = by_label[orig], by_label[opp]
            if fwd.tail != rev.head or fwd.head != rev.tail:
                raise ValueError(f"pair ({orig}, {opp}) is not orientation reversed")
            table[orig], table[opp] = opp, orig
        if len(table) != len(self.arrows) or len(table) != 2 * len(pairs):
            raise ValueError("every arrow must belong to exactly one pair")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "by_label", by_label)
        object.__setattr__(self, "opposites", table)

    def opposite(self, label: str) -> str:
        return self.opposites[label]

    def arrow(self, label: str) -> Arrow:
        return self.by_label[label]

    @property
    def originals(self) -> tuple[Arrow, ...]:
        return tuple(self.by_label[orig] for orig, _ in self.pairs)


def same_quiver(q1: DoubleQuiver, q2: DoubleQuiver) -> bool:
    """Equality up to arrow ordering; the pairing follows from the arrows."""
    return q1.dims == q2.dims and set(q1.arrows) == set(q2.arrows)


@dataclass(eq=False)
class DoubleQuiverRep:
    """A matrix for every arrow of a double quiver, shape (dim head, dim tail)."""

    quiver: DoubleQuiver
    matrices: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        mats = {}
        labels = {a.label for a in self.quiver.arrows}
        extra = set(self.matrices) - labels
        if extra:
            raise DimensionMismatchError(f"matrices given for unknown arrows {sorted(extra)}")
        for a in self.quiver.arrows:
            if a.label not in self.matrices:
                raise DimensionMismatchError(f"missing matrix for arrow {a.label}")
            m = as_matrix(self.matrices[a.label])
            want = (self.quiver.dims[a.head], self.quiver.dims[a.tail])
            if m.shape != want:
                raise DimensionMismatchError(
                    f"arrow {a.label} needs shape {want}, got {m.shape}"
                )
            m = np.array(m, dtype=complex)
            m.setflags(write=False)
            mats[a.label] = m
        self.matrices = mats

    @property
    def total_dim(self) -> int:
        return sum(self.quiver.dims)


def _chain_layout(ch: ChainDecomposition):
    """Arrows of the chain quiver in traversal order.

    Yields ``(k, tail, head, lo, hi)`` for arrow ``A<k>``: its tail and
    head vertex positions and the basis indices of the lower and upper
    weight levels it joins.  ``B<k>`` is the same arrow reversed.
    """
    k = base = 0
    for chain in ch.chains:
        for lvl in range(1, len(chain.indices)):
            k += 1
            lo, hi = list(chain.indices[lvl - 1]), list(chain.indices[lvl])
            yield k, base + lvl - 1, base + lvl, lo, hi
        base += len(chain.indices)


def chain_quiver(ch: ChainDecomposition) -> Quiver:
    """Linear quiver of a chain decomposition, arrows pointing up in weight.

    Chains become connected components; vertices are numbered chain by
    chain, levels ascending, and arrows are labeled ``A1, A2, ...`` in
    that traversal order.
    """
    return Quiver(
        dims=tuple(d for chain in ch.chains for d in chain.dims),
        arrows=tuple(Arrow(tail=t, head=h, label=f"A{k}") for k, t, h, _, _ in _chain_layout(ch)),
    )


def double(q: Quiver) -> DoubleQuiver:
    """Add the reversed arrow, labelled ``_opposite_label``, for every arrow of ``q``."""
    reverse = (Arrow(tail=a.head, head=a.tail, label=_opposite_label(a.label)) for a in q.arrows)
    return DoubleQuiver(dims=q.dims, arrows=q.arrows + tuple(reverse))


def from_connection(c) -> DoubleQuiverRep:
    """Cut covariant connection data into blocks of its chain double.

    The data must satisfy the weight-shift pattern exactly; a nonzero
    entry on a forbidden block raises CovarianceViolationError.
    """
    from .connection import structural_violations

    bad = structural_violations(c)
    if bad:
        raise CovarianceViolationError(
            f"connection data violates the weight-shift pattern at {len(bad)} entries"
        )
    ch = chains(c.decomposition)
    mats: dict[str, np.ndarray] = {}
    for k, _, _, lo, hi in _chain_layout(ch):
        mats[f"A{k}"] = c.a_list[0][np.ix_(hi, lo)]
        mats[f"B{k}"] = c.b_list[0][np.ix_(lo, hi)]
    return DoubleQuiverRep(quiver=double(chain_quiver(ch)), matrices=mats)


def to_connection(rep: DoubleQuiverRep, decomposition) -> tuple[np.ndarray, np.ndarray]:
    """Reassemble the (A, B) pair of a chain-double representation.

    Inverse of :func:`from_connection` for the grading that produced the
    representation; returns plain matrices.
    """
    n = decomposition.dim
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    for k, _, _, lo, hi in _chain_layout(chains(decomposition)):
        a[np.ix_(hi, lo)] = rep.matrices[f"A{k}"]
        b[np.ix_(lo, hi)] = rep.matrices[f"B{k}"]
    return a, b


def moment_map(rep: DoubleQuiverRep, convention: str = "paper") -> list[np.ndarray]:
    """Per-vertex moment map of a double-quiver representation.

    ``convention="paper"`` sums over every arrow of the double (vanishes
    identically); ``convention="standard"`` sums over original arrows
    only and transforms equivariantly under the gauge action.
    """
    if convention not in MOMENT_CONVENTIONS:
        raise ValueError(f"convention must be one of {MOMENT_CONVENTIONS}")
    dq = rep.quiver
    arrows = dq.arrows if convention == "paper" else dq.originals
    out = [np.zeros((d, d), dtype=complex) for d in dq.dims]
    for a in arrows:
        x = rep.matrices[a.label]
        xbar = rep.matrices[dq.opposite(a.label)]
        out[a.head] += x @ xbar
        out[a.tail] -= xbar @ x
    return out


def gauge_action(rep: DoubleQuiverRep, gs) -> DoubleQuiverRep:
    """Change of basis at every vertex: ``x_a -> g_head x_a g_tail^{-1}``."""
    dq = rep.quiver
    mats = [as_matrix(g, square=True) for g in gs]
    if len(mats) != len(dq.dims):
        raise DimensionMismatchError(f"need {len(dq.dims)} gauge matrices, got {len(mats)}")
    for v, (g, d) in enumerate(zip(mats, dq.dims)):
        if g.shape[0] != d:
            raise DimensionMismatchError(f"gauge at vertex {v} must be {d}x{d}, got {g.shape}")
    invs = [invert(g) for g in mats]
    new = {
        a.label: mats[a.head] @ rep.matrices[a.label] @ invs[a.tail]
        for a in dq.arrows
    }
    return DoubleQuiverRep(quiver=dq, matrices=new)


def canonical_rotation(word: tuple[str, ...]) -> tuple[str, ...]:
    """Lexicographically least rotation of an arrow-label word."""
    return min(word[i:] + word[:i] for i in range(len(word)))


def enumerate_cycles(dq: DoubleQuiver, max_len: int) -> list[tuple[str, ...]]:
    """Canonical words of all closed oriented paths with length <= max_len.

    Closed paths that traverse a loop several times count (their words
    are distinct); rotations of one word are identified.  Output is
    sorted by length, then lexicographically.

    Prenecklace search (Cattell, Ruskey, Sawada, Serra, Miers, J.
    Algorithms 37, 2000) restricted to paths: a word of length ``t`` whose
    longest Lyndon prefix has length ``p`` extends only by labels ``>=
    word[t - p]`` (an equal label keeps ``p``, a larger one sets ``p = t +
    1``), and it is its own least rotation iff ``p`` divides ``t``.  Every
    prefix of a closed path is a path, so each rotation class of closed
    paths is reached once, as its least rotation.  A search that visits
    more than ``MAX_CYCLE_WORDS`` words raises ValueError.
    """
    if max_len < 1:
        return []
    by_label = dq.by_label
    labels = sorted(by_label)
    found = []
    stack = [((label,), 1) for label in labels]
    visited = 0
    while stack:
        word, p = stack.pop()
        visited += 1
        if visited > MAX_CYCLE_WORDS:
            raise ValueError(f"cycle search at max_len {max_len} exceeds {MAX_CYCLE_WORDS} words")
        t, here = len(word), by_label[word[-1]].head
        if t % p == 0 and here == by_label[word[0]].tail:
            found.append(word)
        for label in labels if t < max_len else ():
            if label >= word[t - p] and by_label[label].tail == here:
                stack.append((word + (label,), p if label == word[t - p] else t + 1))
    return sorted(found, key=lambda w: (len(w), w))


def default_max_len(rep: DoubleQuiverRep) -> int:
    """Default cycle-length bound: min(total dimension squared, cap)."""
    return min(rep.total_dim**2, MAX_LEN_CAP)


@dataclass(eq=False)
class InvariantVector:
    """Cycle-word traces of a representation, keyed by canonical word."""

    max_len: int
    entries: dict[tuple[str, ...], complex]


def cycle_trace(rep: DoubleQuiverRep, word: tuple[str, ...]) -> complex:
    """Trace of the matrix product along a closed path given by arrow labels."""
    dq = rep.quiver
    first = dq.arrow(word[0])
    m = np.eye(dq.dims[first.tail], dtype=complex)
    here = first.tail
    for label in word:
        a = dq.arrow(label)
        if a.tail != here:
            raise ValueError(f"word {word} is not a path at label {label}")
        m = rep.matrices[label] @ m
        here = a.head
    if here != first.tail:
        raise ValueError(f"word {word} is not closed")
    trace = complex(np.trace(m))
    if not np.isfinite(trace):
        raise ValueError(f"trace along word {','.join(word)} is not finite")
    return trace


def invariants(rep: DoubleQuiverRep, max_len: int | None = None) -> InvariantVector:
    """Traces along every canonical cycle word up to ``max_len``.

    These are invariant under the gauge action at every vertex.
    """
    if max_len is None:
        max_len = default_max_len(rep)
    words = enumerate_cycles(rep.quiver, max_len)
    return InvariantVector(
        max_len=max_len,
        entries={w: cycle_trace(rep, w) for w in words},
    )


@dataclass(frozen=True, eq=False)
class EquivalenceCertificate:
    """Outcome of comparing trace invariants of two representations.

    ``distinct`` is conclusive: some cycle trace differs beyond
    tolerance.  ``indistinguishable`` only says no difference was seen up
    to ``max_len``; it is not a proof of equivalence.
    """

    verdict: str
    max_len: int
    witness: tuple[str, ...] | None = None
    left_trace: complex | None = None
    right_trace: complex | None = None

    @property
    def distinct(self) -> bool:
        return self.verdict == "distinct"


def equivalence_certificate(
    r1: DoubleQuiverRep,
    r2: DoubleQuiverRep,
    max_len: int | None = None,
    tol: float = DEFAULT_TOL,
) -> EquivalenceCertificate:
    """Compare cycle traces of two representations of one double quiver.

    A trace difference above ``tol * max(|t1|, |t2|, 1)`` yields verdict
    ``distinct`` with the first such cycle in canonical order as witness;
    otherwise the verdict is ``indistinguishable`` at the used max_len.
    """
    if not same_quiver(r1.quiver, r2.quiver):
        raise QuiverMismatchError("representations live on different double quivers")
    if max_len is None:
        max_len = default_max_len(r1)
    for word in enumerate_cycles(r1.quiver, max_len):
        t1, t2 = cycle_trace(r1, word), cycle_trace(r2, word)
        if abs(t1 - t2) > tol * max(abs(t1), abs(t2), 1.0):
            return EquivalenceCertificate(
                verdict="distinct",
                max_len=max_len,
                witness=word,
                left_trace=t1,
                right_trace=t2,
            )
    return EquivalenceCertificate(verdict="indistinguishable", max_len=max_len)


def invariant_distance(v1: InvariantVector, v2: InvariantVector) -> float:
    """Sup-norm distance between two invariant vectors on the same cycles."""
    if set(v1.entries) != set(v2.entries):
        raise QuiverMismatchError("invariant vectors cover different cycle sets")
    if not v1.entries:
        return 0.0
    return max(abs(v1.entries[w] - v2.entries[w]) for w in v1.entries)
