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

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CovarianceViolationError,
    DimensionMismatchError,
    QuiverMismatchError,
)
from .linalg import DEFAULT_TOL, as_matrix, invert, relative
from .weights import ChainDecomposition, chains

MOMENT_CONVENTIONS = ("paper", "standard")
# Cap applied to the default cycle length min(N^2, MAX_LEN_CAP).
MAX_LEN_CAP = 12
# Budget of words the cycle search may visit (pop from its stack and keep as
# closable within max_len) before it gives up; the loop double reaches it
# between max_len 20 and 21.
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


def _shortlex(word: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    return len(word), word


def _hops_back(dq: DoubleQuiver) -> list[list[float]]:
    """``back[s][v]``: fewest arrows on a walk from vertex ``v`` to ``s``, inf if there is none."""
    nv = len(dq.dims)
    into = [[a.tail for a in dq.arrows if a.head == v] for v in range(nv)]
    back = []
    for s in range(nv):
        dist, frontier = [math.inf] * nv, [s]
        dist[s] = 0
        while frontier:
            v = frontier.pop(0)
            for u in into[v]:
                if dist[u] == math.inf:
                    dist[u] = dist[v] + 1
                    frontier.append(u)
        back.append(dist)
    return back


def _finite(word: tuple[str, ...], trace: complex) -> complex:
    if not cmath.isfinite(trace):
        raise ValueError(f"trace along word {','.join(word)} is not finite")
    return trace


def _closed_walks(dq: DoubleQuiver, max_len: int, reps: tuple, event=None) -> list:
    """Canonical closed walks of length <= max_len with the traces of ``reps`` along them.

    Returns ``(word, traces)`` pairs in lexicographic order of ``word``,
    ``traces[i]`` being the trace of ``reps[i]`` along it.  The search is
    a depth-first prenecklace search (Cattell, Ruskey, Sawada, Serra,
    Miers, J. Algorithms 37, 2000) restricted to walks: a word of length
    ``t`` whose longest Lyndon prefix has length ``p`` extends only by
    labels ``>= word[t - p]`` leaving its head (an equal label keeps
    ``p``, a larger one sets ``p = t + 1``), and it is its own least
    rotation iff ``p`` divides ``t``.  Each rotation class of closed walks
    is reached once, as its least rotation.

    A stack entry ``(word, p, start, prev)`` carries the running product
    of each representation along its parent word (the identity at the
    root), so a visited word costs one ``matrices[label] @ prev`` per
    representation, the same products in the same order as
    :func:`cycle_trace`.  A walk is dropped when the hop distance from its
    head back to its start exceeds the length it has left; every prefix of
    a closed walk within the bound passes, so no walk is lost.  Visiting
    more than ``MAX_CYCLE_WORDS`` words raises ValueError.

    With ``event``, only walks whose traces satisfy ``event(traces)`` are
    returned, and each lowers the length bound below its own length.
    Every later word is lexicographically larger, so only a shorter one
    can come before it in shortlex order: the last walk returned is the
    shortlex-first event.
    """
    head = {a.label: a.head for a in dq.arrows}
    out = [sorted(a.label for a in dq.arrows if a.tail == v) for v in range(len(dq.dims))]
    back = _hops_back(dq)
    mats = [r.matrices for r in reps]
    eyes = [(np.eye(d, dtype=complex),) * len(reps) for d in dq.dims]
    roots = sorted(dq.arrows, key=lambda a: a.label, reverse=True)
    stack = [((a.label,), 1, a.tail, eyes[a.tail]) for a in roots]
    limit, visited, found = max_len, 0, []
    # an overflow surfaces as a non-finite trace, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while stack:
            word, p, start, prev = stack.pop()
            t, label = len(word), word[-1]
            here = head[label]
            if back[start][here] > limit - t:
                continue
            visited += 1
            if visited > MAX_CYCLE_WORDS:
                raise ValueError(f"cycle search at max_len {max_len} exceeds {MAX_CYCLE_WORDS} words")
            closed = here == start and t % p == 0
            if not (closed or t < limit):
                continue
            products = [m[label] @ q for m, q in zip(mats, prev)]
            if closed:
                traces = [complex(m.trace()) for m in products]
                if event is None:
                    found.append((word, traces))
                elif event(traces):
                    found.append((word, traces))
                    limit = t - 1
                    continue
            if t < limit:
                floor = word[t - p]
                for nxt in reversed(out[here]):
                    if nxt < floor:
                        break
                    stack.append((word + (nxt,), p if nxt == floor else t + 1, start, products))
    return found


def enumerate_cycles(dq: DoubleQuiver, max_len: int) -> list[tuple[str, ...]]:
    """Canonical words of all closed oriented paths with length <= max_len.

    Closed paths that traverse a loop several times count (their words
    are distinct); rotations of one word are identified, and each word is
    its least rotation.  Output is sorted by length, then
    lexicographically.  This is the search of :func:`_closed_walks` with
    no representation: ``MAX_CYCLE_WORDS`` bounds the words it visits,
    and a walk that cannot close within the bound is never visited.
    """
    return sorted((word for word, _ in _closed_walks(dq, max_len, ())), key=_shortlex)


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
    with np.errstate(over="ignore", invalid="ignore"):
        for label in word:
            a = dq.arrow(label)
            if a.tail != here:
                raise ValueError(f"word {word} is not a path at label {label}")
            m = rep.matrices[label] @ m
            here = a.head
        if here != first.tail:
            raise ValueError(f"word {word} is not closed")
        trace = complex(np.trace(m))
    return _finite(word, trace)


def invariants(rep: DoubleQuiverRep, max_len: int | None = None) -> InvariantVector:
    """Traces along every canonical cycle word up to ``max_len``, in shortlex order.

    These are invariant under the gauge action at every vertex.  The
    cycle search carries each word's running product, so a word costs one
    matrix product rather than one per label, and every trace equals
    :func:`cycle_trace` bit for bit.  A trace that is not finite raises
    ValueError naming the shortlex-first such word.
    """
    if max_len is None:
        max_len = default_max_len(rep)
    walks = sorted(_closed_walks(rep.quiver, max_len, (rep,)), key=lambda wt: _shortlex(wt[0]))
    return InvariantVector(
        max_len=max_len,
        entries={word: _finite(word, trace) for word, (trace,) in walks},
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
    ``distinct`` with the first such cycle in shortlex order as witness;
    otherwise the verdict is ``indistinguishable`` at the used max_len.
    One cycle search carries the running products of both
    representations; each differing or non-finite trace lowers its length
    bound, so the search stops short of max_len once a shorter word has
    decided.  A non-finite trace on the shortlex-first such word raises
    ValueError instead.
    """
    if not same_quiver(r1.quiver, r2.quiver):
        raise QuiverMismatchError("representations live on different double quivers")
    if max_len is None:
        max_len = default_max_len(r1)

    def differs(traces):
        t1, t2 = traces
        if not (cmath.isfinite(t1) and cmath.isfinite(t2)):
            return True
        return not relative(abs(t1 - t2), max(abs(t1), abs(t2), 1.0)) <= tol

    events = _closed_walks(r1.quiver, max_len, (r1, r2), event=differs)
    if not events:
        return EquivalenceCertificate(verdict="indistinguishable", max_len=max_len)
    word, (t1, t2) = events[-1]
    return EquivalenceCertificate(
        verdict="distinct",
        max_len=max_len,
        witness=word,
        left_trace=_finite(word, t1),
        right_trace=_finite(word, t2),
    )


def invariant_distance(v1: InvariantVector, v2: InvariantVector) -> float:
    """Sup-norm distance between two invariant vectors on the same cycles."""
    if set(v1.entries) != set(v2.entries):
        raise QuiverMismatchError("invariant vectors cover different cycle sets")
    if not v1.entries:
        return 0.0
    return max(abs(v1.entries[w] - v2.entries[w]) for w in v1.entries)
