"""Weight quivers, their doubles, moment maps, and trace invariants.

A weight grading of any torus rank yields its weight quiver
(``weights._weight_arrows``): one vertex per weight block, and one arrow
from block ``j`` to block ``l`` whenever ``w_l - w_j = e_i``, the shift on
which the raising matrix ``A_i`` may be nonzero.  At rank 1 it is one
linear chain per run of consecutive weights; at every rank its connected
components are ``weights.components``.  Doubling adds the reversed arrow
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
from dataclasses import dataclass, field

import numpy as np

from .connection import ConnectionData, structural_violations
from .errors import (
    CovarianceViolationError,
    DimensionMismatchError,
    QuiverMismatchError,
)
from .linalg import DEFAULT_TOL, MOMENT_CONVENTIONS, _invert, as_matrix, relative
from .weights import WeightDecomposition, _int, _weight_arrows

# Cap applied to the default cycle length min(N^2, MAX_LEN_CAP).
MAX_LEN_CAP = 12
# Budget of words the cycle search may visit (keep in a level as closable
# within max_len), counted in shortlex order, before it gives up; the loop
# double reaches it between max_len 20 and 21.
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
        if not isinstance(a, Arrow):
            raise ValueError(f"arrows[{k}] must be an Arrow, got {a!r:.40}")
        _int(a.tail, f"arrows[{k}].tail")
        _int(a.head, f"arrows[{k}].head")
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
        object.__setattr__(self, "dims", tuple(_int(d, f"dims[{k}]") for k, d in enumerate(self.dims)))
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


def weight_quiver(d: WeightDecomposition) -> Quiver:
    """Quiver of a weight grading: one vertex per block of ``d``, one arrow per unit raise.

    At rank 1 each run of consecutive weights is a linear chain, its
    arrows labelled ``A1, A2, ...`` in block order.
    """
    return Quiver(
        dims=tuple(block.dim for block in d.blocks),
        arrows=tuple(Arrow(tail=t, head=h, label=f"A{k}") for k, _, t, h in _weight_arrows(d)),
    )


def double(q: Quiver) -> DoubleQuiver:
    """Add the reversed arrow, labelled ``_opposite_label``, for every arrow of ``q``."""
    reverse = (Arrow(tail=a.head, head=a.tail, label=_opposite_label(a.label)) for a in q.arrows)
    return DoubleQuiver(dims=q.dims, arrows=q.arrows + tuple(reverse))


def from_connection(c: ConnectionData) -> DoubleQuiverRep:
    """Cut covariant connection data of any rank into blocks of its weight double.

    The data must satisfy the weight-shift pattern exactly; a nonzero
    entry on a forbidden block raises CovarianceViolationError.
    """
    bad = structural_violations(c)
    if bad:
        raise CovarianceViolationError(
            f"connection data violates the weight-shift pattern at {len(bad)} entries"
        )
    d = c.decomposition
    ix = [list(block.indices) for block in d.blocks]
    mats: dict[str, np.ndarray] = {}
    for k, i, t, h in _weight_arrows(d):
        mats[f"A{k}"] = c.a_list[i][np.ix_(ix[h], ix[t])]
        mats[f"B{k}"] = c.b_list[i][np.ix_(ix[t], ix[h])]
    return DoubleQuiverRep(quiver=double(weight_quiver(d)), matrices=mats)


def to_connection(rep: DoubleQuiverRep, d: WeightDecomposition) -> ConnectionData:
    """Inverse of :func:`from_connection` for the grading ``d`` that produced ``rep``."""
    if not same_quiver(rep.quiver, double(weight_quiver(d))):
        raise QuiverMismatchError("representation does not live on the weight double of the grading")
    a = np.zeros((d.rank, d.dim, d.dim), dtype=complex)
    b = np.zeros_like(a)
    ix = [list(block.indices) for block in d.blocks]
    for k, i, t, h in _weight_arrows(d):
        a[i][np.ix_(ix[h], ix[t])] = rep.matrices[f"A{k}"]
        b[i][np.ix_(ix[t], ix[h])] = rep.matrices[f"B{k}"]
    return ConnectionData(decomposition=d, a_list=tuple(a), b_list=tuple(b))


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
        xbar = rep.matrices[dq.opposites[a.label]]
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
    invs = [_invert(g) for g in mats]
    new = {
        a.label: mats[a.head] @ rep.matrices[a.label] @ invs[a.tail]
        for a in dq.arrows
    }
    return DoubleQuiverRep(quiver=dq, matrices=new)


def canonical_rotation(word: tuple[str, ...]) -> tuple[str, ...]:
    """Lexicographically least rotation of an arrow-label word."""
    return min(word[i:] + word[:i] for i in range(len(word)))


def _hops_back(dq: DoubleQuiver, depth: int) -> dict[int, dict[int, int]]:
    """``back[s][v]``: fewest arrows on a walk from vertex ``v`` to ``s``.

    ``s`` runs over the vertices where an arrow leaves, and ``back[s]``
    holds only the vertices ``v`` within ``depth`` arrows of ``s``: a
    missing ``v`` cannot reach ``s`` in ``depth`` arrows.
    """
    into = {}
    for a in dq.arrows:
        into.setdefault(a.head, []).append(a.tail)
    back = {}
    for s in {a.tail for a in dq.arrows}:
        dist, frontier, hops = {s: 0}, [s], 0
        while frontier and hops < depth:
            hops, found = hops + 1, []
            for v in frontier:
                for u in into.get(v, ()):
                    if u not in dist:
                        dist[u] = hops
                        found.append(u)
            frontier = found
        back[s] = dist
    return back


def _finite(word: tuple[str, ...], trace: complex) -> complex:
    if not cmath.isfinite(trace):
        raise ValueError(f"trace along word {','.join(word)} is not finite")
    return trace


def _closed_walks(dq: DoubleQuiver, max_len: int, reps: tuple):
    """Canonical closed walks of length <= max_len with the traces of ``reps`` along them.

    Yields ``(word, traces)`` pairs in shortlex order of ``word``,
    ``traces[i]`` being the trace of ``reps[i]`` along it.  The search is
    a prenecklace search (Cattell, Ruskey, Sawada, Serra, Miers,
    J. Algorithms 37, 2000) restricted to walks: a word of length ``t``
    whose longest Lyndon prefix has length ``p`` extends only by labels
    ``>= word[t - p]`` leaving its head (an equal label keeps ``p``, a
    larger one sets ``p = t + 1``), and it is its own least rotation iff
    ``p`` divides ``t``.  Each rotation class of closed walks is reached
    once, as its least rotation.

    The search is level-synchronous: level ``t`` is the list of rows
    ``(word, p, start, here, parent)`` of every word of length ``t``,
    ``parent`` being the row of ``word[:-1]`` in the level before.  A
    row's children are the sorted labels leaving its head that pass the
    ``>=`` filter, taken row by row, so every level comes out in
    lexicographic order and the levels in shortlex order, with no sort.
    Rows are plain tuples: levels of a few words are common, and integer
    arrays would cost a few dozen numpy calls per level to maintain.  A
    walk is dropped when the hop distance from its head back to its
    start exceeds the length it has left; every prefix of a closed walk
    within the bound passes, so no walk is lost.

    The representations are a batch axis: each label's matrices are
    stacked once, and one ``matrices[label] @ below[parents]`` per group
    of rows with the same last label and start dimension extends the
    products of every representation at once, ``below`` holding the
    level before; one batched ``trace`` per start dimension reads them.
    These are the products of :func:`cycle_trace` in its order, and the
    traces equal its traces bit for bit.  The search keeps two levels of
    words and products, and it builds a level only when its consumer asks
    for more walks: :func:`equivalence_certificate`, which stops at its
    witness, never builds a level past it.

    At most ``MAX_CYCLE_WORDS`` words are visited, counted in shortlex
    order: the level that crosses the budget is cut there, the walks among
    its first words are yielded, and then ValueError is raised.
    """
    if _int(max_len, "max_len") < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    by_label, dims = dq.by_label, dq.dims
    head = {x: a.head for x, a in by_label.items()}
    outs = [[] for _ in dims]
    for x in sorted(by_label):
        outs[by_label[x].tail].append(x)
    back = _hops_back(dq, max_len - 1)
    mats = {x: np.stack([r.matrices[x] for r in reps]) for x in by_label} if reps else {}

    def products(below, place, level, groups):
        """The stores and places of the products along the rows of a level.

        ``groups[x, n]`` lists the rows with last label ``x`` and start
        dimension ``n``.  Store ``(m, n)`` is one array of shape ``(rows,
        reps, m, n)``: the level's ``m x n`` products, every representation
        at once, and ``place[i]`` is the index of the product along row
        ``i`` in its store.  ``below`` and ``place`` come in as the stores
        and places of the level before.
        """
        parts, size, new = {}, {}, [0] * len(level)
        for (x, n), ids in groups.items():
            a = by_label[x]
            key = dims[a.head], n
            at = size.get(key, 0)
            size[key] = at + len(ids)
            parents = [place[level[i][4]] for i in ids]
            parts.setdefault(key, []).append(mats[x] @ below[dims[a.tail], n].take(parents, axis=0))
            for i in ids:
                new[i] = at
                at += 1
        stores = {key: got[0] if len(got) == 1 else np.concatenate(got) for key, got in parts.items()}
        return stores, new

    # level 0 holds the empty walk at each vertex, row v at vertex v, with
    # the identity as its product, which the first products broadcast over
    # the representations; a walk starts only where an arrow leaves, so a
    # vertex with no arrows costs no identity
    starts = {dims[a.tail] for a in dq.arrows}
    stores = {(d, d): np.eye(d, dtype=complex)[None, None] for d in starts}
    level = [
        ((x,), 1, a.tail, a.head, a.tail)
        for x, a in sorted(by_label.items())
        if back[a.tail].get(a.head, max_len) < max_len
    ]
    place, visited, t = [0] * len(dims), 0, 1
    while level:
        over = visited + len(level) > MAX_CYCLE_WORDS
        if over:
            # only the words that come before the budget runs out
            level = level[: MAX_CYCLE_WORDS - visited]
        visited += len(level)
        final, left = over or t == max_len, max_len - t - 1
        closed, kids, groups = [], [], {}
        for i, (word, p, start, here, _) in enumerate(level):
            # only a closed word or a parent needs its products
            need = here == start and t % p == 0
            if need:
                closed.append(i)
            if not final:
                floor, hops = word[t - p], back[start]
                for x in outs[here]:
                    if x >= floor and hops.get(head[x], max_len) <= left:
                        kids.append((word + (x,), p if x == floor else t + 1, start, head[x], i))
                        need = True
            if need and reps:
                groups.setdefault((word[-1], dims[start]), []).append(i)
        traces = [()] * len(closed)
        if reps:
            # an overflow surfaces as a non-finite trace, not as warnings
            with np.errstate(over="ignore", invalid="ignore"):
                stores, place = products(stores, place, level, groups)
                sums, traces = {}, []
                for i in closed:
                    n = dims[level[i][2]]
                    if n not in sums:
                        sums[n] = stores[n, n].trace(axis1=2, axis2=3).tolist()
                    traces.append(tuple(sums[n][place[i]]))
        yield from zip((level[i][0] for i in closed), traces)
        if over:
            raise ValueError(f"cycle search at max_len {max_len} exceeds {MAX_CYCLE_WORDS} words")
        level, t = kids, t + 1


def enumerate_cycles(dq: DoubleQuiver, max_len: int) -> list[tuple[str, ...]]:
    """Canonical words of all closed oriented paths with length <= max_len.

    Closed paths that traverse a loop several times count (their words
    are distinct); rotations of one word are identified, and each word is
    its least rotation.  Output is in shortlex order: by length, then
    lexicographically, the order in which the level search of
    :func:`_closed_walks` finds them.  This is that search with no
    representation: ``MAX_CYCLE_WORDS`` bounds the words it visits, and a
    walk that cannot close within the bound is never visited.
    """
    return [word for word, _ in _closed_walks(dq, max_len, ())]


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
    first = dq.by_label[word[0]]
    m = np.eye(dq.dims[first.tail], dtype=complex)
    here = first.tail
    with np.errstate(over="ignore", invalid="ignore"):
        for label in word:
            a = dq.by_label[label]
            if a.tail != here:
                raise ValueError(f"word {word} is not a path at label {label}")
            m = rep.matrices[label] @ m
            here = a.head
        if here != first.tail:
            raise ValueError(f"word {word} is not closed")
        trace = complex(m.trace())
    return _finite(word, trace)


def invariants(rep: DoubleQuiverRep, max_len: int | None = None) -> InvariantVector:
    """Traces along every canonical cycle word up to ``max_len``, in shortlex order.

    These are invariant under the gauge action at every vertex.  The
    level search of :func:`_closed_walks` finds the words in shortlex
    order and carries their running products, and every trace equals
    :func:`cycle_trace` bit for bit.  A trace that is not finite raises
    ValueError naming the shortlex-first such word.
    """
    if max_len is None:
        max_len = default_max_len(rep)
    walks = list(_closed_walks(rep.quiver, max_len, (rep,)))
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
    One level search carries the running products of both
    representations and visits the words in shortlex order, so it stops
    at the first differing or non-finite trace, at the shortest length
    that decides, whatever max_len is.  A non-finite trace on that word
    raises ValueError instead.
    """
    if not same_quiver(r1.quiver, r2.quiver):
        raise QuiverMismatchError("representations live on different double quivers")
    if max_len is None:
        max_len = default_max_len(r1)

    for word, (t1, t2) in _closed_walks(r1.quiver, max_len, (r1, r2)):
        finite = cmath.isfinite(t1) and cmath.isfinite(t2)
        if not (finite and relative(abs(t1 - t2), max(abs(t1), abs(t2), 1.0)) <= tol):
            return EquivalenceCertificate(
                verdict="distinct",
                max_len=max_len,
                witness=word,
                left_trace=_finite(word, t1),
                right_trace=_finite(word, t2),
            )
    return EquivalenceCertificate(verdict="indistinguishable", max_len=max_len)


def invariant_distance(v1: InvariantVector, v2: InvariantVector) -> float:
    """Sup-norm distance between two invariant vectors on the same cycles."""
    if set(v1.entries) != set(v2.entries):
        raise QuiverMismatchError("invariant vectors cover different cycle sets")
    if not v1.entries:
        return 0.0
    return max(abs(v1.entries[w] - v2.entries[w]) for w in v1.entries)
