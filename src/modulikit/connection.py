"""Torus-covariant connection data over a weight grading.

A rank-r grading of C^N singles out r raising matrices A_i and r lowering
matrices B_i: entries of A_i may only join a weight block to the block
shifted by the unit vector e_i, entries of B_i to the block shifted by
-e_i.  Equivalently ``f(tau) A_i f(tau)^{-1} = tau_i A_i`` and
``f(tau) B_i f(tau)^{-1} = conj(tau_i) B_i`` for tau in the unit r-torus.

The module checks that covariance exactly, by the weight-shift pattern
of every entry, decides purity of a frame tuple by commutators, applies the
involution ``(A_i, B_i) -> (-B_i^*, -A_i^*)`` induced by the group
involution ``h -> (h^*)^{-1}``, recognizes its fixed points (hermitian
data), and acts by gauge transformations from the block-diagonal
centralizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NotInCommutantError
from .linalg import DEFAULT_TOL, _invert, as_matrix, dagger, frob, relative
from .weights import WeightDecomposition, _in_commutant


def _locked(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class FrameTuple:
    """Values of a connection on a frame: r raising and r lowering matrices.

    ``b_list`` defaults to zeros; the commutator purity test needs no grading.
    """

    a_list: tuple[np.ndarray, ...]
    b_list: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        a_list = tuple(as_matrix(a, square=True) for a in self.a_list)
        if not a_list:
            raise ValueError("frame tuple needs at least one matrix")
        n = a_list[0].shape[0]
        if any(a.shape[0] != n for a in a_list):
            raise DimensionMismatchError("all frame matrices must share one size")
        if self.b_list is None:
            b_list = tuple(np.zeros((n, n), dtype=complex) for _ in a_list)
        else:
            b_list = tuple(as_matrix(b, square=True) for b in self.b_list)
        if len(b_list) != len(a_list) or any(b.shape[0] != n for b in b_list):
            raise DimensionMismatchError("b_list must match a_list in count and size")
        self.a_list = tuple(_locked(a) for a in a_list)
        self.b_list = tuple(_locked(b) for b in b_list)

    @property
    def rank(self) -> int:
        return len(self.a_list)

    @property
    def dim(self) -> int:
        return self.a_list[0].shape[0]


@dataclass(eq=False, kw_only=True)
class ConnectionData(FrameTuple):
    """Connection data: a rank-r frame tuple over a rank-r weight grading.

    ``decomposition`` is a keyword argument; rank-1 data is
    ``ConnectionData(decomposition=d, a_list=(a,), b_list=(b,))``.
    """

    decomposition: WeightDecomposition

    def __post_init__(self) -> None:
        super().__post_init__()
        d = self.decomposition
        if self.dim != d.dim:
            raise DimensionMismatchError(
                f"matrices must be {d.dim}x{d.dim} to match the grading, got {self.dim}x{self.dim}"
            )
        if self.rank != d.rank:
            raise DimensionMismatchError(
                f"a rank-{d.rank} grading needs {d.rank} raising matrices, got {self.rank}"
            )

    def graded_matrices(self):
        """``(name, M, target shift)``: A_i on e_i, then B_i on -e_i.

        At rank 1 the names are ``A`` and ``B``, otherwise ``A_1 ... A_r``.
        """
        unit = np.eye(self.rank, dtype=np.int64)
        for side, mats, sign in (("A", self.a_list, 1), ("B", self.b_list, -1)):
            for i, m in enumerate(mats):
                yield (side if self.rank == 1 else f"{side}_{i + 1}"), m, sign * unit[i]


@dataclass(frozen=True)
class Violation:
    """One failed check inside a report."""

    check: str
    measure: float
    detail: str = ""


@dataclass(eq=False)
class CheckReport:
    """Outcome of the exact weight-shift pattern check.

    ``worst`` is the largest modulus of a forbidden entry, 0.0 on a pass;
    ``checks`` is the number of matrix entries tested.
    """

    ok: bool
    worst: float
    checks: int
    violations: tuple[Violation, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class PurityWitness:
    """Offending frame pair for a failed purity test, 1-based positions."""

    side: str
    i: int
    j: int
    commutator_norm: float
    threshold: float


@dataclass(eq=False)
class PurityResult:
    """Boolean purity decision plus the first offending pair on failure."""

    pure: bool
    witness: PurityWitness | None = None

    def __bool__(self) -> bool:
        return self.pure


def _vector(parts: list[str]) -> str:
    """One torus coordinate bare, several as a parenthesised tuple."""
    return parts[0] if len(parts) == 1 else f"({', '.join(parts)})"


def structural_violations(c: ConnectionData) -> list[Violation]:
    """Exact-zero test on entries outside the allowed weight-shift pattern."""
    shifts = c.decomposition.shifts()
    out: list[Violation] = []
    for name, m, target in c.graded_matrices():
        bad = (shifts != target).any(axis=-1) & (m != 0)
        for i, j in zip(*np.nonzero(bad)):
            out.append(
                Violation(
                    check=f"structural:{name}",
                    measure=float(abs(m[i, j])),
                    detail=f"forbidden entry ({i}, {j}) with weight shift "
                    + _vector([str(int(s)) for s in shifts[i, j]]),
                )
            )
    return out


def validate_covariance(
    c: ConnectionData,
    samples: int | None = None,
    tol: float | None = None,
    seed: int | None = None,
) -> CheckReport:
    """Check torus covariance exactly, by the weight-shift pattern.

    ``f(tau) M f(tau)^{-1} = tau^t M`` holds for every tau exactly when
    each nonzero entry of M joins two weights that differ by the target
    shift t (``e_i`` for A_i, ``-e_i`` for B_i), so the structural
    violations decide covariance with no sampling and no tolerance.
    ``samples``, ``tol`` and ``seed`` are accepted, but none of them
    enters the verdict.
    """
    found = structural_violations(c)
    return CheckReport(
        ok=not found,
        worst=max((v.measure for v in found), default=0.0),
        checks=sum(m.size for _, m, _ in c.graded_matrices()),
        violations=tuple(found),
    )


def is_pure(t: FrameTuple, tol: float = DEFAULT_TOL) -> PurityResult:
    """Decide purity: all raising values commute and all lowering values commute.

    A pair commutes when its commutator norm relative to the product of
    the operand norms is at most ``tol``; the witness reports ``tol`` times
    that product as its threshold.  Rank-1 tuples are always pure.
    On failure the first offending pair (1-based, A side scanned first)
    is returned with its commutator norm.
    """
    for side, mats in (("A", t.a_list), ("B", t.b_list)):
        norms = [frob(m) for m in mats]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = frob(mats[i] @ mats[j] - mats[j] @ mats[i])
                if not relative(comm, norms[i] * norms[j]) <= tol:
                    return PurityResult(
                        pure=False,
                        witness=PurityWitness(
                            side=side,
                            i=i + 1,
                            j=j + 1,
                            commutator_norm=float(comm),
                            threshold=float(tol * norms[i] * norms[j]),
                        ),
                    )
    return PurityResult(pure=True)


def involution(c: ConnectionData) -> ConnectionData:
    """Involution on connection data: ``(A_i, B_i) -> (-B_i^*, -A_i^*)``.

    Exchanges the raising and lowering roles while preserving the
    weight-shift pattern exactly; applying it twice returns the input.
    """
    return ConnectionData(
        decomposition=c.decomposition,
        a_list=tuple(-dagger(b) for b in c.b_list),
        b_list=tuple(-dagger(a) for a in c.a_list),
    )


def is_hermitian(c: ConnectionData, tol: float = DEFAULT_TOL) -> bool:
    """True when every ``B_i = -A_i^*`` within tolerance, i.e. c is an involution fixed point."""
    return all(
        relative(frob(b + dagger(a)), frob(a)) <= tol for a, b in zip(c.a_list, c.b_list)
    )


def gauge(c: ConnectionData, h, tol: float = DEFAULT_TOL) -> ConnectionData:
    """Conjugate connection data by a centralizer element: every ``M -> h M h^{-1}``.

    ``h`` must be block diagonal for the grading within ``tol`` (its
    off-block part is discarded) and every diagonal block must be
    invertible.  The conjugation is one product of block-diagonal factors,
    so exact zeros on forbidden blocks stay exact.
    """
    h = as_matrix(h, square=True)
    d = c.decomposition
    if h.shape[0] != d.dim:
        raise DimensionMismatchError(f"gauge matrix is {h.shape}, grading has dim {d.dim}")
    off = d.shifts().any(axis=-1)
    if not _in_commutant(h, off, tol):
        raise NotInCommutantError("gauge matrix is not block diagonal for the grading")
    hb = np.where(off, 0, h)
    hinv = np.zeros_like(hb)
    for block in d.blocks:
        ix = np.ix_(block.indices, block.indices)
        hinv[ix] = _invert(hb[ix])
    return ConnectionData(
        decomposition=d,
        a_list=tuple(hb @ a @ hinv for a in c.a_list),
        b_list=tuple(hb @ b @ hinv for b in c.b_list),
    )
