"""Torus-covariant connection data over a weight grading.

A rank-1 grading of C^N singles out a pair of matrices (A, B): entries of
A may only join a weight block to the block one weight higher, entries of
B to the block one weight lower.  Equivalently ``f(tau) A f(conj(tau)) =
tau A`` and ``f(tau) B f(conj(tau)) = conj(tau) B`` for unit-modulus tau.

The module checks that covariance (structurally and on sampled torus
elements), decides purity of a frame tuple by commutators, applies the
involution ``(A, B) -> (-B^*, -A^*)`` induced by the group involution
``h -> (h^*)^{-1}``, recognizes its fixed points (hermitian data), and
acts by gauge transformations from the block-diagonal centralizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadWitnessError,
    DimensionMismatchError,
    MissingWeightsError,
    NotInCommutantError,
)
from .linalg import (
    ABS_FLOOR,
    DEFAULT_TOL,
    PURITY_FLOOR,
    as_matrix,
    dagger,
    frob,
    invert,
    is_unitary,
    scaled_tol,
)
from .weights import WeightData, WeightDecomposition, commutant_contains, decompose

# Number of sampled torus elements used by the covariance checks.
DEFAULT_SAMPLES = 32


def _locked(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class ConnectionData:
    """A rank-1 weight grading with a raising matrix A and lowering matrix B."""

    decomposition: WeightDecomposition
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.decomposition.rank != 1:
            raise ValueError("connection data needs a rank-1 grading")
        n = self.decomposition.dim
        a = as_matrix(self.a, square=True)
        b = as_matrix(self.b, square=True)
        if a.shape[0] != n or b.shape[0] != n:
            raise DimensionMismatchError(
                f"matrices must be {n}x{n} to match the grading, got {a.shape} and {b.shape}"
            )
        self.a = _locked(a)
        self.b = _locked(b)

    @property
    def dim(self) -> int:
        return self.decomposition.dim


@dataclass(eq=False)
class FrameTuple:
    """Values of a connection on a frame: r raising and r lowering matrices.

    ``weights`` optionally records a rank-r grading for the multi-rank
    torus check; the commutator purity test does not need it.
    """

    a_list: tuple[np.ndarray, ...]
    b_list: tuple[np.ndarray, ...] | None = None
    weights: WeightData | None = None

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
        if self.weights is not None:
            if self.weights.dim != n:
                raise DimensionMismatchError("weight data does not match the matrix size")
            if self.weights.rank != len(a_list):
                raise DimensionMismatchError(
                    "weight rank must equal the number of frame matrices"
                )
        self.a_list = tuple(_locked(a) for a in a_list)
        self.b_list = tuple(_locked(b) for b in b_list)

    @property
    def rank(self) -> int:
        return len(self.a_list)

    @property
    def dim(self) -> int:
        return self.a_list[0].shape[0]


@dataclass(frozen=True)
class Witness:
    """Asserts that a unitary group element carries frame sum I onto frame sum J.

    ``matrix`` is the image of the group element in GL_N(C); ``left`` and
    ``right`` are 1-based frame positions with equal cardinality.
    """

    matrix: np.ndarray
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        m = as_matrix(self.matrix, square=True)
        left = tuple(int(i) for i in self.left)
        right = tuple(int(j) for j in self.right)
        if len(left) != len(right):
            raise BadWitnessError(
                f"witness index sets must have equal size, got {len(left)} and {len(right)}"
            )
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise BadWitnessError("witness index sets must not repeat entries")
        if any(i < 1 for i in left + right):
            raise BadWitnessError("witness frame positions are 1-based and positive")
        if not is_unitary(m, 1e-8):
            raise BadWitnessError("witness matrix must be unitary")
        object.__setattr__(self, "matrix", _locked(m))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@dataclass(frozen=True)
class TorusWitness:
    """A basket of stabilizer witnesses to be checked against a frame tuple."""

    witnesses: tuple[Witness, ...]


@dataclass(frozen=True)
class Violation:
    """One failed check inside a report."""

    check: str
    measure: float
    detail: str = ""


@dataclass(eq=False)
class CheckReport:
    """Outcome of a sampled or structural verification."""

    ok: bool
    worst: float
    tol: float
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


def structural_violations(c: ConnectionData) -> list[Violation]:
    """Exact-zero test on entries outside the allowed weight-shift pattern."""
    diff = c.decomposition.shifts()[:, :, 0]
    out: list[Violation] = []
    for name, m, shift in (("A", c.a, 1), ("B", c.b, -1)):
        bad = (diff != shift) & (m != 0)
        for i, j in zip(*np.nonzero(bad)):
            out.append(
                Violation(
                    check=f"structural:{name}",
                    measure=float(abs(m[i, j])),
                    detail=f"forbidden entry ({i}, {j}) with weight shift {int(diff[i, j])}",
                )
            )
    return out


def _sampled_covariance(
    d: WeightDecomposition, entries, samples, seed, tol, detail, found=()
) -> CheckReport:
    """Report on ``f(tau) M f(tau)^{-1} = tau^t M`` at sampled tau, after ``found``.

    ``entries`` holds ``(check, M, t)`` with t the integer target shift of M.
    Entry (i, j) and the target are scaled by the same ``exp(i angle . s)``,
    evaluated once per distinct shift s, so |M|^2 mass on ``s = t`` adds
    exactly 0 at any weight size (``tau ** s`` would drift off the unit
    circle at large s).  Violations follow ``found``, sample-major
    in entry order; ``detail(sample, angle)`` describes each.
    """
    angles = 2 * np.pi * np.random.default_rng(seed).uniform(size=(samples, d.rank))
    support = [m != 0 for _, m, _ in entries]
    rows = [np.array([t for *_, t in entries]), *(d.shifts()[s] for s in support)]
    keys, key_of = np.unique(np.concatenate(rows), axis=0, return_inverse=True)
    target, *owned = np.split(key_of, np.cumsum([len(r) for r in rows[:-1]]))
    phase = np.exp(1j * (angles @ keys.T))
    res = np.empty((samples, len(entries)))
    for k, ((_, m, _), s, ix) in enumerate(zip(entries, support, owned)):
        mass = np.bincount(ix, weights=np.abs(m[s]) ** 2, minlength=len(keys))
        off_target = np.abs(phase - phase[:, target[k], None]) ** 2
        res[:, k] = np.sqrt(off_target @ mass) / max(frob(m), ABS_FLOOR)
    violations = list(found) + [
        Violation(check=entries[k][0], measure=float(res[s, k]), detail=detail(s, angles[s]))
        for s, k in np.argwhere(res > tol)
    ]
    return CheckReport(
        ok=not violations,
        worst=max([float(res.max(initial=0.0)), *(v.measure for v in found)]),
        tol=tol,
        checks=len(found) + res.size,
        violations=tuple(violations),
    )


def validate_covariance(
    c: ConnectionData,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> CheckReport:
    """Check the weight-shift pattern exactly and covariance on sampled tau.

    Structural failures are nonzero entries on forbidden blocks.  Sampled
    failures are residuals ``f(tau) A f(conj(tau)) - tau A`` (and the
    conjugate relation for B) above ``tol`` relative to the matrix norm.
    The torus acts on entry (i, j) through the exact integer shift
    ``w_i - w_j`` only, so data that passes the structural check has a
    sampled residual of exactly 0 at any weight size.
    """
    entries = (("sampled:A", c.a, (1,)), ("sampled:B", c.b, (-1,)))
    return _sampled_covariance(
        c.decomposition, entries, samples, seed, tol,
        lambda s, angle: f"sample {s}, tau={complex(np.exp(1j * angle[0])):.6f}",
        structural_violations(c),
    )


def is_pure(t: FrameTuple, tol: float = DEFAULT_TOL) -> PurityResult:
    """Decide purity: all raising values commute and all lowering values commute.

    The threshold for a pair is ``tol`` times the product of the operand
    norms, floored at ``PURITY_FLOOR``.  Rank-1 tuples are always pure.
    On failure the first offending pair (1-based, A side scanned first)
    is returned with its commutator norm.
    """
    for side, mats in (("A", t.a_list), ("B", t.b_list)):
        norms = [frob(m) for m in mats]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = frob(mats[i] @ mats[j] - mats[j] @ mats[i])
                threshold = max(tol * norms[i] * norms[j], PURITY_FLOOR)
                if comm > threshold:
                    return PurityResult(
                        pure=False,
                        witness=PurityWitness(
                            side=side,
                            i=i + 1,
                            j=j + 1,
                            commutator_norm=float(comm),
                            threshold=float(threshold),
                        ),
                    )
    return PurityResult(pure=True)


def involution(c: ConnectionData) -> ConnectionData:
    """Involution on connection data: ``(A, B) -> (-B^*, -A^*)``.

    Exchanges the raising and lowering roles while preserving the
    weight-shift pattern exactly; applying it twice returns the input.
    """
    return ConnectionData(
        decomposition=c.decomposition,
        a=-dagger(c.b),
        b=-dagger(c.a),
    )


def is_hermitian(c: ConnectionData, tol: float = DEFAULT_TOL) -> bool:
    """True when ``B = -A^*`` within tolerance, i.e. c is an involution fixed point."""
    return frob(c.b + dagger(c.a)) <= tol * max(frob(c.a), ABS_FLOOR)


def gauge(c: ConnectionData, h, tol: float = DEFAULT_TOL) -> ConnectionData:
    """Conjugate connection data by a centralizer element: ``(h A h^{-1}, h B h^{-1})``.

    ``h`` must be block diagonal for the grading within ``tol`` (its
    off-block part is discarded) and every diagonal block must be
    invertible.  The conjugation is one product of block-diagonal factors,
    so exact zeros on forbidden blocks stay exact.
    """
    h = as_matrix(h, square=True)
    d = c.decomposition
    if h.shape[0] != d.dim:
        raise DimensionMismatchError(f"gauge matrix is {h.shape}, grading has dim {d.dim}")
    if not commutant_contains(d, h, tol):
        raise NotInCommutantError("gauge matrix is not block diagonal for the grading")
    hb = np.where(d.shifts().any(axis=-1), 0, h)
    hinv = np.zeros_like(hb)
    for block in d.blocks:
        ix = np.ix_(block.indices, block.indices)
        hinv[ix] = invert(hb[ix])
    return ConnectionData(decomposition=d, a=hb @ c.a @ hinv, b=hb @ c.b @ hinv)


def check_torus_multirank(
    t: FrameTuple,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> CheckReport:
    """Sampled covariance for a rank-r frame tuple with weight data.

    For sampled ``tau`` in the r-torus, checks ``f(tau) A_i f(tau)^{-1} =
    tau_i A_i`` and ``f(tau) B_i f(tau)^{-1} = conj(tau_i) B_i`` through
    the exact integer shifts ``w_i - w_j``, as ``validate_covariance`` does.
    """
    if t.weights is None:
        raise MissingWeightsError("multi-rank torus check needs weight data on the tuple")
    entries = []
    for i, (a, b, e) in enumerate(zip(t.a_list, t.b_list, np.eye(t.rank, dtype=np.int64))):
        entries += [(f"torus:A_{i + 1}", a, e), (f"torus:B_{i + 1}", b, -e)]
    return _sampled_covariance(
        decompose(t.weights), entries, samples, seed, tol, lambda s, _: f"sample {s}"
    )


def check_stabilizer_sums(
    t: FrameTuple, w: TorusWitness, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Verify witnessed stabilizer relations on sums of raising values.

    Each witness (k, I, J) asserts ``k A_I k^{-1} = A_J`` with
    ``A_I = sum_{i in I} A_i``; the residual is measured relative to the
    larger of the two sums' norms.
    """
    worst = 0.0
    violations: list[Violation] = []
    for idx, wit in enumerate(w.witnesses):
        if any(i > t.rank for i in wit.left + wit.right):
            raise BadWitnessError(
                f"witness {idx} refers to frame positions beyond rank {t.rank}"
            )
        n = t.dim
        a_left = sum((t.a_list[i - 1] for i in wit.left), np.zeros((n, n), dtype=complex))
        a_right = sum((t.a_list[j - 1] for j in wit.right), np.zeros((n, n), dtype=complex))
        k = wit.matrix
        res = frob(k @ a_left @ invert(k) - a_right)
        scale = max(frob(a_left), frob(a_right), ABS_FLOOR)
        measure = res / scale
        worst = max(worst, measure)
        if measure > tol:
            violations.append(
                Violation(
                    check=f"witness:{idx}",
                    measure=float(measure),
                    detail=f"I={list(wit.left)}, J={list(wit.right)}",
                )
            )
    return CheckReport(
        ok=not violations,
        worst=float(worst),
        tol=tol,
        checks=len(w.witnesses),
        violations=tuple(violations),
    )
