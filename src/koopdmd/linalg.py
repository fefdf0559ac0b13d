"""Dense linear-algebra kernels used by the decomposition modules.

Thin, contract-enforcing wrappers around LAPACK (via numpy). The contract
is the returned structure and its invariants (orthonormality, descending
singular values, bounded residuals), not the factorization algorithm.
All functions are pure and safe to call concurrently. numerical_rank is
the package's one rank rule, at one of two cuts:

* DEFAULT_RANK_TOL, sigma_j / sigma_0 > 1e-12, answers whether a direction
  is there at all. It makes every rank check: svd_dmd's and
  companion_dmd's full-rank refusals, pod_snapshots' cut (on eigenvalues,
  so sigma_j / sigma_0 > 1e-6) and pinv.
* TRUNCATION_TOL, sigma_j / sigma_0 > 1e-8, is the default truncation of
  POD and of the truncating DMD variants (truncation_rank). Their
  projected operator W^T Y V S^-1 divides by the smallest kept sigma_k, so
  its forward error grows like eps * sigma_0 / sigma_k (Drmac, Mezic &
  Mohr, SIAM J. Sci. Comput. 2018). At 1e-12 that estimate is about
  2e-4, four correct digits; at 1e-8 it is at most 2.2e-8, about eight.
  So a triplet that the operator cannot resolve is cut, although the data
  holds it: the rank a computation can resolve is not the numerical rank
  (Hansen, Rank-Deficient and Discrete Ill-Posed Problems, SIAM 1998).

svd forms only the left singular vectors its caller keeps: given a rank
rule, the W of a tall matrix holds just the leading rank(S) columns. It
factors every tall matrix the way LAPACK's dgesdd does (a QR, then the
SVD of the small R; Chan, ACM TOMS 1982), but in one copy of its input,
and it never forms Q: the kept columns W = Q U_R[:, :k] come from
applying the QR's Householder reflectors to U_R[:, :k] in blocks, on two
threads (_apply_q). S and V hold the bits np.linalg.svd returns, except
where dgesdd first rescales an input whose largest entry is below about
1e-138 or above 1e138: there they agree to roundoff, as W always does. A
rerun with the same numpy, BLAS and BLAS thread count gives the same
bits, on any number of CPUs.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.linalg import lapack_lite

from .errors import DecompositionError

#: Singular values at or below DEFAULT_RANK_TOL * largest are treated as
#: zero wherever a rank is checked (numerical_rank).
DEFAULT_RANK_TOL = 1e-12

#: POD and DMD keep by default the singular triplets above TRUNCATION_TOL *
#: largest, those whose projected operator holds about eight digits.
TRUNCATION_TOL = 1e-8

#: A rank rule maps the descending singular values to the number of
#: leading singular triplets a caller keeps.
RankRule = Callable[[np.ndarray], int]


def numerical_rank(S, tol: float = DEFAULT_RANK_TOL, absolute: bool = False) -> int:
    """Number of the descending values S above the cutoff tol * S[0] (tol
    itself when absolute), a prefix of S. Strict, so exact zeros never
    count, not even at a zero cutoff."""
    return int(np.count_nonzero(S > (tol if absolute else tol * S[0])))


def truncation_rank(S) -> int:
    """The default truncation of POD and DMD: numerical_rank at
    TRUNCATION_TOL, sigma_j / sigma_0 > 1e-8."""
    return numerical_rank(S, TRUNCATION_TOL)


#: Householder reflectors applied at a time when the kept left singular
#: vectors of a tall matrix are formed (_apply_q).
_REFLECTORS = 64

#: Rows of W updated per product when a block of reflectors is applied
#: (_apply_q): buffers of a whole half raised lorenz-pod's peak RSS by 27 MiB.
_CHUNK_ROWS = 256


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a non-empty 2-D float array with finite entries."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Reduced SVD X = W @ diag(S) @ V.T.

    W: (rows x w) column-orthonormal leading left singular vectors, where
        w >= the count the rank rule of svd keeps (equal for a tall
        matrix); w = r without a rule. Read-only from svd, so callers
        that share the factors hold views of one W.
    S: (r,) singular values, descending, r = min(rows, cols).
    V: (cols x r) column-orthonormal right singular vectors.
    From svd, S and V hold np.linalg.svd's bits and W agrees with numpy's
    to roundoff (see the module docstring).
    """

    W: np.ndarray
    S: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class EigResult:
    """Eigendecomposition A @ w_j = lambda_j * w_j with unit-norm w_j.

    For real input, complex eigenvalues occur in conjugate pairs
    (adjacent in LAPACK output order).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _lapack(routine, *args) -> None:
    """Run a lapack_lite routine, whose last three arguments are work,
    lwork and info, with its optimal workspace."""
    work = np.empty(1)
    routine(*args, work, -1, 0)
    work = np.empty(int(work[0]))
    info = routine(*args, work, work.size, 0)["info"]
    if info != 0:  # pragma: no cover - only an illegal argument sets it
        raise DecompositionError(f"{routine.__name__} failed (info {info})")


def _tall_svd(a: np.ndarray, rank: RankRule | None) -> SvdResult:
    """dgesdd's path for rows >= 11 cols / 6 (Chan's R-SVD), in one copy
    of a.

    dgeqrf factors a Fortran-ordered copy in place, and np.linalg.svd
    factors R, which gives S and V dgesdd's bits. Q is never formed: the
    kept columns W = Q [U_R[:, :k]; 0] are the reflectors applied to a
    C-ordered array that holds U_R[:, :k] in its leading rows (_apply_q).
    """
    rows, cols = a.shape
    qt = np.empty((cols, rows))  # lapack_lite takes C order: the factors transposed
    qt[...] = a.T
    tau = np.empty(cols)
    _lapack(lapack_lite.dgeqrf, rows, cols, qt, rows, tau)
    r = np.triu(qt.T[:cols])
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    # W is allocated while qt lives, at a run's peak RSS: drop R and vh first.
    del r
    v = vh.T.copy()
    del vh
    k = cols if rank is None else rank(s)
    w = np.zeros((rows, k))
    w[:cols] = u[:, :k]
    _apply_q(qt, tau, w)
    return _factors(w, s, v)


def _larft(g: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The upper triangular T with H_0 H_1 ... H_{b-1} = I - V T V^T, by
    dlarft's forward recurrence from the Gram matrix g = V^T V. It only
    multiplies by tau, so a zero reflector (tau_i = 0) needs no care."""
    b = tau.size
    t = np.zeros((b, b))
    for i in range(b):
        t[:i, i] = -tau[i] * (t[:i, :i] @ g[:i, i])
        t[i, i] = tau[i]
    return t


def _apply_q(qt: np.ndarray, tau: np.ndarray, c: np.ndarray) -> None:
    """c <- Q c in place, for the Q = H_0 H_1 ... H_{n-1} of dgeqrf's
    reflectors H_i = I - tau_i v_i v_i^T, where v_i is 0 above row i, 1 at
    row i and qt[i, i+1:] below it.

    The reflectors are applied _REFLECTORS at a time, the last block
    first, each as I - V T V^T (compact WY; Schreiber & Van Loan, SIAM J.
    Sci. Stat. Comput. 1989), with V read in place from qt. The rows below
    a block's unit triangular head are split into two halves at a row set
    by the shapes alone. The products over one half run on a worker
    thread and those over the other on the calling thread, and the halves
    of V^T c are summed in a fixed order, so the bits depend neither on
    the thread schedule nor on the number of CPUs.
    """
    cols, rows = qt.shape
    bufs = [np.empty((_CHUNK_ROWS, c.shape[1])) for _ in range(2)]

    def project(vt, lo, hi):
        # This half's share of V^T c and of V^T V.
        v = vt[:, lo:hi]
        return v @ c[lo:hi], v @ v.T

    def update(vt, z, lo, hi, buf):
        # c[lo:hi] -= V[lo:hi] z, through buf.
        for r in range(lo, hi, _CHUNK_ROWS):
            n = min(_CHUNK_ROWS, hi - r)
            np.matmul(vt[:, r:r + n].T, z, out=buf[:n])
            c[r:r + n] -= buf[:n]

    with ThreadPoolExecutor(1) as pool:
        for j in reversed(range(0, cols, _REFLECTORS)):
            e = min(j + _REFLECTORS, cols)
            vt = qt[j:e]  # V^T below the head is vt[:, e:]
            head = np.tril(vt[:, j:e].T, -1)
            np.fill_diagonal(head, 1.0)
            mid = (e + rows) // 2
            ahead = pool.submit(project, vt, mid, rows)
            (z0, g0), (z1, g1) = project(vt, e, mid), ahead.result()
            z = head.T @ c[j:e] + z0 + z1
            z = _larft(head.T @ head + g0 + g1, tau[j:e]) @ z
            ahead = pool.submit(update, vt, z, mid, rows, bufs[1])
            update(vt, z, e, mid, bufs[0])
            c[j:e] -= head @ z
            ahead.result()


def _factors(w: np.ndarray, s: np.ndarray, v: np.ndarray) -> SvdResult:
    """SvdResult with a read-only W: results that share it hold views."""
    w.flags.writeable = False
    return SvdResult(W=w, S=s, V=v)


def svd(X, rank: RankRule | None = None) -> SvdResult:
    """Reduced singular value decomposition of a real matrix.

    Returns all min(rows, cols) singular values and right singular
    vectors, and the left singular vectors that rank(S) keeps (all of them
    without a rule); callers apply their own truncation policy. S and V
    hold the bits of np.linalg.svd, but on input that dgesdd rescales
    (see the module docstring). A tall matrix (rows at least 11 cols /
    6, where dgesdd takes a QR first) is factored in one copy and forms
    only the kept columns of W, which agree with numpy's to roundoff;
    other shapes are np.linalg.svd's. Raises DecompositionError if the
    underlying iteration does not converge (LAPACK's internal cap).
    """
    a = as_matrix(X, "X")
    rows, cols = a.shape
    try:
        if rows >= 11 * cols // 6:
            return _tall_svd(a, rank)
        w, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise DecompositionError(f"SVD did not converge: {exc}") from exc
    return _factors(w, s, vh.T.copy())


def svd_of(X, factors: SvdResult | None = None, rank: RankRule | None = None) -> SvdResult:
    """svd(X, rank), or factors when the caller already holds the SVD of X.

    Only the shapes of given factors are checked: ValueError when they do
    not fit X, or when W holds fewer columns than rank keeps (all of them
    without a rule). That they factor X is the caller's promise.
    """
    if factors is None:
        return svd(X, rank)
    rows, cols = np.shape(X)
    if factors.W.shape[0] != rows or factors.V.shape[0] != cols:
        raise ValueError(
            f"factors have shape {factors.W.shape[0]} x {factors.V.shape[0]}, "
            f"X has {rows} x {cols}"
        )
    needed = factors.S.size if rank is None else rank(factors.S)
    if factors.W.shape[1] < needed:
        raise ValueError(
            f"factors keep {factors.W.shape[1]} left singular vectors, the caller needs {needed}"
        )
    return factors


def eig(A) -> EigResult:
    """Eigendecomposition of a real square matrix (possibly non-symmetric)."""
    a = as_matrix(A, "A")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise DecompositionError(f"eigendecomposition did not converge: {exc}") from exc
    # LAPACK already returns unit-norm vectors; renormalize defensively so
    # the unit-norm invariant never depends on backend details.
    norms = np.linalg.norm(vecs, axis=0)
    if np.any(norms == 0.0):  # pragma: no cover - LAPACK never returns zero vectors
        raise DecompositionError("eigendecomposition returned a zero eigenvector")
    return EigResult(eigenvalues=vals, eigenvectors=vecs / norms)


def pinv(X, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the SVD.

    Keeps the singular values above rel_tol * S_max (numerical_rank); the
    zero matrix maps to the zero matrix of transposed shape.
    """
    if rel_tol < 0:
        raise ValueError("rel_tol must be non-negative")
    rank = partial(numerical_rank, tol=rel_tol)
    r = svd(X, rank)
    k = rank(r.S)
    return (r.V[:, :k] / r.S[:k]) @ r.W[:, :k].T


def gram(X, scale: float) -> np.ndarray:
    """Scaled Gram matrix scale * X.T @ X, symmetrized exactly.

    The product is averaged with its transpose so downstream symmetric
    eigensolvers never see roundoff asymmetry.
    """
    a = as_matrix(X, "X")
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    g = scale * (a.T @ a)
    return 0.5 * (g + g.T)
