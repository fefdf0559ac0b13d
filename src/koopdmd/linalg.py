"""Dense linear-algebra kernels used by the decomposition modules.

Thin, contract-enforcing wrappers around LAPACK (via numpy). The contract
is the returned structure and its invariants (orthonormality, descending
singular values, bounded residuals), not the factorization algorithm.
All functions are pure and safe to call concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError

# Singular values below DEFAULT_RANK_TOL * largest are treated as zero
# wherever a numerical rank decision is needed (pinv, rank checks, and the
# POD rank cut, which pod_snapshots applies to the Gramian's eigenvalues).
DEFAULT_RANK_TOL = 1e-12


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

    W: (rows x r) column-orthonormal left singular vectors.
    S: (r,) singular values, descending, r = min(rows, cols).
    V: (cols x r) column-orthonormal right singular vectors.
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


def svd(X) -> SvdResult:
    """Reduced singular value decomposition of a real matrix.

    Returns all min(rows, cols) singular triplets; callers apply their own
    truncation policy. Raises DecompositionError if the underlying
    iteration does not converge (LAPACK's internal cap).
    """
    a = as_matrix(X, "X")
    try:
        w, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise DecompositionError(f"SVD did not converge: {exc}") from exc
    return SvdResult(W=w, S=s, V=vh.T.copy())


def svd_of(X, factors: SvdResult | None = None) -> SvdResult:
    """svd(X), or factors when the caller already holds the SVD of X.

    Only the shapes of given factors are checked (ValueError on a
    mismatch); that they factor X is the caller's promise.
    """
    if factors is None:
        return svd(X)
    rows, cols = np.shape(X)
    if factors.W.shape[0] != rows or factors.V.shape[0] != cols:
        raise ValueError(
            f"factors have shape {factors.W.shape[0]} x {factors.V.shape[0]}, "
            f"X has {rows} x {cols}"
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

    Singular values below rel_tol * S_max are treated as exactly zero.
    The zero matrix maps to the zero matrix of transposed shape.
    """
    if rel_tol < 0:
        raise ValueError("rel_tol must be non-negative")
    r = svd(X)
    if r.S[0] == 0.0:
        return np.zeros((r.V.shape[0], r.W.shape[0]))
    keep = r.S > rel_tol * r.S[0]
    if not np.any(keep):  # pragma: no cover - S[0] always passes its own cut
        return np.zeros((r.V.shape[0], r.W.shape[0]))
    return (r.V[:, keep] / r.S[keep]) @ r.W[:, keep].T


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
