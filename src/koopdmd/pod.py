"""Proper orthogonal decomposition of observables by the method of
snapshots, and its ergodic form computed from a single Hankel block.

Both paths produce the same structure: singular values sigma_j,
principal coordinates (right singular vectors paired with the data
column index), and basis functions sampled along the trajectory. Basis
sample columns carry the sqrt(m) factor that makes them unit vectors in
the empirical norm (1/sqrt(m)) * ||.||_2, the trajectory-average
surrogate for the underlying function-space norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .embed import HankelBlock
from .errors import DecompositionError
from .ioutil import write_csv, write_json

#: Adjacent singular values closer than this (relative) flag degeneracy.
_DEGENERACY_RTOL = 1e-10


@dataclass(frozen=True)
class PodResult:
    """Retained POD spectrum and sampled basis.

    singular_values: descending, the k values above the rank cut.
    principal_coords: (n_snapshots x k); column j is the coordinate
        vector of basis function j, indexed against the data column index.
    basis_samples: (m x k); column j samples basis function j along the
        trajectory, scaled so its empirical norm is 1 (sqrt(m) included).
    degenerate: True when two retained singular values coincide to
        relative precision 1e-10, in which case the individual vectors
        within the tied group are basis-dependent (their span is not).
    """

    singular_values: np.ndarray
    principal_coords: np.ndarray
    basis_samples: np.ndarray
    m: int
    k: int
    degenerate: bool = False


def _flag_degenerate(sigma: np.ndarray) -> bool:
    if sigma.size < 2:
        return False
    gaps = sigma[:-1] - sigma[1:]
    return bool(np.any(gaps <= _DEGENERACY_RTOL * sigma[0]))


def pod_snapshots(G, F_samples) -> PodResult:
    """Method of snapshots from a Gramian G of inner products.

    G[i][j] approximates the inner product of snapshots i and j; F_samples
    holds the snapshot sample vectors as columns (m samples x n snapshots).
    G must be symmetric and positive semidefinite up to roundoff. Basis
    function j is F @ v_j / sigma_j, evaluated here on the samples. It keeps
    the eigenvalues of G above 1e-12 (linalg.DEFAULT_RANK_TOL) times the
    largest, that is sigma_j / sigma_0 > 1e-6, the resolution of a route
    that squares the condition number.
    """
    g = linalg.as_matrix(G, "G")
    f = linalg.as_matrix(F_samples, "F_samples")
    if g.shape[0] != g.shape[1]:
        raise ValueError(f"G must be square, got {g.shape}")
    if f.shape[1] != g.shape[0]:
        raise ValueError(
            f"F_samples has {f.shape[1]} columns but G is {g.shape[0]} x {g.shape[0]}"
        )
    scale = max(1.0, float(np.max(np.abs(g))))
    asym = float(np.max(np.abs(g - g.T)))
    if asym > 1e-10 * scale:
        raise ValueError(f"G is not symmetric (max asymmetry {asym:.3e})")
    g = 0.5 * (g + g.T)
    evals, evecs = np.linalg.eigh(g)
    lam_max = float(evals[-1])
    if lam_max <= 0.0:
        raise ValueError("G has no positive eigenvalues; nothing to decompose")
    if evals[0] < -1e-10 * max(1.0, lam_max):
        raise ValueError(
            f"G is indefinite (smallest eigenvalue {evals[0]:.3e}); "
            "not a Gramian up to roundoff"
        )
    # eigh returns ascending order; reverse with a stable sort so exactly
    # tied eigenvalues keep their original (column index) order.
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    evecs = evecs[:, order]
    keep = evals > linalg.DEFAULT_RANK_TOL * lam_max
    evals = evals[keep]
    evecs = evecs[:, keep]
    sigma = np.sqrt(evals)
    basis = (f @ evecs) / sigma[None, :]
    return PodResult(
        singular_values=sigma,
        principal_coords=evecs,
        basis_samples=basis,
        m=f.shape[0],
        k=int(sigma.size),
        degenerate=_flag_degenerate(sigma),
    )


def ergodic_pod(block: HankelBlock, factors: linalg.SvdResult | None = None) -> PodResult:
    """POD of the delayed observables straight from the Hankel block.

    The SVD H = W diag(S) V^T (m = row count) gives the POD of the
    empirical Gramian (1/m) H^T H: singular values S / sqrt(m), principal
    coordinates V, and basis functions sampled along the trajectory as
    sqrt(m) W. factors, when given, is the SVD of block.H computed
    elsewhere (for a lone unscaled block, the one Hankel DMD also uses).
    It keeps sigma_j / sigma_0 > 1e-12 (linalg.DEFAULT_RANK_TOL). An
    identically zero block is a DecompositionError.
    """
    h = block.H
    m = h.shape[0]
    r = linalg.svd_of(h, factors)
    if r.S[0] == 0.0:
        raise DecompositionError("Hankel block is identically zero; nothing to decompose")
    # S is descending, so the kept triplets are a prefix.
    k = int(np.count_nonzero(r.S > linalg.DEFAULT_RANK_TOL * r.S[0]))
    sigma = r.S[:k] / np.sqrt(m)
    return PodResult(
        singular_values=sigma,
        principal_coords=r.V[:, :k],
        basis_samples=np.sqrt(m) * r.W[:, :k],
        m=m,
        k=k,
        degenerate=_flag_degenerate(sigma),
    )


def reconstruction_error(result: PodResult, F_samples, p: int) -> float:
    """Mean empirical-norm error of the rank-p reconstruction.

    Rebuilds each data column from the leading p basis functions and
    returns the average over columns of (1/sqrt(m)) * ||rebuilt - data||_2.
    Decreasing in p; exact (up to roundoff) at p = k when the data has
    numerical rank at most k.
    """
    f = linalg.as_matrix(F_samples, "F_samples")
    if not 0 <= p <= result.k:
        raise ValueError(f"p must be in [0, {result.k}], got {p}")
    if f.shape[0] != result.basis_samples.shape[0]:
        raise ValueError(
            f"F_samples has {f.shape[0]} rows, basis samples have "
            f"{result.basis_samples.shape[0]}"
        )
    if f.shape[1] != result.principal_coords.shape[0]:
        raise ValueError(
            f"F_samples has {f.shape[1]} columns, principal coordinates cover "
            f"{result.principal_coords.shape[0]}"
        )
    rebuilt = (
        result.basis_samples[:, :p]
        @ (result.singular_values[:p, None] * result.principal_coords[:, :p].T)
    )
    errs = np.linalg.norm(rebuilt - f, axis=0) / np.sqrt(result.m)
    return float(np.mean(errs))


def result_to_dict(result: PodResult) -> dict:
    return {
        "m": int(result.m),
        "k": int(result.k),
        "degenerate": bool(result.degenerate),
        "singular_values": [float(s) for s in result.singular_values],
    }


def write_result_json(result: PodResult, path) -> None:
    write_json(path, result_to_dict(result))


def write_basis_csv(result: PodResult, path) -> None:
    """Basis samples, one column per retained basis function."""
    header = [f"psi{j + 1}" for j in range(result.k)]
    write_csv(path, header, result.basis_samples)


def write_coords_csv(result: PodResult, path) -> None:
    """Principal coordinates; row i is data column i."""
    header = [f"v{j + 1}" for j in range(result.k)]
    write_csv(path, header, result.principal_coords)
