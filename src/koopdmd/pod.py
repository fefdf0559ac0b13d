"""Proper orthogonal decomposition of observables by the method of
snapshots, and its ergodic form computed from a single Hankel block.

Both paths produce the same structure: singular values sigma_j,
principal coordinates (right singular vectors paired with the data
column index), and basis functions sampled along the trajectory. Basis
sample columns carry the sqrt(m) factor that makes them unit vectors in
the empirical norm (1/sqrt(m)) * ||.||_2, the trajectory-average
surrogate for the underlying function-space norm. A result holds its
basis as a factor and a scale (for ergodic_pod, the SVD's own W and
sqrt(m)); pod_basis.npy is formed from them block by block by the .npy
writer.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .embed import HankelBlock
from .errors import DecompositionError
from .ioutil import RowSource, write_json, write_npy
from .ioutil import write_csv  # noqa: F401 (perfbench/tracer.py wraps pod.write_csv)

#: Adjacent singular values closer than this (relative) flag degeneracy.
_DEGENERACY_RTOL = 1e-10


@dataclass(frozen=True)
class PodResult:
    """Retained POD spectrum and sampled basis.

    singular_values: descending, the k values above the rank cut.
    principal_coords: (n_snapshots x k); column j is the coordinate
        vector of basis function j, indexed against the data column index.
    W, scale: the basis as scale * W. From ergodic_pod, W is a read-only
        view of the kept columns of the SVD's left singular vectors (the
        one W a run holds) and scale is sqrt(m); from pod_snapshots, W is
        the basis itself and scale is 1.
    basis_samples: (property, m x k) scale * W, formed once on first use;
        column j samples basis function j along the trajectory, scaled so
        its empirical norm is 1.
    degenerate: True when two retained singular values coincide to
        relative precision 1e-10, in which case the individual vectors
        within the tied group are basis-dependent (their span is not).
    """

    singular_values: np.ndarray
    principal_coords: np.ndarray
    W: np.ndarray
    scale: float
    m: int
    k: int
    degenerate: bool = False

    @cached_property
    def basis_samples(self) -> np.ndarray:
        return self.scale * self.W


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
    the eigenvalues of G above 1e-12 times the largest (linalg.numerical_rank),
    that is sigma_j / sigma_0 > 1e-6, the resolution of a route that squares
    the condition number.
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
    k = linalg.numerical_rank(evals)
    evecs = evecs[:, :k]
    sigma = np.sqrt(evals[:k])
    basis = f @ evecs
    basis /= sigma[None, :]
    return PodResult(
        singular_values=sigma,
        principal_coords=evecs,
        W=basis,
        scale=1.0,
        m=f.shape[0],
        k=int(sigma.size),
        degenerate=_flag_degenerate(sigma),
    )


def retained_rank(S) -> int:
    """POD's rank of a block with descending singular values S,
    sigma_j / sigma_0 > 1e-8 (linalg.truncation_rank, the default cut of
    DMD too); an identically zero block is a DecompositionError."""
    k = linalg.truncation_rank(S)
    if k == 0:
        raise DecompositionError("Hankel block is identically zero; nothing to decompose")
    return k


def ergodic_pod(block: HankelBlock, factors: linalg.SvdResult | None = None) -> PodResult:
    """POD of the delayed observables straight from the Hankel block.

    The SVD H = W diag(S) V^T (m = row count) gives the POD of the
    empirical Gramian (1/m) H^T H: singular values S / sqrt(m), principal
    coordinates V, and basis functions sampled along the trajectory as
    sqrt(m) W. It keeps retained_rank(S) columns and holds them as a view
    of W with the scale sqrt(m), so the basis is never a second m x k
    array and W is left as it is. factors, when given, is the SVD of
    block.H computed elsewhere (for a lone unscaled block, the one Hankel
    DMD also uses), whose W holds at least the kept columns.
    """
    h = block.H
    m = h.shape[0]
    r = linalg.svd_of(h, factors, linalg.truncation_rank)
    k = retained_rank(r.S)
    sigma = r.S[:k] / np.sqrt(m)
    return PodResult(
        singular_values=sigma,
        principal_coords=r.V[:, :k],
        W=r.W[:, :k],
        scale=float(np.sqrt(m)),
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


# Named for the CSV it once wrote; perfbench/tracer.py wraps this name.
def write_basis_csv(result: PodResult, path) -> None:
    """pod_basis.npy: basis_samples as float64, one column per retained
    basis function, formed block by block by the writer."""
    write_npy(path, RowSource(result.W.shape, lambda lo, hi: result.scale * result.W[lo:hi]),
              np.float64)


# Named for the CSV it once wrote; perfbench/tracer.py wraps this name.
def write_coords_csv(result: PodResult, path) -> None:
    """pod_coords.npy: principal_coords as float64; row i is data column i."""
    write_npy(path, result.principal_coords, np.float64)
