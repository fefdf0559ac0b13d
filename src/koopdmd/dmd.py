"""Dynamic mode decomposition variants on sequential or Hankel data.

Four decompositions of a data pair (X, Y) where Y holds the one-step
advance of X's columns. The three SVD-based variants share one core:
factor X once, keep its leading singular triplets, project the one-step
map onto them, eigendecompose the projected operator, and form the
projected modes W w_j. Each variant computes only what it returns.

* companion_dmd: fits the last column of a sequential data matrix as a
  linear combination of the earlier ones (one SVD gives both the rank
  check and the fit) and eigendecomposes the resulting companion matrix.
  Cheap, but ill-conditioned for noisy or nearly dependent data; refuses
  rank-deficient input. Independent of the core, so it serves as the
  reference the SVD variants are checked against.
* svd_dmd: the core without truncation; refuses X with numerically zero
  singular values.
* exact_dmd: the core on a hard-thresholded SVD of X; the only variant
  that also computes exact modes (eigenvectors of the full-size one-step
  operator for eigenvalues inside the data range).
* hankel_dmd: the core on a composite Hankel pair; returns the projected
  modes only, which sample Koopman eigenfunctions along the trajectory.

Eigenvalues are ordered by descending data energy of their modes (least
squares against the first data column), ties broken by descending
modulus, then ascending phase in [0, 2*pi). Keys are compared exactly, so
a tie is an exact tie. Both members of a conjugate pair carry the pair's
larger energy and the same modulus, so they tie and the positive-frequency
member comes first. Projected modes W w_j are ordered in reduced
coordinates, where the same least squares is k x k, and each is formed
once, already ordered and normalized. Each conjugate pair of projected
modes is formed once: only its lead column is multiplied by W, and the
second column is set to its conjugate, so the two columns of a pair in
modes.csv (hankel and svd) are exact conjugates, bit for bit. An SVD of
X computed elsewhere (cli shares the one of a lone Hankel block with
pod.ergodic_pod) can be handed in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .embed import CompositeData
from .errors import DecompositionError, RankDeficiencyError
from .ioutil import write_csv, write_json

ALGORITHMS = ("companion", "svd", "exact", "hankel")

#: Default hard singular-value threshold for Hankel data (absolute mode).
DEFAULT_HANKEL_THRESHOLD = 1e-10

#: Eigenvalues at or below this magnitude have no exact mode (division by
#: the eigenvalue would overflow); the projected mode is substituted.
_ZERO_EIG = 1e-300

#: Mode cells per row block when _projected_modes expands its products,
#: so the block's copy stays small next to the mode array.
_EXPAND_CELLS = 1 << 15


@dataclass(frozen=True)
class DmdResult:
    """Eigenvalues and modes of one decomposition.

    modes: complex columns of unit 2-norm; for the hankel algorithm these
        are the projected modes, i.e. eigenfunction samples along the
        trajectory (row = sample).
    projected_modes: the projected modes chi_j when the algorithm also
        produces exact modes (exact only), else None.
    residual: companion fit residual, or SVD truncation tail energy
        sqrt(sum of dropped sigma^2) for the SVD-based variants.
    condition: condition number of the fitted basis (companion only).
    undefined_exact: indices whose eigenvalue was (numerically) zero, so
        the exact mode is undefined and the projected mode was substituted.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    projected_modes: np.ndarray | None
    rank_kept: int
    residual: float
    algorithm: str
    dt: float
    condition: float | None = None
    undefined_exact: tuple[int, ...] = ()


def companion_matrix(coefficients) -> np.ndarray:
    """k x k companion matrix: ones on the subdiagonal, coefficients in the
    last column, zeros elsewhere."""
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"coefficients must be a non-empty vector, got shape {c.shape}")
    mat = np.eye(c.size, k=-1)
    mat[:, -1] = c
    return mat


def _unit_columns(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=0)
    if np.any(norms == 0.0):
        raise DecompositionError("decomposition produced a zero mode")
    return m / norms


def _conjugate_pairs(eigenvalues: np.ndarray, vectors: np.ndarray | None = None) -> np.ndarray:
    """Mask of the columns that are the second member of a conjugate pair:
    column j + 1 whose nonreal eigenvalue is the exact conjugate of column
    j's, and so is its vector when vectors are given. Pairs are taken left
    to right."""
    second = np.zeros(eigenvalues.size, dtype=bool)
    j = 0
    while j < eigenvalues.size - 1:
        if (eigenvalues[j].imag != 0.0 and eigenvalues[j + 1] == np.conj(eigenvalues[j])
                and (vectors is None
                     or np.array_equal(vectors[:, j + 1], np.conj(vectors[:, j])))):
            second[j + 1] = True
            j += 2
        else:
            j += 1
    return second


def _energy_order(eigenvalues: np.ndarray, modes: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Permutation ordering modes by their least-squares share of x0.

    modes and x0 may be given in any coordinates in which the modes keep
    their norms (for projected modes W e_j: the reduced vectors e_j and
    W^T x0). The two members of a conjugate pair of eigenvalues (see
    _conjugate_pairs) share the pair's larger energy, so roundoff never
    splits them and the positive phase comes first.
    """
    try:
        coeffs, *_ = np.linalg.lstsq(modes, x0.astype(complex), rcond=None)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"mode energy least squares did not converge: {exc}") from exc
    energy = np.abs(coeffs) * np.linalg.norm(modes, axis=0)
    second = np.flatnonzero(_conjugate_pairs(eigenvalues))
    energy[second] = energy[second - 1] = np.maximum(energy[second], energy[second - 1])
    phase = np.mod(np.angle(eigenvalues), 2.0 * np.pi)
    # lexsort: last key is primary.
    return np.lexsort((phase, -np.abs(eigenvalues), -energy))


def _pair(X, Y) -> tuple[np.ndarray, np.ndarray]:
    x = linalg.as_matrix(X, "X")
    y = linalg.as_matrix(Y, "Y")
    if x.shape != y.shape:
        raise ValueError(f"X and Y must have equal shapes, got {x.shape} vs {y.shape}")
    return x, y


def companion_dmd(D, k: int, dt: float = 1.0) -> DmdResult:
    """Companion-matrix DMD on sequential data columns.

    Uses the first k columns of D as the basis X, fits column k as X @ c
    in least squares, and eigendecomposes the companion matrix of c.
    Modes are X @ w_j, normalized. Requires X to have full numerical
    column rank; rank-deficient input raises RankDeficiencyError (use the
    SVD-based variants there instead).
    """
    d = linalg.as_matrix(D, "D")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if d.shape[1] < k + 1:
        raise ValueError(f"D needs at least k+1={k + 1} columns, got {d.shape[1]}")
    x = d[:, :k]
    target = d[:, k]
    r = linalg.svd(x)
    sv = r.S
    if sv[0] == 0.0 or sv[-1] < linalg.DEFAULT_RANK_TOL * sv[0]:
        cond = np.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
        raise RankDeficiencyError(
            f"companion basis is rank deficient (condition number {cond:.3e}); "
            "use svd_dmd or exact_dmd with a threshold"
        )
    cond = float(sv[0] / sv[-1])
    # Least-squares fit through the pseudoinverse V S^-1 W^T of the same SVD.
    c = ((r.V / sv) @ r.W.T) @ target
    er = linalg.eig(companion_matrix(c))
    modes = _unit_columns(x.astype(complex) @ er.eigenvectors)
    # The columns of a Hankel block overlap in memory, and BLAS cannot take
    # them: numpy's own matrix-vector loop would give other bits than BLAS
    # does on a copy.
    residual = float(np.linalg.norm(target - np.ascontiguousarray(x) @ c))
    order = _energy_order(er.eigenvalues, modes, d[:, 0])
    return DmdResult(
        eigenvalues=er.eigenvalues[order],
        modes=modes[:, order],
        projected_modes=None,
        rank_kept=k,
        residual=residual,
        algorithm="companion",
        dt=dt,
        condition=cond,
    )


def _truncated_svd(x: np.ndarray, svd_threshold: float, threshold_mode: str,
                   factors: linalg.SvdResult | None = None):
    """Singular triplets (W, S, V) of x above the hard threshold, and the
    tail energy sqrt(sum of dropped sigma^2). factors, when given, is the
    SVD of x computed elsewhere."""
    if svd_threshold < 0 or not np.isfinite(svd_threshold):
        raise ValueError(f"svd_threshold must be finite and >= 0, got {svd_threshold}")
    if threshold_mode not in ("abs", "rel"):
        raise ValueError(f"threshold_mode must be 'abs' or 'rel', got {threshold_mode!r}")
    r = linalg.svd_of(x, factors)
    cutoff = svd_threshold * r.S[0] if threshold_mode == "rel" else svd_threshold
    # Exact zeros never survive, not even a zero cutoff: the core divides
    # by every kept singular value. S is descending, so the kept triplets
    # are a prefix.
    k = int(np.count_nonzero((r.S >= cutoff) & (r.S > 0.0)))
    if k == 0:
        raise DecompositionError(
            f"all singular values fall below the threshold ({cutoff:.3e}); "
            "nothing to decompose"
        )
    return r.W[:, :k], r.S[:k], r.V[:, :k], float(np.sqrt(np.sum(r.S[k:] ** 2)))


def _core(y: np.ndarray, w: np.ndarray, s: np.ndarray, v: np.ndarray):
    """Project the one-step map onto the kept left singular vectors of X
    (X ~ w diag(s) v^T) and eigendecompose the projected operator.

    Returns the eigenvalues and the eigenvectors in reduced coordinates.
    """
    atilde = (w.T @ y @ v) / s[None, :]
    er = linalg.eig(atilde)
    return er.eigenvalues, er.eigenvectors


def _projected_modes(w: np.ndarray, eigenvalues: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Unit projected modes w @ e_j. w has orthonormal columns, so each e_j
    is normalized in reduced coordinates.

    Only lead columns, those that are not the second member of a conjugate
    pair, are multiplied: two real products, written into the leading
    columns of the modes' own float64 view, whose strides BLAS takes as
    they are. Each row block is then expanded in place, a pair's second
    member as the conjugate of its lead.
    """
    vecs = _unit_columns(vecs)
    paired = _conjugate_pairs(eigenvalues, vecs)
    lead, second = np.flatnonzero(~paired), np.flatnonzero(paired)
    nl = lead.size
    modes = np.empty((w.shape[0], vecs.shape[1]), dtype=complex)
    flat = modes.view(np.float64)  # re, im interleaved
    np.matmul(w, vecs.real[:, lead], out=flat[:, :nl])
    np.matmul(w, vecs.imag[:, lead], out=flat[:, nl:2 * nl])
    rows = max(1, _EXPAND_CELLS // modes.shape[1])
    for r in range(0, modes.shape[0], rows):
        products = flat[r:r + rows, :2 * nl].copy()
        block = modes[r:r + rows]
        block.real[:, lead] = products[:, :nl]
        block.imag[:, lead] = products[:, nl:]
        block[:, second] = np.conj(block[:, second - 1])
    return modes


def _projected_result(w, s, v, y, residual: float, algorithm: str, dt: float) -> DmdResult:
    """The core with projected modes, ordered in reduced coordinates: the
    modes w e_j keep the norms of e_j, and w^T x0 = s * v[0] for the first
    data column x0."""
    vals, vecs = _core(y, w, s, v)
    order = _energy_order(vals, vecs, s * v[0])
    return DmdResult(
        eigenvalues=vals[order],
        modes=_projected_modes(w, vals[order], vecs[:, order]),
        projected_modes=None,
        rank_kept=s.size,
        residual=residual,
        algorithm=algorithm,
        dt=dt,
    )


def svd_dmd(X, Y, dt: float = 1.0, factors: linalg.SvdResult | None = None) -> DmdResult:
    """SVD-enhanced DMD: project the one-step map onto the full left
    singular basis of X (no truncation).

    X must have no numerically zero singular values; otherwise the
    projected operator is not defined and exact_dmd with a threshold is
    the right tool. factors, when given, is the SVD of X.
    """
    x, y = _pair(X, Y)
    r = linalg.svd_of(x, factors)
    tiny = np.finfo(float).eps * max(x.shape)
    if r.S[0] == 0.0 or r.S[-1] <= tiny * r.S[0]:
        raise DecompositionError(
            "X has numerically zero singular values; use exact_dmd with a threshold"
        )
    return _projected_result(r.W, r.S, r.V, y, 0.0, "svd", dt)


def exact_dmd(X, Y, svd_threshold: float = DEFAULT_HANKEL_THRESHOLD,
              threshold_mode: str = "rel", dt: float = 1.0,
              factors: linalg.SvdResult | None = None) -> DmdResult:
    """Exact DMD on a hard-thresholded SVD of X.

    threshold_mode="rel" drops singular values below svd_threshold * S_max
    (default); "abs" compares against the threshold directly. Returns
    exact modes as `modes` and projected modes separately; zero
    eigenvalues have no exact mode, are listed in undefined_exact, and
    carry their projected mode instead. factors, when given, is the SVD
    of X. Exact modes leave range(W), so they are ordered in full space.
    """
    x, y = _pair(X, Y)
    w, s, v, residual = _truncated_svd(x, svd_threshold, threshold_mode, factors)
    vals, vecs = _core(y, w, s, v)
    projected = _projected_modes(w, vals, vecs)
    # Exact modes: eigenvectors of the full-size one-step operator,
    # recovered as (1/lambda) Y V S^{-1} w for nonzero eigenvalues. Zero
    # eigenvalues divide by 1 and then take their projected mode instead.
    undefined = np.abs(vals) <= _ZERO_EIG
    b = y @ (v / s[None, :])
    lam = np.where(undefined, 1.0, vals)
    exact = _unit_columns(np.where(undefined, projected, (b @ vecs) / lam))
    order = _energy_order(vals, exact, x[:, 0])
    return DmdResult(
        eigenvalues=vals[order],
        modes=exact[:, order],
        projected_modes=projected[:, order],
        rank_kept=s.size,
        residual=residual,
        algorithm="exact",
        dt=dt,
        undefined_exact=tuple(int(i) for i in np.flatnonzero(undefined[order])),
    )


def hankel_dmd(data: CompositeData, svd_threshold: float = DEFAULT_HANKEL_THRESHOLD,
               dt: float = 1.0, threshold_mode: str = "abs",
               factors: linalg.SvdResult | None = None) -> DmdResult:
    """Exact DMD on composite Hankel data; modes are eigenfunction samples.

    The returned modes are the projected modes chi_j = W w_j, whose rows
    sample the Koopman eigenfunctions along the trajectory (row i is
    sample i; with interleaved trajectories row c*i+p is trajectory p at
    sample i), with unit 2-norm. Exact modes are not computed. The
    default threshold is absolute, which matches the hard cutoff
    customarily applied to order-one signals. factors, when given, is the
    SVD of data.X (for a lone unscaled block, the one ergodic_pod also
    uses).
    """
    if not isinstance(data, CompositeData):
        raise TypeError("hankel_dmd expects CompositeData (see embed.composite)")
    x, y = data.X, data.Y
    w, s, v, residual = _truncated_svd(x, svd_threshold, threshold_mode, factors)
    return _projected_result(w, s, v, y, residual, "hankel", dt)


@dataclass(frozen=True)
class LinearConsistencyReport:
    """Outcome of the X c = 0 implies Y c = 0 check.

    max_violation is the largest column norm of Y restricted to the
    numerical null space of X; threshold is tol * ||Y||_F.
    """

    consistent: bool
    null_dim: int
    max_violation: float
    threshold: float
    tol: float


def check_linear_consistency(X, Y, tol: float = 1e-10) -> LinearConsistencyReport:
    """Check whether every null vector of X is also a null vector of Y.

    Null directions are right singular vectors of X with singular value
    below tol (absolute). When the report is consistent, a single linear
    operator A with Y = A X exists exactly within the stated tolerance.
    """
    x, y = _pair(X, Y)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _, s, vh = np.linalg.svd(x, full_matrices=True)
    padded = np.zeros(x.shape[1])
    padded[: s.size] = s
    null_mask = padded < tol
    null_dim = int(np.sum(null_mask))
    threshold = float(tol * np.linalg.norm(y))
    if null_dim == 0:
        return LinearConsistencyReport(True, 0, 0.0, threshold, tol)
    n = vh.T[:, null_mask]
    violation = float(np.max(np.linalg.norm(y @ n, axis=0)))
    return LinearConsistencyReport(violation <= threshold, null_dim, violation, threshold, tol)


def result_to_dict(result: DmdResult) -> dict:
    """JSON-ready summary: algorithm, dt, rank, residual, eigenvalue table."""
    eigs = []
    for lam in result.eigenvalues:
        lam = complex(lam)
        modulus = abs(lam)
        freq = None if modulus == 0.0 else float(np.angle(lam)) / result.dt
        eigs.append(
            {
                "re": float(lam.real),
                "im": float(lam.imag),
                "modulus": float(modulus),
                "freq_rad_per_s": freq,
            }
        )
    return {
        "algorithm": result.algorithm,
        "dt": float(result.dt),
        "rank_kept": int(result.rank_kept),
        "residual": float(result.residual),
        "eigenvalues": eigs,
    }


def write_result_json(result: DmdResult, path) -> None:
    write_json(path, result_to_dict(result))


def write_modes_csv(result: DmdResult, path) -> None:
    """Mode samples, one complex column per mode as re/im column pairs."""
    k = result.modes.shape[1]
    header = [f"mode{j + 1}_{part}" for j in range(k) for part in ("re", "im")]
    # A C-contiguous complex128 array viewed as float64 interleaves re, im.
    pairs = np.ascontiguousarray(result.modes, dtype=np.complex128).view(np.float64)
    write_csv(path, header, pairs)
