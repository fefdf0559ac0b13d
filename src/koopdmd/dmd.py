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
* svd_dmd: the core without truncation; refuses rank-deficient X.
* exact_dmd: the core on a hard-thresholded SVD of X; the only variant
  that also computes exact modes (eigenvectors of the full-size one-step
  operator for eigenvalues inside the data range).
* hankel_dmd: the core on a composite Hankel pair; returns the projected
  modes only, which sample Koopman eigenfunctions along the trajectory.
  Within a block Y is X shifted by one column, so it takes W^T Y from the
  SVD of X and one column of Y per block (_hankel_wty), and forms no
  product of Y's size; the other variants form W^T Y directly.

Everything that decides a result is k-sized (Drmac, Mezic & Mohr, SIAM J.
Sci. Comput. 2018): the projected operator, its eigenvectors e_j and the
energy order. The modes are the one m x k result: each variant forms
them once, and every consumer (modes.npy, the frequency table, phase.csv)
reads that array. With k <= (n+1)/2 they take no more memory than the
copy of X that the SVD held and freed.

Every rank decision is linalg.numerical_rank, and every truncation is
linalg.truncation_rank, which alone refuses to keep nothing. The
truncating variants cut with truncation_rule: by default they keep
sigma_j / sigma_0 > 1e-8 (linalg.TRUNCATION_TOL), the rank
pod.ergodic_pod keeps; threshold_mode "abs" makes svd_threshold the
cutoff itself. The projected operator
divides by the smallest kept sigma_k, so its forward error grows like
eps * sigma_0 / sigma_k: at 1e-8 that is at most 2.2e-8, about eight
correct digits, where the old default of 1e-12 left about four. Each
result reports that estimate as forward_error. The full-rank refusals of
svd_dmd and companion_dmd stay at linalg.DEFAULT_RANK_TOL, 1e-12.

Eigenvalues are ordered by descending data energy of their modes: least
squares against the first data column of every block (svd_dmd and
exact_dmd are given the block starts; companion_dmd has one block), with a
mode's shares of them added in quadrature, so a mode absent from block 1
is not ranked by roundoff. Ties are broken by descending modulus, then
ascending phase in [0, 2*pi). Keys are compared exactly, so a tie is an
exact tie. Both members of a conjugate pair carry the pair's larger energy
and the same modulus, so they tie and the positive-frequency member comes
first. Projected modes W w_j are ordered in reduced
coordinates, where the same least squares is k x k, and each is formed
once, already ordered and normalized. Each conjugate pair of projected
modes is formed once: only its lead column is multiplied by W, and the
second column is set to its conjugate, so the two columns of a pair in
modes.npy (hankel and svd) are exact conjugates, bit for bit. The rows
are formed in the blocks of ioutil.row_blocks on two threads
(_projected_modes), with bits that depend on neither. An SVD of X
computed elsewhere can be handed in; its W needs only the columns that
the threshold keeps, and no variant writes to it. cli._decompose shares
the read-only SVD of a lone Hankel block between DMD and pod.ergodic_pod,
which holds a view of its W.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg
from .embed import CompositeData
from .errors import DecompositionError, RankDeficiencyError
from .ioutil import row_blocks, write_json, write_npy
from .ioutil import write_csv  # noqa: F401 (perfbench/tracer.py wraps dmd.write_csv)

ALGORITHMS = ("companion", "svd", "exact", "hankel")

#: Eigenvalues at or below this magnitude have no exact mode (division by
#: the eigenvalue would overflow); the projected mode is substituted.
_ZERO_EIG = 1e-300


@dataclass(frozen=True)
class DmdResult:
    """Eigenvalues and modes of one decomposition.

    modes: the unit modes, one m x k array with a column per eigenvalue
        (for hankel, eigenfunction samples along the trajectory, row =
        sample).
    projected_modes: the projected modes chi_j when the algorithm also
        produces exact modes (exact only), else None.
    residual: companion fit residual, or SVD truncation tail energy
        sqrt(sum of dropped sigma^2) for the SVD-based variants.
    forward_error: eps * sigma_0 / sigma_k of the kept singular values
        (for companion, of its basis): the estimate of the relative
        forward error of the projected operator, which divides by
        sigma_k. None only for a result built by hand.
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
    forward_error: float | None = None
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

    x0 is one data column, or several as the columns of a matrix, whose
    shares are added in quadrature (np.hypot, so one column keeps its
    share's bits). modes and x0 may be given in any coordinates in which
    the modes keep their norms (for projected modes W e_j: the reduced
    vectors e_j and W^T x0). The two members of a conjugate pair of
    eigenvalues (see _conjugate_pairs) share the pair's larger energy, so
    roundoff never splits them and the positive phase comes first.
    """
    try:
        coeffs, *_ = np.linalg.lstsq(modes, x0.astype(complex), rcond=None)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"mode energy least squares did not converge: {exc}") from exc
    shares = np.abs(coeffs).reshape(coeffs.shape[0], -1)
    energy = np.hypot.reduce(shares, axis=1) * np.linalg.norm(modes, axis=0)
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
    column rank (linalg.numerical_rank); rank-deficient input raises
    RankDeficiencyError (use the SVD-based variants there instead).
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
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf
    if linalg.numerical_rank(sv) < k:
        raise RankDeficiencyError(
            f"companion basis is rank deficient (condition number {cond:.3e}); "
            "use svd_dmd or exact_dmd with a threshold"
        )
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
        forward_error=_forward_error(sv),
        condition=cond,
    )


def truncation_rule(svd_threshold: float, threshold_mode: str) -> linalg.RankRule:
    """The rank rule exact_dmd and hankel_dmd truncate with:
    linalg.truncation_rank with cutoff svd_threshold * S[0] ("rel") or
    svd_threshold itself ("abs"), which refuses to keep nothing."""
    if svd_threshold < 0 or not np.isfinite(svd_threshold):
        raise ValueError(f"svd_threshold must be finite and >= 0, got {svd_threshold}")
    if threshold_mode not in ("abs", "rel"):
        raise ValueError(f"threshold_mode must be 'abs' or 'rel', got {threshold_mode!r}")
    return partial(linalg.truncation_rank, tol=svd_threshold, absolute=threshold_mode == "abs")


def _truncated_svd(x: np.ndarray, svd_threshold: float, threshold_mode: str,
                   factors: linalg.SvdResult | None = None):
    """Singular triplets (W, S, V) of x that truncation_rule keeps, and the
    tail energy sqrt(sum of dropped sigma^2). factors, when given, is the
    SVD of x computed elsewhere."""
    rank = truncation_rule(svd_threshold, threshold_mode)
    r = linalg.svd_of(x, factors, rank)
    k = rank(r.S)
    # The dropped values are squared in units of the power of two of the
    # largest, so no square overflows; the scaling is exact, so a tail whose
    # squares are finite keeps its bits.
    tail = r.S[k:]
    e = np.frexp(tail[0])[1] if tail.size else 0
    residual = float(np.ldexp(np.sqrt(np.sum(np.ldexp(tail, -e) ** 2)), e))
    return r.W[:, :k], r.S[:k], r.V[:, :k], residual


def _forward_error(s: np.ndarray) -> float:
    """eps * sigma_0 / sigma_k of the kept descending singular values s."""
    return float(np.finfo(float).eps * s[0] / s[-1])


def _core(wty: np.ndarray, s: np.ndarray, v: np.ndarray):
    """Eigendecompose the one-step map projected onto the kept left
    singular vectors w of X (X ~ w diag(s) v^T), given wty = w^T Y.

    Returns the eigenvalues and the eigenvectors in reduced coordinates.
    """
    atilde = (wty @ v) / s[None, :]
    er = linalg.eig(atilde)
    return er.eigenvalues, er.eigenvectors


def _projected_modes(w: np.ndarray, eigenvalues: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The unit projected modes w @ e_j as one m x k array.

    w has orthonormal columns, so each e_j is normalized in reduced
    coordinates, once. Only lead columns, those that are not the second
    member of a conjugate pair (_conjugate_pairs), are multiplied by w
    (two real products), and each second member is set to the conjugate
    of its lead. The rows are formed in the blocks of ioutil.row_blocks,
    two blocks at a time: the calling thread forms one while a worker
    forms the next. Each block's products are the same whichever thread
    runs them, so the bits depend neither on the schedule nor on the
    number of CPUs.
    """
    vecs = _unit_columns(vecs)
    second = _conjugate_pairs(eigenvalues, vecs)
    lead, pair = np.flatnonzero(~second), np.flatnonzero(second)
    re, im = vecs.real[:, lead], vecs.imag[:, lead]
    modes = np.empty((w.shape[0], vecs.shape[1]), dtype=complex)

    def form(lo, hi):
        rows = modes[lo:hi]
        rows.real[:, lead] = w[lo:hi] @ re
        rows.imag[:, lead] = w[lo:hi] @ im
        rows[:, pair] = np.conj(rows[:, pair - 1])

    blocks = row_blocks(w.shape[0])
    with ThreadPoolExecutor(1) as pool:
        for i in range(0, len(blocks), 2):
            later = [pool.submit(form, *b) for b in blocks[i + 1:i + 2]]
            form(*blocks[i])
            for f in later:
                f.result()
    return modes


def _hankel_wty(data: CompositeData, w: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w^T Y of a composite Hankel pair from the SVD of X, with one
    product by w^T per block instead of one of Y's size. Within a block,
    Y's column j is X's column j + 1 (both scaled by the block's scale),
    and w^T X = diag(s) v^T, so only each block's last column of Y is
    multiplied."""
    svt = s[:, None] * v.T
    wty = np.empty_like(svt)
    lasts = [hi - 1 for _, hi in data.block_offsets]
    for lo, hi in data.block_offsets:
        wty[:, lo:hi - 1] = svt[:, lo + 1:hi]
    # Indexing copies the columns into one C-ordered array, so the product
    # gets the same bits from a view of a series as from a copy.
    wty[:, lasts] = w.T @ data.Y[:, lasts]
    return wty


def _projected_result(w, s, v, wty, residual: float, algorithm: str, dt: float,
                      starts: tuple[int, ...] = (0,)) -> DmdResult:
    """The core with projected modes, ordered in reduced coordinates by
    the data columns starts (the modes w e_j keep the norms of e_j, and
    w^T X[:, starts] = s V[starts]^T), then formed in that order."""
    vals, vecs = _core(wty, s, v)
    order = _energy_order(vals, vecs, s[:, None] * v[list(starts)].T)
    return DmdResult(
        eigenvalues=vals[order],
        modes=_projected_modes(w, vals[order], vecs[:, order]),
        projected_modes=None,
        rank_kept=s.size,
        residual=residual,
        algorithm=algorithm,
        dt=dt,
        forward_error=_forward_error(s),
    )


def svd_dmd(X, Y, dt: float = 1.0, factors: linalg.SvdResult | None = None, *,
            starts: tuple[int, ...] = (0,)) -> DmdResult:
    """SVD-enhanced DMD: project the one-step map onto the full left
    singular basis of X (no truncation).

    X must have full numerical rank (linalg.numerical_rank); otherwise the
    projected operator is not defined and exact_dmd with a threshold is
    the right tool. factors, when given, is the SVD of X. Modes are ordered
    by their energy in the columns starts of X, the first column of each
    block of a composite.
    """
    x, y = _pair(X, Y)
    r = linalg.svd_of(x, factors)
    if linalg.numerical_rank(r.S) < r.S.size:
        raise DecompositionError(
            "X has numerically zero singular values; use exact_dmd with a threshold"
        )
    return _projected_result(r.W, r.S, r.V, r.W.T @ y, 0.0, "svd", dt, starts)


def exact_dmd(X, Y, svd_threshold: float = linalg.TRUNCATION_TOL,
              threshold_mode: str = "rel", dt: float = 1.0,
              factors: linalg.SvdResult | None = None, *,
              starts: tuple[int, ...] = (0,)) -> DmdResult:
    """Exact DMD on a hard-thresholded SVD of X.

    Keeps the singular values that truncation_rule(svd_threshold,
    threshold_mode) keeps: above svd_threshold * S_max ("rel", the
    default) or above svd_threshold ("abs"). Returns
    exact modes as `modes` and projected modes separately; zero
    eigenvalues have no exact mode, are listed in undefined_exact, and
    carry their projected mode instead. factors, when given, is the SVD
    of X. Exact modes leave range(W), so they are ordered in full space,
    by their energy in the columns starts of X, as in svd_dmd.
    """
    x, y = _pair(X, Y)
    w, s, v, residual = _truncated_svd(x, svd_threshold, threshold_mode, factors)
    vals, vecs = _core(w.T @ y, s, v)
    projected = _projected_modes(w, vals, vecs)
    # Exact modes: eigenvectors of the full-size one-step operator,
    # recovered as (1/lambda) Y V S^{-1} w for nonzero eigenvalues. Zero
    # eigenvalues divide by 1 and then take their projected mode instead.
    undefined = np.abs(vals) <= _ZERO_EIG
    b = y @ (v / s[None, :])
    lam = np.where(undefined, 1.0, vals)
    exact = _unit_columns(np.where(undefined, projected, (b @ vecs) / lam))
    order = _energy_order(vals, exact, x[:, list(starts)])
    return DmdResult(
        eigenvalues=vals[order],
        modes=exact[:, order],
        projected_modes=projected[:, order],
        rank_kept=s.size,
        residual=residual,
        algorithm="exact",
        dt=dt,
        forward_error=_forward_error(s),
        undefined_exact=tuple(int(i) for i in np.flatnonzero(undefined[order])),
    )


def hankel_dmd(data: CompositeData, svd_threshold: float = linalg.TRUNCATION_TOL,
               dt: float = 1.0, threshold_mode: str = "rel",
               factors: linalg.SvdResult | None = None) -> DmdResult:
    """Exact DMD on composite Hankel data; modes are eigenfunction samples.

    The returned modes are the projected modes chi_j = W w_j, whose rows
    sample the Koopman eigenfunctions along the trajectory (row i is
    sample i; with interleaved trajectories row c*i+p is trajectory p at
    sample i), with unit 2-norm. Exact modes are not computed. The
    threshold keys act as in exact_dmd; the default keeps the rank that
    ergodic_pod keeps, whatever the units of the observables. factors,
    when given, is the SVD of data.X (for a lone unscaled block, the one
    ergodic_pod also uses). The projected operator comes from W^T Y in
    Hankel coordinates (_hankel_wty), which holds for the pairs of
    embed.composite: within each block, Y's column j is X's column j + 1.
    Modes are ordered by their energy in the first column of every block,
    so a mode absent from block 1 is not ranked by roundoff.
    """
    if not isinstance(data, CompositeData):
        raise TypeError("hankel_dmd expects CompositeData (see embed.composite)")
    w, s, v, residual = _truncated_svd(data.X, svd_threshold, threshold_mode, factors)
    return _projected_result(w, s, v, _hankel_wty(data, w, s, v), residual, "hankel", dt,
                             tuple(lo for lo, _ in data.block_offsets))


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

    Null directions are right singular vectors of X with singular value at
    or below tol (absolute; linalg.numerical_rank). When the report is
    consistent, a single linear operator A with Y = A X exists exactly
    within the stated tolerance.
    """
    x, y = _pair(X, Y)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    # Only a wide X has null directions beyond its singular values; a tall
    # one would form, and drop, an m x m U.
    _, s, vh = np.linalg.svd(x, full_matrices=x.shape[0] < x.shape[1])
    null = vh[linalg.numerical_rank(s, tol, absolute=True):]
    null_dim = null.shape[0]
    threshold = float(tol * np.linalg.norm(y))
    if null_dim == 0:
        return LinearConsistencyReport(True, 0, 0.0, threshold, tol)
    violation = float(np.max(np.linalg.norm(y @ null.T, axis=0)))
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


# Named for the CSV it once wrote; perfbench/tracer.py wraps this name.
def write_modes_csv(result: DmdResult, path) -> None:
    """modes.npy: the unit modes as one complex128 m x k matrix, one
    column per mode in eigenvalue order."""
    write_npy(path, result.modes, np.complex128)
