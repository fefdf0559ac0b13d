"""Frequency and eigenfunction diagnostics on decomposition output.

Eigenvalues of a map sampled every dt seconds correspond to continuous
frequencies via lambda = exp(i * omega * dt); eig_to_freq inverts that
relation on the principal branch. For quasi-periodic dynamics the
recovered frequencies should populate the integer lattice generated by
the basic frequencies, which match_lattice searches exhaustively. A run's
two spectrum tables are built here (frequency_rows, write_phase_table),
from the states that its mode rows sample.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ioutil import write_csv

#: Floor in the relative-error denominator, guarding lattice value 0.
LATTICE_EPS = 1e-12

#: The frequency table's columns, which key each row of frequency_rows.
FREQUENCY_COLUMNS = ("k", "omega_computed", "omega_lattice", "relative_error", "eigfun_variance")

#: Eigenvalues with |omega| below this are treated as trivial (DC-like)
#: when selecting the dominant mode for phase export.
MIN_NONTRIVIAL_OMEGA = 1e-2


@dataclass(frozen=True)
class FrequencyMatch:
    """Best integer lattice point for one computed frequency."""

    omega: float
    k: tuple[int, ...]
    lattice_value: float
    relative_error: float


@dataclass(frozen=True)
class EigenfunctionError:
    """Mean squared deviation after unit normalization and optimal
    global phase alignment of the computed samples to the reference."""

    variance: float
    phase_alignment: complex


def eig_to_freq(eigenvalue: complex, dt: float) -> float:
    """Continuous frequency omega = arg(lambda) / dt, principal branch.

    The result lies in (-pi/dt, pi/dt]. A zero eigenvalue has no phase
    and raises ValueError.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    lam = complex(eigenvalue)
    if lam == 0:
        raise ValueError("zero eigenvalue has no frequency")
    return float(np.angle(lam)) / dt


def match_lattice(omega: float, basics, K: int = 6) -> FrequencyMatch:
    """Closest point of the frequency lattice {k . basics : |k|_inf <= K}.

    Exhaustive search; ties on distance break toward the smallest
    |k|_1, then lexicographically smallest k. The relative error is
    |omega - k . basics| / max(|k . basics|, 1e-12).
    """
    base = np.asarray(basics, dtype=float)
    if base.ndim != 1 or base.size == 0 or not np.all(np.isfinite(base)):
        raise ValueError("basics must be a non-empty finite frequency vector")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if not np.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    best = None
    for k in itertools.product(range(-K, K + 1), repeat=base.size):
        lattice = float(np.dot(k, base))
        diff = abs(omega - lattice)
        key = (diff, sum(abs(i) for i in k), k)
        if best is None or key < best[0]:
            best = (key, k, lattice)
    _, k, lattice = best
    rel = abs(omega - lattice) / max(abs(lattice), LATTICE_EPS)
    return FrequencyMatch(
        omega=float(omega), k=tuple(k), lattice_value=lattice, relative_error=rel
    )


def eigenfunction_error(computed, reference) -> EigenfunctionError:
    """Compare sampled eigenfunctions modulo scale and global phase.

    Both sequences are normalized to unit empirical norm
    ((1/m) sum |x_i|^2 = 1), the computed one is rotated by the phase
    that best aligns it with the reference, and the variance is the mean
    squared remaining deviation. Zero for any positive multiple of
    exp(i alpha) * reference.
    """
    x = np.asarray(computed, dtype=complex).ravel()
    y = np.asarray(reference, dtype=complex).ravel()
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size == 0:
        raise ValueError("empty sample vectors")
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise ValueError("computed samples contain non-finite entries")
    if not (np.all(np.isfinite(y.real)) and np.all(np.isfinite(y.imag))):
        raise ValueError("reference samples contain non-finite entries")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if ny == 0.0:
        raise ValueError("reference is identically zero")
    if nx == 0.0:
        raise ValueError("computed samples are identically zero")
    m = x.size
    x = x * (np.sqrt(m) / nx)
    y = y * (np.sqrt(m) / ny)
    inner = np.vdot(x, y)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0 + 0.0j
    variance = float(np.mean(np.abs(phase * x - y) ** 2))
    return EigenfunctionError(variance=variance, phase_alignment=complex(phase))


def asymptotic_phase(mode_samples) -> np.ndarray:
    """Elementwise argument of eigenfunction samples, in [0, 2*pi).

    Zero samples have no phase; those entries are NaN.
    """
    z = np.asarray(mode_samples, dtype=complex).ravel()
    out = np.mod(np.angle(z), 2.0 * np.pi)
    out[z == 0] = np.nan
    return out


def effective_dimension(singular_values, threshold: float) -> int:
    """Number of singular values at or above the threshold.

    The input must be sorted descending (the order every decomposition
    in this package produces).
    """
    s = np.asarray(singular_values, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("empty singular value vector")
    if np.any(np.diff(s) > 0):
        raise ValueError("singular values must be sorted descending")
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    return int(np.sum(s >= threshold))


def dominant_nontrivial(eigenvalues, dt: float,
                        min_omega: float = MIN_NONTRIVIAL_OMEGA) -> int | None:
    """Index of the most energetic eigenvalue with |omega| >= min_omega.

    Assumes the energy ordering every decomposition in this package
    produces (index 0 is most energetic). Skips zero eigenvalues and
    near-DC modes; returns None when everything is trivial.
    """
    for i, lam in enumerate(np.asarray(eigenvalues, dtype=complex)):
        if lam == 0:
            continue
        if abs(eig_to_freq(lam, dt)) >= min_omega:
            return i
    return None


def lattice_eigenfunction(angles, k) -> np.ndarray:
    """Analytic eigenfunction samples exp(i * k . theta) for rotations.

    angles: (m x d) angle states along the trajectory; k: integer vector.
    For a circle or torus rotation these are the exact Koopman
    eigenfunctions, so they serve as references for eigenfunction_error.
    """
    theta = np.atleast_2d(np.asarray(angles, dtype=float))
    kvec = np.asarray(k, dtype=float).ravel()
    if theta.shape[1] != kvec.size:
        raise ValueError(f"angle dimension {theta.shape[1]} does not match k size {kvec.size}")
    return np.exp(1j * (theta @ kvec))


def frequency_rows(eigenvalues, dt: float, modes, basics, K: int, angles=None) -> list[dict]:
    """Frequency table rows, one per eigenvalue with omega >= 0 (its
    conjugate partner carries the same information). eigfun_variance is
    None unless angles, the rotation angles that the mode rows sample (extra
    rows are cut), make exp(i k . theta) a reference eigenfunction."""
    listed = [(j, eig_to_freq(lam, dt)) for j, lam in enumerate(eigenvalues) if lam != 0]
    listed = [(j, omega) for j, omega in listed if omega >= 0]
    rows = []
    for j, omega in listed:
        match = match_lattice(omega, basics, K=K)
        variance = None
        if angles is not None:
            ref = lattice_eigenfunction(angles[: modes.shape[0]], match.k)
            variance = eigenfunction_error(modes[:, j], ref).variance
        rows.append(dict(zip(FREQUENCY_COLUMNS, (match.k, omega, match.lattice_value,
                                                 match.relative_error, variance))))
    return rows


def write_frequency_table(path, rows: list[dict]) -> None:
    """Frequency table CSV of frequency_rows' rows, k as "(k1,...)"; a None
    eigfun_variance is a blank cell."""
    write_csv(path, FREQUENCY_COLUMNS, (["(" + ",".join(str(int(i)) for i in row["k"]) + ")"]
                                        + [row[key] for key in FREQUENCY_COLUMNS[1:]]
                                        for row in rows))


def write_phase_table(path, mode, dt: float, sampled) -> None:
    """phase.csv: t, trajectory, state z1..zd and the asymptotic phase
    (blank where zero) of each row of mode. sampled holds the c
    trajectories' states that the rows interleave: row r samples state
    r // c of trajectory r % c + 1. Rows are generated as they are written."""
    phases = asymptotic_phase(mode)
    c = len(sampled)
    header = ["t", "trajectory"] + [f"z{i + 1}" for i in range(sampled[0].shape[1])] + ["phase"]

    def rows():
        for r, phase in enumerate(phases):
            i, p = divmod(r, c)
            yield ([i * dt, p + 1] + [float(v) for v in sampled[p][i]]
                   + [float(phase) if np.isfinite(phase) else None])

    write_csv(path, header, rows())
