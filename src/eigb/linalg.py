"""Dense complex-matrix foundation.

Validated Hermitian and positive-semidefinite matrix types, the Hermitian
eigensolver (LAPACK zheevd through numpy.linalg.eigh), the PSD square
root, and the real spectrum of a Hermitian times PSD product computed
through the symmetric conjugation B^(1/2) A B^(1/2).  The product spectrum
is never obtained from a general eigensolver on A@B: conjugating keeps the
problem Hermitian, so realness of the result is structural rather than
numerical.

A cyclic complex Jacobi solver, `jacobi_eig`, is kept as an independent
oracle for the tests: it shares no algorithm with LAPACK and is the more
accurate of the two on graded matrices (Demmel & Veselic, 1992).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterator

import numpy as np
from numpy.linalg import LinAlgError, eigh

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    NotSquare,
)

# Default construction tolerances (relative).
TOL_HERM = 1e-9
TOL_PSD = 1e-9

# Cyclic Jacobi: off-diagonal Frobenius target relative to ||A||_F, sweep cap.
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 60


def ensure_matrix(entries) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries.

    Raises NotSquare for non-square input and NonFinite if any entry is
    NaN or infinite.
    """
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFinite("matrix contains NaN or infinite entries")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues in non-increasing order."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) == 0:
            raise ValueError("spectrum must contain at least one value")
        if any(not np.isfinite(v) for v in vals):
            raise ValueError("spectrum values must be finite")
        for a, b in zip(vals, vals[1:]):
            if a < b:
                raise ValueError("spectrum values must be non-increasing")

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def sum(self) -> float:
        return float(sum(self.values))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum plus matching orthonormal eigenvector columns."""

    spectrum: Spectrum
    vectors: np.ndarray


@dataclass(frozen=True)
class HermitianMatrix:
    """Symmetrized square complex matrix with its recorded hermiticity defect."""

    matrix: np.ndarray
    hermiticity_defect: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PSDMatrix:
    """Hermitian matrix validated as positive semidefinite.

    The eigendecomposition computed during validation is kept so the
    square root and downstream spectra reuse it.  `spectrum` clamps
    within-tolerance negative eigenvalues to zero.
    """

    hermitian: HermitianMatrix
    eig: EigenDecomposition
    min_eigenvalue: float

    @property
    def matrix(self) -> np.ndarray:
        return self.hermitian.matrix

    @property
    def n(self) -> int:
        return self.hermitian.n

    @property
    def spectrum(self) -> Spectrum:
        return Spectrum(tuple(max(v, 0.0) for v in self.eig.spectrum))


def validate_hermitian(entries, tol: float = TOL_HERM) -> HermitianMatrix:
    """Symmetrize and accept a matrix as Hermitian within `tol` (relative).

    The defect max|M - M*| is measured before symmetrization; rejection
    threshold is tol * max|entry|.  The two are compared on the scale of
    M / 2^e (see _unit_scaled), because the modulus of an entry, and so the
    defect, can exceed the largest double.
    """
    m = ensure_matrix(entries)
    herm = _symmetrized(m)
    scaled, exponent = _unit_scaled(m)
    limit = tol * float(np.max(np.abs(scaled)))
    if np.ldexp(herm.hermiticity_defect, -exponent) > limit:
        raise NotHermitian(herm.hermiticity_defect, float(np.ldexp(limit, exponent)))
    return herm


def _symmetrized(m: np.ndarray) -> HermitianMatrix:
    """(M + M*)/2 and the defect max|M - M*|, for any finite square M.

    The matrices eigb builds itself (B^(1/2), B^(1/2) A B^(1/2)) are
    Hermitian up to rounding and skip validate_hermitian's acceptance test:
    where the exact product is zero, every entry is rounding and the
    defect is as large as the entries.
    """
    with np.errstate(over="ignore"):
        defect = float(np.max(np.abs(m - m.conj().T)))
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (m + m.conj().T) / 2.0
    # The sum overflows for entries above about 9e307.  Halving first is
    # exact at that magnitude, but rounds subnormals, so only the
    # overflowed entries are recomputed that way.
    overflowed = ~np.isfinite(sym)
    if overflowed.any():
        sym[overflowed] = m[overflowed] / 2.0 + m.conj().T[overflowed] / 2.0
    # Diagonal of (M + M*)/2 is real in exact arithmetic; force it so.
    np.fill_diagonal(sym, sym.diagonal().real)
    return HermitianMatrix(matrix=sym, hermiticity_defect=defect)


def validate_psd(entries, tol: float = TOL_PSD, herm_tol: float = TOL_HERM) -> PSDMatrix:
    """Accept a Hermitian matrix as PSD within `tol` (relative to its spectral radius)."""
    herm = entries if isinstance(entries, HermitianMatrix) else validate_hermitian(entries, herm_tol)
    eig = hermitian_eig(herm)
    lo = eig.spectrum[-1]
    threshold = tol * max(eig.spectrum[0], -lo)
    if lo < -threshold:
        raise NotPositiveSemidefinite(lo, threshold)
    return PSDMatrix(hermitian=herm, eig=eig, min_eigenvalue=lo)


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Apply one unitary rotation zeroing a[p, q] (and a[q, p]) in place.

    The rotation diagonalizes the 2x2 Hermitian block: phase-align the
    off-diagonal entry, then a real Givens rotation with the smaller-root
    tangent for stability.
    """
    apq = a[p, q]
    mag = abs(apq)
    phase = apq / mag
    theta = (a[q, q].real - a[p, p].real) / (2.0 * mag)
    if theta >= 0.0:
        t = 1.0 / (theta + sqrt(theta * theta + 1.0))
    else:
        t = -1.0 / (-theta + sqrt(theta * theta + 1.0))
    c = 1.0 / sqrt(t * t + 1.0)
    s = t * c

    # Columns: M <- M J with J[p,p]=J[q,q]=c, J[p,q]=s*phase, J[q,p]=-s*conj(phase).
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s * np.conj(phase) * col_q
    a[:, q] = s * phase * col_p + c * col_q
    # Rows: M <- J* M.
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * phase * row_q
    a[q, :] = s * np.conj(phase) * row_p + c * row_q

    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vec_p = v[:, p].copy()
    vec_q = v[:, q].copy()
    v[:, p] = c * vec_p - s * np.conj(phase) * vec_q
    v[:, q] = s * phase * vec_p + c * vec_q


def _unit_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(m / 2^e, e) with 2^e the power of two just above the largest |re| or |im|.

    A power of two scales exactly, so a computation on the scaled copy
    scaled back by 2^e is bit-identical to one on m wherever that one
    neither overflows nor underflows.  ldexp, not a multiplication by
    2.0 ** -e, which overflows for a subnormal peak.
    """
    peak = max(np.max(np.abs(m.real), initial=0.0), np.max(np.abs(m.imag), initial=0.0))
    exponent = int(np.frexp(peak)[1])
    scaled = np.empty_like(m, dtype=np.complex128)
    scaled.real = np.ldexp(m.real, -exponent)
    scaled.imag = np.ldexp(m.imag, -exponent)
    return scaled, exponent


def _off_norm(a: np.ndarray) -> float:
    # Summed directly over off-diagonal entries: subtracting the diagonal
    # mass from the total norm would cancel catastrophically once the
    # off-diagonal part is small.
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def hermitian_eig(a: HermitianMatrix) -> EigenDecomposition:
    """Full eigendecomposition by LAPACK (numpy.linalg.eigh, zheevd).

    LAPACK runs on A / 2^e (see _unit_scaled) and the eigenvalues are
    scaled back by 2^e, so the result does not depend on how A is scaled
    until the eigenvalues themselves leave the floating-point range
    (NonFinite).  A LAPACK failure surfaces as NoConvergence.
    """
    work, exponent = _unit_scaled(a.matrix)
    try:
        values, vectors = eigh(work)
    except LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from exc
    return _finish_eig(values, vectors, exponent)


def jacobi_eig(a: HermitianMatrix) -> EigenDecomposition:
    """Full eigendecomposition by cyclic complex Jacobi rotations.

    The test oracle for hermitian_eig; nothing in the package calls it.

    Sweeps annihilate every off-diagonal pair in turn until the
    off-diagonal Frobenius norm drops below JACOBI_TOL * ||A||_F.  Raises
    NoConvergence if JACOBI_MAX_SWEEPS sweeps do not reach the target
    (which for Hermitian input they always should: convergence is
    quadratic once the off-diagonal mass is small).

    The sweeps run on A / 2^e (see _unit_scaled), so ||A||_F neither
    overflows nor underflows however A is scaled; the eigenvalues are
    scaled back by 2^e.
    """
    work, exponent = _unit_scaled(a.matrix)
    n = work.shape[0]
    vectors = np.eye(n, dtype=np.complex128)
    norm = float(np.linalg.norm(work))
    if n == 1 or norm == 0.0:
        return _finish_eig(work.diagonal().real, vectors, exponent)

    target = JACOBI_TOL * norm
    # Skipping rotations below this per-element threshold still guarantees
    # off-norm < target after a quiet sweep: off <= n * threshold.
    threshold = target / n
    sweeps = 0
    while sweeps < JACOBI_MAX_SWEEPS:
        if _off_norm(work) <= target:
            return _finish_eig(work.diagonal().real, vectors, exponent)
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(work[p, q]) > threshold:
                    _jacobi_rotate(work, vectors, p, q)
        sweeps += 1
    residual = _off_norm(work)
    if residual <= target:
        return _finish_eig(work.diagonal().real, vectors, exponent)
    raise NoConvergence(
        f"Jacobi eigensolver did not converge after {sweeps} sweeps "
        f"(off-diagonal residual {float(np.ldexp(residual, exponent)):.3e})"
    )


def _finish_eig(values: np.ndarray, vectors: np.ndarray, exponent: int) -> EigenDecomposition:
    """Scale eigenvalues of A / 2^e back by 2^e; sort descending with their vectors."""
    with np.errstate(over="ignore"):
        values = np.ldexp(values, exponent)
    if not np.all(np.isfinite(values)):
        raise NonFinite("eigenvalues exceed the floating-point range")
    order = np.argsort(-values, kind="stable")
    spectrum = Spectrum(tuple(float(v) for v in values[order]))
    return EigenDecomposition(spectrum=spectrum, vectors=vectors[:, order])


def psd_sqrt(b: PSDMatrix) -> HermitianMatrix:
    """Unique PSD square root via the cached eigendecomposition of B.

    Eigenvalues at or below the rounding floor n * eps * lambda_1(B) are
    set to zero before the square root: a zero eigenvalue of B comes out of
    the eigensolver as about +-n * eps * lambda_1, and its square root
    (about 1e-8 * sqrt(lambda_1)) would otherwise land in B^(1/2).  The
    result is real-spectrum PSD by construction.
    """
    vals = np.array(b.eig.spectrum.values)
    floor = b.n * np.finfo(np.float64).eps * vals[0]
    vals[vals <= floor] = 0.0
    vecs = b.eig.vectors
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return _symmetrized(ensure_matrix(root))


def product_spectrum(a: HermitianMatrix, b: PSDMatrix) -> Spectrum:
    """Real spectrum of A@B, computed as the spectrum of B^(1/2) A B^(1/2).

    The two matrices share their eigenvalues whenever B is PSD; the
    conjugated form is Hermitian, which keeps the whole computation inside
    the Hermitian eigensolver.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"A is {a.n}x{a.n} but B is {b.n}x{b.n}")
    root = psd_sqrt(b).matrix
    conjugated = root @ a.matrix @ root
    return hermitian_eig(_symmetrized(ensure_matrix(conjugated))).spectrum


def frobenius_norm(x) -> float:
    scaled, exponent = _unit_scaled(np.asarray(x, dtype=np.complex128))
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(scaled), exponent))
