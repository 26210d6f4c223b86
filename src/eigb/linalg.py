"""Dense complex-matrix foundation.

Validated Hermitian and positive-semidefinite matrix types, the Hermitian
eigensolver (LAPACK zheevd), the PSD square root, and the real spectrum of
a Hermitian times PSD product computed through the symmetric conjugation
B^(1/2) A B^(1/2).  The product spectrum is never obtained from a general
eigensolver on A@B: conjugating keeps the problem Hermitian, so realness of
the result is structural rather than numerical.

zheevd runs in one of two modes.  Where eigenvectors are read (B, whose
vectors build B^(1/2), and the public hermitian_eig) it runs with them,
through numpy.linalg.eigh.  Every other solve reads eigenvalues only (A,
A + B and B^(1/2) A B^(1/2), and so product_spectrum) and runs without
them, through numpy.linalg.eigvalsh, which is faster.  The two modes share
the tridiagonal reduction but not its eigensolver, so a values-only
spectrum can differ from hermitian_eig(...).spectrum in the last bits.
Both return each spectrum in ascending order, as numpy documents; it is
reversed (with eigh's eigenvector columns), never sorted, and every
spectrum passes Spectrum's checks (Spectrum, or _check_spectra for a
stack), so an order LAPACK broke would raise, not pass.

Validation, the eigensolver, the PSD square root and the product spectrum
are written once, for stacks: arrays (m, n, n) of same-size matrices with
a leading axis.  The single-matrix public functions run that code with
m = 1.  numpy's eigh, eigvalsh, qr and matmul apply LAPACK and BLAS to each
matrix of a stack in turn, so a matrix gets the same bits in a stack as
alone from each of them (the tests check this on the installed BLAS).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, eigh, eigvalsh

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


def _finite(m: np.ndarray) -> np.ndarray:
    """m itself, if every entry of it is finite; NonFinite otherwise."""
    if not np.isfinite(m.real).all() or not np.isfinite(m.imag).all():
        raise NonFinite("matrix contains NaN or infinite entries")
    return m


class Spectrum(tuple):
    """Real eigenvalues in non-increasing order: a tuple of floats."""

    __slots__ = ()

    def __new__(cls, values):
        vals = tuple(float(v) for v in values)
        if len(vals) == 0:
            raise ValueError("spectrum must contain at least one value")
        _check_spectra(np.array(vals))
        return super().__new__(cls, vals)

    def __repr__(self) -> str:
        return f"Spectrum(values={tuple(self)!r})"

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self)

    def sum(self) -> float:
        return float(sum(self))


def _check_spectra(values: np.ndarray) -> None:
    """Spectrum's checks on an array (..., n) of spectra, one per row: the
    ValueError Spectrum raises, for the first row (in C order) that fails."""
    infinite = ~np.isfinite(values).all(axis=-1)
    bad = infinite | (values[..., :-1] < values[..., 1:]).any(axis=-1)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        if infinite[first]:
            raise ValueError("spectrum values must be finite")
        raise ValueError("spectrum values must be non-increasing")


def _radius(spec):
    """max(|first|, |last|) as Python's max picks it (the last only if it is
    larger): a float for a Spectrum, an (m, 1) column for an (m, n) array."""
    if isinstance(spec, np.ndarray):
        first, last = np.abs(spec[:, :1]), np.abs(spec[:, -1:])
        return np.where(last > first, last, first)
    return max(abs(spec[0]), abs(spec[-1]))


class EigenDecomposition(NamedTuple):
    """Spectrum plus matching orthonormal eigenvector columns."""

    spectrum: Spectrum
    vectors: np.ndarray


class HermitianMatrix(NamedTuple):
    """Symmetrized square complex matrix with its recorded hermiticity defect."""

    matrix: np.ndarray
    hermiticity_defect: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


class PSDMatrix(NamedTuple):
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
    """Coerce to a square complex128 matrix and accept it as Hermitian within
    `tol` (relative); see _validated.  Raises NotSquare for non-square input."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return _hermitian_matrix(*_validated(m[None], tol))


def _validated(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize a stack (m, n, n) and accept each matrix as Hermitian.

    Raises NonFinite if any entry is NaN or infinite, and NotHermitian for
    the first matrix whose defect max|M - M*|, measured before
    symmetrization, exceeds tol * max|entry|.  The two are compared on the
    scale of M / 2^e (see _unit_scaled), because the modulus of an entry,
    and so the defect, can exceed the largest double.
    """
    sym, defects = _symmetrized(_finite(m))
    scaled, exponents = _unit_scaled(m)
    exponents = exponents[:, 0, 0]
    limits = tol * np.abs(scaled).max(axis=(-2, -1))
    rejected = np.ldexp(defects, -exponents) > limits
    if rejected.any():
        i = int(np.argmax(rejected))
        raise NotHermitian(float(defects[i]), float(np.ldexp(limits[i], exponents[i])))
    return sym, defects


def _symmetrized(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M + M*)/2 and the defect max|M - M*| of each matrix of a finite stack.

    The matrices eigb builds itself (B^(1/2), B^(1/2) A B^(1/2)) are
    Hermitian up to rounding and skip _validated's acceptance test: where
    the exact product is zero, every entry is rounding and the defect is as
    large as the entries.
    """
    adjoint = m.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        defects = np.abs(m - adjoint).max(axis=(-2, -1))
        sym = m + adjoint
        sym /= 2.0
    # The sum overflows for entries above about 9e307.  Halving first is
    # exact at that magnitude, but rounds subnormals, so only the
    # overflowed entries are recomputed that way.
    if not np.isfinite(sym).all():
        overflowed = ~np.isfinite(sym)
        sym[overflowed] = m[overflowed] / 2.0 + adjoint[overflowed] / 2.0
    # Diagonal of (M + M*)/2 is real in exact arithmetic; force it so.
    diagonal = np.arange(m.shape[-1])
    sym[..., diagonal, diagonal] = sym[..., diagonal, diagonal].real
    return sym, defects


def _hermitian_matrix(sym: np.ndarray, defects: np.ndarray) -> HermitianMatrix:
    """The first matrix of a symmetrized stack, with its defect."""
    return HermitianMatrix(matrix=sym[0], hermiticity_defect=float(defects[0]))


def validate_psd(entries, herm_tol: float = TOL_HERM) -> PSDMatrix:
    """Accept a Hermitian matrix as PSD within TOL_PSD (relative to its spectral radius)."""
    herm = entries if isinstance(entries, HermitianMatrix) else validate_hermitian(entries, herm_tol)
    values, vectors = _psd_eig(herm.matrix[None])
    return PSDMatrix(
        hermitian=herm, eig=_decomposition(values, vectors), min_eigenvalue=float(values[0, -1])
    )


def _psd_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_eig of a stack of Hermitian matrices, each accepted as PSD within
    TOL_PSD relative to its spectral radius (NotPositiveSemidefinite for the
    first that is not)."""
    values, vectors = _eig(m)
    lowest = values[:, -1]
    thresholds = TOL_PSD * _radius(values)[:, 0]
    rejected = lowest < -thresholds
    if rejected.any():
        i = int(np.argmax(rejected))
        raise NotPositiveSemidefinite(float(lowest[i]), float(thresholds[i]))
    return values, vectors


def _unit_scaled(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M / 2^e, e) for each matrix M of a stack (..., n, n), with 2^e the
    power of two just above M's largest |re| or |im|; e has shape (..., 1, 1).

    A power of two scales exactly, so a computation on the scaled copy
    scaled back by 2^e is bit-identical to one on M wherever that one
    neither overflows nor underflows.  ldexp, not a multiplication by
    2.0 ** -e, which overflows for a subnormal peak.
    """
    # Each row as its real and imaginary parts, interleaved: (..., n, 2n).
    parts = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    peak = np.abs(parts).max(axis=(-2, -1), keepdims=True, initial=0.0)
    exponents = np.frexp(peak)[1]
    return np.ldexp(parts, -exponents).view(np.complex128), exponents


def hermitian_eig(a: HermitianMatrix) -> EigenDecomposition:
    """Full eigendecomposition by LAPACK (numpy.linalg.eigh, zheevd with
    eigenvectors); see _eig."""
    return _decomposition(*_eig(a.matrix[None]))


def _eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (m, n), each row descending, and the matching eigenvector
    columns (m, n, n) of a stack of Hermitian matrices: LAPACK's ascending
    values and their columns, reversed.

    LAPACK runs on each M / 2^e (see _unit_scaled) and the eigenvalues are
    scaled back by 2^e, so the result does not depend on how M is scaled
    until the eigenvalues themselves leave the floating-point range
    (NonFinite).  A LAPACK failure on any matrix of the stack surfaces as
    NoConvergence.
    """
    (values, vectors), exponents = _lapack(eigh, m)
    return _finish_eig(values, exponents), vectors[..., ::-1]


def _eig_values(m: np.ndarray) -> np.ndarray:
    """The eigenvalues (m, n) of _eig, each row descending, from LAPACK's
    values-only driver (eigvalsh), which computes no eigenvectors: the
    solve of A, A + B and B^(1/2) A B^(1/2), whose eigenvectors nothing
    reads.  They agree with _eig's, and so with hermitian_eig(...).spectrum,
    to rounding (within 4 n eps rho), but can differ in the last bits."""
    values, exponents = _lapack(eigvalsh, m)
    return _finish_eig(values, exponents)


def _lapack(solve, m: np.ndarray):
    """solve (eigh or eigvalsh) on each M / 2^e of a stack, and the exponents
    e (see _unit_scaled); a LAPACK failure raises NoConvergence."""
    work, exponents = _unit_scaled(m)
    try:
        return solve(work), exponents
    except LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from exc


def _finish_eig(values: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Scale the ascending eigenvalues (m, n) of each M / 2^e back by 2^e
    (exponents as _unit_scaled gives them), and reverse each row."""
    with np.errstate(over="ignore"):
        values = np.ldexp(values, exponents[..., 0])
    if not np.isfinite(values).all():
        raise NonFinite("eigenvalues exceed the floating-point range")
    return values[:, ::-1]


def _decomposition(values: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
    """The first matrix's eigendecomposition, from a stack's (values, vectors)."""
    return EigenDecomposition(spectrum=Spectrum(tuple(values[0].tolist())), vectors=vectors[0])


def _eig_stack(b: PSDMatrix) -> tuple[np.ndarray, np.ndarray]:
    """B's eigendecomposition from validation, as a stack of one."""
    return np.array([b.eig.spectrum]), b.eig.vectors[None]


def psd_sqrt(b: PSDMatrix) -> HermitianMatrix:
    """Unique PSD square root via the cached eigendecomposition of B; see _psd_root."""
    return _hermitian_matrix(*_psd_root(*_eig_stack(b)))


def _psd_root(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B^(1/2) for a stack of PSD matrices, from each one's eigenvalues
    (descending) and eigenvectors, symmetrized (see _symmetrized).

    Eigenvalues at or below the rounding floor n * eps * lambda_1(B) are
    set to zero before the square root: a zero eigenvalue of B comes out of
    the eigensolver as about +-n * eps * lambda_1, and its square root
    (about 1e-8 * sqrt(lambda_1)) would otherwise land in B^(1/2).  The
    result is real-spectrum PSD by construction.
    """
    floor = values.shape[-1] * np.finfo(np.float64).eps * values[:, :1]
    roots = np.sqrt(np.where(values <= floor, 0.0, values))
    root = (vectors * roots[:, None, :]) @ vectors.conj().swapaxes(-1, -2)
    return _symmetrized(_finite(root))


def product_spectrum(a: HermitianMatrix, b: PSDMatrix) -> Spectrum:
    """Real spectrum of A@B, computed as the spectrum of B^(1/2) A B^(1/2).

    The two matrices share their eigenvalues whenever B is PSD; the
    conjugated form is Hermitian, which keeps the whole computation inside
    the Hermitian eigensolver.
    """
    return Spectrum(tuple(_product_values(a.matrix[None], *_eig_stack(b))[0].tolist()))


def _same_size(a: np.ndarray, b: np.ndarray) -> None:
    """DimensionMismatch unless A and B (or B's eigenvalues) have the same n."""
    if a.shape[-1] != b.shape[-1]:
        n, k = a.shape[-1], b.shape[-1]
        raise DimensionMismatch(f"A is {n}x{n} but B is {k}x{k}")


def _product_values(a: np.ndarray, b_values: np.ndarray, b_vectors: np.ndarray) -> np.ndarray:
    """product_spectrum for stacks: the eigenvalues (m, n) of each
    B^(1/2) A B^(1/2), from A and B's eigendecomposition."""
    _same_size(a, b_values)
    root = _psd_root(b_values, b_vectors)[0]
    # Finite A and B can give a product beyond the floating-point range: an
    # error of the product, not of the input, and no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        product = root @ a @ root
    if not np.isfinite(product.view(np.float64)).all():
        raise NonFinite("B^(1/2) A B^(1/2) exceeds the floating-point range")
    return _eig_values(_symmetrized(product)[0])


def frobenius_norm(x) -> float:
    """The 2-norm of all of x's entries (a matrix's Frobenius norm), for an
    array of any shape: its entries as the one row of a 1 x k matrix."""
    return float(_frobenius_norms(np.asarray(x, dtype=np.complex128).reshape(1, 1, -1))[0])


def _frobenius_norms(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack (..., n, n), computed on
    M / 2^e; shape (...).

    numpy's norm of one matrix, for every matrix in one matmul: the dot
    product of the raveled real parts with themselves plus that of the
    imaginary parts, each a BLAS ddot over every second double.  A norm over
    axes (-2, -1) sums in another order and can differ in the last bit.
    """
    scaled, exponents = _unit_scaled(m)
    # Each matrix as its real and its imaginary parts, two strided rows.
    parts = scaled.view(np.float64).reshape(m.shape[:-2] + (-1, 2)).swapaxes(-1, -2)
    squares = np.matmul(parts[..., None, :], parts[..., :, None])[..., 0, 0]
    norms = np.sqrt(squares[..., 0] + squares[..., 1])
    with np.errstate(over="ignore"):
        return np.ldexp(norms, exponents[..., 0, 0])
