"""Eigenvalue-sum bound formulas over spectra and index sequences.

Everything here is a pure function of sorted spectra: the selected-index
bounds for the product of a Hermitian matrix with a PSD matrix, their
reductions for one-signed spectra, the splitting-based upper bound and
its dominance comparison, the two-eigenvalue and gap corollaries, the
Ostrowski ratio check, and the classical sum/trace baselines they refine.

All indices on the public surface are 1-based.  Summations over an empty
range contribute zero, and a spectrum value counts as nonnegative when it
is within the relative classification tolerance of zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidIndexSequence,
    NoSignChange,
    NotNonnegative,
    NotPositiveDefinite,
    NotStable,
    SignConditionViolated,
)
from .linalg import Spectrum

# Relative threshold below which an eigenvalue counts as zero.
TOL_CLASS = 1e-9
# Base for the magnitude-scaled verification tolerance.
TOL_VERIFY_BASE = 1e-8


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and zero eigenvalues."""

    positive: int
    negative: int
    zero: int

    def __post_init__(self):
        if min(self.positive, self.negative, self.zero) < 0:
            raise ValueError("inertia counts must be nonnegative")

    @property
    def n(self) -> int:
        return self.positive + self.negative + self.zero

    @property
    def nonnegative(self) -> int:
        return self.positive + self.zero

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)


@dataclass(frozen=True)
class IndexSequence:
    """Strictly increasing 1-based eigenvalue indices within dimension n."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) == 0:
            raise InvalidIndexSequence("index sequence must select at least one eigenvalue")
        if idx[0] < 1 or idx[-1] > self.n:
            raise InvalidIndexSequence(
                f"indices must lie in [1, {self.n}], got {idx}"
            )
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise InvalidIndexSequence(f"indices must be strictly increasing, got {idx}")

    @property
    def k(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: bracket, achieved sum, slacks, branch metadata."""

    lower: float
    upper: float
    actual: float
    selected_nonneg: int
    lower_slack: float
    upper_slack: float
    branch: str


class SelectionBounds(NamedTuple):
    """Every product pairing sum of one selection (see selection_bounds)."""

    lower: float
    upper: float
    kap: int
    split_upper: float
    t1: float
    t2: float


@dataclass(frozen=True)
class OstrowskiReport:
    """Product-to-factor eigenvalue ratios and the admissible range."""

    ratios: tuple[tuple[int, float], ...]
    low: float
    high: float


def zero_cut(spec: Spectrum, tol: float = TOL_CLASS) -> float:
    """Half-width of the zero band: values within it of zero count as zero.

    It is tol times the spectral radius, with no absolute floor, so the band
    scales with the spectrum.  The band is closed (|v| <= cut is zero), so
    an exact zero counts as zero even when tol * radius is 0 or underflows
    (a zero spectrum, tol = 0).
    """
    return tol * _radius(spec)


def _product_cut(spec_a: Spectrum, spec_b: Spectrum, tol: float) -> float:
    """zero_cut for the spectrum of AB, scaled by rho(A) * rho(B).

    That is the scale of the product's rounding, not its spectral radius:
    when the exact product is zero (A vanishes on the range of B) its
    computed spectrum is mixed-sign noise of about eps * rho(A) * rho(B),
    and a band relative to that noise would count it as signed.
    """
    return tol * _radius(spec_a) * _radius(spec_b)


def verify_tolerance(spec_a: Spectrum, spec_b: Spectrum, k, base: float = TOL_VERIFY_BASE):
    """Slack tolerance scaled to the magnitude of a k-term product bound.

    k may be an integer array; the result is then an array, entry by entry
    equal to the scalar one.
    """
    return base * (1.0 + _radius(spec_a) * _radius(spec_b) * k)


def ratio_tolerance(spec_b: Spectrum, base: float = TOL_VERIFY_BASE) -> float:
    """Slack tolerance for ratios bracketed by the spectrum of B (Ostrowski)."""
    return base * (1.0 + _radius(spec_b))


def sum_tolerance(spec_a: Spectrum, spec_b: Spectrum, k, base: float = TOL_VERIFY_BASE):
    """Slack tolerance scaled to the magnitude of a k-term bound for A + B
    (k may be an integer array, as in verify_tolerance)."""
    return base * (1.0 + (_radius(spec_a) + _radius(spec_b)) * k)


def inertia_of(spec: Spectrum, tol: float = TOL_CLASS) -> Inertia:
    """Count positive/negative/zero eigenvalues with a relative zero band."""
    cut = zero_cut(spec, tol)
    positive = sum(1 for v in spec if v > cut)
    negative = sum(1 for v in spec if v < -cut)
    return Inertia(positive=positive, negative=negative, zero=len(spec) - positive - negative)


def count_selected_nonnegative(spec: Spectrum, idx: IndexSequence, tol: float = TOL_CLASS) -> int:
    """How many selected eigenvalues are nonnegative (within tolerance).

    The spectrum is sorted, so these occupy the first positions of the
    selection.
    """
    _require_indexable(spec, idx)
    cut = zero_cut(spec, tol)
    return sum(1 for i in idx.indices if spec[i - 1] >= -cut)


def selected_sum(spec: Spectrum, idx: IndexSequence) -> float:
    """Sum of the selected eigenvalues."""
    _require_indexable(spec, idx)
    return reduce(add, _selected(spec, idx), 0.0)


def main_bounds(
    spec_a: Spectrum,
    spec_b: Spectrum,
    idx: IndexSequence,
    tol: float = TOL_CLASS,
) -> tuple[float, float, int]:
    """Bracket for the selected eigenvalue sum of a Hermitian x PSD product.

    With kap selected nonnegative eigenvalues of A (counted within
    tolerance), the upper bound pairs those with the largest eigenvalues
    of B and the remaining (negative) ones with the tail block of B; the
    lower bound reverses both pairings:

        upper = sum_{t<=kap} a[i_t] b[t]      + sum_{t>kap} a[i_t] b[n-k+t]
        lower = sum_{t<=kap} a[i_t] b[n-t+1]  + sum_{t>kap} a[i_t] b[k-t+1]

    Returns (lower, upper, kap).  spec_b is clamped to nonnegative values.
    """
    return selection_bounds(spec_a, spec_b, idx, tol)[:3]


def selection_bounds(
    spec_a: Spectrum,
    spec_b: Spectrum,
    idx: IndexSequence,
    tol: float = TOL_CLASS,
) -> SelectionBounds:
    """All product pairing sums of one selection, sharing kap, nu and clamped B.

    Returns the main bracket (main_bounds); the upper bound from splitting
    A into one-signed parts before bounding,

        split_upper = sum_{t<=kap} a[i_t] b[t] + sum_{t=nu+1..k} a[t] b[n-k+t]

    where nu counts the nonnegative eigenvalues of the whole spectrum; and
    the second summations T1, T2 of the main and splitting upper bounds.
    The first summations agree by construction, so T1 <= T2 is exactly the
    statement that the main upper bound is at least as tight as the
    splitting one (dominance).
    """
    _require_same_dim(spec_a, spec_b)
    _require_indexable(spec_a, idx)
    n, k = idx.n, idx.k
    sel = _selected(spec_a, idx)
    b = _clamped(spec_b)
    kap = count_selected_nonnegative(spec_a, idx, tol)
    nu = inertia_of(spec_a, tol).nonnegative
    # The splitting bound's second summation: a[nu+1..k] against b[n-k+nu+1..n].
    rest_a, rest_b = spec_a.values[nu:k], b[n - k + nu:]
    lower, upper = _bracket(sel, b, kap)
    split_upper = _pair_sum(sel[:kap] + rest_a, b[:kap] + rest_b)
    t1 = _pair_sum(sel[kap:], b[n - k + kap:])
    return SelectionBounds(lower, upper, kap, split_upper, t1, _pair_sum(rest_a, rest_b))


def main_bound_report(
    spec_a: Spectrum,
    spec_b: Spectrum,
    spec_ab: Spectrum,
    idx: IndexSequence,
    tol: float = TOL_CLASS,
) -> BoundReport:
    """Evaluate the main bounds against the achieved product eigenvalue sum."""
    lower, upper, kap = main_bounds(spec_a, spec_b, idx, tol)
    actual = selected_sum(spec_ab, idx)
    if kap == idx.k:
        branch = "all-selected-nonnegative"
    elif kap == 0:
        branch = "all-selected-negative"
    else:
        branch = "mixed-selection"
    return BoundReport(
        lower=lower,
        upper=upper,
        actual=actual,
        selected_nonneg=kap,
        lower_slack=actual - lower,
        upper_slack=upper - actual,
        branch=branch,
    )


def psd_product_bounds(
    spec_a: Spectrum,
    spec_b: Spectrum,
    idx: IndexSequence,
    tol: float = TOL_CLASS,
) -> tuple[float, float]:
    """Classical bracket for two PSD factors: a[i_t] paired with b[n-t+1] / b[t].

    Coincides with main_bounds whenever every selected eigenvalue of A is
    nonnegative; requires spec_a itself nonnegative (within tolerance).
    """
    _require_same_dim(spec_a, spec_b)
    _require_indexable(spec_a, idx)
    cut = zero_cut(spec_a, tol)
    if spec_a[-1] < -cut:
        raise NotNonnegative(f"spectrum has negative entry {spec_a[-1]:.6g}")
    return _bracket(_selected(spec_a, idx), _clamped(spec_b), idx.k)


def stable_bounds(
    spec_a: Spectrum,
    spec_b: Spectrum,
    idx: IndexSequence,
    tol: float = TOL_CLASS,
) -> tuple[float, float]:
    """Bracket for a stable A (no positive eigenvalues): reversed pairings.

        lower = sum a[i_t] b[k-t+1],  upper = sum a[i_t] b[n-k+t]

    Equals main_bounds when the selected nonnegative eigenvalues (if any)
    are exactly zero.
    """
    _require_same_dim(spec_a, spec_b)
    _require_indexable(spec_a, idx)
    cut = zero_cut(spec_a, tol)
    if spec_a[0] > cut:
        raise NotStable(f"spectrum has positive entry {spec_a[0]:.6g}")
    return _bracket(_selected(spec_a, idx), _clamped(spec_b), 0)


def wielandt_sum_bounds(
    spec_a: Spectrum,
    spec_b: Spectrum,
    idx: IndexSequence,
) -> tuple[float, float]:
    """Classical bracket for the selected eigenvalue sum of A + B (both Hermitian)."""
    _require_same_dim(spec_a, spec_b)
    _require_indexable(spec_a, idx)
    b = spec_b.values
    base = selected_sum(spec_a, idx)
    return reduce(add, b[::-1][:idx.k], base), reduce(add, b[:idx.k], base)


def trace_bounds(spec_a: Spectrum, spec_b: Spectrum) -> tuple[float, float]:
    """Full-trace bracket: sorted-against-reversed and sorted-against-sorted pairings."""
    _require_same_dim(spec_a, spec_b)
    return _bracket(spec_a.values, spec_b.values, len(spec_a))


def pair_bounds(
    spec_a: Spectrum,
    spec_b: Spectrum,
    spec_ab: Spectrum,
    s: int,
    t: int,
    tol: float = TOL_CLASS,
) -> tuple[float, float]:
    """Two-term bracket for one positive and one negative product eigenvalue.

    Requires lambda_s(AB) > 0 > lambda_t(AB) strictly (beyond tolerance)
    with s < t; pairs each factor eigenvalue with an extreme eigenvalue
    of B.
    """
    _require_same_dim(spec_a, spec_b)
    _require_same_dim(spec_a, spec_ab)
    n = len(spec_a)
    if not (1 <= s < t <= n):
        raise IndexOutOfRange(f"need 1 <= s < t <= {n}, got s={s}, t={t}")
    cut = _product_cut(spec_a, spec_b, tol)
    if spec_ab[s - 1] <= cut:
        raise SignConditionViolated(
            f"product eigenvalue {s} is {spec_ab[s - 1]:.6g}, not positive"
        )
    if spec_ab[t - 1] >= -cut:
        raise SignConditionViolated(
            f"product eigenvalue {t} is {spec_ab[t - 1]:.6g}, not negative"
        )
    a = spec_a.values
    b = spec_b.values
    lower = a[s - 1] * b[n - 1] + a[t - 1] * b[0]
    upper = a[s - 1] * b[0] + a[t - 1] * b[n - 1]
    return lower, upper


def gap_bound(
    spec_a: Spectrum,
    spec_b: Spectrum,
    spec_ab: Spectrum,
    tol: float = TOL_CLASS,
) -> tuple[int, int, float, float]:
    """Bound the gap between the product's smallest positive and largest negative
    eigenvalues by the matching gap in A scaled by the largest eigenvalue of B.

    Returns (p, q, gap, bound) with 1-based p, q.  Raises NoSignChange when
    the product spectrum is one-signed.
    """
    _require_same_dim(spec_a, spec_b)
    _require_same_dim(spec_a, spec_ab)
    cut = _product_cut(spec_a, spec_b, tol)
    positives = [i for i, v in enumerate(spec_ab, start=1) if v > cut]
    negatives = [i for i, v in enumerate(spec_ab, start=1) if v < -cut]
    if not positives or not negatives:
        raise NoSignChange("product spectrum has no positive/negative pair")
    p = positives[-1]
    q = negatives[0]
    cut_a = zero_cut(spec_a, tol)
    if spec_a[p - 1] <= -cut_a or spec_a[q - 1] >= cut_a:
        raise ConsistencyError(
            "factor eigenvalues at the gap indices do not have the signs "
            f"the product guarantees: a[{p}]={spec_a[p - 1]:.6g}, a[{q}]={spec_a[q - 1]:.6g}"
        )
    gap = spec_ab[p - 1] - spec_ab[q - 1]
    bound = (spec_a[p - 1] - spec_a[q - 1]) * spec_b[0]
    return p, q, gap, bound


def ostrowski_ratios(
    spec_a: Spectrum,
    spec_ab: Spectrum,
    spec_b: Spectrum,
    tol: float = TOL_CLASS,
) -> OstrowskiReport:
    """Ratios lambda_t(AB)/lambda_t(A) for positive definite B.

    Reported for every t whose factor eigenvalue is nonzero beyond
    tolerance; each ratio must land in [smallest, largest] eigenvalue
    of B.
    """
    _require_same_dim(spec_a, spec_b)
    _require_same_dim(spec_a, spec_ab)
    cut_b = zero_cut(spec_b, tol)
    if spec_b[-1] <= cut_b:
        raise NotPositiveDefinite(
            f"smallest eigenvalue of B is {spec_b[-1]:.6g}, not strictly positive"
        )
    cut_a = zero_cut(spec_a, tol)
    ratios = []
    for t, v in enumerate(spec_a, start=1):
        if abs(v) > cut_a:
            ratios.append((t, spec_ab[t - 1] / v))
    return OstrowskiReport(ratios=tuple(ratios), low=spec_b[-1], high=spec_b[0])


def _pair_sum(xs: tuple[float, ...], ys: tuple[float, ...]) -> float:
    """The pairing kernel: sum of xs[t] * ys[t], accumulated left to right."""
    total = 0.0
    for x, y in zip(xs, ys, strict=True):
        total += x * y
    return total


def _bracket(sel: tuple[float, ...], b: tuple[float, ...], kap: int) -> tuple[float, float]:
    """(lower, upper) pairing sel with reversed b / b in the pattern b[:kap] + b[n-k+kap:].

    kap = k gives the both-PSD bracket, kap = 0 the stable one, and
    sel = a with kap = k = n the trace one.
    """
    n, k = len(b), len(sel)
    rev = b[::-1]
    return (
        _pair_sum(sel, rev[:kap] + rev[n - k + kap:]),
        _pair_sum(sel, b[:kap] + b[n - k + kap:]),
    )


class SelectionBoundsBatch(NamedTuple):
    """selection_bounds of m selections, one array entry per selection, plus
    the both-PSD (kap = k) and stable (kap = 0) brackets the reductions use."""

    lower: np.ndarray
    upper: np.ndarray
    kap: np.ndarray
    split_upper: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    psd_lower: np.ndarray
    psd_upper: np.ndarray
    stable_lower: np.ndarray
    stable_upper: np.ndarray


def selection_bounds_batch(
    spec_a: Spectrum,
    spec_b: Spectrum,
    rows: np.ndarray,
    ks: np.ndarray,
    tol: float = TOL_CLASS,
) -> SelectionBoundsBatch:
    """selection_bounds, psd_product_bounds and stable_bounds of m selections.

    rows is an (m x n) integer matrix: row r holds the 1-based indices of
    one selection in its first ks[r] columns and zeros after them.  Every
    sum adds the terms of the scalar formula in the same order (_row_sums),
    so each entry equals the scalar result for that selection bit for bit.
    """
    _require_same_dim(spec_a, spec_b)
    n = len(spec_a)
    b = np.array(_clamped(spec_b))
    live, sel = _gathered(spec_a, rows)
    kap = (live & (sel >= -zero_cut(spec_a, tol))).sum(axis=1)
    nu = inertia_of(spec_a, tol).nonnegative
    t = np.arange(n)
    ks = ks[:, None]
    head = t < kap[:, None]
    tail = live & ~head
    # The four pairings of _bracket: b[t], b[n-1-t], b[n-k+t] and b[k-1-t].
    # sel is 0.0 outside each selection and b is finite, so the products are too.
    top = sel * b
    bottom = sel * b[::-1]
    late = sel * b.take(n - ks + t, mode="clip")
    early = sel * b.take(ks - 1 - t, mode="clip")
    lower, upper, t1, first, psd_lower, psd_upper, stable_lower, stable_upper = _row_sums(
        np.stack([
            np.where(head, bottom, early),
            np.where(head, top, late),
            np.where(tail, late, 0.0),
            np.where(head, top, 0.0),
            bottom,
            top,
            early,
            late,
        ])
    )
    # The splitting bound's second summation: a[nu+1..k] against b[n-k+nu+1..n],
    # added onto the same running total as its first kap terms.
    j = np.arange(n - nu)
    a_rest = np.array(spec_a.values[nu:])
    rest = np.where(j < ks - nu, a_rest * b.take(n - ks + nu + j, mode="clip"), 0.0)
    return SelectionBoundsBatch(
        lower=lower,
        upper=upper,
        kap=kap,
        split_upper=_row_sums(rest, first),
        t1=t1,
        t2=_row_sums(rest),
        psd_lower=psd_lower,
        psd_upper=psd_upper,
        stable_lower=stable_lower,
        stable_upper=stable_upper,
    )


def wielandt_sum_bounds_batch(
    spec_a: Spectrum, spec_b: Spectrum, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """wielandt_sum_bounds of every selection in rows (see selection_bounds_batch)."""
    _require_same_dim(spec_a, spec_b)
    base = selected_sums(spec_a, rows)
    live = rows > 0
    b = np.array(spec_b.values)
    return (
        _row_sums(np.where(live, b[::-1], 0.0), base),
        _row_sums(np.where(live, b, 0.0), base),
    )


def selected_sums(spec: Spectrum, rows: np.ndarray) -> np.ndarray:
    """selected_sum of every selection in rows (see selection_bounds_batch)."""
    if rows.shape[1] != len(spec):
        raise IndexOutOfRange(
            f"index sequence is for dimension {rows.shape[1]}, spectrum has {len(spec)}"
        )
    return _row_sums(_gathered(spec, rows)[1])


def _row_sums(terms: np.ndarray, start=0.0) -> np.ndarray:
    """The batched pairing kernel: sums over the last axis, added column by
    column, left to right, onto start, exactly as _pair_sum adds.

    Terms outside a selection must be zero.  Adding 0.0 leaves a running
    total unchanged unless the total is -0.0, which a sum started from
    +0.0 (or from such a sum) never is.
    """
    total = np.empty(terms.shape[:-1])
    total[...] = start
    for t in range(terms.shape[-1]):
        total += terms[..., t]
    return total


def _gathered(spec: Spectrum, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(live, values): where rows holds an index, and the spectrum there (0.0 elsewhere)."""
    live = rows > 0
    return live, np.where(live, np.array(spec.values)[rows - 1], 0.0)


def _selected(spec: Spectrum, idx: IndexSequence) -> tuple[float, ...]:
    return tuple(spec[i - 1] for i in idx.indices)


def _clamped(spec: Spectrum) -> tuple[float, ...]:
    return tuple(max(v, 0.0) for v in spec.values)


def _radius(spec: Spectrum) -> float:
    return max(abs(spec[0]), abs(spec[-1]))


def _require_same_dim(spec_a: Spectrum, spec_b: Spectrum) -> None:
    if len(spec_a) != len(spec_b):
        raise DimensionMismatch(
            f"spectra have different lengths: {len(spec_a)} vs {len(spec_b)}"
        )


def _require_indexable(spec: Spectrum, idx: IndexSequence) -> None:
    if idx.n != len(spec):
        raise IndexOutOfRange(
            f"index sequence is for dimension {idx.n}, spectrum has {len(spec)}"
        )
