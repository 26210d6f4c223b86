"""Eigenvalue-sum bound formulas over spectra and index sequences.

Everything here is a pure function of sorted spectra: the selected-index
bounds for the product of a Hermitian matrix with a PSD matrix, their
reductions for one-signed spectra, the splitting-based upper bound and
its dominance comparison, the two-eigenvalue and gap corollaries, the
Ostrowski ratio check, and the classical sum/trace baselines they refine.

All indices on the public surface are 1-based.  Summations over an empty
range contribute zero, and a spectrum value counts as nonnegative when it
is within the relative classification tolerance of zero.

The *_batch functions evaluate the same formulas on stacks: m same-n
spectra as an (m, n) array, one descending row per instance, against a
SelectionIndex.  Each entry equals the scalar formula's result bit for bit.
zero_cut and the tolerances accept such an array too and then give one
value per row, as an (m, 1) column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from typing import NamedTuple, Sequence

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
    (a zero spectrum, tol = 0).  For an (m, n) array of spectra, an (m, 1)
    column of cuts.
    """
    return tol * _radius(spec)


def _product_cut(rho_a, rho_b, tol: float):
    """zero_cut for the spectrum of AB, scaled by rho(A) * rho(B) (_radius of
    each spectrum: floats, or (m, 1) columns).

    That is the scale of the product's rounding, not its spectral radius:
    when the exact product is zero (A vanishes on the range of B) its
    computed spectrum is mixed-sign noise of about eps * rho(A) * rho(B),
    and a band relative to that noise would count it as signed.
    """
    return tol * rho_a * rho_b


def verify_tolerance(spec_a: Spectrum, spec_b: Spectrum, k, base: float = TOL_VERIFY_BASE):
    """Slack tolerance scaled to the magnitude of a k-term product bound.

    k may be an integer array, and the spectra (m, n) arrays (one radius per
    row); the result is then an array, entry by entry equal to the scalar one.
    """
    return _verify_tolerance(_radius(spec_a), _radius(spec_b), k, base)


def ratio_tolerance(spec_b: Spectrum, base: float = TOL_VERIFY_BASE) -> float:
    """Slack tolerance for ratios bracketed by the spectrum of B (Ostrowski)."""
    return _ratio_tolerance(_radius(spec_b), base)


def sum_tolerance(spec_a: Spectrum, spec_b: Spectrum, k, base: float = TOL_VERIFY_BASE):
    """Slack tolerance scaled to the magnitude of a k-term bound for A + B
    (k may be an integer array, as in verify_tolerance)."""
    return _sum_tolerance(_radius(spec_a), _radius(spec_b), k, base)


# The three tolerances from the spectral radii (_radius) of A and B, for a
# caller that computes each radius once for many checks.


def _verify_tolerance(rho_a, rho_b, k, base: float):
    return base * (1.0 + rho_a * rho_b * k)


def _ratio_tolerance(rho_b, base: float):
    return base * (1.0 + rho_b)


def _sum_tolerance(rho_a, rho_b, k, base: float):
    return base * (1.0 + (rho_a + rho_b) * k)


def inertia_of(spec: Spectrum, tol: float = TOL_CLASS) -> Inertia:
    """Count positive/negative/zero eigenvalues with a relative zero band."""
    cut = zero_cut(spec, tol)
    positive = sum(1 for v in spec if v > cut)
    negative = sum(1 for v in spec if v < -cut)
    return Inertia(positive=positive, negative=negative, zero=len(spec) - positive - negative)


def inertia_counts(values: np.ndarray, tol: float = TOL_CLASS, radius=None) -> np.ndarray:
    """inertia_of each row of an (m, n) array of spectra: an (m, 3) integer
    array of (positive, negative, zero) counts.  Raises Inertia's ValueError
    where a negative tol makes the two bands overlap.  radius is the rows'
    _radius, if the caller has it."""
    cut = tol * (_radius(values) if radius is None else radius)
    positive = (values > cut).sum(axis=1)
    negative = (values < -cut).sum(axis=1)
    zero = values.shape[1] - positive - negative
    if (zero < 0).any():
        raise ValueError("inertia counts must be nonnegative")
    return np.stack([positive, negative, zero], axis=1)


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
    cut = _product_cut(_radius(spec_a), _radius(spec_b), tol)
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
    cut = _product_cut(_radius(spec_a), _radius(spec_b), tol)
    positives = [i for i, v in enumerate(spec_ab, start=1) if v > cut]
    negatives = [i for i, v in enumerate(spec_ab, start=1) if v < -cut]
    if not positives or not negatives:
        raise NoSignChange("product spectrum has no positive/negative pair")
    p = positives[-1]
    q = negatives[0]
    cut_a = zero_cut(spec_a, tol)
    if spec_a[p - 1] <= -cut_a or spec_a[q - 1] >= cut_a:
        raise _sign_mismatch(p, q, spec_a[p - 1], spec_a[q - 1])
    gap = spec_ab[p - 1] - spec_ab[q - 1]
    bound = (spec_a[p - 1] - spec_a[q - 1]) * spec_b[0]
    return p, q, gap, bound


def _sign_mismatch(p: int, q: int, a_p: float, a_q: float) -> ConsistencyError:
    return ConsistencyError(
        "factor eigenvalues at the gap indices do not have the signs "
        f"the product guarantees: a[{p}]={a_p:.6g}, a[{q}]={a_q:.6g}"
    )


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


class SelectionIndex(NamedTuple):
    """Selections as the index arrays the batch functions gather with.

    Position by selection: either (n, S) arrays, when every instance of a
    stack checks the same S selections, or (m, n, S), one set of S per
    instance; sizes are (S,) or (m, S).  Selections run along the last axis,
    so the pairing sums add whole contiguous rows (_row_sums).  Built once
    per set of selections (selection_index).  Position t of a selection of
    size k is live for t < k; pos and prefix read index n elsewhere, the 0.0
    that _padded appends to each spectrum.
    """

    pos: np.ndarray  # the 0-based selected indices
    prefix: np.ndarray  # t: the first k positions of the spectrum
    ks: np.ndarray  # sizes
    live: np.ndarray  # t < k
    late: np.ndarray  # n - k + t, at most n - 1: the pairing b[n-k+t]
    early: np.ndarray  # k - 1 - t, at least 0: the pairing b[k-1-t]


def selection_index(
    selections: Sequence[Sequence[int]], n: int, m: int | None = None
) -> SelectionIndex:
    """The SelectionIndex of selections of 1-based indices in 1..n.

    With m, the selections are m instances' lists of equal length, one after
    another, and the index has one set per instance.
    """
    ks = np.fromiter(map(len, selections), dtype=np.intp, count=len(selections))
    t = np.arange(n)[:, None]
    k = np.arange(n + 1)
    # Every array but pos depends on the size alone: one table column per size.
    live = t < k
    early = np.maximum(k - 1 - t, 0)

    def by_size(table):
        return np.take(table, ks, axis=1)

    live_rows = by_size(live)
    pos = np.full(live_rows.shape, n)
    pos.T[live_rows.T] = np.fromiter(chain.from_iterable(selections), dtype=np.intp) - 1
    index = SelectionIndex(
        pos=pos,
        prefix=by_size(np.where(live, t, n)),
        ks=ks,
        live=live_rows,
        late=by_size((n - 1) - early),
        early=by_size(early),
    )
    if m is None:
        return index
    # (n, m * S) regrouped as (m, n, S), and the sizes as (m, S).
    return SelectionIndex(
        *(
            np.ascontiguousarray(np.moveaxis(x.reshape(n, m, -1), 0, 1)) if x.ndim == 2
            else x.reshape(m, -1)
            for x in index
        )
    )


class SelectionBoundsBatch(NamedTuple):
    """selection_bounds of S selections of m instances, one (m, S) array entry
    per selection, plus the both-PSD (kap = k) and stable (kap = 0) brackets
    the reductions use."""

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
    a: np.ndarray,
    b: np.ndarray,
    index: SelectionIndex,
    tol: float = TOL_CLASS,
    radius=None,
) -> SelectionBoundsBatch:
    """selection_bounds, psd_product_bounds and stable_bounds of a stack.

    a and b are (m, n) arrays, one spectrum per row (b is clamped here, as
    the scalar functions clamp it).  Every sum adds the terms of the scalar
    formula in the same order (_row_sums), so each entry equals the scalar
    result for that instance and selection bit for bit.  radius is a's
    _radius, if the caller has it.
    """
    _require_same_shape(a, b)
    n = a.shape[1]
    b = np.where(b < 0.0, 0.0, b)
    sel = selected_values(a, index)
    cut = tol * (_radius(a) if radius is None else radius)
    kap = (index.live & (sel >= -cut[..., None])).sum(axis=-2)
    nu = n - (a < -cut).sum(axis=1)
    head = np.arange(n)[:, None] < kap[:, None, :]
    tail = index.live & ~head
    late = _take(b, index.late)
    # The eight pairing rows, written into one buffer: the four products of
    # _bracket (sel against b[n-1-t], b[t], b[k-1-t] and b[n-k+t]) and the
    # main and T1 pairings spliced from them at kap.  sel is 0.0 outside each
    # selection and b is finite, so the products are too.  The buffer is
    # position-major, so _row_sums adds one contiguous slab per position.
    terms = np.moveaxis(np.empty((n, 8) + kap.shape), 0, -2)
    lower, upper, t1, first, bottom, top, early, late_terms = terms
    np.multiply(sel, b[:, ::-1, None], out=bottom)
    np.multiply(sel, b[:, :, None], out=top)
    np.multiply(sel, _take(b, index.early), out=early)
    np.multiply(sel, late, out=late_terms)
    np.copyto(lower, early)
    np.copyto(lower, bottom, where=head)
    np.copyto(upper, late_terms)
    np.copyto(upper, top, where=head)
    t1.fill(0.0)
    np.copyto(t1, late_terms, where=tail)
    first.fill(0.0)
    np.copyto(first, top, where=head)
    sums = _row_sums(terms)
    # The splitting bound's second summation: a[u] against b[n-k+u] for
    # nu <= u < k, added onto the same running total as its first kap terms.
    # Columns below an instance's own nu add 0.0, which changes no total.
    low = int(nu.min())
    u = np.arange(low, n)[:, None]
    use = (u >= nu[:, None, None]) & (u < index.ks[..., None, :])
    rest = np.where(use, a[:, low:, None] * late[..., low:, :], 0.0)
    return SelectionBoundsBatch(
        lower=sums[0],
        upper=sums[1],
        kap=kap,
        split_upper=_row_sums(rest, sums[3]),
        t1=sums[2],
        t2=_row_sums(rest),
        psd_lower=sums[4],
        psd_upper=sums[5],
        stable_lower=sums[6],
        stable_upper=sums[7],
    )


def wielandt_sum_bounds_batch(
    a: np.ndarray, b: np.ndarray, index: SelectionIndex, base=None
) -> tuple[np.ndarray, np.ndarray]:
    """wielandt_sum_bounds of a stack (see selection_bounds_batch).  base is
    selected_sums(a, index), if the caller has it."""
    _require_same_shape(a, b)
    if base is None:
        base = selected_sums(a, index)
    return (
        _row_sums(_take(_padded(b[:, ::-1]), index.prefix), base),
        _row_sums(_take(_padded(b), index.prefix), base),
    )


def trace_bounds_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """trace_bounds of each instance of a stack: (lower, upper), each (m,)."""
    _require_same_shape(a, b)
    return _row_sums((a * b[:, ::-1])[:, :, None])[:, 0], _row_sums((a * b)[:, :, None])[:, 0]


def gap_bound_batch(
    a: np.ndarray, b: np.ndarray, ab: np.ndarray, radii, tol: float = TOL_CLASS
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, ConsistencyError]]:
    """gap_bound of each instance of a stack: (applies, gap, bound, errors).

    applies marks the instances gap_bound returns for; gap and bound are
    (m,) arrays, read only there.  An instance whose product spectrum is
    one-signed (NoSignChange) does not apply; one for which gap_bound raises
    ConsistencyError does not either, and errors maps it to that error.
    radii is the _radius of a and of b.
    """
    rows = np.arange(len(a))
    n = a.shape[1]
    rho_a, rho_b = radii
    cut = _product_cut(rho_a, rho_b, tol)
    positive, negative = ab > cut, ab < -cut
    signed = positive.any(axis=1) & negative.any(axis=1)
    p = n - 1 - np.argmax(positive[:, ::-1], axis=1)
    q = np.argmax(negative, axis=1)
    cut_a = tol * rho_a[:, 0]
    a_p, a_q = a[rows, p], a[rows, q]
    wrong = signed & ((a_p <= -cut_a) | (a_q >= cut_a))
    errors = {
        i: _sign_mismatch(int(p[i]) + 1, int(q[i]) + 1, float(a_p[i]), float(a_q[i]))
        for i in np.flatnonzero(wrong).tolist()
    }
    return signed & ~wrong, ab[rows, p] - ab[rows, q], (a_p - a_q) * b[:, 0], errors


class OstrowskiBatch(NamedTuple):
    """ostrowski_ratios of each instance of a stack, reduced as the check
    reports them; each field is (m,) and read only where applies."""

    applies: np.ndarray  # B positive definite and some ratio reported
    low: np.ndarray
    high: np.ndarray
    offender: np.ndarray  # the ratio nearest a bound
    worst_low: np.ndarray  # min over the ratios of ratio - low
    worst_high: np.ndarray  # min over the ratios of high - ratio


def ostrowski_batch(
    a: np.ndarray, ab: np.ndarray, b: np.ndarray, radii, tol: float = TOL_CLASS
) -> OstrowskiBatch:
    """The Ostrowski check's values for a stack: what Python's min gives over
    each instance's ratios, the first of equal values included.

    A reported ratio divides a finite value by one above the zero cut, so
    it is finite or infinite but never NaN, and neither are its distances
    to the finite bounds; each minimum is then the entry np.argmin finds
    first among the reported ratios (the others read +inf there).  radii is
    the _radius of a and of b.
    """
    rows = np.arange(len(a))
    low, high = b[:, -1], b[:, 0]
    rho_a, rho_b = radii
    used = np.abs(a) > tol * rho_a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = ab / a
        to_low = np.where(used, ratios - low[:, None], np.inf)
        to_high = np.where(used, high[:, None] - ratios, np.inf)
    nearest = np.where(to_high < to_low, to_high, to_low)
    return OstrowskiBatch(
        applies=(low > tol * rho_b[:, 0]) & used.any(axis=1),
        low=low,
        high=high,
        offender=ratios[rows, np.argmin(nearest, axis=1)],
        worst_low=to_low[rows, np.argmin(to_low, axis=1)],
        worst_high=to_high[rows, np.argmin(to_high, axis=1)],
    )


def selected_values(values: np.ndarray, index: SelectionIndex) -> np.ndarray:
    """(m, n, S): each selection's spectrum values, in its first positions, 0.0 after them."""
    return _take(_padded(values), index.pos)


def selected_sums(values: np.ndarray, index: SelectionIndex) -> np.ndarray:
    """selected_sum of every selection of a stack, (m, S) (see selection_bounds_batch)."""
    if index.pos.shape[-2] != values.shape[-1]:
        raise IndexOutOfRange(
            f"index sequence is for dimension {index.pos.shape[-2]}, "
            f"spectrum has {values.shape[-1]}"
        )
    return _row_sums(selected_values(values, index))


def _row_sums(terms: np.ndarray, start=0.0) -> np.ndarray:
    """The batched pairing kernel: sums over the position axis of terms
    (..., n, S), added position by position, left to right, onto start,
    exactly as _pair_sum adds.  Gives (..., S).

    Terms outside a selection must be zero.  Adding 0.0 leaves a running
    total unchanged unless the total is -0.0, which a sum started from
    +0.0 (or from such a sum) never is.
    """
    total = np.empty(terms.shape[:-2] + terms.shape[-1:])
    total[...] = start
    for t in range(terms.shape[-2]):
        total += terms[..., t, :]
    return total


def _padded(values: np.ndarray) -> np.ndarray:
    """values (m, n) with a column of 0.0 appended, read at index n."""
    return np.concatenate((values, np.zeros((len(values), 1))), axis=1)


def _take(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """values (m, n) gathered along each row at idx: (n, S) indices shared by
    every row, or (m, n, S) with one set per row.  Gives (m, n, S)."""
    if idx.ndim == 2:
        return np.take(values, idx, axis=1)
    return np.take_along_axis(values[:, :, None], idx, axis=1)


def _selected(spec: Spectrum, idx: IndexSequence) -> tuple[float, ...]:
    return tuple(spec[i - 1] for i in idx.indices)


def _clamped(spec: Spectrum) -> tuple[float, ...]:
    return tuple(max(v, 0.0) for v in spec.values)


def _radius(spec):
    """max(|first|, |last|) as Python's max picks it (the last only if it is
    larger): a float for a Spectrum, an (m, 1) column for an (m, n) array."""
    if isinstance(spec, np.ndarray):
        first, last = np.abs(spec[:, :1]), np.abs(spec[:, -1:])
        return np.where(last > first, last, first)
    return max(abs(spec[0]), abs(spec[-1]))


def _require_same_dim(spec_a: Spectrum, spec_b: Spectrum) -> None:
    if len(spec_a) != len(spec_b):
        raise DimensionMismatch(
            f"spectra have different lengths: {len(spec_a)} vs {len(spec_b)}"
        )


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatch(f"spectra have different lengths: {a.shape[-1]} vs {b.shape[-1]}")


def _require_indexable(spec: Spectrum, idx: IndexSequence) -> None:
    if idx.n != len(spec):
        raise IndexOutOfRange(
            f"index sequence is for dimension {idx.n}, spectrum has {len(spec)}"
        )
