"""Eigenvalue-sum bound formulas over spectra and index sequences.

Everything here is a pure function of sorted spectra: the selected-index
bounds for the product of a Hermitian matrix with a PSD matrix, their
reductions for one-signed spectra, the splitting-based upper bound and
its dominance comparison, the two-eigenvalue and gap corollaries, the
Ostrowski ratio check, and the classical sum/trace baselines they refine.

All indices on the public surface are 1-based.  Summations over an empty
range contribute zero, and a spectrum value counts as nonnegative when it
is within the relative classification tolerance of zero.

Each formula is written once, for stacks: m same-n spectra as an (m, n)
array, one descending row per instance, against a SelectionIndex (the
*_batch functions, selected_sums and inertia_counts).  Every pairing sum
adds its terms one position at a time, left to right (_row_sums).  The
functions on Spectrum objects (selection_bounds, gap_bound, ...) run that
code on a stack of one instance and one selection, raise where it has no
answer, and return Python numbers; overflow gives inf there silently, as
in Python floats.  zero_cut and verify_tolerance accept a Spectrum, or an
(m, n) array and then give one value per row, as an (m, 1) column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


def _verify_tolerance(rho_a, rho_b, k, base: float):
    """verify_tolerance from the spectral radii (_radius) of A and B, for a
    caller that computes each radius once for many checks."""
    return base * (1.0 + rho_a * rho_b * k)


@np.errstate(over="ignore", invalid="ignore")
def inertia_of(spec: Spectrum, tol: float = TOL_CLASS) -> Inertia:
    """Count positive/negative/zero eigenvalues with a relative zero band."""
    (values,) = _rows(spec)
    return Inertia(*inertia_counts(values, tol)[0].tolist())


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


@np.errstate(over="ignore", invalid="ignore")
def count_selected_nonnegative(spec: Spectrum, idx: IndexSequence, tol: float = TOL_CLASS) -> int:
    """How many selected eigenvalues are nonnegative (within tolerance).

    The spectrum is sorted, so these occupy the first positions of the
    selection.
    """
    (values,) = _rows(spec)
    index = _index(idx, values)
    return _kap(selected_values(values, index), index, zero_cut(values, tol))[0, 0].item()


@np.errstate(over="ignore", invalid="ignore")
def selected_sum(spec: Spectrum, idx: IndexSequence) -> float:
    """Sum of the selected eigenvalues."""
    (values,) = _rows(spec)
    return selected_sums(values, _index(idx, values))[0, 0].item()


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


@np.errstate(over="ignore", invalid="ignore")
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
    a, b = _rows(spec_a, spec_b)
    sums = selection_bounds_batch(a, b, _index(idx, a), tol)
    return SelectionBounds(*(x[0, 0].item() for x in sums[:6]))


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


@np.errstate(over="ignore", invalid="ignore")
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
    a, b = _rows(spec_a, spec_b)
    index = _index(idx, a)
    if a[0, -1] < -zero_cut(a, tol)[0, 0]:
        raise NotNonnegative(f"spectrum has negative entry {spec_a[-1]:.6g}")
    sums = selection_bounds_batch(a, b, index, tol)
    return sums.psd_lower[0, 0].item(), sums.psd_upper[0, 0].item()


@np.errstate(over="ignore", invalid="ignore")
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
    a, b = _rows(spec_a, spec_b)
    index = _index(idx, a)
    if a[0, 0] > zero_cut(a, tol)[0, 0]:
        raise NotStable(f"spectrum has positive entry {spec_a[0]:.6g}")
    sums = selection_bounds_batch(a, b, index, tol)
    return sums.stable_lower[0, 0].item(), sums.stable_upper[0, 0].item()


@np.errstate(over="ignore", invalid="ignore")
def wielandt_sum_bounds(
    spec_a: Spectrum,
    spec_b: Spectrum,
    idx: IndexSequence,
) -> tuple[float, float]:
    """Classical bracket for the selected eigenvalue sum of A + B (both Hermitian)."""
    a, b = _rows(spec_a, spec_b)
    lower, upper = wielandt_sum_bounds_batch(a, b, _index(idx, a))
    return lower[0, 0].item(), upper[0, 0].item()


@np.errstate(over="ignore", invalid="ignore")
def trace_bounds(spec_a: Spectrum, spec_b: Spectrum) -> tuple[float, float]:
    """Full-trace bracket: sorted-against-reversed and sorted-against-sorted pairings."""
    lower, upper = trace_bounds_batch(*_rows(spec_a, spec_b))
    return lower[0].item(), upper[0].item()


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


@np.errstate(over="ignore", invalid="ignore")
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
    a, b, ab = _rows(spec_a, spec_b, spec_ab)
    gap = gap_bound_batch(a, b, ab, tol=tol)
    if gap.errors:
        raise gap.errors[0]
    if not gap.applies[0]:
        raise NoSignChange("product spectrum has no positive/negative pair")
    return gap.p[0].item(), gap.q[0].item(), gap.gap[0].item(), gap.bound[0].item()


def _sign_mismatch(p: int, q: int, a_p: float, a_q: float) -> ConsistencyError:
    return ConsistencyError(
        "factor eigenvalues at the gap indices do not have the signs "
        f"the product guarantees: a[{p}]={a_p:.6g}, a[{q}]={a_q:.6g}"
    )


@np.errstate(over="ignore", invalid="ignore")
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
    a, b, ab = _rows(spec_a, spec_b, spec_ab)
    ost = ostrowski_batch(a, ab, b, tol=tol)
    if not ost.definite[0]:
        raise NotPositiveDefinite(
            f"smallest eigenvalue of B is {spec_b[-1]:.6g}, not strictly positive"
        )
    ratios = zip(range(1, a.shape[1] + 1), ost.ratios[0].tolist(), ost.used[0].tolist())
    return OstrowskiReport(
        ratios=tuple((t, ratio) for t, ratio, used in ratios if used),
        low=ost.low[0].item(),
        high=ost.high[0].item(),
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
    the reductions use, and each instance's inertia (inertia_counts), from
    which nu comes."""

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
    inertia: np.ndarray


def selection_bounds_batch(
    a: np.ndarray,
    b: np.ndarray,
    index: SelectionIndex,
    tol: float = TOL_CLASS,
    radius=None,
    sel=None,
) -> SelectionBoundsBatch:
    """selection_bounds, psd_product_bounds and stable_bounds of a stack.

    a and b are (m, n) arrays, one spectrum per row; b is clamped to
    nonnegative values here.  Every sum adds the terms of its formula in
    order, one position at a time (_row_sums).  radius is a's _radius and
    sel its selected_values, if the caller has them.
    """
    _require_same_shape(a, b)
    n = a.shape[1]
    b = np.where(b < 0.0, 0.0, b)
    if radius is None:
        radius = _radius(a)
    if sel is None:
        sel = selected_values(a, index)
    kap = _kap(sel, index, tol * radius)
    inertia = inertia_counts(a, tol, radius)
    nu = n - inertia[:, 1]
    head = np.arange(n)[:, None] < kap[:, None, :]
    tail = index.live & ~head
    late = _take(b, index.late)
    # The eight pairing rows, written into one buffer: the four products of
    # the both-PSD and stable brackets (sel against b[n-1-t], b[t], b[k-1-t]
    # and b[n-k+t]) and the main and T1 pairings spliced from them at kap.
    # sel is 0.0 outside each selection and b is finite, so the products
    # are too.  The buffer is position-major, so _row_sums adds one
    # contiguous slab per position.
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
        inertia=inertia,
    )


def _kap(sel: np.ndarray, index: SelectionIndex, cut: np.ndarray) -> np.ndarray:
    """count_selected_nonnegative of each selection, (m, S), from the
    selected_values and each row's zero_cut, (m, 1)."""
    return (index.live & (sel >= -cut[..., None])).sum(axis=-2)


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


class GapBoundBatch(NamedTuple):
    """gap_bound of each instance of a stack; each array is (m,) and read
    only where applies."""

    applies: np.ndarray  # gap_bound returns (the product spectrum has both signs)
    p: np.ndarray  # 1-based
    q: np.ndarray
    gap: np.ndarray
    bound: np.ndarray
    # The instances for which gap_bound raises ConsistencyError; those that
    # neither apply nor have an error are one-signed (NoSignChange).
    errors: dict[int, ConsistencyError]


def gap_bound_batch(
    a: np.ndarray, b: np.ndarray, ab: np.ndarray, radii=None, tol: float = TOL_CLASS
) -> GapBoundBatch:
    """gap_bound of each instance of a stack.  radii is the _radius of a and
    of b, if the caller has them."""
    rows = np.arange(len(a))
    n = a.shape[1]
    rho_a, rho_b = (_radius(a), _radius(b)) if radii is None else radii
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
    return GapBoundBatch(
        applies=signed & ~wrong,
        p=p + 1,
        q=q + 1,
        gap=ab[rows, p] - ab[rows, q],
        bound=(a_p - a_q) * b[:, 0],
        errors=errors,
    )


class OstrowskiBatch(NamedTuple):
    """ostrowski_ratios of each instance of a stack, and the values the
    check reports; each field is (m,), or (m, n) by position t."""

    definite: np.ndarray  # B positive definite (else NotPositiveDefinite)
    low: np.ndarray
    high: np.ndarray
    ratios: np.ndarray  # (m, n): ab / a, reported where used
    used: np.ndarray  # (m, n): a beyond the zero cut
    offender: np.ndarray  # the reported ratio nearest a bound
    worst_low: np.ndarray  # min over the reported ratios of ratio - low
    worst_high: np.ndarray  # min over the reported ratios of high - ratio


def ostrowski_batch(
    a: np.ndarray, ab: np.ndarray, b: np.ndarray, radii=None, tol: float = TOL_CLASS
) -> OstrowskiBatch:
    """The Ostrowski ratios of a stack, and what Python's min gives over
    each instance's reported ratios, the first of equal values included.

    A reported ratio divides a finite value by one above the zero cut, so
    it is finite or infinite but never NaN, and neither are its distances
    to the finite bounds; each minimum is then the entry np.argmin finds
    first among the reported ratios (the others read +inf there).  radii is
    the _radius of a and of b, if the caller has them.
    """
    rows = np.arange(len(a))
    low, high = b[:, -1], b[:, 0]
    rho_a, rho_b = (_radius(a), _radius(b)) if radii is None else radii
    used = np.abs(a) > tol * rho_a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = ab / a
        to_low = np.where(used, ratios - low[:, None], np.inf)
        to_high = np.where(used, high[:, None] - ratios, np.inf)
    nearest = np.where(to_high < to_low, to_high, to_low)
    return OstrowskiBatch(
        definite=low > tol * rho_b[:, 0],
        low=low,
        high=high,
        ratios=ratios,
        used=used,
        offender=ratios[rows, np.argmin(nearest, axis=1)],
        worst_low=to_low[rows, np.argmin(to_low, axis=1)],
        worst_high=to_high[rows, np.argmin(to_high, axis=1)],
    )


def selected_values(values: np.ndarray, index: SelectionIndex) -> np.ndarray:
    """(m, n, S): each selection's spectrum values, in its first positions, 0.0 after them."""
    return _take(_padded(values), index.pos)


def selected_sums(values: np.ndarray, index: SelectionIndex) -> np.ndarray:
    """selected_sum of every selection of a stack, (m, S) (see selection_bounds_batch)."""
    _require_indexable(values, index.pos.shape[-2])
    return _row_sums(selected_values(values, index))


def _row_sums(terms: np.ndarray, start=0.0) -> np.ndarray:
    """The pairing kernel: sums over the position axis of terms (..., n, S),
    added position by position, left to right, onto start.  Gives (..., S).

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


def _rows(*specs: Spectrum) -> list[np.ndarray]:
    """Each spectrum as a stack of one instance, (1, n); DimensionMismatch
    unless every one has the length of the first (checked in turn)."""
    for spec in specs[1:]:
        _require_same_dim(specs[0], spec)
    return [np.array([spec.values]) for spec in specs]


def _index(idx: IndexSequence, values: np.ndarray) -> SelectionIndex:
    """The SelectionIndex of one selection, for a stack of spectra of its dimension."""
    _require_indexable(values, idx.n)
    return selection_index([idx.indices], idx.n)


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


def _require_indexable(values: np.ndarray, n: int) -> None:
    """IndexOutOfRange unless spectra values (..., length) fit selections of 1..n."""
    if n != values.shape[-1]:
        raise IndexOutOfRange(
            f"index sequence is for dimension {n}, spectrum has {values.shape[-1]}"
        )
