"""Scalar reference for eigb's bound formulas and checks, and a reference
eigensolver, for the tests.

Every bound function here works on Python floats, one term at a time: each
pairing sum is accumulated left to right from 0.0 (pair_sum), as the
formulas are written in eigb.bounds.  eigb computes each of them once, as
numpy batch code over stacks of spectra; the tests hold that code, and the
functions on Spectrum objects built on it, to this reference bit for bit,
with the same errors, raised in the same order.  run_checks is the
reference for one record of eigb.harness.check_selections.

jacobi_eig is the reference eigensolver for eigb.linalg.hermitian_eig: a
cyclic complex Jacobi solver, which shares no algorithm with LAPACK.  Its
stopping test is normwise (the off-diagonal mass relative to ||A||_F), so
the comparison it supports is normwise too: it resolves each eigenvalue to
about JACOBI_TOL * ||A||_F, and a small eigenvalue of a graded matrix to no
better relative accuracy than LAPACK's.
"""

from functools import reduce
from math import sqrt
from operator import add

import numpy as np

from eigb.bounds import (
    BoundReport,
    IndexSequence,
    Inertia,
    OstrowskiReport,
    SelectionBounds,
    TOL_CLASS,
    TOL_VERIFY_BASE,
    _sign_mismatch,
)
from eigb.errors import (
    DimensionMismatch,
    EigbError,
    IndexOutOfRange,
    NoConvergence,
    NoSignChange,
    NotNonnegative,
    NotPositiveDefinite,
    NotStable,
)
from eigb.harness import CheckResult, Tolerances, VerificationRecord
from eigb.linalg import (
    EigenDecomposition,
    HermitianMatrix,
    Spectrum,
    _decomposition,
    _finish_eig,
    _unit_scaled,
)

# Cyclic Jacobi: off-diagonal Frobenius target relative to ||A||_F, sweep cap.
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 60


def pair_sum(xs, ys) -> float:
    """The pairing kernel: sum of xs[t] * ys[t], accumulated left to right."""
    total = 0.0
    for x, y in zip(xs, ys, strict=True):
        total += x * y
    return total


def bracket(sel, b, kap: int) -> tuple[float, float]:
    """(lower, upper) pairing sel with reversed b / b in the pattern b[:kap] + b[n-k+kap:].

    kap = k gives the both-PSD bracket, kap = 0 the stable one, and
    sel = a with kap = k = n the trace one.
    """
    n, k = len(b), len(sel)
    rev = b[::-1]
    return (
        pair_sum(sel, rev[:kap] + rev[n - k + kap:]),
        pair_sum(sel, b[:kap] + b[n - k + kap:]),
    )


def selected(spec: Spectrum, idx: IndexSequence) -> tuple[float, ...]:
    return tuple(spec[i - 1] for i in idx.indices)


def clamped(spec: Spectrum) -> tuple[float, ...]:
    return tuple(max(v, 0.0) for v in spec.values)


def radius(spec: Spectrum) -> float:
    return max(abs(spec[0]), abs(spec[-1]))


def zero_cut(spec: Spectrum, tol: float = TOL_CLASS) -> float:
    return tol * radius(spec)


def verify_tolerance(spec_a, spec_b, k, base=TOL_VERIFY_BASE) -> float:
    return base * (1.0 + radius(spec_a) * radius(spec_b) * k)


def ratio_tolerance(spec_b, base=TOL_VERIFY_BASE) -> float:
    """The Ostrowski ratios' tolerance: they are bracketed by the spectrum of B."""
    return base * (1.0 + radius(spec_b))


def sum_tolerance(spec_a, spec_b, k, base=TOL_VERIFY_BASE) -> float:
    """The A + B bracket's tolerance: it sums k terms of A and of B."""
    return base * (1.0 + (radius(spec_a) + radius(spec_b)) * k)


def require_same_dim(spec_a: Spectrum, spec_b: Spectrum) -> None:
    if len(spec_a) != len(spec_b):
        raise DimensionMismatch(
            f"spectra have different lengths: {len(spec_a)} vs {len(spec_b)}"
        )


def require_indexable(spec: Spectrum, idx: IndexSequence) -> None:
    if idx.n != len(spec):
        raise IndexOutOfRange(
            f"index sequence is for dimension {idx.n}, spectrum has {len(spec)}"
        )


def inertia_of(spec: Spectrum, tol: float = TOL_CLASS) -> Inertia:
    cut = zero_cut(spec, tol)
    positive = sum(1 for v in spec if v > cut)
    negative = sum(1 for v in spec if v < -cut)
    return Inertia(positive=positive, negative=negative, zero=len(spec) - positive - negative)


def count_selected_nonnegative(spec, idx, tol=TOL_CLASS) -> int:
    require_indexable(spec, idx)
    cut = zero_cut(spec, tol)
    return sum(1 for i in idx.indices if spec[i - 1] >= -cut)


def selected_sum(spec: Spectrum, idx: IndexSequence) -> float:
    require_indexable(spec, idx)
    return reduce(add, selected(spec, idx), 0.0)


def selection_bounds(spec_a, spec_b, idx, tol=TOL_CLASS) -> SelectionBounds:
    require_same_dim(spec_a, spec_b)
    require_indexable(spec_a, idx)
    n, k = idx.n, idx.k
    sel = selected(spec_a, idx)
    b = clamped(spec_b)
    kap = count_selected_nonnegative(spec_a, idx, tol)
    nu = inertia_of(spec_a, tol).nonnegative
    # The splitting bound's second summation: a[nu+1..k] against b[n-k+nu+1..n].
    rest_a, rest_b = spec_a.values[nu:k], b[n - k + nu:]
    lower, upper = bracket(sel, b, kap)
    split_upper = pair_sum(sel[:kap] + rest_a, b[:kap] + rest_b)
    t1 = pair_sum(sel[kap:], b[n - k + kap:])
    return SelectionBounds(lower, upper, kap, split_upper, t1, pair_sum(rest_a, rest_b))


def main_bounds(spec_a, spec_b, idx, tol=TOL_CLASS) -> tuple[float, float, int]:
    return selection_bounds(spec_a, spec_b, idx, tol)[:3]


def main_bound_report(spec_a, spec_b, spec_ab, idx, tol=TOL_CLASS) -> BoundReport:
    lower, upper, kap = main_bounds(spec_a, spec_b, idx, tol)
    actual = selected_sum(spec_ab, idx)
    if kap == idx.k:
        branch = "all-selected-nonnegative"
    elif kap == 0:
        branch = "all-selected-negative"
    else:
        branch = "mixed-selection"
    return BoundReport(lower, upper, actual, kap, actual - lower, upper - actual, branch)


def psd_product_bounds(spec_a, spec_b, idx, tol=TOL_CLASS) -> tuple[float, float]:
    require_same_dim(spec_a, spec_b)
    require_indexable(spec_a, idx)
    if spec_a[-1] < -zero_cut(spec_a, tol):
        raise NotNonnegative(f"spectrum has negative entry {spec_a[-1]:.6g}")
    return bracket(selected(spec_a, idx), clamped(spec_b), idx.k)


def stable_bounds(spec_a, spec_b, idx, tol=TOL_CLASS) -> tuple[float, float]:
    require_same_dim(spec_a, spec_b)
    require_indexable(spec_a, idx)
    if spec_a[0] > zero_cut(spec_a, tol):
        raise NotStable(f"spectrum has positive entry {spec_a[0]:.6g}")
    return bracket(selected(spec_a, idx), clamped(spec_b), 0)


def wielandt_sum_bounds(spec_a, spec_b, idx) -> tuple[float, float]:
    require_same_dim(spec_a, spec_b)
    require_indexable(spec_a, idx)
    b = spec_b.values
    base = selected_sum(spec_a, idx)
    return reduce(add, b[::-1][:idx.k], base), reduce(add, b[:idx.k], base)


def trace_bounds(spec_a, spec_b) -> tuple[float, float]:
    require_same_dim(spec_a, spec_b)
    return bracket(spec_a.values, spec_b.values, len(spec_a))


def gap_bound(spec_a, spec_b, spec_ab, tol=TOL_CLASS) -> tuple[int, int, float, float]:
    require_same_dim(spec_a, spec_b)
    require_same_dim(spec_a, spec_ab)
    cut = tol * radius(spec_a) * radius(spec_b)
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


def ostrowski_ratios(spec_a, spec_ab, spec_b, tol=TOL_CLASS) -> OstrowskiReport:
    require_same_dim(spec_a, spec_b)
    require_same_dim(spec_a, spec_ab)
    if spec_b[-1] <= zero_cut(spec_b, tol):
        raise NotPositiveDefinite(
            f"smallest eigenvalue of B is {spec_b[-1]:.6g}, not strictly positive"
        )
    cut_a = zero_cut(spec_a, tol)
    ratios = tuple(
        (t, spec_ab[t - 1] / v) for t, v in enumerate(spec_a, start=1) if abs(v) > cut_a
    )
    return OstrowskiReport(ratios=ratios, low=spec_b[-1], high=spec_b[0])


def _bracket_check(name, lower, actual, upper, tol):
    lo_slack = actual - lower
    up_slack = upper - actual
    return CheckResult(
        name=name,
        actual=actual,
        lower=lower,
        upper=upper,
        lower_slack=lo_slack,
        upper_slack=up_slack,
        passed=lo_slack >= -tol and up_slack >= -tol,
    )


def _upper_check(name, actual, upper, tol, detail=""):
    slack = upper - actual
    return CheckResult(
        name=name,
        actual=actual,
        upper=upper,
        upper_slack=slack,
        passed=slack >= -tol,
        detail=detail,
    )


def run_checks(sp, idx, tol=Tolerances(), instance_id=0, seed=0):
    """The record of one selection of the one instance of a SpectraStack,
    check by check on Python floats through the formulas above."""
    spec_a, spec_b, spec_b_raw, spec_ab, spec_sum = (Spectrum(s[0].tolist()) for s in sp[:5])
    trace_product, norm_scale = sp.trace_product[0].item(), 1.0 + sp.norm_product[0].item()
    checks = []
    n, k = idx.n, idx.k
    sums = selection_bounds(spec_a, spec_b, idx, tol.tol_class)
    lower, upper = sums.lower, sums.upper
    inertia = inertia_of(spec_a, tol.tol_class)
    tau = verify_tolerance(spec_a, spec_b, k, tol.verify_base)

    try:
        actual = selected_sum(spec_ab, idx)
        checks.append(_bracket_check("main-bounds", lower, actual, upper, tau))
        checks.append(_upper_check("dominance", sums.t1, sums.t2, tau))
        if inertia.negative == 0:
            red_lo, red_up = psd_product_bounds(spec_a, spec_b, idx, tol.tol_class)
            diff = max(abs(red_lo - lower), abs(red_up - upper))
            checks.append(_upper_check("reduction-psd", diff, 0.0, 0.0, detail="exact identity"))
        if inertia.positive == 0:
            cut = zero_cut(spec_a, tol.tol_class)
            near_zero = [spec_a[i - 1] for i in idx.indices if spec_a[i - 1] >= -cut]
            if all(v == 0.0 for v in near_zero):
                red_lo, red_up = stable_bounds(spec_a, spec_b, idx, tol.tol_class)
                diff = max(abs(red_lo - lower), abs(red_up - upper))
                checks.append(
                    _upper_check("reduction-stable", diff, 0.0, 0.0, detail="exact identity")
                )

        if k == n:
            tr_lo, tr_up = trace_bounds(spec_a, spec_b)
            agreement = abs(trace_product - spec_ab.sum())
            checks.append(_bracket_check("trace-bracket", tr_lo, trace_product, tr_up, tau))
            checks.append(_upper_check("trace-consistency", agreement, 1e-9 * norm_scale, 0.0))

        try:
            _, _, gap, bound = gap_bound(spec_a, spec_b, spec_ab, tol.tol_class)
            checks.append(_upper_check("gap", gap, bound, tau))
        except NoSignChange:
            pass

        try:
            rep = ostrowski_ratios(spec_a, spec_ab, spec_b, tol.tol_class)
        except NotPositiveDefinite:
            rep = None
        if rep is not None and rep.ratios:
            worst_low = min(r - rep.low for _, r in rep.ratios)
            worst_high = min(rep.high - r for _, r in rep.ratios)
            offender = min(rep.ratios, key=lambda tr: min(tr[1] - rep.low, rep.high - tr[1]))
            tau_ratio = ratio_tolerance(spec_b, tol.verify_base)
            checks.append(
                CheckResult(
                    name="ostrowski",
                    actual=offender[1],
                    lower=rep.low,
                    upper=rep.high,
                    lower_slack=worst_low,
                    upper_slack=worst_high,
                    passed=worst_low >= -tau_ratio and worst_high >= -tau_ratio,
                )
            )

        w_lo, w_up = wielandt_sum_bounds(spec_a, spec_b_raw, idx)
        w_actual = selected_sum(spec_sum, idx)
        tau_sum = sum_tolerance(spec_a, spec_b, k, tol.verify_base)
        checks.append(_bracket_check("wielandt", w_lo, w_actual, w_up, tau_sum))
    except EigbError as exc:
        checks.append(
            CheckResult(
                name="computation", actual=0.0, passed=False, detail=f"{type(exc).__name__}: {exc}"
            )
        )

    return VerificationRecord(
        instance_id=instance_id,
        seed=seed,
        n=n,
        indices=idx.indices,
        selected_nonneg=sums.kap,
        inertia=inertia.as_tuple(),
        checks=tuple(checks),
    )


def jacobi_eig(a: HermitianMatrix) -> EigenDecomposition:
    """Full eigendecomposition by cyclic complex Jacobi rotations.

    Sweeps annihilate every off-diagonal pair in turn until the
    off-diagonal Frobenius norm drops below JACOBI_TOL * ||A||_F.  Raises
    NoConvergence if JACOBI_MAX_SWEEPS sweeps do not reach the target
    (which for Hermitian input they always should: convergence is
    quadratic once the off-diagonal mass is small).

    The sweeps run on A / 2^e (see eigb.linalg._unit_scaled), so ||A||_F
    neither overflows nor underflows however A is scaled; the eigenvalues
    are scaled back by 2^e.
    """
    work, exponents = _unit_scaled(a.matrix[None])
    work = work[0]
    n = work.shape[0]
    vectors = np.eye(n, dtype=np.complex128)
    target = JACOBI_TOL * float(np.linalg.norm(work))
    # Skipping rotations below this per-element threshold still guarantees
    # off-norm < target after a quiet sweep: off <= n * threshold.
    threshold = target / n
    sweeps = 0
    while (residual := _off_norm(work)) > target:
        if sweeps == JACOBI_MAX_SWEEPS:
            raise NoConvergence(
                f"Jacobi eigensolver did not converge after {sweeps} sweeps "
                f"(off-diagonal residual {float(np.ldexp(residual, exponents.item())):.3e})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(work[p, q]) > threshold:
                    _jacobi_rotate(work, vectors, p, q)
        sweeps += 1
    # The converged diagonal is in no order: sort it ascending, stably, as
    # LAPACK returns its eigenvalues, and finish as _eig does.
    order = np.argsort(work.diagonal().real, kind="stable")
    values = _finish_eig(work.diagonal().real[order][None], exponents)
    return _decomposition(values, vectors[None, :, order[::-1]])


def _off_norm(a: np.ndarray) -> float:
    # Summed directly over off-diagonal entries: subtracting the diagonal
    # mass from the total norm would cancel catastrophically once the
    # off-diagonal part is small.
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


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
