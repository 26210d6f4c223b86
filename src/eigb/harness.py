"""Deterministic instance generation and bound-verification campaigns.

Matrices are built by conjugating prescribed eigenvalues with a
Haar-like random unitary, so every instance has a known target spectrum
and inertia.  A campaign cycles instances through five inertia/selection
families (both-signed spectra with selections inside, beyond, and
straddling the nonnegative block, plus the two one-signed extremes),
checks every applicable inequality on each index sequence, and aggregates
machine-readable results.  Identical seeds give identical reports.

Generation, the instance spectra and the checks are written for stacks:
arrays with a leading axis of m same-n instances, each drawn from its own
seed.  A campaign runs them on whole groups of instances (SpectraStack,
_check_stack); gen_hermitian, gen_psd, instance_spectra and
check_selections are the same code with m = 1, so a stacked campaign
reports exactly what one instance at a time would.  SpectraStack is the
one record of an instance's spectra: instance_spectra gives the stack of
one instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain, combinations, islice
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .bounds import (
    IndexSequence,
    SelectionIndex,
    TOL_CLASS,
    TOL_VERIFY_BASE,
    _radius,
    _row_sums,
    _verify_tolerance,
    gap_bound_batch,
    inertia_counts,
    ostrowski_batch,
    selected_sums,
    selected_values,
    selection_bounds_batch,
    selection_index,
    trace_bounds_batch,
    wielandt_sum_bounds_batch,
)
from .errors import (
    EigbError,
    InvalidCount,
    InvalidSpec,
)
from .linalg import (
    TOL_HERM,
    HermitianMatrix,
    PSDMatrix,
    _check_spectra,
    _eig_stack,
    _eig_values,
    _frobenius_norms,
    _product_values,
    _psd_eig,
    _validated,
    validate_hermitian,
    validate_psd,
)

_MASK64 = (1 << 64) - 1

# Campaign instances up to this dimension check every selection; larger
# ones check SAMPLED_SEQUENCES sampled selections.
EXHAUSTIVE_MAX_N = 6
SAMPLED_SEQUENCES = 12

# A campaign generates and solves at most this many consecutive instances at
# a time, in same-n stacks of at most STACK_ENTRIES matrix entries (and at
# least one instance), so its memory grows neither with the count nor, beyond
# one instance's, with n.
STACK_WINDOW = 256
STACK_ENTRIES = 1 << 16


def derive_seed(master_seed: int, index: int) -> int:
    """Stable splittable hash (splitmix64 finalizer) for per-instance seeds.
    The master seed is read mod 2^64."""
    x = (int(master_seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


# derive_seed's increments (index + 1) * golden ratio for index 0..3.
_WORD_STEPS = np.array([(j * 0x9E3779B97F4A7C15) & _MASK64 for j in range(1, 5)], dtype=np.uint64)


def _words(seeds: Iterable[int]) -> np.ndarray:
    """[derive_seed(s, j) for j in 0..3] for each seed, as a (len, 4) uint64
    array computed in one pass: each seed's stream state.  Every operand is
    uint64, so the arithmetic wraps mod 2^64 under any numpy's promotion
    rules."""
    u64 = np.uint64
    x = np.array([int(s) & _MASK64 for s in seeds], dtype=u64)[:, None] + _WORD_STEPS
    x ^= x >> u64(30)
    x *= u64(0xBF58476D1CE4E5B9)
    x ^= x >> u64(27)
    x *= u64(0x94D049BB133111EB)
    x ^= x >> u64(31)
    return x


def _streams(words: np.ndarray) -> Iterator[np.random.Generator]:
    """One Generator set to each stream of words (from _words) in turn.

    A seed's stream is the PCG64 generator whose 128-bit state is words 0
    and 1 and whose increment is words 2 and 3, made odd as PCG requires
    (SplitMix seeding: Steele, Lea & Flood, OOPSLA 2014).  Setting the state
    also clears the buffered 32-bit half, so a stream's draws do not depend
    on what was drawn before it.  The same Generator is yielded each time:
    draw from it before taking the next.
    """
    # The carrier's own seed is never drawn from: each stream replaces its state.
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in words.tolist():
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo | 1},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _below(u: np.ndarray, count) -> np.ndarray:
    """floor(u * count) for uniforms u in [0, 1): uniform on 0..count - 1
    (the product rounds below count for every count up to 2^53)."""
    return (u * count).astype(np.intp)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random matrix: dimension, spectrum shape, and seed.

    The matrix draws from the stream of `seed` (read mod 2^64): its uniforms
    set the magnitudes and, without an inertia target, the signs of the
    eigenvalues; its Gaussians make the eigenvectors."""

    n: int
    seed: int
    eigenvalue_range: tuple[float, float] = (0.1, 10.0)
    inertia_target: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec(f"dimension must be >= 1, got {self.n}")
        lo, hi = self.eigenvalue_range
        if not (0.0 <= lo <= hi):
            raise InvalidSpec(f"need 0 <= lo <= hi magnitudes, got [{lo}, {hi}]")
        if self.inertia_target is not None:
            p, m, z = self.inertia_target
            if min(p, m, z) < 0 or p + m + z != self.n:
                raise InvalidSpec(
                    f"inertia target {self.inertia_target} does not sum to n={self.n}"
                )


def _haar_unitary(z: np.ndarray) -> np.ndarray:
    """Orthonormalize a stack (m, n, n) of complex Gaussian matrices; fix the
    QR phase ambiguity."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return q * phases[..., None, :]


def _generated(specs: Sequence[GeneratorSpec], nonnegative: bool) -> np.ndarray:
    """The stack (m, n, n) of Q diag(values) Q* for same-n specs.

    Each spec's stream gives one random(2n) draw, then one
    standard_normal((2, n, n)) draw.  Eigenvalue t's magnitude is
    lo + (hi - lo) u_t.  With an inertia target (pos, neg, zero) the first
    pos values are positive, the next neg negative and the rest zero;
    without one a PSD matrix is all positive, and a Hermitian one takes
    eigenvalue t negative where u_(n+t) < 1/2.  Q is the unitary of the QR
    of (re + i im) / sqrt(2), with the diagonal of R made positive."""
    targets = [s.inertia_target for s in specs]
    if nonnegative and any(t is not None and t[1] != 0 for t in targets):
        raise InvalidSpec("PSD target cannot contain negative eigenvalues")
    n = specs[0].n
    u = np.empty((len(specs), 2 * n))
    gauss = np.empty((len(specs), 2, n, n))
    for rng, u_j, gauss_j in zip(_streams(_words(s.seed for s in specs)), u, gauss):
        rng.random(out=u_j)
        rng.standard_normal(out=gauss_j)
    ranges = np.array([s.eigenvalue_range for s in specs], dtype=float)
    lo, hi = ranges[:, :1], ranges[:, 1:]
    layout = np.array([t or (n, 0, 0) for t in targets])
    col = np.arange(n)
    pos, signed = layout[:, :1], layout[:, :1] + layout[:, 1:2]
    signs = np.where(col < pos, 1.0, np.where(col < signed, -1.0, 0.0))
    if not nonnegative:
        free = np.array([t is None for t in targets])[:, None]
        signs = np.where(free, np.where(u[:, n:] < 0.5, -1.0, 1.0), signs)
    values = (lo + (hi - lo) * u[:, :n]) * signs
    q = _haar_unitary((gauss[:, 0] + 1j * gauss[:, 1]) / np.sqrt(2.0))
    return (q * values[:, None, :]) @ q.conj().swapaxes(-1, -2)


def gen_hermitian(spec: GeneratorSpec) -> HermitianMatrix:
    """Random Hermitian matrix with prescribed spectrum shape, deterministic in seed."""
    return validate_hermitian(_generated([spec], nonnegative=False)[0])


def gen_psd(spec: GeneratorSpec) -> PSDMatrix:
    """Random PSD matrix with nonnegative prescribed spectrum, deterministic in seed."""
    return validate_psd(_generated([spec], nonnegative=True)[0])


def all_selections(n: int) -> list[tuple[int, ...]]:
    """Every nonempty selection of 1..n as an index tuple: by size, then lexicographic."""
    return [c for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]


# n -> _exhaustive(n).  Only the exhaustive checks fill it: a campaign's up to
# EXHAUSTIVE_MAX_N and `eigb verify`'s up to n = 10, about 0.8 MB for all of
# n = 1..10.
_EXHAUSTIVE: dict[int, tuple[tuple[tuple[int, ...], ...], SelectionIndex]] = {}


def _exhaustive(n: int) -> tuple[tuple[tuple[int, ...], ...], SelectionIndex]:
    """all_selections(n) as a tuple, and its SelectionIndex with read-only
    arrays: built once per n per process and shared by every caller."""
    cached = _EXHAUSTIVE.get(n)
    if cached is None:
        selections = tuple(all_selections(n))
        index = selection_index(selections, n)
        for array in index:
            array.flags.writeable = False
        cached = _EXHAUSTIVE[n] = (selections, index)
    return cached


@dataclass(frozen=True)
class Tolerances:
    """Knobs shared by every check: zero classification and slack scaling."""

    tol_class: float = TOL_CLASS
    verify_base: float = TOL_VERIFY_BASE


@dataclass(frozen=True)
class CheckResult:
    name: str
    actual: float
    lower: float | None = None
    upper: float | None = None
    lower_slack: float | None = None
    upper_slack: float | None = None
    passed: bool = True
    detail: str = ""

    def worst(self) -> float:
        slacks = [s for s in (self.lower_slack, self.upper_slack) if s is not None]
        return min(slacks) if slacks else 0.0


@dataclass(frozen=True)
class VerificationRecord:
    instance_id: int
    seed: int
    n: int
    indices: tuple[int, ...]
    selected_nonneg: int
    inertia: tuple[int, int, int]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_slack(self) -> float:
        return min((c.worst() for c in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "seed": self.seed,
            "n": self.n,
            "indices": list(self.indices),
            "selected_nonneg": self.selected_nonneg,
            "inertia": list(self.inertia),
            "worst_slack": self.worst_slack,
            "checks": [
                {
                    "name": c.name,
                    "lower": c.lower,
                    "actual": c.actual,
                    "upper": c.upper,
                    "lower_slack": c.lower_slack,
                    "upper_slack": c.upper_slack,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


class SpectraStack(NamedTuple):
    """Eigendata computed once per (A, B) instance and shared across its
    selections, for m same-n instances: each spectrum an (m, n) array, one
    descending row per instance (spec_b clamped to nonnegative values,
    spec_b_raw as computed); trace_product and norm_scale (m,)."""

    spec_a: np.ndarray
    spec_b: np.ndarray
    spec_b_raw: np.ndarray
    spec_ab: np.ndarray
    spec_sum: np.ndarray
    trace_product: np.ndarray
    norm_scale: np.ndarray


def instance_spectra(a: HermitianMatrix, b: PSDMatrix) -> SpectraStack:
    """The SpectraStack of one instance."""
    return _spectra_stack(a.matrix[None], b.matrix[None], *_eig_stack(b))


def _spectra_stack(
    a: np.ndarray, b: np.ndarray, b_values: np.ndarray, b_vectors: np.ndarray
) -> SpectraStack:
    """instance_spectra for a stack of instances: validated A and B as
    (m, n, n) stacks, with B's eigendecomposition from validate_psd.  Each
    spectrum passes Spectrum's checks, as if built one at a time."""
    values_a = _eig_values(a)
    values_ab = _product_values(a, b_values, b_vectors)
    values_sum = _eig_values(_validated(a + b, TOL_HERM)[0])
    traces = np.trace(a @ b, axis1=-2, axis2=-1).real
    # The product of the norms overflows to inf at extreme scales.
    with np.errstate(over="ignore"):
        norm_scales = 1.0 + _frobenius_norms(a) * _frobenius_norms(b)
    # PSDMatrix.spectrum: eigenvalues of B below zero, within tolerance, read as zero.
    clamped = np.where(b_values < 0.0, 0.0, b_values)
    stack = SpectraStack(values_a, clamped, b_values, values_ab, values_sum, traces, norm_scales)
    _check_spectra(np.stack(stack[:5], axis=1))
    return stack


class CheckColumn(NamedTuple):
    """One check across a batch of selections: where it applies and, there,
    whether it passed and its worst slack (CheckResult.passed and .worst()),
    with the other fields of its CheckResult.  Each of those is an array
    over the batch, or one that broadcasts to it, or one Python scalar for
    all of it; detail is a string or a function of the position.

    The batch is (m, S), m instances by S selections (_check_stack); a value
    the same for all of an instance's selections is an (m, 1) array.
    instance(i) gives one instance's column, over its S selections."""

    name: str
    applies: np.ndarray
    passed: np.ndarray
    worst: np.ndarray
    actual: np.ndarray | float
    lower: np.ndarray | float | None = None
    upper: np.ndarray | float | None = None
    lower_slack: np.ndarray | float | None = None
    upper_slack: np.ndarray | float | None = None
    detail: str | Callable[..., str] = ""

    def result(self, *at: int) -> CheckResult:
        """The check at batch position `at` ((i, r), or (r,) for one
        instance's column), with Python scalars in every field."""

        def value(field):
            if not isinstance(field, np.ndarray):
                return field
            # Broadcasting: an axis of length 1 holds one value for all positions.
            return field[tuple(x if size > 1 else 0 for x, size in zip(at, field.shape))].item()

        return CheckResult(
            name=self.name,
            actual=value(self.actual),
            lower=value(self.lower),
            upper=value(self.upper),
            lower_slack=value(self.lower_slack),
            upper_slack=value(self.upper_slack),
            passed=value(self.passed),
            detail=self.detail(*at) if callable(self.detail) else self.detail,
        )

    def instance(self, i: int) -> CheckColumn:
        """Instance i's column: its row of every array, with applies, passed
        and worst over all its selections."""

        def row(field):
            return field[i] if isinstance(field, np.ndarray) else field

        applies = self.applies[i]
        return CheckColumn(
            name=self.name,
            applies=applies,
            passed=np.broadcast_to(self.passed[i], applies.shape),
            worst=np.broadcast_to(self.worst[i], applies.shape),
            actual=row(self.actual),
            lower=row(self.lower),
            upper=row(self.upper),
            lower_slack=row(self.lower_slack),
            upper_slack=row(self.upper_slack),
            detail=partial(self.detail, i) if callable(self.detail) else self.detail,
        )


class StackChecks(NamedTuple):
    """Result of _check_stack: the check columns in record order over (m, S),
    each selection's overall pass flag and kap, (m, S), and each instance's
    inertia, (m, 3)."""

    columns: tuple[CheckColumn, ...]
    passed: np.ndarray
    n: int
    kap: np.ndarray
    inertia: np.ndarray


class SelectionChecks(NamedTuple):
    """Result of check_selections: instance i of a StackChecks, with its
    selections and identity.  Its records are read off the stack's columns
    when asked for."""

    stack: StackChecks
    i: int
    selections: Sequence[tuple[int, ...]]
    instance_id: int
    seed: int

    @property
    def columns(self) -> tuple[CheckColumn, ...]:
        """The check columns in record order, over this instance's selections."""
        return tuple(c.instance(self.i) for c in self.stack.columns)

    @property
    def passed(self) -> np.ndarray:
        """Each selection's overall pass flag."""
        return self.stack.passed[self.i]

    def record(self, r: int) -> VerificationRecord:
        """The record of selection r: the checks that apply to it, in order."""
        i = self.i
        return VerificationRecord(
            instance_id=self.instance_id,
            seed=self.seed,
            n=self.stack.n,
            indices=tuple(self.selections[r]),
            selected_nonneg=self.stack.kap[i, r].item(),
            inertia=tuple(self.stack.inertia[i].tolist()),
            checks=tuple(c.result(i, r) for c in self.stack.columns if c.applies[i, r]),
        )

    @property
    def failures(self) -> list[VerificationRecord]:
        return [self.record(r) for r in np.flatnonzero(~self.passed).tolist()]


def check_selections(
    sp: SpectraStack,
    selections: Sequence[tuple[int, ...]],
    tol: Tolerances = Tolerances(),
    instance_id: int = 0,
    seed: int = 0,
) -> SelectionChecks:
    """Evaluate every applicable inequality on every selection of one
    instance, in one numpy pass.

    sp is the instance's SpectraStack (instance_spectra).  Each check is a
    column over the selections (overflow to inf and nan included, silently
    as with Python floats).  The checks that do not depend on the selection
    (gap, Ostrowski and the trace pair) are evaluated once.  Records are
    read off the columns, and built only when asked for:
    SelectionChecks.record(r), or .failures.  Computational errors never
    propagate: they end each record with a failed "computation" check.
    This is a campaign's stacked check (_check_stack) on a stack of one
    instance.

    The selections of _exhaustive(n) are checked against the SelectionIndex
    cached with them.  Any other selections are first checked as
    IndexSequence checks them (InvalidIndexSequence), then get an index
    built here.
    """
    n = sp.spec_a.shape[1]
    cached = _EXHAUSTIVE.get(n)
    if cached is not None and selections is cached[0]:
        index = cached[1]
    else:
        for selection in selections:
            IndexSequence(indices=selection, n=n)
        index = selection_index(selections, n)
    return SelectionChecks(_check_stack(sp, index, tol), 0, selections, instance_id, seed)


@np.errstate(over="ignore", invalid="ignore")
def _check_stack(sp: SpectraStack, index: SelectionIndex, tol: Tolerances) -> StackChecks:
    """check_selections on every instance of a stack at once: the same
    columns, (m, S), given the selections' SelectionIndex (one set for the
    whole stack, or one per instance).

    A column is built only if it applies to some instance.  An instance
    whose gap check raises ConsistencyError gets, in place of the gap,
    Ostrowski and Wielandt checks, a failed "computation" check on each of
    its selections, as check_selections gives it for that instance alone.
    The radii of A and B are computed once, for every zero cut and tolerance,
    and A's selected values are gathered once.
    """
    a, b, ab, total = sp.spec_a, sp.spec_b, sp.spec_ab, sp.spec_sum
    m, n = a.shape
    ks = index.ks
    every = np.ones((m, ks.shape[-1]), dtype=bool)
    radii = rho_a, rho_b = _radius(a), _radius(b)
    # With one index for the whole stack, the selected values of AB, A + B
    # and A are gathered as one (3m, n) array, and summed as one.
    fused = index.pos.ndim == 2 and ab.shape == total.shape == a.shape
    if fused:
        gathered = selected_values(np.concatenate((ab, total, a)), index)
        sel = gathered[2 * m :]
    else:
        sel = selected_values(a, index)
    sums = selection_bounds_batch(a, b, index, tol.tol_class, rho_a, sel)
    inertia = sums.inertia
    tau = _verify_tolerance(rho_a, rho_b, ks, tol.verify_base)
    columns: list[CheckColumn] = []

    def split_terms(i: int, r: int) -> str:
        return f"T1={sums.t1[i, r].item()!r} T2={sums.t2[i, r].item()!r}"

    try:
        if fused:
            actual, w_actual, a_sums = _row_sums(gathered).reshape(3, m, -1)
        else:
            actual, w_actual, a_sums = selected_sums(ab, index), None, _row_sums(sel)
        columns.append(_bracket_column("main-bounds", sums.lower, actual, sums.upper, tau, every))
        columns.append(
            _upper_column("dominance", sums.upper, sums.split_upper, tau, every, split_terms)
        )
        psd = every & (inertia[:, 1:2] == 0)
        if psd.any():
            columns.append(
                _reduction_column("reduction-psd", sums, sums.psd_lower, sums.psd_upper, psd)
            )
        stable = inertia[:, 0] == 0
        if stable.any():
            cut = (tol.tol_class * rho_a)[..., None]
            exact = ~np.any(index.live & (sel >= -cut) & (sel != 0.0), axis=-2)
            columns.append(
                _reduction_column(
                    "reduction-stable",
                    sums,
                    sums.stable_lower,
                    sums.stable_upper,
                    stable[:, None] & exact,
                )
            )
        full = np.broadcast_to(ks == n, every.shape)
        if full.any():
            tr_lo, tr_up = trace_bounds_batch(a, b)
            trace = sp.trace_product[:, None]
            # Spectrum.sum: Python's sum of the values.
            agreement = np.abs(trace - np.array([[sum(v)] for v in ab.tolist()]))
            columns.append(
                _bracket_column("trace-bracket", tr_lo[:, None], trace, tr_up[:, None], tau, full)
            )
            columns.append(
                _upper_column(
                    "trace-consistency", agreement, 1e-9 * sp.norm_scale[:, None], 0.0, full
                )
            )

        gap = gap_bound_batch(a, b, ab, radii, tol.tol_class)
        errors = gap.errors
        inconsistent = np.zeros(m, dtype=bool)
        inconsistent[list(errors)] = True
        consistent = every & ~inconsistent[:, None]
        if gap.applies.any():
            columns.append(
                _upper_column(
                    "gap", gap.gap[:, None], gap.bound[:, None], tau, every & gap.applies[:, None]
                )
            )

        ost = ostrowski_batch(a, ab, b, radii, tol.tol_class)
        ost_applies = ost.definite & ost.used.any(axis=1)
        if ost_applies.any():
            columns.append(
                _bracket_column(
                    "ostrowski",
                    ost.low[:, None],
                    ost.offender[:, None],
                    ost.high[:, None],
                    # The Ostrowski ratios are bracketed by the spectrum of B.
                    tol.verify_base * (1.0 + rho_b),
                    consistent & ost_applies[:, None],
                    (ost.worst_low[:, None], ost.worst_high[:, None]),
                )
            )

        w_lo, w_up = wielandt_sum_bounds_batch(a, sp.spec_b_raw, index, a_sums)
        if w_actual is None:
            w_actual = selected_sums(total, index)
        # The A + B bracket sums k terms of A and of B.
        tau_sum = tol.verify_base * (1.0 + (rho_a + rho_b) * ks)
        columns.append(_bracket_column("wielandt", w_lo, w_actual, w_up, tau_sum, consistent))
        if errors:
            columns.append(
                CheckColumn(
                    "computation",
                    ~consistent,
                    ~every,
                    np.zeros(every.shape),
                    0.0,
                    detail=lambda i, r: _computation(errors[i]),
                )
            )
    except EigbError as exc:
        columns.append(
            CheckColumn(
                "computation", every, ~every, np.zeros(every.shape), 0.0, detail=_computation(exc)
            )
        )

    return StackChecks(
        columns=tuple(columns),
        passed=np.logical_and.reduce([c.passed | ~c.applies for c in columns]),
        n=n,
        kap=sums.kap,
        inertia=inertia,
    )


def _bracket_column(name, lower, actual, upper, tol, applies, slacks=None) -> CheckColumn:
    """lower <= actual <= upper within tol.  The slacks are actual's distances
    to the two bounds unless given."""
    lo_slack, up_slack = (actual - lower, upper - actual) if slacks is None else slacks
    return CheckColumn(
        name=name,
        applies=applies,
        passed=(lo_slack >= -tol) & (up_slack >= -tol),
        worst=np.where(up_slack < lo_slack, up_slack, lo_slack),
        actual=actual,
        lower=lower,
        upper=upper,
        lower_slack=lo_slack,
        upper_slack=up_slack,
    )


def _upper_column(name, actual, upper, tol, applies, detail="") -> CheckColumn:
    """actual <= upper within tol."""
    slack = upper - actual
    return CheckColumn(
        name=name,
        applies=applies,
        passed=slack >= -tol,
        worst=slack,
        actual=actual,
        upper=upper,
        upper_slack=slack,
        detail=detail,
    )


def _reduction_column(name, sums, lower, upper, applies) -> CheckColumn:
    """An exact reduction identity: the bracket (lower, upper) must equal the
    main one.  The deviation is max(x, y) as Python's max picks it (y only
    if y > x)."""
    x, y = abs(lower - sums.lower), abs(upper - sums.upper)
    return _upper_column(name, np.where(y > x, y, x), 0.0, 0.0, applies, "exact identity")


def _computation(exc: EigbError) -> str:
    """The detail of a failed computation: the exception and its message."""
    return f"{type(exc).__name__}: {exc}"


def _error_record(
    exc: EigbError, n: int, idx: IndexSequence, instance_id: int, seed: int
) -> VerificationRecord:
    """Failed record for an instance whose spectra could not be computed."""
    return VerificationRecord(
        instance_id=instance_id,
        seed=seed,
        n=n,
        indices=idx.indices,
        selected_nonneg=0,
        inertia=(0, 0, 0),
        checks=(
            CheckResult(name="computation", actual=0.0, passed=False, detail=_computation(exc)),
        ),
    )


@dataclass
class CheckStats:
    name: str
    count: int = 0
    failed: int = 0
    min_slack: float = float("inf")
    sum_slack: float = 0.0

    @property
    def mean_slack(self) -> float:
        return self.sum_slack / self.count if self.count else 0.0

    def add(self, passed: np.ndarray, worst: np.ndarray) -> None:
        """Count evaluations in order, with the same min and += as one at a time."""
        slacks = worst.tolist()
        self.count += len(slacks)
        self.failed += int(np.count_nonzero(~passed))
        self.min_slack = min([self.min_slack, *slacks])
        self.sum_slack = reduce(add, slacks, self.sum_slack)


@dataclass(frozen=True)
class CampaignConfig:
    """Distribution of campaign instances plus verification tolerances."""

    n_min: int = 2
    n_max: int = 8
    inertia: tuple[int, int, int] | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if not (1 <= self.n_min <= self.n_max):
            raise InvalidSpec(f"bad dimension range [{self.n_min}, {self.n_max}]")
        if self.inertia is not None:
            p, m, z = self.inertia
            if min(p, m, z) < 0 or p + m + z < 1:
                raise InvalidSpec(f"bad inertia {self.inertia}")


@dataclass
class CampaignReport:
    total: int
    passed: int
    failed: int
    checks: list[CheckStats]
    failures: list[VerificationRecord]
    wall_time: float

    def to_json_dict(self) -> dict:
        # Fixed schema; wall_time deliberately excluded so identical seeds
        # serialize byte-identically.
        return {
            "version": "EIGB1",
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "checks": [
                {
                    "name": s.name,
                    "min_slack": s.min_slack,
                    "mean_slack": s.mean_slack,
                }
                for s in self.checks
            ],
            "failures": [r.to_dict() for r in self.failures],
        }


def _smallest(keys: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Mask of the k smallest keys of each row (k broadcasting against the
    rows): the first k positions of its stable argsort.  Over uniform keys,
    a uniform k-subset of the positions."""
    order = np.argsort(keys, axis=-1, kind="stable")
    mask = np.empty(keys.shape, dtype=bool)
    np.put_along_axis(mask, order, np.arange(keys.shape[-1]) < k[..., None], axis=-1)
    return mask


def _as_selections(masks: np.ndarray) -> list[list[tuple[int, ...]]]:
    """Masks (m, R, n) as m lists of R selections of 1-based indices."""
    where = iter((np.nonzero(masks)[-1] + 1).tolist())
    return [[tuple(islice(where, k)) for k in row] for row in masks.sum(axis=-1).tolist()]


def _block_selections(block: np.ndarray) -> list[list[tuple[int, ...]]]:
    """A block (m, R, n + 1) of uniforms as m lists of R random selections:
    the last column gives the size k, uniform on 1..n, and the k smallest of
    the other n columns give a uniform k-subset."""
    n = block.shape[-1] - 1
    return _as_selections(_smallest(block[..., :n], 1 + _below(block[..., n], n)))


def _family_picks(head: np.ndarray, nus: Sequence[int | None]) -> list[list[tuple[int, ...]]]:
    """Each instance's selections inside, beyond and straddling its
    nonnegative block 1..nu, from the n + 4 uniforms of its head row:

    - inside: k uniform on 1..nu, then a uniform k-subset of 1..nu (if nu >= 1);
    - beyond: k uniform on 1..n - nu, then a uniform k-subset of nu+1..n
      (if nu < n);
    - straddling: (lo, hi), lo uniform on 1..nu and hi on nu+1..n (if both).

    The subsets are the smallest of the first n uniforms within each block.
    None (no picks) reads as nu = 0 with nothing kept."""
    n = head.shape[-1] - 4
    wanted = np.array([nu is not None for nu in nus])
    nu = np.array([nu or 0 for nu in nus])
    rest = n - nu
    col = np.arange(n)
    inner = col < nu[:, None]
    u = head[:, :n]
    masks = np.stack(
        (
            _smallest(np.where(inner, u, 2.0), 1 + _below(head[:, n], nu)),
            _smallest(np.where(inner, 2.0, u), 1 + _below(head[:, n + 1], rest)),
            (col == _below(head[:, n + 2], nu)[:, None])
            | (col == (nu + _below(head[:, n + 3], rest))[:, None]),
        ),
        axis=1,
    )
    kept = wanted[:, None] & np.stack((nu >= 1, rest >= 1, (nu >= 1) & (rest >= 1)), axis=1)
    return [
        [pick for pick, keep in zip(picks, row) if keep]
        for picks, row in zip(_as_selections(masks), kept.tolist())
    ]


def _sampled_selections(
    seeds: Sequence[int], n: int, count: int, nus: Sequence[int | None]
) -> list[list[tuple[int, ...]]]:
    """sample_selections for several seeds at once, each on its own stream,
    with the draws shaped and turned into selections for all of them at
    once.  nus[i] is None, or instance i's nonnegative count for its family
    picks."""
    count = min(count, 2**n - 1)
    rows = 2 * count
    head, block = n + 4, rows * (n + 1)
    words = _words(seeds)
    u = np.empty((len(seeds), head + block))
    for rng, out in zip(_streams(words), u):
        rng.random(out=out)
    drawn = _block_selections(u[:, head:].reshape(len(seeds), rows, n + 1))
    sampled = []
    for i, (picks, first) in enumerate(zip(_family_picks(u[:, :head], nus), drawn)):
        chosen = dict.fromkeys(picks)
        if len(chosen) < count:
            for selection in chain(first, _further_rows(words[i : i + 1], head + block, rows, n)):
                chosen[selection] = None
                if len(chosen) == count:
                    break
        sampled.append(sorted(chosen))
    return sampled


def _further_rows(words: np.ndarray, drawn: int, rows: int, n: int) -> Iterator[tuple[int, ...]]:
    """The selections of the blocks that follow the first `drawn` uniforms
    of one stream, block after block, for an instance whose first block
    held too few distinct rows.  Nothing is drawn until the first is asked
    for."""
    rng = next(_streams(words))
    rng.random(drawn)
    while True:
        yield from _block_selections(rng.random((1, rows, n + 1)))[0]


def sample_selections(
    seed: int, n: int, count: int, nu: int | None = None
) -> list[tuple[int, ...]]:
    """`count` distinct random nonempty selections of 1..n (at most
    2^n - 1), drawn from the stream of `seed` (read mod 2^64), in
    lexicographic order.

    The stream's first n + 4 uniforms give, when nu is given, the picks
    inside, beyond and straddling the nonnegative block 1..nu
    (_family_picks), which come first.  Then blocks of 2 * count rows of
    n + 1 uniforms each give one random selection per row (_block_selections):
    its size uniform on 1..n, then a uniform subset of that size.  Rows are
    taken in order, each kept if new, until there are `count`."""
    return _sampled_selections([seed], n, count, [nu])[0]


class _Plan(NamedTuple):
    """One campaign instance before generation: its index and seed, the
    recipes of A and B, and the seed its sampled selections draw from."""

    index: int
    seed: int
    a: GeneratorSpec
    b: GeneratorSpec
    selection_seed: int


def _plans(window: range, master_seed: int, config: CampaignConfig) -> list[_Plan]:
    """The window's instances before generation.

    Instance i's seed is derive_seed(master_seed, i).  Unless the config
    pins the inertia, two uniforms of its stream give its dimension, uniform
    on n_min..n_max, and, in families 2-4 (i mod 5), its count of positive
    eigenvalues, uniform on 1..n - 1; family 0 is PSD and family 1 negative
    definite.  A, B and the sampled selections draw from the streams of
    derive_seed(seed, 1), (seed, 2) and (seed, 3): words 1..3 of its stream.
    """
    seeds = [derive_seed(master_seed, i) for i in window]
    words = _words(seeds)
    if config.inertia is None:
        u = np.empty((len(seeds), 2))
        for rng, out in zip(_streams(words), u):
            rng.random(out=out)
        ns = config.n_min + _below(u[:, 0], config.n_max - config.n_min + 1)
        drawn = zip(ns.tolist(), (1 + _below(u[:, 1], ns - 1)).tolist())
    else:
        drawn = [(sum(config.inertia), 0)] * len(seeds)
    plans = []
    for i, seed, (_, a_seed, b_seed, s_seed), (n, p) in zip(window, seeds, words.tolist(), drawn):
        if config.inertia is not None:
            inertia = config.inertia
        elif i % 5 == 1:
            inertia = (0, n, 0)
        elif i % 5 == 0 or n == 1:
            inertia = (n, 0, 0)
        else:
            inertia = (p, n - p, 0)
        # Every third instance gets a singular B for boundary coverage.
        b_inertia = (n - 1, 0, 1) if (i % 3 == 2 and n >= 2) else (n, 0, 0)
        plans.append(
            _Plan(
                index=i,
                seed=seed,
                a=GeneratorSpec(n=n, seed=a_seed, inertia_target=inertia),
                b=GeneratorSpec(n=n, seed=b_seed, inertia_target=b_inertia),
                selection_seed=s_seed,
            )
        )
    return plans


def _stacked_spectra(plans: Sequence[_Plan]) -> list[tuple[list[int], SpectraStack | None]]:
    """The planned instances in same-n stacks, as (members, spectra): the
    positions in plans of each stack's instances, in order, and their
    spectra, generated and solved as a whole stack (gen_hermitian, gen_psd
    and instance_spectra at once).  A stack in which a stage raises gets
    None, to be redone one instance at a time."""
    groups: dict[int, list[int]] = {}
    for j, plan in enumerate(plans):
        groups.setdefault(plan.a.n, []).append(j)
    stacks: list[tuple[list[int], SpectraStack | None]] = []
    for n, group in groups.items():
        size = max(1, STACK_ENTRIES // n**2)
        for k in range(0, len(group), size):
            members = group[k : k + size]
            try:
                a, _ = _validated(_generated([plans[j].a for j in members], False), TOL_HERM)
                b, _ = _validated(_generated([plans[j].b for j in members], True), TOL_HERM)
                stacks.append((members, _spectra_stack(a, b, *_psd_eig(b))))
            except (EigbError, LinAlgError):
                stacks.append((members, None))
    return stacks


class _Tally:
    """One window's check results, merged into instance order at the end.

    Stacks of different n interleave within a window, so each column's
    (pass flag, worst slack) pairs are kept with the window position of
    their instance, and the failures by instance.  flush then gives every
    CheckStats one add, in instance order, so its min and sum see the values
    in the order one instance at a time would."""

    def __init__(self, plans: Sequence[_Plan]) -> None:
        self.plans = plans
        self.total = 0
        self.passed = 0
        self.columns: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        self.failures: dict[int, list[VerificationRecord]] = {}

    def add(
        self,
        members: list[int],
        checked: StackChecks,
        selections: Sequence[Sequence[tuple[int, ...]]],
    ) -> None:
        """A checked stack, with each of its instances' selections."""
        self.total += checked.passed.size
        self.passed += int(np.count_nonzero(checked.passed))
        for k in np.flatnonzero(~checked.passed.all(axis=1)).tolist():
            plan = self.plans[members[k]]
            one = SelectionChecks(checked, k, selections[k], plan.index, plan.seed)
            self.failures[members[k]] = one.failures
        keys = np.array(members)
        for column in checked.columns:
            applies = column.applies
            if applies.any():
                self.columns.setdefault(column.name, []).append(
                    (
                        np.repeat(keys, applies.sum(axis=1)),
                        np.broadcast_to(column.passed, applies.shape)[applies],
                        np.broadcast_to(column.worst, applies.shape)[applies],
                    )
                )

    def error(self, j: int, record: VerificationRecord) -> None:
        """An instance whose spectra could not be computed."""
        self.total += 1
        self.failures[j] = [record]
        self.columns.setdefault("computation", []).append(
            (np.array([j]), np.zeros(1, dtype=bool), np.zeros(1))
        )

    def flush(self, stats: dict[str, CheckStats], failures: list[VerificationRecord]) -> None:
        for name, parts in self.columns.items():
            keys, passed, worst = (np.concatenate(x) for x in zip(*parts))
            order = np.argsort(keys, kind="stable")
            stats.setdefault(name, CheckStats(name=name)).add(passed[order], worst[order])
        for j in sorted(self.failures):
            failures.extend(self.failures[j])


def _campaign_selections(
    sp: SpectraStack, members: list[int], plans: Sequence[_Plan], tol: Tolerances
) -> tuple[list[Sequence[tuple[int, ...]]], SelectionIndex]:
    """What each instance of a stack checks, and its SelectionIndex: every
    selection up to EXHAUSTIVE_MAX_N (shared, from _exhaustive), else
    SAMPLED_SEQUENCES from each instance's selection stream, with the family
    picks around its count of nonnegative eigenvalues in families 2-4."""
    n = sp.spec_a.shape[1]
    if n <= EXHAUSTIVE_MAX_N:
        selections, index = _exhaustive(n)
        return [selections] * len(members), index
    inertia = inertia_counts(sp.spec_a, tol.tol_class)
    nus = [
        nu if plans[j].index % 5 >= 2 else None
        for j, nu in zip(members, (inertia[:, 0] + inertia[:, 2]).tolist())
    ]
    seeds = [plans[j].selection_seed for j in members]
    sampled = _sampled_selections(seeds, n, SAMPLED_SEQUENCES, nus)
    return sampled, selection_index(list(chain.from_iterable(sampled)), n, len(members))


def run_campaign(
    count: int, config: CampaignConfig = CampaignConfig(), master_seed: int = 0
) -> CampaignReport:
    """Generate `count` instances, check every selected inequality, aggregate.

    Failures are collected rather than raised: slack statistics across the
    whole campaign are part of the result.  Identical inputs produce an
    identical report.

    Up to STACK_WINDOW consecutive instances are planned at a time, then
    generated and solved in same-n stacks (_stacked_spectra), then checked
    a stack at a time (_check_stack), and their results merged back into
    instance order (_Tally).  An instance whose stack failed is generated,
    solved and checked on its own, exactly as the stack would have done it,
    so the report is the same as one instance at a time.  Instances up to
    EXHAUSTIVE_MAX_N check the selections of _exhaustive(n), whose index is
    built once per n per process, not once per campaign.
    """
    if count < 1:
        raise InvalidCount(f"instance count must be >= 1, got {count}")
    start = time.monotonic()
    stats: dict[str, CheckStats] = {}
    failures: list[VerificationRecord] = []
    total = 0
    passed = 0
    tol = config.tolerances

    for first in range(0, count, STACK_WINDOW):
        window = range(first, min(first + STACK_WINDOW, count))
        plans = _plans(window, master_seed, config)
        tally = _Tally(plans)
        redo: list[int] = []
        for members, sp in _stacked_spectra(plans):
            if sp is None:
                redo += members
                continue
            selections, index = _campaign_selections(sp, members, plans, tol)
            tally.add(members, _check_stack(sp, index, tol), selections)
        # In instance order, so that a generation error propagates as it would one at a time.
        for j in sorted(redo):
            plan = plans[j]
            n = plan.a.n
            a = gen_hermitian(plan.a)
            b = gen_psd(plan.b)
            try:
                sp = instance_spectra(a, b)
            except EigbError as exc:
                full = IndexSequence(indices=tuple(range(1, n + 1)), n=n)
                tally.error(j, _error_record(exc, n, full, plan.index, plan.seed))
                continue
            selections, index = _campaign_selections(sp, [j], plans, tol)
            tally.add([j], _check_stack(sp, index, tol), selections)
        tally.flush(stats, failures)
        total += tally.total
        passed += tally.passed

    return CampaignReport(
        total=total,
        passed=passed,
        failed=total - passed,
        checks=[stats[name] for name in sorted(stats)],
        failures=failures,
        wall_time=time.monotonic() - start,
    )
