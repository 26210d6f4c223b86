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
reports exactly what one instance at a time would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain, combinations
from operator import add
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .bounds import (
    IndexSequence,
    SelectionIndex,
    TOL_CLASS,
    TOL_VERIFY_BASE,
    _radius,
    _ratio_tolerance,
    _sum_tolerance,
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
    Spectrum,
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
    """Stable splittable hash (splitmix64 finalizer) for per-instance seeds."""
    x = (int(master_seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random matrix: dimension, spectrum shape, and seed."""

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


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """An iid complex Gaussian n x n matrix: the real parts drawn first, then
    the imaginary parts, in one call."""
    re, im = rng.standard_normal((2, n, n))
    return (re + 1j * im) / np.sqrt(2.0)


def _haar_unitary(z: np.ndarray) -> np.ndarray:
    """Orthonormalize a stack (m, n, n) of complex Gaussian matrices; fix the
    QR phase ambiguity."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return q * phases[..., None, :]


def _target_values(rng: np.random.Generator, spec: GeneratorSpec, nonnegative: bool) -> np.ndarray:
    lo, hi = spec.eigenvalue_range
    if spec.inertia_target is not None:
        pos, neg, zero = spec.inertia_target
    elif nonnegative:
        pos, neg, zero = spec.n, 0, 0
    else:
        # Unconstrained: independent random sign per eigenvalue.
        pos, neg, zero = None, None, None
    if pos is None:
        mags = rng.uniform(lo, hi, size=spec.n)
        signs = rng.integers(0, 2, size=spec.n) * 2 - 1
        return mags * signs
    # The positive magnitudes, then the negative ones, from one draw.
    values = np.zeros(pos + neg + zero)
    values[: pos + neg] = rng.uniform(lo, hi, size=pos + neg)
    np.negative(values[pos : pos + neg], out=values[pos : pos + neg])
    return values


def _generated(specs: Sequence[GeneratorSpec], nonnegative: bool) -> np.ndarray:
    """The stack (m, n, n) of Q diag(values) Q* for same-n specs, each drawn
    from its own seed: target values first, then the Gaussian matrix of Q."""
    targets = [s.inertia_target for s in specs]
    if nonnegative and any(t is not None and t[1] != 0 for t in targets):
        raise InvalidSpec("PSD target cannot contain negative eigenvalues")
    values, z = [], []
    for spec in specs:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        values.append(_target_values(rng, spec, nonnegative))
        z.append(_gaussian(rng, spec.n))
    q = _haar_unitary(np.stack(z))
    return (q * np.stack(values)[:, None, :]) @ q.conj().swapaxes(-1, -2)


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


@dataclass
class InstanceSpectra:
    """Eigendata computed once per (A, B) instance and shared across selections."""

    spec_a: Spectrum
    spec_b: Spectrum
    spec_b_raw: Spectrum
    spec_ab: Spectrum
    spec_sum: Spectrum
    trace_product: float
    norm_scale: float


class SpectraStack(NamedTuple):
    """The InstanceSpectra of m same-n instances as arrays: each spectrum an
    (m, n) array, one row per instance; trace_product and norm_scale (m,)."""

    spec_a: np.ndarray
    spec_b: np.ndarray
    spec_b_raw: np.ndarray
    spec_ab: np.ndarray
    spec_sum: np.ndarray
    trace_product: np.ndarray
    norm_scale: np.ndarray

    @classmethod
    def of(cls, sp: InstanceSpectra) -> SpectraStack:
        """The stack of one instance."""
        spectra = (sp.spec_a, sp.spec_b, sp.spec_b_raw, sp.spec_ab, sp.spec_sum)
        return cls(
            *(np.array([s.values]) for s in spectra),
            np.array([sp.trace_product]),
            np.array([sp.norm_scale]),
        )

    def instance(self, i: int) -> InstanceSpectra:
        return InstanceSpectra(
            *(Spectrum(tuple(s[i].tolist())) for s in self[:5]),
            trace_product=float(self.trace_product[i]),
            norm_scale=float(self.norm_scale[i]),
        )


def instance_spectra(a: HermitianMatrix, b: PSDMatrix) -> InstanceSpectra:
    return _instance_stack(a, b).instance(0)


def _instance_stack(a: HermitianMatrix, b: PSDMatrix) -> SpectraStack:
    """instance_spectra as a stack of one instance."""
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
    sp: InstanceSpectra | SpectraStack,
    selections: Sequence[tuple[int, ...]],
    tol: Tolerances = Tolerances(),
    instance_id: int = 0,
    seed: int = 0,
) -> SelectionChecks:
    """Evaluate every applicable inequality on every selection of one
    instance, in one numpy pass.

    sp is the instance's InstanceSpectra, or its SpectraStack of one.  Each
    check is a column over the selections (overflow to inf and nan
    included, silently as with Python floats).  The checks that do not
    depend on the selection (gap, Ostrowski and the trace pair) are
    evaluated once.  Records are read off the columns, and built only when
    asked for: SelectionChecks.record(r), or .failures.  Computational
    errors never propagate: they end each record with a failed
    "computation" check.  This is a campaign's stacked check
    (_check_stack) on a stack of one instance.

    The selections of _exhaustive(n) are checked against the SelectionIndex
    cached with them; any other selections get an index built here.
    """
    stack = sp if isinstance(sp, SpectraStack) else SpectraStack.of(sp)
    n = stack.spec_a.shape[1]
    cached = _EXHAUSTIVE.get(n)
    if cached is not None and selections is cached[0]:
        index = cached[1]
    else:
        index = selection_index(selections, n)
    return SelectionChecks(_check_stack(stack, index, tol), 0, selections, instance_id, seed)


@np.errstate(over="ignore", invalid="ignore")
def _check_stack(sp: SpectraStack, index: SelectionIndex, tol: Tolerances) -> StackChecks:
    """check_selections on every instance of a stack at once: the same
    columns, (m, S), given the selections' SelectionIndex (one set for the
    whole stack, or one per instance).

    A column is built only if it applies to some instance.  An instance
    whose gap check raises ConsistencyError gets, in place of the gap,
    Ostrowski and Wielandt checks, a failed "computation" check on each of
    its selections, as check_selections gives it for that instance alone.
    The radii of A and B are computed once, for every zero cut and tolerance.
    """
    a, b, ab, total = sp.spec_a, sp.spec_b, sp.spec_ab, sp.spec_sum
    n = a.shape[1]
    ks = index.ks
    every = np.ones((len(a), ks.shape[-1]), dtype=bool)
    radii = rho_a, rho_b = _radius(a), _radius(b)
    sums = selection_bounds_batch(a, b, index, tol.tol_class, rho_a)
    inertia = inertia_counts(a, tol.tol_class, rho_a)
    tau = _verify_tolerance(rho_a, rho_b, ks, tol.verify_base)
    columns: list[CheckColumn] = []

    def split_terms(i: int, r: int) -> str:
        return f"T1={sums.t1[i, r].item()!r} T2={sums.t2[i, r].item()!r}"

    try:
        # With one index for the whole stack, the selected sums of AB, A + B
        # and A are gathered and added as one (3m, n) array.
        fused = index.pos.ndim == 2 and ab.shape == total.shape == a.shape
        if fused:
            actual, w_actual, a_sums = selected_sums(np.concatenate((ab, total, a)), index).reshape(
                3, len(a), -1
            )
        else:
            actual, w_actual, a_sums = selected_sums(ab, index), None, None
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
            sel = selected_values(a, index)
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

        signed, gap, bound, errors = gap_bound_batch(a, b, ab, radii, tol.tol_class)
        inconsistent = np.zeros(len(a), dtype=bool)
        inconsistent[list(errors)] = True
        consistent = every & ~inconsistent[:, None]
        if signed.any():
            columns.append(
                _upper_column("gap", gap[:, None], bound[:, None], tau, every & signed[:, None])
            )

        ost = ostrowski_batch(a, ab, b, radii, tol.tol_class)
        if ost.applies.any():
            columns.append(
                _bracket_column(
                    "ostrowski",
                    ost.low[:, None],
                    ost.offender[:, None],
                    ost.high[:, None],
                    _ratio_tolerance(rho_b, tol.verify_base),
                    consistent & ost.applies[:, None],
                    (ost.worst_low[:, None], ost.worst_high[:, None]),
                )
            )

        w_lo, w_up = wielandt_sum_bounds_batch(a, sp.spec_b_raw, index, a_sums)
        if w_actual is None:
            w_actual = selected_sums(total, index)
        tau_sum = _sum_tolerance(rho_a, rho_b, ks, tol.verify_base)
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


def _family_inertia(rng: np.random.Generator, family: int, n: int) -> tuple[int, int, int]:
    if family == 1:
        return (0, n, 0)
    if family == 0 or n == 1:
        return (n, 0, 0)
    pos = int(rng.integers(1, n))
    return (pos, n - pos, 0)


def _family_selections(
    rng: np.random.Generator, family: int, n: int, nu: int, count: int
) -> list[tuple[int, ...]]:
    """Sampled selections for large n: inside, beyond, and straddling the
    nonnegative block, padded with random subsets."""
    chosen: set[tuple[int, ...]] = set()
    if family >= 2:
        if nu >= 1:
            k = int(rng.integers(1, nu + 1))
            chosen.add(tuple(sorted((1 + rng.choice(nu, size=k, replace=False)).tolist())))
        if nu < n:
            k = int(rng.integers(1, n - nu + 1))
            chosen.add(tuple(sorted((nu + 1 + rng.choice(n - nu, size=k, replace=False)).tolist())))
        if 1 <= nu < n:
            lo = int(rng.integers(1, nu + 1))
            hi = int(rng.integers(nu + 1, n + 1))
            chosen.add((lo, hi))
    return sample_selections(rng, n, count, chosen)


def sample_selections(
    rng: np.random.Generator, n: int, count: int, chosen: Iterable[tuple[int, ...]] = ()
) -> list[tuple[int, ...]]:
    """Pad `chosen` with random nonempty subsets of 1..n up to `count`
    distinct selections (at most 2^n - 1); returned in lexicographic order."""
    chosen = set(chosen)
    count = min(count, 2**n - 1)
    while len(chosen) < count:
        k = int(rng.integers(1, n + 1))
        chosen.add(tuple(sorted((1 + rng.choice(n, size=k, replace=False)).tolist())))
    return sorted(chosen)


class _Plan(NamedTuple):
    """One campaign instance before generation: its index and seed, the
    generator that later samples its selections, and the recipes of A and B."""

    index: int
    seed: int
    rng: np.random.Generator
    a: GeneratorSpec
    b: GeneratorSpec


def _plan(i: int, master_seed: int, config: CampaignConfig) -> _Plan:
    """Instance i's dimension and inertia: the first draws of its own generator."""
    seed_i = derive_seed(master_seed, i)
    rng = np.random.Generator(np.random.PCG64(seed_i))
    if config.inertia is not None:
        inertia = config.inertia
        n = sum(inertia)
    else:
        n = int(rng.integers(config.n_min, config.n_max + 1))
        inertia = _family_inertia(rng, i % 5, n)
    # Every third instance gets a singular B for boundary coverage.
    b_inertia = (n - 1, 0, 1) if (i % 3 == 2 and n >= 2) else (n, 0, 0)
    return _Plan(
        index=i,
        seed=seed_i,
        rng=rng,
        a=GeneratorSpec(n=n, seed=derive_seed(seed_i, 1), inertia_target=inertia),
        b=GeneratorSpec(n=n, seed=derive_seed(seed_i, 2), inertia_target=b_inertia),
    )


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
    SAMPLED_SEQUENCES drawn by each instance's own generator around its
    count of nonnegative eigenvalues."""
    n = sp.spec_a.shape[1]
    if n <= EXHAUSTIVE_MAX_N:
        selections, index = _exhaustive(n)
        return [selections] * len(members), index
    inertia = inertia_counts(sp.spec_a, tol.tol_class)
    sampled = [
        _family_selections(plans[j].rng, plans[j].index % 5, n, nu, SAMPLED_SEQUENCES)
        for j, nu in zip(members, (inertia[:, 0] + inertia[:, 2]).tolist())
    ]
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
        plans = [_plan(i, master_seed, config) for i in window]
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
                sp = _instance_stack(a, b)
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
