"""Deterministic instance generation and bound-verification campaigns.

Matrices are built by conjugating prescribed eigenvalues with a
Haar-like random unitary, so every instance has a known target spectrum
and inertia.  A campaign cycles instances through five inertia/selection
families (both-signed spectra with selections inside, beyond, and
straddling the nonnegative block, plus the two one-signed extremes),
checks every applicable inequality on each index sequence, and aggregates
machine-readable results.  Identical seeds give identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .bounds import (
    IndexSequence,
    TOL_CLASS,
    TOL_VERIFY_BASE,
    gap_bound,
    inertia_of,
    ostrowski_ratios,
    psd_product_bounds,
    ratio_tolerance,
    selected_sum,
    selected_sums,
    selection_bounds,
    selection_bounds_batch,
    stable_bounds,
    sum_tolerance,
    trace_bounds,
    verify_tolerance,
    wielandt_sum_bounds,
    wielandt_sum_bounds_batch,
    zero_cut,
)
from .errors import (
    EigbError,
    InvalidCount,
    InvalidSpec,
    NoSignChange,
    NotPositiveDefinite,
)
from .linalg import (
    HermitianMatrix,
    PSDMatrix,
    Spectrum,
    frobenius_norm,
    hermitian_eig,
    product_spectrum,
    validate_hermitian,
    validate_psd,
)

_MASK64 = (1 << 64) - 1

# Campaign instances up to this dimension check every selection; larger
# ones check SAMPLED_SEQUENCES sampled selections.
EXHAUSTIVE_MAX_N = 6
SAMPLED_SEQUENCES = 12


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


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthonormalize an iid complex Gaussian matrix; fix QR phase ambiguity."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return q * phases


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
        values = mags * signs
    else:
        values = np.concatenate(
            [
                rng.uniform(lo, hi, size=pos),
                -rng.uniform(lo, hi, size=neg),
                np.zeros(zero),
            ]
        )
    return values


def gen_hermitian(spec: GeneratorSpec) -> HermitianMatrix:
    """Random Hermitian matrix with prescribed spectrum shape, deterministic in seed."""
    rng = np.random.default_rng(spec.seed)
    values = _target_values(rng, spec, nonnegative=False)
    q = _haar_unitary(rng, spec.n)
    m = (q * values) @ q.conj().T
    return validate_hermitian(m)


def gen_psd(spec: GeneratorSpec) -> PSDMatrix:
    """Random PSD matrix with nonnegative prescribed spectrum, deterministic in seed."""
    if spec.inertia_target is not None and spec.inertia_target[1] != 0:
        raise InvalidSpec("PSD target cannot contain negative eigenvalues")
    rng = np.random.default_rng(spec.seed)
    values = _target_values(rng, spec, nonnegative=True)
    q = _haar_unitary(rng, spec.n)
    m = (q * values) @ q.conj().T
    return validate_psd(m)


def all_selections(n: int) -> list[tuple[int, ...]]:
    """Every nonempty selection of 1..n as an index tuple: by size, then lexicographic."""
    return [c for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]


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


def instance_spectra(a: HermitianMatrix, b: PSDMatrix) -> InstanceSpectra:
    spec_a = hermitian_eig(a).spectrum
    spec_ab = product_spectrum(a, b)
    spec_sum = hermitian_eig(validate_hermitian(a.matrix + b.matrix)).spectrum
    product = a.matrix @ b.matrix
    return InstanceSpectra(
        spec_a=spec_a,
        spec_b=b.spectrum,
        spec_b_raw=b.eig.spectrum,
        spec_ab=spec_ab,
        spec_sum=spec_sum,
        trace_product=float(np.trace(product).real),
        norm_scale=1.0 + frobenius_norm(a.matrix) * frobenius_norm(b.matrix),
    )


def _bracket_check(name, lower, actual, upper, tol) -> CheckResult:
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


def _upper_check(name, actual, upper, tol, detail="") -> CheckResult:
    slack = upper - actual
    return CheckResult(
        name=name,
        actual=actual,
        upper=upper,
        upper_slack=slack,
        passed=slack >= -tol,
        detail=detail,
    )


def run_checks(
    sp: InstanceSpectra,
    idx: IndexSequence,
    tol: Tolerances = Tolerances(),
    instance_id: int = 0,
    seed: int = 0,
) -> VerificationRecord:
    """Evaluate every applicable inequality for one instance and selection.

    Computational errors never propagate: they become failed checks with a
    diagnostic message.
    """
    checks: list[CheckResult] = []
    spec_a, spec_b, spec_ab = sp.spec_a, sp.spec_b, sp.spec_ab
    n, k = idx.n, idx.k
    sums = selection_bounds(spec_a, spec_b, idx, tol.tol_class)
    lower, upper = sums.lower, sums.upper
    inertia = inertia_of(spec_a, tol.tol_class)
    tau = verify_tolerance(spec_a, spec_b, k, tol.verify_base)

    try:
        actual = selected_sum(spec_ab, idx)
        checks.append(_bracket_check("main-bounds", lower, actual, upper, tau))
        checks.append(
            _upper_check(
                "dominance",
                upper,
                sums.split_upper,
                tau,
                detail=f"T1={sums.t1!r} T2={sums.t2!r}",
            )
        )

        if inertia.negative == 0:
            red_lo, red_up = psd_product_bounds(spec_a, spec_b, idx, tol.tol_class)
            diff = max(abs(red_lo - lower), abs(red_up - upper))
            checks.append(
                _upper_check("reduction-psd", diff, 0.0, 0.0, detail="exact identity")
            )
        if inertia.positive == 0:
            cut = zero_cut(spec_a, tol.tol_class)
            near_zero = [spec_a[i - 1] for i in idx.indices if spec_a[i - 1] >= -cut]
            if all(v == 0.0 for v in near_zero):
                red_lo, red_up = stable_bounds(spec_a, spec_b, idx, tol.tol_class)
                diff = max(abs(red_lo - lower), abs(red_up - upper))
                checks.append(
                    _upper_check(
                        "reduction-stable", diff, 0.0, 0.0, detail="exact identity"
                    )
                )

        if k == n:
            checks.extend(_trace_checks(sp, tau))

        try:
            _, _, gap, bound = gap_bound(spec_a, spec_b, spec_ab, tol.tol_class)
            checks.append(_upper_check("gap", gap, bound, tau))
        except NoSignChange:
            pass

        ostrowski = _ostrowski_check(sp, tol)
        if ostrowski is not None:
            checks.append(ostrowski)

        w_lo, w_up = wielandt_sum_bounds(spec_a, sp.spec_b_raw, idx)
        w_actual = selected_sum(sp.spec_sum, idx)
        tau_sum = sum_tolerance(spec_a, spec_b, k, tol.verify_base)
        checks.append(_bracket_check("wielandt", w_lo, w_actual, w_up, tau_sum))
    except EigbError as exc:
        checks.append(
            CheckResult(
                name="computation",
                actual=0.0,
                passed=False,
                detail=f"{type(exc).__name__}: {exc}",
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


def _trace_checks(sp: InstanceSpectra, tau: float) -> tuple[CheckResult, CheckResult]:
    """The checks of the full selection: trace bracket and trace consistency."""
    tr_lo, tr_up = trace_bounds(sp.spec_a, sp.spec_b)
    agreement = abs(sp.trace_product - sp.spec_ab.sum())
    return (
        _bracket_check("trace-bracket", tr_lo, sp.trace_product, tr_up, tau),
        _upper_check("trace-consistency", agreement, 1e-9 * sp.norm_scale, 0.0),
    )


def _ostrowski_check(sp: InstanceSpectra, tol: Tolerances) -> CheckResult | None:
    """The Ostrowski check, or None when B is singular or no ratio is defined."""
    try:
        rep = ostrowski_ratios(sp.spec_a, sp.spec_ab, sp.spec_b, tol.tol_class)
    except NotPositiveDefinite:
        return None
    if not rep.ratios:
        return None
    worst_low = min(r - rep.low for _, r in rep.ratios)
    worst_high = min(rep.high - r for _, r in rep.ratios)
    offender = min(rep.ratios, key=lambda tr: min(tr[1] - rep.low, rep.high - tr[1]))
    tau_ratio = ratio_tolerance(sp.spec_b, tol.verify_base)
    return CheckResult(
        name="ostrowski",
        actual=offender[1],
        lower=rep.low,
        upper=rep.high,
        lower_slack=worst_low,
        upper_slack=worst_high,
        passed=worst_low >= -tau_ratio and worst_high >= -tau_ratio,
    )


@dataclass(frozen=True)
class CheckColumn:
    """One check across a batch of selections: where it applies and, there,
    whether it passed and its worst slack (CheckResult.passed and .worst())."""

    name: str
    applies: np.ndarray
    passed: np.ndarray
    worst: np.ndarray


@dataclass(frozen=True)
class SelectionChecks:
    """Result of check_selections: the check columns in run_checks order,
    each selection's overall pass flag, and the failing selections' records."""

    columns: tuple[CheckColumn, ...]
    passed: np.ndarray
    failures: list[VerificationRecord]


@np.errstate(over="ignore", invalid="ignore")
def check_selections(
    sp: InstanceSpectra,
    selections: Sequence[tuple[int, ...]],
    tol: Tolerances = Tolerances(),
    instance_id: int = 0,
    seed: int = 0,
) -> SelectionChecks:
    """run_checks for every selection of one instance, in one numpy pass.

    Each column's flags and slacks equal, bit for bit, what run_checks gives
    for each selection (overflow to inf and nan included, silently as with
    Python floats).  The checks that do not depend on the selection (gap,
    Ostrowski and the trace pair) are evaluated once.  Full records are
    built, by run_checks, only for the failing selections.
    """
    spec_a, spec_b, spec_ab = sp.spec_a, sp.spec_b, sp.spec_ab
    n = len(spec_a)
    rows, ks = _index_matrix(selections, n)
    every = np.ones(len(rows), dtype=bool)
    sums = selection_bounds_batch(spec_a, spec_b, rows, ks, tol.tol_class)
    inertia = inertia_of(spec_a, tol.tol_class)
    tau = verify_tolerance(spec_a, spec_b, ks, tol.verify_base)
    columns: list[CheckColumn] = []

    try:
        actual = selected_sums(spec_ab, rows)
        columns.append(_bracket_column("main-bounds", sums.lower, actual, sums.upper, tau, every))
        columns.append(_upper_column("dominance", sums.upper, sums.split_upper, tau, every))
        if inertia.negative == 0:
            columns.append(
                _reduction_column("reduction-psd", sums, sums.psd_lower, sums.psd_upper, every)
            )
        if inertia.positive == 0:
            cut = zero_cut(spec_a, tol.tol_class)
            sel = np.array(spec_a.values)[rows - 1]
            exact = ~np.any((rows > 0) & (sel >= -cut) & (sel != 0.0), axis=1)
            columns.append(
                _reduction_column(
                    "reduction-stable", sums, sums.stable_lower, sums.stable_upper, exact
                )
            )
        full = ks == n
        if full.any():
            tau_full = verify_tolerance(spec_a, spec_b, n, tol.verify_base)
            columns.extend(_broadcast(c, full) for c in _trace_checks(sp, tau_full))

        try:
            _, _, gap, bound = gap_bound(spec_a, spec_b, spec_ab, tol.tol_class)
            columns.append(_upper_column("gap", gap, bound, tau, every))
        except NoSignChange:
            pass

        ostrowski = _ostrowski_check(sp, tol)
        if ostrowski is not None:
            columns.append(_broadcast(ostrowski, every))

        w_lo, w_up = wielandt_sum_bounds_batch(spec_a, sp.spec_b_raw, rows)
        w_actual = selected_sums(sp.spec_sum, rows)
        tau_sum = sum_tolerance(spec_a, spec_b, ks, tol.verify_base)
        columns.append(_bracket_column("wielandt", w_lo, w_actual, w_up, tau_sum, every))
    except EigbError:
        columns.append(CheckColumn("computation", every, ~every, np.zeros(len(rows))))

    passed = np.logical_and.reduce([c.passed | ~c.applies for c in columns])
    failures = [
        run_checks(sp, IndexSequence(indices=selections[r], n=n), tol, instance_id, seed)
        for r in np.flatnonzero(~passed)
    ]
    return SelectionChecks(columns=tuple(columns), passed=passed, failures=failures)


def _index_matrix(
    selections: Sequence[tuple[int, ...]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, ks): selections as rows of 1-based indices, left-aligned and
    padded with zeros, and each selection's size."""
    ks = np.fromiter(map(len, selections), dtype=np.intp, count=len(selections))
    rows = np.zeros((len(selections), n), dtype=np.intp)
    rows[np.arange(n) < ks[:, None]] = np.fromiter(chain.from_iterable(selections), dtype=np.intp)
    return rows, ks


def _bracket_column(name, lower, actual, upper, tol, applies) -> CheckColumn:
    """_bracket_check for arrays."""
    lo_slack = actual - lower
    up_slack = upper - actual
    return CheckColumn(
        name=name,
        applies=applies,
        passed=(lo_slack >= -tol) & (up_slack >= -tol),
        worst=np.where(up_slack < lo_slack, up_slack, lo_slack),
    )


def _upper_column(name, actual, upper, tol, applies) -> CheckColumn:
    """_upper_check for arrays; scalar inputs are broadcast over the batch."""
    slack = upper - actual
    return CheckColumn(
        name=name,
        applies=applies,
        passed=np.full(applies.shape, slack >= -tol),
        worst=np.full(applies.shape, slack),
    )


def _broadcast(check: CheckResult, applies: np.ndarray) -> CheckColumn:
    """A check evaluated once, as a column over the batch."""
    return CheckColumn(
        name=check.name,
        applies=applies,
        passed=np.full(applies.shape, check.passed),
        worst=np.full(applies.shape, check.worst()),
    )


def _reduction_column(name, sums, lower, upper, applies) -> CheckColumn:
    """An exact reduction identity: the bracket (lower, upper) must equal the
    main one.  The deviation is max(x, y) as Python's max picks it (y only
    if y > x), as in run_checks."""
    x, y = abs(lower - sums.lower), abs(upper - sums.upper)
    return _upper_column(name, np.where(y > x, y, x), 0.0, 0.0, applies)


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
            CheckResult(
                name="computation",
                actual=0.0,
                passed=False,
                detail=f"{type(exc).__name__}: {exc}",
            ),
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
            chosen.add(tuple(sorted(rng.choice(range(1, nu + 1), size=k, replace=False).tolist())))
        if nu < n:
            k = int(rng.integers(1, n - nu + 1))
            chosen.add(tuple(sorted(rng.choice(range(nu + 1, n + 1), size=k, replace=False).tolist())))
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
        chosen.add(tuple(sorted(rng.choice(range(1, n + 1), size=k, replace=False).tolist())))
    return sorted(chosen)


def run_campaign(
    count: int, config: CampaignConfig = CampaignConfig(), master_seed: int = 0
) -> CampaignReport:
    """Generate `count` instances, check every selected inequality, aggregate.

    Failures are collected rather than raised: slack statistics across the
    whole campaign are part of the result.  Identical inputs produce an
    identical report.
    """
    if count < 1:
        raise InvalidCount(f"instance count must be >= 1, got {count}")
    start = time.monotonic()
    stats: dict[str, CheckStats] = {}
    failures: list[VerificationRecord] = []
    total = 0
    passed = 0
    tol = config.tolerances

    for i in range(count):
        seed_i = derive_seed(master_seed, i)
        rng = np.random.default_rng(seed_i)
        if config.inertia is not None:
            inertia = config.inertia
            n = sum(inertia)
        else:
            n = int(rng.integers(config.n_min, config.n_max + 1))
            inertia = _family_inertia(rng, i % 5, n)
        a = gen_hermitian(
            GeneratorSpec(
                n=n,
                seed=derive_seed(seed_i, 1),
                inertia_target=inertia,
            )
        )
        # Every third instance gets a singular B for boundary coverage.
        b_inertia = (n - 1, 0, 1) if (i % 3 == 2 and n >= 2) else (n, 0, 0)
        b = gen_psd(
            GeneratorSpec(
                n=n,
                seed=derive_seed(seed_i, 2),
                inertia_target=b_inertia,
            )
        )
        try:
            sp = instance_spectra(a, b)
        except EigbError as exc:
            record = _error_record(
                exc, n, IndexSequence(indices=tuple(range(1, n + 1)), n=n), i, seed_i
            )
            total += 1
            failures.append(record)
            st = stats.setdefault("computation", CheckStats(name="computation"))
            st.count += 1
            st.failed += 1
            st.min_slack = min(st.min_slack, 0.0)
            continue
        nu = inertia_of(sp.spec_a, tol.tol_class).nonnegative
        if n <= EXHAUSTIVE_MAX_N:
            selections = all_selections(n)
        else:
            selections = _family_selections(rng, i % 5, n, nu, SAMPLED_SEQUENCES)
        checked = check_selections(sp, selections, tol, instance_id=i, seed=seed_i)
        total += len(selections)
        passed += int(np.count_nonzero(checked.passed))
        failures.extend(checked.failures)
        for column in checked.columns:
            if column.applies.any():
                st = stats.setdefault(column.name, CheckStats(name=column.name))
                st.add(column.passed[column.applies], column.worst[column.applies])

    return CampaignReport(
        total=total,
        passed=passed,
        failed=total - passed,
        checks=[stats[name] for name in sorted(stats)],
        failures=failures,
        wall_time=time.monotonic() - start,
    )
