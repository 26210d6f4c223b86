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
seed; gen_hermitian, gen_psd, instance_spectra and check_selections are
the same code with m = 1.  A campaign plans a window of instances as
arrays, draws every random stream through one carrier Generator, and
generates, validates and measures A and B of a same-n stack together, as
one stack of 2m matrices, for its SpectraStack.  A stack that fails is
solved again as stacks of one, and an instance that still fails gets a
"computation" record.  Sampled selections stay boolean masks until they
reach the stack's SelectionIndex.  Each checked stack is folded at once
into statistics that do not depend on the order of the stacks (_fold), so
a stacked campaign reports exactly what one instance at a time would.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from collections import namedtuple
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .bounds import (
    IndexSequence,
    SelectionIndex,
    TOL_CLASS,
    TOL_TRACE_BASE,
    TOL_VERIFY_BASE,
    _row_sums,
    _positions,
    check_tolerance,
    dominance,
    gap_bound_batch,
    inertia_counts,
    ostrowski_batch,
    selected_values,
    selection_bounds_batch,
    selection_index,
    selection_masks,
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
    _finite,
    _frobenius_norms,
    _product_values,
    _psd_eig,
    _radius,
    _same_size,
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

# The eigenvalue magnitudes of a matrix unless its GeneratorSpec says otherwise.
_RANGE = (0.1, 10.0)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable splittable hash (splitmix64 finalizer) for per-instance seeds.
    The master seed and the index are integers (see _integer), read mod 2^64."""
    seed, index = _integer(master_seed, "master seed"), _integer(index, "index")
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


# derive_seed's multiplier, the golden ratio, and the indices of a stream's
# four words.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_WORD_INDICES = np.arange(4, dtype=np.uint64)


def _derived(seeds: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """derive_seed(seed, index) for uint64 seeds and indices broadcast
    against each other, in one pass.  Every operand is uint64, so the
    arithmetic wraps mod 2^64 under any numpy's promotion rules."""
    u64 = np.uint64
    x = seeds + (indices.astype(u64) + u64(1)) * _GOLDEN
    x ^= x >> u64(30)
    x *= u64(0xBF58476D1CE4E5B9)
    x ^= x >> u64(27)
    x *= u64(0x94D049BB133111EB)
    x ^= x >> u64(31)
    return x


def _seeds(seeds: Iterable[int]) -> np.ndarray:
    """Python integer seeds, read mod 2^64, as a uint64 array."""
    return np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)


def _words(seeds: np.ndarray) -> np.ndarray:
    """[derive_seed(s, j) for j in 0..3] for each of the uint64 seeds, as a
    (len, 4) uint64 array: each seed's stream state."""
    return _derived(seeds[:, None], _WORD_INDICES)


def _carrier() -> np.random.Generator:
    """A Generator for _streams to set to one stream after another.  Its own
    seed is never drawn from: each stream replaces its state.  A campaign,
    or a one-shot public call, makes one and passes it down; nothing shares
    it between calls."""
    return np.random.Generator(np.random.PCG64(0))


def _streams(words: np.ndarray, rng: np.random.Generator) -> Iterator[np.random.Generator]:
    """The carrier rng (from _carrier) set to each stream of words (from
    _words) in turn.

    A seed's stream is the PCG64 generator whose 128-bit state is words 0
    and 1 and whose increment is words 2 and 3, made odd as PCG requires
    (SplitMix seeding: Steele, Lea & Flood, OOPSLA 2014).  Setting the state
    also clears the buffered 32-bit half, so a stream's draws do not depend
    on what was drawn before it.  The same Generator is yielded each time:
    draw from it before taking the next.
    """
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


def _integer(value, what: str) -> int:
    """value as an int, from a Python or numpy integer; InvalidSpec for
    anything else (a float is not truncated to one)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSpec(f"{what} must be an integer, got {value!r}") from None


def _counts(values, what: str) -> tuple[int, int, int]:
    """An inertia (p, m, z) as a tuple of three ints; see _integer."""
    try:
        counts = tuple(operator.index(v) for v in values)
    except TypeError:
        raise InvalidSpec(f"{what} counts must be integers, got {values!r}") from None
    if len(counts) != 3:
        raise InvalidSpec(f"{what} must have three counts (p, m, z), got {values!r}")
    return counts


def _magnitudes(values) -> tuple:
    """An eigenvalue_range (lo, hi) as its two numbers; InvalidSpec unless
    it is two real numbers (a string is not one)."""
    try:
        lo, hi = values
    except (TypeError, ValueError):
        lo = hi = None
    if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)):
        raise InvalidSpec(f"eigenvalue_range must be two real numbers, got {values!r}")
    return lo, hi


class GeneratorSpec(
    namedtuple("GeneratorSpec", ["n", "seed", "eigenvalue_range", "inertia_target"])
):
    """Recipe for one random matrix: dimension, spectrum shape, and seed.

    The matrix draws from the stream of `seed` (read mod 2^64): its uniforms
    set the magnitudes and, without an inertia target, the signs of the
    eigenvalues; its Gaussians make the eigenvectors."""

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        seed: int,
        eigenvalue_range: tuple[float, float] = _RANGE,
        inertia_target: tuple[int, int, int] | None = None,
    ):
        n, seed = _integer(n, "dimension"), _integer(seed, "seed")
        if n < 1:
            raise InvalidSpec(f"dimension must be >= 1, got {n}")
        lo, hi = _magnitudes(eigenvalue_range)
        if not (0.0 <= lo <= hi):
            raise InvalidSpec(f"need 0 <= lo <= hi magnitudes, got [{lo}, {hi}]")
        if not math.isfinite(hi):
            raise InvalidSpec(f"magnitudes must be finite, got [{lo}, {hi}]")
        if inertia_target is not None:
            inertia_target = _counts(inertia_target, "inertia target")
            p, m, z = inertia_target
            if min(p, m, z) < 0 or p + m + z != n:
                raise InvalidSpec(f"inertia target {inertia_target} does not sum to n={n}")
        return super().__new__(cls, n, seed, eigenvalue_range, inertia_target)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too.
        return cls(*iterable)


def _haar_unitary(z: np.ndarray) -> np.ndarray:
    """Orthonormalize a stack (m, n, n) of complex Gaussian matrices; fix the
    QR phase ambiguity."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return q * phases[..., None, :]


def _generated(specs: Sequence[GeneratorSpec], nonnegative: bool) -> np.ndarray:
    """The stack (m, n, n) of Q diag(values) Q* for same-n specs (_matrices).
    A PSD matrix (nonnegative) without an inertia target is all positive; a
    Hermitian one takes random signs."""
    targets = [s.inertia_target for s in specs]
    if nonnegative and any(t is not None and t[1] != 0 for t in targets):
        raise InvalidSpec("PSD target cannot contain negative eigenvalues")
    n = specs[0].n
    return _matrices(
        _words(_seeds(s.seed for s in specs)),
        n,
        np.array([t or (n, 0, 0) for t in targets]),
        np.array([t is None and not nonnegative for t in targets]),
        np.array([s.eigenvalue_range for s in specs], dtype=float),
        _carrier(),
    )


def _matrices(
    words: np.ndarray,
    n: int,
    layout: np.ndarray,
    signed: np.ndarray,
    ranges: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """The stack (m, n, n) of Q diag(values) Q*, one matrix per stream of
    words (from _words), drawn through the carrier rng (_streams).

    Each stream gives one random(2n) draw, then one
    standard_normal((2, n, n)) draw.  Eigenvalue t's magnitude is
    lo + (hi - lo) u_t, with (lo, hi) the matrix's row of ranges (m, 2) or
    one row for all.  Its sign comes from the layout (m, 3) of inertia
    counts (pos, neg, zero): the first pos values are positive, the next neg
    negative and the rest zero; but where the flag signed (m,) is set,
    eigenvalue t is negative where u_(n+t) < 1/2 and positive elsewhere.  Q
    is the unitary of the QR of (re + i im) / sqrt(2), with the diagonal of
    R made positive."""
    u = np.empty((len(words), 2 * n))
    gauss = np.empty((len(words), 2, n, n))
    for stream, u_j, gauss_j in zip(_streams(words, rng), u, gauss):
        stream.random(out=u_j)
        stream.standard_normal(out=gauss_j)
    lo, hi = ranges[:, :1], ranges[:, 1:]
    col = np.arange(n)
    pos, first_zero = layout[:, :1], layout[:, :1] + layout[:, 1:2]
    signs = np.where(col < pos, 1.0, np.where(col < first_zero, -1.0, 0.0))
    signs = np.where(signed[:, None], np.where(u[:, n:] < 0.5, -1.0, 1.0), signs)
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
        index = selection_index(selection_masks(selections, n))
        for array in index:
            array.flags.writeable = False
        cached = _EXHAUSTIVE[n] = (selections, index)
    return cached


class Tolerances(namedtuple("Tolerances", ["tol_class", "verify_base"])):
    """Knobs shared by every check: zero classification and slack scaling.
    Each is a nonnegative real number; InvalidSpec otherwise (NaN included)."""

    __slots__ = ()

    def __new__(cls, tol_class: float = TOL_CLASS, verify_base: float = TOL_VERIFY_BASE):
        for name, value in (("tol_class", tol_class), ("verify_base", verify_base)):
            # Written as "not >= 0" so that NaN fails too.
            if not (isinstance(value, numbers.Real) and value >= 0):
                raise InvalidSpec(f"{name} must be a nonnegative real number, got {value!r}")
        return super().__new__(cls, tol_class, verify_base)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too.
        return cls(*iterable)


class CheckResult(NamedTuple):
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


class VerificationRecord(NamedTuple):
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
    spec_b_raw as computed); trace_product and norm_product (m,), the
    product of the Frobenius norms of A and B."""

    spec_a: np.ndarray
    spec_b: np.ndarray
    spec_b_raw: np.ndarray
    spec_ab: np.ndarray
    spec_sum: np.ndarray
    trace_product: np.ndarray
    norm_product: np.ndarray


def instance_spectra(a: HermitianMatrix, b: PSDMatrix) -> SpectraStack:
    """The SpectraStack of one instance.  A and B of different sizes raise
    DimensionMismatch before any solve."""
    _same_size(a.matrix, b.matrix)
    return _spectra_stack(np.stack((a.matrix, b.matrix))[:, None], *_eig_stack(b))


def _spectra_stack(pair: np.ndarray, b_values: np.ndarray, b_vectors: np.ndarray) -> SpectraStack:
    """instance_spectra for a stack of instances: validated A and B as one
    (2, m, n, n) stack, with B's eigendecomposition from validate_psd.  Each
    spectrum passes Spectrum's checks, as if built one at a time."""
    a, b = pair
    values_a = _eig_values(a)
    values_ab = _product_values(a, b_values, b_vectors)
    # A and B are exactly Hermitian (_symmetrized), so A + B is too: only
    # its entries can fail, by overflow.
    values_sum = _eig_values(_finite(a + b))
    traces = np.trace(a @ b, axis1=-2, axis2=-1).real
    # The product of the norms overflows to inf at extreme scales.
    with np.errstate(over="ignore"):
        norms_a, norms_b = _frobenius_norms(pair)
        norm_products = norms_a * norms_b
    # PSDMatrix.spectrum: eigenvalues of B below zero, within tolerance, read as zero.
    clamped = np.where(b_values < 0.0, 0.0, b_values)
    stack = SpectraStack(values_a, clamped, b_values, values_ab, values_sum, traces, norm_products)
    _check_spectra(np.stack(stack[:5], axis=1))
    return stack


class CheckColumn(NamedTuple):
    """One check across a batch of selections: where it applies and, there,
    whether it passed and its worst slack (CheckResult.passed and .worst()),
    with the other fields of its CheckResult.  Each of those is an array
    over the batch, or one that broadcasts to it, or one Python scalar for
    all of it; detail is a string or a function of the position.

    The batch is (m, S), m instances by S selections (_check_stack); a value
    the same for all of an instance's selections is an (m, 1) array."""

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
    SelectionChecks.record(r), or .failures.  A gap check that raises
    ConsistencyError does not propagate: it ends each record with a failed
    "computation" check.  This is a campaign's stacked check (_check_stack)
    on a stack of one instance.

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
        index = selection_index(selection_masks(selections, n))
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
    and the selected values of AB, A + B and A are gathered once, for
    either layout of the index.
    """
    a, b, ab, total = sp.spec_a, sp.spec_b, sp.spec_ab, sp.spec_sum
    m, n = a.shape
    ks = index.ks
    every = np.ones((m, ks.shape[-1]), dtype=bool)
    radii = rho_a, rho_b = _radius(a), _radius(b)
    # The selected values of AB, A + B and A, gathered as one (3, m, n, S)
    # array, and summed as one.
    gathered = selected_values(np.stack((ab, total, a)), index)
    sel = gathered[2]
    sums = selection_bounds_batch(a, b, index, tol.tol_class, rho_a, sel)
    inertia = sums.inertia
    tau = check_tolerance(tol.verify_base, rho_a * rho_b, ks)
    actual, w_actual, a_sums = _row_sums(gathered)
    slack, held = dominance(sums, tau)
    columns = [
        _bracket_column("main-bounds", sums.lower, actual, sums.upper, tau, every),
        CheckColumn("dominance", every, held, slack, sums.t1, upper=sums.t2, upper_slack=slack),
    ]
    psd = every & (inertia[:, 1:2] == 0)
    if psd.any():
        columns.append(
            _reduction_column("reduction-psd", sums, sums.psd_lower, sums.psd_upper, psd)
        )
    stable = inertia[:, 0] == 0
    if stable.any():
        cut = (tol.tol_class * rho_a)[..., None]
        exact = stable[:, None] & ~np.any(index.live & (sel >= -cut) & (sel != 0.0), axis=-2)
        columns.append(
            _reduction_column("reduction-stable", sums, sums.stable_lower, sums.stable_upper, exact)
        )
    full = np.broadcast_to(ks == n, every.shape)
    if full.any():
        tr_lo, tr_up = trace_bounds_batch(a, b)
        trace = sp.trace_product[:, None]
        # Spectrum.sum's order: left to right, from zero.
        agreement = np.abs(trace - _row_sums(ab[:, :, None]))
        tau_trace = check_tolerance(TOL_TRACE_BASE, sp.norm_product[:, None], 1)
        columns.append(
            _bracket_column("trace-bracket", tr_lo[:, None], trace, tr_up[:, None], tau, full)
        )
        columns.append(_upper_column("trace-consistency", agreement, tau_trace, 0.0, full))

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
                check_tolerance(tol.verify_base, rho_b, 1),
                consistent & ost_applies[:, None],
                (ost.worst_low[:, None], ost.worst_high[:, None]),
            )
        )

    w_lo, w_up = wielandt_sum_bounds_batch(a, sp.spec_b_raw, index, a_sums)
    tau_sum = check_tolerance(tol.verify_base, rho_a + rho_b, ks)
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


def _error_record(exc: EigbError, n: int, instance_id: int, seed: int) -> VerificationRecord:
    """Failed record, on the full selection 1..n, for an instance whose
    spectra could not be computed."""
    return VerificationRecord(
        instance_id=instance_id,
        seed=seed,
        n=n,
        indices=tuple(range(1, n + 1)),
        selected_nonneg=0,
        inertia=(0, 0, 0),
        checks=(
            CheckResult(name="computation", actual=0.0, passed=False, detail=_computation(exc)),
        ),
    )


class _Mutable:
    """Base of the mutable records: compared and shown field by field, in
    the order of __slots__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values())
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


class CheckStats(_Mutable):
    """One check's evaluations in a campaign, in statistics that do not
    depend on the order they are added in (_fold): the least slack (never
    NaN; -0.0 below 0.0), the exact sum of the finite slacks in units of
    2^-1074, and the float sum of the others (0.0, inf, -inf or NaN)."""

    __slots__ = ("name", "count", "failed", "min_slack", "finite_sum", "nonfinite_sum")

    def __init__(
        self,
        name: str,
        count: int = 0,
        failed: int = 0,
        min_slack: float = math.inf,
        finite_sum: int = 0,
        nonfinite_sum: float = 0.0,
    ):
        self.name = name
        self.count = count
        self.failed = failed
        self.min_slack = min_slack
        self.finite_sum = finite_sum
        self.nonfinite_sum = nonfinite_sum

    @property
    def mean_slack(self) -> float:
        """The correctly rounded sum, inf or -inf past the largest float,
        over the count."""
        if not self.count:
            return 0.0
        try:
            # int / int is correctly rounded, subnormal results included.
            total = self.finite_sum / (1 << 1074)
        except OverflowError:
            total = math.inf if self.finite_sum > 0 else -math.inf
        return (total + self.nonfinite_sum) / self.count

    def add(self, passed: np.ndarray, worst: np.ndarray) -> None:
        """Count evaluations: their pass flags and worst slacks."""
        if worst.size:
            column = CheckColumn(self.name, np.ones_like(passed), passed, worst, 0.0)
            _fold({self.name: self}, [column])


def _exact_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list[int]:
    """The exact sum, in units of 2^-1074, of each segment of the finite
    values: the lengths[k] > 0 values from starts[k].

    ExtractVector (Rump, Ogita & Oishi, "Accurate floating-point summation
    part I", SIAM J. Sci. Comput. 31(1), 2008) per segment: with 2^guard >=
    len(values) + 2 and sigma a power of two at least 2^guard times the
    segment's largest magnitude, the parts (sigma + x) - sigma add exactly
    in any order, and what is left of each x, at most 2^(guard - 53) sigma,
    is split again until nothing is left.
    """
    huge = np.abs(values) >= 2.0**960
    if huge.any():
        # sigma would pass 2^1023: sum these apart, scaled exactly by 2^-128.
        low = _exact_sums(np.where(huge, 0.0, values), starts, lengths)
        high = _exact_sums(np.where(huge, values * 2.0**-128, 0.0), starts, lengths)
        return [lo + (hi << 128) for lo, hi in zip(low, high)]
    guard = (len(values) + 1).bit_length()
    sums = [0] * len(starts)
    while values.any():
        _, exponent = np.frexp(np.maximum.reduceat(np.abs(values), starts))
        sigma = np.repeat(np.ldexp(1.0, exponent + guard), lengths)
        high = (sigma + values) - sigma
        values = values - high
        for k, part in enumerate(np.add.reduceat(high, starts).tolist()):
            # part = num / 2^d, and 2^d has d + 1 bits: num << (1074 - d) units.
            num, den = part.as_integer_ratio()
            sums[k] += num << (1075 - den.bit_length())
    return sums


@np.errstate(invalid="ignore")
def _fold(stats: dict[str, CheckStats], columns: Sequence[CheckColumn]) -> None:
    """Add each check column's evaluations, where it applies, to the
    CheckStats of its name in stats, all in one pass, as segments."""
    columns = [c for c in columns if c.applies.any()]
    applies = np.stack([c.applies for c in columns])
    passed = np.empty(applies.shape, dtype=bool)
    worst = np.empty(applies.shape)
    for k, c in enumerate(columns):
        passed[k], worst[k] = c.passed, c.worst
    passed, worst = passed[applies], worst[applies]
    lengths = np.count_nonzero(applies.reshape(len(columns), -1), axis=1)
    starts = np.cumsum(lengths) - lengths
    failed = np.add.reduceat(~passed, starts, dtype=np.intp)
    finite = np.isfinite(worst)
    sums = _exact_sums(np.where(finite, worst, 0.0), starts, lengths)
    # inf + -inf and NaN + anything are NaN in any order.
    nonfinite = np.add.reduceat(np.where(finite, 0.0, worst), starts)
    least = np.minimum.reduceat(np.where(np.isnan(worst), np.inf, worst), starts)
    negative_zero = np.logical_or.reduceat((worst == 0.0) & np.signbit(worst), starts)
    least[negative_zero & (least == 0.0)] = -0.0
    for c, count, bad, low, exact, rest in zip(
        columns, lengths.tolist(), failed.tolist(), least.tolist(), sums, nonfinite.tolist()
    ):
        st = stats.setdefault(c.name, CheckStats(name=c.name))
        st.count += count
        st.failed += bad
        if low < st.min_slack or low == st.min_slack and math.copysign(1.0, low) < 0.0:
            st.min_slack = low
        st.finite_sum += exact
        st.nonfinite_sum += rest


class CampaignConfig(namedtuple("CampaignConfig", ["n_min", "n_max", "inertia", "tolerances"])):
    """Distribution of campaign instances plus verification tolerances.

    Each instance's dimension is uniform on n_min..n_max (by default 2..8),
    unless `inertia` (p, m, z) pins the inertia of every A, and with it the
    dimension at p + m + z: then n_min and n_max stay None, and giving
    either one is an InvalidSpec."""

    __slots__ = ()

    def __new__(
        cls,
        n_min: int | None = None,
        n_max: int | None = None,
        inertia: tuple[int, int, int] | None = None,
        tolerances: Tolerances = Tolerances(),
    ):
        if inertia is None:
            n_min = 2 if n_min is None else _integer(n_min, "n_min")
            n_max = 8 if n_max is None else _integer(n_max, "n_max")
            if not (1 <= n_min <= n_max):
                raise InvalidSpec(f"bad dimension range [{n_min}, {n_max}]")
        else:
            if n_min is not None or n_max is not None:
                raise InvalidSpec(
                    f"inertia {inertia} fixes the dimension: it cannot go with n_min or n_max"
                )
            inertia = _counts(inertia, "inertia")
            p, m, z = inertia
            if min(p, m, z) < 0 or p + m + z < 1:
                raise InvalidSpec(f"bad inertia {inertia}")
        return super().__new__(cls, n_min, n_max, inertia, tolerances)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too.
        return cls(*iterable)


class CampaignReport(_Mutable):
    __slots__ = ("total", "passed", "failed", "checks", "failures", "wall_time")

    def __init__(
        self,
        total: int,
        passed: int,
        failed: int,
        checks: list[CheckStats],
        failures: list[VerificationRecord],
        wall_time: float,
    ):
        self.total = total
        self.passed = passed
        self.failed = failed
        self.checks = checks
        self.failures = failures
        self.wall_time = wall_time

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
                    "failed": s.failed,
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


def _as_selections(masks: np.ndarray) -> list[tuple[int, ...]]:
    """Masks (R, n) as R selections of 1-based indices."""
    where = iter((np.nonzero(masks)[-1] + 1).tolist())
    return [tuple(islice(where, k)) for k in np.count_nonzero(masks, axis=-1).tolist()]


def _block_masks(block: np.ndarray) -> np.ndarray:
    """A block (m, R, n + 1) of uniforms as the masks (m, R, n) of m * R
    random selections: the last column gives the size k, uniform on 1..n,
    and the k smallest of the other n columns give a uniform k-subset."""
    n = block.shape[-1] - 1
    return _smallest(block[..., :n], 1 + _below(block[..., n], n))


def _family_picks(
    head: np.ndarray, nu: np.ndarray, wanted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each instance's selections inside, beyond and straddling its
    nonnegative block 1..nu, from the n + 4 uniforms of its head row, as
    masks (m, 3, n), and which of them it keeps, (m, 3):

    - inside: k uniform on 1..nu, then a uniform k-subset of 1..nu (if nu >= 1);
    - beyond: k uniform on 1..n - nu, then a uniform k-subset of nu+1..n
      (if nu < n);
    - straddling: (lo, hi), lo uniform on 1..nu and hi on nu+1..n (if both).

    The subsets are the smallest of the first n uniforms within each block.
    An instance not wanted (m,) keeps none.  The three are distinct."""
    n = head.shape[-1] - 4
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
    return masks, kept


def _selection_keys(masks: np.ndarray) -> np.ndarray:
    """Integer keys (..., n) of the selections of masks (..., n), equal for
    equal selections and, compared column by column, in the lexicographic
    order of their index tuples: the padded-digit key, a selection's indices
    in increasing order, then -1, below every index, so that a prefix sorts
    first."""
    n = masks.shape[-1]
    digits = _positions(masks)
    digits[digits == n] = -1
    return digits


def _first_distinct(
    masks: np.ndarray, valid: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` of each instance's valid rows (m, R) of masks
    (m, R, n), nonempty selections, whose selection no earlier valid row
    has.  Returns them as row numbers of masks.reshape(-1, n), each
    instance's in the lexicographic order of their index tuples, and how
    many each instance has, (m,).

    One stable sort orders the rows by instance, then by selection
    (_selection_keys), then valid before invalid, then by position: the
    first row of each run of one selection is its first valid row, if any,
    and the kept rows come in lexicographic order."""
    m, r, n = masks.shape
    keys = _selection_keys(masks).reshape(m * r, -1)
    instance = np.repeat(np.arange(m), r)
    flat_valid = valid.ravel()
    order = np.lexsort((~flat_valid, *keys.T[::-1], instance))
    keys, instance = keys[order], instance[order]
    first = np.ones(m * r, dtype=bool)
    first[1:] = (instance[1:] != instance[:-1]) | (keys[1:] != keys[:-1]).any(axis=1)
    new = np.empty(m * r, dtype=bool)
    new[order] = first & flat_valid[order]
    new = new.reshape(m, r)
    keep = new & (np.cumsum(new, axis=1) <= count)
    return order[keep.ravel()[order]], np.count_nonzero(keep, axis=1)


def _sampled_selections(
    seeds: np.ndarray,
    n: int,
    count: int,
    nu: np.ndarray,
    wanted: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """sample_selections for several uint64 seeds at once, each on its own
    stream (drawn through the carrier rng, see _streams), as masks
    (m, count, n), each instance's in lexicographic order.  Instance i takes
    the family picks around its nonnegative count nu[i] where wanted[i].

    Every instance's draws are shaped and deduplicated at once.  An instance
    whose rows so far hold fewer than `count` distinct selections draws the
    next block of its stream, until each has them."""
    count = min(count, 2**n - 1)
    m, rows = len(seeds), 2 * count
    head, block = n + 4, rows * (n + 1)
    words = _words(seeds)
    u = np.empty((m, head + block))
    for stream, out in zip(_streams(words, rng), u):
        stream.random(out=out)
    picks, kept = _family_picks(u[:, :head], nu, wanted)
    masks = np.concatenate((picks, _block_masks(u[:, head:].reshape(m, rows, n + 1))), axis=1)
    valid = np.concatenate((kept, np.ones((m, rows), dtype=bool)), axis=1)
    chosen, found = _first_distinct(masks, valid, count)
    drawn = head + block
    while (found < count).any():
        short = np.flatnonzero(found < count)
        further = np.empty((len(short), block))
        for stream, out in zip(_streams(words[short], rng), further):
            stream.random(drawn)
            stream.random(out=out)
        more = np.zeros((m, rows, n), dtype=bool)
        more[short] = _block_masks(further.reshape(len(short), rows, n + 1))
        fresh = np.zeros((m, rows), dtype=bool)
        fresh[short] = True
        masks = np.concatenate((masks, more), axis=1)
        valid = np.concatenate((valid, fresh), axis=1)
        chosen, found = _first_distinct(masks, valid, count)
        drawn += block
    return masks.reshape(-1, n)[chosen].reshape(m, count, n)


def sample_selections(
    seed: int, n: int, count: int, nu: int | None = None
) -> list[tuple[int, ...]]:
    """`count` distinct random nonempty selections of 1..n (at most
    2^n - 1), drawn from the stream of `seed` (read mod 2^64), in
    lexicographic order.

    The stream's first n + 4 uniforms give, when nu is given, the picks
    inside, beyond and straddling the nonnegative block 1..nu
    (_family_picks), which come first.  Then blocks of 2 * count rows of
    n + 1 uniforms each give one random selection per row (_block_masks):
    its size uniform on 1..n, then a uniform subset of that size.  The picks,
    then the rows, are taken in order, each kept if new, until there are
    `count`.  InvalidSpec unless n >= 1, count >= 0 and nu is in 0..n."""
    seed, n, count = _integer(seed, "seed"), _integer(n, "dimension"), _integer(count, "count")
    if n < 1:
        raise InvalidSpec(f"dimension must be >= 1, got {n}")
    if count < 0:
        raise InvalidSpec(f"count must be >= 0, got {count}")
    if nu is not None and not 0 <= _integer(nu, "nu") <= n:
        raise InvalidSpec(f"nu must lie in [0, {n}], got {nu}")
    masks = _sampled_selections(
        _seeds([seed]), n, count, np.array([nu or 0]), np.array([nu is not None]), _carrier()
    )
    return _as_selections(masks[0])


class _Plans(NamedTuple):
    """A window's instances before generation, one entry per instance:
    index (m,), seed (m,) uint64, the words of its stream (m, 4) uint64,
    dimension (m,) and the inertia targets of A and B (m, 2, 3)."""

    index: np.ndarray
    seed: np.ndarray
    words: np.ndarray
    n: np.ndarray
    inertia: np.ndarray


def _plans(
    window: range, master_seed: int, config: CampaignConfig, rng: np.random.Generator
) -> _Plans:
    """The window's instances before generation, drawn through the carrier
    rng (_streams).

    Instance i's seed is derive_seed(master_seed, i).  Unless the config
    pins the inertia, two uniforms of its stream give its dimension, uniform
    on n_min..n_max, and, in families 2-4 (i mod 5), its count of positive
    eigenvalues, uniform on 1..n - 1; family 0 is PSD and family 1 negative
    definite.  Every third instance gets a singular B.  A, B and the sampled
    selections draw from the streams of derive_seed(seed, 1), (seed, 2) and
    (seed, 3): words 1..3 of its stream.
    """
    index = np.arange(window.start, window.stop)
    seed = _derived(np.uint64(master_seed & _MASK64), index)
    words = _words(seed)
    if config.inertia is None:
        u = np.empty((len(index), 2))
        for stream, out in zip(_streams(words, rng), u):
            stream.random(out=out)
        n = config.n_min + _below(u[:, 0], config.n_max - config.n_min + 1)
        family = index % 5
        pos = np.where(
            family == 1, 0, np.where((family == 0) | (n == 1), n, 1 + _below(u[:, 1], n - 1))
        )
        a_inertia = np.stack((pos, n - pos, np.zeros_like(n)), axis=1)
    else:
        n = np.full(len(index), sum(config.inertia))
        a_inertia = np.broadcast_to(np.array(config.inertia), (len(index), 3))
    # Every third instance gets a singular B for boundary coverage.
    singular = ((index % 3 == 2) & (n >= 2)).astype(n.dtype)
    b_inertia = np.stack((n - singular, np.zeros_like(n), singular), axis=1)
    return _Plans(index, seed, words, n, np.stack((a_inertia, b_inertia), axis=1))


def _solved(plans: _Plans, members: list[int], rng: np.random.Generator) -> SpectraStack:
    """The spectra of same-n planned instances, generated, validated and
    solved as one stack: gen_hermitian, gen_psd and instance_spectra at once.
    A and B are generated and validated together, as one (2m, n, n) stack,
    A's first."""
    m, n = len(members), int(plans.n[members[0]])
    seeds = plans.words[members, 1:3].T.ravel()
    layout = plans.inertia[members].swapaxes(0, 1).reshape(2 * m, 3)
    pair = _matrices(_words(seeds), n, layout, np.zeros(2 * m, dtype=bool), np.array([_RANGE]), rng)
    pair, _ = _validated(pair, TOL_HERM)
    pair = pair.reshape(2, m, n, n)
    return _spectra_stack(pair, *_psd_eig(pair[1]))


def _stacked_spectra(
    plans: _Plans, rng: np.random.Generator
) -> Iterator[tuple[list[int], SpectraStack | EigbError]]:
    """The planned instances in same-n stacks, one at a time, as (members,
    spectra): the positions in plans of the stack's instances, in order, and
    their spectra (_solved).  A stack in which a stage raises is solved
    again one instance at a time by the same code, as stacks of one; an
    instance that fails alone gets its error in place of its spectra."""
    for n in dict.fromkeys(plans.n.tolist()):
        group = np.flatnonzero(plans.n == n).tolist()
        size = max(1, STACK_ENTRIES // n**2)
        for k in range(0, len(group), size):
            members = group[k : k + size]
            try:
                yield members, _solved(plans, members, rng)
            except (EigbError, LinAlgError):
                for j in members:
                    try:
                        yield [j], _solved(plans, [j], rng)
                    except EigbError as exc:
                        yield [j], exc


def _index_selections(index: SelectionIndex, i: int) -> list[tuple[int, ...]]:
    """Instance i's selections, as tuples of 1-based indices, read off a
    SelectionIndex (its own set, or the one all instances share)."""
    pos, ks = (index.pos, index.ks) if index.ks.ndim == 1 else (index.pos[i], index.ks[i])
    return [tuple(row[:k]) for row, k in zip((pos.T + 1).tolist(), ks.tolist())]


def _campaign_selections(
    sp: SpectraStack, members: list[int], plans: _Plans, tol: Tolerances, rng: np.random.Generator
) -> SelectionIndex:
    """The SelectionIndex of what each instance of a stack checks: every
    selection up to EXHAUSTIVE_MAX_N (shared, from _exhaustive), else
    SAMPLED_SEQUENCES from each instance's selection stream (drawn through
    the carrier rng), with the family picks around its count of nonnegative
    eigenvalues in families 2-4."""
    n = sp.spec_a.shape[1]
    if n <= EXHAUSTIVE_MAX_N:
        return _exhaustive(n)[1]
    inertia = inertia_counts(sp.spec_a, tol.tol_class)
    masks = _sampled_selections(
        plans.words[members, 3],
        n,
        SAMPLED_SEQUENCES,
        inertia[:, 0] + inertia[:, 2],
        plans.index[members] % 5 >= 2,
        rng,
    )
    return selection_index(masks)


def run_campaign(
    count: int, config: CampaignConfig = CampaignConfig(), master_seed: int = 0
) -> CampaignReport:
    """Generate `count` instances, check every selected inequality, aggregate.

    Failures are collected rather than raised: slack statistics across the
    whole campaign are part of the result.  Identical inputs produce an
    identical report.  master_seed is an integer (see _integer), read mod
    2^64.

    Up to STACK_WINDOW consecutive instances are planned at a time, then
    generated and solved in same-n stacks (_stacked_spectra), then checked
    a stack at a time (_check_stack), and each checked stack is folded into
    statistics that do not depend on the order of the stacks (_fold).  With
    the failure records sorted by instance, the report is the same as one
    instance at a time.  The instances of a stack that failed are solved
    and checked one at a time by the same code; one that still fails (a
    failed eigensolve of A, B or AB, say) gets a "computation" record.
    Instances up to EXHAUSTIVE_MAX_N check the selections of _exhaustive(n),
    whose index is built once per n per process, not once per campaign.
    """
    if count < 1:
        raise InvalidCount(f"instance count must be >= 1, got {count}")
    master_seed = _integer(master_seed, "master seed")
    start = time.monotonic()
    stats: dict[str, CheckStats] = {}
    failures: list[VerificationRecord] = []
    total = passed = 0
    tol = config.tolerances
    rng = _carrier()

    for first in range(0, count, STACK_WINDOW):
        plans = _plans(range(first, min(first + STACK_WINDOW, count)), master_seed, config, rng)
        for members, sp in _stacked_spectra(plans, rng):
            if isinstance(sp, EigbError):
                j = members[0]
                total += 1
                failures.append(
                    _error_record(sp, plans.n[j].item(), plans.index[j].item(), plans.seed[j].item())
                )
                failed = np.zeros(1, dtype=bool)
                _fold(stats, [CheckColumn("computation", ~failed, failed, np.zeros(1), 0.0)])
                continue
            index = _campaign_selections(sp, members, plans, tol, rng)
            checked = _check_stack(sp, index, tol)
            total += checked.passed.size
            passed += int(np.count_nonzero(checked.passed))
            for k in np.flatnonzero(~checked.passed.all(axis=1)).tolist():
                j = members[k]
                failures += SelectionChecks(
                    checked, k, _index_selections(index, k), plans.index[j].item(), plans.seed[j].item()
                ).failures
            _fold(stats, checked.columns)

    # Stable: each instance's records stay in selection order.
    failures.sort(key=lambda record: record.instance_id)
    return CampaignReport(
        total=total,
        passed=passed,
        failed=total - passed,
        checks=[stats[name] for name in sorted(stats)],
        failures=failures,
        wall_time=time.monotonic() - start,
    )
