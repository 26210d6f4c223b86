"""Bound formulas: frozen values from the 3x3 integer case, formula identities,
property-based checks over random sorted spectra, and the batch code and the
public functions built on it against the scalar oracle, bit for bit."""

import contextlib
import dataclasses
import inspect
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eigb
import oracle
from eigb import bounds
from eigb.bounds import (
    TOL_CLASS,
    IndexSequence,
    count_selected_nonnegative,
    gap_bound,
    inertia_of,
    main_bound_report,
    main_bounds,
    ostrowski_ratios,
    pair_bounds,
    psd_product_bounds,
    selected_sum,
    selected_sums,
    selection_bounds,
    selection_bounds_batch,
    selection_index,
    stable_bounds,
    trace_bounds,
    verify_tolerance,
    wielandt_sum_bounds,
    wielandt_sum_bounds_batch,
)
from eigb.errors import (
    DimensionMismatch,
    EigbError,
    IndexOutOfRange,
    InvalidIndexSequence,
    NoSignChange,
    NotNonnegative,
    NotPositiveDefinite,
    NotStable,
    SignConditionViolated,
)
from eigb.linalg import Spectrum, hermitian_eig, product_spectrum, validate_hermitian, validate_psd

SA = Spectrum(values=(3.0, -1.0, -4.0))
SB = Spectrum(values=(3.0, 2.0, 1.0))
SAB = Spectrum(values=(3.0, -3.0, -8.0))
SB2 = Spectrum(values=(3.0, 1.0))
# A vanishing on the range of B (the product is exactly zero), with a
# computed product spectrum of mixed-sign rounding noise.
ZA = Spectrum(values=(2.58, 0.81, -0.62, -4.77))
ZB = Spectrum(values=(3.0, 1.0, 0.0, 0.0))
ZERO_PRODUCT_NOISE = Spectrum(values=(1.1e-15, 9.3e-18, 3.2e-18, -2.2e-15))

A3 = [[1, 2, 0], [2, 1, 0], [0, 0, -4]]
B3 = [[2, -1, 0], [-1, 2, 0], [0, 0, 2]]


def idx_of(indices, n):
    return IndexSequence(indices=indices, n=n)


def spectra(n=None, lo=-10.0, hi=10.0, min_n=1, max_n=8):
    """Strategy: sorted (non-increasing) spectra as Spectrum objects."""
    size = st.just(n) if n is not None else st.integers(min_n, max_n)
    return size.flatmap(
        lambda m: st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
        ).map(lambda vals: Spectrum(values=tuple(sorted(vals, reverse=True))))
    )


def index_sequences(n):
    return st.sets(st.integers(1, n), min_size=1, max_size=n).map(
        lambda s: IndexSequence(indices=tuple(sorted(s)), n=n)
    )


def spectrum_with_indices(lo=-10.0, hi=10.0, min_n=1, max_n=8):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(spectra(n=n, lo=lo, hi=hi), spectra(n=n, lo=0.0, hi=hi), index_sequences(n))
    )


class TestInertia:
    def test_example(self):
        i = inertia_of(SA)
        assert i.as_tuple() == (1, 2, 0)
        assert i.nonnegative == 1

    def test_zero_matrix(self):
        i = inertia_of(Spectrum(values=(0.0, 0.0)))
        assert i.as_tuple() == (0, 0, 2)
        assert i.nonnegative == 2

    def test_threshold_classification(self):
        i = inertia_of(Spectrum(values=(5.0, 1e-15, -2.0)), tol=1e-9)
        assert i.as_tuple() == (1, 1, 1)
        assert i.nonnegative == 2

    @pytest.mark.parametrize(
        "values, tol, expected",
        [
            ((3e-200, -1e-200), 1e-9, (1, 1, 0)),  # the band scales down with the spectrum
            ((1e-320, 0.0), 1e-9, (1, 0, 1)),  # tol * radius underflows to 0
            ((0.0, -1e-320), 1e-9, (0, 1, 1)),
            ((0.0, 0.0), 0.0, (0, 0, 2)),  # an exact zero is zero even at tol = 0
            ((5e-324, -5e-324), 1e-9, (1, 1, 0)),
            ((1.0, -1e-9), 1e-9, (1, 0, 1)),  # the band is closed: its edge is zero
        ],
    )
    def test_zero_band_has_no_floor(self, values, tol, expected):
        assert inertia_of(Spectrum(values=values), tol).as_tuple() == expected

    @given(spectra())
    def test_counts_sum_to_n(self, spec):
        i = inertia_of(spec)
        assert i.n == len(spec)

    @given(spectra())
    def test_negation_identity(self, spec):
        # nonneg(A) + nonneg(-A) = n + zeros(A)
        i = inertia_of(spec)
        neg = Spectrum(values=tuple(sorted((-v for v in spec), reverse=True)))
        j = inertia_of(neg)
        assert i.nonnegative + j.nonnegative == len(spec) + i.zero


class TestSelectedCounts:
    def test_example_cases(self):
        assert count_selected_nonnegative(SA, idx_of((1, 2), 3)) == 1
        assert count_selected_nonnegative(SA, idx_of((2, 3), 3)) == 0
        assert count_selected_nonnegative(SA, idx_of((1, 3), 3)) == 1

    def test_all_positive(self):
        spec = Spectrum(values=(5.0, 2.0, 1.0))
        assert count_selected_nonnegative(spec, idx_of((1, 2, 3), 3)) == 3

    @given(spectrum_with_indices())
    def test_at_most_total_nonnegative(self, data):
        spec, _, idx = data
        kap = count_selected_nonnegative(spec, idx)
        assert 0 <= kap <= idx.k
        assert kap <= inertia_of(spec).nonnegative

    @given(spectrum_with_indices())
    def test_selected_nonnegative_is_prefix(self, data):
        spec, _, idx = data
        kap = count_selected_nonnegative(spec, idx)
        cut = bounds.zero_cut(spec)
        flags = [spec[i - 1] >= -cut for i in idx.indices]
        assert flags == [t < kap for t in range(idx.k)]


class TestSelectedSum:
    def test_example_values(self):
        assert selected_sum(SAB, idx_of((1, 2), 3)) == 0.0
        assert selected_sum(SAB, idx_of((1, 3), 3)) == -5.0

    def test_full_selection(self):
        assert selected_sum(SAB, idx_of((1, 2, 3), 3)) == -8.0

    def test_dimension_guard(self):
        with pytest.raises(IndexOutOfRange):
            selected_sum(SAB, idx_of((1,), 2))


class TestIndexSequence:
    def test_rejects_empty(self):
        with pytest.raises(InvalidIndexSequence):
            IndexSequence(indices=(), n=3)

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidIndexSequence):
            IndexSequence(indices=(3, 1), n=3)

    def test_rejects_duplicate(self):
        with pytest.raises(InvalidIndexSequence):
            IndexSequence(indices=(2, 2), n=3)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(InvalidIndexSequence):
            IndexSequence(indices=(0, 1), n=3)
        with pytest.raises(InvalidIndexSequence):
            IndexSequence(indices=(4,), n=3)


class TestMainBounds:
    @pytest.mark.parametrize(
        "indices,expected_upper,expected_lower,expected_kap",
        [((1, 2), 8.0, 0.0, 1), ((1, 3), 5.0, -9.0, 1), ((2, 3), -6.0, -14.0, 0)],
    )
    def test_example_cases(self, indices, expected_upper, expected_lower, expected_kap):
        lower, upper, kap = main_bounds(SA, SB, idx_of(indices, 3))
        assert upper == expected_upper
        assert lower == expected_lower
        assert kap == expected_kap

    def test_scalar_b_collapses(self):
        sb = Spectrum(values=(2.0, 2.0, 2.0))
        for indices in [(1,), (2, 3), (1, 2, 3)]:
            idx = idx_of(indices, 3)
            lower, upper, _ = main_bounds(SA, sb, idx)
            assert lower == upper
            assert lower == pytest.approx(2.0 * selected_sum(SA, idx), rel=1e-14)

    @given(spectrum_with_indices(), st.floats(0.01, 100.0))
    def test_positive_scaling_equivariance(self, data, c):
        spec_a, spec_b, idx = data
        lower, upper, kap = main_bounds(spec_a, spec_b, idx)
        scaled_b = Spectrum(values=tuple(c * v for v in spec_b))
        s_lower, s_upper, s_kap = main_bounds(spec_a, scaled_b, idx)
        assert s_kap == kap
        mag = 1 + abs(c) * max(map(abs, spec_a)) * max(map(abs, spec_b)) * idx.k
        assert s_lower == pytest.approx(c * lower, abs=1e-12 * mag)
        assert s_upper == pytest.approx(c * upper, abs=1e-12 * mag)

    @given(spectrum_with_indices())
    def test_lower_never_exceeds_upper(self, data):
        spec_a, spec_b, idx = data
        lower, upper, _ = main_bounds(spec_a, spec_b, idx)
        assert lower <= upper + verify_tolerance(spec_a, spec_b, idx.k)

    def test_report_branches(self):
        assert main_bound_report(SA, SB, SAB, idx_of((1,), 3)).branch == "all-selected-nonnegative"
        assert main_bound_report(SA, SB, SAB, idx_of((2, 3), 3)).branch == "all-selected-negative"
        assert main_bound_report(SA, SB, SAB, idx_of((1, 2), 3)).branch == "mixed-selection"

    def test_report_slacks(self):
        r = main_bound_report(SA, SB, SAB, idx_of((1, 2), 3))
        assert r.lower_slack == 0.0
        assert r.upper_slack == 8.0


class TestPsdProductBounds:
    def test_two_by_two(self):
        lower, upper = psd_product_bounds(
            Spectrum(values=(2.0, 1.0)), Spectrum(values=(3.0, 1.0)), idx_of((1, 2), 2)
        )
        assert (lower, upper) == (5.0, 7.0)

    def test_two_by_two_trace_in_bracket(self):
        # Rotate B against diagonal A so the product trace is nontrivial.
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        a = validate_hermitian(np.diag([2.0, 1.0]))
        b = validate_psd(rot @ np.diag([3.0, 1.0]) @ rot.T)
        tr = float(np.trace(a.matrix @ b.matrix).real)
        assert 5.0 - 1e-12 <= tr <= 7.0 + 1e-12
        np.testing.assert_allclose(product_spectrum(a, b).sum(), tr, atol=1e-9)

    def test_identity_b_collapse(self):
        spec_a = Spectrum(values=(4.0, 2.0, 0.5))
        ones = Spectrum(values=(1.0, 1.0, 1.0))
        idx = idx_of((1, 3), 3)
        lower, upper = psd_product_bounds(spec_a, ones, idx)
        assert lower == upper == selected_sum(spec_a, idx)

    def test_zero_spectrum(self):
        zero = Spectrum(values=(0.0, 0.0))
        assert psd_product_bounds(zero, Spectrum(values=(2.0, 1.0)), idx_of((1, 2), 2)) == (0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(NotNonnegative):
            psd_product_bounds(SA, SB, idx_of((1, 2), 3))

    @given(spectrum_with_indices(lo=0.0))
    def test_equals_main_when_nonnegative(self, data):
        spec_a, spec_b, idx = data
        lower, upper = psd_product_bounds(spec_a, spec_b, idx)
        m_lower, m_upper, kap = main_bounds(spec_a, spec_b, idx)
        assert kap == idx.k
        assert (lower, upper) == (m_lower, m_upper)


class TestStableBounds:
    def test_two_by_two(self):
        lower, upper = stable_bounds(
            Spectrum(values=(-1.0, -4.0)), Spectrum(values=(3.0, 1.0)), idx_of((1, 2), 2)
        )
        assert (lower, upper) == (-13.0, -7.0)

    def test_two_by_two_containment(self):
        theta = 1.1
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        a = validate_hermitian(rot @ np.diag([-1.0, -4.0]) @ rot.T)
        b = validate_psd(np.diag([3.0, 1.0]))
        actual = product_spectrum(a, b).sum()
        assert -13.0 - 1e-9 <= actual <= -7.0 + 1e-9

    def test_zero_spectrum(self):
        zero = Spectrum(values=(0.0, 0.0, 0.0))
        assert stable_bounds(zero, SB, idx_of((1, 2, 3), 3)) == (0.0, 0.0)

    def test_rejects_positive(self):
        with pytest.raises(NotStable):
            stable_bounds(Spectrum(values=(1.0, -2.0)), Spectrum(values=(1.0, 1.0)), idx_of((1,), 2))

    @given(spectrum_with_indices(hi=10.0))
    def test_equals_main_for_nonpositive(self, data):
        spec_a, spec_b, idx = data
        # Nonpositive spectrum whose within-tolerance entries are exact zeros:
        # the identity with main_bounds is exact only then.
        flipped = Spectrum(
            values=tuple(
                sorted((-v if v > 1e-6 else 0.0 for v in spec_a), reverse=True)
            )
        )
        lower, upper = stable_bounds(flipped, spec_b, idx)
        m_lower, m_upper, _ = main_bounds(flipped, spec_b, idx)
        assert (lower, upper) == (m_lower, m_upper)


class TestWielandtSumBounds:
    def test_zero_b_collapse(self):
        zero = Spectrum(values=(0.0, 0.0, 0.0))
        idx = idx_of((1, 3), 3)
        lower, upper = wielandt_sum_bounds(SA, zero, idx)
        assert lower == upper == selected_sum(SA, idx)

    def test_k1_example(self):
        lower, upper = wielandt_sum_bounds(
            Spectrum(values=(1.0, 0.0)), Spectrum(values=(1.0, -1.0)), idx_of((1,), 2)
        )
        assert (lower, upper) == (0.0, 2.0)

    def test_random_pair_bracket(self):
        rng = np.random.default_rng(11)
        z1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = validate_hermitian((z1 + z1.conj().T) / 2)
        b = validate_hermitian((z2 + z2.conj().T) / 2)
        spec_a = hermitian_eig(a).spectrum
        spec_b = hermitian_eig(b).spectrum
        spec_sum = hermitian_eig(validate_hermitian(a.matrix + b.matrix)).spectrum
        idx = idx_of((1, 3), 4)
        lower, upper = wielandt_sum_bounds(spec_a, spec_b, idx)
        actual = selected_sum(spec_sum, idx)
        assert lower - 1e-10 <= actual <= upper + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wielandt_sum_bounds(SA, Spectrum(values=(1.0,)), idx_of((1,), 3))


class TestTraceBounds:
    def test_example(self):
        lower, upper = trace_bounds(SA, SB)
        assert (lower, upper) == (-11.0, 3.0)
        assert lower <= -8.0 <= upper

    def test_identity_b(self):
        ones = Spectrum(values=(1.0, 1.0, 1.0))
        lower, upper = trace_bounds(SA, ones)
        assert lower == upper == sum(SA.values)

    def test_simple_pair(self):
        s = Spectrum(values=(1.0, 0.0))
        assert trace_bounds(s, s) == (0.0, 1.0)

    @given(spectra(min_n=2), st.data())
    def test_full_selection_matches_main(self, spec_a, data):
        n = len(spec_a)
        spec_b = data.draw(spectra(n=n, lo=0.0))
        idx = idx_of(tuple(range(1, n + 1)), n)
        m_lower, m_upper, _ = main_bounds(spec_a, spec_b, idx)
        t_lower, t_upper = trace_bounds(spec_a, spec_b)
        assert (m_lower, m_upper) == (t_lower, t_upper)


def dominance(spec_a, spec_b, idx):
    """(T1, T2, dominance_ok) as `eigb bounds` reports them at the default tolerance."""
    sums = selection_bounds(spec_a, spec_b, idx)
    return sums.t1, sums.t2, sums.t1 <= sums.t2 + verify_tolerance(spec_a, spec_b, idx.k)


class TestSplittingUpperBound:
    def test_example_values(self):
        assert selection_bounds(SA, SB, idx_of((1, 2), 3)).split_upper == 8.0
        assert selection_bounds(SA, SB, idx_of((1, 3), 3)).split_upper == 8.0

    def test_dominates_main_example(self):
        _, main_up, _ = main_bounds(SA, SB, idx_of((1, 3), 3))
        assert main_up == 5.0
        assert selection_bounds(SA, SB, idx_of((1, 3), 3)).split_upper >= main_up

    def test_equals_main_for_psd(self):
        spec_a = Spectrum(values=(4.0, 2.0, 1.0))
        for indices in [(1,), (1, 3), (2, 3), (1, 2, 3)]:
            idx = idx_of(indices, 3)
            _, main_up, _ = main_bounds(spec_a, SB, idx)
            assert selection_bounds(spec_a, SB, idx).split_upper == main_up

    @given(spectrum_with_indices())
    def test_never_tighter_than_main(self, data):
        spec_a, spec_b, idx = data
        _, main_up, _ = main_bounds(spec_a, spec_b, idx)
        split_up = selection_bounds(spec_a, spec_b, idx).split_upper
        assert main_up <= split_up + verify_tolerance(spec_a, spec_b, idx.k)


class TestCompareSplitVsMain:
    def test_example(self):
        t1, t2, ok = dominance(SA, SB, idx_of((1, 3), 3))
        assert (t1, t2) == (-4.0, -1.0)
        assert ok

    def test_both_empty(self):
        spec_a = Spectrum(values=(2.0, 1.0))
        t1, t2, ok = dominance(spec_a, Spectrum(values=(1.0, 0.5)), idx_of((1, 2), 2))
        assert (t1, t2) == (0.0, 0.0)
        assert ok

    @given(spectrum_with_indices())
    def test_dominance_always(self, data):
        spec_a, spec_b, idx = data
        _, _, ok = dominance(spec_a, spec_b, idx)
        assert ok

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_dominance_fuzz_matrix_level(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = validate_hermitian((z + z.conj().T) / 2)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = validate_psd(w @ w.conj().T)
        spec_a = hermitian_eig(a).spectrum
        k = int(rng.integers(1, n + 1))
        idx = IndexSequence(
            indices=tuple(sorted(rng.choice(range(1, n + 1), size=k, replace=False).tolist())),
            n=n,
        )
        _, _, ok = dominance(spec_a, b.spectrum, idx)
        assert ok


class TestPairBounds:
    def test_example_adjacent(self):
        lower, upper = pair_bounds(SA, SB, SAB, 1, 2)
        assert (lower, upper) == (0.0, 8.0)
        assert lower <= SAB[0] + SAB[1] <= upper

    def test_example_outer(self):
        lower, upper = pair_bounds(SA, SB, SAB, 1, 3)
        assert (lower, upper) == (-9.0, 5.0)
        assert lower <= SAB[0] + SAB[2] <= upper

    def test_sign_gate_first(self):
        with pytest.raises(SignConditionViolated):
            pair_bounds(SA, SB, SAB, 2, 3)

    def test_sign_gate_second(self):
        spec_ab = Spectrum(values=(3.0, 1.0, -8.0))
        with pytest.raises(SignConditionViolated):
            pair_bounds(SA, SB, spec_ab, 1, 2)

    def test_order_gate(self):
        with pytest.raises(IndexOutOfRange):
            pair_bounds(SA, SB, SAB, 2, 2)

    def test_rounding_noise_is_not_signed(self):
        # The product is exactly zero; its computed spectrum is noise of about
        # eps * rho(A) * rho(B), which must not count as positive or negative.
        with pytest.raises(SignConditionViolated):
            pair_bounds(ZA, ZB, ZERO_PRODUCT_NOISE, 1, 4)


class TestGapBound:
    def test_example(self):
        p, q, gap, bound = gap_bound(SA, SB, SAB)
        assert (p, q) == (1, 2)
        assert gap == 6.0
        assert bound == 12.0

    def test_one_signed_rejected(self):
        psd = Spectrum(values=(3.0, 1.0, 0.5))
        with pytest.raises(NoSignChange):
            gap_bound(psd, SB, psd)

    def test_rounding_noise_is_not_signed(self):
        # Three "positive" noise values would put p at a negative eigenvalue
        # of A (a ConsistencyError) if the noise were classified by its own
        # radius instead of by rho(A) * rho(B).
        with pytest.raises(NoSignChange):
            gap_bound(ZA, ZB, ZERO_PRODUCT_NOISE)

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_contractive_b_narrows_gap(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        pos = int(rng.integers(1, n))
        vals = np.concatenate([rng.uniform(0.5, 5, pos), -rng.uniform(0.5, 5, n - pos)])
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q_mat, _ = np.linalg.qr(z)
        a = validate_hermitian((q_mat * vals) @ q_mat.conj().T)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        raw = w @ w.conj().T
        b = validate_psd(raw / (np.linalg.eigvalsh(raw).max() * 1.25))
        spec_a = hermitian_eig(a).spectrum
        spec_ab = product_spectrum(a, b)
        try:
            p, q, gap, bound = gap_bound(spec_a, b.spectrum, spec_ab)
        except NoSignChange:
            return
        assert gap <= bound + 1e-9
        assert gap <= (spec_a[p - 1] - spec_a[q - 1]) + 1e-9


class TestOstrowskiRatios:
    def test_example(self):
        rep = ostrowski_ratios(SA, SAB, SB)
        assert rep.ratios == ((1, 1.0), (2, 3.0), (3, 2.0))
        assert (rep.low, rep.high) == (1.0, 3.0)
        for _, r in rep.ratios:
            assert rep.low <= r <= rep.high

    def test_scalar_b(self):
        spec_b = Spectrum(values=(2.5, 2.5, 2.5))
        spec_ab = Spectrum(values=tuple(2.5 * v for v in SA))
        rep = ostrowski_ratios(SA, spec_ab, spec_b)
        for _, r in rep.ratios:
            assert r == pytest.approx(2.5, rel=1e-14)

    def test_singular_b_rejected(self):
        singular = Spectrum(values=(3.0, 1.0, 0.0))
        with pytest.raises(NotPositiveDefinite):
            ostrowski_ratios(SA, SAB, singular)

    def test_zero_factor_entries_skipped(self):
        spec_a = Spectrum(values=(2.0, 0.0, -1.0))
        spec_ab = Spectrum(values=(4.0, 0.0, -2.0))
        rep = ostrowski_ratios(spec_a, spec_ab, SB)
        assert [t for t, _ in rep.ratios] == [1, 3]


class TestSignBoundsK1:
    """k=1 reduction: one selected eigenvalue pairs with an extreme of B."""

    @given(spectra(min_n=2, max_n=6), st.data())
    def test_pairings(self, spec_a, data):
        n = len(spec_a)
        spec_b = data.draw(spectra(n=n, lo=0.0))
        t = data.draw(st.integers(1, n))
        idx = idx_of((t,), n)
        lower, upper, kap = main_bounds(spec_a, spec_b, idx)
        val = spec_a[t - 1]
        if kap == 1:
            assert upper == val * spec_b[0]
            assert lower == val * spec_b[n - 1]
        else:
            assert upper == val * spec_b[n - 1]
            assert lower == val * spec_b[0]


class TestSelectionBoundsBatch:
    """The batched kernel against the scalar oracle, every selection, to the bit."""

    @staticmethod
    def bits(values):
        return [float(v).hex() for v in values]

    @settings(max_examples=60, deadline=None)
    @given(spectra(min_n=1, max_n=7), st.data())
    def test_matches_scalar(self, spec_a, data):
        self.assert_matches(spec_a, data.draw(spectra(n=len(spec_a), lo=-1.0)))

    def test_value_on_the_zero_cut(self):
        # -1e-9 is exactly -cut: kap counts it as nonnegative, inertia as negative.
        self.assert_matches(Spectrum(values=(1.0, -1e-9, -1.0)), SB)

    def assert_matches(self, spec_a, spec_b):
        n = len(spec_a)
        seqs = [
            IndexSequence(indices=c, n=n)
            for k in range(1, n + 1)
            for c in combinations(range(1, n + 1), k)
        ]
        selections = [idx.indices for idx in seqs]
        a, b_rows = np.array([spec_a.values]), np.array([spec_b.values])
        # The selections shared by the stack, and as the one instance's own.
        for index in (selection_index(selections, n), selection_index(selections, n, 1)):
            batch = bounds.SelectionBoundsBatch(
                *(x[0] for x in selection_bounds_batch(a, b_rows, index))
            )
            scalar = [oracle.selection_bounds(spec_a, spec_b, idx) for idx in seqs]
            for field in ("lower", "upper", "split_upper", "t1", "t2"):
                assert self.bits(getattr(batch, field)) == self.bits(
                    getattr(s, field) for s in scalar
                )
            assert batch.kap.tolist() == [s.kap for s in scalar]
            assert tuple(batch.inertia.tolist()) == oracle.inertia_of(spec_a).as_tuple()
            b = oracle.clamped(spec_b)
            psd = [oracle.bracket(oracle.selected(spec_a, idx), b, idx.k) for idx in seqs]
            stable = [oracle.bracket(oracle.selected(spec_a, idx), b, 0) for idx in seqs]
            assert self.bits(batch.psd_lower) == self.bits(lo for lo, _ in psd)
            assert self.bits(batch.psd_upper) == self.bits(up for _, up in psd)
            assert self.bits(batch.stable_lower) == self.bits(lo for lo, _ in stable)
            assert self.bits(batch.stable_upper) == self.bits(up for _, up in stable)
            w_lo, w_up = wielandt_sum_bounds_batch(a, b_rows, index)
            wielandt = [oracle.wielandt_sum_bounds(spec_a, spec_b, idx) for idx in seqs]
            assert self.bits(w_lo[0]) == self.bits(lo for lo, _ in wielandt)
            assert self.bits(w_up[0]) == self.bits(up for _, up in wielandt)
            assert self.bits(selected_sums(a, index)[0]) == self.bits(
                oracle.selected_sum(spec_a, idx) for idx in seqs
            )

    def test_dimension_guard(self):
        index = selection_index([(1, 2)], 3)
        with pytest.raises(IndexOutOfRange):
            selected_sums(np.array([[1.0, 0.0]]), index)
        with pytest.raises(DimensionMismatch):
            wielandt_sum_bounds_batch(np.array([SA.values]), np.array([[1.0, 0.0]]), index)


# Spectrum entries: moderate values, and the zeros, band edges and extreme
# scales at which the zero cuts underflow and the pairing sums overflow.
entries = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from(
        [0.0, -0.0, 1e-9, -1e-9, 5e-324, 1e-300, -1e-300, 1e200, -1e200, 1.7e308, -1.7e308]
    ),
)


def any_spectra(n, nonnegative=False):
    return st.lists(entries, min_size=n, max_size=n).map(
        lambda vals: Spectrum(
            values=tuple(sorted((abs(v) if nonnegative else v for v in vals), reverse=True))
        )
    )


@st.composite
def arguments(draw):
    """Spectra of A, B and AB, a selection and a tolerance, usually all of one
    dimension; one in eight spectra or selections has another, so that the
    errors of every kind occur, several at once.  B is nonnegative half of
    the time."""
    n = draw(st.integers(1, 6))

    def dimension():
        return draw(st.sampled_from([n] * 7 + [n + 1 if n == 1 else n - 1]))

    spec_a = draw(any_spectra(n))
    spec_b = draw(any_spectra(dimension(), nonnegative=draw(st.booleans())))
    spec_ab = draw(any_spectra(dimension()))
    idx = draw(index_sequences(dimension()))
    tol = draw(
        st.one_of(st.sampled_from([TOL_CLASS, 0.0, 0.5]), st.floats(0.0, 1.0), st.floats(-1.0, 0.0))
    )
    return spec_a, spec_b, spec_ab, idx, tol


# name -> the arguments of the function of that name, from arguments().
# ostrowski_ratios takes |tol|: at a negative tol it reports the ratio at a
# zero eigenvalue of A, which divides by zero (ZeroDivisionError on Python
# floats, inf or nan in numpy).
SCALAR_CALLS = {
    "inertia_of": lambda a, b, ab, idx, tol: (a, tol),
    "count_selected_nonnegative": lambda a, b, ab, idx, tol: (a, idx, tol),
    "selected_sum": lambda a, b, ab, idx, tol: (ab, idx),
    "selection_bounds": lambda a, b, ab, idx, tol: (a, b, idx, tol),
    "main_bounds": lambda a, b, ab, idx, tol: (a, b, idx, tol),
    "main_bound_report": lambda a, b, ab, idx, tol: (a, b, ab, idx, tol),
    "psd_product_bounds": lambda a, b, ab, idx, tol: (a, b, idx, tol),
    "stable_bounds": lambda a, b, ab, idx, tol: (a, b, idx, tol),
    "wielandt_sum_bounds": lambda a, b, ab, idx, tol: (a, b, idx),
    "trace_bounds": lambda a, b, ab, idx, tol: (a, b),
    "gap_bound": lambda a, b, ab, idx, tol: (a, b, ab, tol),
    "ostrowski_ratios": lambda a, b, ab, idx, tol: (a, ab, b, abs(tol)),
    "verify_tolerance": lambda a, b, ab, idx, tol: (a, b, idx.k, abs(tol)),
}


def exact(value):
    """value with every float as its hex and every part tagged with its
    type: equal for two values only if they are equal bit for bit and type
    for type (a numpy scalar is not a Python float or int)."""
    if type(value) is float:
        return "float", value.hex()
    if isinstance(value, tuple):
        return type(value).__name__, [exact(v) for v in value]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [exact(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return type(value).__name__, value


def outcome(func, args):
    """exact(func(*args)), or the class and message of what it raises."""
    try:
        return exact(func(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return "raised", type(exc).__name__, str(exc)


class TestScalarFunctions:
    """Each function on Spectrum objects runs the batch code on a stack of
    one; it gives the scalar oracle's result bit for bit, in Python types,
    and raises its error (the first of several) with its message."""

    def test_every_function_is_covered(self):
        public = {name for name in eigb.__all__ if inspect.isfunction(getattr(bounds, name, None))}
        assert public - set(SCALAR_CALLS) == {"pair_bounds"}  # one implementation only

    @pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
    @settings(max_examples=100, deadline=None)
    @given(args=arguments())
    # A zero eigenvalue of A that Ostrowski skips, and gap_bound's
    # ConsistencyError (SA against a product that changes sign at 2, 3).
    @example(args=(Spectrum(values=(0.0, -2.0)), SB2, Spectrum(values=(0.0, -3.0)), idx_of((1,), 2), 0.0))
    @example(args=(SA, SB, Spectrum(values=(3.0, 1.0, -8.0)), idx_of((2, 3), 3), TOL_CLASS))
    def test_matches_oracle(self, name, args):
        call = SCALAR_CALLS[name](*args)
        assert outcome(getattr(bounds, name), call) == outcome(getattr(oracle, name), call)

    @pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
    def test_dimension_errors_in_order(self, name):
        # A, B and AB of three lengths and a selection of a fourth: the first
        # check each function makes raises.
        a, b, ab = SA, Spectrum(values=(1.0, 0.5)), Spectrum(values=(1.0,))
        call = SCALAR_CALLS[name](a, b, ab, idx_of((1,), 4), TOL_CLASS)
        want = outcome(getattr(oracle, name), call)
        assert outcome(getattr(bounds, name), call) == want
        assert want[0] == "raised" or name in ("inertia_of", "verify_tolerance")

    def test_results_serialize_as_json(self):
        import json

        values = {}
        for name in sorted(SCALAR_CALLS):
            # A mixed, PSD and stable A: each function returns for one of them.
            for spec_a in (SA, SB, Spectrum(values=(-1.0, -2.0, -4.0))):
                call = SCALAR_CALLS[name](spec_a, SB, SAB, idx_of((1, 3), 3), TOL_CLASS)
                with contextlib.suppress(EigbError):
                    value = getattr(bounds, name)(*call)
                    value = dataclasses.astuple(value) if dataclasses.is_dataclass(value) else value
                    values.setdefault(name, []).append(value)
        assert set(values) == set(SCALAR_CALLS)
        json.dumps(values)

    def test_overflow_is_silent(self):
        # Python floats overflow to inf silently; so must the stack of one
        # (a RuntimeWarning is an error in this suite).
        big = Spectrum(values=(1.7e308, 1.7e308))
        idx = idx_of((1, 2), 2)
        for name in ("trace_bounds", "main_bounds", "selected_sum", "wielandt_sum_bounds"):
            call = SCALAR_CALLS[name](big, big, big, idx, TOL_CLASS)
            assert outcome(getattr(bounds, name), call) == outcome(getattr(oracle, name), call)
        assert bounds.main_bounds(big, big, idx)[:2] == (float("inf"), float("inf"))
