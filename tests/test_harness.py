"""Generators, per-instance checks, and campaign aggregation."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eigb.bounds import (
    TOL_VERIFY_BASE,
    IndexSequence,
    gap_bound,
    inertia_of,
    selection_index,
)
from eigb.errors import (
    ConsistencyError,
    EigbError,
    InvalidCount,
    InvalidIndexSequence,
    InvalidSpec,
)
from eigb.harness import (
    EXHAUSTIVE_MAX_N,
    SAMPLED_SEQUENCES,
    STACK_WINDOW,
    CampaignConfig,
    CampaignReport,
    CheckStats,
    GeneratorSpec,
    SelectionChecks,
    SpectraStack,
    Tolerances,
    all_selections,
    check_selections,
    derive_seed,
    gen_hermitian,
    gen_psd,
    instance_spectra,
    run_campaign,
    sample_selections,
    _block_selections,
    _check_stack,
    _error_record,
    _exhaustive,
    _generated,
    _haar_unitary,
    _plans,
    _sampled_selections,
    _streams,
    _words,
)
from eigb.linalg import Spectrum, hermitian_eig, validate_hermitian, validate_psd
from oracle import run_checks

A3 = [[1, 2, 0], [2, 1, 0], [0, 0, -4]]
B3 = [[2, -1, 0], [-1, 2, 0], [0, 0, 2]]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(2024, 5) == derive_seed(2024, 5)

    def test_distinct_streams(self):
        seeds = {derive_seed(2024, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_master_separation(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestGeneratorSpec:
    def test_bad_inertia_sum(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n=3, seed=1, inertia_target=(1, 1, 0))

    def test_bad_range(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n=3, seed=1, eigenvalue_range=(-1.0, 2.0))

    def test_bad_dimension(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(n=0, seed=1)


class TestGenHermitian:
    def test_deterministic_bitwise(self):
        spec = GeneratorSpec(n=5, seed=42, inertia_target=(2, 2, 1))
        m1 = gen_hermitian(spec).matrix
        m2 = gen_hermitian(spec).matrix
        assert np.array_equal(m1, m2)

    def test_psd_family(self):
        spec = GeneratorSpec(n=4, seed=7, inertia_target=(4, 0, 0))
        spec_a = hermitian_eig(gen_hermitian(spec)).spectrum
        assert inertia_of(spec_a).as_tuple() == (4, 0, 0)

    def test_negative_definite_family(self):
        spec = GeneratorSpec(n=4, seed=8, inertia_target=(0, 4, 0))
        spec_a = hermitian_eig(gen_hermitian(spec)).spectrum
        assert inertia_of(spec_a).as_tuple() == (0, 4, 0)

    def test_inertia_round_trip(self):
        spec = GeneratorSpec(n=5, seed=42, inertia_target=(2, 2, 1))
        spec_a = hermitian_eig(gen_hermitian(spec)).spectrum
        assert inertia_of(spec_a).as_tuple() == (2, 2, 1)

    def test_recipe(self):
        # Q diag(values) Q*: the stream's uniforms give the values, its
        # Gaussians the complex matrix whose QR gives Q, with the diagonal
        # of R made positive.
        spec = GeneratorSpec(n=5, seed=42, inertia_target=(2, 2, 1))
        rng = stream(42)
        values = recipe_values(rng, spec, nonnegative=False)
        re, im = rng.standard_normal((2, 5, 5))
        q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        want = (q * values) @ q.conj().T
        np.testing.assert_allclose(gen_hermitian(spec).matrix, want, rtol=0, atol=1e-12)

    def test_spectrum_matches_targets(self):
        spec = GeneratorSpec(n=6, seed=3, inertia_target=(3, 2, 1))
        targets = np.sort(recipe_values(stream(3), spec, nonnegative=False))[::-1]
        got = np.array(hermitian_eig(gen_hermitian(spec)).spectrum.values)
        np.testing.assert_allclose(got, targets, rtol=1e-9, atol=1e-9)

    def test_seed_read_mod_2_64(self):
        # A negative or oversized seed names the stream of its residue.
        for seed, residue in [(-1, 2**64 - 1), (-(2**64) + 5, 5), (2**64 + 7, 7)]:
            spec = GeneratorSpec(n=3, seed=seed, inertia_target=(1, 1, 1))
            want = gen_hermitian(GeneratorSpec(n=3, seed=residue, inertia_target=(1, 1, 1)))
            assert bits(gen_hermitian(spec).matrix.view(float)) == bits(want.matrix.view(float))
            assert np.array_equal(
                gen_psd(GeneratorSpec(n=3, seed=seed)).matrix,
                gen_psd(GeneratorSpec(n=3, seed=residue)).matrix,
            )


def stream(seed):
    """The stream of seed, from its words derive_seed(seed, 0..3): the state
    is words 0 and 1, the increment words 2 and 3, made odd."""
    w = [derive_seed(seed, j) for j in range(4)]
    bits = np.random.PCG64(0)
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": w[0] << 64 | w[1], "inc": w[2] << 64 | w[3] | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bits)


def recipe_values(rng, spec, nonnegative):
    """The target eigenvalues of a spec, one at a time, from one random(2n) draw."""
    n = spec.n
    lo, hi = spec.eigenvalue_range
    u = rng.random(2 * n).tolist()
    pos, neg, _ = spec.inertia_target or (n, 0, 0)
    values = []
    for t in range(n):
        if spec.inertia_target is None and not nonnegative:
            sign = -1.0 if u[n + t] < 0.5 else 1.0
        else:
            sign = 1.0 if t < pos else -1.0 if t < pos + neg else 0.0
        values.append((lo + (hi - lo) * u[t]) * sign)
    return np.array(values)


def first_of_sort(keys, k):
    """The first k positions of a stable sort of keys, 1-based and ascending."""
    return tuple(sorted(1 + t for t in sorted(range(len(keys)), key=keys.__getitem__)[:k]))


def recipe_selections(seed, n, count, nu=None):
    """sample_selections one row at a time, on Python floats."""
    count = min(count, 2**n - 1)
    rows = 2 * count
    rng = stream(seed)
    head = rng.random(n + 4).tolist()
    chosen = []
    if nu is not None:
        if nu >= 1:
            chosen.append(first_of_sort(head[:nu], 1 + int(head[n] * nu)))
        if nu < n:
            beyond = first_of_sort(head[nu:n], 1 + int(head[n + 1] * (n - nu)))
            chosen.append(tuple(nu + t for t in beyond))
        if 1 <= nu < n:
            chosen.append((1 + int(head[n + 2] * nu), nu + 1 + int(head[n + 3] * (n - nu))))
    while len(chosen) < count:
        for row in rng.random((rows, n + 1)).tolist():
            selection = first_of_sort(row[:n], 1 + int(row[n] * n))
            if selection not in chosen:
                chosen.append(selection)
            if len(chosen) == count:
                break
    return sorted(chosen)


class TestGeneratorStreams:
    """The campaign's streams: seeding from derive_seed's words, the draws
    of a generated matrix, and the sampled selections, each against a
    one-at-a-time recipe written here, with golden values that pin the
    streams to numpy's PCG64."""

    INERTIAS = [None, (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3),
                (2, 3, 0), (2, 0, 3), (0, 2, 3), (2, 2, 1), (1, 5, 2)]
    SEEDS = [0, 1, 2**64 - 1]

    def test_words_are_derive_seed(self):
        seeds = self.SEEDS + [-1, 2**64, 2**70 + 3, *range(2, 40)]
        assert _words(seeds).tolist() == [[derive_seed(s, j) for j in range(4)] for s in seeds]

    def test_golden_first_draws(self):
        first = [rng.random(3).tolist() for rng in _streams(_words(self.SEEDS))]
        assert first == [
            [0.31180829186671066, 0.6183988066074692, 0.23095412452404473],
            [0.9656098517096204, 0.6061045069762236, 0.8957877462602849],
            [0.2847459492965757, 0.7056451692254766, 0.8747189373628952],
        ]
        assert first == [stream(s).random(3).tolist() for s in self.SEEDS]

    def test_streams_ignore_earlier_draws(self):
        # A bounded 32-bit draw leaves half a 64-bit output buffered; the
        # next stream starts clean all the same.
        seeds = [5, 6, 5]
        got = []
        for rng in _streams(_words(seeds)):
            got.append(rng.random(2).tolist())
            rng.integers(0, 7, size=3, dtype=np.uint32)
        assert got == [stream(s).random(2).tolist() for s in seeds]
        assert got[0] == got[2]

    @pytest.mark.parametrize(
        "inertia, nonnegative",
        [(t, False) for t in INERTIAS] + [(t, True) for t in INERTIAS if t is None or not t[1]],
        ids=str,
    )
    def test_instance_draws(self, inertia, nonnegative):
        specs = []
        for seed in [*range(20), -3, 2**64 - 1]:
            n = sum(inertia) if inertia else 1 + seed % 8
            spec = GeneratorSpec(n=n, seed=seed, inertia_target=inertia)
            rng = stream(seed)
            values = recipe_values(rng, spec, nonnegative)
            re, im = rng.standard_normal((2, n, n))
            q = _haar_unitary(((re + 1j * im) / np.sqrt(2.0))[None])
            want = (q * values) @ q.conj().swapaxes(-1, -2)
            assert bits(_generated([spec], nonnegative).view(float)) == bits(want.view(float))
            specs.append(spec)
        # A stack of same-n specs gives each matrix its bits alone.
        same_n = [s for s in specs if s.n == specs[0].n]
        stacked = _generated(same_n, nonnegative)
        for spec, got in zip(same_n, stacked):
            assert bits(got.view(float)) == bits(_generated([spec], nonnegative)[0].view(float))

    def test_mixed_targets_in_one_stack(self):
        n = 4
        targets = [None, (2, 2, 0), (0, 4, 0), None, (1, 0, 3), (4, 0, 0)]
        specs = [
            GeneratorSpec(n=n, seed=100 + j, inertia_target=t, eigenvalue_range=(0.5 * j, 1.0 + j))
            for j, t in enumerate(targets)
        ]
        stacked = _generated(specs, nonnegative=False)
        for spec, got in zip(specs, stacked):
            assert bits(got.view(float)) == bits(_generated([spec], False)[0].view(float))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_selection_draws(self, n):
        nus = [None, *range(n + 1)]
        for seed in range(8):
            for nu in nus:
                assert sample_selections(seed, n, 12, nu) == recipe_selections(seed, n, 12, nu)
            # Several streams at once give each its selections alone.
            seeds = [seed * 100 + j for j in range(len(nus))]
            assert _sampled_selections(seeds, n, 12, nus) == [
                recipe_selections(s, n, 12, nu) for s, nu in zip(seeds, nus)
            ]

    def test_further_blocks(self):
        # At n = 3 all 7 selections are wanted, from blocks of 14 rows: most
        # seeds need a second block, drawn from the same stream.
        for seed in range(30):
            assert sample_selections(seed, 3, 12) == recipe_selections(seed, 3, 12)
            assert sample_selections(seed, 3, 12) == sorted(all_selections(3))


selection_counts = st.integers(min_value=1, max_value=200)
any_seeds = st.integers(min_value=-(2**65), max_value=2**65)


class TestSampler:
    """Properties of sample_selections."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=1, max_value=12), count=selection_counts, seed=any_seeds)
    def test_distinct_sorted_selections(self, n, count, seed):
        got = sample_selections(seed, n, count)
        assert len(got) == min(count, 2**n - 1)
        assert got == sorted(set(got))
        for selection in got:
            assert len(selection) >= 1
            assert list(selection) == sorted(set(selection))
            assert 1 <= selection[0] and selection[-1] <= n
        if count >= 2**n - 1:  # every selection, for any count at n <= 2
            assert got == sorted(all_selections(n))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=12), seed=any_seeds)
    def test_family_picks_present(self, data, n, seed):
        nu = data.draw(st.integers(min_value=0, max_value=n))
        count = data.draw(st.integers(min_value=3, max_value=200))
        got = sample_selections(seed, n, count, nu)
        assert len(got) == min(count, 2**n - 1)
        assert got == sorted(set(got))
        if nu >= 1:
            assert any(max(c) <= nu for c in got)
        if nu < n:
            assert any(min(c) > nu for c in got)
        if 1 <= nu < n:
            assert any(len(c) == 2 and c[0] <= nu < c[1] for c in got)

    def test_every_size_occurs(self):
        n = 8
        rng = next(_streams(_words([4])))
        rows = _block_selections(rng.random((1, 2000, n + 1)))[0]
        assert {len(c) for c in rows} == set(range(1, n + 1))
        sampled = [c for seed in range(170) for c in sample_selections(seed, n, 12)]
        assert len(sampled) == 2040
        assert {len(c) for c in sampled} == set(range(1, n + 1))


class TestGenPsd:
    def test_unit_range_gives_identity(self):
        b = gen_psd(GeneratorSpec(n=4, seed=9, eigenvalue_range=(1.0, 1.0)))
        np.testing.assert_allclose(b.matrix, np.eye(4), atol=1e-10)

    def test_forced_zero_is_singular(self):
        b = gen_psd(GeneratorSpec(n=5, seed=10, inertia_target=(4, 0, 1), eigenvalue_range=(0.0, 3.0)))
        assert abs(b.min_eigenvalue) <= 1e-9
        assert inertia_of(b.spectrum).zero == 1

    def test_negative_target_rejected(self):
        with pytest.raises(InvalidSpec):
            gen_psd(GeneratorSpec(n=3, seed=1, inertia_target=(2, 1, 0)))


def selections_of_size(n, k):
    return [c for c in all_selections(n) if len(c) == k]


class TestEnumerateIndexSequences:
    def test_three_choose_two(self):
        got = selections_of_size(3, 2)
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_full_selection_single(self):
        got = [IndexSequence(indices=c, n=4) for c in selections_of_size(4, 4)]
        assert len(got) == 1
        assert got[0].indices == (1, 2, 3, 4)

    def test_six_choose_three(self):
        assert sum(1 for _ in selections_of_size(6, 3)) == 20

    def test_all_sequences_count(self):
        assert sum(1 for _ in all_selections(5)) == 2**5 - 1


class TestCheckInstance:
    def test_known_instance_attains_lower_bound(self):
        a = validate_hermitian(A3)
        b = validate_psd(B3)
        record = check_selections(instance_spectra(a, b), [(1, 2)]).record(0)
        assert record.passed
        main = next(c for c in record.checks if c.name == "main-bounds")
        assert abs(main.lower_slack) <= 1e-9

    def test_zero_matrix_instance(self):
        a = validate_hermitian(np.zeros((3, 3)))
        b = validate_psd(B3)
        record = check_selections(instance_spectra(a, b), [(1, 3)]).record(0)
        assert record.passed
        main = next(c for c in record.checks if c.name == "main-bounds")
        assert main.lower == main.upper == main.actual == 0.0

    def test_all_sequences_random_instance(self):
        a = gen_hermitian(GeneratorSpec(n=4, seed=123, inertia_target=(2, 2, 0)))
        b = gen_psd(GeneratorSpec(n=4, seed=456))
        sp = instance_spectra(a, b)
        records = [check_selections(sp, [c]).record(0) for c in all_selections(4)]
        assert len(records) == 15
        assert all(r.passed for r in records)

    def test_record_metadata(self):
        a = validate_hermitian(A3)
        b = validate_psd(B3)
        checked = check_selections(instance_spectra(a, b), [(1, 2)], instance_id=9, seed=77)
        record = checked.record(0)
        assert record.instance_id == 9
        assert record.seed == 77
        assert record.inertia == (1, 2, 0)
        assert record.selected_nonneg == 1
        names = {c.name for c in record.checks}
        assert {"main-bounds", "dominance", "gap", "ostrowski", "wielandt"} <= names

    def test_trace_checks_only_on_full_selection(self):
        a = validate_hermitian(A3)
        b = validate_psd(B3)
        partial = check_selections(instance_spectra(a, b), [(1, 2)]).record(0)
        full = check_selections(instance_spectra(a, b), [(1, 2, 3)]).record(0)
        assert not any(c.name.startswith("trace") for c in partial.checks)
        assert {"trace-bracket", "trace-consistency"} <= {c.name for c in full.checks}

    def test_singular_b_skips_ostrowski(self):
        a = validate_hermitian(A3)
        b = validate_psd(np.diag([2.0, 1.0, 0.0]))
        record = check_selections(instance_spectra(a, b), [(1, 2)]).record(0)
        assert "ostrowski" not in {c.name for c in record.checks}
        assert record.passed

    def test_to_dict_round_trips_through_json(self):
        import json

        a = validate_hermitian(A3)
        b = validate_psd(B3)
        record = check_selections(instance_spectra(a, b), [(1, 3)]).record(0)
        payload = json.dumps(record.to_dict())
        assert json.loads(payload)["inertia"] == [1, 2, 0]


class TestBoundaryEigenvalues:
    """Eigenvalues forced to +-1e-12: zero classification may flip either way,
    and the scaled verification tolerance must absorb the difference."""

    def test_near_zero_eigenvalues_pass_all_checks(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            vals = np.array([5.0, 1e-12, -1e-12, -3.0])
            re, im = rng.standard_normal((2, 4, 4))
            q = _haar_unitary(((re + 1j * im) / np.sqrt(2.0))[None])[0]
            a = validate_hermitian((q * vals) @ q.conj().T)
            b = gen_psd(GeneratorSpec(n=4, seed=seed + 50))
            sp = instance_spectra(a, b)
            for c in all_selections(4):
                assert check_selections(sp, [c]).record(0).passed


def assert_batch_matches(sp, selections, tol=Tolerances()):
    """check_selections gives, on every selection, the record of the scalar
    oracle run_checks, field for field and type for type (compared by repr),
    with the same pass flags and worst slacks to the bit, and the same
    failures."""
    n = sp.spec_a.shape[1]
    batch = check_selections(sp, selections, tol)
    records = [run_checks(sp, IndexSequence(indices=c, n=n), tol) for c in selections]
    for r, record in enumerate(records):
        assert repr(batch.record(r)) == repr(record)
        columns = [c for c in batch.columns if c.applies[r]]
        assert [float(c.worst[r]).hex() for c in columns] == [c.worst().hex() for c in record.checks]
        assert bool(batch.passed[r]) == record.passed
    assert [repr(f) for f in batch.failures] == [repr(r) for r in records if not r.passed]


class TestCheckSelections:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        kind=st.sampled_from(["mixed", "psd", "nsd"]),
        zero_in_a=st.booleans(),
        singular_b=st.booleans(),
        verify_base=st.sampled_from([TOL_VERIFY_BASE, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_run_checks(self, n, kind, zero_in_a, singular_b, verify_base, seed):
        zero = int(zero_in_a and n >= 2)
        signed = n - zero
        if kind == "psd":
            pos = signed
        elif kind == "nsd":
            pos = 0
        else:
            assume(signed >= 2)
            pos = 1 + seed % (signed - 1)
        a = gen_hermitian(
            GeneratorSpec(n=n, seed=seed, inertia_target=(pos, signed - pos, zero))
        )
        b_inertia = (n - 1, 0, 1) if singular_b and n >= 2 else (n, 0, 0)
        b = gen_psd(GeneratorSpec(n=n, seed=seed + 1, inertia_target=b_inertia))
        assert_batch_matches(
            instance_spectra(a, b), all_selections(n), Tolerances(verify_base=verify_base)
        )

    def test_computation_record(self):
        # The product changes sign where the factor A does not, so gap_bound
        # raises ConsistencyError: the record keeps the checks before the gap
        # check and ends with "computation", with no Ostrowski or Wielandt.
        sp = hand_spectra((-0.5, -1.0), (2.0, 1.0), (1.0, -1.0), (1.5, -0.5))
        with pytest.raises(ConsistencyError):
            gap_bound(*spectra_of(sp))
        record = check_selections(sp, [(1, 2)]).record(0)
        assert [c.name for c in record.checks] == [
            "main-bounds",
            "dominance",
            "reduction-stable",
            "trace-bracket",
            "trace-consistency",
            "computation",
        ]
        assert not record.passed
        assert record.checks[-1].detail.startswith("ConsistencyError")
        assert_batch_matches(sp, all_selections(2))

    def test_negative_class_tolerance_rejected(self):
        # A negative band makes the positive and negative counts overlap.
        a = validate_hermitian(np.diag([0.0, -1.0, -2.0]))
        sp = instance_spectra(a, validate_psd(np.diag([3.0, 2.0, 1.0])))
        with pytest.raises(ValueError, match="inertia counts must be nonnegative"):
            check_selections(sp, all_selections(3), Tolerances(tol_class=-1.0))

    @pytest.mark.parametrize("selection", [(2, 1), (1, 1), (0,), (), (4,), (1, 4), (3, 2, 1)])
    def test_invalid_selection_rejected(self, selection):
        # Each is a selection IndexSequence rejects, with its message.  Not
        # checked, (1, 1) read as a false main-bounds violation (lower 9,
        # actual 30, upper 21), (2, 1) too, (0,) read index -1, and ()
        # passed vacuously.
        a = validate_hermitian(np.diag([3.0, 1.0, -2.0]))
        sp = instance_spectra(a, validate_psd(np.diag([5.0, 2.0, 1.0])))
        with pytest.raises(InvalidIndexSequence) as expected:
            IndexSequence(indices=selection, n=3)
        with pytest.raises(InvalidIndexSequence, match=re.escape(str(expected.value))):
            check_selections(sp, [(1, 2), selection])

    def test_selection_order(self):
        assert all_selections(3) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


class TestExhaustiveCache:
    """_exhaustive(n): all_selections(n) and its SelectionIndex, built once
    per n and shared, read-only, by every exhaustive check."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_a_fresh_index(self, n):
        selections, index = _exhaustive(n)
        assert selections == tuple(all_selections(n))
        fresh = selection_index(all_selections(n), n)
        for name, got, want in zip(index._fields, index, fresh):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert _exhaustive(n) is _exhaustive(n)

    def test_read_only(self):
        _, index = _exhaustive(4)
        for array in index:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_all_selections_is_a_fresh_list(self):
        selections = all_selections(5)
        assert isinstance(selections, list) and selections is not all_selections(5)
        selections.clear()
        assert _exhaustive(5)[0] == tuple(all_selections(5))
        assert len(_exhaustive(5)[0]) == 31

    @pytest.mark.parametrize("verify_base", [TOL_VERIFY_BASE, 0.0])
    @pytest.mark.parametrize("n", [1, 4, 7, 10])
    def test_records_match_a_fresh_index(self, n, verify_base):
        # The cached selections check against the cached index, a list of
        # the same selections against an index built for it: every record,
        # passing or not, is the same.
        tol = Tolerances(verify_base=verify_base)
        a = gen_hermitian(GeneratorSpec(n=n, seed=n, inertia_target=(n // 2, n - n // 2, 0)))
        b = gen_psd(GeneratorSpec(n=n, seed=n + 1, inertia_target=(n - 1, 0, 1)))
        cached = check_selections(instance_spectra(a, b), _exhaustive(n)[0], tol)
        fresh = check_selections(instance_spectra(a, b), all_selections(n), tol)
        assert cached.passed.tolist() == fresh.passed.tolist()
        for r in range(2**n - 1):
            assert repr(cached.record(r)) == repr(fresh.record(r))


def hand_spectra(a, b, ab, total, trace=0.0):
    """The SpectraStack of one instance with the given spectra (B already
    nonnegative, so raw = clamped)."""
    rows = (np.array([Spectrum(values=v).values]) for v in (a, b, b, ab, total))
    return SpectraStack(*rows, np.array([trace]), np.array([1.0]))


def spectra_of(sp):
    """The spectra of A, B and AB of a SpectraStack of one, as Spectrum objects."""
    return (Spectrum(s[0].tolist()) for s in (sp.spec_a, sp.spec_b, sp.spec_ab))


def heterogeneous_stack():
    """n = 4 instances that take different branches of every check."""
    n = 4

    def generated(a_inertia, b_inertia, seed):
        a = gen_hermitian(GeneratorSpec(n=n, seed=seed, inertia_target=a_inertia))
        b = gen_psd(GeneratorSpec(n=n, seed=seed + 1, inertia_target=b_inertia))
        return instance_spectra(a, b)

    with np.errstate(over="ignore"):  # the norm scale of the 1e+-200 pairs
        extreme = [
            instance_spectra(
                validate_hermitian(np.diag([1e200, 1.0, -1.0, -2.0])),
                validate_psd(np.diag([1.0, 1e200, 2.0, 3.0])),
            ),
            instance_spectra(
                validate_hermitian(1e-200 * gen_hermitian(GeneratorSpec(n=n, seed=3)).matrix),
                validate_psd(1e200 * gen_psd(GeneratorSpec(n=n, seed=4)).matrix),
            ),
        ]
    return [
        generated((2, 2, 0), (3, 0, 1), 10),  # singular B: no Ostrowski
        generated((4, 0, 0), (4, 0, 0), 12),  # PSD A, one-signed product: no gap
        generated((0, 3, 1), (4, 0, 0), 14),  # NSD A, its zero computed as about 1e-15
        generated((1, 3, 0), (4, 0, 0), 16),
        # NSD A with an exact zero, where the product is zero too (a 0/0 ratio).
        hand_spectra((0.0, -1.0, -2.0, -3.0), (3.0, 2.0, 1.0, 0.5), (0.0, -0.6, -1.5, -4.0),
                     (2.5, 1.0, -0.5, -1.0), trace=-6.0),
        # A subnormal eigenvalue of A below the zero cut (an infinite ratio).
        hand_spectra((2.0, 1e-310, -1.0, -3.0), (3.0, 2.0, 1.0, 0.5), (5.0, 1.0, -1.0, -4.0),
                     (4.0, 2.0, 0.5, -1.0), trace=1.0),
        # The product changes sign where A does not: gap_bound raises ConsistencyError.
        hand_spectra((-0.5, -1.0, -2.0, -3.0), (2.0, 1.5, 1.0, 0.5), (1.0, 0.5, -1.0, -2.0),
                     (1.5, 0.0, -1.0, -2.5)),
        *extreme,
        generated((3, 1, 0), (4, 0, 0), 18),
    ]


def stack_of(spectra):
    return SpectraStack(*(np.concatenate(x) for x in zip(*spectra)))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestStackedChecks:
    """_check_stack on a stack of different instances gives each instance
    what check_selections gives it alone, and what the scalar oracle
    run_checks gives each of its selections."""

    @pytest.mark.parametrize("verify_base", [TOL_VERIFY_BASE, 0.0])
    @pytest.mark.parametrize("sampled", [False, True], ids=["shared", "per-instance"])
    def test_matches_each_instance_alone(self, verify_base, sampled):
        tol = Tolerances(verify_base=verify_base)
        spectra = heterogeneous_stack()
        n = 4
        with pytest.raises(ConsistencyError):
            gap_bound(*spectra_of(spectra[6]))
        if sampled:
            selections = [sample_selections(5 + i, n, 9) for i in range(len(spectra))]
            index = selection_index([c for s in selections for c in s], n, len(spectra))
        else:
            selections = [all_selections(n)] * len(spectra)
            index = selection_index(selections[0], n)
        checked = _check_stack(stack_of(spectra), index, tol)
        names = {c.name for c in checked.columns}
        assert {"reduction-psd", "reduction-stable", "gap", "ostrowski", "computation"} <= names
        for i, (sp, sels) in enumerate(zip(spectra, selections)):
            stacked = SelectionChecks(checked, i, sels, i, 100 + i)
            alone = check_selections(sp, sels, tol, instance_id=i, seed=100 + i)
            assert stacked.passed.tolist() == alone.passed.tolist()
            for r, c in enumerate(sels):
                worst = [bits(col.worst[r]) for col in stacked.columns if col.applies[r]]
                assert worst == [bits(col.worst[r]) for col in alone.columns if col.applies[r]]
                record = repr(run_checks(sp, IndexSequence(indices=c, n=n), tol, i, 100 + i))
                assert repr(stacked.record(r)) == repr(alone.record(r)) == record
            assert [repr(f) for f in stacked.failures] == [repr(f) for f in alone.failures]


class TestRunCampaign:
    def test_invalid_count(self):
        with pytest.raises(InvalidCount):
            run_campaign(0)

    def test_deterministic_report(self):
        config = CampaignConfig(n_min=2, n_max=5)
        r1 = run_campaign(20, config, master_seed=11)
        r2 = run_campaign(20, config, master_seed=11)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_zero_failures_small_campaign(self):
        report = run_campaign(60, CampaignConfig(n_min=2, n_max=6), master_seed=5)
        assert report.failed == 0
        assert report.total == report.passed

    def test_exhaustive_at_small_n(self):
        report = run_campaign(4, CampaignConfig(n_min=4, n_max=4), master_seed=1)
        # every instance checks all 2^4 - 1 selections
        assert report.total == 4 * 15

    def test_sampled_beyond_exhaustive_cutoff(self):
        config = CampaignConfig(n_min=8, n_max=8)
        report = run_campaign(5, config, master_seed=2)
        assert report.total == 5 * 12

    def test_forced_inertia(self):
        config = CampaignConfig(inertia=(2, 1, 0))
        report = run_campaign(6, config, master_seed=3)
        assert report.failed == 0
        assert report.total == 6 * 7

    def test_case_families_all_appear(self):
        report = run_campaign(50, CampaignConfig(n_min=3, n_max=6), master_seed=8)
        names = {s.name: s for s in report.checks}
        # one-signed families trigger the exact reduction identities
        assert names["reduction-psd"].count > 0
        assert names["reduction-stable"].count > 0
        # mixed families produce sign-split product spectra
        assert names["gap"].count > 0
        assert names["main-bounds"].count == report.total
        assert report.failed == 0

    def test_wall_time_recorded(self):
        report = run_campaign(2, CampaignConfig(n_min=2, n_max=3), master_seed=4)
        assert report.wall_time > 0.0

    def test_failure_records_reproduce_from_seed(self):
        tol0 = Tolerances(verify_base=0.0)
        report = run_campaign(10, CampaignConfig(n_min=2, n_max=5, tolerances=tol0), master_seed=0)
        assert report.failed > 0  # fp-level slack goes negative somewhere at tol 0
        record = report.failures[0]
        # Rebuild the instance from the recorded metadata alone.
        a = gen_hermitian(
            GeneratorSpec(n=record.n, seed=derive_seed(record.seed, 1), inertia_target=record.inertia)
        )
        b_inertia = (record.n - 1, 0, 1) if record.instance_id % 3 == 2 else (record.n, 0, 0)
        b = gen_psd(
            GeneratorSpec(n=record.n, seed=derive_seed(record.seed, 2), inertia_target=b_inertia)
        )
        again = check_selections(
            instance_spectra(a, b),
            [record.indices],
            tol0,
            instance_id=record.instance_id,
            seed=record.seed,
        ).record(0)
        assert again.to_dict() == record.to_dict()

    def test_sampled_failure_records_reproduce_from_seed(self):
        # n = 7..8 check sampled selections: rebuild A, B and the instance's
        # selections from the record's seed and instance id alone.
        tol0 = Tolerances(verify_base=0.0)
        config = CampaignConfig(n_min=7, n_max=8, tolerances=tol0)
        report = run_campaign(30, config, master_seed=4)
        assert {r.n for r in report.failures} == {7, 8}
        by_instance = {}
        for record in report.failures:
            by_instance.setdefault(record.instance_id, []).append(record)
        for instance_id, records in by_instance.items():
            seed, n, inertia = records[0].seed, records[0].n, records[0].inertia
            a = gen_hermitian(GeneratorSpec(n=n, seed=derive_seed(seed, 1), inertia_target=inertia))
            b_inertia = (n - 1, 0, 1) if instance_id % 3 == 2 else (n, 0, 0)
            b = gen_psd(GeneratorSpec(n=n, seed=derive_seed(seed, 2), inertia_target=b_inertia))
            sp = instance_spectra(a, b)
            nu = inertia_of(next(spectra_of(sp)), tol0.tol_class).nonnegative
            family_nu = nu if instance_id % 5 >= 2 else None
            selections = sample_selections(derive_seed(seed, 3), n, SAMPLED_SEQUENCES, family_nu)
            assert len(selections) == SAMPLED_SEQUENCES
            again = check_selections(sp, selections, tol0, instance_id=instance_id, seed=seed)
            assert [repr(r) for r in again.failures] == [repr(r) for r in records]


def reference_campaign(count, config=CampaignConfig(), master_seed=0):
    """run_campaign one instance at a time, through the single-instance
    functions: the oracle for the stacked campaign.  Returns its JSON text."""
    stats = {}
    failures = []
    total = 0
    passed = 0
    tol = config.tolerances
    for i in range(count):
        seed_i = derive_seed(master_seed, i)
        if config.inertia is not None:
            inertia = config.inertia
            n = sum(inertia)
        else:
            u_n, u_pos = stream(seed_i).random(2).tolist()
            n = config.n_min + int(u_n * (config.n_max - config.n_min + 1))
            if i % 5 == 1:
                inertia = (0, n, 0)
            elif i % 5 == 0 or n == 1:
                inertia = (n, 0, 0)
            else:
                pos = 1 + int(u_pos * (n - 1))
                inertia = (pos, n - pos, 0)
        a = gen_hermitian(GeneratorSpec(n=n, seed=derive_seed(seed_i, 1), inertia_target=inertia))
        b_inertia = (n - 1, 0, 1) if (i % 3 == 2 and n >= 2) else (n, 0, 0)
        b = gen_psd(GeneratorSpec(n=n, seed=derive_seed(seed_i, 2), inertia_target=b_inertia))
        try:
            sp = instance_spectra(a, b)
        except EigbError as exc:
            full = IndexSequence(indices=tuple(range(1, n + 1)), n=n)
            failures.append(_error_record(exc, n, full, i, seed_i))
            total += 1
            st = stats.setdefault("computation", CheckStats(name="computation"))
            st.count += 1
            st.failed += 1
            st.min_slack = min(st.min_slack, 0.0)
            continue
        nu = inertia_of(next(spectra_of(sp)), tol.tol_class).nonnegative
        if n <= EXHAUSTIVE_MAX_N:
            selections = all_selections(n)
        else:
            family_nu = nu if i % 5 >= 2 else None
            selections = sample_selections(derive_seed(seed_i, 3), n, SAMPLED_SEQUENCES, family_nu)
        checked = check_selections(sp, selections, tol, instance_id=i, seed=seed_i)
        total += len(selections)
        passed += int(np.count_nonzero(checked.passed))
        failures.extend(checked.failures)
        for column in checked.columns:
            if column.applies.any():
                st = stats.setdefault(column.name, CheckStats(name=column.name))
                st.add(column.passed[column.applies], column.worst[column.applies])
    report = CampaignReport(
        total=total,
        passed=passed,
        failed=total - passed,
        checks=[stats[name] for name in sorted(stats)],
        failures=failures,
        wall_time=0.0,
    )
    return json.dumps(report.to_json_dict())


class TestStackedCampaign:
    """run_campaign generates and solves instances in same-n stacks; its
    report is the one-at-a-time reference's, to the byte."""

    @pytest.mark.parametrize(
        "count, config, seed",
        [
            (120, CampaignConfig(n_min=1, n_max=10), 3),
            (40, CampaignConfig(inertia=(3, 0, 2)), 1),
            (60, CampaignConfig(n_min=2, n_max=5, tolerances=Tolerances(verify_base=0.0)), 7),
            (STACK_WINDOW + 40, CampaignConfig(n_min=1, n_max=4), 5),
        ],
        ids=["mixed-n", "inertia-3-0-2", "failure-records", "beyond-window"],
    )
    def test_matches_reference(self, count, config, seed):
        got = json.dumps(run_campaign(count, config, seed).to_json_dict())
        assert got == reference_campaign(count, config, seed)

    def test_stacks_split_by_entries(self, monkeypatch):
        # 40 entries: stacks of 40 instances at n = 1, 10 at n = 2, ..., 1 from n = 5.
        import eigb.harness as harness

        monkeypatch.setattr(harness, "STACK_ENTRIES", 40)
        config = CampaignConfig(n_min=1, n_max=8)
        got = json.dumps(run_campaign(100, config, 9).to_json_dict())
        assert got == reference_campaign(100, config, 9)

    def test_stacks_merged_in_instance_order(self, monkeypatch):
        # 100 entries: stacks of 4 instances at n = 5, 2 at n = 6 and 7, 1 at
        # n = 8, so each window holds many stacks of each n, interleaved in
        # instance order, with sampled and exhaustive n and failure records.
        import eigb.harness as harness

        monkeypatch.setattr(harness, "STACK_ENTRIES", 100)
        config = CampaignConfig(n_min=5, n_max=8, tolerances=Tolerances(verify_base=0.0))
        count = STACK_WINDOW + 40
        report = run_campaign(count, config, 13)
        assert report.failed > 0
        assert json.dumps(report.to_json_dict()) == reference_campaign(count, config, 13)

    def test_failing_instance_redone_alone(self, monkeypatch):
        # LAPACK fails on instance 7's A, inside the stack of all 20
        # instances (one n): only instance 7 becomes a computation record.
        import eigb.linalg as linalg

        config = CampaignConfig(n_min=4, n_max=4, tolerances=Tolerances(verify_base=0.0))
        a_7 = gen_hermitian(_plans(range(7, 8), 11, config)[0].a)
        poisoned = linalg._unit_scaled(a_7.matrix[None])[0][0]
        calls = []

        def eigh(m):
            calls.append(len(m))
            if any(np.array_equal(x, poisoned) for x in m):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return np.linalg.eigh(m)

        clean = run_campaign(20, config, 11)
        monkeypatch.setattr(linalg, "eigh", eigh)
        report = run_campaign(20, config, 11)
        assert 20 in calls  # the stack was tried first
        assert json.dumps(report.to_json_dict()) == reference_campaign(20, config, 11)
        errors = [r for r in report.failures if r.checks[-1].name == "computation"]
        assert [(r.instance_id, r.checks[-1].detail) for r in errors] == [
            (7, "NoConvergence: LAPACK eigensolver failed: Eigenvalues did not converge")
        ]
        kept = [r.to_dict() for r in report.failures if r.instance_id != 7]
        assert kept == [r.to_dict() for r in clean.failures if r.instance_id != 7]
