"""Generators, per-instance checks, and campaign aggregation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eigb.bounds import TOL_VERIFY_BASE, IndexSequence, gap_bound, inertia_of
from eigb.errors import ConsistencyError, InvalidCount, InvalidSpec
from eigb.harness import (
    CampaignConfig,
    GeneratorSpec,
    InstanceSpectra,
    Tolerances,
    all_selections,
    check_selections,
    derive_seed,
    gen_hermitian,
    gen_psd,
    instance_spectra,
    run_campaign,
    run_checks,
    _target_values,
)
from eigb.linalg import Spectrum, hermitian_eig, validate_hermitian, validate_psd

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

    def test_spectrum_matches_targets(self):
        spec = GeneratorSpec(n=6, seed=3, inertia_target=(3, 2, 1))
        targets = np.sort(_target_values(np.random.default_rng(3), spec, nonnegative=False))[::-1]
        got = np.array(hermitian_eig(gen_hermitian(spec)).spectrum.values)
        np.testing.assert_allclose(got, targets, rtol=1e-9, atol=1e-9)


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
        record = run_checks(instance_spectra(a, b), IndexSequence(indices=(1, 2), n=3))
        assert record.passed
        main = next(c for c in record.checks if c.name == "main-bounds")
        assert abs(main.lower_slack) <= 1e-9

    def test_zero_matrix_instance(self):
        a = validate_hermitian(np.zeros((3, 3)))
        b = validate_psd(B3)
        record = run_checks(instance_spectra(a, b), IndexSequence(indices=(1, 3), n=3))
        assert record.passed
        main = next(c for c in record.checks if c.name == "main-bounds")
        assert main.lower == main.upper == main.actual == 0.0

    def test_all_sequences_random_instance(self):
        a = gen_hermitian(GeneratorSpec(n=4, seed=123, inertia_target=(2, 2, 0)))
        b = gen_psd(GeneratorSpec(n=4, seed=456))
        sp = instance_spectra(a, b)
        records = [run_checks(sp, IndexSequence(indices=c, n=4)) for c in all_selections(4)]
        assert len(records) == 15
        assert all(r.passed for r in records)

    def test_record_metadata(self):
        a = validate_hermitian(A3)
        b = validate_psd(B3)
        record = run_checks(
            instance_spectra(a, b), IndexSequence(indices=(1, 2), n=3), instance_id=9, seed=77
        )
        assert record.instance_id == 9
        assert record.seed == 77
        assert record.inertia == (1, 2, 0)
        assert record.selected_nonneg == 1
        names = {c.name for c in record.checks}
        assert {"main-bounds", "dominance", "gap", "ostrowski", "wielandt"} <= names

    def test_trace_checks_only_on_full_selection(self):
        a = validate_hermitian(A3)
        b = validate_psd(B3)
        partial = run_checks(instance_spectra(a, b), IndexSequence(indices=(1, 2), n=3))
        full = run_checks(instance_spectra(a, b), IndexSequence(indices=(1, 2, 3), n=3))
        assert not any(c.name.startswith("trace") for c in partial.checks)
        assert {"trace-bracket", "trace-consistency"} <= {c.name for c in full.checks}

    def test_singular_b_skips_ostrowski(self):
        a = validate_hermitian(A3)
        b = validate_psd(np.diag([2.0, 1.0, 0.0]))
        record = run_checks(instance_spectra(a, b), IndexSequence(indices=(1, 2), n=3))
        assert "ostrowski" not in {c.name for c in record.checks}
        assert record.passed

    def test_to_dict_round_trips_through_json(self):
        import json

        a = validate_hermitian(A3)
        b = validate_psd(B3)
        record = run_checks(instance_spectra(a, b), IndexSequence(indices=(1, 3), n=3))
        payload = json.dumps(record.to_dict())
        assert json.loads(payload)["inertia"] == [1, 2, 0]


class TestBoundaryEigenvalues:
    """Eigenvalues forced to +-1e-12: zero classification may flip either way,
    and the scaled verification tolerance must absorb the difference."""

    def test_near_zero_eigenvalues_pass_all_checks(self):
        from eigb.harness import _haar_unitary

        for seed in range(5):
            rng = np.random.default_rng(seed)
            vals = np.array([5.0, 1e-12, -1e-12, -3.0])
            q = _haar_unitary(rng, 4)
            a = validate_hermitian((q * vals) @ q.conj().T)
            b = gen_psd(GeneratorSpec(n=4, seed=seed + 50))
            sp = instance_spectra(a, b)
            for c in all_selections(4):
                assert run_checks(sp, IndexSequence(indices=c, n=4)).passed


def assert_batch_matches(sp, selections, tol=Tolerances()):
    """check_selections gives, on every selection, the checks run_checks gives,
    in the same order, with the same pass flags and worst slacks to the bit,
    and the same records for the failing selections."""
    n = len(sp.spec_a)
    batch = check_selections(sp, selections, tol)
    records = [run_checks(sp, IndexSequence(indices=c, n=n), tol) for c in selections]
    for r, record in enumerate(records):
        columns = [c for c in batch.columns if c.applies[r]]
        assert [c.name for c in columns] == [c.name for c in record.checks]
        assert [bool(c.passed[r]) for c in columns] == [c.passed for c in record.checks]
        assert [float(c.worst[r]).hex() for c in columns] == [c.worst().hex() for c in record.checks]
        assert bool(batch.passed[r]) == record.passed
    assert [f.to_dict() for f in batch.failures] == [r.to_dict() for r in records if not r.passed]


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
        spec_a = Spectrum(values=(-0.5, -1.0))
        spec_b = Spectrum(values=(2.0, 1.0))
        spec_ab = Spectrum(values=(1.0, -1.0))
        sp = InstanceSpectra(
            spec_a=spec_a,
            spec_b=spec_b,
            spec_b_raw=spec_b,
            spec_ab=spec_ab,
            spec_sum=Spectrum(values=(1.5, -0.5)),
            trace_product=0.0,
            norm_scale=1.0,
        )
        with pytest.raises(ConsistencyError):
            gap_bound(spec_a, spec_b, spec_ab)
        record = run_checks(sp, IndexSequence(indices=(1, 2), n=2))
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

    def test_selection_order(self):
        assert all_selections(3) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


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
        from eigb.harness import Tolerances, instance_spectra, run_checks

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
        again = run_checks(
            instance_spectra(a, b),
            IndexSequence(indices=record.indices, n=record.n),
            tol0,
            instance_id=record.instance_id,
            seed=record.seed,
        )
        assert again.to_dict() == record.to_dict()
