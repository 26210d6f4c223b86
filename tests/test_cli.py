"""CLI surface: subcommands, exit codes, JSON output, determinism."""

import json
import warnings

import numpy as np
import pytest

from eigb import bounds, cli, linalg
from eigb.cli import main
from eigb.harness import (
    GeneratorSpec,
    Tolerances,
    all_selections,
    check_selections,
    gen_hermitian,
    gen_psd,
    instance_spectra,
)
from eigb.matfile import save_matrix

EXAMPLE_A_TEXT = "3\n1 2 0\n2 1 0\n0 0 -4\n"
EXAMPLE_B_TEXT = "3\n2 -1 0\n-1 2 0\n0 0 2\n"


@pytest.fixture
def example_files(tmp_path):
    a_path = tmp_path / "a.mat"
    b_path = tmp_path / "b.mat"
    a_path.write_text(EXAMPLE_A_TEXT)
    b_path.write_text(EXAMPLE_B_TEXT)
    return str(a_path), str(b_path)


@pytest.fixture
def lapack_calls(monkeypatch):
    """The stack size of every LAPACK eigensolver call, per driver: eigh
    (eigenvalues and eigenvectors) and eigvalsh (eigenvalues only)."""
    import eigb.linalg as linalg

    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:

        def counted(m, real=getattr(linalg, name), name=name):
            calls[name].append(len(m))
            return real(m)

        monkeypatch.setattr(linalg, name, counted)
    return calls


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBounds:
    def test_case_one(self, example_files, capsys):
        a, b = example_files
        code, data = run_json(capsys, ["bounds", "--a", a, "--b", b, "--indices", "1,2"])
        assert code == 0
        assert data["actual"] == pytest.approx(0.0, abs=1e-9)
        assert data["lower"] == pytest.approx(0.0, abs=1e-9)
        assert data["upper"] == pytest.approx(8.0, abs=1e-9)
        assert data["selected_nonneg"] == 1
        assert data["inertia_a"] == [1, 2, 0]

    def test_case_three(self, example_files, capsys):
        a, b = example_files
        code, data = run_json(capsys, ["bounds", "--a", a, "--b", b, "--indices", "2,3"])
        assert code == 0
        assert data["actual"] == pytest.approx(-11.0, abs=1e-9)
        assert data["lower"] == pytest.approx(-14.0, abs=1e-9)
        assert data["upper"] == pytest.approx(-6.0, abs=1e-9)

    def test_human_output_has_sections(self, example_files, capsys):
        a, b = example_files
        assert main(["bounds", "--a", a, "--b", b, "--indices", "1,2"]) == 0
        out = capsys.readouterr().out
        for section in ("spectrum A", "spectrum AB", "inertia A", "main bounds", "splitting"):
            assert section in out

    def test_dominance_uses_tol_verify(self, example_files, capsys, monkeypatch):
        # On finite spectra T1 <= T2 holds exactly in floating point, so no
        # instance shows the base through dominance_ok; watch the call instead.
        bases = []
        real = bounds.verify_tolerance

        def spy(spec_a, spec_b, k, base=bounds.TOL_VERIFY_BASE):
            bases.append(base)
            return real(spec_a, spec_b, k, base)

        monkeypatch.setattr(bounds, "verify_tolerance", spy)
        a, b = example_files
        argv = ["bounds", "--a", a, "--b", b, "--indices", "1,3", "--tol-verify", "0.25"]
        code, data = run_json(capsys, argv)
        assert code == 0
        assert bases == [0.25]
        assert data["dominance_ok"] is True

    def test_one_evaluation_per_call(self, example_files, capsys, monkeypatch, lapack_calls):
        # The report and the splitting sums are read off one evaluation of the
        # selection, and the spectra take the eigensolves of B, A and AB alone:
        # B's with eigenvectors, A's and AB's values only.
        batches = []
        real_batch = bounds.selection_bounds_batch

        def batch(*args, **kwargs):
            batches.append(args[2])
            return real_batch(*args, **kwargs)

        monkeypatch.setattr(bounds, "selection_bounds_batch", batch)
        a, b = example_files
        assert main(["bounds", "--a", a, "--b", b, "--indices", "1,3"]) == 0
        assert len(batches) == 1
        assert lapack_calls == {"eigh": [1], "eigvalsh": [1, 1]}

    def test_decreasing_indices_exit_2(self, example_files, capsys):
        a, b = example_files
        assert main(["bounds", "--a", a, "--b", b, "--indices", "3,1"]) == 2

    def test_non_integer_indices_exit_2(self, example_files, capsys):
        a, b = example_files
        assert main(["bounds", "--a", a, "--b", b, "--indices", "1,x"]) == 2
        assert capsys.readouterr().err == (
            "error: indices must be a comma list of integers, got '1,x'\n"
        )

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.mat")
        assert main(["bounds", "--a", missing, "--b", missing, "--indices", "1"]) == 2

    def test_non_psd_b_exit_2(self, tmp_path, capsys):
        a_path = tmp_path / "a.mat"
        b_path = tmp_path / "b.mat"
        a_path.write_text("2\n1 0\n0 1\n")
        b_path.write_text("2\n1 0\n0 -1\n")
        assert main(["bounds", "--a", str(a_path), "--b", str(b_path), "--indices", "1"]) == 2


class TestVerify:
    def test_example_all_sequences(self, example_files, capsys):
        a, b = example_files
        assert main(["verify", "--a", a, "--b", b]) == 0
        out = capsys.readouterr().out
        assert "all 7 selections" in out
        assert "all inequalities hold" in out

    def test_single_selection(self, example_files, capsys):
        a, b = example_files
        assert main(["verify", "--a", a, "--b", b, "--indices", "1,3"]) == 0

    @staticmethod
    def _instance_with_negative_slack():
        """First generated n = 4 pair with a rounding-level negative slack."""
        for seed in range(100):
            a = gen_hermitian(GeneratorSpec(n=4, seed=seed, inertia_target=(2, 2, 0)))
            b = gen_psd(GeneratorSpec(n=4, seed=1000 + seed))
            sp = instance_spectra(a, b)
            for c in all_selections(4):
                if not check_selections(sp, [c], Tolerances(verify_base=0.0)).record(0).passed:
                    return a, b
        raise AssertionError("no instance with a negative slack among seeds 0..99")

    def test_zero_tolerance_gate(self, tmp_path, capsys):
        # A zero verification tolerance must flag a negative slack that the
        # default tolerance forgives.
        a, b = self._instance_with_negative_slack()
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, a.matrix)
        save_matrix(b_path, b.matrix)
        argv = ["verify", "--a", str(a_path), "--b", str(b_path)]
        assert main(argv) == 0
        assert main(argv + ["--tol-verify", "0"]) == 1
        out = capsys.readouterr().out
        assert "violating" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", "--a", str(tmp_path / "x"), "--b", str(tmp_path / "y")]) == 2

    def test_json_is_a_usage_error(self, example_files, capsys):
        # verify prints text only: --json is not one of its options.
        a, b = example_files
        assert main(["verify", "--a", a, "--b", b, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --json\n")

    def test_sampled_selections_beyond_n10(self, tmp_path, capsys):
        a = gen_hermitian(GeneratorSpec(n=12, seed=31, inertia_target=(6, 6, 0)))
        b = gen_psd(GeneratorSpec(n=12, seed=32))
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, a.matrix)
        save_matrix(b_path, b.matrix)
        assert main(["verify", "--a", str(a_path), "--b", str(b_path), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "sampled selections" in out

    def test_sampling_seed_read_mod_2_64(self, tmp_path, capsys):
        # --seed -1 samples the stream of 2^64 - 1, as fuzz's seeds do.
        a = gen_hermitian(GeneratorSpec(n=11, seed=5, inertia_target=(5, 6, 0)))
        b = gen_psd(GeneratorSpec(n=11, seed=6))
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, a.matrix)
        save_matrix(b_path, b.matrix)
        outputs = []
        for seed in ["-1", str(2**64 - 1)]:
            argv = ["verify", "--a", str(a_path), "--b", str(b_path), "--seed", seed]
            code = main(argv + ["--tol-verify", "0"])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 1)
        assert "checking 200 sampled selections on n=11" in outputs[0][1]

    def test_negative_tolerance_rejected(self, example_files, capsys):
        a, b = example_files
        assert main(["verify", "--a", a, "--b", b, "--tol-verify", "-1"]) == 2

    @pytest.mark.parametrize("b_scale", [1.0, 1e-200])
    def test_extreme_scale(self, tmp_path, capsys, b_scale):
        # A at 1e200 against B at 1 or 1e-200 (product about 1e200 or 1).  A
        # at 1e-200 against a moderate B is no test of the solver: all its
        # sums lie below the absolute floor of the slack tolerance.
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, 1e200 * np.array([[1.0, 2.0], [2.0, 1.0]]))
        save_matrix(b_path, b_scale * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert main(["verify", "--a", str(a_path), "--b", str(b_path)]) == 0
        assert "all inequalities hold" in capsys.readouterr().out

    def test_tiny_a_against_large_b(self, tmp_path, capsys):
        # The zero band scales with A's spectrum (3e-200, -1e-200), so neither
        # eigenvalue counts as zero and the main bounds pair them correctly.
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, 1e-200 * np.array([[1.0, 2.0], [2.0, 1.0]]))
        save_matrix(b_path, 1e200 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert main(["verify", "--a", str(a_path), "--b", str(b_path)]) == 0
        assert "all inequalities hold" in capsys.readouterr().out

    def test_zero_product(self, tmp_path, capsys):
        # A vanishes on the range of B, so AB is exactly zero and its computed
        # spectrum is mixed-sign rounding noise.  That noise must count as
        # zero (no sign change, gap skipped) whatever its signs, not as
        # product eigenvalues whose signs contradict A's.
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        m = np.zeros((4, 4))
        m[2:, 2:] = [[1.0, 2.0], [2.0, -3.0]]
        m[:2, 2:] = [[1.0, -1.0], [0.5, 2.0]]
        m[2:, :2] = m[:2, 2:].T
        for seed in range(40):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(z)
            save_matrix(a_path, q @ m @ q.conj().T)
            save_matrix(b_path, (q * [3.0, 1.0, 0.0, 0.0]) @ q.conj().T)
            assert main(["verify", "--a", str(a_path), "--b", str(b_path)]) == 0, seed
            assert "all inequalities hold" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["bounds", "--indices", "1", "--tol-verify", "0"],
            ["bounds", "--indices", "2", "--json"],
        ],
        ids=["verify", "bounds", "bounds-json"],
    )
    def test_extreme_scale_prints_no_warning(self, tmp_path, capsys, argv):
        # ||A||_F * ||B||_F overflows for A = diag(1e200, 1) against
        # B = diag(1, 1e200), though every spectrum is finite: the overflow
        # must stay silent, as numpy warnings turned into errors show.
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, np.diag([1e200, 1.0]))
        save_matrix(b_path, np.diag([1.0, 1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--a", str(a_path), "--b", str(b_path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code in (0, 1) and captured.out

    def test_dominance_at_extreme_scale(self, tmp_path, capsys):
        # A = diag(1e200, 1) against B = diag(1, 1e200): both upper bounds of
        # selections 1 and 1,2 overflow to inf, but dominance compares their
        # second summations T1 = T2 = 0, as `bounds` does.
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, np.diag([1e200, 1.0]))
        save_matrix(b_path, np.diag([1.0, 1e200]))
        assert main(["verify", "--a", str(a_path), "--b", str(b_path)]) == 0
        assert capsys.readouterr().out == "checking all 3 selections on n=2\nall inequalities hold\n"

    def test_ostrowski_tolerance_scales_with_b(self, tmp_path, capsys):
        # The Ostrowski ratios are about 1e200 here, so their rounding error
        # (about 1e184) must be judged against a tolerance scaled by B.
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, np.array([[1.0, 2.0], [2.0, 1.0]]))
        save_matrix(b_path, 1e200 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert main(["verify", "--a", str(a_path), "--b", str(b_path)]) == 0
        assert "all inequalities hold" in capsys.readouterr().out


class TestFuzz:
    def test_small_campaign_passes(self, capsys):
        code, data = run_json(capsys, ["fuzz", "--count", "10", "--seed", "7", "--n-max", "5"])
        assert code == 0
        assert data["failed"] == 0
        assert data["total"] == data["passed"]

    def test_count_zero_exit_2(self, capsys):
        assert main(["fuzz", "--count", "0"]) == 2

    def test_bad_inertia_exit_2(self, capsys):
        assert main(["fuzz", "--count", "1", "--inertia", "1,2"]) == 2

    def test_non_integer_inertia_exit_2(self, capsys):
        assert main(["fuzz", "--count", "1", "--inertia", "a,b,c"]) == 2
        assert capsys.readouterr().err == "error: inertia must be p,m,z integers, got 'a,b,c'\n"

    def test_inertia_with_dimension_range_exit_2(self, capsys):
        # --inertia fixes n = p + m + z, so a dimension range beside it
        # would be ignored.
        for sizes in (["--n-min", "5", "--n-max", "6"], ["--n-min", "2"], ["--n-max", "8"]):
            assert main(["fuzz", "--count", "3", "--inertia", "2,1,0", *sizes]) == 2
            err = capsys.readouterr().err
            assert "--inertia" in err and "--n-min or --n-max" in err

    def test_byte_identical_json(self, capsys):
        argv = ["fuzz", "--count", "15", "--seed", "2024", "--n-max", "5", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_schema(self, capsys):
        code, data = run_json(capsys, ["fuzz", "--count", "5", "--seed", "1", "--n-max", "4"])
        assert code == 0
        assert data["version"] == "EIGB1"
        assert set(data) == {"version", "total", "passed", "failed", "checks", "failures"}
        for entry in data["checks"]:
            assert set(entry) == {"name", "failed", "min_slack", "mean_slack"}

    def test_zero_tolerance_gate(self, capsys):
        argv = ["fuzz", "--count", "10", "--seed", "0", "--n-min", "2", "--n-max", "5"]
        assert main(argv) == 0
        assert main(argv + ["--tol-verify", "0"]) == 1

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGB_TOL_VERIFY", "0")
        argv = ["fuzz", "--count", "10", "--seed", "0", "--n-min", "2", "--n-max", "5"]
        assert main(argv) == 1

    def test_env_tolerance_not_a_number(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGB_TOL_VERIFY", "abc")
        assert main(["example"]) == 2
        assert capsys.readouterr().err.startswith("error: EIGB_TOL_VERIFY")

    def test_env_tolerance_read_on_every_call(self, example_files, capsys, monkeypatch):
        # The parser is built once per process; the environment must not be.
        bases = []
        real = bounds.verify_tolerance

        def spy(spec_a, spec_b, k, base=bounds.TOL_VERIFY_BASE):
            bases.append(base)
            return real(spec_a, spec_b, k, base)

        monkeypatch.setattr(bounds, "verify_tolerance", spy)
        a, b = example_files
        argv = ["bounds", "--a", a, "--b", b, "--indices", "1,3"]
        for value in ("0.25", "0.5"):
            monkeypatch.setenv("EIGB_TOL_VERIFY", value)
            assert main(argv) == 0
        monkeypatch.delenv("EIGB_TOL_VERIFY")
        assert main(argv) == 0
        assert bases == [0.25, 0.5, bounds.TOL_VERIFY_BASE]
        monkeypatch.setenv("EIGB_TOL_VERIFY", "abc")
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: EIGB_TOL_VERIFY")

    def test_forced_inertia(self, capsys):
        code, data = run_json(
            capsys, ["fuzz", "--count", "5", "--seed", "3", "--inertia", "2,2,0"]
        )
        assert code == 0
        assert data["failed"] == 0


class TestExample:
    def test_exit_zero(self, capsys):
        assert main(["example"]) == 0

    def test_table_values(self, capsys):
        code, data = run_json(capsys, ["example"])
        assert code == 0
        assert data["ok"]
        cases = {tuple(c["indices"]): c for c in data["cases"]}
        assert cases[(1, 2)]["upper"] == pytest.approx(8.0, abs=1e-9)
        assert cases[(1, 2)]["actual"] == pytest.approx(0.0, abs=1e-9)
        assert cases[(1, 2)]["lower"] == pytest.approx(0.0, abs=1e-9)
        assert cases[(1, 3)]["upper"] == pytest.approx(5.0, abs=1e-9)
        assert cases[(1, 3)]["actual"] == pytest.approx(-5.0, abs=1e-9)
        assert cases[(1, 3)]["lower"] == pytest.approx(-9.0, abs=1e-9)
        assert cases[(2, 3)]["upper"] == pytest.approx(-6.0, abs=1e-9)
        assert cases[(2, 3)]["actual"] == pytest.approx(-11.0, abs=1e-9)
        assert cases[(2, 3)]["lower"] == pytest.approx(-14.0, abs=1e-9)


class TestSpectrum:
    def test_a_alone(self, example_files, capsys):
        a, _ = example_files
        assert main(["spectrum", "--a", a]) == 0
        out = capsys.readouterr().out
        assert "3 -1 -4" in out

    def test_with_b(self, example_files, capsys):
        a, b = example_files
        assert main(["spectrum", "--a", a, "--b", b]) == 0
        out = capsys.readouterr().out
        assert "3 -3 -8" in out

    def test_json_payload(self, example_files, capsys):
        a, b = example_files
        code, data = run_json(capsys, ["spectrum", "--a", a, "--b", b])
        assert code == 0
        np.testing.assert_allclose(data["spectrum_a"], [3, -1, -4], atol=1e-9)
        np.testing.assert_allclose(data["spectrum_b"], [3, 2, 1], atol=1e-9)
        np.testing.assert_allclose(data["spectrum_ab"], [3, -3, -8], atol=1e-9)
        assert data["inertia_a"] == [1, 2, 0]

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale(self, tmp_path, capsys, scale):
        path = tmp_path / "a.mat"
        save_matrix(path, np.array([[0.0, scale], [scale, 0.0]]))
        code, data = run_json(capsys, ["spectrum", "--a", str(path)])
        assert code == 0
        np.testing.assert_allclose(data["spectrum_a"], [scale, -scale], rtol=1e-12)

    def test_graded_pair_is_accurate_normwise_only(self, tmp_path, capsys):
        # README, "Accuracy": the exact spectrum of AB is (1e200, 1e200), but
        # b_2 = 1 lies below B's rounding floor 2 * eps * 1e200 and counts as
        # zero, so the second value comes out 0: an error of 1e-200 relative
        # to rho(A) * rho(B) = 1e400.
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, np.diag([1e200, 1.0]))
        save_matrix(b_path, np.diag([1.0, 1e200]))
        assert main(["spectrum", "--a", str(a_path), "--b", str(b_path)]) == 0
        assert capsys.readouterr().out == (
            "spectrum A:  1e+200 1\n"
            "spectrum B:  1e+200 1\n"
            "spectrum AB: 1e+200 0\n"
            "inertia A:   positive=1 negative=0 zero=1\n"
        )

    def test_zero_a_at_zero_class_tolerance(self, tmp_path, capsys):
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, np.zeros((2, 2)))
        save_matrix(b_path, np.eye(2))
        argv = ["spectrum", "--a", str(a_path), "--b", str(b_path), "--tol-class", "0"]
        code, data = run_json(capsys, argv)
        assert code == 0
        assert data["inertia_a"] == [0, 0, 2]

    def test_non_hermitian_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        path.write_text("2\n0 1\n-1 0\n")
        assert main(["spectrum", "--a", str(path)]) == 2


class TestLapackCalls:
    """Only B's eigenvectors are read (they build B^(1/2)), so each command
    calls eigh once per B; A, AB and A + B are solved values-only."""

    @pytest.mark.parametrize(
        "argv, values_only",
        [
            (["spectrum", "--a", "A", "--b", "B"], [1, 1]),  # A, AB
            (["bounds", "--a", "A", "--b", "B", "--indices", "1,3"], [1, 1]),  # A, AB
            (["verify", "--a", "A", "--b", "B"], [1, 1, 1]),  # A, AB, A + B
            (["example"], [1, 1]),  # A, AB
        ],
        ids=["spectrum", "bounds", "verify", "example"],
    )
    def test_single_instance(self, example_files, capsys, lapack_calls, argv, values_only):
        paths = dict(zip("AB", example_files))
        assert main([paths.get(arg, arg) for arg in argv]) == 0
        assert lapack_calls == {"eigh": [1], "eigvalsh": values_only}

    def test_campaign_stack(self, capsys, lapack_calls):
        # 20 instances of one n are one stack: one eigh for the 20 B, and
        # one values-only solve each for the 20 A, AB and A + B.
        assert main(["fuzz", "--count", "20", "--seed", "3", "--n-min", "4", "--n-max", "4"]) == 0
        assert lapack_calls == {"eigh": [20], "eigvalsh": [20, 20, 20]}


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_tol_herm_default_is_the_linalg_constant(self):
        for argv in (["example"], ["spectrum", "--a", "A"], ["verify", "--a", "A", "--b", "B"]):
            assert cli._parser().parse_args(argv).tol_herm == linalg.TOL_HERM

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2


    @pytest.mark.parametrize(
        "command, flag",
        [("fuzz", "--tol-herm"), ("spectrum", "--tol-verify"), ("example", "--tol-verify")],
    )
    def test_unread_tolerance_flag_exit_2(self, example_files, capsys, command, flag):
        # Each command takes only the tolerance flags it reads; these three
        # were accepted and ignored.
        a, _ = example_files
        operands = {"fuzz": ["--count", "5", "--json"], "spectrum": ["--a", a], "example": []}
        assert main([command, *operands[command], flag, "0"]) == 2
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err


class TestInputErrors:
    @pytest.mark.parametrize("flag", ["--tol-class", "--tol-verify", "--tol-herm"])
    def test_nan_tolerance_exit_2(self, example_files, capsys, flag):
        a, b = example_files
        assert main(["verify", "--a", a, "--b", b, flag, "nan"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be nonnegative")

    def test_nan_tolerance_from_env_exit_2(self, example_files, capsys, monkeypatch):
        monkeypatch.setenv("EIGB_TOL_VERIFY", "nan")
        a, b = example_files
        assert main(["verify", "--a", a, "--b", b]) == 2

    @pytest.mark.parametrize("command", ["spectrum", "verify", "bounds"])
    def test_invalid_utf8_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "a.mat"
        path.write_bytes(b"2\n1 0\n0 \xff1\n")
        argv = [command, "--a", str(path), "--b", str(path)]
        if command == "bounds":
            argv += ["--indices", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: line 3, column 3: not valid UTF-8: byte 0xff\n"
        )

    @pytest.mark.parametrize("text", ["", " \n\t\n", "# only a comment\n", "#\n# EIGB1"])
    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_empty_matrix_file_exit_2(self, tmp_path, capsys, command, text):
        # A text with no token has no line or column to report.
        path = tmp_path / "a.mat"
        path.write_text(text, encoding="utf-8")
        assert main([command, "--a", str(path), "--b", str(path)]) == 2
        assert capsys.readouterr().err == "error: empty input, expected dimension\n"

    @pytest.mark.parametrize("command", ["spectrum", "verify", "bounds"])
    def test_product_overflow_exit_2(self, tmp_path, capsys, command):
        # Both matrices are finite, but B^(1/2) A B^(1/2) = diag(1e308^2, 1)
        # is not: the error names the product, and no numpy warning leaks.
        a_path = tmp_path / "a.mat"
        save_matrix(a_path, np.diag([1e308, 1.0]))
        argv = [command, "--a", str(a_path), "--b", str(a_path)]
        if command == "bounds":
            argv += ["--indices", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "error: B^(1/2) A B^(1/2) exceeds the floating-point range\n"
        )

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_dimension_mismatch_exit_2(self, tmp_path, capsys, command):
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, np.eye(3))
        save_matrix(b_path, np.eye(4))
        assert main([command, "--a", str(a_path), "--b", str(b_path)]) == 2
        assert capsys.readouterr().err == "error: A is 3x3 but B is 4x4\n"


# Literal stdout of `bounds` and `example`, recorded with numpy 2.4.6 and its
# bundled OpenBLAS: the computed spectrum of AB, and every sum read off it,
# carry that LAPACK build's rounding in their last bits.
BOUNDS_GOLDEN = {
    '1': (
        'spectrum A:  3 -1 -4\n'
        'spectrum B:  3 2 1\n'
        'spectrum AB: 3 -3 -8\n'
        'inertia A:   positive=1 negative=2 zero=0 (nonnegative=1)\n'
        'selection:   indices=1 k=1 selected_nonneg=1 branch=all-selected-nonnegative\n'
        'main bounds: lower=3 actual=3 upper=9\n'
        'slacks:      lower=-8.881784197e-16 upper=6\n'
        'splitting:   upper=9 T1=0 T2=0 dominance_ok=True\n'
        'gap:         p=1 q=2 gap=6 bound=12\n'
        'ostrowski:   range=[1, 3] ratios 1:1 2:3 3:2\n',
        '{"version": "EIGB1", "spectrum_a": [3.0, -1.0, -4.0], "spectrum_b": [3.0, 2.0, 1.0],'
        ' "spectrum_ab": [2.999999999999999, -2.999999999999999, -8.000000000000002],'
        ' "inertia_a": [1, 2, 0], "indices": [1], "selected_nonneg": 1,'
        ' "branch": "all-selected-nonnegative", "lower": 3.0, "actual": 2.999999999999999,'
        ' "upper": 9.0, "lower_slack": -8.881784197001252e-16, "upper_slack": 6.000000000000001,'
        ' "splitting_upper": 9.0, "t1": 0.0, "t2": 0.0, "dominance_ok": true, "gap": {"p": 1,'
        ' "q": 2, "gap": 5.999999999999998, "bound": 12.0}, "ostrowski": {"low": 1.0, "high": 3.0,'
        ' "ratios": [{"t": 1, "ratio": 0.9999999999999997}, {"t": 2, "ratio": 2.999999999999999},'
        ' {"t": 3, "ratio": 2.0000000000000004}]}}\n',
    ),
    '2': (
        'spectrum A:  3 -1 -4\n'
        'spectrum B:  3 2 1\n'
        'spectrum AB: 3 -3 -8\n'
        'inertia A:   positive=1 negative=2 zero=0 (nonnegative=1)\n'
        'selection:   indices=2 k=1 selected_nonneg=0 branch=all-selected-negative\n'
        'main bounds: lower=-3 actual=-3 upper=-1\n'
        'slacks:      lower=8.881784197e-16 upper=2\n'
        'splitting:   upper=0 T1=-1 T2=0 dominance_ok=True\n'
        'gap:         p=1 q=2 gap=6 bound=12\n'
        'ostrowski:   range=[1, 3] ratios 1:1 2:3 3:2\n',
        '{"version": "EIGB1", "spectrum_a": [3.0, -1.0, -4.0], "spectrum_b": [3.0, 2.0, 1.0],'
        ' "spectrum_ab": [2.999999999999999, -2.999999999999999, -8.000000000000002],'
        ' "inertia_a": [1, 2, 0], "indices": [2], "selected_nonneg": 0,'
        ' "branch": "all-selected-negative", "lower": -3.0, "actual": -2.999999999999999,'
        ' "upper": -1.0, "lower_slack": 8.881784197001252e-16, "upper_slack": 1.9999999999999991,'
        ' "splitting_upper": 0.0, "t1": -1.0, "t2": 0.0, "dominance_ok": true, "gap": {"p": 1,'
        ' "q": 2, "gap": 5.999999999999998, "bound": 12.0}, "ostrowski": {"low": 1.0, "high": 3.0,'
        ' "ratios": [{"t": 1, "ratio": 0.9999999999999997}, {"t": 2, "ratio": 2.999999999999999},'
        ' {"t": 3, "ratio": 2.0000000000000004}]}}\n',
    ),
    '3': (
        'spectrum A:  3 -1 -4\n'
        'spectrum B:  3 2 1\n'
        'spectrum AB: 3 -3 -8\n'
        'inertia A:   positive=1 negative=2 zero=0 (nonnegative=1)\n'
        'selection:   indices=3 k=1 selected_nonneg=0 branch=all-selected-negative\n'
        'main bounds: lower=-12 actual=-8 upper=-4\n'
        'slacks:      lower=4 upper=4\n'
        'splitting:   upper=0 T1=-4 T2=0 dominance_ok=True\n'
        'gap:         p=1 q=2 gap=6 bound=12\n'
        'ostrowski:   range=[1, 3] ratios 1:1 2:3 3:2\n',
        '{"version": "EIGB1", "spectrum_a": [3.0, -1.0, -4.0], "spectrum_b": [3.0, 2.0, 1.0],'
        ' "spectrum_ab": [2.999999999999999, -2.999999999999999, -8.000000000000002],'
        ' "inertia_a": [1, 2, 0], "indices": [3], "selected_nonneg": 0,'
        ' "branch": "all-selected-negative", "lower": -12.0, "actual": -8.000000000000002,'
        ' "upper": -4.0, "lower_slack": 3.9999999999999982, "upper_slack": 4.000000000000002,'
        ' "splitting_upper": 0.0, "t1": -4.0, "t2": 0.0, "dominance_ok": true, "gap": {"p": 1,'
        ' "q": 2, "gap": 5.999999999999998, "bound": 12.0}, "ostrowski": {"low": 1.0, "high": 3.0,'
        ' "ratios": [{"t": 1, "ratio": 0.9999999999999997}, {"t": 2, "ratio": 2.999999999999999},'
        ' {"t": 3, "ratio": 2.0000000000000004}]}}\n',
    ),
    '1,2': (
        'spectrum A:  3 -1 -4\n'
        'spectrum B:  3 2 1\n'
        'spectrum AB: 3 -3 -8\n'
        'inertia A:   positive=1 negative=2 zero=0 (nonnegative=1)\n'
        'selection:   indices=1,2 k=2 selected_nonneg=1 branch=mixed-selection\n'
        'main bounds: lower=0 actual=0 upper=8\n'
        'slacks:      lower=0 upper=8\n'
        'splitting:   upper=8 T1=-1 T2=-1 dominance_ok=True\n'
        'gap:         p=1 q=2 gap=6 bound=12\n'
        'ostrowski:   range=[1, 3] ratios 1:1 2:3 3:2\n',
        '{"version": "EIGB1", "spectrum_a": [3.0, -1.0, -4.0], "spectrum_b": [3.0, 2.0, 1.0],'
        ' "spectrum_ab": [2.999999999999999, -2.999999999999999, -8.000000000000002],'
        ' "inertia_a": [1, 2, 0], "indices": [1, 2], "selected_nonneg": 1,'
        ' "branch": "mixed-selection", "lower": 0.0, "actual": 0.0, "upper": 8.0,'
        ' "lower_slack": 0.0, "upper_slack": 8.0, "splitting_upper": 8.0, "t1": -1.0, "t2": -1.0,'
        ' "dominance_ok": true, "gap": {"p": 1, "q": 2, "gap": 5.999999999999998, "bound": 12.0},'
        ' "ostrowski": {"low": 1.0, "high": 3.0, "ratios": [{"t": 1, "ratio": 0.9999999999999997},'
        ' {"t": 2, "ratio": 2.999999999999999}, {"t": 3, "ratio": 2.0000000000000004}]}}\n',
    ),
    '1,3': (
        'spectrum A:  3 -1 -4\n'
        'spectrum B:  3 2 1\n'
        'spectrum AB: 3 -3 -8\n'
        'inertia A:   positive=1 negative=2 zero=0 (nonnegative=1)\n'
        'selection:   indices=1,3 k=2 selected_nonneg=1 branch=mixed-selection\n'
        'main bounds: lower=-9 actual=-5 upper=5\n'
        'slacks:      lower=4 upper=10\n'
        'splitting:   upper=8 T1=-4 T2=-1 dominance_ok=True\n'
        'gap:         p=1 q=2 gap=6 bound=12\n'
        'ostrowski:   range=[1, 3] ratios 1:1 2:3 3:2\n',
        '{"version": "EIGB1", "spectrum_a": [3.0, -1.0, -4.0], "spectrum_b": [3.0, 2.0, 1.0],'
        ' "spectrum_ab": [2.999999999999999, -2.999999999999999, -8.000000000000002],'
        ' "inertia_a": [1, 2, 0], "indices": [1, 3], "selected_nonneg": 1,'
        ' "branch": "mixed-selection", "lower": -9.0, "actual": -5.000000000000003, "upper": 5.0,'
        ' "lower_slack": 3.9999999999999973, "upper_slack": 10.000000000000004,'
        ' "splitting_upper": 8.0, "t1": -4.0, "t2": -1.0, "dominance_ok": true, "gap": {"p": 1,'
        ' "q": 2, "gap": 5.999999999999998, "bound": 12.0}, "ostrowski": {"low": 1.0, "high": 3.0,'
        ' "ratios": [{"t": 1, "ratio": 0.9999999999999997}, {"t": 2, "ratio": 2.999999999999999},'
        ' {"t": 3, "ratio": 2.0000000000000004}]}}\n',
    ),
    '2,3': (
        'spectrum A:  3 -1 -4\n'
        'spectrum B:  3 2 1\n'
        'spectrum AB: 3 -3 -8\n'
        'inertia A:   positive=1 negative=2 zero=0 (nonnegative=1)\n'
        'selection:   indices=2,3 k=2 selected_nonneg=0 branch=all-selected-negative\n'
        'main bounds: lower=-14 actual=-11 upper=-6\n'
        'slacks:      lower=3 upper=5\n'
        'splitting:   upper=-1 T1=-6 T2=-1 dominance_ok=True\n'
        'gap:         p=1 q=2 gap=6 bound=12\n'
        'ostrowski:   range=[1, 3] ratios 1:1 2:3 3:2\n',
        '{"version": "EIGB1", "spectrum_a": [3.0, -1.0, -4.0], "spectrum_b": [3.0, 2.0, 1.0],'
        ' "spectrum_ab": [2.999999999999999, -2.999999999999999, -8.000000000000002],'
        ' "inertia_a": [1, 2, 0], "indices": [2, 3], "selected_nonneg": 0,'
        ' "branch": "all-selected-negative", "lower": -14.0, "actual": -11.0, "upper": -6.0,'
        ' "lower_slack": 3.0, "upper_slack": 5.0, "splitting_upper": -1.0, "t1": -6.0, "t2": -1.0,'
        ' "dominance_ok": true, "gap": {"p": 1, "q": 2, "gap": 5.999999999999998, "bound": 12.0},'
        ' "ostrowski": {"low": 1.0, "high": 3.0, "ratios": [{"t": 1, "ratio": 0.9999999999999997},'
        ' {"t": 2, "ratio": 2.999999999999999}, {"t": 3, "ratio": 2.0000000000000004}]}}\n',
    ),
    '1,2,3': (
        'spectrum A:  3 -1 -4\n'
        'spectrum B:  3 2 1\n'
        'spectrum AB: 3 -3 -8\n'
        'inertia A:   positive=1 negative=2 zero=0 (nonnegative=1)\n'
        'selection:   indices=1,2,3 k=3 selected_nonneg=1 branch=mixed-selection\n'
        'main bounds: lower=-11 actual=-8 upper=3\n'
        'slacks:      lower=3 upper=11\n'
        'splitting:   upper=3 T1=-6 T2=-6 dominance_ok=True\n'
        'gap:         p=1 q=2 gap=6 bound=12\n'
        'ostrowski:   range=[1, 3] ratios 1:1 2:3 3:2\n',
        '{"version": "EIGB1", "spectrum_a": [3.0, -1.0, -4.0], "spectrum_b": [3.0, 2.0, 1.0],'
        ' "spectrum_ab": [2.999999999999999, -2.999999999999999, -8.000000000000002],'
        ' "inertia_a": [1, 2, 0], "indices": [1, 2, 3], "selected_nonneg": 1,'
        ' "branch": "mixed-selection", "lower": -11.0, "actual": -8.000000000000002, "upper": 3.0,'
        ' "lower_slack": 2.9999999999999982, "upper_slack": 11.000000000000002,'
        ' "splitting_upper": 3.0, "t1": -6.0, "t2": -6.0, "dominance_ok": true, "gap": {"p": 1,'
        ' "q": 2, "gap": 5.999999999999998, "bound": 12.0}, "ostrowski": {"low": 1.0, "high": 3.0,'
        ' "ratios": [{"t": 1, "ratio": 0.9999999999999997}, {"t": 2, "ratio": 2.999999999999999},'
        ' {"t": 3, "ratio": 2.0000000000000004}]}}\n',
    ),
}
EXTREME_GOLDEN = (
    'spectrum A:  1e+200 1\n'
    'spectrum B:  1e+200 1\n'
    'spectrum AB: 1e+200 0\n'
    'inertia A:   positive=1 negative=0 zero=1 (nonnegative=2)\n'
    'selection:   indices=1 k=1 selected_nonneg=1 branch=all-selected-nonnegative\n'
    'main bounds: lower=1e+200 actual=1e+200 upper=inf\n'
    'slacks:      lower=0 upper=inf\n'
    'splitting:   upper=inf T1=0 T2=0 dominance_ok=False\n',
    '{"version": "EIGB1", "spectrum_a": [1e+200, 1.0], "spectrum_b": [1e+200, 1.0],'
    ' "spectrum_ab": [1e+200, 0.0], "inertia_a": [1, 0, 1], "indices": [1],'
    ' "selected_nonneg": 1, "branch": "all-selected-nonnegative", "lower": 1e+200,'
    ' "actual": 1e+200, "upper": Infinity, "lower_slack": 0.0, "upper_slack": Infinity,'
    ' "splitting_upper": Infinity, "t1": 0.0, "t2": 0.0, "dominance_ok": false, "gap": null,'
    ' "ostrowski": null}\n',
)
EXAMPLE_GOLDEN = (
    'case  indices  upper  actual  lower\n'
    'I     1,2      8      0       0\n'
    'II    1,3      5      -5      -9\n'
    'III   2,3      -6     -11     -14\n'
    'max deviation from expected values: 2.665e-15\n',
    '{"version": "EIGB1", "cases": [{"case": "I", "indices": [1, 2], "upper": 8.0,'
    ' "actual": 0.0, "lower": 0.0}, {"case": "II", "indices": [1, 3], "upper": 5.0,'
    ' "actual": -5.000000000000003, "lower": -9.0}, {"case": "III", "indices": [2, 3],'
    ' "upper": -6.0, "actual": -11.0, "lower": -14.0}],'
    ' "max_deviation": 2.6645352591003757e-15, "ok": true}\n',
)


class TestGoldenOutput:
    """Every number `bounds` and `example` print, byte for byte."""

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("indices", list(BOUNDS_GOLDEN))
    def test_bounds_on_the_example_pair(self, example_files, capsys, indices, as_json):
        a, b = example_files
        argv = ["bounds", "--a", a, "--b", b, "--indices", indices] + ["--json"] * as_json
        assert main(argv) == 0
        assert capsys.readouterr() == (BOUNDS_GOLDEN[indices][as_json], "")

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_bounds_at_extreme_scale(self, tmp_path, capsys, as_json):
        # A = diag(1e200, 1) against B = diag(1, 1e200): the upper bounds
        # overflow to inf (ROADMAP item 2), silently.
        a_path, b_path = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a_path, np.diag([1e200, 1.0]))
        save_matrix(b_path, np.diag([1.0, 1e200]))
        argv = ["bounds", "--a", str(a_path), "--b", str(b_path), "--indices", "1",
                "--tol-verify", "0"] + ["--json"] * as_json
        assert main(argv) == 0
        assert capsys.readouterr() == (EXTREME_GOLDEN[as_json], "")

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_example(self, capsys, as_json):
        assert main(["example"] + ["--json"] * as_json) == 0
        assert capsys.readouterr() == (EXAMPLE_GOLDEN[as_json], "")
