"""Core linear algebra: validation, eigensolvers, PSD sqrt, product spectrum."""

import numpy as np
import pytest

from eigb.errors import (
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotPositiveSemidefinite,
    NotSquare,
)
from eigb.linalg import (
    Spectrum,
    frobenius_norm,
    hermitian_eig,
    product_spectrum,
    psd_sqrt,
    validate_hermitian,
    validate_psd,
)
from oracle import jacobi_eig

# 3x3 case with integer spectra: A -> (3,-1,-4), B -> (3,2,1), AB -> (3,-3,-8).
A3 = [[1, 2, 0], [2, 1, 0], [0, 0, -4]]
B3 = [[2, -1, 0], [-1, 2, 0], [0, 0, 2]]


def random_hermitian(rng, n, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return validate_hermitian(scale * (z + z.conj().T) / 2)


def random_psd(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return validate_psd(z @ z.conj().T)


def charpoly_eigenvalues(m):
    """Independent oracle: characteristic polynomial coefficients by the
    Faddeev-LeVerrier recurrence, roots via the companion matrix."""
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0]
    coeffs = [1.0 + 0.0j]
    mk = np.zeros_like(m)
    ck = 1.0 + 0.0j
    for k in range(1, n + 1):
        mk = m @ (mk + ck * np.eye(n))
        ck = -np.trace(mk) / k
        coeffs.append(ck)
    return np.roots(coeffs)


class TestValidateHermitian:
    def test_real_symmetric_zero_defect(self):
        h = validate_hermitian([[1, 2], [2, 1]])
        assert h.hermiticity_defect == 0.0

    def test_antisymmetric_rejected(self):
        with pytest.raises(NotHermitian):
            validate_hermitian([[0, 1], [-1, 0]])

    def test_tiny_antisymmetric_rejected(self):
        # The threshold is relative to the largest entry, with no absolute floor.
        with pytest.raises(NotHermitian):
            validate_hermitian([[0, 1e-200], [-1e-200, 0]])

    def test_entry_modulus_beyond_range(self):
        # |1.5e308 + 1.5e308j| exceeds the largest double, and so does the defect.
        with pytest.raises(NotHermitian):
            validate_hermitian([[0, 1.5e308 + 1.5e308j], [0, 0]])
        x = 1e308 + 1e308j
        h = validate_hermitian([[0, x], [x.conjugate(), 0]])
        assert h.hermiticity_defect == 0.0
        assert hermitian_eig(h).spectrum.values == pytest.approx((abs(x), -abs(x)), rel=1e-15)

    def test_example_matrix_accepted(self):
        h = validate_hermitian(A3)
        assert h.n == 3
        np.testing.assert_allclose(h.matrix, np.array(A3, dtype=complex))

    def test_not_square(self):
        with pytest.raises(NotSquare):
            validate_hermitian([[1, 2, 3], [4, 5, 6]])

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            validate_hermitian([[np.nan, 0], [0, 1]])

    def test_symmetrizes_within_tolerance(self):
        m = [[1.0, 1 + 1e-12], [1 - 1e-12, 2.0]]
        h = validate_hermitian(m)
        assert h.hermiticity_defect <= 3e-12
        np.testing.assert_allclose(h.matrix, h.matrix.conj().T)

    def test_diagonal_made_real(self):
        h = validate_hermitian([[1 + 1e-12j, 0], [0, 2]])
        assert h.matrix[0, 0].imag == 0.0

    def test_entries_near_overflow(self):
        # (M + M*) / 2 overflows above about 9e307.
        h = validate_hermitian([[0.0, 1e308], [1e308, 0.0]])
        np.testing.assert_array_equal(h.matrix, [[0.0, 1e308], [1e308, 0.0]])
        assert hermitian_eig(h).spectrum.values == pytest.approx((1e308, -1e308), rel=1e-15)

    def test_symmetrization_bits_unchanged(self):
        # Wherever (M + M*) / 2 does not overflow it is the result, to the
        # bit: halving first would round the subnormal (5e-324 + 1e-323) / 2.
        # tol=2 accepts any matrix, so the entries can be drawn freely.
        rng = np.random.default_rng(5)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = z * np.power(10.0, rng.integers(-320, 300, size=(6, 6)))
        m[0, 1], m[1, 0] = 5e-324, 1e-323
        m[2, 3], m[3, 2] = -0.0 + 5e-324j, 0.0 + 1e-323j
        want = (m + m.conj().T) / 2.0
        np.fill_diagonal(want, want.diagonal().real)
        assert validate_hermitian(m, tol=2.0).matrix.tobytes() == want.tobytes()


class TestValidatePsd:
    def test_dimension(self):
        b = validate_psd(np.diag([3.0, 2.0, 0.0]))
        assert b.n == b.hermitian.n == len(b.spectrum) == 3

    def test_small_negative_clamped(self):
        b = validate_psd(np.diag([2.0, -1e-12]))
        assert b.min_eigenvalue == pytest.approx(-1e-12, abs=1e-13)
        assert b.spectrum[-1] == 0.0

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            validate_psd(np.diag([2.0, -0.5]))

    def test_tiny_indefinite_rejected(self):
        # The threshold is relative to the spectral radius, with no absolute floor.
        with pytest.raises(NotPositiveSemidefinite):
            validate_psd(np.diag([1e-200, -1e-200]))


class TestHermitianEig:
    solve = staticmethod(hermitian_eig)

    def test_scrambled_diagonal(self):
        d = self.solve(validate_hermitian(np.diag([-1.0, 3.0, -4.0])))
        assert d.spectrum.values == (3.0, -1.0, -4.0)

    def test_example_spectra(self):
        sa = self.solve(validate_hermitian(A3)).spectrum
        sb = self.solve(validate_hermitian(B3)).spectrum
        np.testing.assert_allclose(sa.values, [3, -1, -4], atol=1e-9)
        np.testing.assert_allclose(sb.values, [3, 2, 1], atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 50)))
        d = self.solve(h)
        v = d.vectors
        lam = np.array(d.spectrum.values)
        recon = (v * lam) @ v.conj().T
        fro = frobenius_norm(h.matrix)
        assert frobenius_norm(recon - h.matrix) <= 1e-10 * (1 + fro)
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy_eigh(self, seed):
        rng = np.random.default_rng(100 + seed)
        h = random_hermitian(rng, 6)
        ours = self.solve(h).spectrum.values
        theirs = np.sort(np.linalg.eigvalsh(h.matrix))[::-1]
        np.testing.assert_allclose(ours, theirs, atol=1e-10)

    def test_scaling_positive(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 5)
        base = np.array(self.solve(h).spectrum.values)
        scaled = np.array(self.solve(validate_hermitian(2.5 * h.matrix)).spectrum.values)
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-10, atol=1e-12)

    def test_scaling_negative_reverses(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 5)
        base = np.array(self.solve(h).spectrum.values)
        flipped = np.array(self.solve(validate_hermitian(-h.matrix)).spectrum.values)
        np.testing.assert_allclose(flipped, -base[::-1], rtol=1e-10, atol=1e-12)

    def test_zero_matrix(self):
        d = self.solve(validate_hermitian(np.zeros((3, 3))))
        assert d.spectrum.values == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
    def test_extreme_scale(self, scale):
        # ||A||_F overflows at 1e200 and underflows at 1e-200; 1e-310 is subnormal.
        d = self.solve(validate_hermitian([[0.0, scale], [scale, 0.0]]))
        np.testing.assert_allclose(d.spectrum.values, [scale, -scale], rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale_random(self, scale):
        h = random_hermitian(np.random.default_rng(9), 6)
        want = np.sort(np.linalg.eigvalsh(h.matrix))[::-1]
        got = np.array(self.solve(validate_hermitian(scale * h.matrix)).spectrum.values)
        np.testing.assert_allclose(got / scale, want, atol=1e-10 * np.abs(want).max())

    def test_eigenvalue_overflow_raises(self):
        # The eigenvalues 2.4e308, 0, 0 exceed the largest double.
        with pytest.raises(NonFinite):
            self.solve(validate_hermitian(np.full((3, 3), 8e307)))

    @pytest.mark.parametrize(
        "targets",
        [
            [5.0, 5.0, 5.0, 1.0, 1.0],
            [1.0, 1.0 + 1e-13, 1.0 + 2e-13, 0.5],
            [1e8, 1.0, 1e-8, 0.0],
            [3.0, 1e-10, -1e-10, -3.0],
        ],
        ids=["repeated", "near-degenerate", "wide-range", "sign-cluster"],
    )
    def test_pathological_spectra(self, targets):
        from eigb.harness import _haar_unitary

        rng = np.random.default_rng(17)
        vals = np.array(targets)
        re, im = rng.standard_normal((2, len(vals), len(vals)))
        q = _haar_unitary(((re + 1j * im) / np.sqrt(2.0))[None])[0]
        h = validate_hermitian((q * vals) @ q.conj().T)
        d = self.solve(h)
        got = np.array(d.spectrum.values)
        want = np.sort(vals)[::-1]
        assert np.max(np.abs(got - want)) <= 1e-10 * (1 + np.abs(vals).max())
        v = d.vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(vals)))) <= 1e-10


class TestJacobiOracle(TestHermitianEig):
    """The same bar for the Jacobi solver the tests use as an oracle."""

    solve = staticmethod(jacobi_eig)

    def test_no_convergence_surface(self, monkeypatch):
        import oracle
        from eigb.errors import NoConvergence

        monkeypatch.setattr(oracle, "JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence):
            oracle.jacobi_eig(validate_hermitian([[1, 1], [1, 1]]))


class TestSolverDifferential:
    """LAPACK and Jacobi spectra agree to 1e-10 relative to the largest eigenvalue."""

    @staticmethod
    def assert_agree(h):
        lapack = np.array(hermitian_eig(h).spectrum.values)
        jacobi = np.array(jacobi_eig(h).spectrum.values)
        assert np.max(np.abs(lapack - jacobi)) <= 1e-10 * np.abs(jacobi).max()

    @pytest.mark.parametrize("n", range(1, 17))
    def test_random(self, n):
        rng = np.random.default_rng(600 + n)
        self.assert_agree(random_hermitian(rng, n, scale=float(rng.uniform(0.1, 50))))

    @pytest.mark.parametrize("decades", [4, 8, 12])
    def test_graded(self, decades):
        # D M D with D running over `decades` orders of magnitude: eigenvalues
        # spread over twice that range.  The oracle stops on a normwise test
        # and LAPACK is normwise backward stable, so the agreement is
        # normwise: it says nothing of the small eigenvalues' relative
        # accuracy.
        rng = np.random.default_rng(700 + decades)
        n = 8
        d = np.logspace(0, -decades / 2, n)
        m = random_psd(rng, n).matrix + n * np.eye(n)
        self.assert_agree(validate_hermitian(d[:, None] * m * d[None, :]))


class TestPsdSqrt:
    def test_identity(self):
        r = psd_sqrt(validate_psd(np.eye(3)))
        np.testing.assert_allclose(r.matrix, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        r = psd_sqrt(validate_psd(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(r.matrix, np.diag([2.0, 3.0]), atol=1e-12)

    def test_example_square_recovers(self):
        b = validate_psd(B3)
        r = psd_sqrt(b).matrix
        np.testing.assert_allclose(r @ r, np.array(B3, dtype=complex), atol=1e-10)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(z)
        proj = q @ q.conj().T
        b = validate_psd(proj)
        np.testing.assert_allclose(psd_sqrt(b).matrix, proj, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_square_recovers_random(self, seed):
        rng = np.random.default_rng(400 + seed)
        b = random_psd(rng, int(rng.integers(2, 9)))
        r = psd_sqrt(b).matrix
        defect = frobenius_norm(r @ r - b.matrix)
        assert defect <= 1e-10 * (1 + frobenius_norm(b.matrix))

    def test_accepts_hermitian_wrapper(self):
        h = validate_hermitian(np.diag([4.0, 1.0]))
        b = validate_psd(h)
        assert b.hermitian is h
        np.testing.assert_allclose(psd_sqrt(b).matrix, np.diag([2.0, 1.0]), atol=1e-12)


class TestEigensolverEdges:
    def test_one_by_one(self):
        d = hermitian_eig(validate_hermitian([[7.0]]))
        assert d.spectrum.values == (7.0,)
        assert d.vectors[0, 0] == 1.0

    def test_lapack_failure_surface(self, monkeypatch):
        import eigb.linalg as linalg
        from eigb.errors import NoConvergence

        def failing_eigh(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(linalg, "eigh", failing_eigh)
        with pytest.raises(NoConvergence):
            linalg.hermitian_eig(validate_hermitian([[1, 1], [1, 1]]))

    def test_values_only_failure_surface(self, monkeypatch):
        # The values-only driver fails as eigh does: product_spectrum solves
        # B with eigh and the product with eigvalsh.
        import eigb.linalg as linalg
        from eigb.errors import NoConvergence

        def failing_eigvalsh(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(linalg, "eigvalsh", failing_eigvalsh)
        b = validate_psd(np.eye(2))
        with pytest.raises(NoConvergence, match="LAPACK eigensolver failed"):
            linalg.product_spectrum(validate_hermitian([[1, 1], [1, 1]]), b)


class TestProductSpectrum:
    def test_example_values(self):
        spec = product_spectrum(validate_hermitian(A3), validate_psd(B3))
        np.testing.assert_allclose(spec.values, [3, -3, -8], atol=1e-9)

    def test_identity_b(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 5)
        spec = product_spectrum(a, validate_psd(np.eye(5)))
        np.testing.assert_allclose(spec.values, hermitian_eig(a).spectrum.values, atol=1e-10)

    def test_positive_scaling(self):
        rng = np.random.default_rng(12)
        a = random_hermitian(rng, 4)
        b = random_psd(rng, 4)
        base = np.array(product_spectrum(a, b).values)
        scaled = np.array(product_spectrum(a, validate_psd(3.0 * b.matrix)).values)
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-9, atol=1e-10)

    def test_against_charpoly_rootfinder(self):
        rng = np.random.default_rng(7)
        a = random_psd(rng, 4)
        b = random_psd(rng, 4)
        ours = np.array(product_spectrum(a.hermitian, b).values)
        roots = charpoly_eigenvalues(a.matrix @ b.matrix)
        assert np.max(np.abs(roots.imag)) < 1e-8
        theirs = np.sort(roots.real)[::-1]
        np.testing.assert_allclose(ours, theirs, rtol=1e-8, atol=1e-8)

    def test_general_hermitian_against_charpoly(self):
        rng = np.random.default_rng(21)
        a = random_hermitian(rng, 4)
        b = random_psd(rng, 4)
        ours = np.array(product_spectrum(a, b).values)
        roots = charpoly_eigenvalues(a.matrix @ b.matrix)
        assert np.max(np.abs(roots.imag)) < 1e-8
        np.testing.assert_allclose(ours, np.sort(roots.real)[::-1], rtol=1e-8, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            product_spectrum(validate_hermitian(np.eye(2)), validate_psd(np.eye(3)))

    def test_zero_product(self):
        # A vanishes on the range of B, so every entry of B^(1/2) A B^(1/2) is
        # rounding, and so is its hermiticity defect: no relative hermiticity
        # test may reject it.
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        m = np.zeros((4, 4))
        m[2:, 2:] = [[1.0, 2.0], [2.0, -3.0]]
        m[:2, 2:] = [[1.0, -1.0], [0.5, 2.0]]
        m[2:, :2] = m[:2, 2:].T
        a = validate_hermitian(q @ m @ q.conj().T)
        b = validate_psd((q * [3.0, 1.0, 0.0, 0.0]) @ q.conj().T)
        np.testing.assert_allclose(product_spectrum(a, b).values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale(self, scale):
        # A and B commute: A has eigenvalues 3, -1 and B 3, 1 on the same vectors.
        a = validate_hermitian(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
        b = validate_psd([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(product_spectrum(a, b).values, [9 * scale, -scale], rtol=1e-12)

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(13)
        a = random_hermitian(rng, 6)
        b = random_psd(rng, 6)
        spec_sum = product_spectrum(a, b).sum()
        tr = np.trace(a.matrix @ b.matrix)
        scale = 1 + frobenius_norm(a.matrix) * frobenius_norm(b.matrix)
        assert abs(tr.imag) <= 1e-9 * scale
        assert abs(spec_sum - tr.real) <= 1e-9 * scale


class TestSmallOps:
    def test_example_trace(self):
        prod = np.array(A3, dtype=complex) @ np.array(B3, dtype=complex)
        assert np.trace(prod) == pytest.approx(-8.0, abs=1e-12)
        spec = product_spectrum(validate_hermitian(A3), validate_psd(B3))
        assert spec.sum() == pytest.approx(-8.0, abs=1e-9)

    def test_frobenius_zero(self):
        assert frobenius_norm(np.zeros((2, 2))) == 0.0

    def test_frobenius_any_shape(self):
        # The 2-norm of every entry, for a vector, a matrix or a stack.
        assert frobenius_norm(np.array([3.0, 4.0])) == 5.0
        assert frobenius_norm([3j]) == 3.0
        z = np.arange(12.0).reshape(2, 2, 3) * (1 - 2j)
        assert frobenius_norm(z) == frobenius_norm(z.reshape(4, 3)) == frobenius_norm(z.ravel())
        m = np.random.default_rng(7).standard_normal((5, 5)) * 1e3
        assert same_bits(frobenius_norm(m), frobenius_reference(m.astype(complex)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_frobenius_extreme_scale(self, scale):
        # The sum of squares overflows (underflows) at these scales.
        got = frobenius_norm(np.full((2, 2), 3.0 * scale))
        assert got == pytest.approx(6.0 * scale, rel=1e-15, abs=0.0)


class TestSpectrum:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Spectrum(values=(1.0, 2.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Spectrum(values=())

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Spectrum(values=(float("nan"),))


def same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def instance_stack(n, m=5, seed=0):
    """m (A, B) pairs of size n: A with a zero eigenvalue, every other B
    singular, and the pairs scaled by (1, 1), (1e200, 1e-200),
    (1e-200, 1e200), (1e200, 1) and (1e-200, 1) in turn."""
    rng = np.random.default_rng(1000 * n + seed)
    scales = [(1.0, 1.0), (1e200, 1e-200), (1e-200, 1e200), (1e200, 1.0), (1e-200, 1.0)]
    a, b = [], []
    for i in range(m):
        q_a, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q_b, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        va = rng.uniform(-5.0, 5.0, n)
        vb = rng.uniform(0.1, 5.0, n)
        if n >= 2:
            va[0] = 0.0
            vb[-1] = 0.0 if i % 2 else vb[-1]
        sa, sb = scales[i % len(scales)]
        a.append(sa * (q_a * va) @ q_a.conj().T)
        b.append(sb * (q_b * vb) @ q_b.conj().T)
    return np.stack(a), np.stack(b)


class TestEigOrder:
    """_eig takes LAPACK's ascending eigenvalues and their eigenvector
    columns in reverse, and _eig_values the values-only solve's eigenvalues:
    nothing re-sorts them."""

    def test_lapack_order_reversed(self):
        from eigb.linalg import _eig, _eig_values

        rng = np.random.default_rng(5)
        n = 5
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        # Repeated eigenvalues, signed zeros among them, at scales that
        # LAPACK sees as M / 2^e.
        diagonals = ([0.0] * n, [-0.0] * n, [-0.0, 0.0, 2.0, 2.0, -1.0], [3.0] * n)
        stack = [np.diag(d).astype(np.complex128) for d in diagonals]
        stack += [s * (q * [1.0, 1.0, 0.0, 0.0, -2.0]) @ q.conj().T for s in (1.0, 1e200, 1e-200)]
        m = np.stack(stack)
        e = np.frexp(np.abs(m.view(np.float64)).max(axis=(-2, -1)))[1]
        work = np.ldexp(m.view(np.float64), -e[:, None, None]).view(np.complex128)
        lapack_values, lapack_vectors = np.linalg.eigh(work)
        values, vectors = _eig(m)
        assert same_bits(values, np.ldexp(lapack_values, e[:, None])[:, ::-1])
        assert same_bits(vectors, lapack_vectors[..., ::-1])
        alone = np.ldexp(np.linalg.eigvalsh(work), e[:, None])[:, ::-1]
        assert same_bits(_eig_values(m), alone)
        for got in (values, alone):
            assert ((got == 0.0) & np.signbit(got)).any() and ((got == 0.0) & ~np.signbit(got)).any()

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_values_alone(self, n):
        # _eig gives each matrix of a stack hermitian_eig's values and
        # vectors.  _eig_values gives each the bits it gets alone, in
        # descending rows within rounding of _eig's (the values-only driver
        # need not match it bit for bit).
        from eigb.linalg import TOL_HERM, _eig, _eig_values, _validated

        a, _ = _validated(instance_stack(n)[0], TOL_HERM)
        values, vectors = _eig(a)
        alone = _eig_values(a)
        for i in range(len(a)):
            d = hermitian_eig(validate_hermitian(a[i].copy()))
            assert same_bits(values[i], d.spectrum.values)
            assert same_bits(vectors[i], d.vectors)
            assert same_bits(alone[i], _eig_values(a[i : i + 1].copy())[0])
        assert (alone[:, :-1] >= alone[:, 1:]).all()
        radius = np.abs(values).max(axis=1, keepdims=True)
        assert (np.abs(alone - values) <= 4 * n * np.finfo(float).eps * radius).all()


class TestValuesOnly:
    """The values-only solve (eigvalsh: zheevd without eigenvectors, dsterf
    on the tridiagonal) and hermitian_eig (zheevd with them) give spectra
    that agree within 4 n eps rho, rho the spectral radius, though not
    always bit for bit: on A, A + B and B^(1/2) A B^(1/2) as instance_spectra
    solves them."""

    @staticmethod
    def assert_within_rounding(a, b):
        from eigb.harness import instance_spectra
        from eigb.linalg import _symmetrized

        ha, pb = validate_hermitian(a), validate_psd(b)
        root = psd_sqrt(pb).matrix
        sp = instance_spectra(ha, pb)
        n = ha.n
        for got, matrix in (
            (sp.spec_a, ha.matrix),
            (sp.spec_sum, ha.matrix + pb.matrix),
            (sp.spec_ab, _symmetrized(root @ ha.matrix @ root)[0]),
        ):
            want = np.array(hermitian_eig(validate_hermitian(matrix)).spectrum.values)
            radius = np.abs(want).max()
            assert np.abs(got[0] - want).max() <= 4 * n * np.finfo(float).eps * radius

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40])
    @pytest.mark.parametrize("seed", range(3))
    def test_random(self, n, seed):
        rng = np.random.default_rng(700 + 10 * n + seed)
        self.assert_within_rounding(random_hermitian(rng, n).matrix, random_psd(rng, n).matrix)

    @pytest.mark.parametrize("n", [2, 3, 8, 40])
    def test_graded(self, n):
        # diag(1e200, 1)-type spectra, on the diagonal and in a random basis,
        # in A, in B and (up to 1e150, so that the product stays finite) in
        # both: the small eigenvalues are rounding next to rho.
        rng = np.random.default_rng(800 + n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        signs = np.where(np.arange(n) % 2, -1.0, 1.0)
        a, b = random_hermitian(rng, n).matrix, random_psd(rng, n).matrix
        big, mid = 10.0 ** np.linspace(200, 0, n), 10.0 ** np.linspace(150, 0, n)

        def rotated(d):
            return (q * d) @ q.conj().T

        for x, y in (
            (np.diag(signs * big), b),
            (rotated(signs * big), b),
            (a, np.diag(big)),
            (a, rotated(big)),
            (rotated(signs * mid), np.diag(mid[::-1])),
            (np.diag(signs * mid), rotated(mid)),
        ):
            self.assert_within_rounding(x, y)

    @pytest.mark.parametrize("n", [2, 5, 13, 40])
    def test_singular_b(self, n):
        rng = np.random.default_rng(900 + n)
        z = rng.standard_normal((n, n // 2)) + 1j * rng.standard_normal((n, n // 2))
        self.assert_within_rounding(random_hermitian(rng, n).matrix, z @ z.conj().T)

    @pytest.mark.parametrize("a, b", [(3.0, 2.0), (-1e-300, 1e300), (0.0, 0.0), (5e-324, 1.0)])
    def test_one_by_one(self, a, b):
        self.assert_within_rounding([[a]], [[b]])


class TestStackedMatchesPerMatrix:
    """Campaigns generate and solve instances in same-n stacks and must report
    what one instance at a time reports.  That rests on numpy running LAPACK
    and BLAS on each matrix of a stack exactly as on that matrix alone; a
    BLAS build that breaks it fails here instead of changing campaign output."""

    @pytest.mark.parametrize("n", range(1, 11))
    @np.errstate(over="ignore", invalid="ignore")  # the 1e+-200 pairs; only the bits count
    def test_kernels(self, n):
        a, b = instance_stack(n)
        rng = np.random.default_rng(n)
        z = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
        q, r = np.linalg.qr(z)
        values, vectors = np.linalg.eigh(a)
        v = vectors * values[:, None, :]
        stacked = {
            "eigh.values": values,
            "eigh.vectors": vectors,
            "eigvalsh": np.linalg.eigvalsh(a),
            "qr.q": q,
            "qr.r": r,
            "matmul.adjoint": v @ vectors.conj().swapaxes(-1, -2),
            "matmul.chain": b @ a @ b,
            "trace": np.trace(a @ b, axis1=-2, axis2=-1),
            "norm": [np.linalg.norm(x) for x in a],
        }
        for i in range(len(a)):
            ai, bi = a[i].copy(), b[i].copy()
            qi, ri = np.linalg.qr(z[i].copy())
            wi, ui = np.linalg.eigh(ai)
            single = {
                "eigh.values": wi,
                "eigh.vectors": ui,
                "eigvalsh": np.linalg.eigvalsh(ai),
                "qr.q": qi,
                "qr.r": ri,
                "matmul.adjoint": (ui * wi) @ ui.conj().T,
                "matmul.chain": bi @ ai @ bi,
                "trace": np.trace(ai @ bi),
                "norm": np.linalg.norm(ai),
            }
            for name, want in single.items():
                assert same_bits(np.asarray(stacked[name])[i], want), (name, i)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_instance_pipeline(self, n):
        # The stack against instance_spectra as composed from the
        # single-matrix functions, with the trace and norms taken per matrix:
        # B from validate_psd's eigh, A and A + B from the values-only solve
        # of each matrix alone.
        from eigb.harness import _spectra_stack
        from eigb.linalg import TOL_HERM, _eig_values, _psd_eig, _validated

        a, b = instance_stack(n)
        a_sym, _ = _validated(a, TOL_HERM)
        b_sym, _ = _validated(b, TOL_HERM)
        stacked = _spectra_stack(np.stack((a_sym, b_sym)), *_psd_eig(b_sym))
        for i in range(len(a)):
            ha = validate_hermitian(a[i].copy())
            pb = validate_psd(b[i].copy())
            assert same_bits(a_sym[i], ha.matrix)
            assert same_bits(b_sym[i], pb.matrix)
            want = {
                "spec_a": _eig_values(ha.matrix[None])[0],
                "spec_b": pb.spectrum.values,
                "spec_b_raw": pb.eig.spectrum.values,
                "spec_ab": product_spectrum(ha, pb).values,
                "spec_sum": _eig_values((ha.matrix + pb.matrix)[None])[0],
                "trace_product": np.trace(ha.matrix @ pb.matrix).real,
                "norm_product": frobenius_reference(ha.matrix) * frobenius_reference(pb.matrix),
            }
            for name, value in want.items():
                assert same_bits(getattr(stacked, name)[i], value), (name, i)


    @pytest.mark.parametrize("n", range(1, 13))
    def test_frobenius_norms(self, n):
        # One matmul over every matrix's strided real and imaginary rows, for
        # a stack with two leading axes: numpy's norm of each matrix (on
        # M / 2^e), bit for bit, at extreme scales and for the zero matrix.
        from eigb.linalg import _frobenius_norms

        rng = np.random.default_rng(200 + n)
        z = rng.standard_normal((2, 6, n, n)) + 1j * rng.standard_normal((2, 6, n, n))
        z[1, 2] = 0.0
        for scale in (1.0, 1e200, 1e-200):
            stack = z * scale
            got = _frobenius_norms(stack)
            assert got.shape == (2, 6)
            for at in np.ndindex(2, 6):
                assert same_bits(got[at], frobenius_reference(stack[at])), (scale, at)
                if scale == 1.0:
                    assert same_bits(got[at], np.linalg.norm(stack[at])), at

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fused_pair_solve(self, n):
        # A campaign stack generates and validates A and B as one (2m, n, n)
        # stack: its spectra have the bits of separate _generated and
        # _validated calls for A and for B, and _psd_eig on B.
        from eigb.harness import (
            CampaignConfig,
            GeneratorSpec,
            _carrier,
            _generated,
            _plans,
            _solved,
            _spectra_stack,
        )
        from eigb.linalg import TOL_HERM, _psd_eig, _validated

        plans = _plans(range(5, 35), 3, CampaignConfig(n_min=n, n_max=n), _carrier())
        members = list(range(30))
        specs = [
            [
                GeneratorSpec(n, seed, inertia_target=tuple(target))
                for seed, target in zip(plans.words[j, 1:3].tolist(), plans.inertia[j].tolist())
            ]
            for j in members
        ]
        a, _ = _validated(_generated([s[0] for s in specs], nonnegative=False), TOL_HERM)
        b, _ = _validated(_generated([s[1] for s in specs], nonnegative=True), TOL_HERM)
        want = _spectra_stack(np.stack((a, b)), *_psd_eig(b))
        got = _solved(plans, members, _carrier())
        for name, value in want._asdict().items():
            assert same_bits(getattr(got, name), value), name

    def test_spectrum_checks_on_a_stack(self):
        # The stacked pipeline checks its spectra as Spectrum does, and
        # reports the first failing row (instance, then spectrum).
        from eigb.linalg import _check_spectra

        good = [[2.0, 1.0], [1.0, 1.0]]
        for bad, message in (([1.0, np.nan], "finite"), ([1.0, 2.0], "non-increasing")):
            with pytest.raises(ValueError) as stacked:
                _check_spectra(np.array([good, [good[0], bad]]))
            with pytest.raises(ValueError) as single:
                Spectrum(tuple(bad))
            assert str(stacked.value) == str(single.value) == f"spectrum values must be {message}"
        with pytest.raises(ValueError, match="non-increasing"):
            _check_spectra(np.array([[[1.0, 2.0], [1.0, np.inf]]]))
        _check_spectra(np.array([good, good]))


def frobenius_reference(x):
    """||x||_F as np.linalg.norm gives it for x / 2^e, scaled back by 2^e."""
    e = int(np.frexp(max(np.abs(x.real).max(), np.abs(x.imag).max()))[1])
    return np.linalg.norm(x * 2.0**-e) * 2.0**e
