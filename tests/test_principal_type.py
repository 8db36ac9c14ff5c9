import numpy as np
import pytest

from polaray.errors import DimensionMismatch, InvalidInput
from polaray.minkowski import PhaseSpacePoint
from polaray.principal_type import (
    ComplexSymbol,
    NoDecomposition,
    char_membership,
    decompose_principal_type,
    is_real_principal_type,
    kernel_basis,
    kernel_residual,
)
from polaray.symbols import MatrixSymbol, pretty, scalar_wave

from conftest import EXACT_NULL_COVECTORS, exact_null_points, random_null_covector
from oracles import same_terms

NULL_PT = PhaseSpacePoint([0, 0, 0, 0], [1, 0, 0, -1])
TIME_PT = PhaseSpacePoint([0, 0, 0, 0], [1, 0, 0, 0])


def diag_symbol(entries_by_kexp):
    """diag matrix symbol from {k_exp: (d0, d1, ...)} with zero x-exponents."""
    n = len(next(iter(entries_by_kexp.values())))
    terms = [
        ((0, 0, 0, 0), k_exp, np.diag(np.asarray(diag, dtype=complex)))
        for k_exp, diag in entries_by_kexp.items()
    ]
    order = max(sum(k) for k in entries_by_kexp)
    return MatrixSymbol(n, order, terms)


class TestDecompose:
    def test_scalar_multiple_auto(self, maxwell):
        d = decompose_principal_type(maxwell)
        assert pretty(d.q) == "k^2"
        assert same_terms(d.p_tilde, MatrixSymbol.identity(4))
        assert d.scalar_multiple

    def test_a_constant_hint_is_c_times_the_identity(self, maxwell):
        z = (0, 0, 0, 0)
        with pytest.raises(DimensionMismatch, match="got 1x1 and 4x4"):
            decompose_principal_type(maxwell, hint=MatrixSymbol(1, 0, [(z, z, [[2.0]])]))
        d = decompose_principal_type(maxwell, hint=MatrixSymbol(4, 0, [(z, z, 2 * np.eye(4))]))
        assert pretty(d.q) == "2*k^2"

    def test_diagonal_with_hint(self):
        # p = diag(k^2, 2 k^2), hint diag(2, 1) -> q = 2 k^2
        wave = {ke: m[0, 0] for _, ke, m in scalar_wave().terms("principal")}
        p = diag_symbol({ke: (c, 2 * c) for ke, c in wave.items()})
        hint = diag_symbol({(0, 0, 0, 0): (2.0, 1.0)})
        d = decompose_principal_type(p, hint=hint)
        assert pretty(d.q) == "2*k^2"
        assert not d.scalar_multiple

    def test_mixed_degree_rows_fail(self):
        p = MatrixSymbol(
            2,
            2,
            [
                ((0, 0, 0, 0), (2, 0, 0, 0), np.diag([1.0, 0.0])),
                ((0, 0, 0, 0), (1, 0, 0, 0), np.diag([0.0, 1.0])),
            ],
        )
        for hint in (None, MatrixSymbol.identity(2)):
            with pytest.raises(NoDecomposition):
                decompose_principal_type(p, hint=hint)

    def test_bad_hint_rejected(self, maxwell):
        bad = MatrixSymbol(4, 0, [((0, 0, 0, 0), (0, 0, 0, 0), np.diag([1.0, 2, 3, 4]))])
        with pytest.raises(NoDecomposition):
            decompose_principal_type(maxwell, hint=bad)

    def test_identity_is_exact(self, maxwell):
        # p~ p - q * 1 must vanish coefficient by coefficient
        wave = {ke: m[0, 0] for _, ke, m in scalar_wave().terms("principal")}
        p = diag_symbol({ke: (c, 2 * c) for ke, c in wave.items()})
        hint = diag_symbol({(0, 0, 0, 0): (2.0, 1.0)})
        d = decompose_principal_type(p, hint=hint)
        product = d.p_tilde.matmul(d.p)
        eye = np.eye(p.dimension)
        for (xe, ke), mat in product.principal.items():
            expected = d.q.principal.get((xe, ke), np.zeros((1, 1)))[0, 0] * eye
            assert np.array_equal(mat, expected)


class TestRealPrincipalType:
    def test_wave_on_cone(self, maxwell_decomposition):
        assert is_real_principal_type(maxwell_decomposition.q, NULL_PT) is True

    def test_zero_fiber_rejected(self):
        with pytest.raises(ValueError):
            PhaseSpacePoint([0, 0, 0, 0], [0, 0, 0, 0])

    def test_degenerate_cubic(self):
        cubic = MatrixSymbol(1, 3, [((0, 0, 0, 0), (3, 0, 0, 0), [[1.0]])])
        assert is_real_principal_type(cubic, PhaseSpacePoint([0] * 4, [0, 1, 0, 0])) is False

    def test_complex_symbol_raises(self):
        sym = MatrixSymbol(1, 1, [((0, 0, 0, 0), (1, 0, 0, 0), [[1j]])])
        with pytest.raises(ComplexSymbol):
            is_real_principal_type(sym, TIME_PT)


class TestCharMembership:
    def test_null_covector_on_char(self, maxwell_decomposition):
        assert char_membership(maxwell_decomposition, NULL_PT) is True

    def test_timelike_off_char(self, maxwell_decomposition):
        assert char_membership(maxwell_decomposition, TIME_PT) is False

    def test_tiny_covector_on_cone(self, maxwell_decomposition):
        # |k| and dq/dk underflow here, so both verdicts must come from k/|k|
        pt = PhaseSpacePoint([0] * 4, [1e-200, 0, 0, -1e-200])
        assert char_membership(maxwell_decomposition, pt) is True
        assert is_real_principal_type(maxwell_decomposition.q, pt) is True

    def test_pythagorean_cone_point(self, maxwell_decomposition):
        assert char_membership(maxwell_decomposition, PhaseSpacePoint([0] * 4, [5, 3, 4, 0])) is True


class TestKernelBasis:
    def test_whole_space_on_cone(self, maxwell):
        vectors, _ = kernel_basis(maxwell, NULL_PT)
        assert len(vectors) == 4

    def test_empty_off_cone(self, maxwell):
        assert len(kernel_basis(maxwell, TIME_PT)[0]) == 0

    def test_diagonal_partial_kernel(self):
        wave = {ke: m[0, 0] for _, ke, m in scalar_wave().terms("principal")}
        p = diag_symbol({ke: (c, 0.0) for ke, c in wave.items()})
        p = MatrixSymbol(
            2,
            2,
            p.terms("principal") + [((0, 0, 0, 0), (0, 0, 0, 0), np.diag([0.0, 1.0]))],
        )
        vectors, _ = kernel_basis(p, NULL_PT)
        assert len(vectors) == 1
        assert abs(abs(vectors[0][0]) - 1.0) < 1e-14

    def test_overflowing_p_is_invalid_input(self, maxwell):
        pt = PhaseSpacePoint([0, 0, 0, 0], [1e200, 0, 0, -1e200])
        place = r"not finite at x = \(0, 0, 0, 0\), k = \(1e\+200, 0, 0, -1e\+200\)"
        with pytest.raises(InvalidInput, match=place):
            kernel_basis(maxwell, pt)

    def test_vectors_orthonormal(self, maxwell, rng):
        for pt in exact_null_points(rng, 5):
            vectors, _ = kernel_basis(maxwell, pt)
            gram = vectors.conj() @ vectors.T
            np.testing.assert_allclose(gram, np.eye(len(vectors)), atol=1e-13)


class TestCharKernelConsistency:
    def test_iff_over_point_families(self, maxwell, maxwell_decomposition, rng):
        pts = exact_null_points(rng, 400)
        pts += [
            PhaseSpacePoint(rng.uniform(-1, 1, 4), random_null_covector(rng))
            for _ in range(300)
        ]
        pts += [
            PhaseSpacePoint(rng.uniform(-1, 1, 4), k)
            for k in (rng.uniform(-2, 2, (300, 4)))
            if np.linalg.norm(k) > 0.2
        ]
        assert len(pts) >= 950
        for pt in pts:
            on_char = char_membership(maxwell_decomposition, pt, tol=1e-10)
            dim = len(kernel_basis(maxwell, pt, tol=1e-10)[0])
            assert on_char == (dim > 0)

    @pytest.mark.parametrize("delta", [0, 3e-11, 9e-11, 1.2e-10, 1.5e-10, 1.8e-10, 3e-10, 1e-6])
    def test_unequal_multiples_have_the_whole_fiber_or_nothing(self, delta):
        # p = diag(q, 2q), |q| / (term size) = delta: both singular directions
        # measure the same relative |q|, so they join the kernel together,
        # and exactly where the point is on the characteristic set
        wave = {ke: m[0, 0] for _, ke, m in scalar_wave().terms("principal")}
        p = diag_symbol({ke: (c, 2 * c) for ke, c in wave.items()})
        d = decompose_principal_type(p, hint=diag_symbol({(0, 0, 0, 0): (2.0, 1.0)}))
        pt = PhaseSpacePoint([0.0] * 4, [np.sqrt(1 + 2 * delta), 1.0, 0.0, 0.0])
        dim = len(kernel_basis(p, pt)[0])
        assert dim == (2 if delta < 1e-10 else 0) == 2 * char_membership(d, pt)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_conicity(self, maxwell, maxwell_decomposition, rng, s):
        pts = exact_null_points(rng, 40)
        pts += [PhaseSpacePoint(rng.uniform(-1, 1, 4), rng.uniform(-2, 2, 4)) for _ in range(20)]
        for pt in pts:
            scaled = PhaseSpacePoint(pt.x, s * pt.k)
            assert char_membership(maxwell_decomposition, pt) == char_membership(
                maxwell_decomposition, scaled
            )
            assert (
                len(kernel_basis(maxwell, pt)[0]) == len(kernel_basis(maxwell, scaled)[0])
            )

    def test_fiber_linearity(self, maxwell, rng):
        for k in EXACT_NULL_COVECTORS[:5]:
            pt = PhaseSpacePoint([0.3, 0, 0, 0], k)
            vectors, _ = kernel_basis(maxwell, pt)
            for v in vectors:
                for phase in (1j, np.exp(0.7j), -1.0):
                    assert kernel_residual(maxwell, pt, phase * v) <= 1e-12
