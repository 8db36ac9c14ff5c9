import numpy as np
import pytest
from hypothesis import given, strategies as st

from polaray.errors import InvalidInput
from polaray.gauge import (
    FieldStrengthMode,
    FourierMode,
    GaugeFunction,
    PolarizationBasis,
    classify_mode,
    field_strength_mode,
    gauge_transform,
    lorenz_residual,
    minkowski_pairing,
    physical_kernel,
    physical_polarizations,
    radiation_fix,
    standard_basis,
)
from polaray.minkowski import ZeroSpatialPart, spatial_momentum

from conftest import random_null_covector
from oracles import completeness_residual, pairing_matrix, subspace_angle_max, transverse_oracle

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
K_Z = np.array([1.0, 0.0, 0.0, -1.0])  # momentum along +z


class TestPairing:
    def test_timelike_unit(self):
        assert minkowski_pairing([1, 0, 0, 0], [1, 0, 0, 0]) == 1

    def test_spacelike_unit(self):
        assert minkowski_pairing([0, 1, 0, 0], [0, 1, 0, 0]) == -1

    def test_pythagorean_null(self):
        assert minkowski_pairing([5, 3, 4, 0], [5, 3, 4, 0]) == 0


class TestStandardBasis:
    def test_canonical_along_z(self):
        basis = standard_basis(K_Z)
        assert np.array_equal(basis.eps, np.eye(4))

    def test_momentum_along_x(self):
        basis = standard_basis([1.0, -1.0, 0.0, 0.0])
        khat = spatial_momentum([1.0, -1.0, 0.0, 0.0])
        # longitudinal spatial part along the momentum, transverse orthogonal
        np.testing.assert_allclose(basis.eps[3, 1:4].real, khat, atol=1e-15)
        for lam in (1, 2):
            assert abs(np.dot(basis.eps[lam, 1:4], khat)) < 1e-14

    def test_orthonormality_random(self, rng):
        for _ in range(50):
            basis = standard_basis(random_null_covector(rng))
            np.testing.assert_allclose(pairing_matrix(basis), ETA, atol=1e-12)

    def test_antipodal_direction(self):
        basis = standard_basis([1.0, 0.0, 0.0, 1.0])  # momentum along -z
        np.testing.assert_allclose(pairing_matrix(basis), ETA, atol=1e-14)

    def test_zero_spatial_rejected(self):
        with pytest.raises(ZeroSpatialPart):
            standard_basis([1.0, 0.0, 0.0, 0.0])


class TestCompleteness:
    def test_canonical_exact(self):
        assert completeness_residual(standard_basis(K_Z)) == 0.0

    def test_rotated_small(self, rng):
        for _ in range(20):
            assert completeness_residual(standard_basis(random_null_covector(rng))) <= 1e-12

    def test_doubled_vector_breaks_it(self):
        basis = standard_basis(K_Z)
        eps = basis.eps.copy()
        eps[1] = 2.0 * eps[1]
        assert completeness_residual(PolarizationBasis(k=K_Z, eps=eps)) == 3.0


class TestLorenzResidual:
    def test_transverse_vanishes(self):
        assert lorenz_residual(FourierMode(K_Z, [0, 1, 0, 0])) == 0

    def test_longitudinal_unit(self):
        assert lorenz_residual(FourierMode(K_Z, [0, 0, 0, 1])) == 1

    def test_timelike_unit(self):
        assert lorenz_residual(FourierMode(K_Z, [1, 0, 0, 0])) == 1


class TestFourierMode:
    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(InvalidInput, match="amplitude"):
            FourierMode(K_Z, [0, 1, 0, 0], amplitude)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: PolarizationBasis(K_Z, np.eye(3)), "four 4-vectors"),
            (lambda: FourierMode(K_Z, [0, 1, 0]), "4 components"),
            (lambda: GaugeFunction(complex(np.inf, 0.0)), "chi_hat must be finite"),
            (lambda: FieldStrengthMode(np.zeros((3, 3))), "4x4"),
            (lambda: FieldStrengthMode(np.ones((4, 4))), "antisymmetric"),
            (lambda: physical_kernel([1e-16, 1, 0, 0]), "k0 != 0"),
        ],
        ids=["basis-shape", "eps-shape", "inf-chi", "strength-shape", "symmetric-strength",
             "tiny-k0-kernel"],
    )
    def test_malformed_gauge_inputs_are_invalid_input(self, build, match):
        with pytest.raises(InvalidInput, match=match):
            build()

    def test_overflowing_null_test_is_off_the_cone(self):
        # k.k of the raw k would overflow to inf - inf = NaN; k / max|k_mu| does not
        with pytest.raises(InvalidInput, match=r"off the cone: k.k / \|k\|\^2 = 6.000e-01$"):
            FourierMode([2e200, 1e200, 0, 0], [0, 0, 1, 0])


class TestGaugeTransform:
    def test_zero_chi_identity(self):
        mode = FourierMode(K_Z, [1, 1, 0, -1])
        out = gauge_transform(mode, GaugeFunction(0.0))
        assert np.array_equal(out.eps, mode.eps)

    def test_removes_gauge_part(self):
        mode = FourierMode(K_Z, [1, 1, 0, -1])
        out = gauge_transform(mode, GaugeFunction(1j))
        assert np.array_equal(out.eps, np.array([0, 1, 0, 0], dtype=complex))

    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_lorenz_residual_invariant_on_cone(self, re, im):
        mode = FourierMode(K_Z, [0.3, 1, 0.2, -0.5])
        out = gauge_transform(mode, GaugeFunction(complex(re, im)))
        assert abs(lorenz_residual(out) - lorenz_residual(mode)) <= 1e-12


class TestRadiationFix:
    def test_lorenz_valid_input_becomes_transverse(self):
        mode = FourierMode(K_Z, [1, 1, 0, -1])
        fixed, chi = radiation_fix(mode)
        assert chi.chi_hat == 1j
        assert np.array_equal(fixed.eps, np.array([0, 1, 0, 0], dtype=complex))

    def test_already_fixed_unchanged(self):
        mode = FourierMode(K_Z, [0, 1, 1j, 0])
        fixed, chi = radiation_fix(mode)
        assert chi.chi_hat == 0
        assert np.array_equal(fixed.eps, mode.eps)

    def test_lorenz_violation_persists(self):
        mode = FourierMode(K_Z, [1, 1, 0, 0])
        fixed, _ = radiation_fix(mode)
        assert fixed.eps[0] == 0.0
        kvec = spatial_momentum(K_Z)
        assert abs(np.dot(kvec, fixed.eps[1:4])) == pytest.approx(1.0)
        assert lorenz_residual(fixed) == lorenz_residual(mode)

    def test_idempotent(self, rng):
        for _ in range(20):
            k = random_null_covector(rng)
            eps = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            once, _ = radiation_fix(FourierMode(k, eps))
            twice, chi2 = radiation_fix(once)
            assert chi2.chi_hat == 0
            assert np.array_equal(twice.eps, once.eps)

    def test_exact_zero_time_component(self, rng):
        for _ in range(50):
            k = random_null_covector(rng)
            eps = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
            fixed, _ = radiation_fix(FourierMode(k, eps))
            assert fixed.eps[0] == 0.0  # exact, not approximately

    def test_zero_frequency_impossible_on_cone(self):
        # a null covector with k0 = 0 has zero spatial part and is rejected
        # by the mode type itself
        with pytest.raises(InvalidInput):
            FourierMode([0.0, 0.5, 0, 0], [0, 1, 0, 0])


class TestPhysicalPolarizations:
    def test_linear_canonical(self):
        e1, e2 = physical_polarizations(K_Z, "linear")
        assert np.array_equal(e1, np.array([0, 1, 0, 0], dtype=complex))
        assert np.array_equal(e2, np.array([0, 0, 1, 0], dtype=complex))

    def test_circular_canonical(self):
        ep, em = physical_polarizations(K_Z, "circular")
        np.testing.assert_allclose(ep, np.array([0, 1, 1j, 0]) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(em, np.array([0, 1, -1j, 0]) / np.sqrt(2), atol=1e-15)

    def test_pythagorean_direction_constraints(self):
        k = np.array([5.0, 3.0, 4.0, 0.0])
        for eps in physical_polarizations(k, "linear"):
            assert abs(minkowski_pairing(k, eps)) <= 1e-12
            assert abs(eps[0]) <= 1e-12

    def test_unknown_style(self):
        with pytest.raises(InvalidInput):
            physical_polarizations(K_Z, "elliptic")


class TestPhysicalKernel:
    def test_canonical_span(self):
        kernel = physical_kernel(K_Z)
        target = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex)
        assert subspace_angle_max(kernel, target) <= 1e-10

    def test_dimension_two_everywhere(self, rng):
        for _ in range(100):
            kernel = physical_kernel(random_null_covector(rng))
            assert kernel.shape == (2, 4)
            gram = kernel.conj() @ kernel.T
            np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            k = random_null_covector(rng)
            assert subspace_angle_max(physical_kernel(k), transverse_oracle(k)) <= 1e-10

    def test_scaling_invariance(self, rng):
        for s in (0.5, 2.0, 10.0):
            for _ in range(10):
                k = random_null_covector(rng)
                assert subspace_angle_max(physical_kernel(k), physical_kernel(s * k)) <= 1e-10

    def test_pure_gauge_direction_quotiented(self):
        cls = classify_mode(FourierMode(K_Z, K_Z))
        assert cls.pure_gauge == 1
        assert cls.constraint_violation == 0
        assert np.max(np.abs(cls.transverse)) == 0


class TestClassifyMode:
    def test_purely_transverse(self):
        cls = classify_mode(FourierMode(K_Z, [0, 0, 1, 0]))
        assert cls.pure_gauge == 0 and cls.constraint_violation == 0
        assert np.array_equal(cls.transverse, np.array([0, 0, 1, 0], dtype=complex))

    def test_timelike_violates(self):
        cls = classify_mode(FourierMode(K_Z, [1, 0, 0, 0]))
        assert abs(cls.constraint_violation) > 0.4

    def test_violation_tracks_lorenz_residual(self, rng):
        # beta is proportional to k^mu eps_mu with factor 2 k0^2
        for _ in range(20):
            k = random_null_covector(rng)
            eps = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            mode = FourierMode(k, eps)
            cls = classify_mode(mode)
            expected = lorenz_residual(mode) / (2.0 * k[0] ** 2)
            assert abs(cls.constraint_violation - expected) <= 1e-10

    def test_decomposition_reassembles(self, rng):
        for _ in range(20):
            k = random_null_covector(rng)
            eps = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            cls = classify_mode(FourierMode(k, eps))
            partner = np.array([k[0], -k[1], -k[2], -k[3]], dtype=complex)
            rebuilt = cls.transverse + cls.pure_gauge * k + cls.constraint_violation * partner
            np.testing.assert_allclose(rebuilt, eps, atol=1e-12)


class TestFieldStrength:
    def test_component_values(self):
        F = field_strength_mode(FourierMode(K_Z, [0, 1, 0, 0])).F
        assert F[0, 1] == 1j
        assert F[3, 1] == -1j
        assert np.array_equal(F, -F.T)

    def test_gauge_invariance(self, rng):
        for _ in range(30):
            k = random_null_covector(rng)
            eps = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            mode = FourierMode(k, eps)
            chi = GaugeFunction(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            f0 = field_strength_mode(mode).F
            f1 = field_strength_mode(gauge_transform(mode, chi)).F
            assert np.max(np.abs(f1 - f0)) <= 1e-12

    def test_pure_gauge_carries_no_field(self):
        F = field_strength_mode(FourierMode(K_Z, K_Z)).F
        assert np.array_equal(F, np.zeros((4, 4)))

    def test_transverse_part_gauge_invariant(self, rng):
        for _ in range(20):
            k = random_null_covector(rng)
            eps = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            mode = FourierMode(k, eps)
            chi = GaugeFunction(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            t0 = classify_mode(mode).transverse
            t1 = classify_mode(gauge_transform(mode, chi)).transverse
            assert np.max(np.abs(t1 - t0)) <= 1e-12
