import numpy as np
import pytest

from polaray.errors import InvalidInput
from polaray.rays import (
    ConstraintDrift,
    NonNullStart,
    Ray,
    StepFailure,
    TooFewSamples,
    ZeroSpatialPart,
    geodesic_residual,
    line_deviation,
    null_curve_residual,
    null_project,
    trace_ray,
)
from polaray.symbols import parse_x_polynomial, scaled_wave

from conftest import graded_index_symbol, graded_null_start, observed_orders, random_null_covector


class TestNullProject:
    def test_unit_spatial(self):
        assert np.array_equal(null_project([0.7, 0, 0, -1], "+"), [1, 0, 0, -1])

    def test_three_four_five(self):
        assert np.array_equal(null_project([0, 3, 4, 0], "+"), [5, 3, 4, 0])

    def test_minus_branch(self):
        assert np.array_equal(null_project([0, 3, 4, 0], "-"), [-5, 3, 4, 0])

    def test_zero_spatial_part(self):
        with pytest.raises(ZeroSpatialPart):
            null_project([1, 0, 0, 0])


class TestTraceRay:
    def test_closed_form_endpoint(self, maxwell_decomposition):
        ray = trace_ray(maxwell_decomposition.q, [0, 0, 0, 0], [1, 0, 0, -1], (0, 1), 0.01)
        assert np.array_equal(ray.x[-1], [2, 0, 0, 2])
        assert np.array_equal(ray.k[-1], [1, 0, 0, -1])

    def test_empty_span_single_sample(self, maxwell_decomposition):
        ray = trace_ray(maxwell_decomposition.q, [1, 2, 3, 4], [1, 0, 0, -1], (0, 0), 0.01)
        assert len(ray) == 1
        assert np.array_equal(ray.x[0], [1, 2, 3, 4])

    def test_pythagorean_endpoint(self, maxwell_decomposition):
        ray = trace_ray(maxwell_decomposition.q, [0, 0, 0, 0], [5, 3, 4, 0], (0, 1), 0.01)
        assert np.array_equal(ray.x[-1], [10, -6, -8, 0])

    def test_non_null_start(self, maxwell_decomposition):
        with pytest.raises(NonNullStart):
            trace_ray(maxwell_decomposition.q, [0, 0, 0, 0], [1, 0, 0, 0], (0, 1), 0.01)

    def test_momentum_bit_exact(self, maxwell_decomposition, rng):
        for _ in range(10):
            k0 = random_null_covector(rng)
            ray = trace_ray(maxwell_decomposition.q, rng.uniform(-1, 1, 4), k0, (0, 10), 0.01)
            assert all(np.array_equal(row, k0) for row in ray.k)

    def test_conservation_and_straightness(self, maxwell_decomposition, rng):
        worst_q, worst_line, worst_null = 0.0, 0.0, 0.0
        for _ in range(10):
            k0 = random_null_covector(rng)
            ray = trace_ray(maxwell_decomposition.q, rng.uniform(-1, 1, 4), k0, (0, 10), 0.01)
            worst_q = max(worst_q, float(np.max(np.abs(ray.q))))
            worst_line = max(worst_line, line_deviation(ray.x))
            worst_null = max(worst_null, null_curve_residual(maxwell_decomposition.q, ray))
        assert worst_q <= 1e-10
        assert worst_line <= 1e-12
        assert worst_null <= 1e-10

    def test_light_cone_surface_from_origin(self, maxwell_decomposition, rng):
        eta = np.array([1.0, -1, -1, -1])
        for _ in range(5):
            ray = trace_ray(
                maxwell_decomposition.q, [0, 0, 0, 0], random_null_covector(rng), (0, 10), 0.01
            )
            interval = np.einsum("ij,j,ij->i", ray.x, eta, ray.x)
            assert np.max(np.abs(interval)) <= 1e-9

    def test_invalid_spans_and_steps(self, maxwell_decomposition):
        q = maxwell_decomposition.q
        with pytest.raises(InvalidInput):
            trace_ray(q, [0] * 4, [1, 0, 0, -1], (1, 0), 0.01)
        with pytest.raises(InvalidInput):
            trace_ray(q, [0] * 4, [1, 0, 0, -1], (0, 1), -0.1)
        with pytest.raises(InvalidInput):
            trace_ray(q, [0] * 4, [1, 0, 0, -1], (0, 1), 0.01, method="verlet")


class TestXDependentSymbol:
    def test_adaptive_conserves_constraint(self):
        # k3 != 0 so the ray moves through the x3-dependent factor; the
        # flow blows up near tau = pi/2 - atan(1/2), so stop short of it
        q = scaled_wave(parse_x_polynomial("1+0.25*x3^2"))
        ray = trace_ray(q, [0, 0, 0, 1], [1, 0, 0, -1], (0, 0.9), 0.05, method="adaptive")
        assert np.max(np.abs(ray.q)) <= 1e-8
        assert len(ray) > 3
        assert np.max(np.abs(np.diff(ray.x[:, 3]))) > 0

    def test_rk4_drift_monitor(self):
        # a symbol violently x-dependent off the cone start: force drift abort
        q = scaled_wave(parse_x_polynomial("1+x1^2+x2^2"))
        with pytest.raises((ConstraintDrift, NonNullStart)):
            trace_ray(q, [0, 3, 4, 0], [1.0000001, 0, 0, -1], (0, 10), 0.5, start_tol=1.0)

    def test_adaptive_step_failure_at_flow_blowup(self):
        # the velocity grows like x3^2 along this ray; the flow escapes to
        # infinity near tau = pi/2 - atan(1/2) and the controller must give up
        q = scaled_wave(parse_x_polynomial("1+0.25*x3^2"))
        with pytest.raises(StepFailure) as info:
            trace_ray(q, [0, 0, 0, 1], [1, 0, 0, -1], (0, 5), 0.1, method="adaptive")
        assert "1.10" in str(info.value)


class TestGeodesicResidual:
    def test_flat_ray_is_straight(self, maxwell_decomposition):
        ray = trace_ray(maxwell_decomposition.q, [0, 0, 0, 0], [1, 0, 0, -1], (0, 1), 0.1)
        assert geodesic_residual(ray) <= 1e-10

    def test_quadratic_curve_residual(self):
        tau = np.arange(11) * 0.1
        x = np.stack([tau, tau**2, np.zeros_like(tau), np.zeros_like(tau)], axis=1)
        k = np.broadcast_to([1.0, 0, 0, -1], (11, 4))
        ray = Ray(tau=tau, x=x, k=k, q=np.zeros(11))
        assert abs(geodesic_residual(ray) - 2.0) < 1e-9

    def test_too_few_samples(self):
        ray = Ray(
            tau=np.array([0.0, 0.1]),
            x=np.zeros((2, 4)),
            k=np.broadcast_to([1.0, 0, 0, -1], (2, 4)),
            q=np.zeros(2),
        )
        with pytest.raises(TooFewSamples):
            geodesic_residual(ray)


class TestConvergenceOrder:
    def test_rk4_reaches_fourth_order_on_a_bending_ray(self):
        q = graded_index_symbol()
        x0, k0 = graded_null_start()
        ends = []
        for n in (25, 50, 100, 200):
            ray = trace_ray(q, x0, k0, (0.0, 4.0), 4.0 / n, drift_tol=1e-3)
            ends.append(np.concatenate([ray.x[-1], ray.k[-1]]))
        assert ends[-1][7] < 0.0 < k0[3]  # the ray turns back in x3
        assert all(3.8 <= p <= 4.2 for p in observed_orders(ends))


class TestRayValidation:
    def test_decreasing_tau_rejected(self):
        with pytest.raises(InvalidInput):
            Ray(
                tau=np.array([0.0, -0.1]),
                x=np.zeros((2, 4)),
                k=np.broadcast_to([1.0, 0, 0, -1], (2, 4)),
                q=np.zeros(2),
            )

    def test_zero_covector_sample_rejected(self):
        with pytest.raises(InvalidInput):
            Ray(
                tau=np.array([0.0, 0.1]),
                x=np.zeros((2, 4)),
                k=np.array([[1.0, 0, 0, -1], [0, 0, 0, 0]]),
                q=np.zeros(2),
            )
