import math

import numpy as np
import pytest

from polaray import rays
from polaray.errors import InvalidInput
from polaray.minkowski import PhaseSpacePoint
from polaray.principal_type import decompose_principal_type
from polaray.rays import (
    ConstraintDrift,
    HamiltonSystem,
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
from polaray.symbols import VALUE, MatrixSymbol, hamilton_field, parse_x_polynomial, scaled_wave

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
        for bad_step in (-0.1, math.nan):
            with pytest.raises(InvalidInput):
                trace_ray(q, [0] * 4, [1, 0, 0, -1], (0, 1), bad_step)
        with pytest.raises(InvalidInput):
            trace_ray(q, [0] * 4, [1, 0, 0, -1], (0, 1), 0.01, method="verlet")

    @pytest.mark.parametrize("step", [1e-320, 1e-300])
    def test_rk4_step_count_beyond_the_budget(self, maxwell_decomposition, step):
        with pytest.raises(InvalidInput, match="rk4 steps, more than the budget of 10000000"):
            trace_ray(maxwell_decomposition.q, [0] * 4, [1, 0, 0, -1], (0, 1), step)

    def test_rk4_step_budget_names_the_count(self, maxwell_decomposition, monkeypatch):
        q = maxwell_decomposition.q
        monkeypatch.setattr(rays, "_MAX_STEPS", 5)
        assert len(trace_ray(q, [0] * 4, [1, 0, 0, -1], (0, 0.5), 0.1)) == 6
        with pytest.raises(InvalidInput, match="needs 10 rk4 steps, more than the budget of 5"):
            trace_ray(q, [0] * 4, [1, 0, 0, -1], (0, 1), 0.1)


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


def bundle_q():
    """q of the non-scalar diag(1, 2) graded symbol decomposed with the hint diag(2, 1)."""
    hint = MatrixSymbol(2, 0, [((0, 0, 0, 0), (0, 0, 0, 0), np.diag([2.0, 1.0]))])
    symbol = graded_index_symbol(2, scale=np.diag([1.0, 2.0]))
    return decompose_principal_type(symbol, hint=hint).q


def where(ray, j, label="step"):
    """The place a failure message names: index j and sample j of a ray."""
    x, k = (", ".join(f"{v:.9g}" for v in part) for part in (ray.x[j], ray.k[j]))
    return f"at {label} {j}, tau = {ray.tau[j]:.9g}, x = ({x}), k = ({k})"


class TestHamiltonSystem:
    @pytest.mark.parametrize("which", ["graded", "bundle"])
    def test_matches_hamilton_field_and_compiled_value(self, rng, which):
        q = decompose_principal_type(graded_index_symbol(2)).q if which == "graded" else bundle_q()
        system = HamiltonSystem(q)
        for x, k in rng.uniform(-2, 2, (2000, 2, 4)):
            value, flow = system(np.concatenate([x, k, [1.0]]))
            dx, dk = hamilton_field(q, PhaseSpacePoint(x, k))
            assert value == q.compiled(x, k)[VALUE, 0, 0].real
            assert np.array_equal(flow, np.concatenate([dx, dk, [0.0]]))

    def test_batch_rows_equal_single_point_calls(self, rng):
        system = HamiltonSystem(bundle_q())
        y = np.concatenate([rng.uniform(-2, 2, (10, 50, 8)), np.ones((10, 50, 1))], axis=-1)
        values, flows = system(y)
        assert values.shape == (10, 50) and flows.shape == (10, 50, 9)
        for index in np.ndindex(10, 50):
            value, flow = system(y[index])
            assert value == values[index]
            assert np.array_equal(flow, flows[index])

    def test_complex_symbol_refused(self):
        # q = k0 + 0.5i k1: hamilton_field refuses it, so ray tracing must too
        z = (0, 0, 0, 0)
        q = MatrixSymbol(1, 1, [(z, (1, 0, 0, 0), 1.0), (z, (0, 1, 0, 0), 0.5j)])
        with pytest.raises(InvalidInput, match="real-valued"):
            hamilton_field(q, PhaseSpacePoint(np.zeros(4), np.array([0.0, 0, 0, 1])))
        for method in ("rk4", "adaptive"):
            with pytest.raises(InvalidInput, match="real-valued"):
                trace_ray(q, [0, 0, 0, 0], [0, 0, 0, 1], (0, 1), 0.1, method=method)


DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def stage_by_stage_dormand_prince(q, x0, k0, tau1, h, rtol=1e-10, atol=1e-12):
    """Dormand-Prince 5(4) from tau = 0, one stage at a time through
    hamilton_field, with the controller trace_ray documents."""

    def field(y):
        dx, dk = hamilton_field(q, PhaseSpacePoint(y[:4], y[4:]))
        return np.concatenate([dx, dk])

    y = np.concatenate([x0, k0])
    tau, taus, ys = 0.0, [0.0], [y]
    h = min(h, tau1)
    while tau < tau1:
        h = min(h, tau1 - tau)
        stages = [field(y)]
        for row in DP_A:
            stages.append(field(y + h * sum(a * s for a, s in zip(row, stages))))
        y5 = y + h * sum(b * s for b, s in zip(DP_B5, stages))
        err_y = h * sum((b5 - b4) * s for b5, b4, s in zip(DP_B5, DP_B4, stages))
        err = np.max(np.abs(err_y) / (atol + rtol * np.maximum(np.abs(y), np.abs(y5))))
        if err <= 1.0:
            tau, y = tau + h, y5
            taus.append(tau)
            ys.append(y)
        h *= min(5.0, max(0.2, 0.9 * err ** (-0.2) if err > 0 else 5.0))
    return np.array(taus), np.array(ys)


def rotated_graded_start(theta):
    """graded_null_start rotated by theta about the x3 axis, an exact symmetry."""
    c, s = np.cos(theta), np.sin(theta)
    rotation = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
    x0, k0 = graded_null_start()
    return rotation @ x0, rotation @ k0


class TestAdaptive:
    @pytest.mark.parametrize("h", [0.02, 0.1, 0.4])
    def test_one_step_matches_stage_by_stage_dormand_prince(self, h):
        q = decompose_principal_type(graded_index_symbol(2)).q
        x0, k0 = graded_null_start()
        ray = trace_ray(q, x0, k0, (0.0, h), h, method="adaptive", rtol=1e-3, atol=1e-3)
        taus, ys = stage_by_stage_dormand_prince(q, x0, k0, h, h, rtol=1e-3, atol=1e-3)
        assert len(ray) == len(taus) == 2
        end = np.concatenate([ray.x[-1], ray.k[-1]])
        assert np.max(np.abs(end - ys[-1])) <= 1e-14 * np.max(np.abs(ys[-1]))

    @pytest.mark.parametrize("theta", [0.0, 1.0, 3.0, 5.0])
    def test_trace_matches_stage_by_stage_dormand_prince(self, theta):
        q = decompose_principal_type(graded_index_symbol(2)).q
        x0, k0 = rotated_graded_start(theta)
        ray = trace_ray(q, x0, k0, (0.0, 4.0), 0.02, method="adaptive")
        taus, ys = stage_by_stage_dormand_prince(q, x0, k0, 4.0, 0.02)
        assert len(ray) == len(taus) > 50
        # Both sum the same stages in a different order.  The controller
        # sees that rounding through an error estimate that cancels down
        # to about rtol, and shifts the accepted tau by a few 1e-10 of the
        # span (up to 2e-9 over rotated starts); compare each array
        # relative to its largest entry.
        for got, want in ((ray.tau, taus), (ray.x, ys[:, :4]), (ray.k, ys[:, 4:])):
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


class TestFailuresSayWhere:
    def setup_method(self):
        self.q = graded_index_symbol()
        self.x0, self.k0 = graded_null_start()

    def test_non_null_start(self):
        place = r"at step 0, tau = 0.5, x = \(0, 0.4, 0, 0.5\), k = \(1"
        with pytest.raises(NonNullStart, match=place):
            trace_ray(self.q, self.x0, self.k0 * [1.1, 1, 1, 1], (0.5, 1), 0.1)

    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    def test_constraint_drift(self, method):
        ray = trace_ray(self.q, self.x0, self.k0, (0.0, 4.0), 0.1, method=method, drift_tol=1e-3)
        j = int(np.argmax(np.abs(ray.q) > 1e-15))
        assert j > 0
        with pytest.raises(ConstraintDrift) as info:
            trace_ray(self.q, self.x0, self.k0, (0.0, 4.0), 0.1, method=method, drift_tol=1e-15)
        assert where(ray, j) in str(info.value)

    def test_step_underflow(self):
        q = scaled_wave(parse_x_polynomial("1+0.25*x3^2"))
        place = r"underflowed .* at step \d+, tau = 1\.10\d*, x = \("
        with pytest.raises(StepFailure, match=place):
            trace_ray(q, [0, 0, 0, 1], [1, 0, 0, -1], (0, 5), 0.1, method="adaptive")

    def test_step_budget(self, monkeypatch):
        ray = trace_ray(self.q, self.x0, self.k0, (0.0, 4.0), 0.02, method="adaptive")
        monkeypatch.setattr(rays, "_MAX_STEPS", 5)
        with pytest.raises(StepFailure, match="budget of 5 attempts") as info:
            trace_ray(self.q, self.x0, self.k0, (0.0, 4.0), 0.02, method="adaptive")
        j = int(str(info.value).split("at step ")[1].split(",")[0])
        assert 0 < j <= 5
        assert where(ray, j) in str(info.value)
