import math

import numpy as np
import pytest

from polaray import rays
from polaray.errors import DimensionMismatch, InvalidInput
from polaray.minkowski import PhaseSpacePoint, failure_site
from polaray.principal_type import decompose_principal_type
from polaray.rays import (
    ConstraintDrift,
    HamiltonSystem,
    NonNullStart,
    Ray,
    StationaryStart,
    StepFailure,
    ZeroSpatialPart,
    null_project,
    trace_ray,
)
from polaray import principal_type
from polaray.symbols import (
    VALUE,
    ComplexSymbol,
    MatrixSymbol,
    hamilton_field,
    parse_x_polynomial,
    scalar_wave,
    scaled_wave,
)

from conftest import (
    bits,
    graded_index_symbol,
    graded_null_start,
    observed_orders,
    random_null_covector,
    weyl_decomposition,
    weyl_start,
)
from oracles import geodesic_residual, line_deviation, null_curve_residual


class TestNullProject:
    def test_unit_spatial(self):
        assert np.array_equal(null_project([0.7, 0, 0, -1], "+"), [1, 0, 0, -1])
        assert np.array_equal(null_project([0, 0, 0, -1e-170], "+"), [1e-170, 0, 0, -1e-170])

    def test_three_four_five(self):
        assert np.array_equal(null_project([0, 3, 4, 0], "+"), [5, 3, 4, 0])
        # at 2^-565 (1.4e-170) the squares underflow, so the norm is taken on a scaled copy
        tiny = np.ldexp([0.0, 3, 4, 0], -565)
        assert np.array_equal(null_project(tiny, "+"), np.ldexp([5.0, 3, 4, 0], -565))

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
        # on the cone at the start, but a step of 0.5 is far too coarse for a
        # symbol this x-dependent: the first step leaves the cone
        q = scaled_wave(parse_x_polynomial("1+x1^2+x2^2"))
        with pytest.raises(ConstraintDrift, match="at step 1, "):
            trace_ray(q, [0, 3, 4, 0], null_project([1, 1, 1, 0]), (0, 10), 0.5)

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


class TestConvergenceOrder:
    def test_rk4_reaches_fourth_order_on_a_bending_ray(self, monkeypatch):
        # at n = 25 the ray drifts 3.5e-7 of the start's term size
        monkeypatch.setattr(rays, "DRIFT_TOL", 1e-3)
        q = graded_index_symbol()
        x0, k0 = graded_null_start()
        ends = []
        for n in (25, 50, 100, 200):
            ray = trace_ray(q, x0, k0, (0.0, 4.0), 4.0 / n)
            ends.append(np.concatenate([ray.x[-1], ray.k[-1]]))
        assert ends[-1][7] < 0.0 < k0[3]  # the ray turns back in x3
        assert all(3.8 <= p <= 4.2 for p in observed_orders(ends))


class TestRayValidation:
    @pytest.mark.parametrize("field", ["x", "k", "q"])
    def test_sample_shapes_must_agree(self, field):
        samples = {"tau": [0.0, 0.1], "x": np.zeros((2, 4)), "k": np.ones((2, 4)), "q": np.zeros(2)}
        samples[field] = samples[field][:1]
        with pytest.raises(InvalidInput, match="inconsistent ray sample shapes"):
            Ray(**samples)

    @pytest.mark.parametrize("field", ["x", "k", "q"])
    def test_samples_must_be_finite(self, field):
        samples = {"tau": [0.0, 0.1], "x": np.zeros((2, 4)), "k": np.ones((2, 4)), "q": np.zeros(2)}
        samples[field][-1] = math.nan
        with pytest.raises(InvalidInput, match="ray contains non-finite samples"):
            Ray(**samples)

    def test_null_project_branch_is_plus_or_minus(self):
        with pytest.raises(InvalidInput, match="branch"):
            null_project([1.0, 0, 0, -1], "0")

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


class TestRayPoint:
    def test_points_are_the_checked_rows(self):
        q = decompose_principal_type(graded_index_symbol(2)).q
        ray = trace_ray(q, *graded_null_start(), (0.0, 1.0), 0.1)
        for i in [*range(len(ray)), -1]:
            got, want = ray.point(i), PhaseSpacePoint(ray.x[i], ray.k[i])
            assert type(got) is PhaseSpacePoint
            assert bits(got.x, want.x) and bits(got.k, want.k)
        with pytest.raises(IndexError):
            ray.point(len(ray))


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

    @pytest.mark.parametrize("which", ["graded", "bundle", "weyl"])
    def test_into_equals_call(self, rng, which):
        system = STAGE_QS[which]().hamilton
        out = np.empty(10)
        for _ in range(500):
            y = np.concatenate([rng.uniform(-2, 2, 8) * 10.0 ** rng.integers(-3, 4), [1.0]])
            value, flow = system(y)
            system.into(y, out)
            assert bits(out, np.concatenate([[value], flow]))

    def test_complex_symbol_refused(self):
        # q = k0 + 0.5i k1: hamilton_field refuses it, so ray tracing must too
        z = (0, 0, 0, 0)
        q = MatrixSymbol(1, 1, [(z, (1, 0, 0, 0), 1.0), (z, (0, 1, 0, 0), 0.5j)])
        with pytest.raises(InvalidInput, match="real-valued"):
            hamilton_field(q, PhaseSpacePoint(np.zeros(4), np.array([0.0, 0, 0, 1])))
        for method in ("rk4", "adaptive"):
            with pytest.raises(InvalidInput, match="real-valued"):
                trace_ray(q, [0, 0, 0, 0], [0, 0, 0, 1], (0, 1), 0.1, method=method)

    def test_built_once_per_symbol_and_refusals_never_kept(self, monkeypatch):
        builds = []
        build = HamiltonSystem.__init__

        def counting_build(system, q):
            builds.append(q)
            build(system, q)

        monkeypatch.setattr(HamiltonSystem, "__init__", counting_build)
        q = decompose_principal_type(graded_index_symbol(2)).q
        x0, k0 = graded_null_start()
        for _ in range(2):
            hamilton_field(q, PhaseSpacePoint(x0, k0))
            principal_type.is_real_principal_type(q, PhaseSpacePoint(x0, k0))
            for method in ("rk4", "adaptive"):
                trace_ray(q, x0, k0, (0.0, 0.1), 0.05, method=method)
        assert builds == [q]

        z = (0, 0, 0, 0)
        complex_q = MatrixSymbol(1, 1, [(z, (1, 0, 0, 0), 1.0), (z, (0, 1, 0, 0), 0.5j)])
        matrix_q = graded_index_symbol(2)
        pt = PhaseSpacePoint(np.zeros(4), np.array([0.0, 0, 0, 1]))
        for _ in range(2):
            with pytest.raises(ComplexSymbol):
                hamilton_field(complex_q, pt)
            with pytest.raises(ComplexSymbol):
                trace_ray(complex_q, [0, 0, 0, 0], [0, 0, 0, 1], (0, 1), 0.1)
            with pytest.raises(DimensionMismatch):
                hamilton_field(matrix_q, pt)
        assert builds == [q] + [complex_q, complex_q, matrix_q] * 2

    def test_complex_symbol_is_one_error_class(self):
        z = (0, 0, 0, 0)
        q = MatrixSymbol(1, 1, [(z, (1, 0, 0, 0), 1.0), (z, (0, 1, 0, 0), 0.5j)])
        pt = PhaseSpacePoint(np.zeros(4), np.array([0.0, 0, 0, 1]))
        with pytest.raises(ComplexSymbol, match="^the Hamilton flow needs a real-valued symbol$"):
            hamilton_field(q, pt)
        with pytest.raises(ComplexSymbol, match="^the Hamilton flow needs a real-valued symbol$"):
            HamiltonSystem(q)
        assert principal_type.ComplexSymbol is ComplexSymbol


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
        ray = trace_ray(q, x0, k0, (0.0, h), h, method="adaptive")
        taus, ys = stage_by_stage_dormand_prince(q, x0, k0, h, h)
        assert len(ray) == len(taus) >= 2
        # at the default tolerances the error estimate cancels down to about rtol, so the
        # accepted tau moves with the order of summation, as in the trace below
        for got, want in ((ray.tau, taus), (ray.x, ys[:, :4]), (ray.k, ys[:, 4:])):
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

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


# -- textbook integrator loops -------------------------------------------
#
# trace_ray evaluates its stages into preallocated buffers.  These loops
# form every stage as a fresh array with the textbook expressions and must
# give the same bits, drift failures included.

STAGE_QS = {
    "graded": lambda: decompose_principal_type(graded_index_symbol(2)).q,
    "bundle": bundle_q,
    "weyl": lambda: weyl_decomposition().q,
}

_A = np.zeros((7, 7))
_A[np.tril_indices(7, -1)] = [a for row in DP_A for a in row]
_E = _A[6] - np.array(DP_B4)


def _drift(q, size, j, tau, y):
    if not abs(q) <= rays.DRIFT_TOL * size:
        raise ConstraintDrift(
            f"|q| = {abs(q):.3e} exceeded drift bound {rays.DRIFT_TOL:.1e} times the start's "
            f"term size {size:.3e} " + failure_site(y[:4], y[4:8], "step", j, tau)
        )


def textbook_rk4(q, x0, k0, tau_span, step):
    """RK4 with trace_ray's grid and drift check, one stage expression at a time."""
    system = q.hamilton
    size = q.term_bound(x0, k0)[0, 0]
    tau0, tau1 = tau_span
    n = max(1, math.ceil((tau1 - tau0) / step - 1e-9))
    h = (tau1 - tau0) / n
    tau = tau0 + np.arange(n + 1) * h
    y = np.concatenate([x0, k0, [1.0]])
    q0, f1 = system(y)
    ys, qs = [y], [q0]
    for i in range(n):
        f2 = system(y + 0.5 * h * f1)[1]
        f3 = system(y + 0.5 * h * f2)[1]
        f4 = system(y + h * f3)[1]
        y = y + (h / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)
        qi, f1 = system(y)
        _drift(qi, size, i + 1, tau[i + 1], y)
        ys.append(y)
        qs.append(qi)
    return tau, np.array(ys), np.array(qs)


def textbook_dormand_prince(q, x0, k0, tau_span, h0, rtol=1e-10, atol=1e-12):
    """Dormand-Prince 5(4) with trace_ray's controller, stage i formed as
    y + (h * A[i, :i]) @ K[:i]; also returns whether each attempt was accepted."""
    system = q.hamilton
    size = q.term_bound(x0, k0)[0, 0]
    tau, tau1 = tau_span
    y = np.concatenate([x0, k0, [1.0]])
    q0, f = system(y)
    taus, ys, qs, accepted = [tau], [y], [q0], []
    stages = np.empty((7, 9))
    stages[0] = f
    h = min(h0, tau1 - tau)
    while tau < tau1:
        h = min(h, tau1 - tau)
        for i in range(1, 7):
            yi = y + (h * _A[i, :i]) @ stages[:i]
            qi, stages[i] = system(yi)
        err_y = h * (_E @ stages)
        err = np.max(np.abs(err_y) / (atol + rtol * np.maximum(np.abs(y), np.abs(yi))))
        accepted.append(bool(err <= 1.0))
        if err <= 1.0:
            tau += h
            y, stages[0] = yi, stages[6]
            _drift(qi, size, len(taus), tau, y)
            taus.append(tau)
            ys.append(y)
            qs.append(qi)
        h *= min(5.0, max(0.2, 0.9 * err ** (-0.2) if err != 0 else 5.0))
    return np.array(taus), np.array(ys), np.array(qs), accepted


def stage_start(which):
    """q and a start on its cone."""
    x0, k0 = weyl_start()[:2] if which == "weyl" else graded_null_start()
    return STAGE_QS[which](), x0, k0


def traced_and_textbook(method, q, x0, k0, span, step):
    """(tau, states, q) from trace_ray and from the textbook loop, or each one's drift message."""
    textbook = textbook_rk4 if method == "rk4" else textbook_dormand_prince

    def traced():
        ray = trace_ray(q, x0, k0, span, step, method=method)
        return ray.tau, np.column_stack([ray.x, ray.k, np.ones(len(ray))]), ray.q

    outcomes = []
    for run in (traced, lambda: textbook(q, x0, k0, span, step)):
        try:
            outcomes.append(run())
        except ConstraintDrift as exc:
            outcomes.append(str(exc))
    return outcomes


class TestBufferedStages:
    @pytest.fixture(autouse=True)
    def loose_drift_bound(self, monkeypatch):
        # the coarse steps drift past the default bound; both loops read the module's
        monkeypatch.setattr(rays, "DRIFT_TOL", 1e-3)

    @pytest.mark.parametrize("which", ["graded", "bundle", "weyl"])
    @pytest.mark.parametrize("method, step", [("rk4", 0.05), ("rk4", 0.2), ("adaptive", 0.05)])
    def test_same_bits_as_the_textbook_loop(self, which, method, step):
        traced, textbook = traced_and_textbook(method, *stage_start(which), (0.0, 3.0), step)
        assert len(traced[0]) == len(textbook[0]) > 10
        for got, want in zip(traced, textbook):
            assert bits(got, want)

    @pytest.mark.parametrize("which", ["graded", "bundle", "weyl"])
    def test_rejected_attempts_leave_no_buffer_state(self, which):
        q, x0, k0 = stage_start(which)
        *_, accepted = textbook_dormand_prince(q, x0, k0, (0.0, 3.0), 2.0)
        assert not accepted[0] and accepted.count(False) >= 2
        traced, textbook = traced_and_textbook("adaptive", q, x0, k0, (0.0, 3.0), 2.0)
        assert len(traced[0]) == len(textbook[0]) > 10
        for got, want in zip(traced, textbook):
            assert bits(got, want)

    @pytest.mark.parametrize("which", ["graded", "bundle", "weyl"])
    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    def test_drift_fires_at_the_same_step(self, which, method, monkeypatch):
        monkeypatch.setattr(rays, "DRIFT_TOL", 1e-15)
        traced, textbook = traced_and_textbook(method, *stage_start(which), (0.0, 3.0), 0.1)
        assert traced.startswith("|q| = ") and " at step " in traced
        assert traced == textbook


class TestNanQ:
    """A q that overflows to NaN fails the |q| checks along a ray and is refused at its start."""

    q = scaled_wave(parse_x_polynomial("1+x3^8"))

    def test_drift_to_nan(self):
        k0 = null_project([1, 0, 0.3, -1])
        with pytest.raises(ConstraintDrift, match=r"\|q\| = nan exceeded .* at step 1, tau = 1,"):
            trace_ray(self.q, [0, 0, 0, 0.5], k0, (0, 40), 1.0)

    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    def test_nan_at_the_start(self, method):
        # x3^8 overflows, and 0 * inf is NaN in the stacked product: the start is refused,
        # not judged, and no RuntimeWarning escapes
        refused = r"^q\(x, k\) is not finite at x = \(0, 0, 0, 1e\+40\), k = \(1, 0, 0, -1\)$"
        with pytest.raises(InvalidInput, match=refused):
            trace_ray(self.q, [0, 0, 0, 1e40], [1, 0, 0, -1], (0, 1), 0.1, method=method)

    def test_overflow_at_the_raw_start(self):
        # on the cone at scaled_covector(k0), but k0^2 overflows where the ray starts
        refused = r"^q\(x, k\) or its flow is not finite at x = \(0, 0, 0, 0\), k = \(1e\+200,"
        with pytest.raises(InvalidInput, match=refused):
            trace_ray(self.q, [0, 0, 0, 0], [1e200, 0, 0, -1e200], (0, 1), 0.1)

    def test_adaptive_shrinks_the_step_on_a_nan_error(self, monkeypatch):
        # a NaN error estimate used to grow the step, so every attempt failed
        monkeypatch.setattr(rays, "_MAX_STEPS", 2000)
        k0 = null_project([1, 0, 0.3, -1])
        with pytest.raises(ConstraintDrift, match="at step 338,"):
            trace_ray(self.q, [0, 0, 0, 0.5], k0, (0, 40), 1.0, method="adaptive")


class TestFailuresSayWhere:
    def setup_method(self):
        self.q = graded_index_symbol()
        self.x0, self.k0 = graded_null_start()

    def test_non_null_start(self):
        place = r"at step 0, tau = 0.5, x = \(0, 0.4, 0, 0.5\), k = \(1"
        with pytest.raises(NonNullStart, match=place):
            trace_ray(self.q, self.x0, self.k0 * [1.1, 1, 1, 1], (0.5, 1), 0.1)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    def test_stationary_start(self, method, scale):
        # q = (k.k)^2 vanishes to second order on the cone, so dq/dk = 0 there
        # and the ray would stand still; q is not of real principal type
        q = scalar_wave().matmul(scalar_wave())
        k0 = scale * np.array([1.0, 0.0, 0.0, -1.0])
        assert not principal_type.is_real_principal_type(q, PhaseSpacePoint(self.x0, k0))
        place = r"at step 0, tau = 0.5, x = \(0, 0.4, 0, 0.5\), k = \("
        with pytest.raises(StationaryStart, match="dq/dk vanishes at the start, .* " + place):
            trace_ray(q, self.x0, k0, (0.5, 1), 0.1, method=method)
        assert issubclass(StationaryStart, InvalidInput)

    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    def test_constraint_drift(self, method, monkeypatch):
        monkeypatch.setattr(rays, "DRIFT_TOL", 1e-3)
        ray = trace_ray(self.q, self.x0, self.k0, (0.0, 4.0), 0.1, method=method)
        size = self.q.term_bound(self.x0, self.k0)[0, 0]
        j = int(np.argmax(np.abs(ray.q) > 1e-15 * size))
        assert j > 0
        monkeypatch.setattr(rays, "DRIFT_TOL", 1e-15)
        with pytest.raises(ConstraintDrift) as info:
            trace_ray(self.q, self.x0, self.k0, (0.0, 4.0), 0.1, method=method)
        assert where(ray, j) in str(info.value)
        assert f"times the start's term size {size:.3e} " in str(info.value)

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
