import importlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polaray.errors import InvalidInput
from polaray.minkowski import PhaseSpacePoint, raise_index
from polaray.principal_type import decompose_principal_type, kernel_basis
from polaray import rays
from polaray.rays import Ray, trace_ray
from polaray.symbols import MatrixSymbol, flat_maxwell, parse_x_polynomial, scaled_wave
from polaray.transport import (
    SAME_POINT,
    ZERO_FIBER,
    HamiltonOrbit,
    KernelEscape,
    PolarizationSample,
    connection_matrix,
    project_wavefront,
    transport,
)

from conftest import (
    graded_index_symbol,
    graded_null_start,
    observed_orders,
    random_null_covector,
    weyl_decomposition,
    weyl_start,
)

NULL_PT = PhaseSpacePoint([0, 0, 0, 0], [1, 0, 0, -1])
# the module, which the package's ``transport`` function shadows as an attribute
TRANSPORT_MODULE = importlib.import_module("polaray.transport")


def frozen_ray(x, k, q_value, n=101, tau_end=1.0):
    """A synthetic ray pinned at one phase-space point (not a flow line)."""
    tau = np.linspace(0.0, tau_end, n)
    return Ray(
        tau=tau,
        x=np.broadcast_to(np.asarray(x, float), (n, 4)).copy(),
        k=np.broadcast_to(np.asarray(k, float), (n, 4)).copy(),
        q=np.full(n, float(q_value)),
    )


class TestConnectionMatrix:
    def test_flat_maxwell_vanishes_exactly(self, maxwell_decomposition):
        m = connection_matrix(maxwell_decomposition, NULL_PT)
        assert np.array_equal(m, np.zeros((4, 4)))

    def test_scaled_wave_subprincipal_term(self):
        d = decompose_principal_type(scaled_wave(parse_x_polynomial("1+x3^2"), dimension=4))
        m = connection_matrix(d, PhaseSpacePoint([0, 0, 0, 1], [1, 0, 0, -1]))
        np.testing.assert_allclose(m, -2.0 * np.eye(4), atol=1e-15)

    def test_nonconstant_p_tilde_bracket_term(self, maxwell):
        hint = MatrixSymbol(4, 0, [((0, 0, 0, 1), (0, 0, 0, 0), np.eye(4))])
        d = decompose_principal_type(maxwell, hint=hint)
        m = connection_matrix(d, NULL_PT)
        np.testing.assert_allclose(m, -1.0 * np.eye(4), atol=1e-15)


class TestTransport:
    def test_flat_maxwell_constant_bit_exact(self, maxwell_decomposition):
        ray = trace_ray(maxwell_decomposition.q, [0, 0, 0, 0], [1, 0, 0, -1], (0, 1), 0.01)
        omega0 = np.array([0, 1, 0, 0], dtype=complex)
        orbit = transport(maxwell_decomposition, ray, omega0)
        assert np.array_equal(orbit.omega, np.broadcast_to(omega0, orbit.omega.shape))

    def test_complex_fiber_unchanged(self, maxwell_decomposition):
        ray = trace_ray(maxwell_decomposition.q, [0, 0, 0, 0], [1, 0, 0, -1], (0, 1), 0.01)
        omega0 = np.array([0, 1, 1j, 0]) / np.sqrt(2)
        orbit = transport(maxwell_decomposition, ray, omega0)
        assert np.array_equal(orbit.omega[-1], omega0)

    def test_constant_connection_exponential(self):
        # frozen at x3=1, k=(1,0,0,-1): M = -2*1, so omega(1) = e^2 omega0
        d = decompose_principal_type(scaled_wave(parse_x_polynomial("1+x3^2"), dimension=2))
        ray = frozen_ray([0, 0, 0, 1], [1, 0, 0, -1], 0.0)
        omega0 = np.array([1.0, -0.5j])
        orbit = transport(d, ray, omega0)
        np.testing.assert_allclose(orbit.omega[-1], np.e**2 * omega0, rtol=1e-8)

    def test_kernel_escape_on_bad_sample(self, maxwell_decomposition):
        # hand-built ray with one off-cone sample: the fiber residual jumps
        tau = np.array([0.0, 0.5, 1.0])
        k = np.array([[1.0, 0, 0, -1], [1.0, 0, 0, 0], [1.0, 0, 0, -1]])
        ray = Ray(tau=tau, x=np.zeros((3, 4)), k=k, q=np.array([0.0, 1.0, 0.0]))
        with pytest.raises(KernelEscape):
            transport(maxwell_decomposition, ray, np.array([0, 1, 0, 0], complex))

    def test_linearity(self, maxwell_decomposition, rng):
        ray = trace_ray(
            maxwell_decomposition.q, rng.uniform(-1, 1, 4), random_null_covector(rng), (0, 2), 0.01
        )
        u = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        v = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        a, b = 0.3 - 0.2j, 1.1 + 0.7j
        combined = transport(maxwell_decomposition, ray, a * u + b * v)
        separate = a * transport(maxwell_decomposition, ray, u).omega + b * transport(
            maxwell_decomposition, ray, v
        ).omega
        np.testing.assert_allclose(combined.omega, separate, atol=1e-12)

    def test_constraint_conservation(self, maxwell_decomposition, rng):
        k0 = random_null_covector(rng)
        ray = trace_ray(maxwell_decomposition.q, [0, 0, 0, 0], k0, (0, 5), 0.01)
        omega0 = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        orbit = transport(maxwell_decomposition, ray, omega0)
        k_up = raise_index(k0)
        values = orbit.omega @ k_up
        assert np.max(np.abs(values - values[0])) <= 1e-12

    def test_kernel_preservation_bound(self, maxwell_decomposition, rng):
        for _ in range(5):
            ray = trace_ray(
                maxwell_decomposition.q, rng.uniform(-1, 1, 4), random_null_covector(rng), (0, 10), 0.01
            )
            orbit = transport(maxwell_decomposition, ray, np.array([0, 1, 0, 0], complex))
            assert np.max(orbit.residuals) <= 10.0 * orbit.residuals[0] + 1e-10

    def test_adaptive_ray_nonuniform_grid(self):
        # x-dependent symbol, adaptive (non-uniform) tau grid: the fiber
        # integrator steps interval by interval and stays in the kernel
        q4 = scaled_wave(parse_x_polynomial("1+0.25*x3^2"), dimension=4)
        d = decompose_principal_type(q4)
        ray = trace_ray(d.q, [0, 0, 0, 1], [1, 0, 0, -1], (0, 0.9), 0.05, method="adaptive")
        assert np.max(np.abs(np.diff(np.diff(ray.tau)))) > 0  # really non-uniform
        omega0 = np.array([0, 1, 1j, 0]) / np.sqrt(2)
        orbit = transport(d, ray, omega0)
        assert np.all(np.isfinite(orbit.omega.view(float)))
        assert np.max(orbit.residuals) <= 1e-6
        # the connection here is i*p_s*identity, so the fiber direction is
        # preserved even though its magnitude evolves
        overlaps = np.abs(orbit.omega @ omega0.conj()) / np.linalg.norm(orbit.omega, axis=1)
        np.testing.assert_allclose(overlaps, 1.0, atol=1e-9)

    def test_rescaled_p_tilde_flow_equivalence(self, maxwell, maxwell_decomposition):
        # (p~=2*1, q=2k^2) over half the parameter span with half the step
        # must reproduce (p~=1, q=k^2) sample for sample
        d2 = decompose_principal_type(maxwell, hint=MatrixSymbol(4, 0, [((0,) * 4, (0,) * 4, 2.0 * np.eye(4))]))
        x0, k0 = [0.2, 0, 0, 0], [1, 0, 0, -1]
        omega0 = np.array([0, 0.6, 0.8j, 0])
        ray1 = trace_ray(maxwell_decomposition.q, x0, k0, (0, 1), 0.01)
        ray2 = trace_ray(d2.q, x0, k0, (0, 0.5), 0.005)
        orbit1 = transport(maxwell_decomposition, ray1, omega0)
        orbit2 = transport(d2, ray2, omega0)
        assert len(ray1) == len(ray2)
        np.testing.assert_allclose(ray2.x, ray1.x, atol=1e-12)
        np.testing.assert_allclose(ray2.tau * 2.0, ray1.tau, atol=1e-12)
        np.testing.assert_allclose(orbit2.omega, orbit1.omega, atol=1e-12)


class TestFiberScale:
    """Transport is linear in omega0, so a scaled start scales the orbit."""

    def test_zero_gives_zero_fiber(self, maxwell_decomposition):
        ray = trace_ray(maxwell_decomposition.q, [0] * 4, [1, 0, 0, -1], (0, 1), 0.1)
        orbit = transport(maxwell_decomposition, ray, np.zeros(4, complex))
        assert np.all(orbit.omega == 0)
        samples = [
            PolarizationSample(pt=ray.point(i), omega=orbit.omega[i]) for i in range(len(ray))
        ]
        assert project_wavefront(samples) == []
        # a hinted p takes its residuals from kernel_residual, which is 0 for a zero fiber
        d, ray = hinted_graded_ray()
        orbit = transport(d, ray, np.zeros(2, complex))
        assert np.all(orbit.omega == 0) and np.all(orbit.residuals == 0)

    def test_imaginary_scale_keeps_constraint(self, maxwell_decomposition):
        ray = trace_ray(maxwell_decomposition.q, [0] * 4, [1, 0, 0, -1], (0, 1), 0.1)
        orbit = transport(maxwell_decomposition, ray, np.array([0, 1j, 0, 0]))
        k_up = raise_index(ray.k[0])
        assert np.max(np.abs(orbit.omega @ k_up)) <= 1e-15


class TestProjectWavefront:
    def test_single_sample(self):
        pt = NULL_PT
        out = project_wavefront([PolarizationSample(pt=pt, omega=np.array([0, 1, 0, 0]))])
        assert len(out) == 1 and out[0] is pt

    def test_huge_fiber_kept_without_a_warning(self):
        # the squares of 1e200 overflow, so its norm is taken on the vector scaled down
        huge = PolarizationSample(pt=NULL_PT, omega=np.array([0, 1e200j, 0, 0]))
        out = project_wavefront([huge])
        assert len(out) == 1 and out[0] is NULL_PT

    def test_zero_fiber_excluded(self):
        out = project_wavefront([PolarizationSample(pt=NULL_PT, omega=np.zeros(4))])
        assert out == []

    @pytest.mark.parametrize("omega", [[math.nan, 0], [0.5, complex(0.0, math.nan)]])
    def test_nan_fiber_is_invalid_input(self, omega):
        good = PolarizationSample(pt=NULL_PT, omega=np.array([0, 1, 0, 0]))
        bad = PolarizationSample(pt=NULL_PT, omega=np.array(omega))
        with pytest.raises(InvalidInput, match="sample 1 has a NaN fiber"):
            project_wavefront([good, bad])

    def test_duplicates_merge(self):
        a = PolarizationSample(pt=NULL_PT, omega=np.array([0, 1, 0, 0]))
        b = PolarizationSample(pt=NULL_PT, omega=np.array([0, 0, 1, 0]))
        assert len(project_wavefront([a, b])) == 1

    def test_distinct_points_kept(self):
        a = PolarizationSample(pt=NULL_PT, omega=np.array([0, 1, 0, 0]))
        other = PhaseSpacePoint([0, 0, 0, 1], [1, 0, 0, -1])
        b = PolarizationSample(pt=other, omega=np.array([0, 1, 0, 0]))
        assert len(project_wavefront([a, b])) == 2

    def test_matches_pairwise_reference_on_chained_near_duplicates(self, rng):
        def pairwise(samples, zero_tol=1e-12, x_tol=1e-9, k_tol=1e-9):
            kept = []
            for sample in samples:
                if float(np.linalg.norm(sample.omega)) <= zero_tol:
                    continue
                pt = sample.pt
                if not any(
                    np.max(np.abs(pt.x - o.x)) <= x_tol and np.max(np.abs(pt.k - o.k)) <= k_tol
                    for o in kept
                ):
                    kept.append(pt)
            return kept

        samples = []
        for _ in range(12):
            x, k = rng.uniform(-1, 1, 4), random_null_covector(rng)
            # a ~ b and b ~ c within 1e-9, but a and c are 1.2e-9 apart
            for step in range(3):
                shift = np.zeros(4)
                shift[rng.integers(4)] = 0.6e-9 * step
                on_x = rng.integers(2) == 0
                omega = np.zeros(2) if rng.uniform() < 0.25 else rng.normal(size=2)
                pt = PhaseSpacePoint(x + shift if on_x else x, k if on_x else k + shift)
                samples.append(PolarizationSample(pt=pt, omega=omega))
        order = rng.permutation(len(samples))
        samples = [samples[i] for i in order]
        kept = project_wavefront(samples)
        reference = pairwise(samples)
        assert len(kept) == len(reference)
        assert all(a is b for a, b in zip(kept, reference))
        assert len(reference) < len([s for s in samples if np.any(s.omega != 0)])


def greedy_wavefront(samples):
    """project_wavefront by brute force: each nonzero-fiber sample is
    compared with every base point kept before it."""
    kept = []
    for sample in samples:
        if float(np.linalg.norm(sample.omega)) <= ZERO_FIBER:
            continue
        pt = sample.pt
        if not any(
            np.max(np.abs(pt.x - o.x)) <= SAME_POINT and np.max(np.abs(pt.k - o.k)) <= SAME_POINT
            for o in kept
        ):
            kept.append(pt)
    return kept


# base points (x, k) and offsets around the SAME_POINT boundary: from a
# zero coordinate 1e-9 and 2e-9 are exact, so 0 ~ 1e-9 ~ 2e-9 is a chain
# whose ends do not match
WAVEFRONT_BASES = (
    np.zeros(4),
    np.array([1.0, 0.0, 0.0, -1.0]),
    np.array([0.25, -1.0, 0.0, 3.0]),
    np.array([2.0, 1.0, 0.0, 1.5]),
    np.array([1e3, 0.0, -7.5, 0.0]),
    np.array([0.0, 0.0, 1e-3, -2.0]),
)
WAVEFRONT_OFFSETS = (
    0.0,
    0.5e-9,
    SAME_POINT,
    -SAME_POINT,
    2 * SAME_POINT,
    float(np.nextafter(SAME_POINT, 1.0)),
    float(np.nextafter(SAME_POINT, 0.0)),
    3e-9,
)


def wavefront_sample(base, shifts, zero_fiber):
    z = np.concatenate([WAVEFRONT_BASES[2 * base], WAVEFRONT_BASES[2 * base + 1]])
    for coordinate, offset in shifts:
        z[coordinate] += WAVEFRONT_OFFSETS[offset]
    omega = np.zeros(2) if zero_fiber else np.array([1.0, 0.5j])
    return PolarizationSample(pt=PhaseSpacePoint(z[:4], z[4:]), omega=omega)


class TestProjectWavefrontOracle:
    """The sorted-window search keeps exactly what brute force keeps."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=3),
                st.integers(0, 3).map(lambda v: v == 0),
            ),
            max_size=40,
        )
    )
    def test_matches_brute_force(self, draws):
        samples = [wavefront_sample(*draw) for draw in draws]
        kept = project_wavefront(samples)
        reference = greedy_wavefront(samples)
        assert len(kept) == len(reference)
        assert all(a is b for a, b in zip(kept, reference))

    @pytest.mark.parametrize(
        "order, kept",
        [((0, 1, 2), (0, 2)), ((0, 2, 1), (0, 2)), ((1, 0, 2), (1,)), ((2, 1, 0), (2, 0))],
    )
    def test_chains_keep_first_occurrences(self, order, kept):
        # points 0 ~ 1 ~ 2 on x1 and k2, exactly at the boundary; 0 and 2 do not match
        chain = [
            wavefront_sample(0, [(1, offset), (6, offset)], False) for offset in (0, 2, 4)
        ]
        samples = [chain[i] for i in order]
        for found in (project_wavefront(samples), greedy_wavefront(samples)):
            assert len(found) == len(kept)
            assert all(pt is chain[i].pt for pt, i in zip(found, kept))

    def test_just_beyond_the_boundary_is_distinct(self):
        a = wavefront_sample(0, [], False)
        b = wavefront_sample(0, [(1, 5)], False)  # x1 = 1e-9 plus one ulp: distinct from a
        c = wavefront_sample(0, [(1, 6)], False)  # x1 = 1e-9 minus one ulp: a duplicate of a
        found = project_wavefront([a, b, c])
        assert len(found) == 2 and found[0] is a.pt and found[1] is b.pt


class TestKernelProjection:
    @pytest.mark.parametrize("steps, bound", [(50, 1e-8), (200, 1e-10), (800, 1e-12)])
    def test_weyl_fiber_stays_in_the_kernel(self, steps, bound):
        """p = k0 I - n(x) sigma.k has a one-dimensional kernel on the cone and a
        non-constant p~, so every step is projected back onto the kernel."""
        d = weyl_decomposition()
        x0, k0, omega0 = weyl_start()
        ray = trace_ray(d.q, x0, k0, (0.0, 2.0), 2.0 / steps)
        orbit = transport(d, ray, omega0)
        assert orbit.reprojected
        assert np.max(orbit.residuals) <= bound

    @pytest.mark.parametrize(
        "symbol, hint",
        [
            (flat_maxwell(), None),
            (graded_index_symbol(2), None),
            (graded_index_symbol(2, scale=np.diag([1.0, 2.0])), np.diag([2.0, 1.0])),
        ],
        ids=["zero-connection", "identity-p-tilde", "constant-hint"],
    )
    def test_constant_p_tilde_searches_no_kernel(self, symbol, hint, monkeypatch):
        # a constant p~ is invertible: on the cone p vanishes and its kernel is the fiber
        if hint is not None:
            hint = MatrixSymbol(symbol.dimension, 0, [((0, 0, 0, 0), (0, 0, 0, 0), hint)])
        d = decompose_principal_type(symbol, hint=hint)
        x0, k0 = graded_null_start(0.0 if symbol.dimension == 4 else 0.1)
        ray = trace_ray(d.q, x0, k0, (0.0, 0.5), 0.05)

        def refuse(*args, **kwargs):
            raise AssertionError("kernel_basis called")

        monkeypatch.setattr(TRANSPORT_MODULE, "kernel_basis", refuse)
        omega0 = np.array([0.6, 0.8j, 0.0, 0.0])[: symbol.dimension]
        orbit = transport(d, ray, omega0)
        assert not orbit.reprojected
        reference = per_stage_transport(d, ray, omega0)
        assert np.max(np.abs(orbit.omega - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_no_start_kernel_no_projection(self, monkeypatch):
        # off the cone [1, 0] is no kernel vector: a bound of 10 term sizes lets it through
        monkeypatch.setattr(TRANSPORT_MODULE, "DRIFT_TOL", 10.0)
        d = weyl_decomposition()
        x0, k0, _ = weyl_start()
        ray = frozen_ray(x0, k0 * [1.5, 1, 1, 1], 0.0)
        assert len(kernel_basis(d.p, ray.point(0))[0]) == 0
        orbit = transport(d, ray, [1.0, 0.0])
        assert not orbit.reprojected


class TestConvergenceOrder:
    def test_transport_order_is_two_with_linear_midpoints(self, monkeypatch):
        """M at each RK4 midpoint is taken at the linearly interpolated
        (x, k), an O(h^2) error, so the fiber vector converges at second
        order even though the ray converges at fourth."""
        # at n = 25 the ray drifts 3.5e-7 of the start's term size
        monkeypatch.setattr(rays, "DRIFT_TOL", 1e-3)
        monkeypatch.setattr(TRANSPORT_MODULE, "DRIFT_TOL", 1e-3)
        d = decompose_principal_type(graded_index_symbol(2))
        x0, k0 = graded_null_start()
        ends = []
        for n in (25, 50, 100, 200):
            ray = trace_ray(d.q, x0, k0, (0.0, 4.0), 4.0 / n)
            ends.append(transport(d, ray, [0.6, 0.8j]).omega[-1])
        assert all(1.8 <= p <= 2.2 for p in observed_orders(ends))


def per_stage_transport(d, ray, omega0, m=0):
    """RK4 on d omega/dtau = -M omega, one stage at a time through
    connection_matrix, with M at the linearly interpolated midpoints; for
    m > 0 each step ends with the projector onto the m smallest
    right-singular vectors of p there, from an SVD of that one sample."""
    w = np.asarray(omega0, dtype=complex)
    out = [w]
    for i in range(len(ray) - 1):
        h = ray.tau[i + 1] - ray.tau[i]
        mid = PhaseSpacePoint(0.5 * (ray.x[i] + ray.x[i + 1]), 0.5 * (ray.k[i] + ray.k[i + 1]))
        a0, am, a1 = (-connection_matrix(d, pt) for pt in (ray.point(i), mid, ray.point(i + 1)))
        s1 = a0 @ w
        s2 = am @ (w + 0.5 * h * s1)
        s3 = am @ (w + 0.5 * h * s2)
        s4 = a1 @ (w + h * s3)
        w = w + (h / 6.0) * (s1 + 2 * s2 + 2 * s3 + s4)
        if m:
            _, _, vh = np.linalg.svd(d.p.eval(ray.point(i + 1)))
            basis = vh[len(vh) - m :]
            w = basis.conj().T @ (basis @ w)
        out.append(w)
    return np.array(out)


def graded_case():
    d = decompose_principal_type(graded_index_symbol(2))
    x0, k0 = graded_null_start()
    return d, x0, k0, np.array([0.6, 0.8j]), 0, 4.0


def weyl_case(spatial):
    x0, k0, omega0 = weyl_start(spatial)
    return weyl_decomposition(), x0, k0, omega0, 1, 2.0


class TestPropagators:
    @pytest.mark.parametrize(
        "case",
        [graded_case, lambda: weyl_case((1.2, 0.0, 0.6)), lambda: weyl_case((1.2, 0.5, 0.6))],
        ids=["graded", "weyl-real-kernel", "weyl-complex-kernel"],
    )
    @pytest.mark.parametrize("method", ["rk4", "adaptive"])
    def test_matches_per_stage_loop(self, method, case):
        d, x0, k0, omega0, m, tau_end = case()
        ray = trace_ray(d.q, x0, k0, (0.0, tau_end), 0.02, method=method)
        orbit = transport(d, ray, omega0)
        assert orbit.reprojected == bool(m)
        reference = per_stage_transport(d, ray, omega0, m)
        assert np.max(np.abs(orbit.omega - reference)) <= 1e-13 * np.max(np.abs(reference))
        assert np.max(np.abs(orbit.omega[-1] - omega0)) > 1e-3  # M or the projection acts

    @pytest.mark.parametrize("hint", [None, "1+x1^2"], ids=["identity", "x-dependent"])
    def test_matches_per_stage_loop_where_the_kernel_is_the_fiber(self, hint):
        # on the exact cone p vanishes, so the kernel is the whole fiber at
        # every sample; an x-dependent scalar p~ leaves nothing to project
        p = scaled_wave(parse_x_polynomial("1+x3^2"), dimension=2)
        if hint is not None:
            hint = MatrixSymbol(
                2, 0, [(xe, (0, 0, 0, 0), c * np.eye(2)) for xe, c in parse_x_polynomial(hint).items()]
            )
        d = decompose_principal_type(p, hint=hint)
        ray = frozen_ray([0, 1, 0, 1], [1, 0, 0, -1], 0.0)
        assert len(kernel_basis(d.p, ray.point(1))[0]) == 2
        omega0 = np.array([1.0, -0.5j])
        orbit = transport(d, ray, omega0)
        assert not orbit.reprojected
        reference = per_stage_transport(d, ray, omega0)
        assert np.max(np.abs(orbit.omega - reference)) <= 1e-13 * np.max(np.abs(reference))


class TestKernelEscapeSaysWhere:
    def test_message_names_the_worst_sample(self, monkeypatch):
        d = decompose_principal_type(graded_index_symbol(2))
        x0, k0 = graded_null_start()
        ray = trace_ray(d.q, x0, k0, (0.0, 1.0), 0.02)
        orbit = transport(d, ray, [0.6, 0.8j])
        j = int(np.argmax(orbit.residuals))
        assert j > 0 and orbit.residuals[j] > 0
        x, k = (", ".join(f"{v:.9g}" for v in part) for part in (ray.x[j], ray.k[j]))
        place = f"at sample {j}, tau = {ray.tau[j]:.9g}, x = ({x}), k = ({k})"
        size = np.max(d.p.term_bound(ray.x[0], ray.k[0]))
        monkeypatch.setattr(TRANSPORT_MODULE, "DRIFT_TOL", 0.5 * orbit.residuals[j] / size)
        with pytest.raises(KernelEscape) as info:
            transport(d, ray, [0.6, 0.8j])
        assert place in str(info.value)
        assert f"times the start's term size {size:.3e} " in str(info.value)


def hinted_graded_ray():
    """The diag(1, 2) graded symbol decomposed with the diag(2, 1) hint, and a ray on its cone."""
    zero = (0, 0, 0, 0)
    hint = MatrixSymbol(2, 0, [(zero, zero, np.diag([2.0, 1.0]))])
    d = decompose_principal_type(graded_index_symbol(2, scale=np.diag([1.0, 2.0])), hint=hint)
    x0, k0 = graded_null_start()
    return d, trace_ray(d.q, x0, k0, (0.0, 0.5), 0.05)


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "omega0", [[math.nan, 0.8j], [0.6, math.inf], [0.6, complex(0.0, math.nan)]]
    )
    def test_non_finite_omega0_is_invalid_input(self, omega0):
        d, ray = hinted_graded_ray()
        with pytest.raises(InvalidInput, match="omega0 has non-finite"):
            transport(d, ray, omega0)

    @pytest.mark.parametrize("cut, what", [("omega", "fiber samples"), ("residuals", "residuals")])
    def test_orbit_samples_must_match_the_ray(self, cut, what):
        _, ray = hinted_graded_ray()
        parts = {"omega": np.zeros((len(ray), 2)), "residuals": np.zeros(len(ray))}
        parts[cut] = parts[cut][1:]
        with pytest.raises(InvalidInput, match=f"orbit {what} must match ray samples"):
            HamiltonOrbit(ray=ray, **parts)

    @pytest.mark.parametrize("omega0", [[0.6], [0.6, 0.8j, 0.0], [[0.6, 0.8j]]])
    def test_omega0_must_have_the_fiber_shape(self, omega0):
        d, ray = hinted_graded_ray()
        with pytest.raises(InvalidInput, match=r"omega0 must have shape \(2,\)"):
            transport(d, ray, omega0)

    def test_nan_residual_escapes_the_kernel(self, monkeypatch):
        d, ray = hinted_graded_ray()
        assert not d.scalar_multiple
        real = TRANSPORT_MODULE.kernel_residual

        def nan_at_sample_3(p, pt, omega):
            return math.nan if np.array_equal(pt.x, ray.x[3]) else real(p, pt, omega)

        monkeypatch.setattr(TRANSPORT_MODULE, "kernel_residual", nan_at_sample_3)
        where = f"residual nan .* at sample 3, tau = {ray.tau[3]:.9g},"
        with pytest.raises(KernelEscape, match=where):
            transport(d, ray, [0.6, 0.8j])
