"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from polaray.cli import run as cli_run
from polaray.gauge import (
    FourierMode,
    GaugeFunction,
    field_strength_mode,
    gauge_transform,
    physical_kernel,
    radiation_fix,
    standard_basis,
)
from polaray.minkowski import PhaseSpacePoint, raise_index, spatial_momentum
from polaray.principal_type import decompose_principal_type, kernel_basis
from polaray.rays import trace_ray
from polaray.serialization import (
    read_estimates_json,
    read_gridfield,
    read_orbit_csv,
    read_ray_csv,
    roundtrip,
)
from polaray.symbols import (
    MatrixSymbol,
    flat_maxwell,
    hamilton_field,
    parse_x_polynomial,
    poisson_bracket,
    scaled_wave,
    subprincipal_symbol,
)
from polaray.transport import transport
from polaray.wavepacket import (
    CompareTolerances,
    GridSpec,
    WavePacketSpec,
    compare,
    estimate_polarization_set,
    straightness_track,
    synthesize,
)

from conftest import (
    SEED,
    fd_hamilton_field,
    fd_poisson_bracket,
    fd_subprincipal,
    random_matrix_symbol,
    random_null_covector,
    random_phase_points,
    rel_err,
)
from oracles import (
    completeness_residual,
    line_deviation,
    null_curve_residual,
    pairing_matrix,
    scalar_component_flags,
    subspace_angle_max,
    transverse_oracle,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


@contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed or elapsed >= budget_s else "PASS"
        print(f"[{verdict}] criterion {num}: {description} ({elapsed:.2f}s / budget {budget_s}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s budget"


@pytest.fixture(scope="module")
def maxwell_d():
    return decompose_principal_type(flat_maxwell())


@pytest.fixture(scope="module")
def standard_packet():
    """The criterion-6 packet: 64^3 grid, sigma = 6 cells, 8 cycles along +z."""
    L = 16.0
    grid = GridSpec(extents=(L, L, L), samples=(64, 64, 64), time_slices=5, time_step=0.2)
    omega = 2.0 * np.pi * 8.0 / L
    kcov = np.array([omega, 0.0, 0.0, -omega])
    mode = FourierMode(kcov, [0, 1, 0, 0], amplitude=1.0)
    center = np.array([0.0, 0.0, 0.0, -0.4])
    field = synthesize(WavePacketSpec(mode=mode, center=center, sigma=1.5), grid)
    return field, mode, center


def test_criterion_1_symbol_calculus_oracle():
    rng = np.random.default_rng(SEED)
    with criterion(1, "exact calculus matches central differences (h=1e-5)", 5.0):
        q_scalar = scaled_wave(parse_x_polynomial("1+x3^2+0.5*x0*x1"))
        bracket_a = random_matrix_symbol(rng, dimension=2, order=2)
        bracket_b = random_matrix_symbol(rng, dimension=2, order=1)
        sub_sym = random_matrix_symbol(rng, dimension=3, order=2)
        for pt in random_phase_points(rng, 100):
            dx, dk = hamilton_field(q_scalar, pt)
            fx, fk = fd_hamilton_field(q_scalar, pt)
            assert rel_err(fx, dx) <= 1e-6
            assert rel_err(fk, dk) <= 1e-6
            assert (
                rel_err(fd_poisson_bracket(bracket_a, bracket_b, pt),
                        poisson_bracket(bracket_a, bracket_b, pt))
                <= 1e-6
            )
            assert rel_err(fd_subprincipal(sub_sym, pt), subprincipal_symbol(sub_sym, pt)) <= 1e-6


def test_criterion_2_ray_suite(maxwell_d):
    rng = np.random.default_rng(SEED + 2)
    with criterion(2, "100 null rays: conservation, constancy, straightness", 2.0):
        for _ in range(100):
            k0 = random_null_covector(rng)
            x0 = rng.uniform(-1, 1, 4)
            ray = trace_ray(maxwell_d.q, x0, k0, (0.0, 10.0), 1e-2, method="rk4")
            assert float(np.max(np.abs(ray.q))) <= 1e-10
            assert all(np.array_equal(row, k0) for row in ray.k)  # bit-exact
            assert line_deviation(ray.x) <= 1e-12
            assert null_curve_residual(maxwell_d.q, ray) <= 1e-10


def test_criterion_3_transport_suite(maxwell_d):
    rng = np.random.default_rng(SEED + 3)
    with criterion(3, "transport: constancy, constraint drift, linearity, rescaling", 2.0):
        for _ in range(20):
            k0 = random_null_covector(rng)
            ray = trace_ray(maxwell_d.q, rng.uniform(-1, 1, 4), k0, (0.0, 10.0), 1e-2)
            omega0 = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            orbit = transport(maxwell_d, ray, omega0)
            assert np.array_equal(orbit.omega, np.broadcast_to(omega0, orbit.omega.shape))
            constraint = orbit.omega @ raise_index(k0)
            assert float(np.max(np.abs(constraint - constraint[0]))) <= 1e-12
            u = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            v = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            a, b = 0.7 - 1.1j, -0.4 + 0.2j
            lhs = transport(maxwell_d, ray, a * u + b * v).omega
            rhs = a * transport(maxwell_d, ray, u).omega + b * transport(maxwell_d, ray, v).omega
            assert float(np.max(np.abs(lhs - rhs))) <= 1e-12

        # p~ rescaling: (2*1, 2k^2) over half the span and step reproduces (1, k^2)
        d2 = decompose_principal_type(flat_maxwell(), hint=MatrixSymbol(4, 0, [((0,) * 4, (0,) * 4, 2.0 * np.eye(4))]))
        x0, k0 = [0.2, 0.1, 0.0, -0.3], random_null_covector(np.random.default_rng(SEED))
        omega0 = np.array([0, 0.6, 0.8j, 0])
        ray1 = trace_ray(maxwell_d.q, x0, k0, (0, 1), 0.01)
        ray2 = trace_ray(d2.q, x0, k0, (0, 0.5), 0.005)
        orbit1 = transport(maxwell_d, ray1, omega0)
        orbit2 = transport(d2, ray2, omega0)
        np.testing.assert_allclose(ray2.tau * 2.0, ray1.tau, atol=1e-12)
        np.testing.assert_allclose(ray2.x, ray1.x, atol=1e-12)
        np.testing.assert_allclose(orbit2.omega, orbit1.omega, atol=1e-12)


def test_criterion_4_gauge_suite():
    rng = np.random.default_rng(SEED + 4)
    with criterion(4, "1000 null k: bases, radiation gauge, field strength, kernel", 5.0):
        for _ in range(1000):
            k = random_null_covector(rng)
            basis = standard_basis(k)
            assert float(np.max(np.abs(pairing_matrix(basis) - ETA))) <= 1e-12
            assert completeness_residual(basis) <= 1e-12

            # radiation gauge on a Lorenz-valid input
            t1, t2 = basis.eps[1], basis.eps[2]
            coeffs = rng.uniform(-1, 1, 6)
            eps = (
                (coeffs[0] + 1j * coeffs[1]) * t1
                + (coeffs[2] + 1j * coeffs[3]) * t2
                + (coeffs[4] + 1j * coeffs[5]) * k
            )
            fixed, _ = radiation_fix(FourierMode(k, eps))
            assert fixed.eps[0] == 0.0  # exactly
            kvec = spatial_momentum(k)
            assert abs(np.dot(kvec, fixed.eps[1:4])) <= 1e-10

            # field strength gauge invariance
            mode = FourierMode(k, rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
            chi = GaugeFunction(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            f0 = field_strength_mode(mode).F
            f1 = field_strength_mode(gauge_transform(mode, chi)).F
            assert float(np.max(np.abs(f1 - f0))) <= 1e-12

            # physical transverse plane vs brute-force rank oracle
            kernel = physical_kernel(k)
            assert kernel.shape == (2, 4)
            assert subspace_angle_max(kernel, transverse_oracle(k)) <= 1e-10


def test_criterion_5_kernel_honesty(maxwell_d):
    with criterion(5, "literal kernel dim 4 vs physical transverse dim 2", 1.0):
        pt = PhaseSpacePoint([0, 0, 0, 0], [1, 0, 0, -1])
        literal, _ = kernel_basis(maxwell_d.p, pt)
        assert len(literal) == 4
        physical = physical_kernel(pt.k)
        assert physical.shape[0] == 2
        target = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex)
        assert subspace_angle_max(physical, target) <= 1e-10


def test_criterion_6_estimator_end_to_end(maxwell_d, standard_packet):
    with criterion(6, "64^3 packet: direction, polarization, speed, compare()", 60.0):
        field, mode, center = standard_packet
        grid = field.grid
        centers = [np.array([t, 0.0, 0.0, center[3] + t]) for t in grid.times]
        estimates = estimate_polarization_set(field, centers, window_width=2.0, threshold=0.2)
        assert len(estimates) == len(centers)

        eps_ref = np.array([0, 1, 0, 0], dtype=complex)
        for est in estimates:
            cosang = float(np.clip(est.k_hat @ np.array([0.0, 0.0, 1.0]), -1, 1))
            assert math.degrees(math.acos(cosang)) <= 3.0
            assert abs(np.vdot(est.omega_hat, eps_ref)) >= 0.99

        track = straightness_track(field)
        assert abs(track.speed - 1.0) <= 0.02
        assert track.line_residual <= grid.spacing[2]  # one cell

        omega_carrier = mode.k[0]
        tau_end = grid.times[-1] / (2.0 * omega_carrier)
        ray = trace_ray(maxwell_d.q, [0.0, *center[1:4]], mode.k, (0.0, tau_end), tau_end / 200)
        orbit = transport(maxwell_d, ray, eps_ref)
        report = compare(estimates, orbit, CompareTolerances(max_distance=1.0))
        assert report.passed
        for entry in report.entries:
            assert entry.overlap >= 0.99
            assert entry.timelike_db <= -20.0
            assert entry.longitudinal_db <= -20.0


def test_criterion_7_projection_surrogate(standard_packet):
    with criterion(7, "estimate base points equal scalar-detector flags", 30.0):
        field, _, center = standard_packet
        grid = field.grid
        on_path = [np.array([t, 0.0, 0.0, center[3] + t]) for t in grid.times]
        off_path = [
            np.array([0.0, x1, x2, 4.0])
            for x1 in (-4.0, 0.0, 4.0)
            for x2 in (-4.0, 4.0)
        ]
        centers = on_path + off_path
        estimates = estimate_polarization_set(field, centers, window_width=2.0, threshold=0.2)
        flags = scalar_component_flags(field, centers, window_width=2.0, threshold=0.2)
        detected = [
            any(
                np.array_equal(est.x, c) and float(np.linalg.norm(est.omega_hat)) > 1e-12
                for est in estimates
            )
            for c in centers
        ]
        assert detected == flags
        assert any(flags) and not all(flags)


def test_criterion_8_cli_determinism_and_roundtrip(tmp_path):
    with criterion(8, "byte-identical CLI reruns; exact file round-trips", 5.0):
        pi = "3.141592653589793"
        kflag = f"{pi},0,0,-{pi}"

        def do(argv):
            assert cli_run(argv) in (0,)

        pairs = {}
        for tag in ("a", "b"):
            ray_p = tmp_path / f"ray_{tag}.csv"
            orb_p = tmp_path / f"orb_{tag}.csv"
            gf_p = tmp_path / f"field_{tag}.gf"
            est_p = tmp_path / f"est_{tag}.json"
            gauge_p = tmp_path / f"gauge_{tag}.json"
            check_p = tmp_path / f"check_{tag}.json"
            do(["trace", "--symbol", "flat-maxwell", "--x0", "0.1,0.2,0.3,0.4",
                "--k", "0,1.5,-0.5,2.25", "--project-null", "--tau", "0:2",
                "--step", "0.01", "-o", str(ray_p)])
            do(["transport", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", kflag,
                "--tau", "0:0.1", "--step", "0.001", "--omega0", "0,1,0,0",
                "--omega0-imag", "0,0,1,0", "-o", str(orb_p)])
            do(["synth", "--k", kflag, "--eps", "0,1,0,0", "--center", "0,0,0,0",
                "--sigma", "2.0", "--extent", "16,16,16", "--samples", "32,32,32",
                "--tslices", "2", "--tstep", "0.4", "-o", str(gf_p)])
            do(["estimate", "--field", str(gf_p), "--centers", "0,0,0,0",
                "--window", "2.0", "--threshold", "0.2", "-o", str(est_p)])
            do(["gauge", "--k", "1,0,0,-1", "--eps", "1,1,0,-1",
                "--eps-imag", "0,0.25,0,0", "-o", str(gauge_p)])
            do(["check-type", "--symbol", "flat-maxwell", "--point", "0,0,0,0",
                "--k", "5,3,4,0", "-o", str(check_p)])
            pairs[tag] = [ray_p, orb_p, gf_p, est_p, gauge_p, check_p]

        for file_a, file_b in zip(pairs["a"], pairs["b"]):
            assert file_a.read_bytes() == file_b.read_bytes(), file_a.name

        ray_p, orb_p, gf_p, est_p, _, _ = pairs["a"]
        assert roundtrip(str(ray_p)) and roundtrip(str(orb_p))
        assert roundtrip(str(gf_p)) and roundtrip(str(est_p))

        # re-read equals in-memory bit for bit
        ray = read_ray_csv(str(ray_p))
        assert np.array_equal(read_ray_csv(str(ray_p)).x, ray.x)
        orbit = read_orbit_csv(str(orb_p))
        assert orbit.omega.dtype == complex and len(orbit) == 101
        field = read_gridfield(str(gf_p))
        assert field.data.shape == (2, 4, 32, 32, 32)
        estimates = read_estimates_json(str(est_p))
        assert estimates and json.loads((tmp_path / "gauge_a.json").read_text())
