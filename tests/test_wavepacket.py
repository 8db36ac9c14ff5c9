import itertools
import math
import tracemalloc

import numpy as np
import pytest

from polaray.errors import InvalidInput
from polaray.gauge import FourierMode, ZeroFrequency, classify_mode, physical_polarizations
from polaray.principal_type import decompose_principal_type
from polaray.rays import trace_ray
from polaray.symbols import flat_maxwell
from polaray.transport import HamiltonOrbit, transport
from polaray.wavepacket import (
    CompareTolerances,
    DegenerateField,
    GridField,
    GridSpec,
    WavePacketSpec,
    WindowOutOfBounds,
    _peak_candidates,
    _point_to_polyline,
    compare,
    estimate_polarization_set,
    straightness_track,
    synthesize,
    windowed_spectrum,
)

from oracles import scalar_component_flags

L = 16.0


def carrier(cycles):
    """Null covector for a spatial carrier with the given cycles/domain."""
    kvec = 2.0 * np.pi * np.asarray(cycles, dtype=float) / L
    omega = float(np.linalg.norm(kvec))
    return np.array([omega, -kvec[0], -kvec[1], -kvec[2]]), kvec, omega


def small_grid(n=32, nt=1, dt=0.1):
    return GridSpec(extents=(L, L, L), samples=(n, n, n), time_slices=nt, time_step=dt)


def angle_deg(u, v):
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return math.degrees(2.0 * math.asin(min(1.0, float(np.linalg.norm(u - v)) / 2.0)))


def plane_wave_field(grid, kvec, eps):
    """Constant-envelope single mode, built directly (not via synthesize)."""
    ax = [grid.axis(i) for i in range(3)]
    shapes = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    phase = sum(kvec[i] * ax[i].reshape(shapes[i]) for i in range(3))
    scalar = np.exp(1j * phase)
    data = np.empty((grid.time_slices, 4, *grid.samples), dtype=complex)
    for j in range(grid.time_slices):
        for mu in range(4):
            data[j, mu] = eps[mu] * scalar
    return GridField(grid, data)


class TestGridSpec:
    def test_rejects_coarse_axes(self):
        with pytest.raises(InvalidInput):
            GridSpec(extents=(L, L, L), samples=(4, 32, 32))

    @pytest.mark.parametrize("count", [32.9, math.nan])
    def test_rejects_non_integral_sample_counts(self, count):
        with pytest.raises(InvalidInput, match="integers"):
            GridSpec(extents=(L, L, L), samples=(count, 32, 32))

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf])
    def test_rejects_non_integral_time_slice_counts(self, count):
        with pytest.raises(InvalidInput, match="time slice count"):
            GridSpec(extents=(L, L, L), samples=(32, 32, 32), time_slices=count, time_step=0.5)

    def test_integral_time_slice_count_becomes_an_int(self):
        grid = GridSpec(extents=(L, L, L), samples=(32, 32, 32), time_slices=3.0, time_step=0.5)
        assert type(grid.time_slices) is int and grid.times.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("extents", [(math.nan, L, L), (L, math.inf, L), (L, L, -L)])
    def test_rejects_non_finite_or_non_positive_extents(self, extents):
        with pytest.raises(InvalidInput, match="extents must be finite and positive"):
            GridSpec(extents=extents, samples=(32, 32, 32))

    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -0.1])
    def test_rejects_non_finite_or_non_positive_time_step(self, step):
        with pytest.raises(InvalidInput, match="time step must be finite and positive"):
            GridSpec(extents=(L, L, L), samples=(32, 32, 32), time_slices=2, time_step=step)

    def test_rejects_large_time_step(self):
        with pytest.raises(InvalidInput):
            GridSpec(extents=(L, L, L), samples=(32, 32, 32), time_step=1.0)

    def test_axes_and_bins(self):
        grid = small_grid()
        assert grid.spacing == (0.5, 0.5, 0.5)
        assert grid.axis(0)[0] == -8.0
        k = grid.k_axis(0)
        assert k[len(k) // 2] == 0.0

    def test_coordinates_broadcast_the_axes(self):
        grid = GridSpec(extents=(L, 12.0, 10.0), samples=(8, 9, 10))
        coords = grid.coordinates()
        assert [c.shape for c in coords] == [(8, 1, 1), (1, 9, 1), (1, 1, 10)]
        for i, c in enumerate(coords):
            assert np.array_equal(c.ravel(), grid.axis(i))


class TestSynthesize:
    def test_single_component_polarization(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.zeros(4), 2.0), small_grid()
        )
        assert np.max(np.abs(field.data[:, 0])) == 0.0
        assert np.max(np.abs(field.data[:, 2])) == 0.0
        assert np.max(np.abs(field.data[:, 1])) > 0.0

    def test_zero_amplitude(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0], amplitude=0.0), np.zeros(4), 2.0),
            small_grid(),
        )
        assert np.all(field.data == 0)

    def test_centroid_matches_envelope_center(self):
        kcov, _, _ = carrier([0, 0, 8])
        center = np.array([0.0, 0.5, -1.0, 2.0])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), center, 2.0),
            small_grid(nt=3, dt=0.1),
        )
        track = straightness_track(field)
        assert np.max(np.abs(track.trajectory[0] - center[1:4])) <= 0.25  # half a cell

    def test_width_constraints(self):
        kcov, _, _ = carrier([0, 0, 8])
        mode = FourierMode(kcov, [0, 1, 0, 0])
        with pytest.raises(InvalidInput):
            synthesize(WavePacketSpec(mode, np.zeros(4), 1.0), small_grid())  # < 4 cells
        with pytest.raises(InvalidInput):
            synthesize(WavePacketSpec(mode, np.zeros(4), 3.0), small_grid())  # > L/8

    def test_past_branch_rejected(self):
        kcov, _, _ = carrier([0, 0, 8])
        with pytest.raises(ZeroFrequency):
            synthesize(
                WavePacketSpec(FourierMode(-kcov, [0, 1, 0, 0]), np.zeros(4), 2.0), small_grid()
            )

    def test_transport_error_documented(self):
        kcov, _, omega = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.zeros(4), 2.0), small_grid()
        )
        assert field.metadata["envelope_transport_error"] == 1.0 / (2.0 * omega)


class TestWindowedSpectrum:
    def test_plane_wave_energy_concentrates(self):
        grid = small_grid()
        _, kvec, _ = carrier([0, 0, 8])
        field = plane_wave_field(grid, kvec, np.array([0, 1, 0, 0], complex))
        spec = windowed_spectrum(field, np.zeros(4), 4.0)
        mag2 = spec.magnitude() ** 2
        peak = np.unravel_index(np.argmax(mag2), mag2.shape)
        neighborhood = 0.0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    neighborhood += mag2[
                        (peak[0] + dx) % 32, (peak[1] + dy) % 32, (peak[2] + dz) % 32
                    ]
        assert neighborhood >= 0.9 * float(mag2.sum())

    def test_zero_field(self):
        grid = small_grid()
        field = GridField(grid, np.zeros((1, 4, 32, 32, 32), dtype=complex))
        spec = windowed_spectrum(field, np.zeros(4), 2.0)
        assert np.all(spec.amplitudes == 0)

    def test_two_disjoint_carriers_two_bins(self):
        grid = small_grid()
        kcov1, _, _ = carrier([0, 0, 8])
        kcov2, _, _ = carrier([6, 0, 0])
        f1 = synthesize(WavePacketSpec(FourierMode(kcov1, [0, 1, 0, 0]), np.zeros(4), 2.0), grid)
        f2 = synthesize(WavePacketSpec(FourierMode(kcov2, [0, 0, 1, 0]), np.zeros(4), 2.0), grid)
        estimates = estimate_polarization_set(f1 + f2, [np.zeros(4)], 2.0, 0.3)
        assert len(estimates) == 2
        directions = sorted(tuple(np.round(e.k_hat, 3)) for e in estimates)
        assert directions == [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]

    def test_window_must_fit(self):
        grid = small_grid()
        _, kvec, _ = carrier([0, 0, 8])
        field = plane_wave_field(grid, kvec, np.array([0, 1, 0, 0], complex))
        with pytest.raises(WindowOutOfBounds):
            windowed_spectrum(field, [0, 0, 0, 7.5], 2.0)


class TestEstimates:
    def test_standard_packet(self):
        kcov, kvec, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.zeros(4), 2.0), small_grid()
        )
        est = estimate_polarization_set(field, [np.zeros(4)], 2.0, 0.2)
        assert len(est) == 1
        e = est[0]
        assert angle_deg(e.k_hat, [0, 0, 1]) <= 3.0
        assert abs(np.vdot(e.omega_hat, np.array([0, 1, 0, 0], complex))) >= 0.99
        assert abs(e.freq - np.linalg.norm(kvec)) <= 0.05

    def test_far_window_silent(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.array([0, 0, 0, -0.4]), 1.0),
            small_grid(64),
        )
        near = np.array([0, 0, 0, -0.4])
        far = np.array([0, 5.0, 5.0, -0.4])  # > 6 sigma away
        est = estimate_polarization_set(field, [near, far], 1.5, 0.2)
        assert {tuple(e.x) for e in est} == {tuple(near)}

    def test_circular_polarization_overlap(self):
        kcov, _, _ = carrier([0, 0, 8])
        plus, minus = physical_polarizations(kcov, "circular")
        field = synthesize(WavePacketSpec(FourierMode(kcov, plus), np.zeros(4), 2.0), small_grid())
        e = estimate_polarization_set(field, [np.zeros(4)], 2.0, 0.2)[0]
        assert abs(np.vdot(e.omega_hat, plus)) >= 0.99
        assert abs(np.vdot(e.omega_hat, minus)) <= 0.1

    def test_strength_monotone_in_amplitude(self):
        kcov1, _, _ = carrier([0, 0, 8])
        kcov2, _, _ = carrier([6, 0, 0])
        f1 = synthesize(
            WavePacketSpec(FourierMode(kcov1, [0, 1, 0, 0], amplitude=1.0), np.zeros(4), 2.0),
            small_grid(),
        )
        f2 = synthesize(
            WavePacketSpec(FourierMode(kcov2, [0, 0, 1, 0], amplitude=0.5), np.zeros(4), 2.0),
            small_grid(),
        )
        est = estimate_polarization_set(f1 + f2, [np.zeros(4)], 2.0, 0.1)
        by_dir = {tuple(np.round(e.k_hat)): e.strength for e in est}
        assert by_dir[(0.0, 0.0, 1.0)] > by_dir[(1.0, 0.0, 0.0)]

    def test_bad_threshold(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.zeros(4), 2.0), small_grid()
        )
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidInput):
                estimate_polarization_set(field, [np.zeros(4)], 2.0, bad)

    def test_bad_window_width(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.zeros(4), 2.0), small_grid()
        )
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidInput, match="window width"):
                estimate_polarization_set(field, [np.zeros(4)], bad, 0.2)


def brute_force_candidates(mag, k_axes, threshold):
    """The 26-neighbour peak rule: one wrap-around roll per neighbour."""
    peak = (mag >= threshold * mag.max()) & (mag > 0.0)
    for shift in itertools.product((-1, 0, 1), repeat=3):
        if shift != (0, 0, 0):
            peak &= mag >= np.roll(mag, shift, axis=(0, 1, 2))
    peak[tuple(int(np.argmin(np.abs(k))) for k in k_axes)] = False
    indices = np.argwhere(peak)
    order = np.argsort([-mag[tuple(i)] for i in indices], kind="stable")
    return indices[order]


class TestPeakCandidates:
    SHAPE = (8, 9, 10)
    K_AXES = tuple(np.fft.fftshift(np.fft.fftfreq(n)) for n in SHAPE)

    def assert_matches_oracle(self, mag):
        for threshold in (0.05, 0.2, 0.6, 0.999):
            found = _peak_candidates(mag, self.K_AXES, threshold)
            expected = brute_force_candidates(mag, self.K_AXES, threshold)
            assert found.shape == expected.shape
            assert np.array_equal(found, expected)

    def test_plateaus_keep_argwhere_order(self, rng):
        for levels in (2, 3, 5):
            mag = rng.integers(0, levels, self.SHAPE).astype(float)
            self.assert_matches_oracle(mag)
            ties = _peak_candidates(mag, self.K_AXES, 0.5)
            assert len(ties) > 1

    def test_peaks_on_the_wrap_around_edge(self):
        mag = np.zeros(self.SHAPE)
        for corner in itertools.product((0, -1), repeat=3):
            mag[corner] = 1.0 + 0.1 * sum(corner)
        mag[0, 4, :] = 0.9  # a plateau crossing the last-axis edge
        mag[-1, 0, 5] = 0.95
        mag[4, 4, 5] = 2.0  # the DC bin, never a candidate
        self.assert_matches_oracle(mag)
        assert len(_peak_candidates(mag, self.K_AXES, 0.1)) > 0

    def test_all_zero_window_has_no_candidates(self):
        mag = np.zeros(self.SHAPE)
        self.assert_matches_oracle(mag)
        assert _peak_candidates(mag, self.K_AXES, 0.2).shape == (0, 3)

    def test_random_and_spectral_magnitudes(self, rng):
        self.assert_matches_oracle(rng.random(self.SHAPE))
        kcov, _, _ = carrier([0, 3, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0.5j, 0]), np.zeros(4), 2.0), small_grid()
        )
        spectrum = windowed_spectrum(field, np.zeros(4), 2.0)
        mag = spectrum.magnitude()
        for threshold in (1e-6, 0.2):
            assert np.array_equal(
                _peak_candidates(mag, spectrum.k_axes, threshold),
                brute_force_candidates(mag, spectrum.k_axes, threshold),
            )


class TestEstimatorMemory:
    def test_peak_memory_does_not_grow_with_the_window_count(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.zeros(4), 2.0), small_grid()
        )

        def peak_bytes(n_windows):
            centers = [np.array([0.0, 0.0, 0.0, x3]) for x3 in np.linspace(-4, 4, n_windows)]
            tracemalloc.start()
            try:
                estimate_polarization_set(field, centers, 2.0, 0.2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(16) < 2 * peak_bytes(1)


class TestProjectionConsistency:
    def test_flags_match_estimates_window_for_window(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.array([0, 0, 0, -2.0]), 1.5),
            small_grid(64),
        )
        centers = [np.array([0.0, x1, 0.0, x3]) for x1 in (-4.0, 0.0, 4.0) for x3 in (-4.0, -2.0, 2.0)]
        estimates = estimate_polarization_set(field, centers, 1.5, 0.2)
        flagged = scalar_component_flags(field, centers, 1.5, 0.2)
        with_estimate = [
            any(np.array_equal(e.x, c) and np.linalg.norm(e.omega_hat) > 1e-12 for e in estimates)
            for c in centers
        ]
        assert with_estimate == flagged
        assert any(flagged) and not all(flagged)


class TestGaugeRobustness:
    def test_pure_gauge_admixture_shifts_little(self):
        kcov, _, _ = carrier([0, 0, 8])
        grid = small_grid(48)
        signal = synthesize(WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.zeros(4), 1.8), grid)
        gauge_part = synthesize(
            WavePacketSpec(
                FourierMode(kcov, kcov / np.linalg.norm(kcov), amplitude=0.3), np.zeros(4), 1.8
            ),
            grid,
        )
        e = estimate_polarization_set(signal + gauge_part, [np.zeros(4)], 2.0, 0.2)[0]
        cls = classify_mode(FourierMode(kcov, e.omega_hat))
        transverse = cls.transverse / np.linalg.norm(cls.transverse)
        ref = np.array([0, 1, 0, 0], dtype=complex)
        phase = np.vdot(transverse, ref)
        transverse = transverse * (phase / abs(phase))
        assert np.linalg.norm(transverse - ref) <= 0.05
        assert abs(cls.pure_gauge) > 0.01  # admixture went to the gauge slot


class TestResolutionLaw:
    def test_doubling_samples_resolves_direction(self):
        # 17 cycles/domain sits beyond the 32^3 grid's 16-cycle limit and
        # aliases there; 64^3 resolves it. Error must shrink by >= 1.5x.
        kcov, kvec, _ = carrier([5, 0, 17])
        mode = FourierMode(kcov, physical_polarizations(kcov)[0])
        errors = {}
        for n in (32, 64):
            grid = small_grid(n)
            field = synthesize(WavePacketSpec(mode, np.zeros(4), 2.0), grid)
            est = estimate_polarization_set(field, [np.zeros(4)], 2.0, 0.3)
            best = max(est, key=lambda e: e.strength)
            errors[n] = angle_deg(best.k_hat, kvec)
        assert errors[64] <= 0.1
        assert errors[32] >= 1.5 * errors[64]


class TestStraightnessTrack:
    def test_axis_packet_speed_and_residual(self):
        kcov, _, _ = carrier([0, 0, 8])
        grid = small_grid(n=32, nt=5, dt=0.4)
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.array([0, 0, 0, -1.0]), 2.0), grid
        )
        track = straightness_track(field)
        assert abs(track.speed - 1.0) <= 0.02
        assert track.line_residual <= 0.5  # one cell
        assert angle_deg(track.direction, [0, 0, 1]) <= 3.0

    def test_diagonal_packet_direction(self):
        kcov, kvec, _ = carrier([6, 8, 0])  # direction (3,4,0)/5
        grid = small_grid(n=32, nt=5, dt=0.4)
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, physical_polarizations(kcov)[0]), np.array([0, -1.0, -1.0, 0]), 2.0),
            grid,
        )
        track = straightness_track(field)
        assert angle_deg(track.direction, [0.6, 0.8, 0.0]) <= 3.0
        assert abs(track.speed - 1.0) <= 0.02

    def test_needs_three_slices(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.zeros(4), 2.0),
            small_grid(nt=2, dt=0.4),
        )
        with pytest.raises(InvalidInput):
            straightness_track(field)

    def test_zero_field_degenerate(self):
        grid = small_grid(nt=3, dt=0.4)
        field = GridField(grid, np.zeros((3, 4, 32, 32, 32), dtype=complex))
        with pytest.raises(DegenerateField):
            straightness_track(field)


def loop_point_to_polyline(point, polyline):
    """Reference: project the point onto one segment at a time."""
    nearest_vertex = int(np.argmin(np.linalg.norm(polyline - point, axis=1)))
    best = float(np.linalg.norm(polyline[nearest_vertex] - point))
    for i in range(len(polyline) - 1):
        a, b = polyline[i], polyline[i + 1]
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            continue
        t = float(np.clip((point - a) @ ab / denom, 0.0, 1.0))
        best = min(best, float(np.linalg.norm(a + t * ab - point)))
    return best, nearest_vertex


class TestPointToPolyline:
    def test_matches_the_segment_loop(self, rng):
        # a single vertex, and a path of one repeated vertex
        paths = [np.zeros((1, 4)), np.tile([1.0, 2.0, 2.0, 0.0], (5, 1))]
        for _ in range(200):
            n = int(rng.integers(2, 12))
            path = np.cumsum(rng.normal(size=(n, 4)), axis=0)
            # repeated vertices give zero-length segments
            path[rng.integers(1, n)] = path[rng.integers(0, n)]
            paths.append(np.insert(path, int(rng.integers(0, n)), path[0], axis=0))
        for path in paths:
            for point in (path[rng.integers(len(path))], rng.normal(size=4) * 3):
                distance, nearest = _point_to_polyline(point, path)
                ref_distance, ref_nearest = loop_point_to_polyline(point, path)
                assert nearest == ref_nearest
                assert math.isclose(distance, ref_distance, rel_tol=1e-14, abs_tol=0.0)


class TestCompare:
    def _matched_pair(self):
        kcov, _, omega = carrier([0, 0, 8])
        grid = small_grid(n=32, nt=3, dt=0.4)
        center = np.array([0.0, 0, 0, -0.5])
        field = synthesize(WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), center, 2.0), grid)
        centers = [np.array([t, 0, 0, -0.5 + t]) for t in grid.times]
        estimates = estimate_polarization_set(field, centers, 2.0, 0.2)
        decomp = decompose_principal_type(flat_maxwell())
        tau_end = grid.times[-1] / (2.0 * omega)
        ray = trace_ray(decomp.q, [0, 0, 0, -0.5], kcov, (0, tau_end), tau_end / 100)
        orbit = transport(decomp, ray, np.array([0, 1, 0, 0], complex))
        return estimates, orbit

    def test_matched_pair_passes(self):
        estimates, orbit = self._matched_pair()
        report = compare(estimates, orbit, CompareTolerances(max_distance=1.0))
        assert report.passed
        assert len(report.entries) == len(estimates)
        for entry in report.entries:
            assert entry.overlap >= 0.99
            assert entry.timelike_db <= -20 and entry.longitudinal_db <= -20

    def test_orthogonal_polarization_fails(self):
        estimates, orbit = self._matched_pair()
        rotated = HamiltonOrbit(
            ray=orbit.ray,
            omega=np.broadcast_to(np.array([0, 0, 1, 0], complex), orbit.omega.shape).copy(),
            residuals=orbit.residuals,
        )
        report = compare(estimates, rotated, CompareTolerances(max_distance=1.0))
        assert not report.passed
        assert all(e.overlap <= 0.1 for e in report.entries)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_distance": -1.0},
            {"max_distance": math.nan},
            {"max_angle_deg": 0.0},
            {"min_overlap": 5.0},
            {"min_overlap": 0.0},
            {"max_sideband_db": math.nan},
        ],
    )
    def test_tolerances_are_checked(self, bad):
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            CompareTolerances(**bad)

    def test_empty_estimates_trivially_pass(self):
        _, orbit = self._matched_pair()
        report = compare([], orbit)
        assert report.passed and report.entries == []

    def test_empty_orbit_rejected(self):
        estimates, orbit = self._matched_pair()
        with pytest.raises(InvalidInput):
            sliced = HamiltonOrbit(
                ray=orbit.ray, omega=orbit.omega[:0], residuals=orbit.residuals[:0]
            )
