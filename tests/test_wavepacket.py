import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from polaray.errors import InvalidInput
from polaray.gauge import FourierMode, ZeroFrequency, classify_mode, physical_polarizations
from polaray.minkowski import as_point4
from polaray.principal_type import decompose_principal_type
from polaray.rays import trace_ray
from polaray.symbols import flat_maxwell
from polaray.transport import HamiltonOrbit, transport
from polaray.wavepacket import (
    CompareTolerances,
    DegenerateField,
    GridField,
    GridSpec,
    PolarizationEstimate,
    WavePacketSpec,
    WindowedSpectrum,
    WindowOutOfBounds,
    _peak_candidates,
    _point_to_polyline,
    _refine_axis,
    _window_estimates,
    _Workspace,
    compare,
    estimate_polarization_set,
    straightness_track,
    synthesize,
    windowed_spectrum,
)

from conftest import circular_polarizations
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
    @pytest.mark.parametrize(
        "extents, samples", [((L, L), (32, 32, 32)), ((L, L, L), (32, 32)), ((L,) * 4, (32,) * 4)]
    )
    def test_rejects_other_than_three_axes(self, extents, samples):
        with pytest.raises(InvalidInput, match="3 spatial extents and 3 sample counts"):
            GridSpec(extents=extents, samples=samples)

    def test_field_shape_must_match_the_grid(self):
        with pytest.raises(InvalidInput, match="field data must have shape"):
            GridField(small_grid(n=8), np.zeros((1, 4, 8, 8, 9), dtype=complex))

    def test_fields_on_different_grids_do_not_add(self):
        a, b = (GridField(small_grid(n=n), np.zeros((1, 4, n, n, n))) for n in (8, 16))
        with pytest.raises(InvalidInput, match="different grids"):
            a + b

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
    def test_samples_keep_the_closed_form_bits(self):
        kcov = np.array([2.5, -1.5, 0.0, -2.0])
        eps = np.array([0, 0.8, 0.6j, -0.6]) / np.linalg.norm([0, 0.8, 0.6, 0.6])
        mode = FourierMode(kcov, eps, amplitude=0.7 - 0.2j)
        center = np.array([0.1, 0.3, -0.2, 0.5])
        grid = small_grid(n=32, nt=3, dt=0.3)
        field = synthesize(WavePacketSpec(mode, center, 2.0), grid)
        coords = grid.coordinates()
        kvec, omega = -kcov[1:], kcov[0]
        phase = sum(kvec[i] * coords[i] for i in range(3))
        for j, t in enumerate(grid.times):
            c = center[1:] + kvec / omega * (t - center[0])
            dist2 = sum((coords[i] - c[i]) ** 2 for i in range(3))
            scalar = np.exp(1j * (phase - omega * t) - dist2 * (1.0 / (2.0 * 2.0 * 2.0)))
            scalar = scalar * (mode.amplitude / math.sqrt(2.0 * omega))
            for mu in range(4):
                assert np.array_equal(field.data[j, mu], mode.eps[mu] * scalar)

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
        plus, minus = circular_polarizations(kcov)
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


def shifted_estimates(field, centers, window_width, threshold):
    """The estimator on fftshifted spectra, with a fresh array for every step.

    Per window: a new windowed product, its transform, an ``fftshift`` copy
    and the magnitude ``sqrt(sum |a|^2)``; candidates from the 26-neighbour
    rule in ``np.argwhere`` order, stably sorted by strength.  The
    refinement and the global threshold are the library's.  Valid windows
    only: nothing here checks them.
    """
    grid = field.grid
    k_axes = tuple(grid.k_axis(i) for i in range(3))
    steps = [k[1] - k[0] for k in k_axes]
    coords = grid.coordinates()
    global_max, out = 0.0, []
    for center in map(as_point4, centers):
        j = int(np.argmin(np.abs(grid.times - center[0])))
        dist2 = sum((coords[i] - center[1 + i]) ** 2 for i in range(3))
        window = np.exp(-dist2 / (2.0 * window_width**2))
        spectra = np.fft.fftn(field.data[j] * window, axes=(1, 2, 3))
        spectra = np.fft.fftshift(spectra, axes=(1, 2, 3))
        mag = np.sqrt(np.sum(np.abs(spectra) ** 2, axis=0))
        for pos in brute_force_candidates(mag, k_axes, threshold):
            idx = tuple(int(v) for v in pos)
            kvec = np.array([k_axes[a][idx[a]] for a in range(3)])
            kvec = kvec + np.array([_refine_axis(mag, idx, a) * steps[a] for a in range(3)])
            freq = float(np.linalg.norm(kvec))
            amps = spectra[(slice(None), *idx)]
            out.append(
                PolarizationEstimate(
                    x=center,
                    k_hat=kvec / freq,
                    freq=freq,
                    omega_hat=amps / float(np.linalg.norm(amps)),
                    strength=float(mag[idx]),
                )
            )
        global_max = max(global_max, float(mag.max()))
    return [est for est in out if est.strength >= threshold * global_max]


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


    def test_storage_order_does_not_change_the_candidates(self, rng):
        # ifftshift puts shifted bin i at (i - n // 2) % n, zero frequency first
        shift = np.array([n // 2 for n in self.SHAPE])
        fft_axes = tuple(np.fft.ifftshift(k) for k in self.K_AXES)
        for mag in (rng.random(self.SHAPE), rng.integers(0, 3, self.SHAPE).astype(float)):
            for threshold in (0.05, 0.5):
                shifted = _peak_candidates(mag, self.K_AXES, threshold)
                unshifted = _peak_candidates(np.fft.ifftshift(mag), fft_axes, threshold)
                assert len(shifted) > 1
                assert np.array_equal(unshifted, (shifted - shift) % self.SHAPE)


def bench_size_packet():
    """The bench's packet: 40^3 x 3 slices, an off-lattice carrier, 8 windows on its path."""
    grid = GridSpec((L, L, L), (40, 40, 40), time_slices=3, time_step=L / 40)
    direction = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    k = np.array([2.4, *(-2.4 * direction)])
    e1, e2 = physical_polarizations(k)
    eps = math.cos(0.7) * e1 + math.sin(0.7) * np.exp(1.1j) * e2
    center = np.array([0.0, *(-0.4 * direction)])
    field = synthesize(WavePacketSpec(FourierMode(k, eps), center, 1.8), grid)
    windows = [
        np.array([t, *(center[1:] + direction * t)]) for t in np.linspace(0, grid.times[-1], 8)
    ]
    return field, windows


def assert_same_estimates(found, expected):
    assert len(found) == len(expected) > 0
    for a, b in zip(found, expected):
        for name in ("x", "k_hat", "freq", "omega_hat", "strength"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestWorkspace:
    """One workspace per estimate call, spectra in FFT order: the same
    estimates, bit for bit, as fresh fftshifted spectra."""

    def test_bench_size_packet_matches_the_shifted_oracle(self):
        field, windows = bench_size_packet()
        assert_same_estimates(
            estimate_polarization_set(field, windows, 2.0, 0.2),
            shifted_estimates(field, windows, 2.0, 0.2),
        )

    def test_two_carriers_match_the_shifted_oracle(self):
        grid = small_grid()
        fields = [
            synthesize(WavePacketSpec(FourierMode(carrier(c)[0], e), np.zeros(4), 2.0), grid)
            for c, e in (([0, 2.3, 8], [0, 1, 0, 0]), ([6, 0, -1.6], [0, 0, 1, 0.5j]))
        ]
        field = fields[0] + fields[1]
        centers = [np.zeros(4), np.array([0.0, 1.0, -1.0, 0.5])]
        found = estimate_polarization_set(field, centers, 2.0, 0.1)
        assert_same_estimates(found, shifted_estimates(field, centers, 2.0, 0.1))
        assert len(found) >= 4

    def test_plateau_on_an_odd_mixed_grid_matches_the_shifted_oracle(self):
        # a spike at the first sample transforms to one constant: every
        # bin ties, and on (9, 10, 11) fftshift and ifftshift differ
        grid = GridSpec((9.0, 10.0, 11.0), (9, 10, 11))
        data = np.zeros((1, 4, 9, 10, 11), dtype=complex)
        data[0, :, 0, 0, 0] = [1.0, 2j, 0.0, 0.5]
        field = GridField(grid, data)
        found = estimate_polarization_set(field, [np.zeros(4)], 2.0, 0.5)
        assert_same_estimates(found, shifted_estimates(field, [np.zeros(4)], 2.0, 0.5))
        assert len({e.strength for e in found}) == 1 and len(found) == 9 * 10 * 11 - 1

    def test_plane_wave_on_an_odd_mixed_grid_matches_the_shifted_oracle(self):
        grid = GridSpec((9.0, 10.0, 11.0), (9, 10, 11))
        field = plane_wave_field(grid, [1.3, -2.1, 0.7], np.array([0, 1, 1j, 0]) / math.sqrt(2))
        centers = [np.zeros(4), np.array([0.0, 0.5, -0.5, 1.0])]
        assert_same_estimates(
            estimate_polarization_set(field, centers, 2.0, 0.2),
            shifted_estimates(field, centers, 2.0, 0.2),
        )

    def test_windows_do_not_alias_the_reused_buffer(self):
        field, windows = bench_size_packet()
        singles = [
            _window_estimates(field, c, 2.0, 0.05, _Workspace(field.grid.samples))
            for c in windows[::3]
        ]
        global_max = max(window_max for window_max, _ in singles)
        expected = [e for _, ests in singles for e in ests if e.strength >= 0.05 * global_max]
        assert_same_estimates(estimate_polarization_set(field, windows[::3], 2.0, 0.05), expected)

    def test_peak_memory_is_one_workspace(self):
        field, windows = bench_size_packet()
        spectrum_bytes = 4 * 40**3 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            estimate_polarization_set(field, windows, 2.0, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * spectrum_bytes

    def test_spectrum_buffer_is_filled_in_fft_order_or_refused(self):
        kcov, _, _ = carrier([0, 3, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0.5j, 0]), np.zeros(4), 2.0), small_grid()
        )
        buffer = np.empty((4, 32, 32, 32), dtype=complex)
        spectrum = windowed_spectrum(field, np.zeros(4), 2.0, out=buffer)
        assert spectrum.amplitudes is buffer
        assert np.array_equal(windowed_spectrum(field, np.zeros(4), 2.0).amplitudes, buffer)
        for axis, k in zip(range(3), spectrum.k_axes):
            assert k[0] == 0.0 and np.array_equal(np.fft.fftshift(k), field.grid.k_axis(axis))
        read_only = np.empty_like(buffer)
        read_only.flags.writeable = False
        bad_buffers = [
            np.empty((4, 32, 32, 31), dtype=complex),
            np.empty((4, 32, 32, 32)),
            np.empty((4, 32, 32, 32), dtype=np.complex64),
            read_only,
            field.data[0],
            [[0j]],
        ]
        for bad in bad_buffers:
            with pytest.raises(InvalidInput, match="spectrum buffer"):
                windowed_spectrum(field, np.zeros(4), 2.0, out=bad)

    def test_magnitude_keeps_the_summed_bits(self, rng):
        amplitudes = rng.normal(size=(4, 9, 10, 11)) + 1j * rng.normal(size=(4, 9, 10, 11))
        amplitudes[1, :3] = 0.0
        amplitudes[2] *= 1e-160  # squares near the subnormal range
        spectrum = WindowedSpectrum(amplitudes, (), np.zeros(4))
        expected = np.sqrt(np.sum(np.abs(amplitudes) ** 2, axis=0))
        assert np.array_equal(spectrum.magnitude(), expected)
        out, scratch = np.empty((2, 9, 10, 11))
        assert spectrum.magnitude(out=out, scratch=scratch) is out
        assert np.array_equal(out, expected)


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
    def test_centroids_keep_the_summed_energy_bits(self):
        kcov, _, _ = carrier([0, 3, 8])
        grid = small_grid(n=32, nt=3, dt=0.4)
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0.5j, 0]), np.array([0, 0, 0, -1.0]), 2.0), grid
        )
        track = straightness_track(field)
        coords = grid.coordinates()
        for j, centroid in enumerate(track.trajectory):
            weight = np.sum(np.abs(field.data[j]) ** 2, axis=0)
            total = float(weight.sum())
            assert np.array_equal(centroid, [float(np.sum(weight * c)) / total for c in coords])

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

    def test_speed_and_direction_do_not_depend_on_the_amplitude(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.array([0, 0, 0, -1.0]), 2.0),
            small_grid(n=32, nt=3, dt=0.4),
        )
        unit = straightness_track(field)
        for scale in (2.0**-60, 2.0**-300, 2.0**-540):
            # each slice is rescaled by a power of two before squaring: the same bits
            track = straightness_track(GridField(field.grid, field.data * scale))
            assert track.speed == unit.speed and np.array_equal(track.direction, unit.direction)
        # 1e160 is no power of two, so the field's bits change; its square would overflow
        track = straightness_track(GridField(field.grid, field.data * 1e160))
        assert track.speed == pytest.approx(unit.speed, rel=1e-15, abs=0)
        np.testing.assert_allclose(track.direction, unit.direction, rtol=0, atol=1e-15)
        # re = im everywhere and the largest part at the top exponent: |component| overflows
        even = np.abs(field.data) * (1 + 1j)
        parts = even.view(float)
        top = GridField(field.grid, np.ldexp(parts, 1024 - np.frexp(parts.max())[1]).view(complex))
        base = straightness_track(GridField(field.grid, even))
        track = straightness_track(top)
        assert track.speed == base.speed and np.array_equal(track.direction, base.direction)
        data = field.data.copy()
        data[1] = 0.0
        with pytest.raises(DegenerateField, match="time slice 1 carries no energy"):
            straightness_track(GridField(field.grid, data))

    @pytest.mark.parametrize("exponents", [(-1000, 0, 0), (0, 1000, -1000), (-540, -540, 900)])
    def test_each_slice_is_scaled_on_its_own(self, exponents):
        # the centroid of a slice is energy-weighted, so a power of two per slice keeps its bits
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.array([0, 0, 0, -1.0]), 2.0),
            small_grid(n=32, nt=3, dt=0.4),
        )
        unit = straightness_track(field)
        scale = np.array([2.0**e for e in exponents]).reshape(3, 1, 1, 1, 1)
        track = straightness_track(GridField(field.grid, field.data * scale))
        assert track.speed == unit.speed and np.array_equal(track.direction, unit.direction)
        assert track.line_residual == unit.line_residual

    def test_needs_three_slices(self):
        kcov, _, _ = carrier([0, 0, 8])
        field = synthesize(
            WavePacketSpec(FourierMode(kcov, [0, 1, 0, 0]), np.zeros(4), 2.0),
            small_grid(nt=2, dt=0.4),
        )
        with pytest.raises(InvalidInput):
            straightness_track(field)

    def test_stationary_field_has_no_direction(self):
        field = GridField(small_grid(n=8, nt=3, dt=0.4), np.ones((3, 4, 8, 8, 8), dtype=complex))
        with pytest.raises(DegenerateField, match="centroid does not move"):
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
        # a purely time-like estimate has no transverse part: the largest sideband level
        timelike = [dataclasses.replace(e, omega_hat=[1, 0, 0, 0]) for e in estimates]
        report = compare(timelike, orbit, CompareTolerances(max_distance=1.0))
        assert not report.passed
        assert all(e.timelike_db == e.longitudinal_db == 6000.0 for e in report.entries)
        # the loosest gate still refuses it, as it would the unclamped level
        loose = CompareTolerances(max_distance=1.0, max_sideband_db=5999.0)
        report = compare(timelike, orbit, loose)
        assert not any(e.passed for e in report.entries)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_distance": -1.0},
            {"max_distance": math.nan},
            {"max_distance": math.inf},
            {"max_angle_deg": 0.0},
            {"max_angle_deg": math.inf},
            {"min_overlap": 5.0},
            {"min_overlap": 0.0},
            {"max_sideband_db": math.nan},
            {"max_sideband_db": math.inf},
            {"max_sideband_db": 6000.0},
            {"max_sideband_db": -6000.0},
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
