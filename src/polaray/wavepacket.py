"""Wave-packet synthesis and numerical oscillation-direction estimation.

Fields are sampled in closed form (single carrier mode times a moving
Gaussian envelope), never PDE-stepped, so estimator error is isolated
from solver error.  The estimator is a windowed discrete Fourier
transform with Gaussian windows: per window it finds spectral peaks,
reads off the propagation direction from the peak bin (with a
log-parabolic sub-bin refinement that recovers off-lattice carriers
exactly for Gaussian spectra), and the fiber polarization from the
complex 4-vector of component amplitudes at the peak.

What is detected is strong oscillation in smooth wave packets, a
numerical surrogate for the directions of strongest singularities; the
substitution is documented rather than resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .gauge import FourierMode, ZeroFrequency, standard_basis
from .minkowski import as_point4, spatial_momentum, unit_momentum
from .transport import HamiltonOrbit

# slice energy at or below which straightness_track finds no centroid
ENERGY_FLOOR = 1e-30


class WindowOutOfBounds(InvalidInput):
    """The analysis window does not fit inside the sampled domain."""


class DegenerateField(InvalidInput):
    """A time slice carries no usable energy."""


class EmptyOrbit(InvalidInput):
    """Comparison needs an orbit with at least one sample."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time sampling grid.

    ``extents`` are the spatial domain lengths per axis (the domain is
    centered on the origin), ``samples`` the point counts.  At least 8
    samples per axis and a time step no larger than the smallest spatial
    spacing are required; the latter keeps the unit-speed diagnostics
    meaningful.
    """

    extents: tuple[float, float, float]
    samples: tuple[int, int, int]
    time_slices: int = 1
    time_step: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(v) for v in self.extents))
        if len(self.extents) != 3 or len(self.samples) != 3:
            raise InvalidInput("grid needs 3 spatial extents and 3 sample counts")
        if not all(float(n).is_integer() for n in self.samples):
            raise InvalidInput(f"grid sample counts must be integers, got {self.samples}")
        object.__setattr__(self, "samples", tuple(int(n) for n in self.samples))
        if any(v <= 0 for v in self.extents):
            raise InvalidInput("grid extents must be positive")
        if any(n < 8 for n in self.samples):
            raise InvalidInput("grid needs at least 8 samples per axis")
        if self.time_slices < 1:
            raise InvalidInput("grid needs at least one time slice")
        if self.time_step <= 0:
            raise InvalidInput("time step must be positive")
        if self.time_step > min(self.spacing) * (1 + 1e-12):
            raise InvalidInput("time step must not exceed the spatial step")

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(L / n for L, n in zip(self.extents, self.samples))

    def axis(self, i: int) -> np.ndarray:
        L, n = self.extents[i], self.samples[i]
        return -0.5 * L + np.arange(n) * (L / n)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three axes shaped (n1,1,1), (1,n2,1), (1,1,n3), to broadcast over the grid."""
        return np.ix_(*(self.axis(i) for i in range(3)))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.time_slices) * self.time_step

    def k_axis(self, i: int) -> np.ndarray:
        """Angular-frequency bins of axis i, fftshifted to ascending order."""
        n = self.samples[i]
        d = self.extents[i] / n
        return np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d))

    def same_geometry(self, other: "GridSpec") -> bool:
        return (
            self.extents == other.extents
            and self.samples == other.samples
            and self.time_slices == other.time_slices
            and self.time_step == other.time_step
        )


@dataclass(frozen=True)
class WavePacketSpec:
    """One carrier mode under an isotropic Gaussian envelope.

    The envelope center is a space-time point: the packet is centered at
    the spatial part when t equals the time component and rides along
    the carrier's unit propagation direction.  Grid-relative width
    constraints (at least 4 spacings, at most 1/8 of the domain) are
    enforced at synthesis time.
    """

    mode: FourierMode
    center: np.ndarray
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point4(self.center, "center"))
        if not (self.sigma > 0):
            raise InvalidInput("envelope width must be positive")


class GridField:
    """Four complex field components sampled on a grid, one per time slice."""

    def __init__(self, grid: GridSpec, data: np.ndarray, metadata: dict | None = None):
        data = np.asarray(data, dtype=complex)
        expected = (grid.time_slices, 4, *grid.samples)
        if data.shape != expected:
            raise InvalidInput(f"field data must have shape {expected}, got {data.shape}")
        if not np.all(np.isfinite(data.view(float))):
            raise InvalidInput("field contains non-finite samples")
        self.grid = grid
        self.data = data
        self.metadata = dict(metadata or {})

    def __add__(self, other: "GridField") -> "GridField":
        if not self.grid.same_geometry(other.grid):
            raise InvalidInput("cannot add fields on different grids")
        return GridField(self.grid, self.data + other.data, self.metadata)


def synthesize(spec: WavePacketSpec, grid: GridSpec) -> GridField:
    """Sample a single-mode wave packet on the grid in closed form.

    The field is ``eps_mu (a / sqrt(2 w)) exp(i(kvec.x - w t))`` times a
    Gaussian envelope translated at unit speed along the propagation
    direction, with w = k0 > 0.  This is an asymptotic solution; the
    envelope transport error scale 1/(sigma*w) is recorded in the field
    metadata for every run.
    """
    mode = spec.mode
    omega = float(mode.k[0])
    if omega <= 0:
        raise ZeroFrequency("synthesis needs a carrier with k0 > 0")
    sigma = float(spec.sigma)
    if sigma < 4.0 * max(grid.spacing) * (1 - 1e-12):
        raise InvalidInput(
            f"envelope width {sigma} is below 4 grid spacings ({4 * max(grid.spacing)})"
        )
    if sigma > min(grid.extents) / 8.0 * (1 + 1e-12):
        raise InvalidInput(
            f"envelope width {sigma} exceeds 1/8 of the domain ({min(grid.extents) / 8})"
        )

    kvec = spatial_momentum(mode.k)
    velocity = kvec / omega
    prefactor = mode.amplitude / math.sqrt(2.0 * omega)

    coords = grid.coordinates()
    phase_s = sum(kvec[i] * coords[i] for i in range(3))

    data = np.empty((grid.time_slices, 4, *grid.samples), dtype=complex)
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    for j, t in enumerate(grid.times):
        c = spec.center[1:4] + velocity * (t - spec.center[0])
        dist2 = sum((coords[i] - c[i]) ** 2 for i in range(3))
        scalar = prefactor * np.exp(1j * (phase_s - omega * t) - dist2 * inv_two_sigma2)
        for mu in range(4):
            data[j, mu] = mode.eps[mu] * scalar
    meta = {
        "envelope_transport_error": 1.0 / (sigma * omega),
        "carrier_k": [float(v) for v in mode.k],
        "sigma": sigma,
    }
    return GridField(grid, data, meta)


@dataclass(frozen=True)
class WindowedSpectrum:
    """Windowed DFT of one time slice: 4 component spectra plus bin axes."""

    amplitudes: np.ndarray  # (4, n1, n2, n3), fftshifted
    k_axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    center: np.ndarray

    def magnitude(self) -> np.ndarray:
        """Hermitian norm over the 4 components per bin."""
        return np.sqrt(np.sum(np.abs(self.amplitudes) ** 2, axis=0))


def windowed_spectrum(field: GridField, center, window_width: float) -> WindowedSpectrum:
    """Gaussian-windowed spatial DFT of the time slice nearest the center.

    The window must fit inside the grid: the spatial center plus/minus
    1.5 window widths must stay within the domain box on every axis.
    """
    center = as_point4(center, "center")
    if not window_width > 0:
        raise InvalidInput(f"window width must be positive, got {window_width}")
    grid = field.grid
    for i in range(3):
        lo, hi = -0.5 * grid.extents[i], 0.5 * grid.extents[i]
        if center[1 + i] - 1.5 * window_width < lo or center[1 + i] + 1.5 * window_width > hi:
            raise WindowOutOfBounds(
                f"window at {center[1:4]} with width {window_width} leaves the domain on axis {i}"
            )
    j = int(np.argmin(np.abs(grid.times - center[0])))

    coords = grid.coordinates()
    dist2 = sum((coords[i] - center[1 + i]) ** 2 for i in range(3))
    window = np.exp(-dist2 / (2.0 * window_width**2))
    spectra = np.fft.fftn(field.data[j] * window, axes=(1, 2, 3))
    spectra = np.fft.fftshift(spectra, axes=(1, 2, 3))
    return WindowedSpectrum(
        amplitudes=spectra,
        k_axes=tuple(grid.k_axis(i) for i in range(3)),
        center=center,
    )


@dataclass(frozen=True)
class PolarizationEstimate:
    """One detected oscillation: position, direction, fiber vector, strength."""

    x: np.ndarray  # (4,) space-time point of the window
    k_hat: np.ndarray  # (3,) unit spatial direction
    freq: float  # spatial angular frequency |k| at the peak
    omega_hat: np.ndarray  # (4,) complex, Hermitian norm 1
    strength: float

    def __post_init__(self):
        object.__setattr__(self, "x", as_point4(self.x, "x"))
        object.__setattr__(self, "k_hat", np.asarray(self.k_hat, dtype=float))
        object.__setattr__(self, "omega_hat", np.asarray(self.omega_hat, dtype=complex))


def _peak_candidates(mag: np.ndarray, k_axes, threshold: float) -> np.ndarray:
    """Candidate peak bins of one window, strongest first (ties in argwhere order).

    A candidate is at least its 3x3x3 wrap-around box maximum (a separable
    running max, two rolls per axis), at least ``threshold`` times the
    window's own maximum, positive, and not the DC bin.
    """
    box = mag
    for axis in range(3):
        box = np.maximum(box, np.maximum(np.roll(box, 1, axis), np.roll(box, -1, axis)))
    mask = (mag >= box) & (mag >= threshold * float(mag.max())) & (mag > 0.0)
    mask[tuple(int(np.argmin(np.abs(k))) for k in k_axes)] = False
    indices = np.argwhere(mask)
    return indices[np.argsort(-mag[tuple(indices.T)], kind="stable")]


def _refine_axis(mag: np.ndarray, idx: tuple[int, int, int], axis: int) -> float:
    """Log-parabolic sub-bin peak offset along one axis, in bins."""
    n = mag.shape[axis]
    sel = list(idx)
    sel[axis] = (idx[axis] - 1) % n
    left = mag[tuple(sel)]
    sel[axis] = (idx[axis] + 1) % n
    right = mag[tuple(sel)]
    left, center, right = np.log(np.maximum([left, mag[idx], right], 1e-300))
    denom = left - 2.0 * center + right
    if denom >= 0 or not np.isfinite(denom):
        return 0.0
    delta = 0.5 * (left - right) / denom
    return float(np.clip(delta, -0.5, 0.5))


def _window_estimates(
    field: GridField, center, window_width: float, threshold: float
) -> tuple[float, list[PolarizationEstimate]]:
    """One window's maximum magnitude and an estimate per candidate peak."""
    spectrum = windowed_spectrum(field, center, window_width)
    mag = spectrum.magnitude()
    k_axes = spectrum.k_axes
    steps = [k[1] - k[0] for k in k_axes]
    out = []
    for pos in _peak_candidates(mag, k_axes, threshold):
        idx = tuple(int(v) for v in pos)
        kvec = np.array([k_axes[a][idx[a]] for a in range(3)])
        deltas = [_refine_axis(mag, idx, a) for a in range(3)]
        kvec = kvec + np.array([d * s for d, s in zip(deltas, steps)])
        freq = float(np.linalg.norm(kvec))
        if freq == 0.0:
            continue
        amps = spectrum.amplitudes[(slice(None), *idx)]
        norm = float(np.linalg.norm(amps))
        out.append(
            PolarizationEstimate(
                x=spectrum.center,
                k_hat=kvec / freq,
                freq=freq,
                omega_hat=amps / norm,
                strength=float(mag[idx]),
            )
        )
    return float(mag.max()), out


def estimate_polarization_set(
    field: GridField, centers, window_width: float, threshold: float
) -> list[PolarizationEstimate]:
    """Detect oscillation directions and fiber polarization per window.

    A spectral bin yields an estimate when it dominates its 3x3x3
    neighborhood and its Hermitian magnitude reaches ``threshold`` times
    the global maximum over all requested windows; windows with no such
    peak contribute nothing.  The peak location gets a log-parabolic
    sub-bin correction per axis (exact for Gaussian spectra).

    Windows are analysed one at a time, keeping only their candidate
    peaks, so memory holds one spectrum whatever the window count.
    """
    if not (0.0 < threshold < 1.0):
        raise InvalidInput("threshold must lie strictly between 0 and 1")
    global_max = 0.0
    out: list[PolarizationEstimate] = []
    for center in centers:
        window_max, estimates = _window_estimates(field, center, window_width, threshold)
        global_max = max(global_max, window_max)
        out.extend(estimates)
    return [est for est in out if est.strength >= threshold * global_max]


def _component_peaks(
    field: GridField, center, window_width: float, threshold: float
) -> tuple[list[float], list[float]]:
    """Per component of one window: its maximum and its strongest candidate peak."""
    spectrum = windowed_spectrum(field, center, window_width)
    maxima, strongest = [], []
    for mu in range(4):
        mag = np.abs(spectrum.amplitudes[mu])
        candidates = _peak_candidates(mag, spectrum.k_axes, threshold)
        maxima.append(float(mag.max()))
        strongest.append(float(mag[tuple(candidates[0])]) if len(candidates) else -math.inf)
    return maxima, strongest


def scalar_component_flags(
    field: GridField, centers, window_width: float, threshold: float
) -> list[bool]:
    """Per-window oscillation flags from scalar detectors on each component.

    Runs the same peak rule on every component's own spectrum magnitude
    (normalized to that component's global maximum over all windows) and
    unions the verdicts.  This is the base-point consistency check for
    the estimator: windows flagged here must coincide with windows that
    produce nonzero-fiber estimates.
    """
    if not (0.0 < threshold < 1.0):
        raise InvalidInput("threshold must lie strictly between 0 and 1")
    peaks = [_component_peaks(field, c, window_width, threshold) for c in centers]
    gmax = [max((maxima[mu] for maxima, _ in peaks), default=0.0) for mu in range(4)]
    return [
        any(strongest[mu] >= threshold * gmax[mu] for mu in range(4))
        for _, strongest in peaks
    ]


@dataclass(frozen=True)
class LineTrack:
    """Energy-centroid trajectory with its least-squares line fit."""

    times: np.ndarray
    trajectory: np.ndarray  # (nt, 3)
    line_residual: float
    speed: float
    direction: np.ndarray  # (3,) unit fit direction


def straightness_track(field: GridField) -> LineTrack:
    """Track the energy-weighted centroid per slice and fit a line."""
    grid = field.grid
    if grid.time_slices < 3:
        raise InvalidInput("straightness tracking needs at least 3 time slices")
    coords = grid.coordinates()
    centroids = np.empty((grid.time_slices, 3))
    for j in range(grid.time_slices):
        weight = np.sum(np.abs(field.data[j]) ** 2, axis=0)
        total = float(weight.sum())
        if total <= ENERGY_FLOOR:
            raise DegenerateField(f"time slice {j} carries no energy")
        for i in range(3):
            centroids[j, i] = float(np.sum(weight * coords[i])) / total
    times = grid.times
    t_center = times - times.mean()
    c_center = centroids - centroids.mean(axis=0)
    denom = float(np.sum(t_center**2))
    velocity = (t_center @ c_center) / denom
    speed = float(np.linalg.norm(velocity))
    if speed == 0.0:
        raise DegenerateField("centroid does not move; no line direction")
    direction = velocity / speed
    perp = c_center - np.outer(c_center @ direction, direction)
    residual = float(np.max(np.linalg.norm(perp, axis=1)))
    return LineTrack(
        times=times,
        trajectory=centroids,
        line_residual=residual,
        speed=speed,
        direction=direction,
    )


@dataclass(frozen=True)
class CompareTolerances:
    max_distance: float = 1.0
    max_angle_deg: float = 3.0
    min_overlap: float = 0.99
    max_sideband_db: float = -20.0

    def __post_init__(self):
        for name in ("max_distance", "max_angle_deg"):
            if not getattr(self, name) > 0:
                raise InvalidInput(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.min_overlap <= 1.0:
            raise InvalidInput(f"min_overlap must lie in (0, 1], got {self.min_overlap}")


@dataclass(frozen=True)
class CompareEntry:
    x: np.ndarray
    distance: float
    angle_deg: float
    overlap: float
    timelike_db: float
    longitudinal_db: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "distance": self.distance,
            "angle_deg": self.angle_deg,
            "overlap": self.overlap,
            "timelike_db": self.timelike_db,
            "longitudinal_db": self.longitudinal_db,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CompareReport:
    entries: list
    tolerances: CompareTolerances
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", all(e.passed for e in self.entries))

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "count": len(self.entries),
            "tolerances": {
                "max_distance": self.tolerances.max_distance,
                "max_angle_deg": self.tolerances.max_angle_deg,
                "min_overlap": self.tolerances.min_overlap,
                "max_sideband_db": self.tolerances.max_sideband_db,
            },
            "entries": [e.to_dict() for e in self.entries],
        }


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each summed exactly as the 1-D ``u[i] @ v[i]``."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _point_to_polyline(point: np.ndarray, polyline: np.ndarray) -> tuple[float, int]:
    """Distance from a point to a piecewise-linear path, plus nearest vertex."""
    nearest_vertex = int(np.argmin(np.linalg.norm(polyline - point, axis=1)))
    best = float(np.linalg.norm(polyline[nearest_vertex] - point))
    a = polyline[:-1]
    ab = polyline[1:] - a
    denom = _row_dot(ab, ab)
    live = denom != 0.0
    a, ab = a[live], ab[live]
    t = np.clip(_row_dot(point - a, ab) / denom[live], 0.0, 1.0)
    gap = a + t[:, None] * ab - point
    return float(np.min(np.sqrt(_row_dot(gap, gap)), initial=best)), nearest_vertex


def _suppression_db(num: float, denom: float) -> float:
    if denom <= 0.0:
        return math.inf
    return 20.0 * math.log10(max(num / denom, 1e-300))


def compare(
    estimates, orbit: HamiltonOrbit, tolerances: CompareTolerances | None = None
) -> CompareReport:
    """Check detected oscillations against a transported orbit.

    Per estimate: space-time distance to the orbit path, angle between
    the detected direction and the orbit's spatial momentum, Hermitian
    overlap of the detected fiber vector with the transported one, and
    the dB level of the time-like and longitudinal components of the
    detected vector in the standard polarization basis at the orbit's k.
    An empty estimate list passes trivially.
    """
    tolerances = tolerances or CompareTolerances()
    if len(orbit) == 0:
        raise EmptyOrbit("comparison needs a nonempty orbit")
    path = orbit.ray.x
    entries = []
    for est in estimates:
        distance, nearest = _point_to_polyline(est.x, path)
        k_orbit = orbit.ray.k[nearest]
        cosang = float(np.clip(est.k_hat @ unit_momentum(k_orbit), -1.0, 1.0))
        angle_deg = math.degrees(math.acos(cosang))

        omega_ref = orbit.omega[nearest]
        ref_norm = float(np.linalg.norm(omega_ref))
        overlap = (
            abs(np.vdot(omega_ref / ref_norm, est.omega_hat)) if ref_norm > 0 else 0.0
        )

        basis = standard_basis(k_orbit)
        coeffs = np.linalg.solve(basis.eps.T, est.omega_hat)
        transverse = float(np.hypot(abs(coeffs[1]), abs(coeffs[2])))
        timelike_db = _suppression_db(abs(coeffs[0]), transverse)
        longitudinal_db = _suppression_db(abs(coeffs[3]), transverse)

        passed = bool(
            distance <= tolerances.max_distance
            and angle_deg <= tolerances.max_angle_deg
            and overlap >= tolerances.min_overlap
            and timelike_db <= tolerances.max_sideband_db
            and longitudinal_db <= tolerances.max_sideband_db
        )
        entries.append(
            CompareEntry(
                x=est.x,
                distance=distance,
                angle_deg=angle_deg,
                overlap=float(overlap),
                timelike_db=timelike_db,
                longitudinal_db=longitudinal_db,
                passed=passed,
            )
        )
    return CompareReport(entries=entries, tolerances=tolerances)
