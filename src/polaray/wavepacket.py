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
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInput
from .gauge import FourierMode, ZeroFrequency, standard_basis
from .minkowski import _exponent, as_point4, spatial_momentum, unit_momentum
from .transport import HamiltonOrbit


class WindowOutOfBounds(InvalidInput):
    """The analysis window does not fit inside the sampled domain."""


class DegenerateField(InvalidInput):
    """A time slice carries no usable energy."""


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
        if not all(0 < v < math.inf for v in self.extents):
            raise InvalidInput(f"grid extents must be finite and positive, got {self.extents}")
        if any(n < 8 for n in self.samples):
            raise InvalidInput("grid needs at least 8 samples per axis")
        if not float(self.time_slices).is_integer():
            raise InvalidInput(f"time slice count must be an integer, got {self.time_slices}")
        object.__setattr__(self, "time_slices", int(self.time_slices))
        if self.time_slices < 1:
            raise InvalidInput("grid needs at least one time slice")
        if not 0 < self.time_step < math.inf:
            raise InvalidInput(f"time step must be finite and positive, got {self.time_step}")
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
        if self.grid != other.grid:
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
    scalar = np.empty(grid.samples, dtype=complex)
    for j, t in enumerate(grid.times):
        c = spec.center[1:4] + velocity * (t - spec.center[0])
        dist2 = sum((coords[i] - c[i]) ** 2 for i in range(3))
        # exp(i(kvec.x - w t) - dist2 / (2 sigma^2)) * prefactor, in place; numpy's
        # complex product is not bitwise commutative, so the order is kept
        np.multiply(1j, phase_s - omega * t, out=scalar)
        scalar -= np.multiply(dist2, inv_two_sigma2, out=dist2)
        np.exp(scalar, out=scalar)
        scalar *= prefactor
        for mu in range(4):
            np.multiply(mode.eps[mu], scalar, out=data[j, mu])
    meta = {
        "envelope_transport_error": 1.0 / (sigma * omega),
        "carrier_k": [float(v) for v in mode.k],
        "sigma": sigma,
    }
    return GridField(grid, data, meta)


@dataclass(frozen=True)
class WindowedSpectrum:
    """Windowed DFT of one time slice: 4 component spectra plus bin axes.

    Both are in FFT order, zero frequency first (:meth:`GridSpec.k_axis`
    gives the same bins in ascending order).
    """

    amplitudes: np.ndarray  # (4, n1, n2, n3), FFT order
    k_axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    center: np.ndarray

    def magnitude(self, out=None, scratch=None) -> np.ndarray:
        """Hermitian norm over the 4 components per bin.

        ``out`` receives it and ``scratch`` holds one component's energy;
        both have the shape of one component and are allocated when not
        given.
        """
        out = _component_energy(self.amplitudes, out, scratch)
        return np.sqrt(out, out=out)


def _component_energy(components, out=None, scratch=None) -> np.ndarray:
    """sum_mu |components[mu]|^2 per point, written into ``out``.

    The components are added in order, so the bits are those of
    ``np.sum(np.abs(components) ** 2, axis=0)``; ``scratch`` holds one
    component's term.  Both buffers have the shape of one component and
    are allocated when not given.
    """
    if out is None:
        out = np.empty(components.shape[1:])
    if scratch is None:
        scratch = np.empty_like(out)
    np.square(np.abs(components[0], out=out), out=out)
    for component in components[1:]:
        out += np.square(np.abs(component, out=scratch), out=scratch)
    return out


def windowed_spectrum(field: GridField, center, window_width: float, out=None) -> WindowedSpectrum:
    """Gaussian-windowed spatial DFT of the time slice nearest the center.

    The window must fit inside the grid: the spatial center plus/minus
    1.5 window widths must stay within the domain box on every axis.
    The transform runs in place in ``out``, a writeable complex
    ``(4, n1, n2, n3)`` array apart from the field, which then holds the
    returned amplitudes; without it a new array is allocated.
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
    shape = (4, *grid.samples)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == complex
        and out.flags.writeable
        and not np.may_share_memory(out, field.data)
    ):
        raise InvalidInput(
            f"spectrum buffer must be a writeable complex array of shape {shape} "
            "apart from the field"
        )
    j = int(np.argmin(np.abs(grid.times - center[0])))

    coords = grid.coordinates()
    window = sum((coords[i] - center[1 + i]) ** 2 for i in range(3))
    np.negative(window, out=window)
    np.exp(np.divide(window, 2.0 * window_width**2, out=window), out=window)
    np.multiply(field.data[j], window, out=out)
    np.fft.fftn(out, axes=(1, 2, 3), out=out)
    return WindowedSpectrum(
        amplitudes=out,
        k_axes=tuple(np.fft.ifftshift(grid.k_axis(i)) for i in range(3)),
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


def _peak_candidates(mag: np.ndarray, k_axes, threshold: float, scratch=None) -> np.ndarray:
    """Candidate peak bins of one window, strongest first, ties by ascending (k1, k2, k3).

    A candidate is at least its 3x3x3 wrap-around box maximum, at least
    ``threshold`` times the window's own maximum, positive, and not the DC
    bin.  The box maximum is separable: per axis, each bin takes the
    largest of itself and its two cyclic neighbours, written into
    ``scratch``, a pair of arrays shaped like ``mag`` (allocated when not
    given).  The rule wraps around and the tie order reads the k values,
    so bins in FFT order give the same candidates, in the same order, as
    the same bins in ascending order.
    """
    if scratch is None:
        scratch = np.empty((2, *mag.shape))
    box = mag
    for axis in range(3):
        box = _cyclic_max3(box, scratch[axis % 2], axis)
    mask = mag >= box
    mask &= mag >= threshold * float(mag.max())
    mask &= mag > 0.0
    mask[tuple(int(np.argmin(np.abs(k))) for k in k_axes)] = False
    indices = np.argwhere(mask)
    # np.lexsort sorts by its last key first
    keys = [k_axes[a][indices[:, a]] for a in (2, 1, 0)]
    return indices[np.lexsort([*keys, -mag[tuple(indices.T)]])]


def _cyclic_max3(src: np.ndarray, dst: np.ndarray, axis: int) -> np.ndarray:
    """Write into ``dst`` (contiguous, apart from ``src``) the largest of each
    entry of ``src`` and its two cyclic neighbours along one axis."""
    n = src.shape[axis]
    step = int(np.prod(src.shape[axis + 1 :], dtype=int))
    # neighbours along the axis are ``step`` apart in the flat array: take
    # them there in two contiguous passes, then redo the first and the last
    # bin of each line, whose neighbours wrap around within the line
    s, d = src.reshape(-1), dst.reshape(-1)
    np.maximum(s[step:], s[:-step], out=d[step:])
    np.maximum(d[step:-step], s[2 * step :], out=d[step:-step])
    s, d = src.reshape(-1, n, step), dst.reshape(-1, n, step)
    np.maximum(s[:, -1], s[:, 0], out=d[:, 0])
    np.maximum(d[:, 0], s[:, 1], out=d[:, 0])
    np.maximum(s[:, -2], s[:, -1], out=d[:, -1])
    np.maximum(d[:, -1], s[:, 0], out=d[:, -1])
    return dst


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


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise InvalidInput("threshold must lie strictly between 0 and 1")


class _Workspace:
    """The buffers of one estimate call, reused by every window: the complex
    spectrum, its magnitude and two real scratch arrays."""

    def __init__(self, samples: tuple[int, int, int]):
        self.spectrum = np.empty((4, *samples), dtype=complex)
        real = np.empty((3, *samples))
        self.mag, self.scratch = real[0], real[1:]


def _window_estimates(
    field: GridField, center, window_width: float, threshold: float, work: _Workspace
) -> tuple[float, list[PolarizationEstimate]]:
    """One window's maximum magnitude and an estimate per candidate peak."""
    spectrum = windowed_spectrum(field, center, window_width, out=work.spectrum)
    mag = spectrum.magnitude(out=work.mag, scratch=work.scratch[0])
    k_axes = spectrum.k_axes
    # the bin step of the ascending axis: its first difference is not the
    # FFT-order one (k[1] - 0) in the last bits
    steps = [k[1] - k[0] for k in map(field.grid.k_axis, range(3))]
    out = []
    for pos in _peak_candidates(mag, k_axes, threshold, work.scratch):
        idx = tuple(int(v) for v in pos)
        kvec = np.array([k_axes[a][idx[a]] for a in range(3)])
        deltas = [_refine_axis(mag, idx, a) for a in range(3)]
        kvec = kvec + np.array([d * s for d, s in zip(deltas, steps)])
        freq = float(np.linalg.norm(kvec))
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

    Windows are analysed one at a time in one workspace, kept for this
    call only, so memory holds one spectrum whatever the window count.
    """
    _check_threshold(threshold)
    work = _Workspace(field.grid.samples)
    global_max = 0.0
    out: list[PolarizationEstimate] = []
    for center in centers:
        window_max, estimates = _window_estimates(field, center, window_width, threshold, work)
        global_max = max(global_max, window_max)
        out.extend(estimates)
    return [est for est in out if est.strength >= threshold * global_max]


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
    weight, scratch = np.empty((2, *grid.samples))
    scaled = np.empty_like(field.data[0])
    for j in range(grid.time_slices):
        # the slice times the power of two that puts its largest real or imaginary part in
        # [1, 2), so no |component| or square overflows and not all of them underflow
        parts = field.data[j].view(float)
        np.ldexp(parts, _exponent([parts.max(), parts.min()]), out=scaled.view(float))
        _component_energy(scaled, weight, scratch)
        total = float(weight.sum())
        if total == 0.0:
            raise DegenerateField(f"time slice {j} carries no energy")
        for i in range(3):
            centroids[j, i] = float(np.multiply(weight, coords[i], out=scratch).sum()) / total
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
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidInput(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0.0 < self.min_overlap <= 1.0:
            raise InvalidInput(f"min_overlap must lie in (0, 1], got {self.min_overlap}")
        # inside the clamped levels' range, so a clamped level gets the unclamped verdict
        if not -6000.0 < self.max_sideband_db < 6000.0:
            raise InvalidInput(
                f"max_sideband_db must lie in (-6000, 6000), got {self.max_sideband_db}"
            )


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
        return {**asdict(self), "x": [float(v) for v in self.x]}


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
            "tolerances": asdict(self.tolerances),
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
    """20 log10(num / denom), the ratio clamped to [1e-300, 1e300] so the level is finite."""
    ratio = num / denom if denom > 0.0 else math.inf
    return 20.0 * math.log10(min(max(ratio, 1e-300), 1e300))


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
