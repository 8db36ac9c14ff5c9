"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload builds its fixed inputs once (the set-up that ``setup_s``
times) and then runs one operation per call of :meth:`op`.  An operation
drives the library only through public functions reached through a
:class:`Library` object, so the tracer can wrap exactly the calls the
benchmark makes.  Every operation checks its own outputs and raises
:class:`CheckFailed` when one is wrong; it returns a digest of its
outputs, recorded for information only (a change that improves accuracy
changes outputs on purpose).

Why each workload exists and which metric each layer should move is in
``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import polaray
from polaray import cli, serialization

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "data", "orbit_reference.json")

_Z = (0, 0, 0, 0)
_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# graded index n(x) = 1 + GRADE * x3^2 in the principal part
GRADE = 0.1
# lower-order part LOWER_X * x3 k0 sigma_x + LOWER_Y * k3 sigma_y
LOWER_X = 0.05
LOWER_Y = 0.03

# canonical curved-orbit start before the seeded rotation about the x3 axis
ORBIT_X0 = (0.0, 0.4, 0.0, 0.5)
ORBIT_K_SPATIAL = (1.2, 0.0, 0.6)
ORBIT_TAU = (0.0, 4.0)

SIZES = {
    "full": {
        "orbit_steps": 200,
        "bundle_rays": 16,
        "bundle_steps": 10,
        "packet_samples": 40,
        "packet_sigma": 1.8,
        "packet_windows": 8,
        # p90 needs at least ten samples beyond it
        "min_ops": 100,
    },
    # the smoke test's sizes: same code paths, a fraction of the work
    "tiny": {
        "orbit_steps": 40,
        "bundle_rays": 3,
        "bundle_steps": 4,
        "packet_samples": 32,
        "packet_sigma": 2.0,
        "packet_windows": 2,
        "min_ops": 5,
    },
}


class CheckFailed(Exception):
    """An operation produced a wrong output."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Library:
    """The library entry points the workloads call.

    Tracing replaces attributes of one instance with wrappers, so it
    never touches a module other callers share.
    """

    def __init__(self):
        self.decompose_principal_type = polaray.decompose_principal_type
        self.trace_ray = polaray.trace_ray
        self.transport = polaray.transport
        self.project_wavefront = polaray.project_wavefront
        self.physical_polarizations = polaray.physical_polarizations
        self.synthesize = polaray.synthesize
        self.estimate_polarization_set = polaray.estimate_polarization_set
        self.straightness_track = polaray.straightness_track
        self.compare = polaray.compare
        self.write_orbit_csv = serialization.write_orbit_csv
        self.read_orbit_csv = serialization.read_orbit_csv
        self.write_gridfield = serialization.write_gridfield
        self.read_gridfield = serialization.read_gridfield
        self.write_estimates_json = serialization.write_estimates_json
        self.roundtrip = serialization.roundtrip
        self.cli_run = cli.run


def graded_symbol(scale=None) -> polaray.MatrixSymbol:
    """2x2 graded-index symbol with a non-commuting, x-dependent lower part.

    Principal part ``(k0^2 - (1 + GRADE x3^2)|k|^2) * scale`` (``scale``
    defaults to the identity), so rays curve in x3; lower-order part
    ``LOWER_X x3 k0 sigma_x + LOWER_Y k3 sigma_y``, so the transport
    matrix is nonzero and not a multiple of the identity.  Everything
    depends on x only through x3, which makes rotations about the x3
    axis an exact symmetry.
    """
    scale = np.eye(2) if scale is None else np.asarray(scale, dtype=complex)
    principal = [(_Z, (2, 0, 0, 0), scale)]
    for i in (1, 2, 3):
        k_exp = [0, 0, 0, 0]
        k_exp[i] = 2
        principal.append((_Z, tuple(k_exp), -scale))
        principal.append(((0, 0, 0, 2), tuple(k_exp), -GRADE * scale))
    lower = [
        ((0, 0, 0, 1), (1, 0, 0, 0), LOWER_X * _SIGMA_X),
        (_Z, (0, 0, 0, 1), LOWER_Y * _SIGMA_Y),
    ]
    return polaray.MatrixSymbol(2, 2, principal, lower, name="graded-2x2")


def null_covector(x, k_spatial) -> np.ndarray:
    """Covector (k0, k_spatial) with k0 > 0 on the cone of the graded symbol."""
    k_spatial = np.asarray(k_spatial, dtype=float)
    index = 1.0 + GRADE * float(x[3]) ** 2
    return np.array([math.sqrt(index * float(k_spatial @ k_spatial)), *k_spatial])


def rotate_x3(v, theta: float) -> np.ndarray:
    """Rotate the (1, 2) components of a 4-vector by theta."""
    c, s = math.cos(theta), math.sin(theta)
    out = np.array(v, dtype=float)
    out[1], out[2] = c * v[1] - s * v[2], s * v[1] + c * v[2]
    return out


def canonical_orbit_start() -> tuple[np.ndarray, np.ndarray]:
    x0 = np.array(ORBIT_X0)
    return x0, null_covector(x0, ORBIT_K_SPATIAL)


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r") as handle:
        return json.load(handle)


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one workload's inputs; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()[:16]


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class CurvedOrbit:
    """One seeded null start on the graded symbol: RK4 trace, transport,
    adaptive trace, orbit CSV write and read.

    The seed rotates the canonical start about the x3 axis and sets the
    phase of the start fiber vector.  Both are exact symmetries of the
    transport problem, so the stored reference applies to every seed and
    ``orbit_err`` does not depend on the seed.
    """

    name = "curved-orbit"

    def __init__(self, seed: int, lib: Library, workdir: str, size: str = "full"):
        rng = _rng(seed, 1)
        self.lib = lib
        self.steps = SIZES[size]["orbit_steps"]
        self.theta = float(rng.uniform(0.0, 2.0 * math.pi))
        phase = np.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
        x0, k0 = canonical_orbit_start()
        self.x0 = rotate_x3(x0, self.theta)
        self.k0 = rotate_x3(k0, self.theta)
        ref = load_reference()
        self.omega0 = phase * (np.array(ref["omega0_re"]) + 1j * np.array(ref["omega0_im"]))
        self.omega_ref = phase * (
            np.array(ref["omega_end_re"]) + 1j * np.array(ref["omega_end_im"])
        )
        self.decomposition = polaray.decompose_principal_type(graded_symbol())
        self.path = os.path.join(workdir, "curved-orbit.csv")
        self.orbit_err = math.nan

    def inputs(self) -> dict:
        return {"x0": self.x0, "k0": self.k0, "omega0": self.omega0}

    def op(self) -> str:
        lib, d = self.lib, self.decomposition
        step = (ORBIT_TAU[1] - ORBIT_TAU[0]) / self.steps
        ray = lib.trace_ray(d.q, self.x0, self.k0, ORBIT_TAU, step)
        orbit = lib.transport(d, ray, self.omega0)
        adaptive = lib.trace_ray(d.q, self.x0, self.k0, ORBIT_TAU, step, method="adaptive")
        lib.write_orbit_csv(self.path, orbit)
        back = lib.read_orbit_csv(self.path)
        _check(lib.roundtrip(self.path), "orbit csv does not round-trip")
        _check(
            np.array_equal(back.omega, orbit.omega) and np.array_equal(back.ray.x, ray.x),
            "orbit csv reads back different samples",
        )
        end_gap = float(np.max(np.abs(adaptive.x[-1] - ray.x[-1])))
        _check(end_gap <= 1e-4, f"adaptive and rk4 rays end {end_gap:.3e} apart")
        self.orbit_err = _relative_error(orbit.omega[-1], self.omega_ref)
        _check(self.orbit_err <= 1e-2, f"fiber vector {self.orbit_err:.3e} off the reference")
        return _digest(_read_bytes(self.path), adaptive.x)


def _relative_error(omega, reference) -> float:
    """Largest component error of a fiber vector relative to the reference norm."""
    return float(np.max(np.abs(omega - reference)) / np.linalg.norm(reference))


class RayBundle:
    """Decompose a non-scalar symbol with a hint, then trace and transport
    a seeded bundle of short rays and project its wavefront.
    """

    name = "ray-bundle"

    def __init__(self, seed: int, lib: Library, workdir: str, size: str = "full"):
        rng = _rng(seed, 2)
        self.lib = lib
        sizes = SIZES[size]
        self.steps = sizes["bundle_steps"]
        self.symbol = graded_symbol(np.diag([1.0, 2.0]))
        self.hint = polaray.MatrixSymbol(2, 0, [(_Z, _Z, np.diag([2.0, 1.0]))], name="hint")
        self.starts = []
        for _ in range(sizes["bundle_rays"]):
            x = np.array([0.0, *rng.uniform(-1.0, 1.0, 3)])
            direction = rng.normal(size=3)
            k_spatial = direction * rng.uniform(0.8, 1.6) / np.linalg.norm(direction)
            omega = rng.normal(size=2) + 1j * rng.normal(size=2)
            self.starts.append((x, null_covector(x, k_spatial), omega / np.linalg.norm(omega)))

    def inputs(self) -> dict:
        return {f"start{i}": np.concatenate(s) for i, s in enumerate(self.starts)}

    def op(self) -> str:
        lib = self.lib
        d = lib.decompose_principal_type(self.symbol, hint=self.hint)
        _check(not d.scalar_multiple, "bundle symbol decomposed as a scalar multiple")
        span = (0.0, 0.02 * self.steps)
        samples = []
        for x0, k0, omega0 in self.starts:
            ray = lib.trace_ray(d.q, x0, k0, span, 0.02)
            orbit = lib.transport(d, ray, omega0)
            samples.extend(
                polaray.PolarizationSample(ray.point(i), orbit.omega[i]) for i in range(len(ray))
            )
        kept = lib.project_wavefront(samples)
        _check(len(kept) == _distinct_base_points(samples), "wrong kept wavefront count")
        return _digest(*(np.concatenate([pt.x, pt.k]) for pt in kept))


def _distinct_base_points(samples, x_tol: float = 1e-9, k_tol: float = 1e-9) -> int:
    """Independent count of the samples project_wavefront must keep.

    Same rule as the library's: a nonzero-fiber sample is kept unless an
    earlier kept sample matches its base point within the tolerances.
    Here the matches come from one vectorized pairwise comparison.
    """
    live = [s for s in samples if float(np.linalg.norm(s.omega)) > 1e-12]
    xs = np.array([s.pt.x for s in live]).reshape(-1, 4)
    ks = np.array([s.pt.k for s in live]).reshape(-1, 4)
    close = (np.max(np.abs(xs[:, None] - xs[None]), axis=2) <= x_tol) & (
        np.max(np.abs(ks[:, None] - ks[None]), axis=2) <= k_tol
    )
    kept = np.zeros(len(live), dtype=bool)
    for i in range(len(live)):
        kept[i] = not np.any(close[i, :i] & kept[:i])
    return int(kept.sum())


class PacketEstimate:
    """Synthesize a seeded off-lattice packet, round-trip it through the
    grid-field format, estimate its polarization in windows along its
    path and check the estimates against a transported flat-Maxwell
    orbit, in-process and through the CLI.
    """

    name = "packet-estimate"
    extent = 16.0
    time_slices = 3
    window = 2.0
    threshold = 0.2

    def __init__(self, seed: int, lib: Library, workdir: str, size: str = "full"):
        rng = _rng(seed, 3)
        self.lib = lib
        sizes = SIZES[size]
        n = sizes["packet_samples"]
        self.sigma = sizes["packet_sigma"]
        spacing = self.extent / n
        self.grid = polaray.GridSpec(
            (self.extent,) * 3, (n, n, n), time_slices=self.time_slices, time_step=spacing
        )
        direction = rng.normal(size=3)
        self.direction = direction / np.linalg.norm(direction)
        freq = float(rng.uniform(2.0, 3.0))
        self.k = np.array([freq, *(-freq * self.direction)])
        self.mix = (float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi)))
        self.center = np.array([0.0, *(-0.4 * self.direction)])
        duration = float(self.grid.times[-1])
        self.windows = [
            np.array([t, *(self.center[1:] + self.direction * t)])
            for t in np.linspace(0.0, duration, sizes["packet_windows"])
        ]
        self.tau_end = duration / (2.0 * freq)
        self.maxwell = polaray.decompose_principal_type(polaray.flat_maxwell())
        self.paths = {
            key: os.path.join(workdir, name)
            for key, name in (
                ("field", "packet.gf"),
                ("estimates", "estimates.json"),
                ("orbit", "packet-orbit.csv"),
                ("report", "compare.json"),
            )
        }
        self.last_field = None

    def inputs(self) -> dict:
        return {"k": self.k, "mix": np.array(self.mix), "center": self.center}

    def op(self) -> str:
        lib, paths = self.lib, self.paths
        e1, e2 = lib.physical_polarizations(self.k)
        alpha, beta = self.mix
        eps = math.cos(alpha) * e1 + math.sin(alpha) * np.exp(1j * beta) * e2
        # Known library defect: read_orbit_csv drops the sign of a -0.0
        # imaginary part, so an orbit whose exact-zero eps_0 came out as
        # -0.0 fails its round-trip check on every op.  Adding +0j turns
        # -0.0 into +0.0 and changes no other value.  Remove this line
        # once the xfail test in test_smoke.py starts passing.
        eps = eps + 0j
        spec = polaray.WavePacketSpec(polaray.FourierMode(self.k, eps), self.center, self.sigma)
        lib.write_gridfield(paths["field"], lib.synthesize(spec, self.grid))
        field = lib.read_gridfield(paths["field"])
        self.last_field = field
        estimates = lib.estimate_polarization_set(
            field, self.windows, self.window, self.threshold
        )
        seen = {tuple(est.x) for est in estimates}
        _check(
            seen == {tuple(w) for w in self.windows},
            f"estimates cover {len(seen)} of {len(self.windows)} windows",
        )
        worst = max(_angle_deg(est.k_hat, self.direction) for est in estimates)
        _check(worst <= 0.5, f"estimate {worst:.3f} deg off the carrier")
        track = lib.straightness_track(field)
        _check(abs(track.speed - 1.0) <= 0.05, f"packet speed {track.speed:.4f}, expected 1")
        ray = lib.trace_ray(
            self.maxwell.q, [0.0, *self.center[1:]], self.k, (0.0, self.tau_end), self.tau_end / 200
        )
        orbit = lib.transport(self.maxwell, ray, eps)
        report = lib.compare(estimates, orbit, polaray.CompareTolerances(max_distance=1.0))
        _check(report.passed, "compare() failed")
        lib.write_estimates_json(paths["estimates"], estimates)
        lib.write_orbit_csv(paths["orbit"], orbit)
        code = lib.cli_run(
            [
                "compare",
                "--estimates", paths["estimates"],
                "--orbit", paths["orbit"],
                "--max-distance", "1.0",
                "-o", paths["report"],
            ]
        )
        _check(code == 0, f"polaray compare exited {code}")
        for key in ("field", "estimates", "orbit"):
            _check(lib.roundtrip(paths[key]), f"{key} file does not round-trip")
        return _digest(_read_bytes(paths["estimates"]), _read_bytes(paths["report"]))

    def estimate_once(self):
        """One estimate call on the last field, for the memory probe."""
        return polaray.estimate_polarization_set(
            self.last_field, self.windows, self.window, self.threshold
        )


def _angle_deg(a, b) -> float:
    cos = float(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))
    return math.degrees(math.acos(cos))


WORKLOADS = {cls.name: cls for cls in (CurvedOrbit, RayBundle, PacketEstimate)}

