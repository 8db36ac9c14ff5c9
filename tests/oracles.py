"""Reference oracles the tests compare the library against: independent or
brute-force recomputations of what the library derives another way."""

from __future__ import annotations

import math

import numpy as np

from polaray.gauge import PolarizationBasis, minkowski_pairing
from polaray.minkowski import SIGNATURE, as_point4, raise_index
from polaray.rays import HamiltonSystem, Ray
from polaray.symbols import (
    Expo,
    MatrixSymbol,
    _fmt_coeff,
    _fmt_term,
    scalar_coefficients,
    scalar_wave,
)
from polaray.wavepacket import GridField, _check_threshold, _peak_candidates, windowed_spectrum


def geodesic_residual(ray: Ray) -> float:
    """Max second-difference estimate |x'' | on a uniformly sampled ray."""
    assert len(ray) >= 3, "geodesic_residual needs at least 3 samples"
    dtau = np.diff(ray.tau)
    h = dtau[0]
    assert np.max(np.abs(dtau - h)) <= 1e-9 * abs(h), "geodesic_residual needs uniform spacing"
    second = ray.x[2:] - 2.0 * ray.x[1:-1] + ray.x[:-2]
    return float(np.max(np.abs(second)) / h**2)


def line_deviation(points: np.ndarray) -> float:
    """Max perpendicular deviation of points from their best-fit line."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        return 0.0
    centered = pts - pts.mean(axis=0)
    _, _, vh = np.linalg.svd(centered, full_matrices=False)
    direction = vh[0]
    perp = centered - np.outer(centered @ direction, direction)
    return float(np.max(np.linalg.norm(perp, axis=1)))


def null_curve_residual(q: MatrixSymbol, ray: Ray) -> float:
    """Max of |1/4 eta_{mu nu} xdot^mu xdot^nu| along the ray samples."""
    v = HamiltonSystem(q)(np.column_stack([ray.x, ray.k, np.ones(len(ray))]))[1][:, :4]
    return float(np.max(np.abs(0.25 * np.sum(np.asarray(SIGNATURE) * v * v, axis=1))))


def pairing_matrix(basis: PolarizationBasis) -> np.ndarray:
    """The 4x4 matrix eps(lam) . eps(lam') under the bilinear pairing."""
    out = np.empty((4, 4), dtype=complex)
    for lam in range(4):
        for lam2 in range(4):
            out[lam, lam2] = minkowski_pairing(basis.eps[lam], basis.eps[lam2])
    return out


def completeness_residual(basis: PolarizationBasis) -> float:
    """Max-norm deviation of the lambda-sum from the metric itself."""
    eta = np.diag(SIGNATURE).astype(complex)
    total = np.zeros((4, 4), dtype=complex)
    for lam in range(4):
        total += SIGNATURE[lam] * np.outer(basis.eps[lam], basis.eps[lam])
    return float(np.max(np.abs(total - eta)))


def transverse_oracle(k) -> np.ndarray:
    """Brute-force transverse plane: nullspace of stacked constraint rows.

    Stacks the Lorenz functional k^mu and the time-component functional
    e_0 into a 2x4 matrix and returns the orthonormal nullspace via a
    rank computation.  Exists as an independent cross-check for
    :func:`polaray.gauge.physical_kernel`; the two must agree as subspaces.
    """
    k = as_point4(k, "k")
    mat = np.array([raise_index(k), [1.0, 0, 0, 0]], dtype=complex)
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > 1e-12 * s[0]))
    return vh[rank:].conj()


def subspace_angle_max(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle (radians) between two row-spanned subspaces.

    Uses the sine formulation, which stays accurate for nearly equal
    subspaces where the cosine route loses half the digits.
    """
    qa, _ = np.linalg.qr(np.asarray(a, dtype=complex).T)
    qb, _ = np.linalg.qr(np.asarray(b, dtype=complex).T)
    perp = qb - qa @ (qa.conj().T @ qb)
    sines = np.linalg.svd(perp, compute_uv=False)
    return float(np.arcsin(min(1.0, max(0.0, sines[0] if len(sines) else 0.0))))


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
    _check_threshold(threshold)
    peaks = [_component_peaks(field, c, window_width, threshold) for c in centers]
    gmax = [max((maxima[mu] for maxima, _ in peaks), default=0.0) for mu in range(4)]
    return [
        any(strongest[mu] >= threshold * gmax[mu] for mu in range(4))
        for _, strongest in peaks
    ]


def same_terms(a: MatrixSymbol, b: MatrixSymbol) -> bool:
    """Exact coefficient-level equality of both parts."""
    if a.dimension != b.dimension or a.order != b.order:
        return False
    for mine, theirs in ((a.principal, b.principal), (a.lower, b.lower)):
        if mine.keys() != theirs.keys():
            return False
        if any(not np.array_equal(mine[key], theirs[key]) for key in mine):
            return False
    return True


def _factor_wave_quadratic(scalar: dict, wave: dict) -> dict | None:
    """Write scalar terms as f(x) * (k.k) if possible: {x_exp: coefficient}."""
    by_x: dict[Expo, dict] = {}
    for (xe, ke), c in scalar.items():
        by_x.setdefault(xe, {})[ke] = c
    out = {}
    for xe, k_terms in by_x.items():
        if k_terms.keys() != wave.keys():
            return None
        ratios = {k_terms[ke] / wave[ke] for ke in wave}
        if len(ratios) != 1:
            return None
        out[xe] = ratios.pop()
    return out


_WAVE = {ke: m[0, 0] for _, ke, m in scalar_wave().terms()}


def wave_factored_text(sym: MatrixSymbol) -> str | None:
    """The '(f)*k^2' text of a scalar-multiple symbol f(x) (k.k), with f found
    by dividing each k-term by the wave quadratic's; None if it does not factor."""
    f = _factor_wave_quadratic(scalar_coefficients(sym), _WAVE)
    if f is None:
        return None
    zero = (0, 0, 0, 0)
    if list(f) == [zero]:
        return "k^2" if f[zero] == 1 else f"{_fmt_coeff(f[zero])}*k^2"
    poly = " + ".join(
        _fmt_term(_fmt_coeff(c), xe, zero) for xe, c in sorted(f.items(), reverse=True)
    )
    return f"({poly})*k^2"
