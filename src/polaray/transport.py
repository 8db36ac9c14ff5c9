"""Transport of fiber polarization vectors along null rays.

The transport law pairs the along-ray derivative with the matrix

    M(x, k) = 1/2 {p~, p}(x, k) + i p~(x, k) p^s(x, k)

so that admissible fiber vectors satisfy ``d omega/dtau + M omega = 0``.
For the flat 4-potential wave symbol every ingredient of M vanishes
identically and transported vectors are constant bit-for-bit; the
generic path integrates the linear system with the same stepper and
parameter grid as the underlying ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .minkowski import DRIFT_TOL, PhaseSpacePoint, failure_site
from .principal_type import PrincipalTypeDecomposition, _fiber_norm, kernel_basis, kernel_residual
from .rays import Ray
from .symbols import connection_matrices

ZERO_FIBER = 1e-12
SAME_POINT = 1e-9


class KernelEscape(NumericalFailure):
    """A transported fiber vector left the kernel beyond tolerance."""


@dataclass(frozen=True)
class HamiltonOrbit:
    """A ray lifted with one fiber vector per sample."""

    ray: Ray
    omega: np.ndarray  # (n, N) complex
    residuals: np.ndarray  # (n,) kernel-membership residual per sample
    reprojected: bool = False  # whether each step was projected onto the kernel of p

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=complex))
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))
        if self.omega.shape[0] != len(self.ray):
            raise InvalidInput("orbit fiber samples must match ray samples")
        if self.residuals.shape != (len(self.ray),):
            raise InvalidInput("orbit residuals must match ray samples")

    def __len__(self) -> int:
        return len(self.ray)


@dataclass(frozen=True)
class PolarizationSample:
    """One (x, k; omega) sample."""

    pt: PhaseSpacePoint
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=complex))


def connection_matrix(d: PrincipalTypeDecomposition, pt: PhaseSpacePoint) -> np.ndarray:
    """The transport matrix M = 1/2 {p~, p} + i p~ p^s at one point.

    The along-ray derivative part of the full transport law is realized
    as d/dtau by :func:`transport`; this returns only the matrix factor.
    """
    return connection_matrices(d.p_tilde, d.p, pt.x, pt.k)


def transport(d: PrincipalTypeDecomposition, ray: Ray, omega0) -> HamiltonOrbit:
    """Transport a fiber vector along a ray: d omega/dtau = -M omega.

    Integration reuses the ray's tau grid with one RK4 step per interval.
    M is evaluated in one batched call at every sample and every interval
    midpoint, so neighbouring steps share M at their common sample, and
    each interval's RK4 step of the linear system is formed once, for all
    intervals together, as an N x N propagator.  The midpoint (x, k) is
    linearly interpolated, which limits the transport to second order in
    the step.  If p~ is not constant and the start kernel has dimension
    0 < m < N, each propagator is followed by the projector onto p's m
    smallest right-singular vectors at the step's end (``reprojected``).

    Raises
    ------
    InvalidInput
        If omega0 is not N finite components.
    KernelEscape
        If the kernel residual |p omega| / |omega| exceeds ``DRIFT_TOL`` times the
        largest entry of ``d.p.term_bound`` at the ray's start (for p = q I, the
        ray's drift bound) or is NaN at any sample, including the start.
    """
    omega0 = np.asarray(omega0, dtype=complex)
    dim = d.p.dimension
    if omega0.shape != (dim,):
        raise InvalidInput(f"omega0 must have shape ({dim},)")
    if not np.all(np.isfinite(omega0)):
        raise InvalidInput(f"omega0 has non-finite components: {omega0}")
    n = len(ray)
    # a constant p~ is invertible, so on the cone p's kernel is the whole fiber
    m = dim if d.p_tilde.compiled.constant else len(kernel_basis(d.p, ray.point(0))[0])

    omega = np.empty((n, dim), dtype=complex)
    omega[0] = omega0
    # M is the zero polynomial when p~ is constant and p^s is zero ({p~, p}
    # also vanishes in other cases; this is the constant-coefficient one)
    if d.p_tilde.compiled.constant and d.p.compiled.subprincipal_is_zero:
        omega[1:] = omega0
    else:
        x = np.concatenate([ray.x, 0.5 * (ray.x[:-1] + ray.x[1:])])
        k = np.concatenate([ray.k, 0.5 * (ray.k[:-1] + ray.k[1:])])
        # -M at the samples, then at the interval midpoints
        a = -connection_matrices(d.p_tilde, d.p, x, k)
        h = np.diff(ray.tau)[:, None, None]
        eye = np.eye(dim)
        # each interval's RK4 step of d omega/dtau = a omega, as a matrix acting on w
        s1, mid = a[: n - 1], a[n:]
        s2 = mid @ (eye + 0.5 * h * s1)
        s3 = mid @ (eye + 0.5 * h * s2)
        s4 = a[1:n] @ (eye + h * s3)
        propagator = eye + (h / 6.0) * (s1 + 2 * s2 + 2 * s3 + s4)
        if 0 < m < dim:
            v = np.linalg.svd(d.p.eval_raw(ray.x[1:], ray.k[1:]))[2][:, dim - m :]
            propagator = (v.conj().swapaxes(1, 2) @ v) @ propagator
        w = omega0
        for i in range(n - 1):
            w = propagator[i] @ w
            omega[i + 1] = w

    residuals = _orbit_residuals(d, ray, omega)
    worst = int(np.argmax(residuals))
    size = np.max(d.p.term_bound(ray.x[0], ray.k[0]))
    if not residuals[worst] <= DRIFT_TOL * size:
        raise KernelEscape(
            f"kernel residual {residuals[worst]:.3e} exceeds {DRIFT_TOL:.1e} times the start's "
            f"term size {size:.3e} "
            + failure_site(ray.x[worst], ray.k[worst], "sample", worst, ray.tau[worst])
        )
    return HamiltonOrbit(ray=ray, omega=omega, residuals=residuals, reprojected=0 < m < dim)


def _orbit_residuals(d: PrincipalTypeDecomposition, ray: Ray, omega: np.ndarray) -> np.ndarray:
    # for p = q * identity the residual is just |q| for any unit fiber,
    # which the ray already recorded
    if d.scalar_multiple:
        norms = np.linalg.norm(omega, axis=1)
        out = np.abs(ray.q).copy()
        out[norms == 0.0] = 0.0
        return out
    return np.array(
        [kernel_residual(d.p, ray.point(i), omega[i]) for i in range(len(ray))]
    )


@np.errstate(over="ignore")  # a sum of squares that overflows is taken again scaled
def project_wavefront(samples):
    """Base points (x, k) of all samples with a nonzero fiber vector.

    Samples whose fiber norm is at or below ``ZERO_FIBER`` = 1e-12 are
    dropped (the zero section carries no singularity); a NaN fiber raises
    :class:`InvalidInput` naming the sample.  A surviving base point is
    a duplicate when its x and its k each lie within ``SAME_POINT`` =
    1e-9 of a kept one in every component; first occurrences are kept,
    in input order.  Only points within
    2 * ``SAME_POINT`` of each other in the coordinate of widest spread
    are compared, found by one sort of that coordinate.
    """
    points = []
    for i, s in enumerate(samples):
        norm = _fiber_norm(s.omega)
        if math.isnan(norm):
            raise InvalidInput(f"polarization sample {i} has a NaN fiber vector")
        if norm > ZERO_FIBER:
            points.append(s.pt)
    if not points:
        return []
    z = np.array([np.concatenate([pt.x, pt.k]) for pt in points])
    col = z[:, int(np.argmax(np.ptp(z, axis=0)))]
    order = np.argsort(col, kind="stable")
    # each window holds every point whose difference rounds to at most SAME_POINT
    lo = np.searchsorted(col[order], col - 2 * SAME_POINT, "left")
    hi = np.searchsorted(col[order], col + 2 * SAME_POINT, "right")
    # a point alone in its window matches no other; the rest go in input order
    kept = hi - lo == 1
    for i in np.flatnonzero(~kept):
        near = order[lo[i] : hi[i]]
        near = near[kept[near]]
        kept[i] = not np.any(np.max(np.abs(z[near] - z[i]), axis=1) <= SAME_POINT)
    return [pt for pt, keep in zip(points, kept) if keep]
