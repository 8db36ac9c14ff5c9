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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .minkowski import PhaseSpacePoint
from .principal_type import PrincipalTypeDecomposition, kernel_basis, kernel_residual
from .rays import Ray, _where
from .symbols import GRAD, VALUE, _bracket, _matmul_compat, _subprincipal


class KernelEscape(NumericalFailure):
    """A transported fiber vector left the kernel beyond tolerance."""


@dataclass(frozen=True)
class HamiltonOrbit:
    """A ray lifted with one fiber vector per sample."""

    ray: Ray
    omega: np.ndarray  # (n, N) complex
    residuals: np.ndarray  # (n,) kernel-membership residual per sample
    reprojected: bool = False

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


def _connection_matrices(d: PrincipalTypeDecomposition, x, k) -> np.ndarray:
    """M = 1/2 {p~, p} + i p~ p^s at points of shape (..., 4)."""
    a, b = d.p_tilde.compiled(x, k), d.p.compiled(x, k)
    return 0.5 * _bracket(a[..., GRAD, :, :], b[..., GRAD, :, :]) + 1j * _matmul_compat(
        a[..., VALUE, :, :], _subprincipal(b)
    )


def _connection_vanishes(d: PrincipalTypeDecomposition) -> bool:
    """Whether every ingredient of M is the zero polynomial.

    {p~, p} also vanishes when p has no x-dependence and p~ no
    k-dependence (and vice versa); a constant p~ and a zero subprincipal
    symbol are enough for the constant-coefficient fast path that matters.
    """
    pt = d.p_tilde
    constant = not any(any(xe + ke) for part in (pt.principal, pt.lower) for xe, ke in part)
    return constant and d.p.is_zero("lower") and d.p.compiled.mixed_is_zero


def connection_matrix(d: PrincipalTypeDecomposition, pt: PhaseSpacePoint) -> np.ndarray:
    """The transport matrix M = 1/2 {p~, p} + i p~ p^s at one point.

    The along-ray derivative part of the full transport law is realized
    as d/dtau by :func:`transport`; this returns only the matrix factor.
    """
    return _connection_matrices(d, pt.x, pt.k)


def transport(
    d: PrincipalTypeDecomposition,
    ray: Ray,
    omega0,
    residual_tol: float = 1e-6,
    reproject: bool = False,
) -> HamiltonOrbit:
    """Transport a fiber vector along a ray: d omega/dtau = -M omega.

    Integration reuses the ray's tau grid with one RK4 step per interval.
    M is evaluated in one batched call at every sample and every interval
    midpoint, so neighbouring steps share M at their common sample, and
    each interval's RK4 step of the linear system is formed once, for all
    intervals together, as an N x N propagator.  The midpoint (x, k) is
    linearly interpolated, which limits the transport to second order in
    the step.  Optional reprojection onto the numerical kernel after each
    step is off by default and recorded on the orbit when enabled.

    Raises
    ------
    KernelEscape
        If the kernel residual |p omega| / |omega| exceeds
        ``residual_tol`` at any sample, including the start.
    """
    omega0 = np.asarray(omega0, dtype=complex)
    dim = d.p.dimension
    if omega0.shape != (dim,):
        raise InvalidInput(f"omega0 must have shape ({dim},)")
    n = len(ray)

    omega = np.empty((n, dim), dtype=complex)
    omega[0] = omega0
    if _connection_vanishes(d):
        omega[1:] = omega0
    else:
        x = np.concatenate([ray.x, 0.5 * (ray.x[:-1] + ray.x[1:])])
        k = np.concatenate([ray.k, 0.5 * (ray.k[:-1] + ray.k[1:])])
        # -M at the samples, then at the interval midpoints
        a = -_connection_matrices(d, x, k)
        h = np.diff(ray.tau)[:, None, None]
        eye = np.eye(dim)
        # each interval's RK4 step of d omega/dtau = a omega, as a matrix acting on w
        s1, mid = a[: n - 1], a[n:]
        s2 = mid @ (eye + 0.5 * h * s1)
        s3 = mid @ (eye + 0.5 * h * s2)
        s4 = a[1:n] @ (eye + h * s3)
        propagator = eye + (h / 6.0) * (s1 + 2 * s2 + 2 * s3 + s4)
        w = omega0
        for i in range(n - 1):
            w = propagator[i] @ w
            if reproject:
                basis = kernel_basis(d.p, ray.point(i + 1))
                if basis.vectors:
                    stack = np.array(basis.vectors)
                    w = stack.T @ (stack.conj() @ w)
            omega[i + 1] = w

    residuals = _orbit_residuals(d, ray, omega)
    worst = int(np.argmax(residuals))
    if residuals[worst] > residual_tol:
        raise KernelEscape(
            f"kernel residual {residuals[worst]:.3e} exceeds {residual_tol:.1e} "
            + _where("sample", worst, ray.tau[worst], np.concatenate([ray.x[worst], ray.k[worst]]))
        )
    return HamiltonOrbit(ray=ray, omega=omega, residuals=residuals, reprojected=reproject)


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


def fiber_scale(orbit: HamiltonOrbit, z: complex) -> HamiltonOrbit:
    """Scale every fiber sample by a complex number; orbits are closed under this."""
    omega = orbit.omega * complex(z)
    residuals = orbit.residuals if z != 0 else np.zeros_like(orbit.residuals)
    return HamiltonOrbit(
        ray=orbit.ray, omega=omega, residuals=residuals, reprojected=orbit.reprojected
    )


def project_wavefront(
    samples, zero_tol: float = 1e-12, x_tol: float = 1e-9, k_tol: float = 1e-9
):
    """Base points (x, k) of all samples with a nonzero fiber vector.

    Samples whose fiber norm is at or below ``zero_tol`` are dropped (the
    zero section carries no singularity); surviving base points are
    deduplicated within the stated tolerances, keeping first occurrences
    in input order.
    """
    samples = list(samples)
    kept: list[PhaseSpacePoint] = []
    kept_x = np.empty((len(samples), 4))
    kept_k = np.empty((len(samples), 4))
    for sample in samples:
        if float(np.linalg.norm(sample.omega)) <= zero_tol:
            continue
        pt = sample.pt
        n = len(kept)
        close = (np.max(np.abs(kept_x[:n] - pt.x), axis=1) <= x_tol) & (
            np.max(np.abs(kept_k[:n] - pt.k), axis=1) <= k_tol
        )
        if not close.any():
            kept_x[n], kept_k[n] = pt.x, pt.k
            kept.append(pt)
    return kept
