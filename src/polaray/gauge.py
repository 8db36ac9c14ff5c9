"""Polarization algebra for the free electromagnetic potential.

Everything here is per-Fourier-mode kinematics on the light cone:
orthonormal polarization bases adapted to the propagation direction,
the Lorenz constraint k^mu eps_mu = 0, residual gauge transforms
eps -> eps + i k chi, the radiation-gauge choice eps_0 = 0, field
strengths, and the extraction of the two-dimensional physical
transverse subspace as a constraint-plus-quotient construction.

Two different inner products appear and must not be conflated: the
*bilinear* Minkowski pairing (no conjugation) in which the basis is
orthonormal, and the Hermitian Euclidean product used for comparing
complex polarization vectors numerically.  Zero tests (k on the cone, k0 != 0)
use ``ZERO_TOL`` on k / max |k_mu|, so scaling k changes no verdict.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .minkowski import ZERO_TOL, as_point4, raise_index, scaled_covector, unit_momentum


class ZeroFrequency(InvalidInput):
    """The operation needs k0 != 0."""


@dataclass(frozen=True)
class PolarizationBasis:
    """Four polarization covectors eps[lam], lam = 0..3, at a null k.

    Index 0 is time-like, 3 longitudinal, 1 and 2 transverse.  The
    orthonormality eps(lam) . eps(lam') = eta_{lam lam'} under the
    bilinear pairing and the completeness sum are properties checked by
    the oracles in ``tests/oracles.py``, not enforced here, so degraded
    bases can be built in tests.
    """

    k: np.ndarray
    eps: np.ndarray  # (4, 4) complex, rows indexed by lam

    def __post_init__(self):
        object.__setattr__(self, "k", as_point4(self.k, "k"))
        eps = np.asarray(self.eps, dtype=complex)
        if eps.shape != (4, 4):
            raise InvalidInput("basis must be four 4-vectors")
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True)
class FourierMode:
    """A single mode: null covector k, polarization eps, amplitude a."""

    k: np.ndarray
    eps: np.ndarray
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "k", as_point4(self.k, "k"))
        eps = np.asarray(self.eps, dtype=complex)
        if eps.shape != (4,):
            raise InvalidInput("eps must have 4 components")
        if not np.all(np.isfinite(eps.view(float))):
            raise InvalidInput("eps has non-finite components")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not cmath.isfinite(self.amplitude):
            raise InvalidInput(f"amplitude must be finite, got {self.amplitude}")
        k = scaled_covector(self.k)
        kk, size = minkowski_pairing(k, k).real, float(k @ k)
        if not abs(kk) <= ZERO_TOL * size:
            raise InvalidInput(f"mode covector is off the cone: k.k / |k|^2 = {kk / size:.3e}")


@dataclass(frozen=True)
class GaugeFunction:
    """Fourier coefficient chi-hat of a residual gauge transform at one k."""

    chi_hat: complex

    def __post_init__(self):
        z = complex(self.chi_hat)
        if not cmath.isfinite(z):
            raise InvalidInput("chi_hat must be finite")
        object.__setattr__(self, "chi_hat", z)


@dataclass(frozen=True)
class FieldStrengthMode:
    """Antisymmetric field-strength coefficients of one mode."""

    F: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=complex)
        if F.shape != (4, 4):
            raise InvalidInput("field strength must be 4x4")
        if np.any(F + F.T != 0):
            raise InvalidInput("field strength must be exactly antisymmetric")
        object.__setattr__(self, "F", F)


def _check_frequency(k: np.ndarray, message: str) -> None:
    """Refuse k whose k0 is zero up to rounding next to its largest component."""
    if abs(scaled_covector(k)[0]) <= ZERO_TOL:
        raise ZeroFrequency(message)


def minkowski_pairing(a, b) -> complex:
    """Bilinear contraction eta^{mu nu} a_mu b_nu (no conjugation)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return complex(np.sum(raise_index(a) * b))


def rotation_to(direction: np.ndarray) -> np.ndarray:
    """Minimal rotation taking the z axis onto a unit 3-vector.

    Rodrigues form; the antipodal case maps through a half-turn about
    the x axis so the result is deterministic for every direction.
    """
    zhat = np.array([0.0, 0.0, 1.0])
    c = float(zhat @ direction)
    if c >= 1.0 - 1e-14:
        return np.eye(3)
    if c <= -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(zhat, direction)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def standard_basis(k) -> PolarizationBasis:
    """Polarization basis adapted to the propagation direction of k.

    Rotates the canonical basis by the minimal rotation taking the z
    axis onto the spatial momentum, so lam = 0 stays time-like, lam = 3
    is longitudinal, and lam = 1, 2 are transverse.  For momentum along
    +z this is exactly the canonical unit-vector basis.
    """
    k = as_point4(k, "k")
    rot = rotation_to(unit_momentum(k))
    eps = np.zeros((4, 4), dtype=complex)
    eps[0, 0] = 1.0
    for j in range(3):
        eps[j + 1, 1:4] = rot[:, j]
    return PolarizationBasis(k=k, eps=eps)


def lorenz_residual(mode: FourierMode) -> complex:
    """The Lorenz constraint value k^mu eps_mu of a mode."""
    return minkowski_pairing(mode.k, mode.eps)


def gauge_transform(mode: FourierMode, g: GaugeFunction) -> FourierMode:
    """Residual gauge transform eps -> eps + i k chi-hat; amplitude kept."""
    eps = mode.eps + 1j * g.chi_hat * mode.k
    return FourierMode(k=mode.k, eps=eps, amplitude=mode.amplitude)


def radiation_fix(mode: FourierMode) -> tuple[FourierMode, GaugeFunction]:
    """Choose chi-hat so the transformed mode has eps_0 = 0 exactly.

    Solves eps_0 + i k0 chi = 0.  The time component of the result is
    exactly zero by construction, so it is set rather than recomputed
    through rounding.  A gauge transform cannot change k^mu eps_mu on
    the cone, so inputs violating the Lorenz constraint keep their
    residual; callers can check :func:`lorenz_residual` on the output.
    """
    _check_frequency(mode.k, "radiation gauge needs k0 != 0")
    chi = 1j * mode.eps[0] / mode.k[0]
    fixed = gauge_transform(mode, GaugeFunction(chi))
    eps = fixed.eps.copy()
    eps[0] = 0.0
    return FourierMode(k=mode.k, eps=eps, amplitude=mode.amplitude), GaugeFunction(chi)


def physical_polarizations(k, style: str = "linear") -> tuple[np.ndarray, np.ndarray]:
    """The two transverse polarization vectors at a null covector.

    ``linear`` returns the lam = 1, 2 vectors of :func:`standard_basis`;
    ``circular`` the combinations (eps1 +/- i eps2)/sqrt(2).  Both
    satisfy k^mu eps_mu = 0 and eps_0 = 0.
    """
    basis = standard_basis(k)
    e1, e2 = basis.eps[1], basis.eps[2]
    if style == "linear":
        return e1, e2
    if style == "circular":
        inv = 1.0 / np.sqrt(2.0)
        return (e1 + 1j * e2) * inv, (e1 - 1j * e2) * inv
    raise InvalidInput(f"unknown polarization style {style!r}")


def physical_kernel(k) -> np.ndarray:
    """Basis of the physical transverse plane at a null covector.

    Construction: take the Lorenz solution space {eps : k^mu eps_mu = 0}
    (three-dimensional on the cone, containing k itself as the
    pure-gauge direction), quotient by span{k}, and represent each class
    by its eps_0 = 0 member.  Returns a (2, 4) array of Hermitian-
    orthonormal rows spanning the same plane as the linear transverse
    pair, up to unitary mixing.
    """
    k = as_point4(k, "k")
    unit_momentum(k)  # raises on zero spatial part
    _check_frequency(k, "physical kernel needs k0 != 0 on the cone")
    row = raise_index(k).astype(complex)  # functional eps -> k^mu eps_mu
    _, _, vh = np.linalg.svd(row[np.newaxis, :])
    lorenz_space = vh[1:].conj()  # (3, 4) orthonormal rows spanning ker of the functional

    # coordinates of the pure-gauge direction k inside that space
    coords = lorenz_space.conj() @ k.astype(complex)
    coords /= np.linalg.norm(coords)
    _, _, wh = np.linalg.svd(coords.conj()[np.newaxis, :])
    complement = wh[1:].conj() @ lorenz_space  # (2, 4), a complement of span{k}

    reps = complement - np.outer(complement[:, 0] / k[0], k.astype(complex))
    reps[:, 0] = 0.0  # exactly zero by construction
    qmat, _ = np.linalg.qr(reps.T)
    return np.ascontiguousarray(qmat[:, :2].T)


@dataclass(frozen=True)
class ModeClassification:
    """Unique split eps = transverse + alpha k + beta n of a mode.

    ``n`` is the parity partner (k0, -k1, -k2, -k3) of k, chosen because
    k . n = 2 k0^2 never vanishes on the cone, so the decomposition is
    well conditioned.  ``constraint_violation`` is beta, proportional to
    the Lorenz residual.
    """

    transverse: np.ndarray
    pure_gauge: complex
    constraint_violation: complex


def classify_mode(mode: FourierMode) -> ModeClassification:
    """Decompose a mode into transverse, pure-gauge, and violating parts."""
    k = mode.k
    t1, t2 = physical_polarizations(k, "linear")
    partner = np.array([k[0], -k[1], -k[2], -k[3]], dtype=complex)
    basis = np.column_stack([t1, t2, k.astype(complex), partner])
    coeffs = np.linalg.solve(basis, mode.eps)
    transverse = coeffs[0] * t1 + coeffs[1] * t2
    return ModeClassification(
        transverse=transverse,
        pure_gauge=complex(coeffs[2]),
        constraint_violation=complex(coeffs[3]),
    )


def field_strength_mode(mode: FourierMode) -> FieldStrengthMode:
    """Field-strength coefficients F_{mu nu} = i (k_mu eps_nu - k_nu eps_mu).

    Antisymmetry is exact by construction: the upper triangle is
    computed and mirrored with a sign.  Pure-gauge modes (eps
    proportional to k) give exactly zero, and the result is invariant
    under every residual gauge transform.
    """
    k = mode.k.astype(complex)
    eps = mode.eps
    F = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            val = 1j * (k[mu] * eps[nu] - k[nu] * eps[mu])
            F[mu, nu] = val
            F[nu, mu] = -val
    return FieldStrengthMode(F=F)
