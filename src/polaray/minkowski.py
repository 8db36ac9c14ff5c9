"""Minkowski metric with signature (+, -, -, -) and phase-space points.

Conventions used throughout the package:

* space-time points ``x = (t, x1, x2, x3)`` carry upper indices,
* wave covectors ``k = (k0, k1, k2, k3)`` are stored with *lower*
  indices; raising an index is always explicit through :func:`raise_index`,
* natural units, ``c = 1``.

The spatial momentum (the direction a disturbance actually moves) is the
upper-index spatial part ``k^i = -k_i``; see :func:`spatial_momentum`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

SIGNATURE = (1.0, -1.0, -1.0, -1.0)

# The zero rule: a value is zero up to rounding when |value| <= ZERO_TOL * the summed sizes
# of the terms it is made of, so scaling a symbol or a covector changes no verdict.
ZERO_TOL = 1e-10
# The drift rule: a value the exact flow keeps at zero (q along a ray, p omega along an
# orbit) has drifted when it exceeds DRIFT_TOL * the size of its terms at the start.
DRIFT_TOL = 1e-7


class InvalidPoint(InvalidInput, ValueError):
    """A space-time point or covector that is not four finite reals.

    It is also a ValueError, the type these checks raised before the
    package's own error classes covered them.
    """


def as_point4(x, name: str = "point") -> np.ndarray:
    """Validate and return a finite length-4 float array."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidPoint(f"{name} is not an array of reals: {exc}") from exc
    if arr.shape != (4,):
        raise InvalidPoint(f"{name} must have 4 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPoint(f"{name} has non-finite components: {arr}")
    return arr


def _exponent(v) -> int:
    """n with max |v_i| * 2**n in [1, 2); 1 for a zero v."""
    return 1 - int(np.frexp(np.max(np.abs(v)))[1])


def scaled_covector(k) -> np.ndarray:
    """k times the power of two that puts max |k_mu| in [1, 2) (zero stays zero).

    The scaling is exact in the normal range, so k and its power-of-two multiples scale to
    the same bits, and no square of it over- or underflows; max |k_mu| = 1 leaves k as is.
    """
    return np.ldexp(k, _exponent(k))


def _norm(v) -> float:
    """The Euclidean norm of v, taken on v scaled like :func:`scaled_covector`, so no
    square over- or underflows, and scaled back."""
    n = _exponent(v)
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, n)), -n))


def failure_site(x, k, label: str | None = None, i: int = 0, tau: float = 0.0) -> str:
    """``[at <label> <i>, tau = <tau>, ]x = (...), k = (...)``: where a failure happened."""
    x, k = (", ".join(f"{v:.9g}" for v in part) for part in (x, k))
    along = "" if label is None else f"at {label} {i}, tau = {tau:.9g}, "
    return f"{along}x = ({x}), k = ({k})"


def raise_index(covector) -> np.ndarray:
    """eta^{mu nu} v_nu: the upper-index components of a covector."""
    return np.asarray(SIGNATURE) * np.asarray(covector)


class ZeroSpatialPart(InvalidInput):
    """The operation needs a covector with a nonzero spatial part."""


def spatial_momentum(k) -> np.ndarray:
    """Upper-index spatial part k^i = -k_i of a stored covector."""
    return -np.asarray(k, dtype=float)[1:4]


def unit_momentum(k) -> np.ndarray:
    """The spatial momentum of a covector scaled to unit length (its norm is taken on
    ``scaled_covector`` of it, so no square over- or underflows)."""
    momentum = scaled_covector(spatial_momentum(k))
    norm = float(np.linalg.norm(momentum))
    if norm == 0.0:
        raise ZeroSpatialPart("covector has zero spatial part")
    return momentum / norm


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A point (x, k) of T*R^4 with the zero fiber excluded."""

    x: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_point4(self.x, "x"))
        object.__setattr__(self, "k", as_point4(self.k, "k"))
        if not np.any(self.k != 0.0):
            raise InvalidPoint("phase-space fiber point k must be nonzero")

    @classmethod
    def _checked(cls, x: np.ndarray, k: np.ndarray) -> "PhaseSpacePoint":
        """The point of x and k known to be finite float (4,) arrays, k nonzero: no checks."""
        pt = object.__new__(cls)
        pt.__dict__.update(x=x, k=k)
        return pt
