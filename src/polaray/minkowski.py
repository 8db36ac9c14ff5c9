"""Minkowski metric with signature (+, -, -, -) and phase-space points.

Conventions used throughout the package:

* space-time points ``x = (t, x1, x2, x3)`` carry upper indices,
* wave covectors ``k = (k0, k1, k2, k3)`` are stored with *lower*
  indices; raising an index is always explicit through :class:`Metric`,
* natural units, ``c = 1``.

The spatial momentum (the direction a disturbance actually moves) is the
upper-index spatial part ``k^i = -k_i``; see :func:`spatial_momentum`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

SIGNATURE = (1.0, -1.0, -1.0, -1.0)


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


@dataclass(frozen=True)
class Metric:
    """Diagonal metric on R^{1,3}. Only the flat (+,-,-,-) case ships."""

    diagonal: tuple[float, float, float, float] = SIGNATURE

    @property
    def diag(self) -> np.ndarray:
        return np.asarray(self.diagonal)

    def raise_index(self, covector) -> np.ndarray:
        """eta^{mu nu} v_nu for a diagonal metric."""
        return self.diag * np.asarray(covector)

    def lower_index(self, vector) -> np.ndarray:
        """eta_{mu nu} v^nu; identical numbers for a +/-1 diagonal."""
        return self.diag * np.asarray(vector)

    def pairing(self, a, b) -> complex:
        """Bilinear contraction eta^{mu nu} a_mu b_nu of two covectors.

        No complex conjugation: this matches the orthonormality relation
        of the polarization basis, which is bilinear. Hermitian overlaps
        are a different tool and live with the estimator.
        """
        return complex(np.sum(self.diag * np.asarray(a) * np.asarray(b)))

    def quadratic(self, k) -> float:
        """The light-cone quadratic k0^2 - |k|^2 of a real covector."""
        k = np.asarray(k)
        return float(np.sum(self.diag * k * k))


MINKOWSKI = Metric()


def spatial_momentum(k) -> np.ndarray:
    """Upper-index spatial part k^i = -k_i of a stored covector."""
    return -np.asarray(k, dtype=float)[1:4]


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


def phase_point(x, k) -> PhaseSpacePoint:
    """Convenience constructor accepting any 4-sequences."""
    return PhaseSpacePoint(np.asarray(x, dtype=float), np.asarray(k, dtype=float))
