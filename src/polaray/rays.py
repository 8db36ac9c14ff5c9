"""Null bicharacteristics: integrate the Hamilton flow of a scalar symbol.

The flow is ``dx^mu/dtau = dq/dk_mu``, ``dk_nu/dtau = -dq/dx^nu`` with
tau the affine parameter of those equations (not arc length, not
coordinate time).  For x-independent symbols the momentum side is the
zero polynomial, so k is held exactly constant and the fixed-step RK4
update collapses to the exact linear flow; this is what makes the
bit-exactness guarantees downstream possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .minkowski import (
    DRIFT_TOL, ZERO_TOL, PhaseSpacePoint, ZeroSpatialPart, _norm, as_point4, failure_site,
    scaled_covector,
)
from .principal_type import _pointwise
from .symbols import HamiltonSystem, MatrixSymbol


class NonNullStart(NumericalFailure):
    """Ray tracing started off the characteristic set."""


class StationaryStart(InvalidInput):
    """dq/dk vanishes at the start: q is not of real principal type there."""


class StepFailure(NumericalFailure):
    """The integrator could not take a step: the adaptive step underflowed,
    the step budget ran out, or the ray position overflowed."""


class ConstraintDrift(NumericalFailure):
    """|q| exceeded the drift bound along the ray; integration aborted."""


@dataclass(frozen=True)
class Ray:
    """Sampled trajectory (tau, x, k) with q recorded along it."""

    tau: np.ndarray  # (n,)
    x: np.ndarray  # (n, 4)
    k: np.ndarray  # (n, 4)
    q: np.ndarray  # (n,)
    method: str = "rk4"
    step: float = math.nan

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        n = self.tau.shape[0]
        if self.x.shape != (n, 4) or self.k.shape != (n, 4) or self.q.shape != (n,):
            raise InvalidInput("inconsistent ray sample shapes")
        if n == 0:
            raise InvalidInput("a ray needs at least one sample")
        if n > 1 and not np.all(np.diff(self.tau) > 0):
            raise InvalidInput("ray parameter must be strictly increasing")
        if np.any(np.all(self.k == 0.0, axis=1)):
            raise InvalidInput("ray contains a zero covector sample")
        for arr in (self.tau, self.x, self.k, self.q):
            if not np.all(np.isfinite(arr)):
                raise InvalidInput("ray contains non-finite samples")

    def __len__(self) -> int:
        return self.tau.shape[0]

    def point(self, i: int) -> PhaseSpacePoint:
        """Sample i as a point; its rows were checked when the ray was built."""
        return PhaseSpacePoint._checked(self.x[i], self.k[i])


def null_project(k, branch: str = "+") -> np.ndarray:
    """Replace k0 by +/-|spatial k| so the covector lands on the cone."""
    k = as_point4(k, "k")
    norm = _norm(k[1:4])
    if norm == 0.0:
        raise ZeroSpatialPart("cannot null-project a covector with zero spatial part")
    if branch not in ("+", "-"):
        raise InvalidInput(f"branch must be '+' or '-', got {branch!r}")
    out = k.copy()
    out[0] = norm if branch == "+" else -norm
    return out


# the most steps one trace may take: rk4 steps, or adaptive attempts
# (accepted or rejected) before the adaptive trace gives up
_MAX_STEPS = 10_000_000
_RTOL, _ATOL = 1e-10, 1e-12  # the adaptive pair's relative and absolute error weights


def _check_drift(q: float, size: float, i: int, tau: float, y: np.ndarray) -> None:
    """Abort the trace when |q| after step i exceeds DRIFT_TOL * size or is NaN."""
    if not abs(q) <= DRIFT_TOL * size:
        raise ConstraintDrift(
            f"|q| = {abs(q):.3e} exceeded drift bound {DRIFT_TOL:.1e} times the start's "
            f"term size {size:.3e} " + failure_site(y[:4], y[4:8], "step", i, tau)
        )


def _ray(tau, ys, qs, method: str, step: float) -> Ray:
    """A Ray from its parameters, its (n, 9) states and q at each."""
    ys = np.asarray(ys)
    return Ray(tau=tau, x=ys[:, :4], k=ys[:, 4:8], q=qs, method=method, step=step)


# overflow and NaN are reported by the |q| checks after every step
@np.errstate(over="ignore", invalid="ignore")
def trace_ray(
    q: MatrixSymbol, x0, k0, tau_span: tuple[float, float], step: float, method: str = "rk4"
) -> Ray:
    """Integrate the Hamilton flow of q from (x0, k0) over tau_span.

    ``step`` is the fixed step for rk4 (shrunk uniformly so the span is
    an integer number of steps, at most ``_MAX_STEPS``) and the initial
    step for the adaptive embedded pair.  At ``scaled_covector(k0)`` q must
    vanish and dq/dk must not, by the rule of ``is_real_principal_type`` at
    ``ZERO_TOL`` (callers project to the cone first); otherwise it raises
    :class:`NonNullStart` or :class:`StationaryStart`, and :class:`InvalidInput`
    where q or its term size there, or q or its flow at the raw k0, is not finite.
    A drift monitor raises :class:`ConstraintDrift` if |q| after a step exceeds
    ``DRIFT_TOL`` times the start's term size ``q.term_bound(x0, k0)`` or is NaN, since
    q is conserved by the exact flow and silent drift would poison downstream transport.
    """
    x0 = as_point4(x0, "x0")
    k0 = as_point4(k0, "k0")
    tau0, tau1 = float(tau_span[0]), float(tau_span[1])
    if not (math.isfinite(tau0) and math.isfinite(tau1)) or tau1 < tau0:
        raise InvalidInput(f"bad tau span {tau_span}")
    if not step > 0:
        raise InvalidInput(f"step must be positive, got {step}")
    if method not in ("rk4", "adaptive"):
        raise InvalidInput(f"unknown method {method!r}")
    span = tau1 - tau0
    count = span / step - 1e-9
    if method == "rk4" and not count <= _MAX_STEPS:
        raise InvalidInput(
            f"step {step} needs {count:.3g} rk4 steps, more than the budget of {_MAX_STEPS}"
        )

    # the start's verdicts at scaled_covector(k0); the first stage is at the raw k0
    k_scaled = scaled_covector(k0)
    q0, f, size, on_cone, stationary = _pointwise(q, x0, k_scaled)
    if not on_cone:
        raise NonNullStart(
            f"|q| = {abs(q0):.3e} exceeds start tolerance {ZERO_TOL:.1e} times the term size "
            f"{size:.3e} " + failure_site(x0, k0, "step", 0, tau0)
        )
    if stationary:
        raise StationaryStart(
            "dq/dk vanishes at the start, so the ray would not move "
            + failure_site(x0, k0, "step", 0, tau0)
        )

    system = q.hamilton
    y = np.concatenate([x0, k0, [1.0]])
    if not np.array_equal(k_scaled, k0):
        q0, f = system(y)
        size = q.term_bound(x0, k0)[0, 0]
        if not (np.isfinite(q0) and np.isfinite(f).all()):
            raise InvalidInput(f"q(x, k) or its flow is not finite at {failure_site(x0, k0)}")
    if span == 0.0:
        return _ray([tau0], [y], [q0], method, step)

    if method == "rk4":
        n = max(1, math.ceil(count))
        h = span / n
        tau = tau0 + np.arange(n + 1) * h
        if q.compiled.x_free:
            # dk/dtau is the zero polynomial: k is exactly constant and the
            # RK4 stages all equal the same velocity, so the update is the
            # exact linear flow.
            x = x0 + (tau - tau0)[:, np.newaxis] * f[:4]
            bad = ~np.isfinite(x).all(axis=1)
            if bad.any():
                i = int(np.argmax(bad))
                raise StepFailure(
                    "ray position overflowed " + failure_site(x[i], k0, "step", i, tau[i])
                )
            k = np.broadcast_to(k0, (n + 1, 4)).copy()
            qs = np.full(n + 1, q0)
            return Ray(tau=tau, x=x, k=k, q=qs, method="rk4", step=h)
        ys = np.empty((n + 1, 9))
        qs = np.empty(n + 1)
        ys[0], qs[0] = y, q0
        # stage j's (q, dy/dtau) in row j, formed in place in the order of the textbook formula
        stages = np.empty((4, 10))
        stages[0, 0], stages[0, 1:] = q0, f
        f1, f2, f3, f4 = stages[:, 1:]
        yi, acc = np.empty(9), np.empty(9)
        half, sixth = 0.5 * h, h / 6.0
        for i in range(n):
            system.into(np.add(y, np.multiply(half, f1, out=yi), out=yi), stages[1])
            system.into(np.add(y, np.multiply(half, f2, out=yi), out=yi), stages[2])
            system.into(np.add(y, np.multiply(h, f3, out=yi), out=yi), stages[3])
            np.add(f1, np.multiply(2, f2, out=acc), out=acc)
            np.add(np.add(acc, np.multiply(2, f3, out=yi), out=acc), f4, out=acc)
            y = np.add(y, np.multiply(sixth, acc, out=acc), out=ys[i + 1])
            # the next step's first stage also gives q for the drift check
            system.into(y, stages[0])
            qs[i + 1] = stages[0, 0]
            _check_drift(qs[i + 1], size, i + 1, tau[i + 1], y)
        return _ray(tau, ys, qs, "rk4", h)

    return _trace_adaptive(system, y, q0, f, size, tau0, tau1, step)


# Dormand-Prince 5(4) tableau, A zero-padded to 7 x 7: stage i is
# y + h * A[i, :i] @ K[:i].  The last row holds the 5th-order weights, so
# the last stage sits at the solution (first same as last).
_DP_A = np.zeros((7, 7))
_DP_A[np.tril_indices(7, -1)] = (  # row by row
    1 / 5,
    3 / 40, 9 / 40,
    44 / 45, -56 / 15, 32 / 9,
    19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729,
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
    35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
)  # fmt: skip
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_A[6] - _DP_B4


def _trace_adaptive(system: HamiltonSystem, y, q0, f, size, tau0, tau1, h0):
    taus = [tau0]
    ys = [y]
    qs = [q0]
    tau = tau0
    h = min(h0, tau1 - tau0)
    # relative to the span's end points, so a span scaled with 1/|k| keeps its step count
    h_min = 16 * np.finfo(float).eps * max(abs(tau0), abs(tau1))
    # stage i's (q, dy/dtau) in row i; a rejected attempt leaves row 0, the flow at y, as is
    out = np.empty((7, 10))
    out[0, 0], out[0, 1:] = q0, f
    stages, yi = out[:, 1:], np.empty(9)
    for _ in range(_MAX_STEPS):
        if tau >= tau1:
            break
        h = min(h, tau1 - tau)
        if h < h_min:
            raise StepFailure(
                f"adaptive step underflowed to {h:.3e} "
                + failure_site(y[:4], y[4:8], "step", len(taus) - 1, tau)
            )
        ha = h * _DP_A
        for i in range(1, 7):
            system.into(np.add(y, np.matmul(ha[i, :i], stages[:i], out=yi), out=yi), out[i])
        err_y = h * (_DP_E @ stages)
        err = np.max(np.abs(err_y) / (_ATOL + _RTOL * np.maximum(np.abs(y), np.abs(yi))))
        if err <= 1.0:
            tau += h
            y, out[0] = yi.copy(), out[6]
            qi = out[6, 0]
            _check_drift(qi, size, len(taus), tau, y)
            taus.append(tau)
            ys.append(y)
            qs.append(qi)
        # a NaN error estimate shrinks the step like any rejected one
        factor = 0.9 * err ** (-0.2) if err != 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    else:
        raise StepFailure(
            f"adaptive integrator exceeded the step budget of {_MAX_STEPS} attempts "
            + failure_site(y[:4], y[4:8], "step", len(taus) - 1, tau)
        )
    return _ray(taus, ys, qs, "adaptive", h0)

