"""Build the independent reference for the curved-orbit ``orbit_err``.

Integrates the joint system

    dx/dtau = dq/dk,   dk/dtau = -dq/dx,   domega/dtau = -M(x, k) omega

from the canonical curved-orbit start with classic RK4 on all of
(x, k, omega) at once, so M is always evaluated on the integrated
(x, k) and never on interpolated midpoints.  The right-hand side uses
only the public ``polaray.hamilton_field`` and
``polaray.connection_matrix``.  The run repeats at doubling step counts,
records how the end-of-orbit fiber vector converges, and stores the
Richardson extrapolation of the two finest runs as the reference.

    PYTHONPATH=src python3 bench/reference.py

rewrites ``bench/data/orbit_reference.json``; it takes about half a minute.
The benchmark only reads that file, outside any timed region.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

import polaray

from workloads import (
    ORBIT_TAU,
    REFERENCE_PATH,
    canonical_orbit_start,
    graded_symbol,
)

STEPS = (200, 400, 800, 1600, 3200)
OMEGA0 = (0.6, 0.8j)


def joint_rk4(d, x0, k0, omega0, tau_span, steps: int) -> np.ndarray:
    """End state (x, k, omega) of classic RK4 on the joint system."""

    def f(x, k, w):
        pt = polaray.PhaseSpacePoint(x, k)
        dx, dk = polaray.hamilton_field(d.q, pt)
        return dx, dk, -(polaray.connection_matrix(d, pt) @ w)

    h = (tau_span[1] - tau_span[0]) / steps
    x, k, w = np.array(x0, float), np.array(k0, float), np.array(omega0, complex)
    for _ in range(steps):
        a = f(x, k, w)
        b = f(x + 0.5 * h * a[0], k + 0.5 * h * a[1], w + 0.5 * h * a[2])
        c = f(x + 0.5 * h * b[0], k + 0.5 * h * b[1], w + 0.5 * h * b[2])
        e = f(x + h * c[0], k + h * c[1], w + h * c[2])
        x = x + (h / 6.0) * (a[0] + 2 * b[0] + 2 * c[0] + e[0])
        k = k + (h / 6.0) * (a[1] + 2 * b[1] + 2 * c[1] + e[1])
        w = w + (h / 6.0) * (a[2] + 2 * b[2] + 2 * c[2] + e[2])
    return np.concatenate([x, k, w])


def build() -> dict:
    d = polaray.decompose_principal_type(graded_symbol())
    x0, k0 = canonical_orbit_start()
    ends = [joint_rk4(d, x0, k0, OMEGA0, ORBIT_TAU, n) for n in STEPS]
    # change of the end fiber vector when the step halves; a 4th-order
    # method shrinks it 16-fold per halving until rounding takes over
    gaps = [float(np.max(np.abs(b[8:] - a[8:]))) for a, b in zip(ends, ends[1:])]
    orders = [math.log2(g0 / g1) for g0, g1 in zip(gaps, gaps[1:])]
    best = ends[-1] + (ends[-1] - ends[-2]) / 15.0
    omega = best[8:]
    return {
        "about": "end of the canonical curved orbit; see bench/reference.py",
        "x0": x0.tolist(),
        "k0": k0.tolist(),
        "tau": list(ORBIT_TAU),
        "omega0_re": [z.real for z in map(complex, OMEGA0)],
        "omega0_im": [z.imag for z in map(complex, OMEGA0)],
        "steps": list(STEPS),
        "halving_gaps": gaps,
        "observed_orders": orders,
        "error_bound": gaps[-1] / 15.0,
        "x_end": best[:4].real.tolist(),
        "k_end": best[4:8].real.tolist(),
        "omega_end_re": omega.real.tolist(),
        "omega_end_im": omega.imag.tolist(),
    }


def main() -> int:
    ref = build()
    os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(ref, handle, indent=1)
        handle.write("\n")
    for n, gap in zip(STEPS[1:], ref["halving_gaps"]):
        print(f"steps {n:5d}: change {gap:.3e}")
    print("observed orders", " ".join(f"{p:.2f}" for p in ref["observed_orders"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
