"""One rule for "zero up to rounding": |value| <= tol * the size of the terms.

Covectors put on the cone by ``null_project`` are on it only up to
rounding, over ten decades of |k|.  Every decision that asks "is q zero
here?" must accept all of them, and must still refuse covectors that are
off the cone.
"""

import functools

import numpy as np
import pytest

from polaray.errors import InvalidInput
from polaray.gauge import FourierMode
from polaray.minkowski import PhaseSpacePoint
from polaray.principal_type import char_membership, decompose_principal_type, kernel_basis
from polaray.rays import NonNullStart, null_project, trace_ray
from polaray.symbols import flat_maxwell, parse_x_polynomial, scaled_wave

EPS = [0, 0, 0, 1]


def covectors(rng, n):
    """n directions of random size, |k| log-uniform on 1e-5..1e5."""
    k = rng.normal(size=(n, 4))
    return k / np.linalg.norm(k, axis=1)[:, None] * 10.0 ** rng.uniform(-5, 5, (n, 1))


@functools.cache
def cone_points(n=10_000, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, 4))
    branches = rng.choice(["+", "-"], n)
    return [(xi, null_project(ki, b)) for xi, ki, b in zip(x, covectors(rng, n), branches)]


@functools.cache
def off_cone_points(n=2_000, seed=12):
    rng = np.random.default_rng(seed)
    return list(zip(rng.uniform(-1, 1, (n, 4)), covectors(rng, n)))


SYMBOLS = {
    "flat-maxwell": flat_maxwell(),
    "1+x3^2-scaled-wave": scaled_wave(parse_x_polynomial("1+x3^2")),
}


def verdicts(p, points):
    """Per point: on the characteristic set, kernel = whole fiber, ray start accepted."""
    d = decompose_principal_type(p)
    out = []
    for x, k in points:
        pt = PhaseSpacePoint(x, k)
        try:
            trace_ray(d.q, x, k, (0.0, 0.0), 1.0)
            started = True
        except NonNullStart:
            started = False
        whole = len(kernel_basis(p, pt)[0]) == p.dimension
        out.append((char_membership(d, pt), whole, started))
    return np.array(out)


def mode_accepted(k) -> bool:
    try:
        FourierMode(k, EPS)
    except InvalidInput:
        return False
    return True


@pytest.mark.parametrize("name", SYMBOLS)
def test_cone_up_to_rounding_is_on_the_cone_everywhere(name):
    assert verdicts(SYMBOLS[name], cone_points()).all(axis=0).tolist() == [True] * 3


@pytest.mark.parametrize("name", SYMBOLS)
def test_off_the_cone_stays_off(name):
    assert not verdicts(SYMBOLS[name], off_cone_points()).any()


def test_fourier_mode_uses_the_same_rule():
    assert all(mode_accepted(k) for _, k in cone_points())
    assert not any(mode_accepted(k) for _, k in off_cone_points())
