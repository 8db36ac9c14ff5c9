"""One rule for "zero up to rounding": |value| <= tol * the size of the terms.

Covectors put on the cone by ``null_project`` are on it only up to
rounding, over ten decades of |k|.  Every decision that asks "is q zero
here?" must accept all of them, and must still refuse covectors that are
off the cone.  No decision changes when the symbol is multiplied by a
constant or the covector by a positive scale.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from polaray.errors import InvalidInput
from polaray.gauge import FourierMode, ZeroFrequency, physical_kernel, radiation_fix
from polaray.minkowski import PhaseSpacePoint
from polaray.principal_type import (
    char_membership,
    decompose_principal_type,
    is_real_principal_type,
    kernel_basis,
)
from polaray.rays import NonNullStart, null_project, trace_ray
from polaray.symbols import (
    ComplexSymbol,
    MatrixSymbol,
    flat_maxwell,
    parse_x_polynomial,
    scalar_wave,
    scaled_wave,
)

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


SCALED_WAVE = scaled_wave(parse_x_polynomial("1+x3^2"))
SYMBOLS = {"flat-maxwell": flat_maxwell(), "1+x3^2-scaled-wave": SCALED_WAVE}


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


# -- every verdict is the same for c * symbol and s * k ------------------------

SCALES = [1e-20, 1.0, 1e20]
X = np.array([0.3, -0.2, 0.5, 0.7])
Z = (0, 0, 0, 0)
NULL_K = np.array([1.0, 0.6, 0.0, -0.8])
OFF_K = np.array([1.0, 0.5, 0.0, 0.0])
DIAGONAL_K = np.array([1.0, 1.0, 0.0, 0.0])  # on the cone, and on k0 = k1
SLANTED_K = np.array([1e-16, 1.0, 0.0, 0.0])  # k0 is rounding next to k1
COVECTORS = [NULL_K, OFF_K, DIAGONAL_K]


def times(c: float, p: MatrixSymbol) -> MatrixSymbol:
    """c * p, term by term."""
    return MatrixSymbol(p.dimension, p.order, [(xe, ke, c * m) for xe, ke, m in p.terms()])


def wave_plus(imag: float) -> MatrixSymbol:
    """k.k + imag * i * k0^2."""
    wave = scalar_wave().terms()
    return MatrixSymbol(1, 2, wave + [(Z, (2, 0, 0, 0), imag * 1j)])


# (k0 - k1)^2: zero on k0 = k1 together with dq/dk, so not of real principal type there
SQUARE = MatrixSymbol(
    1, 2, [(Z, (2, 0, 0, 0), 1.0), (Z, (1, 1, 0, 0), -2.0), (Z, (0, 2, 0, 0), 1.0)]
)
# diag(k.k, k0^2): a one-dimensional kernel on the cone
SPLIT = MatrixSymbol(
    2, 2, [(Z, ke, np.diag([m[0, 0].real, ke[0] / 2])) for _, ke, m in scalar_wave().terms()]
)


def refused(build, error) -> bool:
    try:
        build()
    except error:
        return True
    return False


def member(p, c, s):
    d = decompose_principal_type(times(c, p))
    return [char_membership(d, PhaseSpacePoint(X, s * k)) for k in COVECTORS]


def principal_type(q, c, s):
    return [is_real_principal_type(times(c, q), PhaseSpacePoint(X, s * k)) for k in COVECTORS]


def kernel_dimension(p, c, s):
    return [len(kernel_basis(times(c, p), PhaseSpacePoint(X, s * k))[0]) for k in COVECTORS]


def ray_start(p, c, s):
    q = decompose_principal_type(times(c, p)).q
    return [not refused(lambda: trace_ray(q, X, s * k, (0.0, 0.0), 1.0), NonNullStart)
            for k in COVECTORS]


def mode(c, s):
    return [not refused(lambda: FourierMode(s * k, EPS), InvalidInput) for k in COVECTORS]


def radiation(c, s):
    modes = [FourierMode(s * k, [0, 0, 1, 0]) for k in (NULL_K, DIAGONAL_K, np.zeros(4))]
    return [not refused(lambda: radiation_fix(m), ZeroFrequency) for m in modes]


def kernel_plane(c, s):
    return [not refused(lambda: physical_kernel(s * k), ZeroFrequency)
            for k in (NULL_K, DIAGONAL_K, SLANTED_K)]


def complex_refused(c, s):
    symbols = (scalar_wave(), wave_plus(1e-5), wave_plus(1e-12))
    return [refused(lambda: times(c, q).hamilton, ComplexSymbol) for q in symbols]


# each decision, and its verdicts at c = s = 1
DECISIONS = {
    "char_membership flat-maxwell": (functools.partial(member, flat_maxwell()), [1, 0, 1]),
    "char_membership 1+x3^2": (functools.partial(member, SCALED_WAVE), [1, 0, 1]),
    "is_real_principal_type wave": (functools.partial(principal_type, scalar_wave()), [1, 1, 1]),
    "is_real_principal_type (k0-k1)^2": (functools.partial(principal_type, SQUARE), [1, 1, 0]),
    "kernel dimension maxwell": (functools.partial(kernel_dimension, flat_maxwell()), [4, 0, 4]),
    "kernel dimension diag(k.k, k0^2)": (functools.partial(kernel_dimension, SPLIT), [1, 0, 1]),
    "ray start 1+x3^2": (functools.partial(ray_start, SCALED_WAVE), [1, 0, 1]),
    "FourierMode": (mode, [1, 0, 1]),
    "radiation_fix": (radiation, [1, 1, 0]),
    "physical_kernel": (kernel_plane, [1, 1, 0]),
    "HamiltonSystem refuses complex q": (complex_refused, [0, 1, 0]),
}


@pytest.mark.parametrize("c, s", itertools.product(SCALES, SCALES))
@pytest.mark.parametrize("name", DECISIONS)
def test_verdicts_do_not_depend_on_scale(name, c, s):
    decide, expected = DECISIONS[name]
    assert decide(c, s) == expected


# -- tolerances are finite and positive -----------------------------------------

MAXWELL = decompose_principal_type(flat_maxwell())
NULL_PT = PhaseSpacePoint(X, NULL_K)

TOLERANCE_USES = {
    "char_membership": lambda tol: char_membership(MAXWELL, NULL_PT, tol=tol),
    "kernel_basis": lambda tol: kernel_basis(MAXWELL.p, NULL_PT, tol=tol),
    "is_real_principal_type": lambda tol: is_real_principal_type(MAXWELL.q, NULL_PT, tol=tol),
    "start_tol": lambda tol: trace_ray(SCALED_WAVE, X, NULL_K, (0, 1), 0.5, start_tol=tol),
    "drift_tol": lambda tol: trace_ray(SCALED_WAVE, X, NULL_K, (0, 1), 0.5, drift_tol=tol),
    "rtol": lambda tol: trace_ray(SCALED_WAVE, X, NULL_K, (0, 1), 0.5, "adaptive", rtol=tol),
    "atol": lambda tol: trace_ray(SCALED_WAVE, X, NULL_K, (0, 1), 0.5, "adaptive", atol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
@pytest.mark.parametrize("use", TOLERANCE_USES)
def test_tolerances_must_be_finite_and_positive(use, tol):
    with pytest.raises(InvalidInput, match="must be finite and positive"):
        TOLERANCE_USES[use](tol)
