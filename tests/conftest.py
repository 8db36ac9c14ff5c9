"""Shared fixtures and independent finite-difference oracles.

The FD helpers below only ever call symbol *evaluation*; they never touch
the exact-derivative code paths they are used to check.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import polaray
from polaray.gauge import physical_polarizations
from polaray.minkowski import PhaseSpacePoint
from polaray.principal_type import decompose_principal_type, kernel_basis
from polaray.rays import null_project
from polaray.symbols import MatrixSymbol, flat_maxwell

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

SEED = 20250810


def subprocess_env() -> dict:
    """The environment with this checkout's package first on the import path."""
    src = os.path.dirname(os.path.dirname(polaray.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def maxwell():
    return flat_maxwell()


@pytest.fixture(scope="session")
def maxwell_decomposition():
    return decompose_principal_type(flat_maxwell())


def random_phase_points(rng, n, x_scale=1.5, k_scale=1.5):
    """Generic off-cone sampling points for calculus oracles."""
    pts = []
    while len(pts) < n:
        x = rng.uniform(-x_scale, x_scale, 4)
        k = rng.uniform(-k_scale, k_scale, 4)
        if np.linalg.norm(k) > 0.2:
            pts.append(PhaseSpacePoint(x, k))
    return pts


def random_null_covector(rng, scale=2.0, min_norm=0.3, branch=None):
    """A covector on the cone up to rounding (k0 = +/-|spatial|)."""
    spatial = rng.uniform(-scale, scale, 3)
    while np.linalg.norm(spatial) < min_norm:
        spatial = rng.uniform(-scale, scale, 3)
    if branch is None:
        branch = "+" if rng.random() < 0.5 else "-"
    return null_project(np.concatenate([[0.0], spatial]), branch)


# integer Pythagorean-style quadruples: k0^2 == k1^2+k2^2+k3^2 exactly in
# floating point, also after scaling by small dyadics and by 10
EXACT_NULL_COVECTORS = [
    np.array(v, dtype=float)
    for v in [
        (1.0, 0.0, 0.0, -1.0),
        (1.0, 1.0, 0.0, 0.0),
        (-1.0, 0.0, 1.0, 0.0),
        (5.0, 3.0, 4.0, 0.0),
        (5.0, 0.0, -4.0, 3.0),
        (13.0, 3.0, 4.0, 12.0),
        (-13.0, 12.0, -4.0, 3.0),
        (3.0, 1.0, 2.0, 2.0),
        (9.0, 8.0, -4.0, 1.0),
        (7.0, 2.0, -3.0, 6.0),
    ]
]


def exact_null_points(rng, n):
    """Phase-space points whose q evaluates to exactly 0.0."""
    out = []
    for _ in range(n):
        base = EXACT_NULL_COVECTORS[rng.integers(len(EXACT_NULL_COVECTORS))]
        scale = 2.0 ** rng.integers(-2, 3)
        out.append(PhaseSpacePoint(rng.uniform(-1, 1, 4), base * scale))
    return out


def circular_polarizations(k):
    """The circular transverse pair (e1 +/- i e2)/sqrt(2) of the linear pair at k."""
    e1, e2 = physical_polarizations(k)
    inv = 1.0 / np.sqrt(2.0)
    return (e1 + 1j * e2) * inv, (e1 - 1j * e2) * inv


# -- finite-difference oracles (evaluation only) -------------------------
#
# The differences are computed in extended precision with an evaluation
# loop of their own, so the oracle shares no code with the exact-calculus
# path and the 1/h and 1/h^2 divisions do not amplify double rounding.


def _eval_highprec(sym, x, k, part="principal"):
    x = np.asarray(x, dtype=np.longdouble)
    k = np.asarray(k, dtype=np.longdouble)
    total = np.zeros((sym.dimension, sym.dimension), dtype=np.clongdouble)
    for x_exp, k_exp, coeff in sym.terms(part):
        mono = np.clongdouble(1.0)
        for i in range(4):
            if x_exp[i]:
                mono = mono * x[i] ** x_exp[i]
            if k_exp[i]:
                mono = mono * k[i] ** k_exp[i]
        total += coeff.astype(np.clongdouble) * mono
    return total


def fd_partial(sym, pt: PhaseSpacePoint, slot: str, mu: int, part="principal", h=1e-5):
    """Central difference of the evaluated symbol wrt x^mu or k_mu."""

    def shifted(delta):
        x, k = pt.x.copy(), pt.k.copy()
        if slot == "x":
            x[mu] += delta
        else:
            k[mu] += delta
        return _eval_highprec(sym, x, k, part)

    return ((shifted(h) - shifted(-h)) / np.longdouble(2.0 * h)).astype(complex)


def fd_mixed_partial(sym, pt: PhaseSpacePoint, mu: int, part="principal", h=1e-5):
    """Central estimate of d^2 / dx^mu dk_mu of the evaluated symbol."""

    def shifted(dx, dk):
        x, k = pt.x.copy(), pt.k.copy()
        x[mu] += dx
        k[mu] += dk
        return _eval_highprec(sym, x, k, part)

    stencil = shifted(h, h) - shifted(h, -h) - shifted(-h, h) + shifted(-h, -h)
    return (stencil / np.longdouble(4.0 * h * h)).astype(complex)


def fd_hamilton_field(q: MatrixSymbol, pt: PhaseSpacePoint, h=1e-5):
    dx = np.array([fd_partial(q, pt, "k", mu, h=h)[0, 0].real for mu in range(4)])
    dk = np.array([-fd_partial(q, pt, "x", mu, h=h)[0, 0].real for mu in range(4)])
    return dx, dk


def fd_poisson_bracket(a: MatrixSymbol, b: MatrixSymbol, pt: PhaseSpacePoint, h=1e-5):
    dim = max(a.dimension, b.dimension)

    def widen(mat):
        return mat[0, 0] * np.eye(dim) if mat.shape == (1, 1) and dim > 1 else mat

    out = np.zeros((dim, dim), dtype=complex)
    for mu in range(4):
        out += widen(fd_partial(a, pt, "k", mu, h=h)) @ widen(fd_partial(b, pt, "x", mu, h=h))
        out -= widen(fd_partial(a, pt, "x", mu, h=h)) @ widen(fd_partial(b, pt, "k", mu, h=h))
    return out


def fd_subprincipal(sym: MatrixSymbol, pt: PhaseSpacePoint, h=1e-5):
    total = _eval_highprec(sym, pt.x, pt.k, "lower").astype(complex)
    for mu in range(4):
        total += 0.5j * fd_mixed_partial(sym, pt, mu, h=h)
    return total


def rel_err(approx, exact) -> float:
    approx = np.asarray(approx)
    exact = np.asarray(exact)
    scale = max(1.0, float(np.max(np.abs(exact))))
    return float(np.max(np.abs(approx - exact))) / scale


def random_matrix_symbol(rng, dimension=2, order=2, n_terms=5, lower_terms=2):
    """A seeded random polynomial symbol with x-dependent matrix coefficients."""

    def term(k_degree):
        x_exp = [0, 0, 0, 0]
        for _ in range(int(rng.integers(0, 3))):
            x_exp[rng.integers(4)] += 1
        k_exp = [0, 0, 0, 0]
        for _ in range(k_degree):
            k_exp[rng.integers(4)] += 1
        coeff = rng.uniform(-1, 1, (dimension, dimension)) + 1j * rng.uniform(
            -1, 1, (dimension, dimension)
        )
        return tuple(x_exp), tuple(k_exp), coeff

    principal = [term(order) for _ in range(n_terms)]
    lower = [term(order - 1) for _ in range(lower_terms)]
    return MatrixSymbol(dimension, order, principal, lower)


_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def graded_index_symbol(dimension=1, grade=0.1, scale=None):
    """(k0^2 - (1 + grade x3^2)|k|^2) times ``scale`` (default the identity);
    rays bend in x3.

    The 2x2 version adds the x-dependent, non-commuting lower-order part
    0.05 x3 k0 sigma_x + 0.03 k3 sigma_y, so its transport matrix is
    neither zero nor a multiple of the identity.
    """
    eye = np.eye(dimension) if scale is None else np.asarray(scale, dtype=complex)
    zero = (0, 0, 0, 0)
    principal = [(zero, (2, 0, 0, 0), eye)]
    for i in (1, 2, 3):
        k_exp = [0, 0, 0, 0]
        k_exp[i] = 2
        principal.append((zero, tuple(k_exp), -eye))
        principal.append(((0, 0, 0, 2), tuple(k_exp), -grade * eye))
    lower = []
    if dimension == 2:
        lower = [((0, 0, 0, 1), (1, 0, 0, 0), 0.05 * _SIGMA_X), (zero, (0, 0, 0, 1), 0.03 * _SIGMA_Y)]
    return MatrixSymbol(dimension, 2, principal, lower)


def graded_null_start(grade=0.1):
    """A start (x, k) on the cone of :func:`graded_index_symbol`."""
    x = np.array([0.0, 0.4, 0.0, 0.5])
    spatial = np.array([1.2, 0.0, 0.6])
    return x, np.array([np.sqrt((1 + grade * x[3] ** 2) * spatial @ spatial), *spatial])


def weyl_symbol(sign=-1, grade=0.1):
    """k0 I + sign n(x) sigma.k with n = 1 + grade x3^2.

    ``sign=-1`` is the Weyl-type system p, ``sign=+1`` its hint p~:
    p~ p = (k0^2 - n^2 |k|^2) I.  On the cone p has a one-dimensional
    kernel in a two-dimensional fiber, and p~ depends on x and k.
    """
    zero = (0, 0, 0, 0)
    terms = [(zero, (1, 0, 0, 0), np.eye(2))]
    for i, sigma in enumerate((_SIGMA_X, _SIGMA_Y, _SIGMA_Z), start=1):
        k_exp = tuple(int(mu == i) for mu in range(4))
        terms += [(zero, k_exp, sign * sigma), ((0, 0, 0, 2), k_exp, sign * grade * sigma)]
    return MatrixSymbol(2, 1, terms)


def weyl_decomposition():
    return decompose_principal_type(weyl_symbol(-1), hint=weyl_symbol(+1))


def weyl_start(spatial=(1.2, 0.0, 0.6), grade=0.1):
    """x0 = (0, 0.4, 0, 0.5), k0 = n|k| on the Weyl cone, and the start kernel vector.

    The kernel vector is complex when the spatial k has a k2 component."""
    x = np.array([0.0, 0.4, 0.0, 0.5])
    spatial = np.asarray(spatial, dtype=float)
    k = np.array([(1 + grade * x[3] ** 2) * np.linalg.norm(spatial), *spatial])
    vectors, _ = kernel_basis(weyl_symbol(-1, grade), PhaseSpacePoint(x, k))
    assert len(vectors) == 1
    return x, k, vectors[0]


def bits(a, b) -> bool:
    """Whether two float or complex arrays hold the same bits, signed zeros and NaNs included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def observed_orders(ends) -> list[float]:
    """Convergence orders from end states at successively halved steps."""
    gaps = [float(np.max(np.abs(b - a))) for a, b in zip(ends, ends[1:])]
    return [float(np.log2(g0 / g1)) for g0, g1 in zip(gaps, gaps[1:])]
