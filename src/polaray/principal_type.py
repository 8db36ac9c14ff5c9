"""Real-principal-type decomposition and characteristic-set machinery.

A system symbol p admits the decomposition ``p~ p = q * identity`` with a
real scalar q; the characteristic set is where q vanishes and the
numerical kernel of p carries the admissible fiber directions.  The
decomposition is verified by exact polynomial multiplication, never by
sampling, so a valid decomposition satisfies the defining identity with
all-zero residual coefficients.  The zero tests follow the rule of ``ZERO_TOL``,
so no verdict changes when p, q or k is scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .minkowski import ZERO_TOL, PhaseSpacePoint, _exponent, failure_site, scaled_covector
from .symbols import ComplexSymbol, MatrixSymbol, check_homogeneity, scalar_coefficients


class NoDecomposition(InvalidInput):
    """The product p~ p is not a scalar multiple of the identity."""


@dataclass(frozen=True)
class PrincipalTypeDecomposition:
    """Verified triple (p, p~, q) with p~ p = q * identity.

    ``scalar_multiple`` records that p itself is structurally q times the
    identity, which downstream transport uses for exact fast paths.
    """

    p: MatrixSymbol
    p_tilde: MatrixSymbol
    q: MatrixSymbol
    scalar_multiple: bool = field(default=False)


def decompose_principal_type(
    p: MatrixSymbol, hint: MatrixSymbol | None = None
) -> PrincipalTypeDecomposition:
    """Decompose p as p~ p = q * identity.

    When p is structurally a scalar multiple of the identity the trivial
    p~ = identity is chosen automatically.  Otherwise a caller-supplied
    hint p~ is verified by exact polynomial multiplication; there is no
    general search.

    Raises
    ------
    NoDecomposition
        If the principal part is not k-homogeneous, or the product
        polynomial is not a scalar multiple of the identity.
    """
    holds, _ = check_homogeneity(p)
    if not holds:
        raise NoDecomposition("principal part mixes k-degrees; no scalar q exists")

    if hint is None:
        p_tilde, product = MatrixSymbol.identity(p.dimension), p
        failure = "p is not a scalar multiple of the identity and no p~ hint was given"
    else:
        hint_holds, _ = check_homogeneity(hint)
        if not hint_holds:
            raise NoDecomposition("hint p~ mixes k-degrees")
        p_tilde, product = hint, hint.matmul(p)
        failure = "product p~ p is not a scalar multiple of the identity"
    scalars = scalar_coefficients(product)
    if scalars is None:
        raise NoDecomposition(failure)
    q = MatrixSymbol(
        1, product.order, [(xe, ke, np.array([[c]])) for (xe, ke), c in scalars.items()]
    )
    return PrincipalTypeDecomposition(p=p, p_tilde=p_tilde, q=q, scalar_multiple=hint is None)


@np.errstate(over="ignore", invalid="ignore")
def _pointwise(q: MatrixSymbol, x, k) -> tuple:
    """``(q, flow, size, q vanishes, dq/dk vanishes)`` at (x, k), from one evaluation of q's
    Hamilton system: size is ``q.term_bound(x, k)``, and q and dq/dk vanish when |q| and
    max|k_mu| max|dq/dk|, both of q's degree in k like size, are at most ZERO_TOL * size.
    A q or size that is not finite raises :class:`InvalidInput` naming the point."""
    value, flow = q.hamilton(np.concatenate([x, k, [1.0]]))
    size = q.term_bound(x, k)[0, 0]
    if not np.isfinite(value) or not np.isfinite(size):
        raise InvalidInput(f"q(x, k) is not finite at {failure_site(x, k)}")
    dq_dk = np.max(np.abs(k)) * np.max(np.abs(flow[:4]))
    return value, flow, size, abs(value) <= ZERO_TOL * size, dq_dk <= ZERO_TOL * size


def is_real_principal_type(q: MatrixSymbol, pt: PhaseSpacePoint) -> bool:
    """Real-principal-type test for a real scalar symbol at one point.

    Off the zero set of q the condition is vacuous.  On it, the Hamilton field
    must neither vanish nor be purely radial, which for the dx/dtau components
    reduces to dq/dk != 0.  Both verdicts are taken at ``scaled_covector(k)``.
    """
    *_, q_vanishes, dq_dk_vanishes = _pointwise(q, pt.x, scaled_covector(pt.k))
    return not (q_vanishes and dq_dk_vanishes)


def char_membership(d: PrincipalTypeDecomposition, pt: PhaseSpacePoint) -> bool:
    """Whether the point lies on the characteristic set q = 0.

    q counts as zero when |q| <= ZERO_TOL * ``q.term_bound``, the size of its terms, at
    ``scaled_covector(k)``, so membership is scale-free in k and a covector on the
    cone up to rounding belongs.  A complex q raises :class:`ComplexSymbol`.
    """
    return bool(_pointwise(d.q, pt.x, scaled_covector(pt.k))[3])


def kernel_basis(p: MatrixSymbol, pt: PhaseSpacePoint) -> tuple:
    """Orthonormal numerical nullspace of p at (x, ``scaled_covector(k)``) by singular values.

    Returns ``(vectors, singular_values)``: an ``(m, N)`` array whose rows
    span the kernel, and the N singular values in descending order.  A
    right-singular vector v belongs to the kernel iff p v is zero up to
    rounding, ``sigma <= ZERO_TOL * |p.term_bound(x, k) @ |v||``, so where p
    vanishes up to rounding the kernel is the whole fiber.  A p(x, k) that
    overflows raises :class:`InvalidInput` naming the point.
    """
    k = scaled_covector(pt.k)
    with np.errstate(over="ignore", invalid="ignore"):
        mat = p.eval_raw(pt.x, k)
    if not np.all(np.isfinite(mat)):
        raise InvalidInput(f"p(x, k) is not finite at {failure_site(pt.x, pt.k)}")
    _, s, vh = np.linalg.svd(mat)
    scale = np.linalg.norm(p.term_bound(pt.x, k) @ np.abs(vh.T), axis=0)
    return vh[s <= ZERO_TOL * scale].conj(), s


@np.errstate(over="ignore")  # a sum of squares that overflows is taken again scaled
def kernel_residual(p: MatrixSymbol, pt: PhaseSpacePoint, omega: np.ndarray) -> float:
    """|p(x,k) w| / |w|, the fiber-membership residual of a vector."""
    omega = np.asarray(omega, dtype=complex)
    norm = _fiber_norm(omega)
    if norm == 0.0:
        return 0.0
    return _fiber_norm(p.eval(pt) @ omega) / norm


def _fiber_norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex array by that function's own sum, sqrt(re.re + im.im);
    a sum that over- or underflows is taken again on v scaled by a power of two."""
    v = v.ravel(order="K")
    total = v.real.dot(v.real) + v.imag.dot(v.imag)
    if 2.0**-900 <= total <= 2.0**900:
        return math.sqrt(total)
    n = _exponent(np.fmax(np.abs(v.real), np.abs(v.imag)))
    w = np.empty_like(v, dtype=complex)  # strided like v's parts, so the dots sum alike
    w.real, w.imag = np.ldexp(v.real, n), np.ldexp(v.imag, n)
    return math.ldexp(math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag)), -n)
