"""Real-principal-type decomposition and characteristic-set machinery.

A system symbol p admits the decomposition ``p~ p = q * identity`` with a
real scalar q; the characteristic set is where q vanishes and the
numerical kernel of p carries the admissible fiber directions.  The
decomposition is verified by exact polynomial multiplication, never by
sampling, so a valid decomposition satisfies the defining identity with
all-zero residual coefficients.  The zero tests use the rule of ``ZERO_TOL``
with ``tol`` (default ``ZERO_TOL``): no verdict changes when p, q or k is scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .minkowski import ZERO_TOL, PhaseSpacePoint, check_tolerances, failure_site, scaled_covector
from .symbols import (
    ComplexSymbol,
    MatrixSymbol,
    check_homogeneity,
    scalar_coefficients,
)


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


def is_real_principal_type(q: MatrixSymbol, pt: PhaseSpacePoint, tol: float = ZERO_TOL) -> bool:
    """Real-principal-type test for a real scalar symbol at one point.

    Off the zero set of q (|q| above tol times ``q.term_bound``) the condition is
    vacuous.  On it, the Hamilton field must neither vanish nor be purely radial,
    which for the dx/dtau components reduces to dq/dk != 0: max |dq/dk| above tol
    times ``q.term_bound``, both taken at k/|k|.
    """
    check_tolerances(tol=tol)
    system = q.hamilton
    value, _ = system(np.concatenate([pt.x, pt.k, [1.0]]))
    if abs(value) > tol * q.term_bound(pt.x, pt.k)[0, 0]:
        return True
    # dq/dk is homogeneous in k, so its size at k/|k| does not depend on |k|
    k = scaled_covector(pt.k)
    k /= np.linalg.norm(k)
    _, flow = system(np.concatenate([pt.x, k, [1.0]]))
    return bool(np.max(np.abs(flow[:4])) > tol * q.term_bound(pt.x, k)[0, 0])


def char_membership(
    d: PrincipalTypeDecomposition, pt: PhaseSpacePoint, tol: float = ZERO_TOL
) -> bool:
    """Whether the point lies on the characteristic set q = 0.

    q counts as zero when |q| <= tol * ``q.term_bound(x, k)``, the size of
    its terms, so membership is scale-free in k and a covector on the cone
    up to rounding belongs.
    """
    check_tolerances(tol=tol)
    value = abs(d.q.eval(pt)[0, 0])
    return bool(value <= tol * d.q.term_bound(pt.x, pt.k)[0, 0])


def kernel_basis(p: MatrixSymbol, pt: PhaseSpacePoint, tol: float = ZERO_TOL) -> tuple:
    """Orthonormal numerical nullspace of p(x, k) by singular values.

    Returns ``(vectors, singular_values)``: an ``(m, N)`` array whose rows
    span the kernel, and the N singular values in descending order.  A
    right-singular vector v belongs to the kernel iff p v is zero up to
    rounding, ``sigma <= tol * |p.term_bound(x, k) @ |v||``, so where p
    vanishes up to rounding the kernel is the whole fiber.  A p(x, k) that
    overflows raises :class:`InvalidInput` naming the point.
    """
    check_tolerances(tol=tol)
    with np.errstate(over="ignore", invalid="ignore"):
        mat = p.eval(pt)
    if not np.all(np.isfinite(mat)):
        raise InvalidInput(f"p(x, k) is not finite at {failure_site(pt.x, pt.k)}")
    _, s, vh = np.linalg.svd(mat)
    scale = np.linalg.norm(p.term_bound(pt.x, pt.k) @ np.abs(vh.T), axis=0)
    return vh[s <= tol * scale].conj(), s


def kernel_residual(p: MatrixSymbol, pt: PhaseSpacePoint, omega: np.ndarray) -> float:
    """|p(x,k) w| / |w|, the fiber-membership residual of a vector."""
    omega = np.asarray(omega, dtype=complex)
    norm = float(np.linalg.norm(omega))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(p.eval(pt) @ omega)) / norm
