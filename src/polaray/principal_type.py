"""Real-principal-type decomposition and characteristic-set machinery.

A system symbol p admits the decomposition ``p~ p = q * identity`` with a
real scalar q; the characteristic set is where q vanishes and the
numerical kernel of p carries the admissible fiber directions.  The
decomposition is verified by exact polynomial multiplication, never by
sampling, so a valid decomposition satisfies the defining identity with
all-zero residual coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .minkowski import PhaseSpacePoint
from .symbols import (
    GRAD,
    VALUE,
    ComplexSymbol,
    MatrixSymbol,
    check_homogeneity,
    scalar_coefficients,
)

MACHINE_FLOOR = 1e-300


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


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal numerical nullspace of p at one phase-space point."""

    vectors: list
    singular_values: list

    @property
    def dimension(self) -> int:
        return len(self.vectors)


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


def is_real_principal_type(q: MatrixSymbol, pt: PhaseSpacePoint, tol: float = 1e-10) -> bool:
    """Real-principal-type test for a scalar symbol at one point.

    Off the zero set of q the condition is vacuous.  On it, the Hamilton
    field must neither vanish nor be purely radial, which for the
    dx/dtau components reduces to dq/dk != 0 at the point.
    """
    if q.dimension != 1:
        raise InvalidInput("is_real_principal_type requires a scalar symbol")
    jet = q.compiled(pt.x, pt.k)[:, 0, 0]
    value = jet[VALUE]
    if abs(value.imag) > tol:
        raise ComplexSymbol(f"q has imaginary part {value.imag} at the point")
    if abs(value.real) > tol:
        return True
    # dq/dk is homogeneous in k, so its size at k/|k| does not depend on |k|
    unit, _ = _unit_covector(pt.k)
    return bool(np.max(np.abs(q.compiled(pt.x, unit)[GRAD][4:, 0, 0])) > tol)


def char_membership(
    d: PrincipalTypeDecomposition, pt: PhaseSpacePoint, tol: float = 1e-10
) -> bool:
    """Whether the point lies on the characteristic set q = 0.

    The comparison scale is |q(x, k/|k|)| * |k|^m plus a machine floor,
    so membership is scale-free in k and an exactly representable zero
    always belongs.
    """
    value = float(abs(d.q.eval(pt)[0, 0]))
    unit, knorm = _unit_covector(pt.k)
    scale = float(abs(d.q.eval_raw(pt.x, unit)[0, 0])) * knorm**d.q.order + MACHINE_FLOOR
    return bool(value <= tol * scale)


def _unit_covector(k: np.ndarray) -> tuple[np.ndarray, float]:
    """k/|k| and |k|, with k first divided by max |k_mu| so that the sum of
    squares inside the norm neither underflows nor overflows."""
    top = float(np.max(np.abs(k)))
    scaled = k / top
    norm = float(np.linalg.norm(scaled))
    return scaled / norm, top * norm


def kernel_basis(p: MatrixSymbol, pt: PhaseSpacePoint, tol: float = 1e-10) -> KernelBasis:
    """Orthonormal numerical nullspace of p(x, k) by singular values.

    A direction belongs to the kernel iff its singular value satisfies
    ``sigma_i <= tol * sigma_max``; when even the largest singular value
    sits at the machine floor the matrix is identically zero and the
    kernel is the whole fiber.  A p(x, k) that overflows raises
    :class:`InvalidInput` naming the point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mat = p.eval(pt)
    if not np.all(np.isfinite(mat)):
        x, k = (", ".join(f"{v:.9g}" for v in part) for part in (pt.x, pt.k))
        raise InvalidInput(f"p(x, k) is not finite at x = ({x}), k = ({k})")
    _, s, vh = np.linalg.svd(mat)
    sigma_max = s[0] if len(s) else 0.0
    if sigma_max <= MACHINE_FLOOR:
        vectors = [np.eye(p.dimension, dtype=complex)[i] for i in range(p.dimension)]
        return KernelBasis(vectors=vectors, singular_values=list(s))
    vectors = [vh[i].conj() for i in range(len(s)) if s[i] <= tol * sigma_max]
    return KernelBasis(vectors=vectors, singular_values=list(s))


def kernel_residual(p: MatrixSymbol, pt: PhaseSpacePoint, omega: np.ndarray) -> float:
    """|p(x,k) w| / |w|, the fiber-membership residual of a vector."""
    omega = np.asarray(omega, dtype=complex)
    norm = float(np.linalg.norm(omega))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(p.eval(pt) @ omega)) / norm
