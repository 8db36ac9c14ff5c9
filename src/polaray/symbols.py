"""Exact matrix-valued polynomial symbols in (x, k) and their calculus.

A symbol is a finite sum of monomial terms

    C * x0^a0 * x1^a1 * x2^a2 * x3^a3 * k0^b0 * k1^b1 * k2^b2 * k3^b3

with a complex N x N coefficient matrix ``C``.  Each symbol carries a
leading (principal) part, homogeneous of the declared order in k for
well-formed symbols, plus an optional first lower-order part.  All
derivatives are computed on the exponent data, never by finite
differences, so every calculus identity in the test suite can be checked
against an independent finite-difference oracle.  Every evaluation goes
through :class:`CompiledSymbol`, built once per symbol.

Operations provided: evaluation, partial derivatives, Hamilton fields of
scalar symbols, matrix-ordered Poisson brackets, subprincipal symbols, the
transport matrix built from them, and a structural k-homogeneity check.
Factories for the built-in symbols ("flat-maxwell", "scalar-wave",
"scaled-wave") and a plain-text symbol file format round the module out.
"""

from __future__ import annotations

import contextlib
import itertools
import re

import numpy as np

from .errors import DimensionMismatch, InvalidInput, ParseError
from .minkowski import SIGNATURE, ZERO_TOL, PhaseSpacePoint

Expo = tuple[int, int, int, int]

_ZERO_EXPO: Expo = (0, 0, 0, 0)

# the highest total degree (x and k together) one term may have
MAX_DEGREE = 64


class ComplexSymbol(InvalidInput):
    """A symbol required to be real-valued has an imaginary part."""


def _as_expo(e) -> Expo:
    try:  # a symbol-file string must spell an int; a number must equal one
        t = tuple(int(v) if isinstance(v, str) or int(v) == v else None for v in e)
    except (ValueError, OverflowError):  # not an int, NaN or infinite
        t = ()
    if len(t) != 4 or any(v is None or not 0 <= v < 2**63 for v in t):
        raise InvalidInput(f"exponent tuple must be 4 nonnegative int64 values, got {e}")
    return t  # type: ignore[return-value]


def _dimension(dimension) -> int:
    if not float(dimension).is_integer() or dimension < 1:
        raise InvalidInput("dimension must be a positive integer")
    return int(dimension)


def _normalize_terms(terms, dimension: int) -> dict[tuple[Expo, Expo], np.ndarray]:
    """Sum duplicate exponents in input order, drop exactly-zero coefficients, sort."""
    slots: dict[tuple[Expo, Expo], int] = {}  # each distinct key and the row of its sum
    slot, coeffs = [], []
    for x_exp, k_exp, coeff in terms:
        key = (_as_expo(x_exp), _as_expo(k_exp))
        degree = sum(key[0] + key[1])
        if degree > MAX_DEGREE:
            raise InvalidInput(f"term degree {degree} exceeds the maximum of {MAX_DEGREE}")
        slot.append(slots.setdefault(key, len(slots)))
        coeffs.append(coeff)
    mats = _coefficients(coeffs, dimension)
    if not np.all(np.isfinite(mats.view(float))):
        raise InvalidInput("non-finite coefficient matrix")
    # -0.0 + z is z bit for bit, so a lone term keeps its signed zeros
    acc = np.full((len(slots), dimension, dimension), complex(-0.0, -0.0))
    np.add.at(acc, slot, mats)  # in input order
    keys = sorted(slots)
    acc = acc[list(map(slots.get, keys))]
    keep = np.any(acc != 0, axis=(1, 2))
    return dict(zip(itertools.compress(keys, keep), acc[keep]))


def _coefficients(coeffs: list, dimension: int) -> np.ndarray:
    """The (T, N, N) complex stack of T coefficients; with N = 1 a scalar is a 1 x 1 matrix."""
    shape = (len(coeffs), dimension, dimension)
    with contextlib.suppress(TypeError, ValueError):  # ragged: the loop below names the term
        mats = np.array(coeffs, dtype=complex)
        if mats.shape == shape or dimension == 1 and mats.shape == shape[:1]:
            return mats.reshape(shape)
    for coeff in coeffs:  # one term at a time, so the first of a wrong shape is reported
        mat = np.array(coeff, dtype=complex)
        if mat.shape != shape[1:] and (mat.shape, dimension) != ((), 1):
            raise DimensionMismatch(
                f"coefficient shape {mat.shape} does not match dimension {dimension}"
            )
    return np.array([np.reshape(c, shape[1:]) for c in coeffs], dtype=complex).reshape(shape)


# outputs of a compiled symbol, in order: the principal part, its partial
# derivatives in x^0..x^3 then k_0..k_3, the lower-order part, and the
# mixed derivative sum_mu d^2(principal)/dx^mu dk_mu
VALUE, GRAD, LOWER, MIXED = 0, slice(1, 9), 9, 10


def _stack(terms: dict, dimension: int):
    """(T, 8) exponents over (x, k) and (T, N, N) coefficients of a term dict."""
    expo = np.array([xe + ke for xe, ke in terms], dtype=int).reshape(-1, 8)
    coeff = np.array(list(terms.values()), dtype=complex).reshape(-1, dimension, dimension)
    return expo, coeff


def _terms(expo: np.ndarray, coeff: np.ndarray):
    """(x_exp, k_exp, coeff) triples of stacked terms."""
    return zip(expo[:, :4].tolist(), expo[:, 4:].tolist(), coeff)


def _derive(expo: np.ndarray, coeff: np.ndarray, slot: int):
    """Exact derivative of stacked terms in variable ``slot`` (x^0..x^3, k_0..k_3)."""
    e = expo[:, slot]
    keep = e > 0
    expo = expo[keep]
    expo[:, slot] -= 1
    return expo, coeff[keep] * e[keep, None, None]


class CompiledSymbol:
    """A symbol and its derivatives stacked into one polynomial evaluation.

    The term dicts of the outputs listed at :data:`VALUE` .. :data:`MIXED`
    are stacked into a ``(T, 8)`` exponent array ``E`` over
    ``z = (x, k)``, one row per distinct monomial in canonical term order,
    and a ``(T, S*N*N)`` coefficient matrix ``C``.  Derivatives are taken
    on the exponent arrays.  One call evaluates ``prod(z**E) @ C``; each
    ``z**E`` row is formed as a product of repeated factors of z.  Points
    broadcast over leading batch axes: ``(B, 4)`` x and k give
    ``(B, S, N, N)``, and every batch row holds the same bits as a
    single-point call at that row.

    Three structural facts are recorded for exact fast paths: ``x_free``
    (no term depends on x), ``constant`` (no term depends on x or k) and
    ``subprincipal_is_zero`` (no lower part and a zero mixed derivative).
    """

    def __init__(self, sym: "MatrixSymbol"):
        dim = sym.dimension
        principal = _stack(sym.principal, dim)
        mixed = [_derive(*_derive(*principal, 4 + mu), mu) for mu in range(4)]
        outputs = [principal, *(_derive(*principal, s) for s in range(8))]
        outputs += [_stack(sym.lower, dim), tuple(np.concatenate(m) for m in zip(*mixed))]
        rows = np.concatenate([e for e, _ in outputs])
        which = np.concatenate([np.full(len(e), i) for i, (e, _) in enumerate(outputs)])
        expo, inverse = np.unique(rows, axis=0, return_inverse=True)
        coeff = np.zeros((len(expo), len(outputs), dim, dim), dtype=complex)
        np.add.at(coeff, (inverse.ravel(), which), np.concatenate([c for _, c in outputs]))
        self.shape = (len(outputs), dim, dim)
        self.x_free = not np.any(expo[:, :4])
        self.constant = not np.any(expo)
        self.subprincipal_is_zero = not np.any(coeff[:, [LOWER, MIXED]])
        # real and imaginary parts interleaved, so the real product views as complex
        self.coeff = coeff.reshape(len(expo), len(outputs) * dim * dim).view(float)
        self.term_size = np.abs(coeff[:, VALUE]).reshape(len(expo), dim * dim)  # |C|
        # each row of E as factor slots padded with slot 8 (= 1.0): slot j of row t
        # counts the variables whose exponents end at or before j
        ends = np.cumsum(expo, axis=1)
        self.factors = (np.arange(ends[:, -1].max(initial=0))[:, None] >= ends[:, None]).sum(2)

    def __call__(self, x, k) -> np.ndarray:
        out = _products(_state(x, k), self.factors, self.coeff).view(complex)
        return out.reshape(out.shape[:-1] + self.shape)


def _state(x, k) -> np.ndarray:
    """z = (x, k, 1) from points of shape (..., 4); the 1.0 is the padding slot."""
    return np.concatenate([x, k, np.ones(np.shape(x)[:-1] + (1,))], axis=-1)


def _products(z: np.ndarray, factors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The monomials of z (..., 9), one product per row of ``factors``, times a (T, C) matrix."""
    # (..., 1, T) @ (T, C) makes the same product for every batch row
    return (np.multiply.reduce(z[..., factors], axis=-1)[..., None, :] @ matrix)[..., 0, :]


class HamiltonSystem:
    """The compiled Hamilton flow of a real scalar q on states y = (x, k, 1).

    The trailing 1.0 is the compiled symbol's padding slot, so a state
    indexes its monomial factors directly; its flow component is 0, so
    every integrator stage keeps it at exactly 1.0.  One call is one real
    product of the monomials with a ``(T, 10)`` matrix holding q and
    dy/dtau = (dq/dk, -dq/dx, 0).  A non-scalar q raises :class:`DimensionMismatch`,
    a q with an imaginary part above ``ZERO_TOL`` times its largest coefficient
    :class:`ComplexSymbol`.
    """

    def __init__(self, q: "MatrixSymbol"):
        if q.dimension != 1:
            raise DimensionMismatch("the Hamilton flow needs a scalar (N=1) symbol")
        compiled = q.compiled
        # real and imaginary parts of each output sit in alternate columns
        real, imag = compiled.coeff[:, 0::2], compiled.coeff[:, 1::2]
        if np.any(np.abs(imag[:, VALUE]) > ZERO_TOL * compiled.term_size.max(initial=0.0)):
            raise ComplexSymbol("the Hamilton flow needs a real-valued symbol")
        grad = real[:, GRAD]
        self.factors = compiled.factors
        self.matrix = np.column_stack(
            [real[:, VALUE], grad[:, 4:], -grad[:, :4], np.zeros(len(real))]
        )

    def __call__(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """q and dy/dtau at states of shape (..., 9)."""
        out = _products(y, self.factors, self.matrix)
        return out[..., 0], out[..., 1:]

    def into(self, y: np.ndarray, out: np.ndarray) -> None:
        """q and dy/dtau at one state y (9,) written into out (10,): the bits of
        :meth:`__call__` at that state, without temporaries."""
        np.matmul(np.multiply.reduce(y[self.factors], axis=1), self.matrix, out=out)


class MatrixSymbol:
    """Polynomial symbol with a principal part and one lower-order part.

    Parameters
    ----------
    dimension : int
        Fiber dimension N; coefficients are N x N complex matrices.
    order : int
        Declared order m of the principal part.  Homogeneity in k is a
        structural property checked by :func:`check_homogeneity`, not
        enforced at construction, so malformed symbols can be built and
        then detected.
    principal_terms, lower_terms : iterable of (x_exp, k_exp, coeff)
        Monomial terms; duplicate exponent pairs are summed in input order,
        exact zeros dropped, signed zeros kept, and terms sorted canonically.
    name : str, optional
        Display name used by the CLI.
    """

    __slots__ = ("dimension", "order", "principal", "lower", "name", "_compiled", "_hamilton")

    def __init__(self, dimension, order, principal_terms=(), lower_terms=(), name=None):
        self.dimension = _dimension(dimension)
        if not float(order).is_integer():
            raise InvalidInput(f"symbol order must be an integer, got {order}")
        self.order = int(order)
        self.principal = _normalize_terms(principal_terms, self.dimension)
        self.lower = _normalize_terms(lower_terms, self.dimension)
        self.name = name
        self._compiled = None
        self._hamilton = None

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, dimension: int) -> "MatrixSymbol":
        return cls(dimension, 0, [(_ZERO_EXPO, _ZERO_EXPO, np.eye(dimension))])

    # -- basic queries ------------------------------------------------

    def terms(self, part: str = "principal"):
        """Canonically sorted (x_exp, k_exp, coeff) triples of one part."""
        if part not in ("principal", "lower"):
            raise InvalidInput(f"unknown symbol part {part!r} (use 'principal' or 'lower')")
        terms = self.principal if part == "principal" else self.lower
        return [(xe, ke, m.copy()) for (xe, ke), m in terms.items()]

    # -- calculus -----------------------------------------------------

    @property
    def compiled(self) -> CompiledSymbol:
        """The symbol compiled for evaluation, built on first use.

        Symbols are treated as immutable: the terms are compiled once.
        """
        if self._compiled is None:
            self._compiled = CompiledSymbol(self)
        return self._compiled

    @property
    def hamilton(self) -> HamiltonSystem:
        """The compiled Hamilton flow of this (real scalar) symbol, built on first use.

        A refused build is not kept, so every call on a non-scalar or
        complex symbol raises again.
        """
        if self._hamilton is None:
            self._hamilton = HamiltonSystem(self)
        return self._hamilton

    def eval(self, pt: PhaseSpacePoint) -> np.ndarray:
        """Exact polynomial evaluation of the principal part at (x, k)."""
        return self.compiled(pt.x, pt.k)[VALUE]

    def eval_raw(self, x, k) -> np.ndarray:
        """The principal part on raw arrays of shape (..., 4); gives (..., N, N)."""
        return self.compiled(x, k)[..., VALUE, :, :]

    @np.errstate(over="ignore")
    def term_bound(self, x, k) -> np.ndarray:
        """sum_t |C_t| |x^a k^b| over the principal terms at (..., 4) points: (..., N, N).

        It bounds |p| entrywise and p's rounding error is a few ulps of it, so
        a value is zero up to rounding iff |value| <= ZERO_TOL * term_bound.  An
        overflowing sum saturates at the largest double.
        """
        c = self.compiled
        out = _products(np.abs(_state(x, k)), c.factors, c.term_size)
        return np.minimum(out.reshape(out.shape[:-1] + c.shape[1:]), np.finfo(float).max)

    def diff_x(self, mu: int) -> "MatrixSymbol":
        """Exact partial derivative with respect to x^mu (both parts)."""
        return self._derived(mu, 0, self.order)

    def diff_k(self, mu: int) -> "MatrixSymbol":
        """Exact partial derivative with respect to k_mu; order drops by one."""
        return self._derived(mu, 4, self.order - 1)

    def _derived(self, mu: int, offset: int, order: int) -> "MatrixSymbol":
        if not isinstance(mu, (int, np.integer)) or not 0 <= mu <= 3:
            raise InvalidInput(f"derivative index must be 0, 1, 2 or 3, got {mu!r}")
        principal, lower = (
            _terms(*_derive(*_stack(part, self.dimension), offset + mu))
            for part in (self.principal, self.lower)
        )
        return MatrixSymbol(self.dimension, order, principal, lower)

    def matmul(self, other: "MatrixSymbol") -> "MatrixSymbol":
        """Matrix product of two symbols, exact on coefficients.

        The product's principal part is (principal x principal); its
        lower part collects the two cross terms one order down.  Terms
        two or more orders below the product order are truncated, which
        is the depth the rest of the package consumes.
        """
        _same_dimension(self, other, "matmul")
        n = self.dimension

        def convolve(left: dict, right: dict):
            """Every left term times every right term, left-major."""
            (ea, ca), (eb, cb) = _stack(left, n), _stack(right, n)
            expo = (ea[:, None] + eb[None]).reshape(-1, 8)
            return _terms(expo, _product(ca[:, None], cb[None]).reshape(-1, n, n))

        principal = convolve(self.principal, other.principal)
        lower = [*convolve(self.principal, other.lower), *convolve(self.lower, other.principal)]
        return MatrixSymbol(n, self.order + other.order, principal, lower)

    def __repr__(self):
        label = self.name or "symbol"
        return (
            f"MatrixSymbol({label!r}, N={self.dimension}, m={self.order}, "
            f"{len(self.principal)} principal / {len(self.lower)} lower terms)"
        )


# -- module-level operations ------------------------------------------


def _same_dimension(a: MatrixSymbol, b: MatrixSymbol, what: str) -> None:
    """Products and brackets of symbols need equal fiber dimensions."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(
            f"{what} needs equal dimensions, got {a.dimension}x{a.dimension} "
            f"and {b.dimension}x{b.dimension} symbols"
        )


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of coefficient stacks; 1 x 1 stacks multiply entrywise,
    because ``@`` rounds those differently from the scalar product."""
    return a * b if a.shape[-2:] == (1, 1) else a @ b


def check_homogeneity(sym: MatrixSymbol) -> tuple[bool, int | None]:
    """Structural k-homogeneity of the principal part.

    Returns ``(True, degree)`` when every principal term has the same
    total k-degree (the declared order for an empty part), otherwise
    ``(False, None)``.  This is a check on exponent data; no sampling.
    """
    degrees = {sum(k_exp) for (_, k_exp) in sym.principal}
    if len(degrees) > 1:
        return False, None
    return True, degrees.pop() if degrees else sym.order


def hamilton_field(q: MatrixSymbol, pt: PhaseSpacePoint) -> tuple[np.ndarray, np.ndarray]:
    """Hamilton field of a real scalar symbol at a point.

    Returns ``(dx/dtau, dk/dtau)`` with ``dx^mu/dtau = dq/dk_mu`` and
    ``dk_nu/dtau = -dq/dx^nu``, both evaluated exactly by q's
    :class:`HamiltonSystem`, which refuses a q that is not real and scalar.
    """
    flow = q.hamilton(_state(pt.x, pt.k))[1]
    return flow[:4], flow[4:8]


def poisson_bracket(a: MatrixSymbol, b: MatrixSymbol, pt: PhaseSpacePoint) -> np.ndarray:
    """Matrix-ordered Poisson bracket {a, b} evaluated at a point.

    Computes ``sum_mu (da/dk_mu)(db/dx^mu) - (da/dx^mu)(db/dk_mu)`` with
    the matrix products taken in exactly that left-to-right order.  The
    order is observable for non-commuting coefficients and is pinned by
    the test suite.
    """
    _same_dimension(a, b, "poisson_bracket")
    return _bracket(a.compiled(pt.x, pt.k)[GRAD], b.compiled(pt.x, pt.k)[GRAD])


def _bracket(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Ordered bracket of evaluated gradients, each of shape (..., 8, N, N)."""
    out = 0.0
    for mu in range(4):
        out = out + _product(da[..., 4 + mu, :, :], db[..., mu, :, :])
        out = out - _product(da[..., mu, :, :], db[..., 4 + mu, :, :])
    return out


def _subprincipal(jet: np.ndarray) -> np.ndarray:
    """p_{m-1} - (1/2i) sum_mu d^2 p / dx^mu dk_mu from evaluated compiled outputs."""
    # -(1/2i) == +i/2
    return jet[..., LOWER, :, :] + 0.5j * jet[..., MIXED, :, :]


def subprincipal_symbol(sym: MatrixSymbol, pt: PhaseSpacePoint) -> np.ndarray:
    """Evaluate p_{m-1} - (1/2i) sum_mu d^2 p / dx^mu dk_mu at a point."""
    return _subprincipal(sym.compiled(pt.x, pt.k))


def connection_matrices(p_tilde: MatrixSymbol, p: MatrixSymbol, x, k) -> np.ndarray:
    """Dencker's transport matrix M = 1/2 {p~, p} + i p~ p^s at points of shape (..., 4).

    The bracket is taken in the same left-to-right order as
    :func:`poisson_bracket`; one compiled call per symbol evaluates every
    ingredient at all points.  A constant p~ has a zero bracket, which is not formed:
    adding 0.0 in its place gives the same bits wherever p's gradient is finite.
    """
    _same_dimension(p_tilde, p, "connection_matrices")
    a, b = p_tilde.compiled(x, k), p.compiled(x, k)
    bracket = 0.0
    if not p_tilde.compiled.constant:
        bracket = 0.5 * _bracket(a[..., GRAD, :, :], b[..., GRAD, :, :])
    return bracket + 1j * _product(a[..., VALUE, :, :], _subprincipal(b))


# -- built-in symbols ---------------------------------------------------


def _wave_family(f: dict[Expo, complex], dimension: int, name: str | None) -> MatrixSymbol:
    """f(x) (k.k) I_N with f given as {x-exponents: coefficient}: every built-in symbol."""
    if not f:
        raise InvalidInput(f"{name} needs at least one polynomial term")
    eye = np.eye(_dimension(dimension))
    terms = []
    for x_exp, c in f.items():
        for mu, sign in enumerate(SIGNATURE):
            k_exp = tuple(2 * (nu == mu) for nu in range(4))
            # this grouping and the complex sign fix the signs of zero parts in the bytes
            terms.append((x_exp, k_exp, complex(c) * complex(sign) * eye))
    return MatrixSymbol(dimension, 2, terms, name=name)


def scalar_wave() -> MatrixSymbol:
    """The scalar wave symbol k0^2 - k1^2 - k2^2 - k3^2."""
    return _wave_family({_ZERO_EXPO: 1}, 1, "scalar-wave")


def flat_maxwell() -> MatrixSymbol:
    """The wave operator on 4-component potentials: (k.k) times the identity."""
    return _wave_family({_ZERO_EXPO: 1}, 4, "flat-maxwell")


def scaled_wave(coefficients: dict[Expo, complex], dimension: int = 1) -> MatrixSymbol:
    """f(x) times the wave quadratic, f given as {x-exponents: coefficient}."""
    return _wave_family(coefficients, dimension, "scaled-wave")


def builtin_symbol(name: str, scale: str | None = None, dimension: int | None = None) -> MatrixSymbol:
    """Resolve one of the named built-in symbols.

    ``scaled-wave`` requires ``scale``, a polynomial in x0..x3 such as
    ``"1 + x3^2"`` (see :func:`parse_x_polynomial`), and takes an optional
    ``dimension``; the other built-ins refuse both.
    """
    if name in ("flat-maxwell", "scalar-wave"):
        if scale is not None or dimension is not None:
            raise InvalidInput(f"scale and dimension apply only to scaled-wave, not {name}")
        return flat_maxwell() if name == "flat-maxwell" else scalar_wave()
    if name == "scaled-wave":
        if scale is None:
            raise InvalidInput("scaled-wave requires a scale polynomial, e.g. '1+x3^2'")
        return scaled_wave(parse_x_polynomial(scale), 1 if dimension is None else dimension)
    raise InvalidInput(
        f"unknown symbol {name!r}; built-ins are flat-maxwell, scalar-wave, scaled-wave"
    )


# -- x-polynomial parser ------------------------------------------------


def parse_x_polynomial(text: str) -> dict[Expo, complex]:
    """Parse a real polynomial in x0..x3 such as ``1 + 2*x3^2 - 0.5*x1*x2``.

    Grammar: sum of terms; each term is a '*'-separated product of
    factors; a factor is a number or ``xN`` optionally raised with
    ``^INT``.  Implicit multiplication is not supported.
    """
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise InvalidInput("empty polynomial")
    # split into signed terms before each sign that follows no sign, '*', '^' or exponent e
    terms = re.split(r"(?<=[^-+*^eE])(?=[-+])", cleaned)
    out: dict[Expo, complex] = {}
    for term in terms:
        if not term or term in "+-":
            raise InvalidInput(f"malformed polynomial term in {text!r}")
        sign = -1.0 if term[0] == "-" else 1.0
        term = term[1:] if term[0] in "+-" else term
        if not term or term[0] in "+-":
            raise InvalidInput(f"malformed polynomial term in {text!r}")
        coeff = sign
        expo = [0, 0, 0, 0]
        for factor in term.split("*"):
            if not factor:
                raise InvalidInput(f"malformed factor in polynomial term {term!r}")
            if factor[0] == "x":
                base, caret, power = factor.partition("^")
                if len(base) != 2 or base[1] not in "0123":
                    raise InvalidInput(f"unknown variable {base!r} in polynomial")
                try:
                    e = int(power) if caret else 1
                except ValueError as exc:
                    raise InvalidInput(f"bad exponent {power!r} in polynomial") from exc
                if e < 0:
                    raise InvalidInput("negative exponents are not polynomials")
                expo[int(base[1])] += e
            else:
                try:
                    coeff *= float(factor)
                except ValueError as exc:
                    raise InvalidInput(f"bad coefficient {factor!r} in polynomial") from exc
        key = tuple(expo)
        out[key] = out.get(key, 0.0) + coeff
    return {k: complex(v) for k, v in sorted(out.items()) if v != 0}


# -- symbol definition files ---------------------------------------------


def format_symbol_file(sym: MatrixSymbol) -> str:
    """Serialize a symbol to the plain-text definition format."""
    lines = ["# polaray symbol v1"]
    if sym.name:
        lines.append(f"name {sym.name}")
    lines.append(f"dimension {sym.dimension}")
    lines.append(f"order {sym.order}")
    for part in ("principal", "lower"):
        for x_exp, k_exp, mat in sym.terms(part):
            entries = ",".join(_fmt_complex(z) for z in mat.ravel())
            xs = ",".join(str(e) for e in x_exp)
            ks = ",".join(str(e) for e in k_exp)
            lines.append(f"term {part} {xs} {ks} {entries}")
    return "\n".join(lines) + "\n"


def parse_symbol_file(text: str) -> MatrixSymbol:
    """Parse the plain-text symbol definition format."""
    name = dimension = order = None
    raw_terms: list[tuple[str, str, str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "name" and len(fields) == 2:
                name = fields[1]
            elif kind == "dimension" and len(fields) == 2:
                dimension = int(fields[1])
            elif kind == "order" and len(fields) == 2:
                order = int(fields[1])
            elif kind == "term" and len(fields) == 5:
                raw_terms.append((fields[1], fields[2], fields[3], fields[4], lineno))
            else:
                raise ValueError("unrecognized line")
        except ValueError as exc:
            raise ParseError(f"symbol file line {lineno}: {exc}") from exc
    if dimension is None or order is None:
        raise ParseError("symbol file must declare 'dimension' and 'order'")
    if dimension < 1:
        raise ParseError(f"symbol file dimension must be positive, got {dimension}")

    principal, lower = [], []
    for part, xs, ks, entries, lineno in raw_terms:
        if part not in ("principal", "lower"):
            raise ParseError(f"symbol file line {lineno}: unknown part {part!r}")
        try:
            x_exp = _as_expo(xs.split(","))
            k_exp = _as_expo(ks.split(","))
            values = [complex(tok) for tok in entries.split(",")]
        except (ValueError, InvalidInput) as exc:
            raise ParseError(f"symbol file line {lineno}: {exc}") from exc
        if len(values) != dimension * dimension:
            raise ParseError(
                f"symbol file line {lineno}: expected {dimension * dimension} "
                f"matrix entries, got {len(values)}"
            )
        mat = np.array(values, dtype=complex).reshape(dimension, dimension)
        (principal if part == "principal" else lower).append((x_exp, k_exp, mat))
    try:
        return MatrixSymbol(dimension, order, principal, lower, name=name)
    except InvalidInput as exc:
        raise ParseError(f"symbol file: {exc}") from exc


def _fmt_complex(z: complex) -> str:
    # repr() round-trips doubles exactly; strip the parentheses so the
    # token re-parses with complex()
    s = repr(complex(z))
    return s[1:-1] if s.startswith("(") else s


# -- pretty-printing ------------------------------------------------------


def pretty(sym: MatrixSymbol) -> str:
    """Short canonical text form; f(x) times k.k prints as '(f)*k^2'."""
    scalar = scalar_coefficients(sym)
    if scalar is None:
        return repr(sym)
    # f is read off the k0^2 terms and kept only if f (k.k) rebuilds the symbol
    f = {xe: c for (xe, ke), c in scalar.items() if ke == (2, 0, 0, 0)}
    if not f or scalar_coefficients(_wave_family(f, 1, None)) != scalar:
        return " + ".join(
            _fmt_term(_fmt_coeff(c), xe, ke) for (xe, ke), c in sorted(scalar.items(), reverse=True)
        ) or "0"
    if list(f) == [_ZERO_EXPO]:
        c = f[_ZERO_EXPO]
        return "k^2" if c == 1 else f"{_fmt_coeff(c)}*k^2"
    poly = " + ".join(
        _fmt_term(_fmt_coeff(c), xe, _ZERO_EXPO) for xe, c in sorted(f.items(), reverse=True)
    )
    return f"({poly})*k^2"


def scalar_coefficients(sym: MatrixSymbol) -> dict | None:
    """{exponents: scalar} when every principal coefficient is c * identity."""
    coeff = np.reshape(list(sym.principal.values()), (-1, sym.dimension, sym.dimension))
    c = coeff[:, 0, 0]
    if not np.array_equal(coeff, c[:, None, None] * np.eye(sym.dimension)):
        return None
    return dict(zip(sym.principal, c))


def _fmt_coeff(c) -> str:
    c = complex(c)
    if c.imag == 0:
        v = float(c.real)
        return str(int(v)) if v == int(v) else repr(v)
    return _fmt_complex(c)


def _fmt_term(coeff: str, x_exp: Expo, k_exp: Expo) -> str:
    factors = [
        f"{prefix}{i}" + (f"^{e}" if e > 1 else "")
        for prefix, exps in (("x", x_exp), ("k", k_exp))
        for i, e in enumerate(exps)
        if e
    ]
    if not factors:
        return coeff
    return "*".join(factors if coeff == "1" else [coeff, *factors])
