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
scalar symbols, matrix-ordered Poisson brackets, subprincipal symbols,
and a structural k-homogeneity check.  Factories for the built-in
symbols ("flat-maxwell", "scalar-wave", "scaled-wave") and a plain-text
symbol file format round the module out.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidInput, ParseError
from .minkowski import SIGNATURE, PhaseSpacePoint

Expo = tuple[int, int, int, int]

_ZERO_EXPO: Expo = (0, 0, 0, 0)


def _as_expo(e) -> Expo:
    t = tuple(int(v) for v in e)
    if len(t) != 4 or any(v < 0 for v in t):
        raise InvalidInput(f"exponent tuple must be 4 nonnegative ints, got {e}")
    return t  # type: ignore[return-value]


def _dimension(dimension) -> int:
    if int(dimension) < 1:
        raise InvalidInput("dimension must be a positive integer")
    return int(dimension)


def _normalize_terms(terms, dimension: int) -> dict[tuple[Expo, Expo], np.ndarray]:
    """Merge duplicate exponents, drop exactly-zero coefficients."""
    acc: dict[tuple[Expo, Expo], np.ndarray] = {}
    for x_exp, k_exp, coeff in terms:
        key = (_as_expo(x_exp), _as_expo(k_exp))
        mat = np.array(coeff, dtype=complex)
        if mat.shape == () and dimension == 1:
            mat = mat.reshape(1, 1)
        if mat.shape != (dimension, dimension):
            raise DimensionMismatch(
                f"coefficient shape {mat.shape} does not match dimension {dimension}"
            )
        if not np.all(np.isfinite(mat.view(float))):
            raise InvalidInput("non-finite coefficient matrix")
        if key in acc:
            acc[key] = acc[key] + mat
        else:
            acc[key] = mat
    return {key: m for key, m in sorted(acc.items()) if np.any(m != 0)}


# outputs of a compiled symbol, in order: the principal part, its partial
# derivatives in x^0..x^3 then k_0..k_3, the lower-order part, and the
# mixed derivative sum_mu d^2(principal)/dx^mu dk_mu
VALUE, GRAD, LOWER, MIXED = 0, slice(1, 9), 9, 10


def _stack(terms: dict, dimension: int):
    """(T, 8) exponents over (x, k) and (T, N, N) coefficients of a term dict."""
    expo = np.array([xe + ke for xe, ke in terms], dtype=int).reshape(-1, 8)
    coeff = np.array(list(terms.values()), dtype=complex).reshape(-1, dimension, dimension)
    return expo, coeff


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
        self.mixed_is_zero = not np.any(coeff[:, MIXED])
        # real and imaginary parts interleaved, so the real product views as complex
        self.coeff = coeff.reshape(len(expo), len(outputs) * dim * dim).view(float)
        # each row of E as a list of factor slots, padded with slot 8 (= 1.0)
        degree = expo.sum(axis=1)
        self.factors = np.full((len(expo), int(degree.max(initial=0))), 8)
        for t, row in enumerate(expo):
            self.factors[t, : degree[t]] = np.repeat(np.arange(8), row)

    def __call__(self, x, k) -> np.ndarray:
        z = np.concatenate([x, k, np.ones(np.shape(x)[:-1] + (1,))], axis=-1)
        mono = z[..., self.factors].prod(axis=-1)
        # (..., 1, T) @ (T, 2M) makes the same product for every batch row
        out = (mono[..., None, :] @ self.coeff)[..., 0, :].view(complex)
        return out.reshape(out.shape[:-1] + self.shape)


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
        Monomial terms; duplicate exponent pairs are merged and exact
        zeros dropped.
    name : str, optional
        Display name used by the CLI.
    """

    __slots__ = ("dimension", "order", "principal", "lower", "name", "_compiled")

    def __init__(self, dimension, order, principal_terms=(), lower_terms=(), name=None):
        self.dimension = _dimension(dimension)
        self.order = int(order)
        self.principal = _normalize_terms(principal_terms, self.dimension)
        self.lower = _normalize_terms(lower_terms, self.dimension)
        self.name = name
        self._compiled = None

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, dimension: int, name=None) -> "MatrixSymbol":
        return cls(dimension, 0, [(_ZERO_EXPO, _ZERO_EXPO, np.eye(dimension))], name=name)

    # -- basic queries ------------------------------------------------

    def is_zero(self, part: str | None = None) -> bool:
        if part == "principal":
            return not self.principal
        if part == "lower":
            return not self.lower
        return not self.principal and not self.lower

    def terms(self, part: str = "principal"):
        """Canonically sorted (x_exp, k_exp, coeff) triples of one part."""
        src = self._part(part)
        return [(xe, ke, m.copy()) for (xe, ke), m in src.items()]

    def _part(self, part: str) -> dict:
        if part == "principal":
            return self.principal
        if part == "lower":
            return self.lower
        raise InvalidInput(f"unknown symbol part {part!r} (use 'principal' or 'lower')")

    def _output(self, part: str) -> int:
        self._part(part)
        return VALUE if part == "principal" else LOWER

    def same_terms(self, other: "MatrixSymbol") -> bool:
        """Exact coefficient-level equality of both parts."""
        if self.dimension != other.dimension or self.order != other.order:
            return False
        for mine, theirs in ((self.principal, other.principal), (self.lower, other.lower)):
            if mine.keys() != theirs.keys():
                return False
            if any(not np.array_equal(mine[key], theirs[key]) for key in mine):
                return False
        return True

    # -- calculus -----------------------------------------------------

    @property
    def compiled(self) -> CompiledSymbol:
        """The symbol compiled for evaluation, built on first use.

        Symbols are treated as immutable: the terms are compiled once.
        """
        if self._compiled is None:
            self._compiled = CompiledSymbol(self)
        return self._compiled

    def eval(self, pt: PhaseSpacePoint, part: str = "principal") -> np.ndarray:
        """Exact polynomial evaluation of one part at (x, k)."""
        return self.compiled(pt.x, pt.k)[self._output(part)]

    def eval_raw(self, x, k, part: str = "principal") -> np.ndarray:
        """Evaluation on raw arrays of shape (..., 4); gives (..., N, N)."""
        return self.compiled(x, k)[..., self._output(part), :, :]

    def diff_x(self, mu: int) -> "MatrixSymbol":
        """Exact partial derivative with respect to x^mu (both parts)."""
        return self._derived(mu, 0, self.order)

    def diff_k(self, mu: int) -> "MatrixSymbol":
        """Exact partial derivative with respect to k_mu; order drops by one."""
        return self._derived(mu, 4, self.order - 1)

    def _derived(self, mu: int, offset: int, order: int) -> "MatrixSymbol":
        if not isinstance(mu, (int, np.integer)) or not 0 <= mu <= 3:
            raise InvalidInput(f"derivative index must be 0, 1, 2 or 3, got {mu!r}")
        slot = offset + mu
        principal, lower = (
            [(e[:4], e[4:], c) for e, c in zip(*_derive(*_stack(part, self.dimension), slot))]
            for part in (self.principal, self.lower)
        )
        return MatrixSymbol(self.dimension, order, principal, lower)

    def scaled(self, z) -> "MatrixSymbol":
        return MatrixSymbol(
            self.dimension,
            self.order,
            [(xe, ke, z * m) for (xe, ke), m in self.principal.items()],
            [(xe, ke, z * m) for (xe, ke), m in self.lower.items()],
        )

    def add(self, other: "MatrixSymbol") -> "MatrixSymbol":
        """Sum of two symbols of equal dimension and order."""
        if self.dimension != other.dimension:
            raise DimensionMismatch("cannot add symbols of different dimension")
        if self.order != other.order:
            raise InvalidInput("cannot add symbols of different order")
        return MatrixSymbol(
            self.dimension,
            self.order,
            self.terms("principal") + other.terms("principal"),
            self.terms("lower") + other.terms("lower"),
        )

    def matmul(self, other: "MatrixSymbol") -> "MatrixSymbol":
        """Matrix product of two symbols, exact on coefficients.

        The product's principal part is (principal x principal); its
        lower part collects the two cross terms one order down.  Terms
        two or more orders below the product order are truncated, which
        is the depth the rest of the package consumes.

        Either factor may be scalar (N = 1); it then multiplies the
        other side entrywise.
        """
        if self.dimension != other.dimension and 1 not in (self.dimension, other.dimension):
            raise DimensionMismatch(
                f"cannot multiply {self.dimension}x{self.dimension} by "
                f"{other.dimension}x{other.dimension} symbols"
            )
        dim = max(self.dimension, other.dimension)

        def convolve(left: dict, right: dict):
            for (xa, ka), ma in left.items():
                for (xb, kb), mb in right.items():
                    x_exp = tuple(i + j for i, j in zip(xa, xb))
                    k_exp = tuple(i + j for i, j in zip(ka, kb))
                    yield (x_exp, k_exp, _matmul_compat(ma, mb))

        principal = list(convolve(self.principal, other.principal))
        lower = list(convolve(self.principal, other.lower))
        lower += list(convolve(self.lower, other.principal))
        return MatrixSymbol(dim, self.order + other.order, principal, lower)

    def __repr__(self):
        label = self.name or "symbol"
        return (
            f"MatrixSymbol({label!r}, N={self.dimension}, m={self.order}, "
            f"{len(self.principal)} principal / {len(self.lower)} lower terms)"
        )


# -- module-level operations ------------------------------------------


def differentiate(sym: MatrixSymbol, variable: str) -> MatrixSymbol:
    """Partial derivative selected by name: 'x0'..'x3' or 'k0'..'k3'."""
    if len(variable) == 2 and variable[0] in "xk" and variable[1] in "0123":
        mu = int(variable[1])
        return sym.diff_x(mu) if variable[0] == "x" else sym.diff_k(mu)
    raise InvalidInput(f"unknown variable {variable!r}; expected x0..x3 or k0..k3")


def check_homogeneity(sym: MatrixSymbol) -> tuple[bool, int | None]:
    """Structural k-homogeneity of the principal part.

    Returns ``(True, degree)`` when every principal term has the same
    total k-degree (the declared order for an empty part), otherwise
    ``(False, None)``.  This is a check on exponent data; no sampling.
    """
    degrees = {sum(k_exp) for (_, k_exp) in sym.principal}
    if not degrees:
        return True, sym.order
    if len(degrees) == 1:
        return True, degrees.pop()
    return False, None


def hamilton_field(q: MatrixSymbol, pt: PhaseSpacePoint) -> tuple[np.ndarray, np.ndarray]:
    """Hamilton field of a scalar symbol at a point.

    Returns ``(dx/dtau, dk/dtau)`` with ``dx^mu/dtau = dq/dk_mu`` and
    ``dk_nu/dtau = -dq/dx^nu``, both evaluated exactly.  The symbol must
    be real-valued at the point for the flow to mean anything; a
    residual imaginary part beyond rounding raises.
    """
    if q.dimension != 1:
        raise DimensionMismatch("hamilton_field requires a scalar (N=1) symbol")
    grad = q.compiled(pt.x, pt.k)[GRAD, 0, 0]
    if np.any(np.abs(grad.imag) > 1e-10 * (1.0 + np.abs(grad.real))):
        raise InvalidInput("hamilton_field needs a real-valued symbol")
    return grad[4:].real, -grad[:4].real


def poisson_bracket(a: MatrixSymbol, b: MatrixSymbol, pt: PhaseSpacePoint) -> np.ndarray:
    """Matrix-ordered Poisson bracket {a, b} evaluated at a point.

    Computes ``sum_mu (da/dk_mu)(db/dx^mu) - (da/dx^mu)(db/dk_mu)`` with
    the matrix products taken in exactly that left-to-right order.  The
    order is observable for non-commuting coefficients and is pinned by
    the test suite.
    """
    if a.dimension != b.dimension and 1 not in (a.dimension, b.dimension):
        raise DimensionMismatch("poisson_bracket needs compatible dimensions")
    return _bracket(a.compiled(pt.x, pt.k)[GRAD], b.compiled(pt.x, pt.k)[GRAD])


def _bracket(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Ordered bracket of evaluated gradients, each of shape (..., 8, N, N)."""
    out = 0.0
    for mu in range(4):
        out = out + _matmul_compat(da[..., 4 + mu, :, :], db[..., mu, :, :])
        out = out - _matmul_compat(da[..., mu, :, :], db[..., 4 + mu, :, :])
    return out


def _matmul_compat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[-2:] == (1, 1):
        return a[..., :1, :1] * b
    if b.shape[-2:] == (1, 1):
        return a * b[..., :1, :1]
    if a.shape[-1] != b.shape[-2]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def _subprincipal(jet: np.ndarray) -> np.ndarray:
    """p_{m-1} - (1/2i) sum_mu d^2 p / dx^mu dk_mu from evaluated compiled outputs."""
    # -(1/2i) == +i/2
    return jet[..., LOWER, :, :] + 0.5j * jet[..., MIXED, :, :]


def subprincipal_symbol(sym: MatrixSymbol, pt: PhaseSpacePoint) -> np.ndarray:
    """Evaluate p_{m-1} - (1/2i) sum_mu d^2 p / dx^mu dk_mu at a point."""
    return _subprincipal(sym.compiled(pt.x, pt.k))


# -- built-in symbols ---------------------------------------------------


def wave_quadratic_terms() -> list[tuple[Expo, Expo, np.ndarray]]:
    """Terms of the light-cone quadratic eta^{ab} k_a k_b as a scalar."""
    out = []
    for mu, sign in enumerate(SIGNATURE):
        k_exp = [0, 0, 0, 0]
        k_exp[mu] = 2
        out.append((_ZERO_EXPO, tuple(k_exp), np.array([[sign]], dtype=complex)))
    return out


def scalar_wave() -> MatrixSymbol:
    """The scalar wave symbol k0^2 - k1^2 - k2^2 - k3^2."""
    return MatrixSymbol(1, 2, wave_quadratic_terms(), name="scalar-wave")


def flat_maxwell() -> MatrixSymbol:
    """The wave operator on 4-component potentials: (k.k) times the identity."""
    terms = []
    for x_exp, k_exp, mat in wave_quadratic_terms():
        terms.append((x_exp, k_exp, mat[0, 0] * np.eye(4)))
    return MatrixSymbol(4, 2, terms, name="flat-maxwell")


def scaled_wave(coefficients: dict[Expo, complex], dimension: int = 1) -> MatrixSymbol:
    """f(x) times the wave quadratic, f given as {x-exponents: coefficient}."""
    if not coefficients:
        raise InvalidInput("scaled-wave needs at least one polynomial term")
    terms = []
    eye = np.eye(_dimension(dimension))
    for x_exp, c in coefficients.items():
        for _, k_exp, mat in wave_quadratic_terms():
            terms.append((_as_expo(x_exp), k_exp, complex(c) * mat[0, 0] * eye))
    return MatrixSymbol(dimension, 2, terms, name="scaled-wave")


def builtin_symbol(name: str, scale: str | None = None, dimension: int | None = None) -> MatrixSymbol:
    """Resolve one of the named built-in symbols.

    ``scaled-wave`` requires ``scale``, a polynomial in x0..x3 such as
    ``"1 + x3^2"`` (see :func:`parse_x_polynomial`).
    """
    if name == "flat-maxwell":
        return flat_maxwell()
    if name == "scalar-wave":
        return scalar_wave()
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
    # split into signed terms at top level
    terms: list[str] = []
    start = 0
    for i, ch in enumerate(cleaned):
        if ch in "+-" and i > 0 and cleaned[i - 1] not in "+-*^eE":
            terms.append(cleaned[start:i])
            start = i
    terms.append(cleaned[start:])

    out: dict[Expo, complex] = {}
    for term in terms:
        if not term or term in "+-":
            raise InvalidInput(f"malformed polynomial term in {text!r}")
        sign = 1.0
        if term[0] in "+-":
            if term[0] == "-":
                sign = -1.0
            term = term[1:]
        if not term or term[0] in "+-":
            raise InvalidInput(f"malformed polynomial term in {text!r}")
        coeff = sign
        expo = [0, 0, 0, 0]
        for factor in term.split("*"):
            if not factor:
                raise InvalidInput(f"malformed factor in polynomial term {term!r}")
            if factor[0] == "x":
                base, _, power = factor.partition("^")
                if len(base) != 2 or base[1] not in "0123":
                    raise InvalidInput(f"unknown variable {base!r} in polynomial")
                e = int(power) if power else 1
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
    name = None
    dimension = None
    order = None
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
    wave = {ke: m[0, 0] for (_, ke), m in _normalize_terms(wave_quadratic_terms(), 1).items()}
    factored = _factor_wave_quadratic(scalar, wave)
    if factored is not None:
        if list(factored) == [_ZERO_EXPO]:
            c = factored[_ZERO_EXPO]
            return "k^2" if c == 1 else f"{_fmt_coeff(c)}*k^2"
        poly = " + ".join(
            _fmt_term(_fmt_coeff(c), xe, _ZERO_EXPO)
            for xe, c in sorted(factored.items(), reverse=True)
        )
        return f"({poly})*k^2"
    return " + ".join(
        _fmt_term(_fmt_coeff(c), xe, ke)
        for (xe, ke), c in sorted(scalar.items(), reverse=True)
    ) or "0"


def _factor_wave_quadratic(scalar: dict, wave: dict) -> dict | None:
    """Write scalar terms as f(x) * (k.k) if possible: {x_exp: coefficient}."""
    by_x: dict[Expo, dict] = {}
    for (xe, ke), c in scalar.items():
        by_x.setdefault(xe, {})[ke] = c
    out = {}
    for xe, k_terms in by_x.items():
        if k_terms.keys() != wave.keys():
            return None
        ratios = {k_terms[ke] / wave[ke] for ke in wave}
        if len(ratios) != 1:
            return None
        out[xe] = ratios.pop()
    return out


def scalar_coefficients(sym: MatrixSymbol) -> dict | None:
    """{exponents: scalar} when every principal coefficient is c * identity."""
    out = {}
    eye = np.eye(sym.dimension)
    for (xe, ke), mat in sym.principal.items():
        c = mat[0, 0]
        if not np.array_equal(mat, c * eye):
            return None
        out[(xe, ke)] = c
    return out


def _fmt_coeff(c) -> str:
    c = complex(c)
    if c.imag == 0:
        v = float(c.real)
        return str(int(v)) if v == int(v) else repr(v)
    return _fmt_complex(c)


def _fmt_term(coeff: str, x_exp: Expo, k_exp: Expo) -> str:
    factors = []
    for prefix, exps in (("x", x_exp), ("k", k_exp)):
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"{prefix}{i}")
            elif e > 1:
                factors.append(f"{prefix}{i}^{e}")
    if not factors:
        return coeff
    if coeff == "1":
        return "*".join(factors)
    return "*".join([coeff] + factors)
