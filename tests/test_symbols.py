import math
import pathlib
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polaray
from polaray.errors import DimensionMismatch, InvalidInput, ParseError
from polaray.minkowski import PhaseSpacePoint
from polaray.symbols import (
    GRAD,
    LOWER,
    MAX_DEGREE,
    VALUE,
    _as_expo,
    _bracket,
    _product,
    _subprincipal,
    MatrixSymbol,
    builtin_symbol,
    check_homogeneity,
    connection_matrices,
    format_symbol_file,
    hamilton_field,
    parse_symbol_file,
    parse_x_polynomial,
    poisson_bracket,
    pretty,
    scalar_coefficients,
    scalar_wave,
    scaled_wave,
    subprincipal_symbol,
)

from conftest import (
    fd_hamilton_field,
    graded_index_symbol,
    fd_poisson_bracket,
    fd_subprincipal,
    random_matrix_symbol,
    random_phase_points,
    rel_err,
)
from oracles import same_terms, wave_factored_text

NULL_PT = PhaseSpacePoint([0, 0, 0, 0], [1, 0, 0, -1])
TIME_PT = PhaseSpacePoint([0, 0, 0, 0], [1, 0, 0, 0])


def scaled_example():
    return scaled_wave(parse_x_polynomial("1+x3^2"))


class TestEval:
    def test_maxwell_on_cone_vanishes(self, maxwell):
        assert np.array_equal(maxwell.eval(NULL_PT), np.zeros((4, 4)))

    def test_maxwell_timelike_is_identity(self, maxwell):
        assert np.array_equal(maxwell.eval(TIME_PT), np.eye(4))

    def test_scaled_wave_on_cone(self):
        pt = PhaseSpacePoint([0, 0, 0, 1], [1, 0, 0, -1])
        assert scaled_example().eval(pt)[0, 0] == 0

    def test_lower_part_evaluation(self):
        sym = MatrixSymbol(
            1, 2, [((0,) * 4, (2, 0, 0, 0), [[1.0]])], [((0,) * 4, (1, 0, 0, 0), [[1.0]])]
        )
        pt = PhaseSpacePoint([0, 0, 0, 0], [3, 0, 0, 0])
        assert sym.compiled(pt.x, pt.k)[LOWER][0, 0] == 3.0

    def test_bad_part_name(self, maxwell):
        with pytest.raises(InvalidInput):
            maxwell.terms("middle")

    @pytest.mark.parametrize("call", ["eval", "eval_raw"])
    def test_evaluates_the_principal_part_only(self, maxwell, call):
        args = (NULL_PT,) if call == "eval" else (NULL_PT.x, NULL_PT.k)
        with pytest.raises(TypeError, match="unexpected keyword argument 'part'"):
            getattr(maxwell, call)(*args, part="lower")

    def test_identity_takes_no_name(self):
        assert same_terms(MatrixSymbol.identity(2), MatrixSymbol(2, 0, [((0,) * 4, (0,) * 4, np.eye(2))]))
        with pytest.raises(TypeError, match="unexpected keyword argument 'name'"):
            MatrixSymbol.identity(2, name="I")


class TestDifferentiate:
    def test_wave_k3_derivative(self):
        d = scalar_wave().diff_k(3)
        assert d.order == 1
        assert d.terms("principal") == [((0, 0, 0, 0), (0, 0, 0, 1), d.terms("principal")[0][2])]
        assert d.terms("principal")[0][2][0, 0] == -2.0

    def test_constant_coefficients_x_derivative_is_zero(self, maxwell):
        d = maxwell.diff_x(1)
        assert not d.principal and not d.lower

    def test_scaled_wave_x3_derivative(self):
        d = scaled_example().diff_x(3)
        # 2*x3*(k.k): evaluate at x3=2, k=(1,0,0,0) -> 4
        assert d.eval(PhaseSpacePoint([0, 0, 0, 2], [1, 0, 0, 0]))[0, 0] == 4.0

    @pytest.mark.parametrize(
        "method, mu",
        [("diff_x", -1), ("diff_x", 4), ("diff_x", 5), ("diff_k", -4), ("diff_k", 4), ("diff_x", 1.0)],
    )
    def test_index_outside_the_four_slots(self, method, mu):
        # an unchecked index would select another variable's exponent slot
        with pytest.raises(InvalidInput, match="0, 1, 2 or 3"):
            getattr(scaled_example(), method)(mu)


class TestHamiltonField:
    def test_null_covector_velocity(self):
        dx, dk = hamilton_field(scalar_wave(), NULL_PT)
        assert np.array_equal(dx, [2, 0, 0, 2])
        assert np.array_equal(dk, [0, 0, 0, 0])

    def test_linearity_in_k(self):
        dx, _ = hamilton_field(scalar_wave(), PhaseSpacePoint([0] * 4, [2, 0, 0, -2]))
        assert np.array_equal(dx, [4, 0, 0, 4])

    def test_scaled_wave_force_vanishes_on_cone(self):
        _, dk = hamilton_field(scaled_example(), PhaseSpacePoint([0, 0, 0, 1], [1, 0, 0, -1]))
        assert dk[3] == 0.0

    def test_rejects_matrix_symbol(self, maxwell):
        with pytest.raises(DimensionMismatch):
            hamilton_field(maxwell, NULL_PT)


class TestPoissonBracket:
    def test_constant_left_argument(self, maxwell):
        ident = MatrixSymbol.identity(4)
        assert np.array_equal(poisson_bracket(ident, maxwell, NULL_PT), np.zeros((4, 4)))

    def test_x3_against_wave(self):
        a = MatrixSymbol(1, 0, [((0, 0, 0, 1), (0, 0, 0, 0), [[1.0]])])
        out = poisson_bracket(a, scalar_wave(), NULL_PT)
        assert out[0, 0] == -2.0

    def test_self_bracket_vanishes(self):
        out = poisson_bracket(scalar_wave(), scalar_wave(), NULL_PT)
        assert np.array_equal(out, np.zeros((1, 1)))

    def test_matrix_order_is_left_to_right(self):
        # coefficients chosen so the two orderings differ
        e01 = np.array([[0, 1], [0, 0]], dtype=complex)
        e10 = np.array([[0, 0], [1, 0]], dtype=complex)
        a = MatrixSymbol(2, 0, [((0, 0, 0, 1), (0, 0, 0, 0), e01)])
        b = MatrixSymbol(2, 1, [((0, 0, 0, 0), (0, 0, 0, 1), e10)])
        out = poisson_bracket(a, b, NULL_PT)
        assert np.array_equal(out, -(e01 @ e10))
        assert not np.array_equal(out, -(e10 @ e01))


    @pytest.mark.parametrize("hint", [None, np.diag([2.0, 1.0])], ids=["identity", "diag-2-1"])
    @pytest.mark.parametrize("p", ["graded", "bundle", "random", "real-lower"])
    def test_constant_p_tilde_gives_the_bits_of_the_bracket_expression(self, rng, hint, p):
        z = (0, 0, 0, 0)
        p = {
            "graded": lambda: graded_index_symbol(2),
            "bundle": lambda: graded_index_symbol(2, scale=np.diag([1.0, 2.0])),
            "random": lambda: random_matrix_symbol(rng),
            # a real p^s: i p~ p^s has -0.0 real parts that the zero bracket turns to +0.0
            "real-lower": lambda: MatrixSymbol(
                2,
                2,
                scaled_wave({z: 1.0}, 2).terms(),
                [((0, 0, 0, 1), (1, 0, 0, 0), [[-1, 0.5], [0, 2]])],
            ),
        }[p]()
        p_tilde = MatrixSymbol.identity(2) if hint is None else MatrixSymbol(2, 0, [(z, z, hint)])
        x, k = rng.uniform(-2, 2, (2, 60, 4))
        x[:20] = 0.0  # zero bracket terms meet zero subprincipal terms here
        a, b = p_tilde.compiled(x, k), p.compiled(x, k)
        expected = 0.5 * _bracket(a[..., GRAD, :, :], b[..., GRAD, :, :]) + 1j * _product(
            a[..., VALUE, :, :], _subprincipal(b)
        )
        got = connection_matrices(p_tilde, p, x, k)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestSubprincipal:
    def test_constant_coefficients_vanish(self, maxwell):
        assert np.array_equal(subprincipal_symbol(maxwell, NULL_PT), np.zeros((4, 4)))

    def test_scaled_wave_value(self):
        pt = PhaseSpacePoint([0, 0, 0, 1], [1, 0, 0, -1])
        assert subprincipal_symbol(scaled_example(), pt)[0, 0] == 2j

    def test_reduces_to_lower_part(self):
        sym = MatrixSymbol(
            1, 2, [((0,) * 4, (2, 0, 0, 0), [[1.0]])], [((0,) * 4, (1, 0, 0, 0), [[1.0]])]
        )
        pt = PhaseSpacePoint([0, 0, 0, 0], [3, 0, 0, 0])
        assert subprincipal_symbol(sym, pt)[0, 0] == 3.0


class TestHomogeneity:
    def test_wave_quadratic(self):
        assert check_homogeneity(scalar_wave()) == (True, 2)

    def test_no_principal_terms_has_the_declared_order(self):
        lower_only = MatrixSymbol(2, 3, [], [((0,) * 4, (1, 0, 0, 0), np.eye(2))])
        assert check_homogeneity(lower_only) == (True, 3)

    def test_mixed_degrees_fail(self):
        sym = MatrixSymbol(
            1, 2, [((0,) * 4, (2, 0, 0, 0), [[1.0]]), ((0,) * 4, (1, 0, 0, 0), [[1.0]])]
        )
        assert check_homogeneity(sym) == (False, None)

    def test_x_dependence_is_ignored(self):
        assert check_homogeneity(scaled_example()) == (True, 2)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_homogeneous_scaling(self, rng, s):
        sym = random_matrix_symbol(rng, dimension=2, order=2, lower_terms=0)
        for pt in random_phase_points(rng, 20):
            scaled_pt = PhaseSpacePoint(pt.x, s * pt.k)
            np.testing.assert_allclose(
                sym.eval(scaled_pt), s**2 * sym.eval(pt), rtol=5e-15, atol=1e-14
            )


class TestFiniteDifferenceOracle:
    def test_hamilton_field_matches_fd(self, rng):
        q = scaled_example()
        for pt in random_phase_points(rng, 25):
            dx, dk = hamilton_field(q, pt)
            fx, fk = fd_hamilton_field(q, pt)
            assert rel_err(fx, dx) < 1e-6
            assert rel_err(fk, dk) < 1e-6

    def test_poisson_matches_fd(self, rng):
        a = random_matrix_symbol(rng, dimension=2, order=2)
        b = random_matrix_symbol(rng, dimension=2, order=1)
        for pt in random_phase_points(rng, 25):
            assert rel_err(fd_poisson_bracket(a, b, pt), poisson_bracket(a, b, pt)) < 1e-6

    def test_subprincipal_matches_fd(self, rng):
        sym = random_matrix_symbol(rng, dimension=3, order=2)
        for pt in random_phase_points(rng, 25):
            assert rel_err(fd_subprincipal(sym, pt), subprincipal_symbol(sym, pt)) < 1e-6


@given(
    st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    st.lists(st.floats(-2, 2), min_size=4, max_size=4).filter(
        lambda k: sum(abs(v) for v in k) > 0.1
    ),
)
def test_poisson_antisymmetry_on_scalars(x, k):
    pt = PhaseSpacePoint(x, k)
    a = scalar_wave()
    b = scaled_wave(parse_x_polynomial("1+x3^2+0.5*x0"))
    ab = poisson_bracket(a, b, pt)
    ba = poisson_bracket(b, a, pt)
    np.testing.assert_allclose(ab, -ba, atol=1e-12 * (1 + abs(ab[0, 0])))


@given(
    st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    st.lists(st.floats(-2, 2), min_size=4, max_size=4).filter(
        lambda k: sum(abs(v) for v in k) > 0.1
    ),
)
def test_poisson_leibniz_on_scalars(x, k):
    pt = PhaseSpacePoint(x, k)
    a = scaled_wave(parse_x_polynomial("1+x1"))
    b = scalar_wave()
    c = MatrixSymbol(1, 1, [((0, 0, 0, 0), (1, 0, 0, 0), [[1.0]]), ((1, 0, 0, 0), (0, 0, 0, 1), [[0.5]])])
    bc = b.matmul(c)
    lhs = poisson_bracket(a, bc, pt)[0, 0]
    rhs = (
        poisson_bracket(a, b, pt)[0, 0] * c.eval(pt)[0, 0]
        + b.eval(pt)[0, 0] * poisson_bracket(a, c, pt)[0, 0]
    )
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


class TestPolynomialParser:
    def test_simple(self):
        assert parse_x_polynomial("1+x3^2") == {
            (0, 0, 0, 0): 1.0 + 0j,
            (0, 0, 0, 2): 1.0 + 0j,
        }

    def test_products_and_signs(self):
        out = parse_x_polynomial("-0.5*x1*x2 + 2*x0^3 - 1")
        assert out[(0, 1, 1, 0)] == -0.5
        assert out[(3, 0, 0, 0)] == 2.0
        assert out[(0, 0, 0, 0)] == -1.0

    def test_rejects_garbage(self):
        for bad in ("", "x5", "2x1", "x1^-2", "1++2"):
            with pytest.raises(InvalidInput):
                parse_x_polynomial(bad)

    @pytest.mark.parametrize("text", ["1+x3^2.5", "x1^e", "x0^1.0", "1+x3^", "2*x1^*3"])
    def test_non_integer_power_is_invalid_input(self, text):
        with pytest.raises(InvalidInput, match="bad exponent"):
            parse_x_polynomial(text)

    def test_exponent_beyond_int64_is_invalid_input(self):
        with pytest.raises(InvalidInput, match="int64"):
            builtin_symbol("scaled-wave", scale="1+x3^99999999999999999999")


class TestBuiltins:
    def test_names(self):
        assert builtin_symbol("flat-maxwell").dimension == 4
        assert builtin_symbol("scalar-wave").dimension == 1
        assert builtin_symbol("scaled-wave", scale="1+x3^2").order == 2

    def test_scaled_wave_needs_scale(self):
        with pytest.raises(InvalidInput):
            builtin_symbol("scaled-wave")

    def test_unknown_name(self):
        with pytest.raises(InvalidInput):
            builtin_symbol("cubic-wave")

    @pytest.mark.parametrize("dimension", [0, -3])
    def test_scaled_wave_dimension_must_be_positive(self, dimension):
        with pytest.raises(InvalidInput, match="dimension"):
            builtin_symbol("scaled-wave", scale="1+x3^2", dimension=dimension)

    def test_pretty_forms(self, maxwell):
        from polaray.principal_type import decompose_principal_type

        assert pretty(decompose_principal_type(maxwell).q) == "k^2"
        assert pretty(scaled_wave({(0, 0, 0, 0): 2.0})) == "2*k^2"
        # a coefficient that is not a multiple of the identity falls back to repr
        weights = MatrixSymbol(4, 0, [((0,) * 4, (0,) * 4, np.diag([1.0, 2, 3, 4]))])
        assert pretty(weights) == "MatrixSymbol('symbol', N=4, m=0, 1 principal / 0 lower terms)"

    @pytest.mark.parametrize("name", ["flat-maxwell", "scalar-wave"])
    @pytest.mark.parametrize("option", [{"scale": "1+x3^2"}, {"dimension": 1}])
    def test_fixed_builtins_refuse_scale_and_dimension(self, name, option):
        with pytest.raises(InvalidInput, match="scale and dimension"):
            builtin_symbol(name, **option)

    def test_scaled_wave_needs_a_term(self):
        with pytest.raises(InvalidInput, match="at least one polynomial term"):
            scaled_wave({})

    def test_builtins_keep_their_signed_zeros(self):
        # the signed zeros are pinned too: regrouping f * sign * I changes some of them
        assert format_symbol_file(scalar_wave()).splitlines()[4:] == [
            f"term principal 0,0,0,0 {k} {c}"
            for k, c in [("0,0,0,2", "-1+0j"), ("0,0,2,0", "-1+0j"), ("0,2,0,0", "-1+0j")]
        ] + ["term principal 0,0,0,0 2,0,0,0 1+0j"]
        text = format_symbol_file(scaled_wave({(0, 0, 0, 1): 1 - 2j}, 2)).splitlines()
        assert text[4] == "term principal 0,0,0,1 0,0,0,2 -1+2j,-0+0j,-0+0j,-1+2j"
        assert text[7] == "term principal 0,0,0,1 2,0,0,0 1-2j,0j,0j,1-2j"

    def test_pretty_factors_like_the_ratio_oracle(self):
        draw = random.Random(14)
        xs = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (1, 0, 0, 0), (0, 1, 1, 0)]
        ks = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 0, 0)]
        values = [1.0, -1.0, 2.0, -0.5, 0.25, 3.0]

        def stray():
            return (draw.choice(xs), draw.choice(ks), draw.choice(values))

        factored = 0
        for case in range(10_000):
            # f (k.k) over up to three x-monomials, then maybe one term dropped,
            # one doubled or one stray term added; every fifth case is unstructured
            if case % 5:
                terms = [
                    (xe, ks[mu], c * sign)
                    for xe, c in zip(draw.sample(xs, draw.randint(1, 3)), draw.choices(values, k=3))
                    for mu, sign in enumerate((1, -1, -1, -1))
                ]
                edit, at = draw.randrange(6), draw.randrange(len(terms))
                if edit == 0:
                    del terms[at]
                elif edit == 1:
                    terms[at] = terms[at][:2] + (2 * terms[at][2],)
                elif edit == 2:
                    terms.append(stray())
            else:
                terms = [stray() for _ in range(draw.randint(1, 5))]
            sym = MatrixSymbol(1, 2, terms)
            expected = wave_factored_text(sym)
            factored += expected is not None
            text = pretty(sym)
            assert text == expected if expected else "k^2" not in text, terms
        assert 3000 < factored < 7000, factored

    def test_pretty_reads_complex_f_without_negative_zeros(self):
        # f is read off k0^2; dividing the k1^2 term by -1 would give -0+1j
        assert pretty(scaled_wave({(1, 0, 1, 0): 1j})) == "(1j*x0*x2)*k^2"

    def test_pretty_of_the_zero_symbol(self):
        assert pretty(MatrixSymbol(1, 2)) == "0"


class TestSymbolFiles:
    def test_round_trip(self, rng, maxwell):
        for sym in (maxwell, scaled_example(), random_matrix_symbol(rng, 2, 2)):
            text = format_symbol_file(sym)
            back = parse_symbol_file(text)
            assert same_terms(back, sym)
            assert format_symbol_file(back) == text

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_symbol_file("term principal 0,0,0,0 2,0,0,0 1\n")

    def test_wrong_entry_count(self):
        text = "dimension 2\norder 2\nterm principal 0,0,0,0 2,0,0,0 1,0\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_symbol_file(text)

    @pytest.mark.parametrize(
        "text",
        [
            "dimension -2\norder 0\nterm principal 0,0,0,0 0,0,0,0 1,0,0,1\n",
            "dimension 0\norder 0\n",
            "dimension 1\norder 0\nterm principal 0,0,-1,0 0,0,0,0 1\n",
            "dimension 1\norder 0\nterm lower 0,0,0 0,0,0,0 1\n",
            "dimension 1\norder 0\nterm principal 0,0,0,0 0,0,0,0 nan\n",
        ],
        ids=["negative-dimension", "zero-dimension", "negative-exponent", "short-exponent", "nan"],
    )
    def test_bad_values_raise_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_symbol_file(text)

    @pytest.mark.parametrize("exponent", ["99999999999999999999", str(2**63)])
    def test_exponent_beyond_int64_is_parse_error(self, exponent):
        text = f"dimension 1\norder 0\nterm principal 0,0,0,{exponent} 0,0,0,0 1\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_symbol_file(text)

    def test_dimension_mismatch_in_arithmetic(self, maxwell):
        with pytest.raises(DimensionMismatch):
            maxwell.matmul(random_matrix_symbol(np.random.default_rng(0), 3, 1))
        # a 1 x 1 symbol does not broadcast
        scalar = scalar_wave()
        for a, b in ((scalar, maxwell), (maxwell, scalar)):
            with pytest.raises(DimensionMismatch, match="matmul needs equal dimensions"):
                a.matmul(b)
            with pytest.raises(DimensionMismatch, match="poisson_bracket needs equal"):
                poisson_bracket(a, b, NULL_PT)
            with pytest.raises(DimensionMismatch, match="connection_matrices needs equal"):
                connection_matrices(a, b, NULL_PT.x, NULL_PT.k)

    def test_a_term_may_reach_the_degree_cap(self):
        sym = MatrixSymbol(1, 2, [((0, 0, 0, MAX_DEGREE - 2), (2, 0, 0, 0), 1.0)])
        assert sym.compiled.factors.shape == (len(sym.compiled.coeff), MAX_DEGREE)

    def test_a_term_above_the_degree_cap_is_invalid_input(self):
        with pytest.raises(InvalidInput, match=f"term degree {MAX_DEGREE + 1} exceeds"):
            MatrixSymbol(1, 2, lower_terms=[((0, 0, 0, MAX_DEGREE - 1), (2, 0, 0, 0), 1.0)])
        with pytest.raises(InvalidInput, match="term degree 1000002 exceeds"):
            builtin_symbol("scaled-wave", scale="1+x3^1000000")
        text = f"dimension 1\norder 2\nterm principal 0,0,0,{MAX_DEGREE} 2,0,0,0 1\n"
        with pytest.raises(ParseError, match=f"term degree {MAX_DEGREE + 2} exceeds"):
            parse_symbol_file(text)


SYMBOL_FILE = format_symbol_file(random_matrix_symbol(np.random.default_rng(7), 2, 2)).encode()


@st.composite
def corrupted_symbol_files(draw):
    pos = draw(st.integers(0, len(SYMBOL_FILE) - 1))
    if draw(st.booleans()):
        return SYMBOL_FILE[:pos]
    byte = draw(st.sampled_from(b"09-.,ej \n#") | st.integers(0, 255))
    return SYMBOL_FILE[:pos] + bytes([byte]) + SYMBOL_FILE[pos + 1 :]


@settings(max_examples=400)
@given(corrupted_symbol_files())
def test_truncated_or_overwritten_symbol_files_raise_only_parse_error(raw):
    # latin-1 maps each byte to one character, so every byte reaches the parser
    try:
        parse_symbol_file(raw.decode("latin-1"))
    except ParseError:
        pass


@pytest.mark.parametrize(
    "dimension, order", [(2.5, 2), (2, 2.7), (math.nan, 2), (2, math.inf)]
)
def test_non_integral_dimension_or_order_is_invalid_input(dimension, order):
    with pytest.raises(InvalidInput, match="integer"):
        MatrixSymbol(dimension, order)


@pytest.mark.parametrize(
    "x_exp, k_exp",
    [
        ((0, 0, 0, 0), (2.5, 0, 0, 0)),
        ((0.5, 0, 0, 0), (2, 0, 0, 0)),
        ((0, 0, 0, 0), (2, 0, 0, 1e-9)),
        ((0, 0, 0, math.nan), (2, 0, 0, 0)),
        ((0, 0, 0, 0), (2, 0, 0, -math.inf)),
        ((0, 0, 0, 0), (2, 0, 0, np.float64(math.inf))),
    ],
)
def test_non_integral_exponent_is_invalid_input(x_exp, k_exp):
    # int() would truncate the fractional ones to a different monomial
    with pytest.raises(InvalidInput, match="exponent tuple must be 4 nonnegative int64 values"):
        MatrixSymbol(1, 2, [(x_exp, k_exp, 1.0)])


def test_integral_exponents_of_any_type_are_accepted():
    sym = MatrixSymbol(1, 2, [(np.zeros(4), ("2", "0", "0", "0"), 1.0), ((0.0,) * 4, (0, 2.0, 0, 0), 1.0)])
    assert [ke for _, ke, _ in sym.terms()] == [(0, 2, 0, 0), (2, 0, 0, 0)]


def test_coefficient_shape_must_match_dimension():
    with pytest.raises(DimensionMismatch, match="does not match dimension 2"):
        MatrixSymbol(2, 2, [((0, 0, 0, 0), (2, 0, 0, 0), np.eye(3))])


class TestCompiledSymbol:
    def test_structural_flags(self, maxwell):
        def flags(sym):
            c = sym.compiled
            return c.x_free, c.constant, c.subprincipal_is_zero

        z = (0, 0, 0, 0)
        assert flags(MatrixSymbol.identity(2)) == (True, True, True)
        assert flags(maxwell) == (True, False, True)
        assert flags(scaled_example()) == (False, False, False)
        with_lower = MatrixSymbol(1, 2, scalar_wave().terms(), [(z, z, 1.0)])
        assert flags(with_lower) == (True, False, False)
        # the mixed derivatives of x0 k0 - x1 k1 cancel, so p^s is zero
        e0, e1 = (1, 0, 0, 0), (0, 1, 0, 0)
        assert flags(MatrixSymbol(1, 1, [(e0, e0, 1.0), (e1, e1, -1.0)])) == (False, False, True)

    def test_batch_rows_have_the_bits_of_single_points(self, rng):
        sym = random_matrix_symbol(rng, dimension=3, n_terms=6, lower_terms=3)
        x, k = rng.uniform(-2, 2, (9, 4)), rng.uniform(-2, 2, (9, 4))
        batch = sym.compiled(x, k)
        assert batch.shape == (9, 11, 3, 3)
        singles = np.array([sym.compiled(x[i], k[i]) for i in range(9)])
        assert batch.tobytes() == singles.tobytes()

    def test_outputs_match_derivative_symbols(self, rng):
        sym = random_matrix_symbol(rng)
        pt = PhaseSpacePoint(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
        jet = sym.compiled(pt.x, pt.k)
        expected = [sym.eval(pt), *(sym.diff_x(mu).eval(pt) for mu in range(4))]
        expected += [sym.diff_k(mu).eval(pt) for mu in range(4)]
        expected.append(MatrixSymbol(sym.dimension, sym.order - 1, sym.terms("lower")).eval(pt))
        principal = MatrixSymbol(sym.dimension, sym.order, sym.terms("principal"))
        mixed = sum(principal.diff_x(mu).diff_k(mu).eval(pt) for mu in range(4))
        expected.append(mixed)
        assert np.allclose(jet, np.array(expected), rtol=1e-13, atol=1e-13)


class TestTermBound:
    def test_is_the_sum_of_absolute_terms(self, rng):
        sym = random_matrix_symbol(rng, dimension=3, n_terms=6, lower_terms=3)
        x, k = rng.uniform(-2, 2, (7, 4)), rng.uniform(-2, 2, (7, 4))
        expected = sum(
            np.abs(c) * np.abs(np.prod(x**xe, axis=1) * np.prod(k**ke, axis=1))[:, None, None]
            for xe, ke, c in sym.terms("principal")
        )
        bound = sym.term_bound(x, k)
        assert bound.shape == (7, 3, 3)
        np.testing.assert_allclose(bound, expected, rtol=1e-13)
        assert np.all(np.abs(sym.eval_raw(x, k)) <= bound * (1 + 1e-13))

    def test_on_the_cone_q_is_zero_and_the_bound_is_not(self, maxwell):
        bound = maxwell.term_bound(np.zeros(4), np.array([5.0, 3, 4, 0]))
        assert np.array_equal(bound, 50.0 * np.eye(4))

    def test_an_overflowing_sum_saturates(self, maxwell):
        bound = maxwell.term_bound(np.zeros(4), np.array([1e154, 0, 0, -1e154]))
        assert bound[0, 0] == np.finfo(float).max and np.all(np.isfinite(bound))


class TestLayering:
    """Only ``symbols`` reads the compiled layout."""

    def test_no_other_module_names_the_compiled_layout(self):
        layout = re.compile(r"\b(VALUE|GRAD|LOWER|MIXED)\b|\.coeff\b|\.factors\b")
        src = pathlib.Path(polaray.__file__).parent
        readers = [
            path.name
            for path in sorted(src.glob("*.py"))
            if path.name != "symbols.py" and layout.search(path.read_text(encoding="utf-8"))
        ]
        assert readers == []

    def test_rays_uses_the_symbols_hamilton_system(self):
        assert polaray.rays.HamiltonSystem is polaray.symbols.HamiltonSystem


# -- per-term oracles for the stacked term operations ---------------------
#
# Term-by-term references for construction, scalar detection, the product
# convolution, derivatives and the factor table.  The stacked code in
# ``symbols`` must give the same bits and raise the same errors.


def per_term_normalize(terms, dimension):
    acc = {}
    for x_exp, k_exp, coeff in terms:
        key = (_as_expo(x_exp), _as_expo(k_exp))
        degree = sum(key[0] + key[1])
        if degree > MAX_DEGREE:
            raise InvalidInput(f"term degree {degree} exceeds the maximum of {MAX_DEGREE}")
        mat = np.array(coeff, dtype=complex)
        if mat.shape == () and dimension == 1:
            mat = mat.reshape(1, 1)
        if mat.shape != (dimension, dimension):
            raise DimensionMismatch(
                f"coefficient shape {mat.shape} does not match dimension {dimension}"
            )
        if not np.all(np.isfinite(mat.view(float))):
            raise InvalidInput("non-finite coefficient matrix")
        acc[key] = acc[key] + mat if key in acc else mat
    return {key: m for key, m in sorted(acc.items()) if np.any(m != 0)}


def per_term_scalar_coefficients(terms: dict, dimension: int):
    out = {}
    for key, mat in terms.items():
        if not np.array_equal(mat, mat[0, 0] * np.eye(dimension)):
            return None
        out[key] = mat[0, 0]
    return out


def per_term_convolve(left: dict, right: dict):
    for (xa, ka), ma in left.items():
        for (xb, kb), mb in right.items():
            x_exp = tuple(i + j for i, j in zip(xa, xb))
            k_exp = tuple(i + j for i, j in zip(ka, kb))
            yield (x_exp, k_exp, ma * mb if ma.shape == (1, 1) else ma @ mb)


def per_term_derivative(terms: dict, slot: int):
    for (xe, ke), mat in terms.items():
        e = (xe + ke)[slot]
        if e > 0:
            expo = list(xe + ke)
            expo[slot] -= 1
            yield (expo[:4], expo[4:], mat * e)


def compiled_rows(sym: MatrixSymbol) -> np.ndarray:
    """The distinct exponent rows over (x, k) of a symbol's compiled outputs, sorted."""
    rows = {xe + ke for xe, ke in sym.lower}
    for xe, ke in sym.principal:
        e = xe + ke
        rows.add(e)
        rows |= {e[:s] + (e[s] - 1,) + e[s + 1 :] for s in range(8) if e[s]}
        for mu in range(4):
            if e[mu] and e[4 + mu]:
                mixed = list(e)
                mixed[mu] -= 1
                mixed[4 + mu] -= 1
                rows.add(tuple(mixed))
    return np.array(sorted(rows), dtype=int).reshape(-1, 8)


def per_term_factors(expo: np.ndarray) -> np.ndarray:
    degree = expo.sum(axis=1)
    factors = np.full((len(expo), int(degree.max(initial=0))), 8)
    for t, row in enumerate(expo):
        factors[t, : degree[t]] = np.repeat(np.arange(8), row)
    return factors


def assert_same_bits(got: dict, expected: dict):
    assert list(got) == list(expected)
    for key in got:
        assert got[key].shape == expected[key].shape and got[key].dtype == expected[key].dtype
        assert got[key].tobytes() == expected[key].tobytes(), key


Z4 = (0, 0, 0, 0)
# signed zeros, values that round when summed, and a tiny one that is not zero
PARTS = [0.0, -0.0, 1.0, -1.0, 0.1, -1 / 3, 2.5, 7.0, 1e16, -1e16, 3e-300]
ENTRIES = st.sampled_from([complex(re, im) for re in PARTS for im in PARTS])


@st.composite
def term_lists(draw, dimension: int, k_degree: int):
    """Terms drawn from a few exponent pairs, so duplicates are common; coefficients
    are full matrices, multiples of the identity (exact or off by one tiny entry),
    bare scalars (N = 1) or the negation of an earlier one, which cancels it."""
    xs = st.tuples(*[st.integers(0, 2)] * 4)
    ks = st.sampled_from([(k_degree, 0, 0, 0), (0, k_degree, 0, 0), (0, 0, 0, k_degree)])
    pool = draw(st.lists(st.tuples(xs, ks), min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        x_exp, k_exp = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["matrix", "identity", "nudged", "scalar", "negated"]))
        if kind == "negated" and terms:
            x_exp, k_exp, coeff = terms[draw(st.integers(0, len(terms) - 1))]
            coeff = -np.asarray(coeff)
        elif kind == "matrix":
            coeff = np.array(draw(st.lists(ENTRIES, min_size=dimension**2, max_size=dimension**2)))
            coeff = coeff.reshape(dimension, dimension)
        else:
            coeff = draw(ENTRIES)
            if kind != "scalar" or dimension > 1:
                coeff = coeff * np.eye(dimension)
            if kind == "nudged":  # c * I but for one tiny entry, which is not a multiple
                coeff[draw(st.integers(0, dimension - 1)), 0] += 3e-300
        terms.append((x_exp, k_exp, coeff))
    return terms


@st.composite
def symbol_pairs(draw):
    n = draw(st.sampled_from([1, 2, 3, 4]))
    parts = [draw(term_lists(n, degree)) for degree in (2, 1, 1, 0)]
    return n, parts


# the lower part of a product sums (a.principal)(b.lower) before (a.lower)(b.principal):
# at x1 k0^2 that is (1e17 + 1) - 1e17 = 0, where the other order would give 1
CROSS_TERMS_IN_ORDER = (
    1,
    [
        [(Z4, (2, 0, 0, 0), 1.0), ((1, 0, 0, 0), (2, 0, 0, 0), 1.0)],
        [(Z4, (1, 0, 0, 0), 1.0)],
        [((1, 0, 0, 0), (1, 0, 0, 0), -1e17)],
        [(Z4, Z4, 1.0), ((1, 0, 0, 0), Z4, 1e17)],
    ],
)


@given(symbol_pairs())
@example(CROSS_TERMS_IN_ORDER)
def test_stacked_terms_match_the_per_term_oracles(case):
    n, (p_a, l_a, p_b, l_b) = case
    a, b = MatrixSymbol(n, 2, p_a, l_a), MatrixSymbol(n, 1, p_b, l_b)
    for sym, principal, lower in ((a, p_a, l_a), (b, p_b, l_b)):
        assert_same_bits(sym.principal, per_term_normalize(principal, n))
        assert_same_bits(sym.lower, per_term_normalize(lower, n))
        scalars = scalar_coefficients(sym)
        expected = per_term_scalar_coefficients(sym.principal, n)
        assert (scalars is None) == (expected is None)
        if scalars is not None:
            assert_same_bits(
                {k: np.array(v) for k, v in scalars.items()},
                {k: np.array(v) for k, v in expected.items()},
            )
        for slot in range(8):
            derived = sym.diff_x(slot) if slot < 4 else sym.diff_k(slot - 4)
            for part in ("principal", "lower"):
                oracle = per_term_normalize(per_term_derivative(getattr(sym, part), slot), n)
                assert_same_bits(getattr(derived, part), oracle)
        factors, expected = sym.compiled.factors, per_term_factors(compiled_rows(sym))
        assert factors.dtype == expected.dtype and np.array_equal(factors, expected)
    product = a.matmul(b)
    oracle = per_term_normalize(per_term_convolve(a.principal, b.principal), n)
    assert_same_bits(product.principal, oracle)
    lower = [*per_term_convolve(a.principal, b.lower), *per_term_convolve(a.lower, b.principal)]
    assert_same_bits(product.lower, per_term_normalize(lower, n))


GOOD = (Z4, (2, 0, 0, 0), np.eye(2))


@pytest.mark.parametrize(
    "fault",
    [
        ((0, 0, -1, 0), (2, 0, 0, 0), np.eye(2)),
        ((0, 0, 0), (2, 0, 0, 0), np.eye(2)),
        (Z4, (2.5, 0, 0, 0), np.eye(2)),
        (Z4, ("a", 0, 0, 0), np.eye(2)),
        (Z4, (2, 0, 0, math.nan), np.eye(2)),
        (Z4, (2, 0, 0, 2**63), np.eye(2)),
        ((40, 0, 0, 0), (2, 0, 0, 30), np.eye(2)),
        (Z4, (2, 0, 0, 0), 1.0),
        (Z4, (2, 0, 0, 0), np.eye(3)),
        (Z4, (2, 0, 0, 0), [1.0, 0.0, 0.0, 1.0]),
        (Z4, (2, 0, 0, 0), [[1.0, 0.0], [0.0]]),
        (Z4, (2, 0, 0, 0), [[1.0, None], [0.0, 1.0]]),
        (Z4, (2, 0, 0, 0), [[1.0, "x"], [0.0, 1.0]]),
        (Z4, (2, 0, 0, 0), [[1.0, math.nan], [0.0, 1.0]]),
        (Z4, (2, 0, 0, 0), [[1.0, 0.0], [complex(0, math.inf), 1.0]]),
    ],
)
@pytest.mark.parametrize("at", [0, 1, 2])
def test_a_single_fault_raises_what_the_per_term_oracle_raises(fault, at):
    terms = [GOOD, GOOD]
    terms.insert(at, fault)
    with pytest.raises(Exception) as expected:
        per_term_normalize(terms, 2)
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        MatrixSymbol(2, 2, terms)


def test_a_scalar_fault_in_dimension_one_raises_what_the_oracle_raises():
    terms = [(Z4, (2, 0, 0, 0), 1.0), (Z4, (2, 0, 0, 0), [1.0]), (Z4, (0, 2, 0, 0), [[2.0]])]
    with pytest.raises(DimensionMismatch, match=r"^coefficient shape \(1,\) does not match"):
        per_term_normalize(terms, 1)
    with pytest.raises(DimensionMismatch, match=r"^coefficient shape \(1,\) does not match"):
        MatrixSymbol(1, 2, terms)
    # scalars and 1 x 1 matrices mixed are valid and sum in input order
    mixed = [(Z4, (2, 0, 0, 0), 1.0), (Z4, (2, 0, 0, 0), [[-0.5]]), (Z4, (0, 2, 0, 0), -0.0)]
    assert_same_bits(MatrixSymbol(1, 2, mixed).principal, per_term_normalize(mixed, 1))
