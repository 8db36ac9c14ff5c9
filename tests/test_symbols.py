import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polaray.errors import DimensionMismatch, InvalidInput, ParseError
from polaray.minkowski import phase_point
from polaray.symbols import (
    MatrixSymbol,
    builtin_symbol,
    check_homogeneity,
    differentiate,
    format_symbol_file,
    hamilton_field,
    parse_symbol_file,
    parse_x_polynomial,
    poisson_bracket,
    pretty,
    scalar_wave,
    scaled_wave,
    subprincipal_symbol,
)

from conftest import (
    fd_hamilton_field,
    fd_poisson_bracket,
    fd_subprincipal,
    random_matrix_symbol,
    random_phase_points,
    rel_err,
)

NULL_PT = phase_point([0, 0, 0, 0], [1, 0, 0, -1])
TIME_PT = phase_point([0, 0, 0, 0], [1, 0, 0, 0])


def scaled_example():
    return scaled_wave(parse_x_polynomial("1+x3^2"))


class TestEval:
    def test_maxwell_on_cone_vanishes(self, maxwell):
        assert np.array_equal(maxwell.eval(NULL_PT, "principal"), np.zeros((4, 4)))

    def test_maxwell_timelike_is_identity(self, maxwell):
        assert np.array_equal(maxwell.eval(TIME_PT, "principal"), np.eye(4))

    def test_scaled_wave_on_cone(self):
        pt = phase_point([0, 0, 0, 1], [1, 0, 0, -1])
        assert scaled_example().eval(pt)[0, 0] == 0

    def test_lower_part_evaluation(self):
        sym = MatrixSymbol(
            1, 2, [((0,) * 4, (2, 0, 0, 0), [[1.0]])], [((0,) * 4, (1, 0, 0, 0), [[1.0]])]
        )
        pt = phase_point([0, 0, 0, 0], [3, 0, 0, 0])
        assert sym.eval(pt, "lower")[0, 0] == 3.0

    def test_bad_part_name(self, maxwell):
        with pytest.raises(InvalidInput):
            maxwell.eval(NULL_PT, "middle")


class TestDifferentiate:
    def test_wave_k3_derivative(self):
        d = differentiate(scalar_wave(), "k3")
        assert d.order == 1
        assert d.terms("principal") == [((0, 0, 0, 0), (0, 0, 0, 1), d.terms("principal")[0][2])]
        assert d.terms("principal")[0][2][0, 0] == -2.0

    def test_constant_coefficients_x_derivative_is_zero(self, maxwell):
        assert differentiate(maxwell, "x1").is_zero()

    def test_scaled_wave_x3_derivative(self):
        d = differentiate(scaled_example(), "x3")
        # 2*x3*(k.k): evaluate at x3=2, k=(1,0,0,0) -> 4
        assert d.eval(phase_point([0, 0, 0, 2], [1, 0, 0, 0]))[0, 0] == 4.0

    def test_unknown_variable(self):
        with pytest.raises(InvalidInput):
            differentiate(scalar_wave(), "k4")

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
        dx, _ = hamilton_field(scalar_wave(), phase_point([0] * 4, [2, 0, 0, -2]))
        assert np.array_equal(dx, [4, 0, 0, 4])

    def test_scaled_wave_force_vanishes_on_cone(self):
        _, dk = hamilton_field(scaled_example(), phase_point([0, 0, 0, 1], [1, 0, 0, -1]))
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


class TestSubprincipal:
    def test_constant_coefficients_vanish(self, maxwell):
        assert np.array_equal(subprincipal_symbol(maxwell, NULL_PT), np.zeros((4, 4)))

    def test_scaled_wave_value(self):
        pt = phase_point([0, 0, 0, 1], [1, 0, 0, -1])
        assert subprincipal_symbol(scaled_example(), pt)[0, 0] == 2j

    def test_reduces_to_lower_part(self):
        sym = MatrixSymbol(
            1, 2, [((0,) * 4, (2, 0, 0, 0), [[1.0]])], [((0,) * 4, (1, 0, 0, 0), [[1.0]])]
        )
        pt = phase_point([0, 0, 0, 0], [3, 0, 0, 0])
        assert subprincipal_symbol(sym, pt)[0, 0] == 3.0


class TestHomogeneity:
    def test_wave_quadratic(self):
        assert check_homogeneity(scalar_wave()) == (True, 2)

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
            scaled_pt = phase_point(pt.x, s * pt.k)
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
    pt = phase_point(x, k)
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
    pt = phase_point(x, k)
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
        assert pretty(scalar_wave().scaled(2.0)) == "2*k^2"


class TestSymbolFiles:
    def test_round_trip(self, rng, maxwell):
        for sym in (maxwell, scaled_example(), random_matrix_symbol(rng, 2, 2)):
            text = format_symbol_file(sym)
            back = parse_symbol_file(text)
            assert back.same_terms(sym)
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

    def test_dimension_mismatch_in_arithmetic(self, maxwell):
        with pytest.raises(DimensionMismatch):
            maxwell.add(scalar_wave())
        with pytest.raises(DimensionMismatch):
            maxwell.matmul(random_matrix_symbol(np.random.default_rng(0), 3, 1))


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


class TestCompiledSymbol:
    def test_batch_rows_have_the_bits_of_single_points(self, rng):
        sym = random_matrix_symbol(rng, dimension=3, n_terms=6, lower_terms=3)
        x, k = rng.uniform(-2, 2, (9, 4)), rng.uniform(-2, 2, (9, 4))
        batch = sym.compiled(x, k)
        assert batch.shape == (9, 11, 3, 3)
        singles = np.array([sym.compiled(x[i], k[i]) for i in range(9)])
        assert batch.tobytes() == singles.tobytes()

    def test_outputs_match_derivative_symbols(self, rng):
        sym = random_matrix_symbol(rng)
        pt = phase_point(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
        jet = sym.compiled(pt.x, pt.k)
        expected = [sym.eval(pt), *(sym.diff_x(mu).eval(pt) for mu in range(4))]
        expected += [sym.diff_k(mu).eval(pt) for mu in range(4)]
        expected.append(sym.eval(pt, "lower"))
        principal = MatrixSymbol(sym.dimension, sym.order, sym.terms("principal"))
        mixed = sum(principal.diff_x(mu).diff_k(mu).eval(pt) for mu in range(4))
        expected.append(mixed)
        assert np.allclose(jet, np.array(expected), rtol=1e-13, atol=1e-13)
