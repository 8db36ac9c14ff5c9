import json
import math

import numpy as np
import pytest

from polaray.cli import run
from polaray.errors import DimensionMismatch, InvalidInput
from polaray.minkowski import SIGNATURE, PhaseSpacePoint
from polaray.principal_type import (
    ComplexSymbol,
    NoDecomposition,
    _fiber_norm,
    char_membership,
    decompose_principal_type,
    is_real_principal_type,
    kernel_basis,
    kernel_residual,
)
from polaray.rays import trace_ray
from polaray.symbols import (
    HamiltonSystem,
    MatrixSymbol,
    check_homogeneity,
    format_symbol_file,
    parse_x_polynomial,
    pretty,
    scalar_wave,
    scaled_wave,
)

from conftest import EXACT_NULL_COVECTORS, exact_null_points, random_null_covector
from oracles import same_terms

NULL_PT = PhaseSpacePoint([0, 0, 0, 0], [1, 0, 0, -1])
TIME_PT = PhaseSpacePoint([0, 0, 0, 0], [1, 0, 0, 0])
# x3^8 overflows at x3 = 1e40
X8_WAVE = scaled_wave(parse_x_polynomial("1+x3^8"))
OVERFLOW_PT = PhaseSpacePoint([0, 0, 0, 1e40], [1, 0, 0, -1])
OVERFLOW_SITE = r"not finite at x = \(0, 0, 0, 1e\+40\), k = \(1, 0, 0, -1\)$"


def diag_symbol(entries_by_kexp):
    """diag matrix symbol from {k_exp: (d0, d1, ...)} with zero x-exponents."""
    n = len(next(iter(entries_by_kexp.values())))
    terms = [
        ((0, 0, 0, 0), k_exp, np.diag(np.asarray(diag, dtype=complex)))
        for k_exp, diag in entries_by_kexp.items()
    ]
    order = max(sum(k) for k in entries_by_kexp)
    return MatrixSymbol(n, order, terms)


class TestDecompose:
    def test_scalar_multiple_auto(self, maxwell):
        d = decompose_principal_type(maxwell)
        assert pretty(d.q) == "k^2"
        assert same_terms(d.p_tilde, MatrixSymbol.identity(4))
        assert d.scalar_multiple

    def test_a_constant_hint_is_c_times_the_identity(self, maxwell):
        z = (0, 0, 0, 0)
        with pytest.raises(DimensionMismatch, match="got 1x1 and 4x4"):
            decompose_principal_type(maxwell, hint=MatrixSymbol(1, 0, [(z, z, [[2.0]])]))
        d = decompose_principal_type(maxwell, hint=MatrixSymbol(4, 0, [(z, z, 2 * np.eye(4))]))
        assert pretty(d.q) == "2*k^2"

    def test_diagonal_with_hint(self):
        # p = diag(k^2, 2 k^2), hint diag(2, 1) -> q = 2 k^2
        wave = {ke: m[0, 0] for _, ke, m in scalar_wave().terms("principal")}
        p = diag_symbol({ke: (c, 2 * c) for ke, c in wave.items()})
        hint = diag_symbol({(0, 0, 0, 0): (2.0, 1.0)})
        d = decompose_principal_type(p, hint=hint)
        assert pretty(d.q) == "2*k^2"
        assert not d.scalar_multiple

    def test_mixed_degree_rows_fail(self):
        p = MatrixSymbol(
            2,
            2,
            [
                ((0, 0, 0, 0), (2, 0, 0, 0), np.diag([1.0, 0.0])),
                ((0, 0, 0, 0), (1, 0, 0, 0), np.diag([0.0, 1.0])),
            ],
        )
        for hint in (None, MatrixSymbol.identity(2)):
            with pytest.raises(NoDecomposition):
                decompose_principal_type(p, hint=hint)

    def test_bad_hint_rejected(self, maxwell):
        bad = MatrixSymbol(4, 0, [((0, 0, 0, 0), (0, 0, 0, 0), np.diag([1.0, 2, 3, 4]))])
        with pytest.raises(NoDecomposition):
            decompose_principal_type(maxwell, hint=bad)

    def test_identity_is_exact(self, maxwell):
        # p~ p - q * 1 must vanish coefficient by coefficient
        wave = {ke: m[0, 0] for _, ke, m in scalar_wave().terms("principal")}
        p = diag_symbol({ke: (c, 2 * c) for ke, c in wave.items()})
        hint = diag_symbol({(0, 0, 0, 0): (2.0, 1.0)})
        d = decompose_principal_type(p, hint=hint)
        product = d.p_tilde.matmul(d.p)
        eye = np.eye(p.dimension)
        for (xe, ke), mat in product.principal.items():
            expected = d.q.principal.get((xe, ke), np.zeros((1, 1)))[0, 0] * eye
            assert np.array_equal(mat, expected)


class TestRealPrincipalType:
    def test_wave_on_cone(self, maxwell_decomposition):
        assert is_real_principal_type(maxwell_decomposition.q, NULL_PT) is True

    def test_zero_fiber_rejected(self):
        with pytest.raises(ValueError):
            PhaseSpacePoint([0, 0, 0, 0], [0, 0, 0, 0])

    def test_degenerate_cubic(self):
        cubic = MatrixSymbol(1, 3, [((0, 0, 0, 0), (3, 0, 0, 0), [[1.0]])])
        assert is_real_principal_type(cubic, PhaseSpacePoint([0] * 4, [0, 1, 0, 0])) is False

    def test_complex_symbol_raises(self):
        sym = MatrixSymbol(1, 1, [((0, 0, 0, 0), (1, 0, 0, 0), [[1j]])])
        with pytest.raises(ComplexSymbol):
            is_real_principal_type(sym, TIME_PT)

    def test_overflowing_q_is_invalid_input(self):
        # x3^8 overflows to a NaN q, which is refused rather than judged
        with pytest.raises(InvalidInput, match=OVERFLOW_SITE):
            is_real_principal_type(X8_WAVE, OVERFLOW_PT)


class TestCharMembership:
    def test_null_covector_on_char(self, maxwell_decomposition):
        assert char_membership(maxwell_decomposition, NULL_PT) is True

    def test_complex_q_is_refused(self):
        d = decompose_principal_type(MatrixSymbol(1, 1, [((0, 0, 0, 0), (1, 0, 0, 0), [[1j]])]))
        with pytest.raises(ComplexSymbol):
            char_membership(d, TIME_PT)

    def test_overflowing_q_is_invalid_input(self):
        with pytest.raises(InvalidInput, match=OVERFLOW_SITE):
            char_membership(decompose_principal_type(X8_WAVE), OVERFLOW_PT)

    def test_timelike_off_char(self, maxwell_decomposition):
        assert char_membership(maxwell_decomposition, TIME_PT) is False

    def test_tiny_covector_on_cone(self, maxwell_decomposition):
        # |k| and dq/dk underflow here, so both verdicts must come from k/|k|
        pt = PhaseSpacePoint([0] * 4, [1e-200, 0, 0, -1e-200])
        assert char_membership(maxwell_decomposition, pt) is True
        assert is_real_principal_type(maxwell_decomposition.q, pt) is True

    def test_pythagorean_cone_point(self, maxwell_decomposition):
        assert char_membership(maxwell_decomposition, PhaseSpacePoint([0] * 4, [5, 3, 4, 0])) is True


class TestKernelBasis:
    def test_whole_space_on_cone(self, maxwell):
        vectors, _ = kernel_basis(maxwell, NULL_PT)
        assert len(vectors) == 4

    def test_empty_off_cone(self, maxwell):
        assert len(kernel_basis(maxwell, TIME_PT)[0]) == 0

    def test_diagonal_partial_kernel(self):
        wave = {ke: m[0, 0] for _, ke, m in scalar_wave().terms("principal")}
        p = diag_symbol({ke: (c, 0.0) for ke, c in wave.items()})
        p = MatrixSymbol(
            2,
            2,
            p.terms("principal") + [((0, 0, 0, 0), (0, 0, 0, 0), np.diag([0.0, 1.0]))],
        )
        vectors, _ = kernel_basis(p, NULL_PT)
        assert len(vectors) == 1
        assert abs(abs(vectors[0][0]) - 1.0) < 1e-14

    def test_overflowing_p_is_invalid_input(self):
        # x3^8 overflows; a large k does not, since p is taken at scaled_covector(k)
        with pytest.raises(InvalidInput, match=OVERFLOW_SITE):
            kernel_basis(X8_WAVE, OVERFLOW_PT)

    def test_vectors_orthonormal(self, maxwell, rng):
        for pt in exact_null_points(rng, 5):
            vectors, _ = kernel_basis(maxwell, pt)
            gram = vectors.conj() @ vectors.T
            np.testing.assert_allclose(gram, np.eye(len(vectors)), atol=1e-13)


class TestCharKernelConsistency:
    def test_iff_over_point_families(self, maxwell, maxwell_decomposition, rng):
        pts = exact_null_points(rng, 400)
        pts += [
            PhaseSpacePoint(rng.uniform(-1, 1, 4), random_null_covector(rng))
            for _ in range(300)
        ]
        pts += [
            PhaseSpacePoint(rng.uniform(-1, 1, 4), k)
            for k in (rng.uniform(-2, 2, (300, 4)))
            if np.linalg.norm(k) > 0.2
        ]
        assert len(pts) >= 950
        for pt in pts:
            on_char = char_membership(maxwell_decomposition, pt)
            dim = len(kernel_basis(maxwell, pt)[0])
            assert on_char == (dim > 0)

    @pytest.mark.parametrize("delta", [0, 3e-11, 9e-11, 1.2e-10, 1.5e-10, 1.8e-10, 3e-10, 1e-6])
    def test_unequal_multiples_have_the_whole_fiber_or_nothing(self, delta):
        # p = diag(q, 2q), |q| / (term size) = delta: both singular directions
        # measure the same relative |q|, so they join the kernel together,
        # and exactly where the point is on the characteristic set
        wave = {ke: m[0, 0] for _, ke, m in scalar_wave().terms("principal")}
        p = diag_symbol({ke: (c, 2 * c) for ke, c in wave.items()})
        d = decompose_principal_type(p, hint=diag_symbol({(0, 0, 0, 0): (2.0, 1.0)}))
        pt = PhaseSpacePoint([0.0] * 4, [np.sqrt(1 + 2 * delta), 1.0, 0.0, 0.0])
        dim = len(kernel_basis(p, pt)[0])
        assert dim == (2 if delta < 1e-10 else 0) == 2 * char_membership(d, pt)

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_conicity(self, maxwell, maxwell_decomposition, rng, s):
        pts = exact_null_points(rng, 40)
        pts += [PhaseSpacePoint(rng.uniform(-1, 1, 4), rng.uniform(-2, 2, 4)) for _ in range(20)]
        for pt in pts:
            scaled = PhaseSpacePoint(pt.x, s * pt.k)
            assert char_membership(maxwell_decomposition, pt) == char_membership(
                maxwell_decomposition, scaled
            )
            assert (
                len(kernel_basis(maxwell, pt)[0]) == len(kernel_basis(maxwell, scaled)[0])
            )

    def test_norms_have_the_bits_of_np_linalg_norm(self, maxwell, rng):
        specials = [0.0, 1e-200, 1e200, math.nan, complex(0.0, math.nan), -0.0]
        pt = PhaseSpacePoint(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
        for n in range(300):
            v = (rng.normal(size=4) + 1j * rng.normal(size=4)) * 10.0 ** rng.integers(-150, 150)
            if n % 2:  # put a few special entries in at random places
                v[rng.integers(4, size=2)] = rng.choice(specials, size=2)
            with np.errstate(over="ignore", invalid="ignore"):  # squares of 1e200 overflow
                want = norm_by_parts(v)
                residual = norm_by_parts(maxwell.eval(pt) @ v) / want if want else 0.0
                got = [_fiber_norm(v), kernel_residual(maxwell, pt, v)]
            assert np.array(got).view(np.uint64).tolist() == (
                np.array([want, residual]).view(np.uint64).tolist()
            )

    @pytest.mark.parametrize("e", [-1000, -600, -300, 300, 600, 1000])
    def test_norms_scale_exactly_by_powers_of_two(self, maxwell, rng, e):
        # 2^e v and p(x, 2^(e/2) k) keep the bits of v and p(x, k) scaled by 2^e
        for _ in range(50):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            big = np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e)
            with np.errstate(over="ignore"):  # as kernel_residual and project_wavefront call it
                assert _fiber_norm(big) == math.ldexp(_fiber_norm(v), e) > 0.0
            x, k = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
            got = kernel_residual(maxwell, PhaseSpacePoint(x, np.ldexp(k, e // 2)), v)
            assert got == math.ldexp(kernel_residual(maxwell, PhaseSpacePoint(x, k), v), e)

    def test_fiber_linearity(self, maxwell, rng):
        for k in EXACT_NULL_COVECTORS[:5]:
            pt = PhaseSpacePoint([0.3, 0, 0, 0], k)
            vectors, _ = kernel_basis(maxwell, pt)
            for v in vectors:
                for phase in (1j, np.exp(0.7j), -1.0):
                    assert kernel_residual(maxwell, pt, phase * v) <= 1e-12


def norm_by_parts(v) -> float:
    """np.linalg.norm(v) where its squares sum within [2^-900, 2^900]; elsewhere the same
    sum taken on v scaled by the power of two that puts its largest part in [1, 2)."""
    norm = float(np.linalg.norm(v))
    if 2.0**-450 <= norm <= 2.0**450:
        return norm
    parts = np.fmax(np.abs(v.real), np.abs(v.imag))
    e = 1 - math.frexp(float(np.max(parts)))[1] if np.any(parts > 0) else 0
    scaled = np.empty_like(v)
    scaled.real, scaled.imag = np.ldexp(v.real, e), np.ldexp(v.imag, e)
    return math.ldexp(float(np.linalg.norm(scaled)), -e)


class TestOneEvaluation:
    """Each verdict on q comes from one evaluation of q's Hamilton system."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"hamilton": 0, "term_bound": 0}
        evaluate, bound = HamiltonSystem.__call__, MatrixSymbol.term_bound

        def counting_evaluate(system, y):
            counts["hamilton"] += 1
            return evaluate(system, y)

        def counting_bound(sym, x, k):
            counts["term_bound"] += 1
            return bound(sym, x, k)

        monkeypatch.setattr(HamiltonSystem, "__call__", counting_evaluate)
        monkeypatch.setattr(MatrixSymbol, "term_bound", counting_bound)
        return counts

    def test_is_real_principal_type(self, maxwell_decomposition, counts):
        assert is_real_principal_type(maxwell_decomposition.q, NULL_PT) is True
        assert counts == {"hamilton": 1, "term_bound": 1}

    def test_char_membership(self, maxwell_decomposition, counts):
        assert char_membership(maxwell_decomposition, NULL_PT) is True
        assert counts == {"hamilton": 1, "term_bound": 1}

    def test_trace_ray_before_its_first_step(self, maxwell_decomposition, counts):
        trace_ray(maxwell_decomposition.q, NULL_PT.x, NULL_PT.k, (0.0, 0.0), 1.0)
        assert counts == {"hamilton": 1, "term_bound": 1}

    def test_trace_ray_off_the_scaled_covector(self, maxwell_decomposition, counts):
        # the verdicts at scaled_covector(k0) = k0 / 4, the first stage at k0 itself
        # and the drift bound's term size at k0
        ray = trace_ray(maxwell_decomposition.q, NULL_PT.x, 4 * NULL_PT.k, (0.0, 0.0), 1.0)
        assert counts == {"hamilton": 2, "term_bound": 2}
        assert ray.k[0].tolist() == [4, 0, 0, -4]

    @pytest.mark.parametrize("k", ["1,0,0,-1", "4,0,0,-4"])
    def test_check_type(self, counts, capsys, k):
        # q, on_char and real_principal_type from one evaluation; the other term_bound is
        # p's, inside kernel_basis
        assert run(["check-type", "--symbol", "flat-maxwell", "--point", "0,0,0,0", "--k", k]) == 0
        assert counts == {"hamilton": 1, "term_bound": 2}
        out = json.loads(capsys.readouterr().out)
        assert (out["q_value"], out["on_char"], out["real_principal_type"]) == (0.0, True, True)


def r_xi(a: float) -> MatrixSymbol:
    """(k.k) delta_mu^nu - a k_mu k^nu: R_xi gauge for a = 1 - 1/xi, its hint for a = 1 - xi."""
    z = (0, 0, 0, 0)
    terms = [(z, ke, m[0, 0] * np.eye(4)) for _, ke, m in scalar_wave().terms()]
    for mu, nu in np.ndindex(4, 4):
        coeff = np.zeros((4, 4))
        coeff[mu, nu] = -a * SIGNATURE[nu]
        terms.append((z, tuple(np.eye(4, dtype=int)[mu] + np.eye(4, dtype=int)[nu]), coeff))
    return MatrixSymbol(4, 2, terms)


# xi: (p, hint)
R_XI = {
    "1/2": (r_xi(1 - 2), r_xi(1 - 0.5)),
    "1": (r_xi(0.0), None),
    "2": (r_xi(1 - 0.5), r_xi(1 - 2)),
    "inf": (r_xi(1.0), None),
}
R_XI_START = ("--tau", "0:1", "--step", "0.5", "--x0", "0,0,0,0", "--k", "1,0,0,-1")


class TestRXiGauges:
    """The gauge decides whether Maxwell's operator is of real principal type.

    R_xi at k = (1, 0, 0, -1): Feynman gauge (xi = 1) is q = k.k times the identity;
    xi = 1/2 and 2 decompose only to q = (k.k)^2, whose dq/dk vanishes on the cone, and
    the kernel there is 3-dimensional although det p vanishes to order 4; the Maxwell
    operator itself (xi = inf) has no decomposition.
    """

    # xi: (q's order or None, real principal type, kernel dimension,
    #      exit codes of check-type, trace and transport)
    TABLE = {
        "1/2": (4, False, 3, (0, 1, 1)),
        "1": (2, True, 4, (0, 0, 0)),
        "2": (4, False, 3, (0, 1, 1)),
        "inf": (None, None, 3, (1, 1, 1)),
    }

    @pytest.mark.parametrize("xi", TABLE)
    def test_verdicts(self, xi, capsys, tmp_path, monkeypatch):
        p, hint = R_XI[xi]
        order, principal, kernel, codes = self.TABLE[xi]
        if order is None:
            with pytest.raises(NoDecomposition):
                decompose_principal_type(p, hint=hint)
            found = None
        else:
            d = decompose_principal_type(p, hint=hint)
            assert check_homogeneity(d.q) == (True, order)
            found = is_real_principal_type(d.q, NULL_PT)
        assert (found, len(kernel_basis(p, NULL_PT)[0])) == (principal, kernel)

        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.txt").write_text(format_symbol_file(p))
        files = ("--symbol-file", "p.txt")
        if hint is not None:
            (tmp_path / "hint.txt").write_text(format_symbol_file(hint))
            files += ("--hint-file", "hint.txt")
        runs = [
            ("check-type", *files, "--point", "0,0,0,0", "--k", "1,0,0,-1"),
            ("trace", *files, *R_XI_START),
            ("transport", *files, *R_XI_START, "--omega0", "0,1,0,0"),
        ]
        outcomes = []
        for argv in runs:
            outcomes.append((run(list(argv)), capsys.readouterr()))
        assert tuple(code for code, _ in outcomes) == codes
        if order is not None:
            # check-type's verdict is the trace's start gate
            assert json.loads(outcomes[0][1].out)["real_principal_type"] is principal
            assert principal or outcomes[1][1].err.startswith("StationaryStart:")
        else:
            assert all(out.err.startswith("NoDecomposition:") for _, out in outcomes)

    def test_maxwell_refuses_every_hint_tried(self):
        # R_xi at xi = 1, inf and 1/2
        for a in (0.0, 1.0, -1.0):
            with pytest.raises(NoDecomposition):
                decompose_principal_type(R_XI["inf"][0], hint=r_xi(a))
