import numpy as np
import pytest
from scipy.integrate import quad

from intertwinor.geometry import KType, Signature, bochner_eigenvalue, neighbors
from intertwinor.zonal import (
    GridTooCoarse,
    _deriv_matrix,
    _gauss_jacobi,
    _poly_matrix,
    ZonalFunction,
    apply_N,
    apply_T_numeric,
    apply_T_via_lemma,
    basis_element,
    evaluate,
    gegenbauer_norm,
    mult_by_cos,
    multiply_by_varpi,
    project,
    quadrature_grid,
)
from scipy.special import eval_chebyt, eval_chebyu, eval_gegenbauer, roots_jacobi


def _eval_1d(lam, c, x):
    if lam == 0:
        return sum(cj * eval_chebyt(j, x) for j, cj in enumerate(c))
    return sum(cj * eval_gegenbauer(j, lam, x) for j, cj in enumerate(c))


class TestMultByCos:
    def test_gegenbauer_delta0(self):
        out = mult_by_cos(1.0, [1.0])
        assert out == pytest.approx([0.0, 0.5])

    def test_chebyshev_double_angle(self):
        # cos(t) * cos(t) = 1/2 + 1/2 cos(2t)
        out = mult_by_cos(0.0, [0.0, 1.0])
        assert out == pytest.approx([0.5, 0.0, 0.5])

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5])
    def test_against_quadrature_oracle(self, lam):
        # compare the recurrence output with brute-force projection of
        # x * f(x) under the weight (1 - x^2)^(lam - 1/2)
        rng = np.random.default_rng(7)
        c = rng.uniform(-1, 1, size=5)
        out = mult_by_cos(lam, c)
        d = 1 + int(round(2 * lam))
        for m in range(len(out)):
            def integrand(x, m=m):
                basis_m = eval_chebyt(m, x) if lam == 0 else eval_gegenbauer(m, lam, x)
                return x * _eval_1d(lam, c, x) * basis_m * (1 - x * x) ** (lam - 0.5)
            raw, _ = quad(integrand, -1, 1)
            assert out[m] == pytest.approx(raw / gegenbauer_norm(d, m), abs=1e-10)


class TestNorms:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_norms_match_quadrature(self, d):
        sig = Signature(d, d)
        grid = quadrature_grid(sig, 8, 8)
        lam = 0.5 * (d - 1)
        for j in range(9):
            vals = (
                eval_chebyt(j, grid.x) if lam == 0 else eval_gegenbauer(j, lam, grid.x)
            )
            assert float(np.sum(grid.wx * vals * vals)) == pytest.approx(
                gegenbauer_norm(d, j), rel=1e-12
            )


@pytest.mark.parametrize("d", range(1, 9))
class TestKernelsAgainstScipy:
    """The recurrence Vandermondes and Golub-Welsch nodes against scipy.special."""

    def test_vandermondes(self, d):
        lam = 0.5 * (d - 1)
        x = np.linspace(-1.0, 1.0, 301)
        V, D = _poly_matrix(d, 140, x), _deriv_matrix(d, 140, x)
        for j in range(141):
            if lam == 0:
                value, slope = eval_chebyt(j, x), j * eval_chebyu(j - 1, x)
            else:
                value, slope = eval_gegenbauer(j, lam, x), 2 * lam * eval_gegenbauer(j - 1, lam + 1, x)
            assert np.max(np.abs(V[:, j] - value)) <= 1e-13 * np.max(np.abs(value)), j
            if j:
                assert np.max(np.abs(D[:, j] - slope)) <= 1e-13 * np.max(np.abs(slope)), j
        assert not D[:, 0].any()

    def test_gauss_jacobi_nodes_and_weights(self, d):
        a = 0.5 * (d - 2)
        for n in range(1, 141):
            x, w = _gauss_jacobi(n, a)
            ref_x, ref_w = roots_jacobi(n, a, a)
            assert np.max(np.abs(x - ref_x)) <= 1e-15, n
            assert np.max(np.abs(w / ref_w - 1.0)) <= (1e-13 if n <= 16 else 1e-10), n


class TestVarpi:
    def test_constant_maps_to_1_1(self):
        sig = Signature(2, 3)
        out = multiply_by_varpi(basis_element(sig, 0, 0))
        support = {
            (j, k)
            for j in range(out.jmax + 1)
            for k in range(out.kmax + 1)
            if abs(out.coeffs[j, k]) > 1e-14
        }
        assert support == {(1, 1)}

    def test_two_circles_quarter_coefficients(self):
        sig = Signature(1, 1)
        out = multiply_by_varpi(basis_element(sig, 1, 1))
        expected = {(0, 0), (0, 2), (2, 0), (2, 2)}
        for j in range(out.jmax + 1):
            for k in range(out.kmax + 1):
                target = 0.25 if (j, k) in expected else 0.0
                assert out.coeffs[j, k] == pytest.approx(target, abs=1e-15)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 2)])
    def test_support_is_exactly_the_neighbor_set(self, p, q):
        sig = Signature(p, q)
        for j in range(5):
            for k in range(5):
                out = multiply_by_varpi(basis_element(sig, j, k))
                support = {
                    KType(a, b)
                    for a in range(out.jmax + 1)
                    for b in range(out.kmax + 1)
                    if abs(out.coeffs[a, b]) > 1e-14
                }
                assert support == {w for w, _ in neighbors(KType(j, k))}

    def test_projection_nontriviality(self):
        # no neighbor coefficient of varpi * phi collapses to zero
        for p, q in [(1, 1), (2, 2), (3, 4)]:
            sig = Signature(p, q)
            for j in range(11):
                for k in range(11):
                    out = multiply_by_varpi(basis_element(sig, j, k))
                    for w, _ in neighbors(KType(j, k)):
                        assert abs(out.coeffs[w.j, w.k]) > 1e-10


class TestBochner:
    def test_eigenfunction_property(self):
        sig = Signature(2, 3)
        for j in range(6):
            for k in range(6):
                phi = basis_element(sig, j, k, jmax=6, kmax=6)
                lam = bochner_eigenvalue(sig, KType(j, k))
                assert np.array_equal(apply_N(phi).coeffs, lam * phi.coeffs)

    def test_example_value(self):
        sig = Signature(2, 3)
        out = apply_N(basis_element(sig, 1, 2))
        assert out.coeffs[1, 2] == 10.0  # 1*2 + 2*4

    def test_linearity(self):
        sig = Signature(1, 2)
        rng = np.random.default_rng(3)
        f = ZonalFunction(sig, rng.uniform(-1, 1, (4, 4)))
        g = ZonalFunction(sig, rng.uniform(-1, 1, (4, 4)))
        lhs = apply_N(f + g).coeffs
        rhs = (apply_N(f) + apply_N(g)).coeffs
        assert np.allclose(lhs, rhs, atol=1e-15)


class TestConformalField:
    def test_kills_constants(self):
        for p, q in [(1, 1), (2, 3), (3, 3)]:
            sig = Signature(p, q)
            out = apply_T_via_lemma(basis_element(sig, 0, 0))
            assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_hand_derivative_of_cos_tau(self):
        # T(cos tau) = -cos(rho) sin^2(tau)
        sig = Signature(1, 1)
        grid = quadrature_grid(sig, 4, 4)
        f = basis_element(sig, 1, 0)
        samples = apply_T_numeric(f, grid)
        expected = -grid.y[None, :] * (1 - grid.x[:, None] ** 2)
        assert np.allclose(samples, expected, atol=1e-13)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (2, 2), (3, 2)])
    def test_commutator_route_matches_derivative_route(self, p, q):
        sig = Signature(p, q)
        rng = np.random.default_rng(11)
        f = ZonalFunction(sig, rng.uniform(-1, 1, (7, 7)))
        grid = quadrature_grid(sig, 7, 7)
        lhs = apply_T_numeric(f, grid)
        rhs = evaluate(apply_T_via_lemma(f), grid)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_single_mode_closed_form(self):
        # (p + q) varpi phi + 2 T phi = N(varpi phi) - varpi(N phi)
        sig = Signature(2, 3)
        phi = basis_element(sig, 1, 0)
        lhs = (sig.n * multiply_by_varpi(phi) + 2.0 * apply_T_via_lemma(phi)).coeffs
        rhs = (apply_N(multiply_by_varpi(phi)) - multiply_by_varpi(apply_N(phi))).coeffs
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestTransformPair:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 3)])
    def test_round_trip(self, p, q):
        sig = Signature(p, q)
        rng = np.random.default_rng(5)
        f = ZonalFunction(sig, rng.uniform(-1, 1, (9, 9)))
        grid = quadrature_grid(sig, 8, 8)
        back = project(evaluate(f, grid), grid, 8, 8)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12

    def test_project_basis_sample_gives_delta(self):
        sig = Signature(2, 2)
        grid = quadrature_grid(sig, 6, 6)
        phi = basis_element(sig, 3, 2, jmax=6, kmax=6)
        c = project(evaluate(phi, grid), grid, 6, 6).coeffs
        expected = np.zeros_like(c)
        expected[3, 2] = 1.0
        assert np.max(np.abs(c - expected)) < 1e-13

    def test_grid_too_coarse(self):
        sig = Signature(2, 2)
        grid = quadrature_grid(sig, 4, 4)
        f = ZonalFunction(sig, np.zeros((8, 8)))
        with pytest.raises(GridTooCoarse):
            evaluate(f, grid)
        with pytest.raises(GridTooCoarse):
            project(np.zeros((8, 8)), grid, 8, 8)
        with pytest.raises(GridTooCoarse):
            apply_T_numeric(ZonalFunction(sig, np.zeros((5, 5))), grid)

