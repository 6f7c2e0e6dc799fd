import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from intertwinor import spectrum
from intertwinor.geometry import DIRECTIONS, STEPS, KType, Signature, doubled_shifts, neighbor
from intertwinor.verify import seeded_stack
from intertwinor.zonal import (
    GRID_MARGIN,
    GridTooCoarse,
    _axis_coefficients,
    _christoffel_weights,
    _derivative_columns,
    _gauss_jacobi_nodes,
    _jacobi_recurrence,
    _three_term_columns,
    ZonalFunction,
    apply_N,
    apply_T_banded,
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_zonal_function_rejects_non_finite_coefficients(bad):
    coeffs = np.zeros((2, 3, 3))
    coeffs[1, 2, 0] = bad
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        ZonalFunction(Signature(2, 3), coeffs)


def test_zonal_function_holds_a_float_array_and_compares_by_identity():
    f = ZonalFunction(Signature(2, 3), [1, 2])
    assert f.coeffs.dtype == float and f.coeffs.shape == (1, 2) and (f.jmax, f.kmax) == (0, 1)
    assert f == f and f != ZonalFunction(Signature(2, 3), [1, 2])


@pytest.mark.parametrize("j, k, jmax, kmax",
                         [(-1, 0, 3, 3), (0, -1, 3, 3), (4, 0, 3, 3), (0, 4, 3, 3), (-1, -1, None, None)])
def test_basis_element_outside_its_window_raises(j, k, jmax, kmax):
    # (-1, 0) once wrapped round to phi_30 and (4, 0) raised a bare IndexError
    with pytest.raises(ValueError, match=rf"^basis element \({j}, {k}\) must lie in the window "):
        basis_element(Signature(2, 3), j, k, jmax=jmax, kmax=kmax)
    assert basis_element(Signature(2, 3), 3, 0, jmax=3).coeffs.tolist() == [[0.0], [0.0], [0.0], [1.0]]


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


def reference_mult_by_cos(lam, c):
    """The scalar loop over j that mult_by_cos replaced, kept as its reference."""
    out = np.zeros(len(c) + 1)
    if lam == 0:
        for j, cj in enumerate(c):
            if j == 0:
                out[1] += cj
            else:
                out[j + 1] += 0.5 * cj
                out[j - 1] += 0.5 * cj
    else:
        for j, cj in enumerate(c):
            out[j + 1] += (j + 1) / (2.0 * (j + lam)) * cj
            if j >= 1:
                out[j - 1] += (j + 2.0 * lam - 1) / (2.0 * (j + lam)) * cj
    return out


def reference_cos_matrix(d, deg):
    """The dense matrix of x * f on degrees <= deg, column by column from the scalar loop: the oracle of varpi."""
    lam = 0.5 * (d - 1)
    M = np.zeros((deg + 2, deg + 1))
    for j in range(deg + 1):
        unit = np.zeros(deg + 1)
        unit[j] = 1.0
        M[:, j] = reference_mult_by_cos(lam, unit)
    return M


class TestMultByCosMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(lam=st.one_of(st.just(0.0), st.sampled_from([0.5 * m for m in range(1, 8)]),
                         st.floats(1e-3, 20.0)),
           c=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=140))
    def test_vector_equals_scalar_loop(self, lam, c):
        assert np.array_equal(mult_by_cos(lam, c), reference_mult_by_cos(lam, c))

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.5])
    def test_columns_are_independent_vectors(self, lam):
        c = np.random.default_rng(9).uniform(-1, 1, size=(17, 6))
        out = mult_by_cos(lam, c)
        for col in range(6):
            assert np.array_equal(out[:, col], reference_mult_by_cos(lam, c[:, col]))

    #: Largest difference of multiply_by_varpi from the dense products, relative to each function's
    #: coefficient sup-norm: rounding in another order, at most 3.3e-16 over 1,500 draws like these.
    VARPI_BOUND = 1e-15

    @pytest.mark.parametrize("p", range(1, 9))
    @settings(max_examples=20, deadline=None)
    @given(q=st.integers(1, 8), count=st.integers(1, 5), jmax=st.integers(0, 140), kmax=st.integers(0, 140),
           scale=st.integers(-20, 20), seed=st.integers(0, 2**32 - 1))
    @example(q=1, count=5, jmax=140, kmax=140, scale=0, seed=0)
    def test_varpi_equals_dense_oracle(self, p, q, count, jmax, kmax, scale, seed):
        # the recurrence along j and then k, against products of the dense matrices of the scalar loop;
        # with Chebyshev on both axes every product is by 1/2 or 1 and exact, so each pass rounds one sum of two
        # terms, the same in either order: equal bit for bit
        c = np.random.default_rng(seed).uniform(-1, 1, (count, jmax + 1, kmax + 1)) * 2.0**scale
        out = multiply_by_varpi(ZonalFunction(Signature(p, q), c)).coeffs
        dense = reference_cos_matrix(p, jmax) @ c @ reference_cos_matrix(q, kmax).T
        if p == q == 1:
            assert np.array_equal(out, dense)
        sup = np.max(np.abs(c), axis=(1, 2), keepdims=True)
        assert np.all(np.abs(out - dense) <= self.VARPI_BOUND * sup)


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
        V, D = _three_term_columns(lam, 140, x), _derivative_columns(lam, 140, x)
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
            x = _gauss_jacobi_nodes(n, a)
            w = _christoffel_weights(x, a)
            ref_x, ref_w = roots_jacobi(n, a, a)
            assert np.max(np.abs(x - ref_x)) <= 1e-15, n
            assert np.max(np.abs(w / ref_w - 1.0)) <= (1e-13 if n <= 16 else 1e-10), n


@pytest.mark.parametrize("d", [342, 343, 400])
def test_gauss_jacobi_beyond_the_gamma_range(d):
    # from d = 343 on, Gamma(a + 3/2) of the weight's integral overflows a float
    a = 0.5 * (d - 2)
    for n in (1, 2, 5, 40):
        x = _gauss_jacobi_nodes(n, a)
        ref_x, ref_w = roots_jacobi(n, a, a)
        assert np.max(np.abs(x - ref_x)) <= 1e-15, n
        assert np.max(np.abs(_christoffel_weights(x, a) / ref_w - 1.0)) <= 1e-12, n


def reference_gegenbauer_columns(lam, deg, x):
    """V[a, j] = C_j^lam(x_a), one recurrence column per loop step."""
    V = np.empty((len(x), deg + 1))
    V[:, 0] = 1.0
    if deg >= 1:
        V[:, 1] = 2.0 * lam * x
    for j in range(1, deg):
        V[:, j + 1] = (2.0 * (j + lam) * x * V[:, j] - (j + 2.0 * lam - 1.0) * V[:, j - 1]) / (j + 1)
    return V


def reference_poly_matrix(d, deg, x):
    lam = 0.5 * (d - 1)
    if lam > 0:
        return reference_gegenbauer_columns(lam, deg, x)
    V = np.empty((len(x), deg + 1))
    V[:, 0] = 1.0
    if deg >= 1:
        V[:, 1] = x
    for j in range(1, deg):
        V[:, j + 1] = 2.0 * x * V[:, j] - V[:, j - 1]
    return V


def reference_deriv_matrix(d, deg, x):
    lam = 0.5 * (d - 1)
    D = np.zeros((len(x), deg + 1))
    if deg >= 1:
        scale = 2.0 * lam if lam > 0 else np.arange(1.0, deg + 1)
        D[:, 1:] = scale * reference_gegenbauer_columns(lam + 1.0, deg - 1, x)
    return D


def reference_gauss_jacobi(n, a):
    """Golub-Welsch nodes with one Newton step, the recurrence for P_n and P_n' run for one axis alone."""
    off, mass = _jacobi_recurrence(n, a)
    x = np.linalg.eigvalsh(np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    prev, cur = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mass))
    dprev, dcur = np.zeros_like(x), np.zeros_like(x)
    for m, c in enumerate(off):
        below = off[m - 1] if m else 0.0
        prev, cur, dprev, dcur = (cur, (x * cur - below * prev) / c,
                                  dcur, (cur + x * dcur - below * dprev) / c)
    return x - cur / dcur


GRID_DEGREES = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (2, 0), (3, 11), (17, 6), (24, 24)]


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 8) for q in range(1, 8)] + [(343, 3), (2, 343)])
def test_quadrature_grid_equals_per_axis_loops(p, q):
    # the grid's nodes and Vandermondes against one loop per axis and family written out here, bit for bit
    for jdeg, kdeg in GRID_DEGREES:
        grid = quadrature_grid(Signature(p, q), jdeg, kdeg)
        x = reference_gauss_jacobi(jdeg + GRID_MARGIN, 0.5 * (p - 2))
        y = reference_gauss_jacobi(kdeg + GRID_MARGIN, 0.5 * (q - 2))
        expected = (x, y, reference_poly_matrix(p, jdeg, x), reference_deriv_matrix(p, jdeg, x),
                    reference_poly_matrix(q, kdeg, y), reference_deriv_matrix(q, kdeg, y))
        actual = (grid.x, grid.y, grid.Vx, grid.Dx, grid.Vy, grid.Dy)
        for name, got, want in zip(("x", "y", "Vx", "Dx", "Vy", "Dy"), actual, expected):
            assert got.shape == want.shape and np.array_equal(got, want), (name, jdeg, kdeg)


def test_grid_margin_is_four_nodes():
    # degrees (8, 5) take 8 + 4 nodes on x and 5 + 4 on y, written as literals so a smaller margin fails
    grid = quadrature_grid(Signature(2, 3), 8, 5)
    assert (grid.x.size, grid.y.size) == (12, 9)


class TestGridVandermondes:
    """The grid-held Vandermondes, sliced, against matrices built from scratch."""

    @pytest.mark.parametrize("p,q,jdeg,kdeg", [(1, 1, 12, 9), (2, 3, 33, 33), (4, 1, 7, 20),
                                               (3, 6, 129, 129), (1, 2, 0, 1)])
    def test_slices_equal_every_smaller_degree(self, p, q, jdeg, kdeg):
        grid = quadrature_grid(Signature(p, q), jdeg, kdeg)
        for d, deg, nodes, V, D in ((p, jdeg, grid.x, grid.Vx, grid.Dx), (q, kdeg, grid.y, grid.Vy, grid.Dy)):
            assert V.shape == D.shape == (len(nodes), deg + 1)
            for m in range(deg + 1):
                assert np.array_equal(V[:, : m + 1], reference_poly_matrix(d, m, nodes)), (d, m)
                assert np.array_equal(D[:, : m + 1], reference_deriv_matrix(d, m, nodes)), (d, m)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (5, 2)])
    def test_operators_equal_scratch_builds(self, p, q):
        sig = Signature(p, q)
        grid = quadrature_grid(sig, 14, 11)
        rng = np.random.default_rng(p + 10 * q)
        for jmax, kmax in ((0, 0), (3, 7), (13, 10), (14, 11)):
            f = ZonalFunction(sig, rng.uniform(-1, 1, (jmax + 1, kmax + 1)))
            Vx, Vy = reference_poly_matrix(p, jmax, grid.x), reference_poly_matrix(q, kmax, grid.y)
            assert np.array_equal(evaluate(f, grid), Vx @ f.coeffs @ Vy.T)
            samples = evaluate(f, grid)
            weighted = samples * grid.wx[:, None] * grid.wy[None, :]
            hx = np.array([gegenbauer_norm(p, j) for j in range(jmax + 1)])
            hy = np.array([gegenbauer_norm(q, k) for k in range(kmax + 1)])
            assert np.array_equal(project(samples, grid, jmax, kmax).coeffs,
                                  (Vx.T @ weighted @ Vy) / (hx[:, None] * hy[None, :]))
            if jmax < 14 and kmax < 11:
                fx = reference_deriv_matrix(p, jmax, grid.x) @ f.coeffs @ Vy.T
                fy = Vx @ f.coeffs @ reference_deriv_matrix(q, kmax, grid.y).T
                x, y = grid.x[:, None], grid.y[None, :]
                assert np.array_equal(apply_T_numeric(f, grid),
                                      -y * (1.0 - x**2) * fx - x * (1.0 - y**2) * fy)


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
                assert support == {neighbor(KType(j, k), tag) for tag in DIRECTIONS} - {None}

    def test_projection_nontriviality(self):
        # no neighbor coefficient of varpi * phi collapses to zero
        for p, q in [(1, 1), (2, 2), (3, 4)]:
            sig = Signature(p, q)
            for j in range(11):
                for k in range(11):
                    out = multiply_by_varpi(basis_element(sig, j, k))
                    for w in {neighbor(KType(j, k), tag) for tag in DIRECTIONS} - {None}:
                        assert abs(out.coeffs[w.j, w.k]) > 1e-10


class TestBochner:
    def test_eigenfunction_property(self):
        sig = Signature(2, 3)
        for j in range(6):
            for k in range(6):
                phi = basis_element(sig, j, k, jmax=6, kmax=6)
                lam = j * (sig.p - 1 + j) + k * (sig.q - 1 + k)
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
        lhs = apply_N(ZonalFunction(sig, f.coeffs + g.coeffs)).coeffs
        rhs = apply_N(f).coeffs + apply_N(g).coeffs
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
        lhs = sig.n * multiply_by_varpi(phi).coeffs + 2.0 * apply_T_via_lemma(phi).coeffs
        rhs = apply_N(multiply_by_varpi(phi)).coeffs - multiply_by_varpi(apply_N(phi)).coeffs
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestBandedConformalField:
    """apply_T_banded against the pointwise derivative route on a grid, and its coefficients proven in sympy."""

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 7) for q in range(1, 7)])
    def test_matches_grid_oracle(self, p, q):
        # the pointwise samples of T f, projected back (exact: T f has degrees (jmax + 1, kmax + 1), which the
        # grid resolves), against the banded coefficients, relative to each function's coefficient sup-norm
        sig = Signature(p, q)
        for jmax, kmax in ((1, 1), (4, 7), (12, 5), (32, 32)):
            f = seeded_stack(sig, jmax, kmax, 7 * p + q)
            grid = quadrature_grid(sig, jmax + 1, kmax + 1)
            oracle = project(apply_T_numeric(f, grid), grid, jmax + 1, kmax + 1).coeffs
            error = np.max(np.abs(apply_T_banded(f).coeffs - oracle), axis=(-2, -1))
            assert np.max(error / np.max(np.abs(f.coeffs), axis=(-2, -1))) <= 1e-11, (jmax, kmax)

    @staticmethod
    def _coefficients(n, lam):
        """_axis_coefficients as sympy values, its floats (the Chebyshev branch) exactly: they are dyadic."""
        import sympy  # here, not at the top: the module's other tests load without it

        (x_up, x_down), (d_up, d_down) = _axis_coefficients(n, lam)
        exact = [c if isinstance(c, sympy.Basic) else sympy.Rational(float(c)) for c in (x_up, x_down, d_up, d_down)]
        return exact[:2], exact[2:]

    def test_certificate_against_the_polynomials(self):
        import sympy

        # -(1 - x^2) G_n' and x G_n expand on G_{n+1}, G_{n-1} as the code says, lam symbolic and Chebyshev
        x, lam = sympy.symbols("x lam", positive=True)
        for index, basis in ((lam, lambda m: sympy.gegenbauer(m, lam, x)), (0, lambda m: sympy.chebyshevt(m, x))):
            for n in range(7):
                (x_up, x_down), (d_up, d_down) = self._coefficients(n, index)
                below = basis(n - 1) if n else 0
                for value, up, down in ((-(1 - x**2) * sympy.diff(basis(n), x), d_up, d_down),
                                        (x * basis(n), x_up, x_down)):
                    assert sympy.simplify(sympy.expand(value - up * basis(n + 1) - down * below)) == 0, (index, n)

    def test_certificate_against_the_commutator(self):
        import sympy

        # (1/2)[N_x, x] - (p/2) x has D's coefficients: N_x G_n = n(n + p - 1) G_n, p = 2 lam + 1
        n, lam = sympy.symbols("n lam", positive=True)
        half = sympy.Rational(1, 2)
        for m, index in [(n, lam)] + [(m, 0) for m in range(7)]:  # symbolic, then the Chebyshev branch
            (x_up, x_down), (d_up, d_down) = self._coefficients(m, index)
            p = 2 * index + 1
            eigenvalue = lambda k: k * (k + p - 1)
            for step, x_coefficient, d_coefficient in ((1, x_up, d_up), (-1, x_down, d_down)):
                commutator = half * (eigenvalue(m + step) - eigenvalue(m)) * x_coefficient
                assert sympy.simplify(commutator - half * p * x_coefficient - d_coefficient) == 0, (m, step)

    def test_certificate_transition_law(self):
        import sympy

        # The transition law from the code's operators.  With A diagonal (mu), the coefficient of phi_beta in
        # A(T + (n/2 - r) varpi) phi_alpha = (T + (n/2 + r) varpi) A phi_alpha reads
        # mu_beta C(n/2 - r) = C(n/2 + r) mu_alpha, C(s) the coefficient of phi_beta in (T + s varpi) phi_alpha,
        # T's and varpi's from _axis_coefficients.  So mu_beta / mu_alpha = (h + r)/(h - r), with 2h from
        # spectrum._two_h on geometry.doubled_shifts, compared cross-multiplied so that no h - r divides; in all
        # four DIRECTIONS, p, q, j, k and r symbolic, and on the Chebyshev branch p = 1 at symbolic j >= 1 and j = 0
        p, q, r = sympy.symbols("p q r", positive=True)
        j, k = sympy.symbols("j k", positive=True, integer=True)

        def exact(coefficients):
            # the Chebyshev branch's floats (dyadic) and 0-d arrays as sympy rationals
            return [sympy.nsimplify(c.item() if isinstance(c, np.ndarray) else c, rational=True)
                    for pair in coefficients for c in pair]

        for p_value, j_value in ((p, j), (1, j), (1, 0)):
            sig = SimpleNamespace(p=p_value, q=q)
            xj_up, xj_down, dj_up, dj_down = exact(_axis_coefficients(j_value, (p_value - 1) / 2))
            xk_up, xk_down, dk_up, dk_down = exact(_axis_coefficients(k, (q - 1) / 2))
            tj, tk = doubled_shifts(sig, SimpleNamespace(j=j_value, k=k))
            for tag in DIRECTIONS:
                dj, dk = STEPS[tag]
                xj, dj_term = (xj_up, dj_up) if dj > 0 else (xj_down, dj_down)
                xk, dk_term = (xk_up, dk_up) if dk > 0 else (xk_down, dk_down)
                coefficient = lambda s: dj_term * xk + xj * dk_term + s * xj * xk
                h = spectrum._two_h(tj, tk, dj, dk) / 2
                n_half = (p_value + q) / 2
                law = coefficient(n_half + r) * (h - r) - coefficient(n_half - r) * (h + r)
                assert sympy.simplify(law) == 0, (p_value, j_value, tag)


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

