import math
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwinor.closedform import (
    PoleAtGamma,
    PoleAtKType,
    conformal_laplacian_eigenvalue_exact,
    factorized_eigenvalue_exact,
    factorized_grid,
    numerator_pole_grid,
    parity_constant,
    signed_log_gamma,
    singular_ktypes,
    z_gamma_grid,
    z_gamma_ratio,
    z_spectral,
    z_spectral_grid,
)
from intertwinor.geometry import DIRECTIONS, STEPS, KType, Signature, neighbors
from intertwinor.spectrum import SpectralOrder, edge_arrays, recursion_spectrum, transition_ratio


class TestSignedLogGamma:
    def test_trivial_values(self):
        v = signed_log_gamma(1.0)
        assert v.log_magnitude == pytest.approx(0.0, abs=1e-15)
        assert v.sign == 1
        assert signed_log_gamma(0.5).log_magnitude == pytest.approx(
            math.log(math.sqrt(math.pi)), rel=1e-14
        )

    def test_negative_argument_via_recurrence_oracle(self):
        # Gamma(-1.5) = Gamma(0.5) / ((-1.5) * (-0.5)) = 4 sqrt(pi) / 3
        v = signed_log_gamma(-1.5)
        assert v.sign == 1
        assert v.value() == pytest.approx(4 * math.sqrt(math.pi) / 3, rel=1e-13)

    def test_against_mpmath(self):
        xs = [0.1, 0.37, 1.0, 2.5, 7.3, -0.4, -1.2, -2.7, -6.9, 10.0]
        for x in xs:
            got = signed_log_gamma(x)
            ref = mpmath.gamma(x)
            assert got.sign == (1 if ref > 0 else -1)
            assert got.log_magnitude == pytest.approx(float(mpmath.log(abs(ref))), rel=1e-12)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleAtGamma):
                signed_log_gamma(x)

    def test_sign_rule_and_log_against_mpmath(self):
        # Negative non-integers on both sides of every pole down to -12, points
        # 1e-9 and 1e-13 from a pole (only exact poles raise), and large
        # arguments of both signs, on both sides of GAMMA_DIRECT.
        xs = [-n + d for n in range(13) for d in (-0.5, -1e-9, 1e-9, 0.25, 0.5, 0.75)]
        xs += [-n + d for n in (0, 3, 7) for d in (-1e-13, 1e-13)]
        xs += [1e-9, 0.5, 1.5, 2.0, 33.3, 149.9, 170.5, 1234.5, -149.5, -160.5, -200.25]
        with mpmath.workdps(40):
            for x in xs:
                got = signed_log_gamma(x)
                ref = mpmath.gamma(mpmath.mpf(x))  # the float x exactly
                assert got.sign == (1 if ref > 0 else -1), x
                ref_log = float(mpmath.log(abs(ref)))
                assert abs(got.log_magnitude - ref_log) <= 1e-14 * max(1.0, abs(ref_log)), x


class TestZSpectral:
    def test_base_value_is_one(self):
        # at (0, 0) the numerator and denominator argument multisets coincide
        for p, q in [(1, 1), (1, 3), (2, 2), (3, 4)]:
            for r in (0.37, 1.5, -0.8, 2.25):
                if (p + q) % 2 == 1 and r == 1.5:
                    continue  # argument poles: handled by the singular-set tests
                assert z_spectral(Signature(p, q), r, KType(0, 0)) == pytest.approx(
                    1.0, abs=1e-13
                )

    def test_circle_times_circle_reduction(self):
        # hand reduction via Gamma(x + 1) = x Gamma(x): Z at (1,1) is (1+r)/(1-r)
        sig = Signature(1, 1)
        for r in (0.37, 0.5, -0.8, 2.25):
            assert z_spectral(sig, r, KType(1, 1)) == pytest.approx(
                (1 + r) / (1 - r), rel=1e-13
            )

    def test_r_zero_is_identity(self):
        sig = Signature(2, 3)
        for j in range(5):
            for k in range(5):
                assert z_spectral(sig, 0.0, KType(j, k)) == pytest.approx(1.0, rel=1e-13)

    def test_pole_reported(self):
        # p + q odd and r = 1.5 puts Gamma-argument poles on the lattice
        with pytest.raises(PoleAtKType):
            z_gamma_ratio(Signature(1, 2), 1.5, KType(3, 0))

    def test_agrees_with_recursion(self):
        for p, q in [(1, 3), (2, 2), (3, 2)]:
            sig = Signature(p, q)
            for r in (0.37, -0.8):
                table = recursion_spectrum(sig, r, 8, 8)
                for v, mu in table.entries.items():
                    z = z_gamma_ratio(sig, r, v) / z_gamma_ratio(sig, r, KType(v.parity, 0))
                    assert z == pytest.approx(mu, rel=1e-11)

    def test_neighbor_ratio_law(self):
        sig = Signature(2, 2)
        r = 1.5
        for j in range(6):
            for k in range(6):
                v = KType(j, k)
                zv = z_gamma_ratio(sig, r, v)
                for w, tag in neighbors(v):
                    assert z_gamma_ratio(sig, r, w) / zv == pytest.approx(
                        transition_ratio(sig, v, tag, r), rel=1e-12
                    )


class TestFactorized:
    def test_order_one_is_difference_of_squares(self):
        sig = Signature(1, 3)
        for j in range(6):
            for k in range(6):
                # J = j, K = k + 1
                assert factorized_eigenvalue_exact(sig, 1, KType(j, k)) == (k + 1) ** 2 - j**2

    def test_order_two_example(self):
        assert factorized_eigenvalue_exact(Signature(1, 1), 2, KType(0, 0)) == 1

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            factorized_eigenvalue_exact(Signature(1, 1), 0, KType(0, 0))
        with pytest.raises(ValueError):
            factorized_grid(Signature(1, 1), 0, 2, 2)

    def test_neighbor_ratio_law_where_nonsingular(self):
        # integer-r coherence away from zero denominators
        sig = Signature(2, 4)
        r = 2
        for j in range(1, 7):
            for k in range(1, 7):
                v = KType(j, k)
                fv = factorized_eigenvalue_exact(sig, r, v)
                if fv == 0:
                    continue
                for w, tag in neighbors(v):
                    fw = factorized_eigenvalue_exact(sig, r, w)
                    try:
                        expected = transition_ratio(sig, v, tag, float(r))
                    except Exception:
                        continue
                    if fw == 0:
                        continue
                    assert float(fw / fv) == pytest.approx(expected, rel=1e-12)


class TestParityConstant:
    def test_constant_across_class(self):
        sig = Signature(2, 4)
        for r in (1, 2, 3):
            for parity in (0, 1):
                c = parity_constant(sig, r, parity)
                ratios = []
                for j in range(9):
                    for k in range(9):
                        if (j + k) % 2 != parity:
                            continue
                        v = KType(j, k)
                        poly = factorized_eigenvalue_exact(sig, r, v)
                        if poly == 0:
                            continue
                        try:
                            ratios.append(z_gamma_ratio(sig, float(r), v) / float(poly))
                        except PoleAtKType:
                            continue
                if ratios:
                    for ratio in ratios:
                        assert ratio == pytest.approx(c, rel=1e-10)
                else:
                    # constant Gamma factors singular over the whole class:
                    # the limit convention must still produce something usable
                    assert math.isfinite(c) and c != 0.0

    def test_exact_class_constant(self):
        # At integer r the class pairs 3-4 telescope to 1/(x)_r, x = c - r/2, so
        # the constant is 4**r / (N3 N4) with N = 4**r (x)_r.  It is finite
        # unless a class pair has a pole in one argument only; a pole in both
        # arguments (a double pole) cancels.
        double_pole_classes = []
        with mpmath.workdps(40):
            for p, q, r, parity in product(range(1, 7), range(1, 7), range(1, 9), (0, 1)):
                sig = Signature(p, q)
                num, den = _exact_gamma_arguments(p, q, r, parity, 0)
                class_pairs = list(zip(num[2:], den[2:]))  # (c - r/2, c + r/2)
                pair_poles = [(_is_pole(a), _is_pole(b)) for a, b in class_pairs]
                n34 = math.prod(4 * (x + m) for x, _ in class_pairs for m in range(r))
                c = parity_constant(sig, r, parity)
                if any(a != b for a, b in pair_poles):
                    assert n34 == 0, (p, q, r, parity)
                    continue
                assert n34 != 0 and c == float(Fraction(4**r, n34)), (p, q, r, parity)
                members = [(j, s - j) for s in range(parity, 2 * r + 9, 2) for j in range(s + 1)]
                nonzero = (v for v in members if factorized_eigenvalue_exact(sig, r, KType(*v)))
                if any(map(any, pair_poles)):
                    assert all(_has_pole(p, q, r, *v) for v in members)
                    double_pole_classes.append((p, q, r, parity))
                    # the symmetric r +/- d limit at the first member, the
                    # convention of the raw Gamma ratio at a pole
                    j, k = next(nonzero)
                    d = Fraction(1, 10**12)
                    ref = (_mp_gamma_ratio(p, q, r + d, j, k) + _mp_gamma_ratio(p, q, r - d, j, k)) / 2
                else:
                    j, k = next(v for v in nonzero if not _has_pole(p, q, r, *v))
                    ref = _mp_gamma_ratio(p, q, Fraction(r), j, k)
                poly = factorized_eigenvalue_exact(sig, r, KType(j, k))
                ref = ref * poly.denominator / poly.numerator
                assert abs(c - float(ref)) <= 1e-14 * abs(float(ref)), (p, q, r, parity)
        assert double_pole_classes == [(5, 1, 1, 0), (6, 2, 1, 0)]

    def test_limit_convention_is_deterministic(self):
        # the Gamma constant is singular here; the limit value must at least
        # be finite, nonzero, and reproducible
        a = parity_constant(Signature(1, 1), 1, 0)
        b = parity_constant(Signature(1, 1), 1, 0)
        assert a == b
        assert math.isfinite(a) and a != 0.0


class TestConformalLaplacian:
    def test_examples(self):
        assert conformal_laplacian_eigenvalue_exact(Signature(1, 3), KType(0, 0)) == 1
        assert conformal_laplacian_eigenvalue_exact(Signature(2, 2), KType(1, 0)) == -2

    def test_vanishes_on_diagonal(self):
        sig = Signature(3, 3)  # J = K iff j = k
        for m in range(6):
            assert conformal_laplacian_eigenvalue_exact(sig, KType(m, m)) == 0

    def test_matches_factorized_exactly(self):
        for p in range(1, 5):
            for q in range(1, 5):
                sig = Signature(p, q)
                for j in range(8):
                    for k in range(8):
                        v = KType(j, k)
                        assert factorized_eigenvalue_exact(sig, 1, v) == \
                            conformal_laplacian_eigenvalue_exact(sig, v)

    def test_explicit_formula(self):
        sig = Signature(2, 5)
        for j in range(6):
            for k in range(6):
                expected = Fraction(k * (4 + k) - j * (1 + j)) + Fraction(16 - 1, 4)
                assert conformal_laplacian_eigenvalue_exact(sig, KType(j, k)) == expected


class TestInversion:
    def test_examples(self):
        def inversion(sig, r, v):
            return z_gamma_ratio(sig, r, v) * z_gamma_ratio(sig, -r, v)

        assert inversion(Signature(2, 2), 0.0, KType(1, 1)) == pytest.approx(1.0)
        assert inversion(Signature(1, 3), 0.37, KType(2, 1)) == pytest.approx(1.0, rel=1e-12)
        assert inversion(Signature(2, 3), 1.5, KType(3, 2)) == pytest.approx(1.0, rel=1e-12)


GRID_ORDERS = (0.37, -0.8, 0.5, 1.5, 2.25, 1.0, 2.0)


def _exact_gamma_arguments(p, q, r, j, k):
    """The eight Gamma arguments (numerators, denominators) as exact rationals."""
    J = j + Fraction(p - 1, 2)
    K = k + Fraction(q - 1, 2)
    e = (j + k) % 2
    numerators = [(K + J + 1 + r) / 2, (K - J + 1 + r) / 2,
                  (e - Fraction(p - q, 2) + 1 - r) / 2, (e + Fraction(p + q, 2) - r) / 2]
    denominators = [(K + J + 1 - r) / 2, (K - J + 1 - r) / 2,
                    (e - Fraction(p - q, 2) + 1 + r) / 2, (e + Fraction(p + q, 2) + r) / 2]
    return numerators, denominators


def _is_pole(a: Fraction) -> bool:
    return a.denominator == 1 and a <= 0


def _has_pole(p, q, r, j, k) -> bool:
    num, den = _exact_gamma_arguments(p, q, r, j, k)
    return any(map(_is_pole, num + den))


def _mp_gamma_ratio(p, q, r, j, k):
    """The eight-Gamma ratio at exactly rational r, in mpmath at the working precision."""
    num, den = _exact_gamma_arguments(p, q, r, j, k)
    out = mpmath.mpf(1)
    for a, b in zip(num, den):
        out *= mpmath.gamma(mpmath.mpf(a.numerator) / a.denominator)
        out /= mpmath.gamma(mpmath.mpf(b.numerator) / b.denominator)
    return out


#: Offsets of r from a multiple of 1/2: none, inside TWO_R_TOL (|2 delta| <= 8e-10)
#: and outside it (|2 delta| >= 1.02e-9).
NEAR_HALF = st.one_of(
    st.just(0.0),
    st.floats(-4e-10, 4e-10),
    st.floats(5.1e-10, 1e-8).flatmap(lambda d: st.sampled_from([d, -d])),
)


@settings(max_examples=120, deadline=None)
@given(p=st.integers(1, 8), q=st.integers(1, 8), jmax=st.integers(0, 20), kmax=st.integers(0, 20),
       n=st.integers(-12, 12), delta=NEAR_HALF)
def test_singular_sets_are_exact(p, q, jmax, kmax, n, delta):
    # Singular edges (h = r) and Gamma poles need an integer 2r.  Within
    # TWO_R_TOL of one they are exactly where the rational r* = two_r/2 puts
    # them; outside it there are none, and the closed form stays finite.
    sig = Signature(p, q)
    r = n / 2 + delta
    two_r = SpectralOrder(r).two_r
    assert two_r == (n if abs(delta) <= 4e-10 else None)
    singular, _ = edge_arrays(sig, r, jmax, kmax)
    values, poles = z_gamma_grid(sig, r, jmax, kmax)
    exact_edges, exact_poles = set(), set()
    if two_r is None:
        assert np.isfinite(values).all()
    else:
        r_star = Fraction(two_r, 2)
        for j in range(jmax + 1):
            for k in range(kmax + 1):
                num, den = _exact_gamma_arguments(p, q, r_star, j, k)
                if any(map(_is_pole, num + den)):
                    exact_poles.add((j, k))
                J, K = j + Fraction(p - 1, 2), k + Fraction(q - 1, 2)
                for d, tag in enumerate(DIRECTIONS):
                    sj, sk = STEPS[tag]
                    if 0 <= j + sj <= jmax and 0 <= k + sk <= kmax and sj * J + sk * K + 1 == r_star:
                        exact_edges.add((d, j, k))
    assert set(map(tuple, np.argwhere(singular).tolist())) == exact_edges
    assert set(map(tuple, np.argwhere(poles).tolist())) == exact_poles


class TestGammaGrid:
    @pytest.mark.parametrize("r", GRID_ORDERS)
    def test_against_mpmath_and_exact_poles(self, r):
        exact_r = Fraction(str(r))
        with mpmath.workdps(30):
            for p in range(1, 5):
                for q in range(1, 5):
                    sig = Signature(p, q)
                    values, poles = z_gamma_grid(sig, r, 7, 7)
                    numerator_poles = numerator_pole_grid(sig, r, 7, 7)
                    for j in range(8):
                        for k in range(8):
                            num, den = _exact_gamma_arguments(p, q, exact_r, j, k)
                            exact_pole = any(map(_is_pole, num + den))
                            assert poles[j, k] == exact_pole, (p, q, r, j, k)
                            assert numerator_poles[j, k] == any(map(_is_pole, num)), (p, q, r, j, k)
                            if exact_pole:
                                with pytest.raises(PoleAtKType):
                                    z_gamma_ratio(sig, r, KType(j, k))
                                continue
                            ref = mpmath.mpf(1)
                            for a, b in zip(num, den):
                                ref *= mpmath.gamma(mpmath.mpf(a.numerator) / a.denominator)
                                ref /= mpmath.gamma(mpmath.mpf(b.numerator) / b.denominator)
                            assert abs(values[j, k] - float(ref)) <= 1e-13 * abs(float(ref))
                            scalar = z_gamma_ratio(sig, r, KType(j, k))
                            assert scalar == values[j, k]  # bit for bit

    @pytest.mark.parametrize("r", [1.5 + 1e-9, 2.0 - 7e-10, 0.5 + 2e-9, -1.0 - 3e-9])
    def test_near_pole_generic_order(self, r):
        # 2r is 1.4e-9 to 6e-9 from an integer: outside TWO_R_TOL, so the
        # generic route runs, with arguments within 1e-9 of a pole (none of
        # them within POLE_TOL).  The oracle takes the same float arguments
        # (4c + 2sr)/4, so it checks the kernel, not the conditioning of the
        # arguments, which near a pole amplifies their rounding.
        with mpmath.workdps(40):
            for p, q in [(1, 2), (2, 3), (3, 3), (4, 1)]:
                sig = Signature(p, q)
                values, poles = z_gamma_grid(sig, r, 6, 6)
                assert not poles.any()
                for j in range(7):
                    for k in range(7):
                        tj, tk = 2 * j + p - 1, 2 * k + q - 1
                        ref = mpmath.mpf(1)
                        for fourc, sigma in ((tk + tj + 2, 1), (tk - tj + 2, 1),
                                             (2 * ((j + k) % 2) - (p - q) + 2, -1),
                                             (2 * ((j + k) % 2) + p + q, -1)):
                            ref *= mpmath.gamma(mpmath.mpf((fourc + sigma * 2.0 * r) / 4.0))
                            ref /= mpmath.gamma(mpmath.mpf((fourc - sigma * 2.0 * r) / 4.0))
                        assert abs(values[j, k] - float(ref)) <= 1e-13 * abs(float(ref)), (p, q, j, k)

    def test_spectral_grid_matches_scalar(self):
        for p, q in [(1, 1), (2, 3), (4, 2)]:
            sig = Signature(p, q)
            for r in (0.37, 1.5, 2.0, 3.0):
                values, poles = z_spectral_grid(sig, r, 6, 6)
                for j in range(7):
                    for k in range(7):
                        if poles[j, k]:
                            with pytest.raises(PoleAtKType):
                                z_spectral(sig, r, KType(j, k))
                        else:
                            assert z_spectral(sig, r, KType(j, k)) == values[j, k]

    def test_factorized_grid_is_exact_value_rounded(self):
        sig = Signature(3, 2)
        for r in (1, 2, 5):
            grid = factorized_grid(sig, r, 9, 9)
            for j in range(10):
                for k in range(10):
                    assert grid[j, k] == float(factorized_eigenvalue_exact(sig, r, KType(j, k)))


class TestSingularSet:
    def test_empty_for_generic_order(self):
        assert singular_ktypes(Signature(2, 3), 0.37, 0, 10, 10) == set()
        assert singular_ktypes(Signature(1, 2), 2.25, 1, 10, 10) == set()

    def test_half_integer_order_odd_total_dimension(self):
        # r = 1.5, (p, q) = (1, 2): the odd class develops numerator poles
        # exactly on the diagonals j - k >= 3
        poles = singular_ktypes(Signature(1, 2), 1.5, 1, 8, 8)
        expected = {
            KType(j, k)
            for j in range(9)
            for k in range(9)
            if (j + k) % 2 == 1 and j - k >= 3
        }
        assert poles == expected
