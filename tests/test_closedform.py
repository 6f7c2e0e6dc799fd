import math
import re
from fractions import Fraction
from itertools import accumulate, count, product
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intertwinor import closedform, geometry, spectrum
from intertwinor.closedform import (
    GAMMA_DIRECT,
    LIMIT_STEP,
    PoleAtKType,
    _log_gamma,
    conformal_laplacian_eigenvalue_exact,
    factorized_eigenvalue_exact,
    parity_constant,
    singular_ktypes,
    z_gamma_grid,
    z_gamma_ratio,
    z_spectral,
    z_spectral_grid,
)
from intertwinor.geometry import DIRECTIONS, STEPS, KType, Signature, SpectralOrder, neighbor
from intertwinor.geometry import doubled_shifts
from intertwinor.spectrum import edge_arrays, recursion_spectrum, transition_ratio


def neighbors(v):
    return [(w, tag) for tag in DIRECTIONS if (w := neighbor(v, tag)) is not None]


def _window(sig, jmax, kmax):
    """Index grids j, k (column, row) of [0, jmax] x [0, kmax] and their doubled shifts 2J, 2K."""
    j, k = np.ogrid[:jmax + 1, :kmax + 1]
    return j, k, 2 * j + sig.p - 1, 2 * k + sig.q - 1


def _log_gamma_of(xs):
    """closedform._log_gamma over the list xs in one pass, as a list of (log |Gamma(x)|, sign) float pairs;
    the poles it returns are exactly its infinite logs."""
    logs, signs, poles = _log_gamma(np.array(xs, dtype=float))
    assert poles.tolist() == (logs == math.inf).tolist()
    return list(zip(logs.tolist(), signs.tolist()))


class TestSignedLogGamma:
    """closedform._log_gamma: log |Gamma(x)| and the sign of Gamma(x), over an array of arguments."""

    def test_trivial_values(self):
        (log_magnitude, sign), (half_log, _) = _log_gamma_of([1.0, 0.5])
        assert log_magnitude == pytest.approx(0.0, abs=1e-15)
        assert sign == 1.0
        assert half_log == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_negative_argument_via_recurrence_oracle(self):
        # Gamma(-1.5) = Gamma(0.5) / ((-1.5) * (-0.5)) = 4 sqrt(pi) / 3
        [(log_magnitude, sign)] = _log_gamma_of([-1.5])
        assert sign == 1.0
        assert sign * math.exp(log_magnitude) == pytest.approx(4 * math.sqrt(math.pi) / 3, rel=1e-13)

    def test_against_mpmath(self):
        xs = [0.1, 0.37, 1.0, 2.5, 7.3, -0.4, -1.2, -2.7, -6.9, 10.0]
        for x, (log_magnitude, sign) in zip(xs, _log_gamma_of(xs)):
            ref = mpmath.gamma(x)
            assert sign == (1 if ref > 0 else -1)
            assert log_magnitude == pytest.approx(float(mpmath.log(abs(ref))), rel=1e-12)

    def test_poles(self):
        # a float nonpositive integer is a pole; at an order within TWO_R_TOL of a half-integer _argument sets
        # an argument whose exact value is a pole onto it, and leaves the others as computed
        xs = [0.0, -1.0, -7.0]
        assert _log_gamma_of(xs) == [(math.inf, 1.0)] * 3
        for r in (2.5 - 4e-10, 2.5 + 4e-10):
            x = closedform._argument(SpectralOrder(r), np.array([-3, 1, 7, -13]), np.array([-1, -1, -1, 1]))
            assert x.tolist() == [-2.0, -1.0, (7 - 2.0 * r) / 4, -2.0]
            assert (-3 - 2.0 * r) / 4 != -2.0  # as computed, the first argument is no pole
            assert [log for log, _ in _log_gamma_of(x.tolist())] == [math.inf, math.inf, pytest.approx(
                math.lgamma((7 - 2.0 * r) / 4)), math.inf]

    def test_sign_rule_and_log_against_mpmath(self):
        # Negative non-integers on both sides of every pole down to -12, points
        # 1e-9 and 1e-13 from a pole (only exact poles are infinite), and large
        # arguments of both signs, on both sides of GAMMA_DIRECT.
        xs = [-n + d for n in range(13) for d in (-0.5, -1e-9, 1e-9, 0.25, 0.5, 0.75)]
        xs += [-n + d for n in (0, 3, 7) for d in (-1e-13, 1e-13)]
        xs += [1e-9, 0.5, 1.5, 2.0, 33.3, 149.9, 170.5, 1234.5, -149.5, -160.5, -200.25]
        with mpmath.workdps(40):
            for x, (log_magnitude, sign) in zip(xs, _log_gamma_of(xs)):
                ref = mpmath.gamma(mpmath.mpf(x))  # the float x exactly
                assert sign == (1 if ref > 0 else -1), x
                ref_log = float(mpmath.log(abs(ref)))
                assert abs(log_magnitude - ref_log) <= 1e-14 * max(1.0, abs(ref_log)), x

    def test_direct_and_lgamma_paths(self):
        # below GAMMA_DIRECT the log is taken of math.gamma, from it on math.lgamma is used;
        # the two paths differ in the last bit on some arguments of each side
        below, above = (0.37, 2.5, 33.3), (150.5, 160.5)
        assert max(below) < GAMMA_DIRECT <= min(above)
        for x, (log_magnitude, _) in zip(below, _log_gamma_of(below)):
            assert log_magnitude == math.log(abs(math.gamma(x))), x
        for x, (log_magnitude, _) in zip(above, _log_gamma_of(above)):
            assert log_magnitude == math.lgamma(x), x
        assert any(math.log(abs(math.gamma(x))) != math.lgamma(x) for x in below)
        assert any(math.log(abs(math.gamma(x))) != math.lgamma(x) for x in above)


def _scalar_log_gamma(x: float) -> tuple[float, float]:
    """The scalar rule the batch replaced: log |Gamma(x)| and the sign of Gamma(x), (inf, 1.0) where math raises."""
    try:
        log_magnitude = math.log(abs(math.gamma(x))) if abs(x) < GAMMA_DIRECT else math.lgamma(x)
    except (ValueError, OverflowError):  # x a nonpositive integer, or |x| near the float limit
        return math.inf, 1.0
    return log_magnitude, -1.0 if x < 0 and math.floor(x) % 2 else 1.0


#: Exact nonpositive integers, +/-GAMMA_DIRECT and their float neighbours, negative half-integers and every
#: normal float up to 2**53 in size (math.gamma overflows on subnormals, which no Gamma argument reaches).
GAMMA_ARGUMENTS = st.one_of(
    st.integers(-2**53, 0).map(float),
    st.sampled_from([f(g) for g in (GAMMA_DIRECT, -GAMMA_DIRECT) for f in
                     (lambda g: g, lambda g: math.nextafter(g, math.inf), lambda g: math.nextafter(g, -math.inf))]),
    st.integers(-2**52, -1).map(lambda n: n + 0.5),
    st.floats(-2.0**53, 2.0**53, allow_subnormal=False),
)


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(GAMMA_ARGUMENTS, min_size=1, max_size=40))
def test_log_gamma_batch_is_the_scalar_rule(xs):
    # off the poles the batch gives the scalar rule's expressions and DLMF 5.4 sign bit for bit; on a float
    # nonpositive integer it gives (inf, 1.0), as the scalar rule did where math raised
    for x, (log_magnitude, sign) in zip(xs, _log_gamma_of(xs)):
        if x <= 0 and x == math.floor(x):
            assert (log_magnitude, sign) == (math.inf, 1.0), x
        else:
            expected_log, expected_sign = _scalar_log_gamma(x)
            assert float.hex(log_magnitude) == float.hex(expected_log) and sign == expected_sign, x


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

    @pytest.mark.parametrize("r,bound", [(-1000.37, 1e-11), (-1e6 - 0.37, 1e-8)])
    def test_large_order_accuracy(self, r, bound):
        # Each Gamma pair is a difference of log-Gammas of size about
        # |r|/2 log|r|, so the relative error grows with |r|: 1.2e-12 at
        # r = -1000.37 and 2.0e-9 at -1e6 - 0.37 against 60-digit mpmath
        # (stated in the README and at cli.MAX_ABS_ORDER).
        sig = Signature(2, 3)
        with mpmath.workdps(60):
            for j, k in ((3, 5), (7, 2), (10, 10)):
                ref = _mp_gamma_ratio(2, 3, Fraction(r), j, k)  # the float r exactly
                assert abs(z_spectral(sig, r, KType(j, k)) - ref) <= bound * abs(ref), (j, k)

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
        # exact rationals: at (2, 3), r = 2, (1, 0), J = 3/2 and K = 1 give (3/2)(-3/2) (7/2)(1/2) = -63/16
        value = factorized_eigenvalue_exact(Signature(2, 3), 2, KType(1, 0))
        assert type(value) is Fraction and value == Fraction(-63, 16)

    def test_rejects_nonpositive_order(self):
        # a non-integer order is refused too, not truncated to the integer below it
        for r in (0, 2.5):
            with pytest.raises(ValueError, match=f"^r = {float(r)} is not a positive integer$"):
                factorized_eigenvalue_exact(Signature(1, 1), r, KType(0, 0))
            with pytest.raises(ValueError, match=f"^r = {float(r)} is not a positive integer$"):
                parity_constant(Signature(2, 3), r, 0)
        # an order within TWO_R_TOL of an integer is that integer, as the CLI reads it
        assert parity_constant(Signature(2, 3), 2 + 4e-10, 0) == parity_constant(Signature(2, 3), 2, 0)
        assert factorized_eigenvalue_exact(Signature(2, 3), 2 - 4e-10, KType(1, 1)) == Fraction(-135, 16)
        # the window route prints no factorized column at a nonpositive order
        assert _factorized_grid(Signature(1, 1), 0, 2, 2) is None

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

    def test_limit_convention_probe_is_the_fraction_probe(self):
        # the probe of every class with N3 N4 = 0 (p, q <= 6, r <= 8): the first member with a nonzero
        # polynomial, found and rounded through the exact Fraction polynomial, gives the same constant bit for bit
        classes = 0
        for p, q, r, parity in product(range(1, 7), range(1, 7), range(1, 9), (0, 1)):
            sig = Signature(p, q)
            pairs = closedform._gamma_pairs(sig, 0, 0, parity)[2:]
            if math.prod(closedform._pochhammer(fourc - 2 * r, r) for fourc, _ in pairs):
                continue
            classes += 1
            members = (KType(j, s - j) for s in count(parity, 2) for j in range(s + 1))
            probe = next(v for v in members if factorized_eigenvalue_exact(sig, r, v))
            poly = float(factorized_eigenvalue_exact(sig, r, probe))
            expected = 0.5 * (z_gamma_ratio(sig, r + LIMIT_STEP, probe) / poly
                              + z_gamma_ratio(sig, r - LIMIT_STEP, probe) / poly)
            assert parity_constant(sig, r, parity) == expected, (p, q, r, parity)
        assert classes == 179

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
        value = conformal_laplacian_eigenvalue_exact(Signature(2, 5), KType(0, 0))
        assert type(value) is Fraction and value == Fraction(15, 4)

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
    # every edge changes both j and k, so a window one K-type wide has none, and edge_arrays refuses it
    singular = edge_arrays(sig, r, jmax, kmax)[0] if min(jmax, kmax) >= 1 else np.zeros(0, dtype=bool)
    values, poles, _ = z_gamma_grid(sig, r, jmax, kmax)
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
                    values, poles, numerator_poles = z_gamma_grid(sig, r, 7, 7)
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
                values, poles, _ = z_gamma_grid(sig, r, 6, 6)
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
            grid = _factorized_grid(sig, r, 9, 9)
            for j in range(10):
                for k in range(10):
                    assert grid[j, k] == float(factorized_eigenvalue_exact(sig, r, KType(j, k)))


#: The power of each Gamma pair in the integer-order route: pairs 1-2 are the factors N1 N2 of the polynomial
#: (_factorized_numerator), pairs 3-4 the denominator of the class constant 4**r / (N3 N4) (parity_constant).
INTEGER_ROUTE_POWERS = (1, 1, -1, -1)


def test_certificate_gamma_pairs_are_pochhammer_ratios():
    # Routes 2 and 3 by identity: each Gamma pair (4c, sigma) of _gamma_pairs, read with p and q symbolic, is
    # Gamma(c + sigma r/2) / Gamma(c - sigma r/2) = (_pochhammer(4c - 2r, r) / 4**r)**power for symbolic 4c, with
    # the power the integer-order route gives the pair, r = 1..8
    import sympy  # here, not at the top: the module's other tests load without it

    p, q, tj, tk, eps, fourc = sympy.symbols("p q tj tk eps fourc")
    pairs = closedform._gamma_pairs(SimpleNamespace(p=p, q=q), tj, tk, eps)
    for r in range(1, 9):
        half_r = sympy.Rational(r, 2)
        for index, ((_, sigma), power) in enumerate(zip(pairs, INTEGER_ROUTE_POWERS)):
            gamma_pair = sympy.gamma(fourc / 4 + sigma * half_r) / sympy.gamma(fourc / 4 - sigma * half_r)
            pochhammer = (closedform._pochhammer(fourc - 2 * r, r) / sympy.Integer(4) ** r) ** power
            assert sympy.simplify(sympy.gammasimp(gamma_pair / pochhammer)) == 1, (r, index)


def test_certificate_gamma_ratio_steps_are_transition_ratios():
    # Routes 1 and 2 by identity: for each of DIRECTIONS, Z(v + step)/Z(v) built from the Gamma pairs of
    # _gamma_pairs is the transition ratio (h + r)/(h - r), with 2h from spectrum._two_h; p, q, r, 2J, 2K and
    # the parity symbolic (a step keeps the parity)
    import sympy  # here, not at the top: the module's other tests load without it

    p, q, r, tj, tk, eps = sympy.symbols("p q r tj tk eps")
    sig = SimpleNamespace(p=p, q=q)

    def z(tj, tk):
        return sympy.Mul(*(sympy.gamma((fourc + 2 * sigma * r) / 4) / sympy.gamma((fourc - 2 * sigma * r) / 4)
                           for fourc, sigma in closedform._gamma_pairs(sig, tj, tk, eps)))

    for tag in DIRECTIONS:
        dj, dk = STEPS[tag]
        h = spectrum._two_h(tj, tk, dj, dk) / 2
        ratio = z(tj + 2 * dj, tk + 2 * dk) / z(tj, tk)
        assert sympy.simplify(sympy.combsimp(sympy.expand_func(ratio * (h - r) / (h + r)))) == 1, tag


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


def _reference_gamma_ratio(sig, order, tj, tk, eps):
    """The Gamma route before the line tables, kept as the reference: one log-Gamma table per pair over
    the span of its 4c, gathered by a (4, ...) index and summed over axis 0; (values, poles), nan at poles."""
    pairs = closedform._gamma_pairs(sig, tj, tk, eps)
    arrays = np.broadcast_arrays(*(fourc for fourc, _ in pairs))
    fourc = np.stack(arrays).reshape(4, -1)
    lows = fourc.min(axis=1)
    spans = [range(low, high + 1, 2) for low, high in zip(lows.tolist(), fourc.max(axis=1).tolist())]
    starts = list(accumulate((len(span) for span in spans), initial=0))[:4]
    index = (np.array(starts)[:, None] + (fourc - lows[:, None]) // 2).reshape(4, *arrays[0].shape)
    distinct = np.array([c for span in spans for c in span])
    side = np.repeat([sigma for _, sigma in pairs], [len(span) for span in spans])
    x = closedform._argument(order, distinct, np.array([side, -side]))
    (num_log, den_log), (num_sign, den_sign) = \
        np.array([_scalar_log_gamma(v) for v in x.ravel().tolist()]).T.reshape(2, *x.shape)
    with np.errstate(invalid="ignore"):
        log_total = np.asarray((num_log - den_log)[index].sum(axis=0))
    sign = (num_sign * den_sign)[index].prod(axis=0)
    poles = ((num_log == math.inf) | (den_log == math.inf))[index].any(axis=0)
    exp = np.fromiter(map(math.exp, log_total.ravel()), float, log_total.size).reshape(log_total.shape)
    return np.where(poles, np.nan, sign * exp), poles


def _scalar_pole(order, fourc, s):
    """Where the scalar rule finds a pole of the Gamma argument (4c + 2sr)/4, for ints or integer arrays."""
    x = closedform._argument(order, fourc, s)
    return np.vectorize(lambda v: _scalar_log_gamma(v)[0] == math.inf, otypes=[bool])(x)


def _reference_gamma_grid(sig, r, jmax, kmax):
    """(values, poles, numerator poles) over the window, each Gamma argument tested on its own."""
    j, k, tj, tk = _window(sig, jmax, kmax)
    order = SpectralOrder.coerce(r)
    infinite = np.logical_or.reduce([_scalar_pole(order, fourc, sigma)
                                     for fourc, sigma in closedform._gamma_pairs(sig, tj, tk, (j + k) % 2)])
    return (*_reference_gamma_ratio(sig, order, tj, tk, (j + k) % 2), infinite)


def _reference_gamma_ratio_at(sig, r, v):
    """The scalar route before the line tables: raises PoleAtKType at the first pole, pair by pair, numerator first."""
    order = SpectralOrder.coerce(r)
    tj, tk = doubled_shifts(sig, v)
    value, pole = _reference_gamma_ratio(sig, order, tj, tk, v.parity)
    if pole:
        for fourc, sigma in closedform._gamma_pairs(sig, tj, tk, v.parity):
            for side, s in (("numerator", sigma), ("denominator", -sigma)):
                if _scalar_pole(order, fourc, s):
                    raise PoleAtKType(f"Gamma pole in {side} at K-type {v}: argument "
                                      f"({fourc} {'+' if s > 0 else '-'} 2r)/4 with r = {order.r}")
    return float(value)


def _factorized_grid(sig, r, jmax, kmax):
    """The factorized polynomial over [0, jmax] x [0, kmax] as the spectrum command prints it, or None."""
    return closedform._closed_form(sig, SpectralOrder(r), KType(0, 0), jmax + 1, kmax + 1)[2]


def _reference_factorized_grid(sig, r, jmax, kmax):
    """Each entry's exact polynomial N1 N2 from object arrays over the window, divided by 4**r once."""
    j, k, tj, tk = _window(sig, jmax, kmax)
    numerator = closedform._factorized_numerator(sig, tj.astype(object), tk.astype(object), (j + k) % 2, r)
    return np.asarray(numerator / 4**r, dtype=float)


def _reference_spectral_grid(sig, r, jmax, kmax):
    order = SpectralOrder.coerce(r)
    if not order.is_positive_integer:
        return _reference_gamma_grid(sig, order, jmax, kmax)[:2]
    j, k, _, _ = _window(sig, jmax, kmax)
    eps = (j + k) % 2
    scale = np.zeros(eps.shape)
    for parity in (0, 1):
        if np.any(eps == parity):
            scale = np.where(eps == parity, parity_constant(sig, order.as_integer, parity), scale)
    values = scale * _reference_factorized_grid(sig, order.as_integer, jmax, kmax)
    return values, np.zeros(values.shape, dtype=bool)


def _assert_same_outcome(fn, reference, *args):
    """fn(*args) equals reference(*args) bit for bit: every array (values with nan and sign bits, or
    masks), a scalar's float.hex, or the type, message, K-type and argument of what both raise."""
    def outcome(f):
        try:
            result = f(*args)
        except (ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)
        if isinstance(result, float):
            return float.hex(result)
        arrays = [np.asarray(a) for a in (result if isinstance(result, tuple) else (result,))]
        return [(a.shape, a.dtype, a.tobytes()) for a in arrays]

    assert outcome(fn) == outcome(reference)


def _order(r: float) -> float:
    # The integer route multiplies 2r exact factors per entry; the CLI caps positive integer orders at 100.
    return -r if SpectralOrder(r).is_positive_integer and r > 12 else r


#: Generic, half-integer and integer orders, orders within TWO_R_TOL of a half-integer, +/-0.0, the
#: smallest subnormals and |r| up to 2**51.
LINE_ORDERS = st.one_of(
    st.floats(-6, 6),
    st.integers(-12, 12).map(lambda n: n / 2),
    st.tuples(st.integers(-12, 12), st.floats(-4e-10, 4e-10)).map(lambda t: t[0] / 2 + t[1]),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320]),
    st.floats(-2.0**51, 2.0**51).filter(lambda r: abs(r) >= 1e3),
    st.integers(-2**52, 2**52).map(lambda n: n / 2),
).map(_order)


@settings(max_examples=250, deadline=None)
@given(p=st.integers(1, 7), q=st.integers(1, 7), jmax=st.integers(0, 14), kmax=st.integers(0, 14),
       r=LINE_ORDERS, data=st.data())
def test_line_tables_match_reference(p, q, jmax, kmax, r, data):
    # Each Gamma pair evaluated once per line value and gathered gives the reference route bit for bit:
    # values, poles and sign bits of every window kernel, and the scalar route's value or pole message.
    sig = Signature(p, q)
    window_args = (sig, r, jmax, kmax)
    _assert_same_outcome(z_gamma_grid, _reference_gamma_grid, *window_args)
    _assert_same_outcome(z_spectral_grid, _reference_spectral_grid, *window_args)
    order = SpectralOrder(r)
    if order.is_positive_integer:
        _assert_same_outcome(_factorized_grid, _reference_factorized_grid, sig, order.as_integer, jmax, kmax)
    v = KType(data.draw(st.integers(0, jmax)), data.draw(st.integers(0, kmax)))
    _assert_same_outcome(z_gamma_ratio, _reference_gamma_ratio_at, sig, r, v)


@pytest.mark.parametrize("p,q,r,jmax,kmax", [(2, 3, 0.37, 80, 80), (2, 3, 2.0, 80, 80), (1, 4, 0.5, 150, 3),
                                             (3, 1, 1.5, 4, 150), (6, 6, 3.0, 40, 40), (2, 3, -1e12 - 0.37, 60, 60),
                                             (2, 3, 2.0**51 - 0.25, 12, 12)])  # rounding puts arguments on poles
def test_line_tables_match_reference_on_large_windows(p, q, r, jmax, kmax):
    window_args = (Signature(p, q), r, jmax, kmax)
    _assert_same_outcome(z_gamma_grid, _reference_gamma_grid, *window_args)
    _assert_same_outcome(z_spectral_grid, _reference_spectral_grid, *window_args)


#: Orders just beyond TWO_R_TOL of a half-integer, where no argument is set onto a pole but rounding at a large
#: dimension can put one there.
NEAR_HALF_INTEGER_ORDERS = st.tuples(st.integers(-12, 12), st.sampled_from([-1, 1]), st.floats(1.1e-9, 1e-6)) \
    .map(lambda t: t[0] / 2 + t[1] * t[2])


@settings(max_examples=100, deadline=None)
@given(p=st.integers(1, 2**50), q=st.integers(1, 6), r=NEAR_HALF_INTEGER_ORDERS, jmax=st.integers(0, 6),
       kmax=st.integers(0, 6))
@example(p=33554434, q=2, r=2.0000000011, jmax=2, kmax=2)
@example(p=2**50, q=2, r=0.01, jmax=2, kmax=2)
def test_values_are_finite_off_the_poles(p, q, r, jmax, kmax):
    # one pole rule: an argument that rounding puts on a pole is a pole of the window, never an unlabelled inf
    # or nan
    for kernel in (z_gamma_grid, z_spectral_grid):
        values, poles = kernel(Signature(p, q), r, jmax, kmax)[:2]
        assert np.isfinite(values[~poles]).all() and np.isnan(values[poles]).all(), kernel.__name__


def test_only_small_windows_keep_their_gather_index():
    # the index record cache holds windows of at most CACHED_WINDOW K-types, so its memory stays bounded
    geometry._index.cache_clear()
    sig = Signature(2, 3)
    for jmax, kmax in [(80, 80), (16, 16), (12, 12), (0, 0), (12, 12)]:  # 81^2 and 17^2 > CACHED_WINDOW
        z_gamma_grid(sig, 0.37, jmax, kmax)
    geometry.window_index(100001, 2)  # thin: 200002 K-types
    assert geometry._index.cache_info()[:2] == (1, 2)  # (hits, misses): 13 x 13 and 1 x 1 only
    record = geometry.window_index(13, 13)
    assert geometry._index.cache_info()[:2] == (2, 2)
    assert record._fields == ("j", "k", "parity", "inside", "lines", "pair")
    assert not any(array.flags.writeable for array in record)


@pytest.mark.parametrize("jmax, kmax", [(-1, 3), (3, -1), (-2, -2)])
@pytest.mark.parametrize("kernel", [z_gamma_grid, z_spectral_grid], ids=lambda kernel: kernel.__name__)
def test_negative_truncation_raises(kernel, jmax, kmax):
    # closed-form windows may be one K-type wide, but not empty: an IndexError or two empty arrays before
    message = f"truncation must satisfy jmax >= 0 and kmax >= 0, got ({jmax}, {kmax})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kernel(Signature(2, 3), 0.37, jmax, kmax)
    for r in (0.37, 2):
        assert kernel(Signature(2, 3), r, 0, 0)[0].shape == (1, 1)
