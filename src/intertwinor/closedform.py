"""Closed-form eigenvalues: Gamma-ratio spectral function and its factorization.

On the parity class epsilon the eigenvalue at (j, k) is the ratio of eight
Gamma factors

    G((K+J+1+r)/2) G((K-J+1+r)/2) G((e-(p-q)/2+1-r)/2) G((e+(p+q)/2-r)/2)
    -----------------------------------------------------------------------
    G((K+J+1-r)/2) G((K-J+1-r)/2) G((e-(p-q)/2+1+r)/2) G((e+(p+q)/2+r)/2)

evaluated through signed log-Gamma arithmetic.  For a positive integer r each
Gamma pair telescopes to a Pochhammer symbol, Gamma(x + r)/Gamma(x) = (x)_r:
the two pairs that depend on the K-type give the polynomial

    prod_{m=0}^{r-1} (K+J+1-r+2m)(K-J+1-r+2m),

and the two that depend only on the parity class give its constant exactly.
The polynomial is the analytic continuation through the K-types where the raw
ratio develops matched pole/zero pairs, so integer orders dispatch to it.

All Gamma arguments are half-integer lattice translates of +/- r/2, so they
can sit on a pole only when 2r is an integer, and are then set onto it from
the integer 4x; the poles are the float arguments that are nonpositive integers
(_log_gamma).  Pair 1 lives on the line j + k, pair 2 on k - j and
pairs 3-4 on the parity: both routes evaluate each pair once per line value,
and a window, or one K-type, gathers its entries from the lines by index.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import KType, Signature, SpectralOrder, check_window, doubled_shifts, window_index

#: Step of the limit convention for a parity constant with a class Gamma pole.
LIMIT_STEP = 1e-6


class PoleAtKType(ArithmeticError):
    """A Gamma-argument pole makes the spectral function undefined here."""


#: Below this |x|, log |Gamma(x)| is taken as log |math.gamma(x)|: against
#: mpmath on the Gamma arguments of the closed form its absolute error is
#: about half that of math.lgamma (median 1.0e-15 against 2.0e-15), and
#: Gamma(x) stays far from overflow and underflow.
GAMMA_DIRECT = 150.0


def _log_gamma(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log |Gamma(x)|, the sign of Gamma(x) and the poles of an array of arguments in one pass; (inf, 1.0) at poles.

    The closed form's one pole rule: a pole is a float x that is a nonpositive integer, exact (see _argument) or
    rounded.  No other argument of the closed form makes math.gamma or math.lgamma raise.  Gamma(x) < 0 exactly
    when x < 0 and floor(x) is odd (DLMF 5.4, 5.5.1).
    """
    logs = np.array([math.inf if v <= 0 and v.is_integer()
                     else math.log(abs(math.gamma(v))) if abs(v) < GAMMA_DIRECT else math.lgamma(v)
                     for v in x.ravel().tolist()]).reshape(x.shape)
    poles = logs == math.inf  # no other log is infinite
    floor = np.floor(x)
    signs = np.where(np.fmod(floor, 2) == -1, -1.0, 1.0)  # fmod is -1 exactly where floor(x) is odd and negative
    signs[poles] = 1.0
    return logs, signs, poles


def _gamma_pairs(sig: Signature, tj, tk, eps):
    """The four Gamma pairs as (fourc, sigma): Gamma(c + sigma*r/2) over Gamma(c - sigma*r/2).

    ``fourc`` is 4c from the doubled shifts ``tj``, ``tk`` and parity ``eps``
    (integers or integer arrays).  Pairs 1-2 depend on the K-type, pairs 3-4
    only on its parity class.
    """
    return (
        (tk + tj + 2, +1),
        (tk - tj + 2, +1),
        (2 * eps - (sig.p - sig.q) + 2, -1),
        (2 * eps + (sig.p + sig.q), -1),
    )


def _argument(order: SpectralOrder, fourc, s):
    """x = (4c + 2sr)/4 for integer 4c and s = +/-1 (ints or integer arrays).

    Where 2r is within TWO_R_TOL of the integer two_r, an argument whose exact value at r = two_r/2 is a pole
    is set to that pole, 4x/4, exactly, so _log_gamma reads it as one.
    """
    x = (fourc + s * 2.0 * order.r) / 4.0
    two_r = order.two_r
    if two_r is None:
        return x
    four_x = fourc + s * two_r  # Gamma(x) has a pole where 4x is an integer multiple of 4, at most 0
    return np.where((four_x <= 0) & (four_x % 4 == 0), four_x / 4, x)


def _lines(sig: Signature, corner: KType, nj: int, nk: int):
    """(4c, s, parities, index): the Gamma pairs over the nj x nk window at ``corner`` = (j0, k0), each on
    its line, and the window's index record, which says where each K-type reads them.

    Pair 1 depends on a K-type only through j + k, pair 2 through k - j and pairs 3-4 through the parity,
    so each is evaluated once per line value: pair 1 on (j0, k0 + i) and pair 2 on (j0 + nj - 1, k0 + i),
    i < nj + nk - 1, pairs 3-4 on the parities of j0 + k0 + i, i < 2.  The lines are concatenated in pair
    order; s holds the sign of 2r in each argument, numerator row (sigma) over denominator row (-sigma).
    ``index`` is geometry.window_index(nj, nk): its ``lines``, shaped (4, nj, nk), hold for K-type
    (j0 + a, k0 + b) entry a + b of pair 1, b - a + nj - 1 of pair 2 and parity = (a + b) % 2 of pairs 3-4,
    each plus its line's offset.  The record comes first, so a window too large for memory fails before any
    line is evaluated, and an empty one raises ValueError.
    """
    check_window(nj - 1, nk - 1, 0)
    index = window_index(nj, nk)
    n = nj + nk - 1
    tj, tk = doubled_shifts(sig, corner)  # 2J at j0 and j0 + nj - 1, 2K along k0 + i
    parities = np.array([corner.parity, 1 - corner.parity][: min(n, 2)])
    (first, s1), (second, s2), (third, s3), (fourth, s4) = \
        _gamma_pairs(sig, np.array([[tj], [tj + 2 * nj - 2]]), tk + 2 * np.arange(n), parities)
    sides = np.repeat([[s1, s2, s3, s4], [-s1, -s2, -s3, -s4]], [n, n, parities.size, parities.size], axis=1)
    return np.concatenate((first[0], second[1], third, fourth)), sides, parities, index


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp elementwise; numpy's exp differs from it in the last bit on some inputs."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _gamma_ratio(order: SpectralOrder, lines):
    """(values, poles, flags) of the eight-Gamma ratio over the window of ``lines``; nan at poles.

    log-Gamma runs in one pass over the arguments of the lines, O(n) of them for
    a window of side n; each K-type gathers its four pairs' log differences, signs and poles.
    ``flags`` holds the pole of each argument, shaped like the lines'
    arguments: numerator row over denominator row.
    """
    logs, signs, flags = _log_gamma(_argument(order, *lines[:2]))  # numerator row, denominator row
    index = lines[3].lines
    with np.errstate(invalid="ignore"):  # inf - inf at poles; masked below
        log_total = (logs[0] - logs[1])[index].sum(axis=0)  # ((pair 1 + pair 2) + pair 3) + pair 4
    poles = (flags[0] | flags[1])[index].any(axis=0)
    values = np.where(poles, np.nan, (signs[0] * signs[1])[index].prod(axis=0) * _exp(log_total))
    return values, poles, flags


def z_gamma_grid(sig: Signature, r, jmax: int, kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eight-Gamma ratio over [0, jmax] x [0, kmax] as (values, poles, infinite); nan at poles.

    ``infinite`` marks the poles with a numerator Gamma argument among them,
    where the ratio is infinite or undefined; a pole whose arguments all sit
    in the denominator is a zero of the ratio.
    """
    lines = _lines(sig, KType(0, 0), jmax + 1, kmax + 1)
    values, poles, flags = _gamma_ratio(SpectralOrder.coerce(r), lines)
    return values, poles, flags[0][lines[3].lines].any(axis=0)


def z_gamma_ratio(sig: Signature, r, v: KType) -> float:
    """The raw eight-Gamma route; raises PoleAtKType on any argument pole."""
    order = SpectralOrder.coerce(r)
    lines = _lines(sig, v, 1, 1)  # one argument per pair and side
    value, pole, flags = _gamma_ratio(order, lines)
    if pole[0, 0]:  # name the first pole argument, pair by pair, numerator first
        pair, row = np.argwhere(flags.T)[0].tolist()
        fourc, s = lines[0][pair].tolist(), lines[1][row, pair].tolist()
        raise PoleAtKType(f"Gamma pole in {('numerator', 'denominator')[row]} at K-type {v}: argument "
                          f"({fourc} {'+' if s > 0 else '-'} 2r)/4 with r = {order.r}")
    return float(value[0, 0])


def singular_ktypes(sig: Signature, r, parity: int, jmax: int, kmax: int) -> set[KType]:
    """K-types of the parity class where the raw Gamma ratio has an argument pole."""
    _, poles, _ = z_gamma_grid(sig, r, jmax, kmax)
    return {KType(j, k) for j, k in np.argwhere(poles).tolist() if (j + k) % 2 == parity}


def _pochhammer(fourx, r: int):
    """4**r (x)_r = prod_{m<r} (4x + 4m), exactly; ints or object arrays.

    At integer r, Gamma(x + r)/Gamma(x) = (x)_r (DLMF 5.2(iii)), so with
    N(4c) = _pochhammer(4c - 2r, r) a Gamma pair (4c, sigma) is (N / 4**r)**sigma.
    Every r comes through SpectralOrder.as_integer.
    """
    out = 1
    for m in range(r):
        out = out * (fourx + 4 * m)
    return out


def _factorized_numerator(sig: Signature, tj, tk, eps, r: int):
    """4**r times the factorized polynomial, N1 N2 of pairs 1-2, exactly: ints or object arrays."""
    return math.prod(_pochhammer(fourc - 2 * r, r) for fourc, _ in _gamma_pairs(sig, tj, tk, eps)[:2])


def _factorized_float(lines, r: int) -> np.ndarray:
    """The polynomial over the window of ``lines``: N1 N2 / 4**r rounded once, N1 and N2 exact
    Python ints along the lines of pairs 1-2."""
    fourc, _, parities, index = lines
    numbers = _pochhammer(fourc[: -2 * parities.size].astype(object) - 2 * r, r)  # the lines of pairs 1-2
    return np.asarray(numbers[index.lines[0]] * numbers[index.lines[1]] / 4**r, dtype=float)


def factorized_eigenvalue_exact(sig: Signature, r: int, v: KType) -> Fraction:
    """Exact polynomial eigenvalue prod_m (K+J+1-r+2m)(K-J+1-r+2m), m < r.

    r is a positive integer, or within TWO_R_TOL of one; any other order raises ValueError.
    """
    from fractions import Fraction  # on first use: no CLI call needs it

    r = SpectralOrder.coerce(r).as_integer
    return Fraction(_factorized_numerator(sig, *doubled_shifts(sig, v), v.parity, r), 4**r)


def parity_constant(sig: Signature, r: int, parity: int) -> float:
    """Ratio of the Gamma-ratio route to the polynomial, constant per parity class.

    Pairs 3-4 give it exactly as 4**r / (N3 N4).  Where N3 N4 = 0 a class
    Gamma pair has a pole at this order, and the constant is pinned by a
    symmetric evaluation at r +/- LIMIT_STEP on the first class member with a
    nonzero polynomial, in (j + k, j) order: deterministic, but
    convention-dependent.  r is read as in factorized_eigenvalue_exact.
    """
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    r = SpectralOrder.coerce(r).as_integer
    n3n4 = math.prod(_pochhammer(fourc - 2 * r, r) for fourc, _ in _gamma_pairs(sig, 0, 0, parity)[2:])
    if n3n4:
        return 4**r / n3n4
    members = (KType(j, s - j) for s in itertools.count(parity, 2) for j in range(s + 1))
    numerators = ((v, _factorized_numerator(sig, *doubled_shifts(sig, v), v.parity, r)) for v in members)
    probe, numerator = next((v, n) for v, n in numerators if n)
    poly = numerator / 4**r  # int / int rounds once, as float(factorized_eigenvalue_exact(sig, r, probe))
    above = z_gamma_ratio(sig, r + LIMIT_STEP, probe) / poly
    below = z_gamma_ratio(sig, r - LIMIT_STEP, probe) / poly
    return 0.5 * (above + below)


def _closed_form(sig: Signature, order: SpectralOrder, corner: KType, nj: int, nk: int):
    """(values, poles, factorized) of z_spectral over the nj x nk window at ``corner``: at a positive
    integer r parity_constant times the factorized polynomial, and the polynomial; else the Gamma route, None."""
    lines = _lines(sig, corner, nj, nk)
    if not order.is_positive_integer:
        return *_gamma_ratio(order, lines)[:2], None
    factorized = _factorized_float(lines, order.as_integer)
    scale = np.array([parity_constant(sig, order.as_integer, parity) for parity in lines[2].tolist()])
    return scale[lines[3].parity] * factorized, np.zeros(factorized.shape, dtype=bool), factorized


def z_spectral_grid(sig: Signature, r, jmax: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """z_spectral over [0, jmax] x [0, kmax] as (values, poles); values are nan at poles."""
    return _closed_form(sig, SpectralOrder.coerce(r), KType(0, 0), jmax + 1, kmax + 1)[:2]


def z_spectral(sig: Signature, r, v: KType) -> float:
    """Eigenvalue of the order-2r intertwining operator on V(j, k).

    Generic real r evaluates the eight-Gamma ratio directly; positive
    integer r dispatches to parity_constant * factorized polynomial, which
    continues the ratio through its matched pole/zero K-types.
    """
    order = SpectralOrder.coerce(r)
    if not order.is_positive_integer:
        return z_gamma_ratio(sig, order, v)
    return float(_closed_form(sig, order, v, 1, 1)[0][0, 0])


def conformal_laplacian_eigenvalue_exact(sig: Signature, v: KType) -> Fraction:
    """Eigenvalue of the Yamabe operator of (-g_p + g_q) on V(j, k): K^2 - J^2."""
    from fractions import Fraction  # on first use: no CLI call needs it

    tj, tk = doubled_shifts(sig, v)
    return Fraction(tk * tk - tj * tj, 4)
