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
can sit on a pole only when 2r is an integer; poles are then detected exactly
from the integer 4x.  Both routes are evaluated over whole windows; the
scalar functions are the same kernels at one K-type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import KType, Signature, doubled_shifts
from .spectrum import SpectralOrder, window

#: Step of the limit convention for a parity constant with a class Gamma pole.
LIMIT_STEP = 1e-6


class PoleAtGamma(ArithmeticError):
    """Gamma evaluated at a nonpositive integer."""


class PoleAtKType(ArithmeticError):
    """A Gamma-argument pole makes the spectral function undefined here."""

    def __init__(self, message, ktype=None, argument=None):
        super().__init__(message)
        self.ktype = ktype
        self.argument = argument


@dataclass(frozen=True)
class SignedLogValue:
    """log |x| together with sign(x); sign 0 encodes an exact zero."""

    log_magnitude: float
    sign: int

    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


def _pole_mask(four_x):
    """Where Gamma(x) sits on a pole, from 4x as exact integers; ints or integer arrays."""
    return (four_x <= 0) & (four_x % 4 == 0)


#: Below this |x|, log |Gamma(x)| is taken as log |math.gamma(x)|: against
#: mpmath on the Gamma arguments of the closed form its absolute error is
#: about half that of math.lgamma (median 1.0e-15 against 2.0e-15), and
#: Gamma(x) stays far from overflow and underflow.
GAMMA_DIRECT = 150.0


def _log_gamma(x: float) -> tuple[float, float]:
    """log |Gamma(x)| and the sign of Gamma(x); (inf, 1.0) at an exact pole.

    Gamma(x) < 0 exactly when x < 0 and floor(x) is odd (DLMF 5.4, 5.5.1).
    """
    try:
        log_magnitude = math.log(abs(math.gamma(x))) if abs(x) < GAMMA_DIRECT else math.lgamma(x)
    except (ValueError, OverflowError):  # x a nonpositive integer, or |x| near the float limit
        return math.inf, 1.0
    return log_magnitude, -1.0 if x < 0 and math.floor(x) % 2 else 1.0


def signed_log_gamma(x: float) -> SignedLogValue:
    """log |Gamma(x)| and the sign of Gamma(x) for real x other than 0, -1, -2, ..."""
    if x <= 0 and float(x).is_integer():
        raise PoleAtGamma(f"Gamma pole at x = {x}")
    log_magnitude, sign = _log_gamma(x)
    return SignedLogValue(log_magnitude, int(sign))


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
    """x = (4c + 2sr)/4 and its pole mask, for integer 4c and s = +/-1 (ints or integer arrays).

    Poles need an integer 2r; the mask is all False otherwise.
    """
    x = (fourc + s * 2.0 * order.r) / 4.0
    if order.two_r is None:
        return x, np.zeros(np.shape(x), dtype=bool)
    return x, _pole_mask(fourc + s * order.two_r)


def _gamma_arguments(sig: Signature, order: SpectralOrder, tj, tk, eps):
    """The eight Gamma arguments as (side, fourc, sign, x, pole), pair by pair, numerator first."""
    for fourc, sigma in _gamma_pairs(sig, tj, tk, eps):
        for side, s in (("numerator", sigma), ("denominator", -sigma)):
            yield side, fourc, s, *_argument(order, fourc, s)


def _exp(x) -> np.ndarray:
    """math.exp elementwise; numpy's exp differs from it in the last bit on some inputs."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.exp, x.ravel()), float, x.size).reshape(x.shape)


def _gamma_ratio(sig: Signature, order: SpectralOrder, tj, tk, eps):
    """(values, poles) of the eight-Gamma ratio; values are nan at poles.

    log-Gamma runs once per distinct argument, not once per entry: the
    range of 4c of each of the four pairs forms one table (a window of side n
    has O(n) values of 4c, against O(n^2) entries), and each pair gathers
    from it.
    """
    pairs = _gamma_pairs(sig, tj, tk, eps)
    arrays = np.broadcast_arrays(*(fourc for fourc, _ in pairs))
    fourc = np.stack(arrays).reshape(4, -1)
    lows = fourc.min(axis=1)
    # The 4c of one pair share a parity, so each pair's span steps by 2.
    spans = [range(low, high + 1, 2) for low, high in zip(lows.tolist(), fourc.max(axis=1).tolist())]
    starts = list(itertools.accumulate((len(span) for span in spans), initial=0))[:4]
    index = (np.array(starts)[:, None] + (fourc - lows[:, None]) // 2).reshape(4, *arrays[0].shape)
    distinct = np.array([c for span in spans for c in span])
    side = np.repeat([sigma for _, sigma in pairs], [len(span) for span in spans])
    x, pole = _argument(order, distinct, np.array([side, -side]))  # numerator row, denominator row
    (num_log, den_log), (num_sign, den_sign) = \
        np.array([_log_gamma(v) for v in x.ravel().tolist()]).T.reshape(2, *x.shape)
    with np.errstate(invalid="ignore"):  # inf - inf at poles; masked below
        log_total = (num_log - den_log)[index].sum(axis=0)  # pair by pair, in order
    sign = (num_sign * den_sign)[index].prod(axis=0)
    poles = (pole[0] | pole[1])[index].any(axis=0)
    return np.where(poles, np.nan, sign * _exp(log_total)), poles


def z_gamma_grid(sig: Signature, r, jmax: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The eight-Gamma ratio over [0, jmax] x [0, kmax] as (values, poles); nan at poles."""
    j, k, tj, tk = window(sig, jmax, kmax)
    return _gamma_ratio(sig, SpectralOrder.coerce(r), tj, tk, (j + k) % 2)


def z_gamma_ratio(sig: Signature, r, v: KType) -> float:
    """The raw eight-Gamma route; raises PoleAtKType on any argument pole."""
    order = SpectralOrder.coerce(r)
    tj, tk = doubled_shifts(sig, v)
    value, pole = _gamma_ratio(sig, order, tj, tk, v.parity)
    if pole:
        side, fourx, s, x, _ = next(a for a in _gamma_arguments(sig, order, tj, tk, v.parity) if a[-1])
        raise PoleAtKType(f"Gamma pole in {side} at K-type {v}: argument "
                          f"({fourx} {'+' if s > 0 else '-'} 2r)/4 with r = {order.r}",
                          ktype=v, argument=x)
    return float(value)


def numerator_pole_grid(sig: Signature, r, jmax: int, kmax: int) -> np.ndarray:
    """Where a numerator Gamma argument has a pole over [0, jmax] x [0, kmax].

    The closed form is infinite or undefined there; a K-type whose poles all
    sit in the denominator has eigenvalue 0.
    """
    j, k, tj, tk = window(sig, jmax, kmax)
    args = _gamma_arguments(sig, SpectralOrder.coerce(r), tj, tk, (j + k) % 2)
    return np.logical_or.reduce([pole for side, *_, pole in args if side == "numerator"])


def singular_ktypes(sig: Signature, r, parity: int, jmax: int, kmax: int) -> set[KType]:
    """K-types of the parity class where the raw Gamma ratio has an argument pole."""
    _, poles = z_gamma_grid(sig, r, jmax, kmax)
    return {KType(j, k) for j, k in np.argwhere(poles).tolist() if (j + k) % 2 == parity}


def _pochhammer(fourx, r: int):
    """4**r (x)_r = prod_{m<r} (4x + 4m), exactly; ints or object arrays.

    At integer r, Gamma(x + r)/Gamma(x) = (x)_r (DLMF 5.2(iii)), so with
    N(4c) = _pochhammer(4c - 2r, r) a Gamma pair (4c, sigma) is (N / 4**r)**sigma.
    """
    if r < 1:
        raise ValueError(f"integer-order route requires a positive integer r, got {r}")
    out = 1
    for m in range(r):
        out = out * (fourx + 4 * m)
    return out


def _factorized_numerator(sig: Signature, tj, tk, eps, r: int):
    """4**r times the factorized polynomial, N1 N2 of pairs 1-2, exactly: ints or object arrays."""
    return math.prod(_pochhammer(fourc - 2 * r, r) for fourc, _ in _gamma_pairs(sig, tj, tk, eps)[:2])


def _factorized_float(sig: Signature, tj, tk, eps, r: int) -> np.ndarray:
    """The polynomial rounded once from its exact value; ints or integer arrays."""
    tj, tk = np.asarray(tj, dtype=object), np.asarray(tk, dtype=object)
    return np.asarray(_factorized_numerator(sig, tj, tk, eps, r) / 4**r, dtype=float)


def factorized_eigenvalue_exact(sig: Signature, r: int, v: KType) -> Fraction:
    """Exact polynomial eigenvalue prod_m (K+J+1-r+2m)(K-J+1-r+2m), m < r."""
    r = int(r)
    return Fraction(_factorized_numerator(sig, *doubled_shifts(sig, v), v.parity, r), 4**r)


def factorized_grid(sig: Signature, r: int, jmax: int, kmax: int) -> np.ndarray:
    """float(factorized_eigenvalue_exact) over [0, jmax] x [0, kmax]."""
    j, k, tj, tk = window(sig, jmax, kmax)
    return _factorized_float(sig, tj, tk, (j + k) % 2, int(r))


def parity_constant(sig: Signature, r: int, parity: int) -> float:
    """Ratio of the Gamma-ratio route to the polynomial, constant per parity class.

    Pairs 3-4 give it exactly as 4**r / (N3 N4).  Where N3 N4 = 0 a class
    Gamma pair has a pole at this order, and the constant is pinned by a
    symmetric evaluation at r +/- LIMIT_STEP on the first class member with a
    nonzero polynomial, in (j + k, j) order: deterministic, but
    convention-dependent.
    """
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    r = int(r)
    n3n4 = math.prod(_pochhammer(fourc - 2 * r, r) for fourc, _ in _gamma_pairs(sig, 0, 0, parity)[2:])
    if n3n4:
        return 4**r / n3n4
    members = (KType(j, s - j) for s in itertools.count(parity, 2) for j in range(s + 1))
    probe = next(v for v in members if factorized_eigenvalue_exact(sig, r, v))
    poly = float(factorized_eigenvalue_exact(sig, r, probe))
    above = z_gamma_ratio(sig, r + LIMIT_STEP, probe) / poly
    below = z_gamma_ratio(sig, r - LIMIT_STEP, probe) / poly
    return 0.5 * (above + below)


def _polynomial_route(sig: Signature, r: int, tj, tk, eps) -> np.ndarray:
    """parity_constant * factorized polynomial; ints or integer arrays."""
    scale = np.zeros(np.shape(eps))
    for parity in (0, 1):
        members = eps == parity
        if np.any(members):
            scale = np.where(members, parity_constant(sig, r, parity), scale)
    return scale * _factorized_float(sig, tj, tk, eps, r)


def z_spectral_grid(sig: Signature, r, jmax: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """z_spectral over [0, jmax] x [0, kmax] as (values, poles); values are nan at poles."""
    order = SpectralOrder.coerce(r)
    if not order.is_positive_integer:
        return z_gamma_grid(sig, order, jmax, kmax)
    j, k, tj, tk = window(sig, jmax, kmax)
    values = _polynomial_route(sig, order.as_integer, tj, tk, (j + k) % 2)
    return values, np.zeros(values.shape, dtype=bool)


def z_spectral(sig: Signature, r, v: KType) -> float:
    """Eigenvalue of the order-2r intertwining operator on V(j, k).

    Generic real r evaluates the eight-Gamma ratio directly; positive
    integer r dispatches to parity_constant * factorized polynomial, which
    continues the ratio through its matched pole/zero K-types.
    """
    order = SpectralOrder.coerce(r)
    if not order.is_positive_integer:
        return z_gamma_ratio(sig, order, v)
    return float(_polynomial_route(sig, order.as_integer, *doubled_shifts(sig, v), v.parity))


def conformal_laplacian_eigenvalue_exact(sig: Signature, v: KType) -> Fraction:
    """Eigenvalue of the Yamabe operator of (-g_p + g_q) on V(j, k): K^2 - J^2."""
    tj, tk = doubled_shifts(sig, v)
    return Fraction(tk * tk - tj * tj, 4)
