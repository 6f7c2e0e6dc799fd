"""Closed-form eigenvalues: Gamma-ratio spectral function and its factorization.

On the parity class epsilon the eigenvalue at (j, k) is the ratio of eight
Gamma factors

    G((K+J+1+r)/2) G((K-J+1+r)/2) G((e-(p-q)/2+1-r)/2) G((e+(p+q)/2-r)/2)
    -----------------------------------------------------------------------
    G((K+J+1-r)/2) G((K-J+1-r)/2) G((e-(p-q)/2+1+r)/2) G((e+(p+q)/2+r)/2)

evaluated through signed log-Gamma arithmetic.  For a positive integer r the
ratio telescopes to a polynomial

    prod_{m=0}^{r-1} (K+J+1-r+2m)(K-J+1-r+2m)

times a constant depending only on the parity class; the polynomial is the
analytic continuation through the K-types where the raw ratio develops
matched pole/zero pairs, so integer orders dispatch to it.

All Gamma arguments are half-integer lattice translates of +/- r/2; they are
formed in exact doubled-integer arithmetic whenever 2r is an integer, making
pole detection exact in the common cases.  Both routes are evaluated over
whole windows; the scalar functions are the same kernels at one K-type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, gammasgn

from .geometry import KType, Signature, doubled_shifts
from .spectrum import POLE_TOL, SpectralOrder, window

#: Step used for the limit convention when the parity constant is singular.
LIMIT_STEP = 1e-6


class PoleAtGamma(ArithmeticError):
    """Gamma evaluated at a nonpositive integer."""


class PoleAtKType(ArithmeticError):
    """A Gamma-argument pole makes the spectral function undefined here."""

    def __init__(self, message, ktype=None, argument=None):
        super().__init__(message)
        self.ktype = ktype
        self.argument = argument


class NoProbeAvailable(RuntimeError):
    """Every probe K-type was singular or zero; see the limit convention."""


@dataclass(frozen=True)
class SignedLogValue:
    """log |x| together with sign(x); sign 0 encodes an exact zero."""

    log_magnitude: float
    sign: int

    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


def _pole_mask(x, four_x=None):
    """Where Gamma(x) sits on a pole; scalars or arrays.

    ``four_x`` is 4x as exact integers, known when 2r is an integer; without
    it x within POLE_TOL of a nonpositive integer counts as a pole.
    """
    if four_x is not None:
        return (four_x <= 0) & (four_x % 4 == 0)
    rounded = np.round(x)
    return (x <= 0.5) & (np.abs(x - rounded) <= POLE_TOL) & (rounded <= 0)


def signed_log_gamma(x: float) -> SignedLogValue:
    """log |Gamma(x)| and the sign of Gamma(x) for real non-pole x."""
    if _pole_mask(x):
        raise PoleAtGamma(f"Gamma pole at x = {x}")
    return SignedLogValue(float(gammaln(x)), int(gammasgn(x)))


def _gamma_arguments(sig: Signature, order: SpectralOrder, tj, tk, eps):
    """The eight Gamma arguments as (side, fourx, sign, x, pole), numerator then denominator.

    Pair i is Gamma((fourx + sigma*2r)/4) over Gamma((fourx - sigma*2r)/4); the
    doubled shifts ``tj``, ``tk`` and parity ``eps`` are integers or integer arrays.
    """
    pairs = (
        (tk + tj + 2, +1),
        (tk - tj + 2, +1),
        (2 * eps - (sig.p - sig.q) + 2, -1),
        (2 * eps + (sig.p + sig.q), -1),
    )
    for fourx, sigma in pairs:
        for side, s in (("numerator", sigma), ("denominator", -sigma)):
            x = (fourx + s * 2.0 * order.r) / 4.0
            exact = None if order.two_r is None else fourx + s * order.two_r
            yield side, fourx, s, x, _pole_mask(x, exact)


def _exp(x) -> np.ndarray:
    """math.exp elementwise; numpy's exp differs from it in the last bit on some inputs."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.exp, x.ravel()), float, x.size).reshape(x.shape)


def _gamma_ratio(sig: Signature, order: SpectralOrder, tj, tk, eps):
    """(values, poles) of the eight-Gamma ratio; values are nan at poles."""
    log_total = 0.0
    sign = 1.0
    poles = False
    args = iter(_gamma_arguments(sig, order, tj, tk, eps))
    with np.errstate(invalid="ignore"):  # inf - inf at poles; masked below
        for (*_, num, num_pole), (*_, den, den_pole) in zip(args, args):  # consecutive pairs
            log_total = log_total + (gammaln(num) - gammaln(den))
            sign = sign * gammasgn(num) * gammasgn(den)
            poles = poles | num_pole | den_pole
    return np.where(poles, np.nan, sign * _exp(log_total)), np.asarray(poles)


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


def singular_ktypes(sig: Signature, r, parity: int, jmax: int, kmax: int) -> set[KType]:
    """K-types of the parity class where the raw Gamma ratio has an argument pole."""
    _, poles = z_gamma_grid(sig, r, jmax, kmax)
    return {KType(j, k) for j, k in np.argwhere(poles).tolist() if (j + k) % 2 == parity}


def _factorized_numerator(tj, tk, r: int):
    """4**r times the factorized polynomial, exactly: ints or object arrays."""
    if r < 1:
        raise ValueError(f"factorized eigenvalue requires a positive integer r, got {r}")
    out = 1
    for m in range(r):
        out = out * (tk + tj + 2 - 2 * r + 4 * m) * (tk - tj + 2 - 2 * r + 4 * m)
    return out


def _factorized_float(tj, tk, r: int) -> np.ndarray:
    """The polynomial rounded once from its exact value; ints or integer arrays."""
    exact = _factorized_numerator(np.asarray(tj, dtype=object), np.asarray(tk, dtype=object), r)
    return np.asarray(exact / 4**r, dtype=float)


def factorized_eigenvalue_exact(sig: Signature, r: int, v: KType) -> Fraction:
    """Exact polynomial eigenvalue prod_m (K+J+1-r+2m)(K-J+1-r+2m), m < r."""
    r = int(r)
    return Fraction(_factorized_numerator(*doubled_shifts(sig, v), r), 4**r)


def factorized_grid(sig: Signature, r: int, jmax: int, kmax: int) -> np.ndarray:
    """float(factorized_eigenvalue_exact) over [0, jmax] x [0, kmax]."""
    _, _, tj, tk = window(sig, jmax, kmax)
    return _factorized_float(tj, tk, int(r))


@lru_cache(maxsize=None)
def _parity_constant_cached(p: int, q: int, r: int, parity: int) -> float:
    sig = Signature(p, q)
    probe_max = 2 * r + 8
    order = SpectralOrder(float(r))
    gamma, poles = z_gamma_grid(sig, order, probe_max, probe_max)
    span = range(probe_max + 1)
    candidates = sorted((KType(j, k) for j in span for k in span if (j + k) % 2 == parity),
                        key=lambda v: (v.j + v.k, v.j))
    fallback = None
    for v in candidates:
        poly = factorized_eigenvalue_exact(sig, r, v)
        if poly == 0:
            continue
        if fallback is None:
            fallback = v
        if not poles[v.j, v.k]:
            return float(gamma[v.j, v.k]) / float(poly)
    if fallback is None:
        raise NoProbeAvailable(
            f"no probe K-type with nonzero polynomial for (p,q)=({p},{q}), r={r}, parity={parity}"
        )
    # Limit convention: the Gamma-ratio normalization degenerates at this
    # integer order, so the constant is pinned by a symmetric evaluation at
    # r +/- LIMIT_STEP.  Deterministic, but convention-dependent.
    poly = float(factorized_eigenvalue_exact(sig, r, fallback))
    above = z_gamma_ratio(sig, r + LIMIT_STEP, fallback) / poly
    below = z_gamma_ratio(sig, r - LIMIT_STEP, fallback) / poly
    return 0.5 * (above + below)


def parity_constant(sig: Signature, r: int, parity: int) -> float:
    """Ratio of the Gamma-ratio route to the polynomial, constant per parity class."""
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    return _parity_constant_cached(sig.p, sig.q, int(r), parity)


def _polynomial_route(sig: Signature, r: int, tj, tk, eps) -> np.ndarray:
    """parity_constant * factorized polynomial; ints or integer arrays."""
    scale = np.zeros(np.shape(eps))
    for parity in np.unique(eps).tolist():
        scale = np.where(eps == parity, parity_constant(sig, r, parity), scale)
    return scale * _factorized_float(tj, tk, r)


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
