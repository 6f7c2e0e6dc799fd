"""Zonal (azimuthal-only) function algebra on S^p x S^q.

Functions of the two azimuthal angles (tau, rho) only are spanned by

    phi_{jk}(tau, rho) = G_j^{lam_p}(cos tau) * G_k^{lam_q}(cos rho),

with lam = (d-1)/2 the Gegenbauer index of a d-sphere (Chebyshev T when
lam = 0, i.e. d = 1).  phi_{jk} is the zonal line of the K-type V(j, k), so
this finite-dimensional sector is enough to pin every eigenvalue: the
conformal factor cos tau * cos rho, the Bochner Laplacian, and the conformal
vector field all preserve it.

Two independent coefficient-space realizations of the vector field are
provided: one through the commutator identity

    [N, varpi] = 2 (grad_T + (n/2) varpi),

and a banded stencil through the Gegenbauer derivative identity (DLMF
18.9).  They share no code and serve as each other's oracle.  A
Gauss-Jacobi quadrature grid samples and projects functions (library API)
and evaluates the derivative identity pointwise, the tests' oracle of the
stencil.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import Signature


class GridTooCoarse(ValueError):
    """Quadrature grid does not resolve the polynomial degrees in play."""


def gegenbauer_index(d: int) -> float:
    """Gegenbauer index lam = (d - 1)/2 of the zonal basis on a d-sphere."""
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    return 0.5 * (d - 1)


def _x_columns(lam: float, n: int, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(up, down): the coefficients of x G_j on G_{j+1} and on G_{j-1}, j < n, shaped as columns along the
    negative ``axis`` of a coefficient array (see mult_by_cos)."""
    j = np.arange(n, dtype=float).reshape((-1,) + (1,) * (-1 - axis))
    if lam == 0:
        return np.where(j == 0, 1.0, 0.5), np.full(j.shape, 0.5)
    twice = 2.0 * (j + lam)
    return (j + 1) / twice, (j + 2.0 * lam - 1) / twice


def _times_x(columns: tuple[np.ndarray, np.ndarray], c: np.ndarray, axis: int) -> np.ndarray:
    """x * f along the negative ``axis`` of c, with the _x_columns of that axis: upward terms first."""
    up, down = columns
    tail = (slice(None),) * (-1 - axis)  # the axes after ``axis``
    out = np.zeros(c.shape[:axis] + (c.shape[axis] + 1,) + c.shape[axis:][1:])
    np.multiply(up, c, out=out[(..., slice(1, None), *tail)])
    out[(..., slice(None, -2), *tail)] += down[1:] * c[(..., slice(1, None), *tail)]
    return out


def mult_by_cos(lam: float, c) -> np.ndarray:
    """Coefficients of x * f in the Gegenbauer (or Chebyshev, lam = 0) basis.

    Three-term recurrence: x G_j = (j+1)/(2(j+lam)) G_{j+1}
    + (j+2lam-1)/(2(j+lam)) G_{j-1}; the Chebyshev branch has the j = 0
    anomaly x T_0 = T_1.  Output degree grows by one.  ``c`` may carry
    further axes; the recurrence acts along axis 0, adding the upward terms
    before the downward ones, as a loop over j would.
    """
    c = np.asarray(c, dtype=float)
    return _times_x(_x_columns(lam, len(c), -c.ndim), c, -c.ndim)


def gegenbauer_norm(d: int, j: int) -> float:
    """L^2 norm^2 of the degree-j basis polynomial under (1-x^2)^{(d-2)/2} dx."""
    lam = gegenbauer_index(d)
    if lam == 0:
        return np.pi if j == 0 else np.pi / 2.0
    return math.exp(
        math.log(math.pi)
        + (1.0 - 2.0 * lam) * math.log(2.0)
        + math.lgamma(j + 2.0 * lam)
        - math.log(j + lam)
        - 2.0 * math.lgamma(lam)
        - math.lgamma(j + 1.0)
    )


def _three_term_columns(lam: float, deg: int, x: np.ndarray) -> np.ndarray:
    """V[a, j] = G_j(x_a), j <= deg: one recurrence column per step.

    G is C^lam for lam > 0 (DLMF 18.9.1): G_1 = 2 lam x, (j+1) G_{j+1} = 2(j+lam) x G_j - (j+2lam-1) G_{j-1};
    for lam = 0 it is Chebyshev T: G_1 = x, G_{j+1} = 2x G_j - G_{j-1}, the same step with exact unit factors.
    """
    V = np.ones((len(x), deg + 1))
    if deg >= 1:
        V[:, 1] = (2.0 * lam if lam > 0 else 1.0) * x
    for j in range(1, deg):
        a, b, c = (2.0 * (j + lam), j + 2.0 * lam - 1.0, j + 1.0) if lam > 0 else (2.0, 1.0, 1.0)
        V[:, j + 1] = (a * x * V[:, j] - b * V[:, j - 1]) / c
    return V


def _derivative_columns(lam: float, deg: int, x: np.ndarray) -> np.ndarray:
    """d/dx G_j(x_a), j <= deg: 2 lam C_{j-1}^{lam+1}, or j U_{j-1} = j C_{j-1}^1 for Chebyshev."""
    D = np.zeros((len(x), deg + 1))
    D[:, 1:] = (2.0 * lam if lam > 0 else np.arange(1.0, deg + 1)) * _three_term_columns(lam + 1.0, deg - 1, x)
    return D


class ZonalFunction:
    """Dense coefficient array over the tensor-product zonal basis.

    Leading axes, if any, index a stack of functions; the operators below
    act on each function of a stack alike.  Equality is identity.
    """

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs):
        arr = np.atleast_2d(np.asarray(coeffs, dtype=float))  # shape (..., jmax + 1, kmax + 1)
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        self.sig = sig
        self.coeffs = arr

    @property
    def jmax(self) -> int:
        return self.coeffs.shape[-2] - 1

    @property
    def kmax(self) -> int:
        return self.coeffs.shape[-1] - 1


def basis_element(sig: Signature, j: int, k: int, jmax=None, kmax=None) -> ZonalFunction:
    """The zonal basis function phi_{jk} as a coefficient array."""
    jmax = j if jmax is None else jmax
    kmax = k if kmax is None else kmax
    c = np.zeros((jmax + 1, kmax + 1))
    c[j, k] = 1.0
    return ZonalFunction(sig, c)


def _varpi(f: ZonalFunction):
    """Multiplication by varpi of coefficient arrays over f's window, f's or another stack's: the recurrence of
    mult_by_cos along j, then along k, each with one set of _x_columns for every array."""
    along_j = _x_columns(gegenbauer_index(f.sig.p), f.jmax + 1, -2)
    along_k = _x_columns(gegenbauer_index(f.sig.q), f.kmax + 1, -1)
    return lambda c: _times_x(along_k, _times_x(along_j, c, -2), -1)


def multiply_by_varpi(f: ZonalFunction) -> ZonalFunction:
    """Multiplication by varpi = cos tau * cos rho; degrees grow by one each.

    The recurrence of mult_by_cos along j, then along k, on f or on each function of a stack: linear
    in memory and time, no matrix.
    """
    return ZonalFunction(f.sig, _varpi(f)(f.coeffs))


def _bochner(sig: Signature, nj: int, nk: int) -> np.ndarray:
    """The eigenvalues j(p-1+j) + k(q-1+k) of N over the nj x nk window, as integers."""
    j, k = np.arange(nj), np.arange(nk)
    return (j * (sig.p - 1 + j))[:, None] + (k * (sig.q - 1 + k))[None, :]


def apply_N(f: ZonalFunction) -> ZonalFunction:
    """Bochner Laplacian: diagonal with eigenvalue j(p-1+j) + k(q-1+k)."""
    return ZonalFunction(f.sig, f.coeffs * _bochner(f.sig, f.jmax + 1, f.kmax + 1))


def _varpi_commutator(f: ZonalFunction, shift: float) -> np.ndarray:
    """Coefficients of (1/2)[N, varpi] f + shift * varpi f: two multiplications by varpi, of f and of N f."""
    varpi = _varpi(f)
    vnf = varpi(f.coeffs * _bochner(f.sig, f.jmax + 1, f.kmax + 1))  # first, while no other product is held
    vf = varpi(f.coeffs)
    out = vf * _bochner(f.sig, f.jmax + 2, f.kmax + 2)  # updated in place: fewer transients the size of a stack
    out -= vnf
    out *= 0.5
    out += shift * vf
    return out


def apply_T_via_lemma(f: ZonalFunction) -> ZonalFunction:
    """The conformal vector field through the commutator identity.

    T f = (1/2)(N(varpi f) - varpi(N f)) - (n/2) varpi f, entirely in
    coefficient space.
    """
    return ZonalFunction(f.sig, _varpi_commutator(f, -f.sig.n / 2.0))


def _axis_coefficients(n, lam):
    """((x_up, x_down), (d_up, d_down)): x G_n and D G_n = -(1 - x^2) G_n' on G_{n+1} and G_{n-1}.

    x C_n = ((n+1) C_{n+1} + (n+2lam-1) C_{n-1}) / (2(n+lam)); x T_0 = T_1, else x T_n = (T_{n+1} + T_{n-1})/2.
    In both bases d_up = n x_up and d_down = -(n+2lam) x_down (DLMF section 18.9, from its recurrences and
    derivative identities).  ``n`` may be an array, and ``n`` and ``lam`` sympy symbols.
    """
    if lam == 0:
        up, down = np.where(n == 0, 1.0, 0.5), 0.5
    else:
        up, down = (n + 1) / (2 * (n + lam)), (n + 2 * lam - 1) / (2 * (n + lam))
    return (up, down), (n * up, -(n + 2 * lam) * down)


def apply_T_banded(f: ZonalFunction) -> ZonalFunction:
    """The conformal vector field in coefficient space, through the derivative identity; degrees grow by one.

    T phi_jk = (D G_j)(y G_k) + (x G_j)(D G_k), D = -(1 - x^2) d/dx, is a four-term stencil on the neighbours
    (j +/- 1, k +/- 1) with the coefficients of _axis_coefficients.  It shares no code with apply_T_via_lemma.
    """
    xj, dj = _axis_coefficients(np.arange(f.jmax + 1.0)[:, None], gegenbauer_index(f.sig.p))
    xk, dk = _axis_coefficients(np.arange(f.kmax + 1.0), gegenbauer_index(f.sig.q))
    out = np.zeros(f.coeffs.shape[:-2] + (f.jmax + 2, f.kmax + 2))
    moves = ((slice(None), slice(1, None)), (slice(1, None), slice(None, -2)))  # (source, target): up, down
    for a, (sj, tj) in enumerate(moves):
        for b, (sk, tk) in enumerate(moves):
            out[..., tj, tk] += (dj[a] * xk[b] + xj[a] * dk[b])[sj, sk] * f.coeffs[..., sj, sk]
    return ZonalFunction(f.sig, out)


class QuadratureGrid(NamedTuple):
    """Gauss-Jacobi nodes and weights for both angular factors, in x = cos theta.

    ``Vx``, ``Dx`` (``Vy``, ``Dy``) are the value and derivative Vandermondes
    of the zonal basis at the nodes up to ``max_degree_x`` (``max_degree_y``).
    Column j of a recurrence depends only on the columns before it, so the
    first m + 1 columns are the Vandermonde of degree m, bit for bit.  The
    weights are computed on each read: only ``project`` reads them, once.
    """

    sig: Signature
    x: np.ndarray
    y: np.ndarray
    max_degree_x: int
    max_degree_y: int
    Vx: np.ndarray
    Dx: np.ndarray
    Vy: np.ndarray
    Dy: np.ndarray

    @property
    def wx(self) -> np.ndarray:
        return _christoffel_weights(self.x, 0.5 * (self.sig.p - 2))

    @property
    def wy(self) -> np.ndarray:
        return _christoffel_weights(self.y, 0.5 * (self.sig.q - 2))


def _jacobi_recurrence(n: int, a: float) -> tuple[np.ndarray, float]:
    """(sqrt(b_1), ..., sqrt(b_n)) of the monic orthogonal polynomials of the weight (1-x^2)^a, and its integral."""
    m = np.arange(2, n + 1, dtype=float)
    # b_1 = 1/(2a + 3) has the factor 2a + 1 cancelled, which vanishes for Chebyshev (a = -1/2).
    off = np.sqrt(np.concatenate(([1.0 / (2.0 * a + 3.0)],
                                  m * (m + 2.0 * a) / ((2.0 * m + 2.0 * a) ** 2 - 1.0))))
    try:
        mass = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    except OverflowError:  # Gamma(a + 1.5) beyond the float range, from d = 343 on: the ratio in log space
        mass = math.sqrt(math.pi) * math.exp(math.lgamma(a + 1.0) - math.lgamma(a + 1.5))
    return off, mass


def _orthonormal_sums(x: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x), sum_{m<n} P_m(x)^2), n = len(x), of the orthonormal polynomials of the weight (1-x^2)^a:
    sqrt(b_{m+1}) P_{m+1} = x P_m - sqrt(b_m) P_{m-1}, P_0 = mass^(-1/2)."""
    off, mass = _jacobi_recurrence(len(x), a)
    prev, cur = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mass))
    dprev, dcur, total = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for m, c in enumerate(off):
        total += cur * cur
        below = off[m - 1] if m else 0.0
        prev, cur, dprev, dcur = (cur, (x * cur - below * prev) / c,
                                  dcur, (cur + x * dcur - below * dprev) / c)
    return cur, dcur, total


def _gauss_jacobi_nodes(n: int, a: float) -> np.ndarray:
    """n-point Gauss nodes for the weight (1-x^2)^a on [-1, 1], a > -1.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric Jacobi matrix of the monic orthogonal polynomials, zero on
    the diagonal with off-diagonal sqrt(b_m), b_m = m(m+2a)/((2m+2a)^2 - 1),
    polished by one Newton step on P_n.
    """
    off, _ = _jacobi_recurrence(n, a)
    x = np.linalg.eigvalsh(np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    value, slope, _ = _orthonormal_sums(x, a)
    return x - value / slope


def _christoffel_weights(x: np.ndarray, a: float) -> np.ndarray:
    """Christoffel numbers 1 / sum_{m<n} P_m(x)^2: the weights at the n = len(x) Gauss nodes x of (1-x^2)^a.

    A sum of positive terms keeps the small weights near +/-1 accurate, where the first eigenvector
    components would not.
    """
    return 1.0 / _orthonormal_sums(x, a)[2]


#: Nodes per axis of a quadrature grid beyond the degree it resolves.
GRID_MARGIN = 4


def quadrature_grid(sig: Signature, jdeg: int, kdeg: int) -> QuadratureGrid:
    """Grid resolving degrees (jdeg, kdeg) with GRID_MARGIN extra nodes per axis.

    The weight on each axis is (1-x^2)^{(d-2)/2}, matching the zonal measure
    sin^{d-1}(theta) d theta.
    """
    lp, lq = gegenbauer_index(sig.p), gegenbauer_index(sig.q)
    x = _gauss_jacobi_nodes(jdeg + GRID_MARGIN, 0.5 * (sig.p - 2))
    y = _gauss_jacobi_nodes(kdeg + GRID_MARGIN, 0.5 * (sig.q - 2))
    return QuadratureGrid(sig, x, y, jdeg, kdeg, _three_term_columns(lp, jdeg, x), _derivative_columns(lp, jdeg, x),
                          _three_term_columns(lq, kdeg, y), _derivative_columns(lq, kdeg, y))


def _leading(V: np.ndarray, deg: int) -> np.ndarray:
    """The first deg + 1 columns of a grid Vandermonde, as a contiguous copy.

    numpy picks its BLAS call by the strides of the operands: a one-row
    strided view goes to gemv with a non-unit increment, which sums in
    another order than the matrix built at that degree.
    """
    return np.ascontiguousarray(V[:, : deg + 1])


def _require_degrees(grid: QuadratureGrid, jdeg: int, kdeg: int) -> None:
    """Raise GridTooCoarse unless the grid resolves degrees (jdeg, kdeg)."""
    if jdeg > grid.max_degree_x or kdeg > grid.max_degree_y:
        raise GridTooCoarse(f"grid resolves degrees ({grid.max_degree_x}, {grid.max_degree_y}), not ({jdeg}, {kdeg})")


def evaluate(f: ZonalFunction, grid: QuadratureGrid) -> np.ndarray:
    """Sample f on the grid: samples[a, b] = f(x_a, y_b).

    Uses the leading columns of the grid's Vandermondes.
    """
    _require_degrees(grid, f.jmax, f.kmax)
    return _leading(grid.Vx, f.jmax) @ f.coeffs @ _leading(grid.Vy, f.kmax).T


def project(samples: np.ndarray, grid: QuadratureGrid, jmax: int, kmax: int) -> ZonalFunction:
    """Coefficients of grid samples by discrete orthogonality.

    Uses the leading columns of the grid's Vandermondes.
    """
    _require_degrees(grid, jmax, kmax)
    sig = grid.sig
    weighted = samples * grid.wx[:, None] * grid.wy[None, :]
    raw = _leading(grid.Vx, jmax).T @ weighted @ _leading(grid.Vy, kmax)
    hx = np.array([gegenbauer_norm(sig.p, j) for j in range(jmax + 1)])
    hy = np.array([gegenbauer_norm(sig.q, k) for k in range(kmax + 1)])
    return ZonalFunction(sig, raw / (hx[:, None] * hy[None, :]))


def apply_T_numeric(f: ZonalFunction, grid: QuadratureGrid) -> np.ndarray:
    """Pointwise conformal vector field, through exact Gegenbauer derivatives.

    T f = cos(rho) sin(tau) d/d tau f + cos(tau) sin(rho) d/d rho f
        = -y (1 - x^2) f_x - x (1 - y^2) f_y   in x = cos tau, y = cos rho.

    Independent of apply_T_via_lemma and apply_T_banded; the tests' pointwise oracle
    of apply_T_banded.  Uses the leading columns of the grid's Vandermondes.
    """
    _require_degrees(grid, f.jmax + 1, f.kmax + 1)
    Vx, Dx = _leading(grid.Vx, f.jmax), _leading(grid.Dx, f.jmax)
    Vy, Dy = _leading(grid.Vy, f.kmax), _leading(grid.Dy, f.kmax)
    fx, fy = Dx @ f.coeffs @ Vy.T, Vx @ f.coeffs @ Dy.T
    x, y = grid.x[:, None], grid.y[None, :]
    fx *= -y * (1.0 - x**2)  # in place, as in apply_T_via_lemma
    fy *= x * (1.0 - y**2)
    fx -= fy
    return fx

