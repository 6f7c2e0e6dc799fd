"""Zonal (azimuthal-only) function algebra on S^p x S^q.

Functions of the two azimuthal angles (tau, rho) only are spanned by

    phi_{jk}(tau, rho) = G_j^{lam_p}(cos tau) * G_k^{lam_q}(cos rho),

with lam = (d-1)/2 the Gegenbauer index of a d-sphere (Chebyshev T when
lam = 0, i.e. d = 1).  phi_{jk} is the zonal line of the K-type V(j, k), so
this finite-dimensional sector is enough to pin every eigenvalue: the
conformal factor cos tau * cos rho, the Bochner Laplacian, and the conformal
vector field all preserve it.

Two independent realizations of the vector field are provided: a pure
coefficient-space route through the commutator identity

    [N, varpi] = 2 (grad_T + (n/2) varpi),

and a pointwise route through the Gegenbauer derivative identity on a
Gauss-Jacobi grid.  They share no code and serve as each other's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Signature


class GridTooCoarse(ValueError):
    """Quadrature grid does not resolve the polynomial degrees in play."""


def gegenbauer_index(d: int) -> float:
    """Gegenbauer index lam = (d - 1)/2 of the zonal basis on a d-sphere."""
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    return 0.5 * (d - 1)


def mult_by_cos(lam: float, c) -> np.ndarray:
    """Coefficients of x * f in the Gegenbauer (or Chebyshev, lam = 0) basis.

    Three-term recurrence: x G_j = (j+1)/(2(j+lam)) G_{j+1}
    + (j+2lam-1)/(2(j+lam)) G_{j-1}; the Chebyshev branch has the j = 0
    anomaly x T_0 = T_1.  Output degree grows by one.  ``c`` may carry
    further axes; the recurrence acts along axis 0, adding the upward terms
    before the downward ones, as a loop over j would.
    """
    c = np.asarray(c, dtype=float)
    j = np.arange(len(c), dtype=float).reshape((-1,) + (1,) * (c.ndim - 1))
    if lam == 0:
        up = np.where(j == 0, 1.0, 0.5)
        down = np.full(j.shape, 0.5)
    else:
        up = (j + 1) / (2.0 * (j + lam))
        down = (j + 2.0 * lam - 1) / (2.0 * (j + lam))
    out = np.zeros((len(c) + 1,) + c.shape[1:])
    out[1:] += up * c
    out[:-2] += down[1:] * c[1:]
    return out


@lru_cache(maxsize=None)
def _cos_matrix(d: int, deg: int) -> np.ndarray:
    """Matrix of mult_by_cos on coefficient vectors of degree <= deg."""
    return mult_by_cos(gegenbauer_index(d), np.eye(deg + 1))


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


def _gegenbauer_columns(lam: float, deg: int, x: np.ndarray) -> np.ndarray:
    """V[a, j] = C_j^lam(x_a), j <= deg, for lam > 0.

    Three-term recurrence (DLMF 18.9.1): C_0 = 1, C_1 = 2 lam x,
    (j+1) C_{j+1} = 2(j+lam) x C_j - (j+2lam-1) C_{j-1}.
    """
    V = np.empty((len(x), deg + 1))
    V[:, 0] = 1.0
    if deg >= 1:
        V[:, 1] = 2.0 * lam * x
    for j in range(1, deg):
        V[:, j + 1] = (2.0 * (j + lam) * x * V[:, j] - (j + 2.0 * lam - 1.0) * V[:, j - 1]) / (j + 1)
    return V


def _poly_matrix(d: int, deg: int, x: np.ndarray) -> np.ndarray:
    """Vandermonde V[a, j] = G_j(x_a) for the d-sphere zonal basis."""
    lam = gegenbauer_index(d)
    if lam > 0:
        return _gegenbauer_columns(lam, deg, x)
    # Chebyshev T (DLMF 18.9.1): T_0 = 1, T_1 = x, T_{j+1} = 2x T_j - T_{j-1}.
    V = np.empty((len(x), deg + 1))
    V[:, 0] = 1.0
    if deg >= 1:
        V[:, 1] = x
    for j in range(1, deg):
        V[:, j + 1] = 2.0 * x * V[:, j] - V[:, j - 1]
    return V


def _deriv_matrix(d: int, deg: int, x: np.ndarray) -> np.ndarray:
    """Vandermonde of d/dx G_j: 2 lam C_{j-1}^{lam+1}, or j U_{j-1} = j C_{j-1}^1 for Chebyshev."""
    lam = gegenbauer_index(d)
    D = np.zeros((len(x), deg + 1))
    if deg >= 1:
        scale = 2.0 * lam if lam > 0 else np.arange(1.0, deg + 1)
        D[:, 1:] = scale * _gegenbauer_columns(lam + 1.0, deg - 1, x)
    return D


@dataclass(eq=False, frozen=True)
class ZonalFunction:
    """Dense coefficient array over the tensor-product zonal basis."""

    sig: Signature
    coeffs: np.ndarray  # shape (jmax + 1, kmax + 1)

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def jmax(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def kmax(self) -> int:
        return self.coeffs.shape[1] - 1

    def __add__(self, other: "ZonalFunction") -> "ZonalFunction":
        if self.sig != other.sig or self.coeffs.shape != other.coeffs.shape:
            raise ValueError("shape/signature mismatch")
        return ZonalFunction(self.sig, self.coeffs + other.coeffs)

    def __sub__(self, other: "ZonalFunction") -> "ZonalFunction":
        if self.sig != other.sig or self.coeffs.shape != other.coeffs.shape:
            raise ValueError("shape/signature mismatch")
        return ZonalFunction(self.sig, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "ZonalFunction":
        return ZonalFunction(self.sig, self.coeffs * float(scalar))

    __rmul__ = __mul__


def basis_element(sig: Signature, j: int, k: int, jmax=None, kmax=None) -> ZonalFunction:
    """The zonal basis function phi_{jk} as a coefficient array."""
    jmax = j if jmax is None else jmax
    kmax = k if kmax is None else kmax
    c = np.zeros((jmax + 1, kmax + 1))
    c[j, k] = 1.0
    return ZonalFunction(sig, c)


def multiply_by_varpi(f: ZonalFunction) -> ZonalFunction:
    """Multiplication by varpi = cos tau * cos rho; degrees grow by one each."""
    Mp = _cos_matrix(f.sig.p, f.jmax)
    Mq = _cos_matrix(f.sig.q, f.kmax)
    return ZonalFunction(f.sig, Mp @ f.coeffs @ Mq.T)


def apply_N(f: ZonalFunction) -> ZonalFunction:
    """Bochner Laplacian: diagonal with eigenvalue j(p-1+j) + k(q-1+k)."""
    j = np.arange(f.jmax + 1)
    k = np.arange(f.kmax + 1)
    nj = j * (f.sig.p - 1 + j)
    nk = k * (f.sig.q - 1 + k)
    return ZonalFunction(f.sig, f.coeffs * (nj[:, None] + nk[None, :]))


def apply_T_via_lemma(f: ZonalFunction) -> ZonalFunction:
    """The conformal vector field through the commutator identity.

    T f = (1/2)(N(varpi f) - varpi(N f)) - (n/2) varpi f, entirely in
    coefficient space.
    """
    vf = multiply_by_varpi(f)
    commutator = apply_N(vf) - multiply_by_varpi(apply_N(f))
    return 0.5 * commutator - (f.sig.n / 2.0) * vf


@dataclass(eq=False, frozen=True)
class QuadratureGrid:
    """Gauss-Jacobi nodes/weights for both angular factors, in x = cos theta.

    ``Vx``, ``Dx`` (``Vy``, ``Dy``) are the value and derivative Vandermondes
    of the zonal basis at the nodes up to ``max_degree_x`` (``max_degree_y``).
    Column j of a recurrence depends only on the columns before it, so the
    first m + 1 columns are the Vandermonde of degree m, bit for bit.
    """

    sig: Signature
    x: np.ndarray
    wx: np.ndarray
    y: np.ndarray
    wy: np.ndarray
    max_degree_x: int
    max_degree_y: int
    Vx: np.ndarray
    Dx: np.ndarray
    Vy: np.ndarray
    Dy: np.ndarray


def _orthonormal_last(x: np.ndarray, off: np.ndarray, mass: float):
    """(P_n(x), P_n'(x)) for the orthonormal P_m of the Jacobi matrix.

    ``off`` holds sqrt(b_1), ..., sqrt(b_n); the recurrence is
    sqrt(b_{m+1}) P_{m+1} = x P_m - sqrt(b_m) P_{m-1}, P_0 = mass^(-1/2).
    """
    prev, cur = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mass))
    dprev, dcur = np.zeros_like(x), np.zeros_like(x)
    for m, c in enumerate(off):
        below = off[m - 1] if m else 0.0
        prev, cur, dprev, dcur = (cur, (x * cur - below * prev) / c,
                                  dcur, (cur + x * dcur - below * dprev) / c)
    return cur, dcur


def _christoffel_sum(x: np.ndarray, off: np.ndarray, mass: float) -> np.ndarray:
    """sum_{m<n} P_m(x)^2 over the orthonormal P_m of _orthonormal_last."""
    prev, cur = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(mass))
    total = np.zeros_like(x)
    for m, c in enumerate(off):
        total += cur * cur
        below = off[m - 1] if m else 0.0
        prev, cur = cur, (x * cur - below * prev) / c
    return total


def _gauss_jacobi(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss nodes and weights for the weight (1-x^2)^a on [-1, 1], a > -1.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric Jacobi matrix of the monic orthogonal polynomials, zero on
    the diagonal with off-diagonal sqrt(b_m), b_m = m(m+2a)/((2m+2a)^2 - 1),
    polished by one Newton step on P_n.  Each weight is the Christoffel number
    1 / sum_{m<n} P_m(x)^2 over the orthonormal P_m: a sum of positive terms,
    so the small weights near +/-1 keep their relative accuracy, where the
    first eigenvector components would not.
    """
    m = np.arange(2, n + 1, dtype=float)
    # b_1 = 1/(2a + 3) has the factor 2a + 1 cancelled, which vanishes for Chebyshev (a = -1/2).
    off = np.sqrt(np.concatenate(([1.0 / (2.0 * a + 3.0)],
                                  m * (m + 2.0 * a) / ((2.0 * m + 2.0 * a) ** 2 - 1.0))))
    x = np.linalg.eigvalsh(np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    mass = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)  # integral of the weight
    p, dp = _orthonormal_last(x, off, mass)
    x = x - p / dp
    return x, 1.0 / _christoffel_sum(x, off, mass)


#: Nodes per axis of a quadrature grid beyond the degree it resolves.
GRID_MARGIN = 4


@lru_cache(maxsize=None)
def quadrature_grid(sig: Signature, jdeg: int, kdeg: int) -> QuadratureGrid:
    """Grid resolving degrees (jdeg, kdeg) with GRID_MARGIN extra nodes per axis.

    The weight on each axis is (1-x^2)^{(d-2)/2}, matching the zonal measure
    sin^{d-1}(theta) d theta.
    """
    x, wx = _gauss_jacobi(jdeg + GRID_MARGIN, 0.5 * (sig.p - 2))
    y, wy = _gauss_jacobi(kdeg + GRID_MARGIN, 0.5 * (sig.q - 2))
    return QuadratureGrid(sig, x, wx, y, wy, jdeg, kdeg,
                          _poly_matrix(sig.p, jdeg, x), _deriv_matrix(sig.p, jdeg, x),
                          _poly_matrix(sig.q, kdeg, y), _deriv_matrix(sig.q, kdeg, y))


def _leading(V: np.ndarray, deg: int) -> np.ndarray:
    """The first deg + 1 columns of a grid Vandermonde, as a contiguous copy.

    numpy picks its BLAS call by the strides of the operands: a one-row
    strided view goes to gemv with a non-unit increment, which sums in
    another order than the matrix built at that degree.
    """
    return np.ascontiguousarray(V[:, : deg + 1])


def evaluate(f: ZonalFunction, grid: QuadratureGrid) -> np.ndarray:
    """Sample f on the grid: samples[a, b] = f(x_a, y_b).

    Uses the leading columns of the grid's Vandermondes.
    """
    if f.jmax > grid.max_degree_x or f.kmax > grid.max_degree_y:
        raise GridTooCoarse(
            f"grid resolves degrees ({grid.max_degree_x}, {grid.max_degree_y}), "
            f"function has ({f.jmax}, {f.kmax})"
        )
    return _leading(grid.Vx, f.jmax) @ f.coeffs @ _leading(grid.Vy, f.kmax).T


def project(samples: np.ndarray, grid: QuadratureGrid, jmax: int, kmax: int) -> ZonalFunction:
    """Coefficients of grid samples by discrete orthogonality.

    Uses the leading columns of the grid's Vandermondes.
    """
    if jmax > grid.max_degree_x or kmax > grid.max_degree_y:
        raise GridTooCoarse(
            f"grid resolves degrees ({grid.max_degree_x}, {grid.max_degree_y}), "
            f"requested ({jmax}, {kmax})"
        )
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

    Independent of apply_T_via_lemma; used as its oracle.  Uses the leading
    columns of the grid's value and derivative Vandermondes.
    """
    if f.jmax + 1 > grid.max_degree_x or f.kmax + 1 > grid.max_degree_y:
        raise GridTooCoarse(
            f"grid must resolve degrees ({f.jmax + 1}, {f.kmax + 1}), "
            f"resolves ({grid.max_degree_x}, {grid.max_degree_y})"
        )
    Vx, Dx = _leading(grid.Vx, f.jmax), _leading(grid.Dx, f.jmax)
    Vy, Dy = _leading(grid.Vy, f.kmax), _leading(grid.Dy, f.kmax)
    fx = Dx @ f.coeffs @ Vy.T
    fy = Vx @ f.coeffs @ Dy.T
    x = grid.x[:, None]
    y = grid.y[None, :]
    return -y * (1.0 - x**2) * fx - x * (1.0 - y**2) * fy

