"""K-type lattice combinatorics for functions on a product of two spheres.

The joint SO(p+1) x SO(q+1) decomposition of functions on S^p x S^q is
indexed by pairs (j, k) of harmonic orders.  Everything downstream
(transition ratios, Gamma-ratio eigenvalues, the zonal algebra) consumes
the shifted parameters J = j + (p-1)/2 and K = k + (q-1)/2.  These are
half-integers, so they are carried around as exact doubled integers
(2J, 2K); floating point enters only at evaluation boundaries.

The order r (SpectralOrder) and the index record of a K-type window
(window_index) live here too.  They are all the code the recursion
(spectrum) and the closed form (closedform) share: the two routes meet in
this module alone.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

#: Quadrant tags for the four lattice moves (j, k) -> (j +/- 1, k +/- 1):
#: first character is the j step, second the k step.
DIRECTIONS = ("++", "+-", "-+", "--")

#: (dj, dk) for each direction tag.
STEPS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


def direction_step(direction: str) -> tuple[int, int]:
    """STEPS[direction]; ValueError for a tag not in DIRECTIONS."""
    if direction not in STEPS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return STEPS[direction]


def _integers(a, b) -> bool:
    """True when a and b are each an int or a numpy integer."""
    return isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))


class Signature(NamedTuple("Signature", [("p", int), ("q", int)])):
    """Dimensions (p, q) of the two sphere factors."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if not _integers(p, q):
            raise ValueError(f"sphere dimensions must be integers, got ({p!r}, {q!r})")
        if p < 1 or q < 1:
            raise ValueError(f"sphere dimensions must satisfy p >= 1 and q >= 1, got ({p}, {q})")
        return super().__new__(cls, p, q)

    @property
    def n(self) -> int:
        """Total dimension p + q."""
        return self.p + self.q


class KType(NamedTuple("KType", [("j", int), ("k", int)])):
    """Lattice point (j, k): harmonic orders on the first and second factor."""

    __slots__ = ()

    def __new__(cls, j: int, k: int):
        if not _integers(j, k):
            raise ValueError(f"harmonic orders must be integers, got ({j!r}, {k!r})")
        if j < 0 or k < 0:
            raise ValueError(f"harmonic orders must be nonnegative, got ({j}, {k})")
        return super().__new__(cls, j, k)

    @property
    def parity(self) -> int:
        """(j + k) mod 2; preserved by every lattice move (j +/- 1, k +/- 1)."""
        return (self.j + self.k) % 2


def doubled_shifts(sig: Signature, v: KType | WindowIndex):
    """Exact (2J, 2K) for the shifted parameters of ``v``: ints for a K-type, and for the index record of a
    window (window_index) an integer column 2J and row 2K."""
    return 2 * v.j + sig.p - 1, 2 * v.k + sig.q - 1


def neighbor(v: KType, direction: str) -> KType | None:
    """The neighbor of ``v`` in the given quadrant, or None if off-lattice."""
    dj, dk = direction_step(direction)
    j, k = v.j + dj, v.k + dk
    if j < 0 or k < 0:
        return None
    return KType(j, k)


def scalar_curvature(sig: Signature) -> int:
    """Scalar curvature of (S^p x S^q, -g_p + g_q): q(q-1) - p(p-1)."""
    return sig.q * (sig.q - 1) - sig.p * (sig.p - 1)


#: |2r - round(2r)| below this treats 2r as the integer round(2r).  Edge
#: singularities (h = r) and Gamma-argument poles need an integer 2r, because
#: 2h and 4c are integers, so they are detected exactly and only then: at any
#: other r, |h - r| > 5e-10 on every edge and the exact value of every Gamma
#: argument is more than 2.5e-10 from a pole.  Its float can still round onto
#: one at a large p, q or |r|, and the closed form reads it as a pole.
TWO_R_TOL = 1e-9

#: Largest positive-integer order r of the integer-order route (SpectralOrder.as_integer).  That route multiplies
#: 2r exact linear factors per K-type, and no order above 98 gives a spectrum that fits a float (measured for
#: p, q <= 6); every float above 2**53 is an integer, so without a bound those products need not end.
MAX_INTEGER_ORDER = 100


class SpectralOrder(NamedTuple("SpectralOrder", [("r", float)])):
    """The order parameter r (the operator has order 2r)."""

    __slots__ = ()

    def __new__(cls, r: float):
        if not math.isfinite(r):
            raise ValueError(f"spectral order must be finite, got r = {r}")
        return super().__new__(cls, r)

    @classmethod
    def coerce(cls, value) -> "SpectralOrder":
        if isinstance(value, SpectralOrder):
            return value
        return cls(float(value))

    @property
    def two_r(self) -> int | None:
        """round(2r) when 2r is (numerically) an integer, else None."""
        t = 2.0 * self.r
        rt = round(t)
        return rt if abs(t - rt) <= TWO_R_TOL else None

    @property
    def is_positive_integer(self) -> bool:
        t = self.two_r
        return t is not None and t > 0 and t % 2 == 0

    @property
    def as_integer(self) -> int:
        """r as an int, the one door of the integer-order route: ValueError unless 1 <= r <= MAX_INTEGER_ORDER."""
        if not self.is_positive_integer:
            raise ValueError(f"r = {self.r} is not a positive integer")
        r = self.two_r // 2
        if r > MAX_INTEGER_ORDER:
            raise ValueError(f"integer order must satisfy r <= {MAX_INTEGER_ORDER}, got r = {self.r}")
        return r

    def __neg__(self) -> "SpectralOrder":
        return SpectralOrder(-self.r)


def check_window(jmax: int, kmax: int, least: int) -> None:
    """Raise ValueError unless jmax, kmax >= least: 0 for closed-form windows, 1 for the recursion route."""
    if jmax < least or kmax < least:
        raise ValueError(f"truncation must satisfy jmax >= {least} and kmax >= {least}, got ({jmax}, {kmax})")


class WindowIndex(NamedTuple):
    """Index arithmetic of an nj x nk window, for every signature and order; read-only arrays (see window_index).

    ``j``, ``k``: the index column and row; ``parity``: (j + k) % 2; ``inside[d]``: the edge in DIRECTIONS[d]
    has its head in the window, where _HEAD_SLICES[d] reads it.  ``lines`` says where each K-type reads each
    of the closed form's four Gamma pairs on their concatenated lines (closedform._lines).
    """

    j: np.ndarray
    k: np.ndarray
    parity: np.ndarray
    inside: np.ndarray
    lines: np.ndarray


#: (target, source) slices of a window grid under which each K-type reads its head in DIRECTIONS[d]: along an
#: axis, entry i reads i + 1 for a step of +1 and i - 1 for a step of -1.  The one encoding of where an edge
#: lands.
_AXIS_SLICES = {1: (slice(None, -1), slice(1, None)), -1: (slice(1, None), slice(None, -1))}
_HEAD_SLICES = [tuple(zip(*(_AXIS_SLICES[step] for step in STEPS[tag]))) for tag in DIRECTIONS]


def _at_heads(grid: np.ndarray, fill=np.nan) -> np.ndarray:
    """[d, j, k]: the entry of a window grid at (j, k) + STEPS[DIRECTIONS[d]], ``fill`` off the window."""
    heads = np.full((4,) + grid.shape, fill, dtype=grid.dtype)
    for head, (target, source) in zip(heads, _HEAD_SLICES):
        head[target] = grid[source]
    return heads


#: Windows of at most this many K-types keep their index record in the cache of _index, whose 256 entries then
#: hold at most 3.6 MB of arrays; larger windows build it per call.
CACHED_WINDOW = 256


@functools.lru_cache(maxsize=256)  # windows repeat within a request and across requests
def _index(nj: int, nk: int) -> WindowIndex:
    j, k = np.arange(nj)[:, None], np.arange(nk)[None, :]
    n = nj + nk - 1
    lines = np.empty((4, nj, nk), dtype=np.intp)  # each line's entries in place: no transient of the window's size
    np.add(j, k, out=lines[0])
    np.subtract(k + (n + nj - 1), j, out=lines[1])
    parity = lines[0] & 1
    np.add(parity, 2 * n, out=lines[2])
    np.add(lines[2], min(n, 2), out=lines[3])
    inside = _at_heads(np.ones((nj, nk), dtype=bool), False)
    record = WindowIndex(j, k, parity, inside, lines)
    for array in record:
        array.flags.writeable = False
    return record


def window_index(nj: int, nk: int) -> WindowIndex:
    """The index record of an nj x nk window: cached up to CACHED_WINDOW K-types, built per call beyond."""
    return (_index if nj * nk <= CACHED_WINDOW else _index.__wrapped__)(nj, nk)
