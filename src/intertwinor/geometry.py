"""K-type lattice combinatorics for functions on a product of two spheres.

The joint SO(p+1) x SO(q+1) decomposition of functions on S^p x S^q is
indexed by pairs (j, k) of harmonic orders.  Everything downstream
(transition ratios, Gamma-ratio eigenvalues, the zonal algebra) consumes
the shifted parameters J = j + (p-1)/2 and K = k + (q-1)/2.  These are
half-integers, so they are carried around as exact doubled integers
(2J, 2K); floating point enters only at evaluation boundaries.
"""

from __future__ import annotations

from typing import NamedTuple

#: Quadrant tags for the four lattice moves (j, k) -> (j +/- 1, k +/- 1):
#: first character is the j step, second the k step.
DIRECTIONS = ("++", "+-", "-+", "--")

#: (dj, dk) for each direction tag.
STEPS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


class Signature(NamedTuple("Signature", [("p", int), ("q", int)])):
    """Dimensions (p, q) of the two sphere factors."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p < 1 or q < 1:
            raise ValueError(f"sphere dimensions must satisfy p >= 1 and q >= 1, got (p, q) = ({p}, {q})")
        return super().__new__(cls, p, q)

    @property
    def n(self) -> int:
        """Total dimension p + q."""
        return self.p + self.q


class KType(NamedTuple("KType", [("j", int), ("k", int)])):
    """Lattice point (j, k): harmonic orders on the first and second factor."""

    __slots__ = ()

    def __new__(cls, j: int, k: int):
        if j < 0 or k < 0:
            raise ValueError(f"harmonic orders must be nonnegative, got ({j}, {k})")
        return super().__new__(cls, j, k)

    @property
    def parity(self) -> int:
        """(j + k) mod 2; preserved by every lattice move (j +/- 1, k +/- 1)."""
        return (self.j + self.k) % 2


def doubled_shifts(sig: Signature, v: KType) -> tuple[int, int]:
    """Exact (2J, 2K) for the shifted parameters of ``v``."""
    return 2 * v.j + sig.p - 1, 2 * v.k + sig.q - 1


def neighbor(v: KType, direction: str) -> KType | None:
    """The neighbor of ``v`` in the given quadrant, or None if off-lattice."""
    dj, dk = STEPS[direction]
    j, k = v.j + dj, v.k + dk
    if j < 0 or k < 0:
        return None
    return KType(j, k)


def scalar_curvature(sig: Signature) -> int:
    """Scalar curvature of (S^p x S^q, -g_p + g_q): q(q-1) - p(p-1)."""
    return sig.q * (sig.q - 1) - sig.p * (sig.p - 1)
