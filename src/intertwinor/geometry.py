"""K-type lattice combinatorics for functions on a product of two spheres.

The joint SO(p+1) x SO(q+1) decomposition of functions on S^p x S^q is
indexed by pairs (j, k) of harmonic orders.  Everything downstream
(transition ratios, Gamma-ratio eigenvalues, the zonal algebra) consumes
the shifted parameters J = j + (p-1)/2 and K = k + (q-1)/2.  These are
half-integers, so they are carried around as exact doubled integers
(2J, 2K); floating point enters only at evaluation boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Quadrant tags for the four lattice moves (j, k) -> (j +/- 1, k +/- 1):
#: first character is the j step, second the k step.
DIRECTIONS = ("++", "+-", "-+", "--")

#: (dj, dk) for each direction tag.
STEPS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


@dataclass(frozen=True, order=True)
class Signature:
    """Dimensions (p, q) of the two sphere factors."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(
                "sphere dimensions must satisfy p >= 1 and q >= 1, "
                f"got (p, q) = ({self.p}, {self.q})"
            )

    @property
    def n(self) -> int:
        """Total dimension p + q."""
        return self.p + self.q


@dataclass(frozen=True, order=True)
class KType:
    """Lattice point (j, k): harmonic orders on the first and second factor."""

    j: int
    k: int

    def __post_init__(self):
        if self.j < 0 or self.k < 0:
            raise ValueError(f"harmonic orders must be nonnegative, got ({self.j}, {self.k})")

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
