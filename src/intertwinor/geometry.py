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

FIRST = "first"
SECOND = "second"


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

    def sphere_dimension(self, sphere: str) -> int:
        if sphere == FIRST:
            return self.p
        if sphere == SECOND:
            return self.q
        raise ValueError(f"sphere must be 'first' or 'second', got {sphere!r}")


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


def laplacian_eigenvalue(sig: Signature, sphere: str, order: int) -> int:
    """Laplacian eigenvalue m(d - 1 + m) of the order-m harmonics on one factor."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    d = sig.sphere_dimension(sphere)
    return order * (d - 1 + order)


def bochner_eigenvalue(sig: Signature, v: KType) -> int:
    """Connection-Laplacian eigenvalue on V(j, k): j(p-1+j) + k(q-1+k)."""
    return laplacian_eigenvalue(sig, FIRST, v.j) + laplacian_eigenvalue(sig, SECOND, v.k)


def n_difference(sig: Signature, alpha: KType, beta: KType) -> int:
    """Bochner eigenvalue jump from ``alpha`` to ``beta``.

    Across a lattice edge in quadrant (sj, sk) this equals
    2(sj*J + sk*K + 1) evaluated at ``alpha``.
    """
    return bochner_eigenvalue(sig, beta) - bochner_eigenvalue(sig, alpha)


def neighbor(v: KType, direction: str) -> KType | None:
    """The neighbor of ``v`` in the given quadrant, or None if off-lattice."""
    dj, dk = STEPS[direction]
    j, k = v.j + dj, v.k + dk
    if j < 0 or k < 0:
        return None
    return KType(j, k)


def neighbors(v: KType) -> list[tuple[KType, str]]:
    """All on-lattice neighbors (j +/- 1, k +/- 1) of ``v`` with quadrant tags."""
    out = []
    for tag in DIRECTIONS:
        w = neighbor(v, tag)
        if w is not None:
            out.append((w, tag))
    return out


def scalar_curvature(sig: Signature) -> int:
    """Scalar curvature of (S^p x S^q, -g_p + g_q): q(q-1) - p(p-1)."""
    return sig.q * (sig.q - 1) - sig.p * (sig.p - 1)
