"""Eigenvalue propagation over the K-type lattice.

The defining intertwining relation, compressed across a lattice edge
alpha -> beta, reduces to the purely numerical relation

    (h + r) mu_alpha = (h - r) mu_beta,

where h is half the Bochner eigenvalue jump across the edge.  For the four
quadrants h = sj*J + sk*K + 1 evaluated at alpha, so the eigenvalue ratio
across an edge is (h + r)/(h - r).  Propagating these ratios from a base
K-type fills a whole parity class; agreement along different lattice paths
is guaranteed and is rechecked here as a free consistency test.  Edges of a
window are held as arrays; the scalar functions are their single-point form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .geometry import DIRECTIONS, STEPS, KType, Signature, doubled_shifts, neighbor

#: |2r - round(2r)| below this treats 2r as an exact integer, making edge
#: singularity detection exact for integer and half-integer orders.
TWO_R_TOL = 1e-9

#: Absolute tolerance for singularity detection at generic real orders.
POLE_TOL = 1e-12

#: Relative tolerance of the edge recheck in recursion_spectrum.
REL_TOL = 1e-10


class ZeroDenominator(ArithmeticError):
    """The edge denominator h - r vanished: the eigenvalue quotient is singular."""

    def __init__(self, message, alpha=None, direction=None):
        super().__init__(message)
        self.alpha = alpha
        self.direction = direction


class PathInconsistency(RuntimeError):
    """Two lattice paths produced incompatible eigenvalues (implementation bug)."""


@dataclass(frozen=True)
class SpectralOrder:
    """The order parameter r (the operator has order 2r)."""

    r: float

    def __post_init__(self):
        if not np.isfinite(self.r):
            raise ValueError(f"spectral order must be finite, got r = {self.r}")

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
        if not self.is_positive_integer:
            raise ValueError(f"r = {self.r} is not a positive integer")
        return self.two_r // 2

    def __neg__(self) -> "SpectralOrder":
        return SpectralOrder(-self.r)

    def __float__(self) -> float:
        return self.r


def window(sig: Signature, jmax: int, kmax: int):
    """Index grids j, k and doubled shifts 2J, 2K of [0, jmax] x [0, kmax] (column, row arrays)."""
    j = np.arange(jmax + 1)[:, None]
    k = np.arange(kmax + 1)[None, :]
    return j, k, 2 * j + sig.p - 1, 2 * k + sig.q - 1


def _two_h(tj, tk, direction: str):
    """2h = sj*2J + sk*2K + 2 from doubled shifts; integers or integer arrays."""
    sj, sk = STEPS[direction]
    return sj * tj + sk * tk + 2


def _singular(two_h, order: SpectralOrder):
    """h = r: exact integer compare when 2r is an integer, POLE_TOL otherwise."""
    if order.two_r is not None:
        return two_h == order.two_r
    return abs(two_h / 2.0 - order.r) <= POLE_TOL


def _ratio(two_h, r: float):
    """(h + r)/(h - r)."""
    h = two_h / 2.0
    return (h + r) / (h - r)


def _edge_slices(direction: str, nj: int, nk: int):
    """(tail, head): slices of the edge starts and of their ends inside an nj x nk window."""
    dj, dk = STEPS[direction]
    tail = (slice(max(-dj, 0), nj - max(dj, 0)), slice(max(-dk, 0), nk - max(dk, 0)))
    head = (slice(max(dj, 0), nj - max(-dj, 0)), slice(max(dk, 0), nk - max(-dk, 0)))
    return tail, head


def edge_arrays(sig: Signature, r, jmax: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(singular, ratio) over the window, each shaped (4, jmax + 1, kmax + 1).

    Entry [d, j, k] describes the edge from (j, k) in direction DIRECTIONS[d].
    Only edges whose head lies in the window count: ``singular`` marks those
    with h = r, and ``ratio`` holds (h + r)/(h - r) on the others and nan
    everywhere else.
    """
    order = SpectralOrder.coerce(r)
    _, _, tj, tk = window(sig, jmax, kmax)
    singular = np.zeros((4, jmax + 1, kmax + 1), dtype=bool)
    ratio = np.full(singular.shape, np.nan)
    for d, tag in enumerate(DIRECTIONS):
        tail, _ = _edge_slices(tag, jmax + 1, kmax + 1)
        two_h = _two_h(tj, tk, tag)[tail]
        singular[d][tail] = _singular(two_h, order)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio[d][tail] = np.where(singular[d][tail], np.nan, _ratio(two_h, order.r))
    return singular, ratio


def half_jump(sig: Signature, alpha: KType, direction: str) -> Fraction:
    """Half the Bochner eigenvalue jump across the edge ``alpha`` -> quadrant.

    Exactly sj*J + sk*K + 1 at ``alpha``; returned as an exact rational.
    """
    return Fraction(_two_h(*doubled_shifts(sig, alpha), direction), 2)


def is_singular_edge(sig: Signature, alpha: KType, direction: str, r) -> bool:
    """True when h - r = 0 on this edge, i.e. the transition ratio has a pole."""
    two_h = _two_h(*doubled_shifts(sig, alpha), direction)
    return bool(_singular(two_h, SpectralOrder.coerce(r)))


def transition_ratio(sig: Signature, alpha: KType, direction: str, r) -> float:
    """Eigenvalue ratio mu_beta / mu_alpha = (h + r)/(h - r) across one edge."""
    if neighbor(alpha, direction) is None:
        raise ValueError(f"K-type {alpha} has no neighbor in direction {direction!r}")
    order = SpectralOrder.coerce(r)
    if is_singular_edge(sig, alpha, direction, order):
        raise ZeroDenominator(
            f"transition ratio singular at edge {alpha} -> {direction}: h = r = {order.r}",
            alpha=alpha,
            direction=direction,
        )
    return _ratio(_two_h(*doubled_shifts(sig, alpha), direction), order.r)


@dataclass
class SpectrumTable:
    """Eigenvalue table for one parity class, normalized to 1 at ``base``.

    ``values`` covers the whole window and is meaningful where ``reached``.
    """

    sig: Signature
    r: SpectralOrder
    parity: int
    base: KType
    values: np.ndarray
    reached: np.ndarray
    singular_edges: tuple = ()

    @cached_property
    def entries(self) -> dict[KType, float]:
        """Reached K-types and their eigenvalues."""
        return {
            KType(j, k): self.values[j, k].item()
            for j, k in np.argwhere(self.reached).tolist()
        }


def base_ktype(parity: int) -> KType:
    """Normalization base: (0,0) for the even class, (1,0) for the odd class."""
    return KType(0, 0) if parity == 0 else KType(1, 0)


def recursion_spectrum(sig: Signature, r, jmax: int, kmax: int, parity: int) -> SpectrumTable:
    """Propagate eigenvalues over the parity class inside [0, jmax] x [0, kmax].

    A frontier advances from the base one edge layer at a time; the first
    edge into a K-type fixes its value.  Afterwards every edge between two
    reached K-types, in all four directions, is rechecked at relative
    tolerance REL_TOL.  Singular edges (h = r) are skipped and listed in
    ``singular_edges``; K-types unreachable through nonsingular edges are
    absent from the table.
    """
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    order = SpectralOrder.coerce(r)
    base = base_ktype(parity)
    if base.j > jmax or base.k > kmax:
        raise ValueError(f"base K-type {base} outside truncation ({jmax}, {kmax})")

    singular, ratio = edge_arrays(sig, order, jmax, kmax)
    nj, nk = jmax + 1, kmax + 1
    slices = [_edge_slices(tag, nj, nk) for tag in DIRECTIONS]
    values = np.zeros((nj, nk))
    reached = np.zeros((nj, nk), dtype=bool)
    values[base.j, base.k] = 1.0
    reached[base.j, base.k] = True
    frontier = reached.copy()
    while frontier.any():
        new = np.zeros_like(reached)
        for d, (tail, head) in enumerate(slices):
            step = frontier[tail] & ~np.isnan(ratio[d][tail]) & ~reached[head] & ~new[head]
            values[head][step] = values[tail][step] * ratio[d][tail][step]
            new[head] |= step
        reached |= new
        frontier = new

    for d, (tail, head) in enumerate(slices):
        both = reached[tail] & reached[head] & ~singular[d][tail]
        expected = values[tail] * ratio[d][tail]
        seen = values[head]
        scale = np.maximum(np.maximum(np.abs(seen), np.abs(expected)), 1e-300)
        with np.errstate(invalid="ignore"):
            bad = both & (np.abs(seen - expected) / scale > REL_TOL)
        if bad.any():
            raise PathInconsistency(
                f"{int(bad.sum())} edges in direction {DIRECTIONS[d]!r} disagree with table values"
            )

    edges = np.argwhere((singular & reached).transpose(1, 2, 0)).tolist()
    return SpectrumTable(
        sig=sig,
        r=order,
        parity=parity,
        base=base,
        values=values,
        reached=reached,
        singular_edges=tuple((KType(j, k), DIRECTIONS[d]) for j, k, d in edges),
    )


def max_loop_deviation(sig: Signature, r, jmax: int, kmax: int, max_len: int = 8) -> float:
    """Max |product - 1| over all closed lattice walks of length <= max_len.

    Vectorized over start points: for each closed direction sequence, the
    per-start product is an elementwise product of shifted ratio arrays.
    Walks through a singular edge or off the [0,jmax] x [0,kmax] window are
    excluded.
    """
    pad = max_len
    nj, nk = jmax + 1, kmax + 1
    ratio = np.pad(edge_arrays(sig, r, jmax, kmax)[1], ((0, 0), (pad, pad), (pad, pad)),
                   constant_values=np.nan)

    jgrid = np.arange(nj)[None, None, :, None]
    kgrid = np.arange(nk)[None, None, None, :]
    worst = 0.0
    for length in range(2, max_len + 1, 2):
        half = length // 2
        jsigns = np.array(list(itertools.combinations(range(length), half)))
        signs = np.full((len(jsigns), length), -1, dtype=np.int64)
        for row, pos in enumerate(jsigns):
            signs[row, pos] = 1
        # signs: every +/-1 pattern with zero sum, reused for both axes
        cum = np.cumsum(signs, axis=1) - signs  # offset before each step
        jneg = (signs < 0).astype(np.int64)

        prod = np.ones((signs.shape[0], signs.shape[0], nj, nk))
        for i in range(length):
            d = 2 * jneg[:, i][:, None, None, None] + jneg[:, i][None, :, None, None]
            joff = pad + cum[:, i][:, None, None, None] + jgrid
            koff = pad + cum[:, i][None, :, None, None] + kgrid
            prod *= ratio[d, joff, koff]
        finite = np.isfinite(prod)
        if finite.any():
            worst = max(worst, float(np.max(np.abs(prod[finite] - 1.0))))
    return worst
