"""Eigenvalue propagation over the K-type lattice.

The defining intertwining relation, compressed across a lattice edge
alpha -> beta, reduces to the purely numerical relation

    (h + r) mu_alpha = (h - r) mu_beta,

where h is half the Bochner eigenvalue jump across the edge.  For the four
quadrants h = sj*J + sk*K + 1 evaluated at alpha, so the eigenvalue ratio
across an edge is (h + r)/(h - r).  Every edge keeps the parity of j + k, so
the even and odd K-types are two disjoint classes with bases (0, 0) and
(1, 0).  The window fixes one spanning tree of both classes: the parent of
(j, k) is (j - 1, k - 1) when j, k >= 1, (1, k - 1) when j = 0 and
(j - 1, 1) when k = 0.  Each value is its parent's times the ratio of the
edge between them, row by row: rows j = 0 and 1 together, k by k, then each
later row j from row j - 1 alone.  All edges of one direction between two
lines of constant j + k or j - k share one h, so a singular edge (h = r)
cuts off a whole half-plane, and a K-type is reached exactly when its tree
path crosses no singular edge.  Agreement along different lattice paths is
guaranteed and is rechecked here over every edge as a free consistency test.
Edges of a window are held as arrays; the scalar functions are their
single-point form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .geometry import (DIRECTIONS, STEPS, KType, Signature, SpectralOrder, check_window, doubled_shifts, neighbor,
                       window_index)

#: Relative tolerance of the edge recheck in recursion_spectrum.
REL_TOL = 1e-10

#: Length of the longest closed walk max_loop_deviation follows.
MAX_LOOP_LENGTH = 8


class ZeroDenominator(ArithmeticError):
    """The edge denominator h - r vanished: the eigenvalue quotient is singular."""


class PathInconsistency(RuntimeError):
    """Two lattice paths produced incompatible eigenvalues (implementation bug)."""


#: (dj, dk) of DIRECTIONS[d] at [d], each shaped (4, 1, 1) to broadcast over a window.
_DJ, _DK = (np.array([STEPS[tag][i] for tag in DIRECTIONS])[:, None, None] for i in (0, 1))


def _two_h(tj, tk, dj, dk):
    """2h = dj*2J + dk*2K + 2 from doubled shifts and steps; integers or integer arrays."""
    return (dj * tj + 2) + dk * tk


def _singular(two_h, order: SpectralOrder):
    """h = r, compared exactly as 2h = 2r; never when 2r is not an integer."""
    if order.two_r is None:
        return np.zeros(np.shape(two_h), dtype=bool)
    return two_h == order.two_r


def _ratio(two_h, r: float):
    """(h + r)/(h - r); on arrays, in two buffers of the size of ``two_h``."""
    h = two_h / 2.0
    plus = h + r
    h -= r
    plus /= h
    return plus


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|) on floats or arrays; a tiny floor on the denominator makes 0 vs 0 give 0."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def edge_arrays(sig: Signature, r, jmax: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(singular, ratio) over the window, each shaped (4, jmax + 1, kmax + 1).

    Entry [d, j, k] describes the edge from (j, k) in direction DIRECTIONS[d].
    Only edges whose head lies in the window count: ``singular`` marks those
    with h = r, and ``ratio`` holds (h + r)/(h - r) on the others and nan
    everywhere else.  jmax or kmax below 1 raises ValueError.
    """
    check_window(jmax, kmax, 1)
    order = SpectralOrder.coerce(r)
    index = window_index(jmax + 1, kmax + 1)
    two_h = _two_h(*doubled_shifts(sig, index), _DJ, _DK)
    singular = index.inside & _singular(two_h, order)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = _ratio(two_h, order.r)
    ratio[~index.inside | singular] = np.nan
    return singular, ratio


def is_singular_edge(sig: Signature, alpha: KType, direction: str, r) -> bool:
    """True when h - r = 0 on this edge, i.e. the transition ratio has a pole."""
    two_h = _two_h(*doubled_shifts(sig, alpha), *STEPS[direction])
    return bool(_singular(two_h, SpectralOrder.coerce(r)))


def transition_ratio(sig: Signature, alpha: KType, direction: str, r) -> float:
    """Eigenvalue ratio mu_beta / mu_alpha = (h + r)/(h - r) across one edge."""
    if neighbor(alpha, direction) is None:
        raise ValueError(f"K-type {alpha} has no neighbor in direction {direction!r}")
    order = SpectralOrder.coerce(r)
    if is_singular_edge(sig, alpha, direction, order):
        raise ZeroDenominator(f"transition ratio singular at edge {alpha} -> {direction}: h = r = {order.r}")
    return _ratio(_two_h(*doubled_shifts(sig, alpha), *STEPS[direction]), order.r)


def at_class_base(grid: np.ndarray) -> np.ndarray:
    """Each entry of a window grid (jmax >= 1) replaced by the entry at its class base, (0, 0) or (1, 0)."""
    return grid[:2, 0][window_index(*grid.shape).parity]


class SpectrumTable(NamedTuple):
    """Eigenvalue table of a window, normalized to 1 at the class bases (0, 0) and (1, 0).

    ``values`` covers the whole window and is meaningful where ``reached``.
    ``singular``, shaped (4, jmax + 1, kmax + 1) as in edge_arrays, marks the
    singular edges out of reached K-types; None marks none.
    """

    values: np.ndarray
    reached: np.ndarray
    singular: np.ndarray | None = None

    @property
    def entries(self) -> dict[KType, float]:
        """Reached K-types and their eigenvalues."""
        return {
            KType(j, k): self.values[j, k].item()
            for j, k in np.argwhere(self.reached).tolist()
        }

    @property
    def singular_edges(self) -> tuple[tuple[KType, str], ...]:
        """(K-type, direction) of each singular edge out of a reached K-type, in (j, k) order, then by direction."""
        edges = [] if self.singular is None else np.argwhere(self.singular.transpose(1, 2, 0)).tolist()
        return tuple((KType(j, k), DIRECTIONS[d]) for j, k, d in edges)


def _tree_products(ratio: np.ndarray) -> np.ndarray:
    """The window's values from the edge_arrays ratios, along the fixed spanning tree.

    Each value is its parent's times the ratio of the tree edge between them,
    from 1.0 at the class bases.  An unusable edge has a nan ratio and no
    other ratio is infinite (|h - r| > 5e-10 off the singular edges, see
    TWO_R_TOL), so a product is nan exactly when its tree path crosses an
    unusable edge, or when it is 0 * inf below an ancestor that overflowed,
    which recursion_spectrum rejects.
    """
    nj, nk = ratio.shape[1:]
    plus, down, up = ratio[:3]  # "++", "+-", "-+"
    # (0, k) from (1, k - 1) by "-+" and (1, k) from (0, k - 1) by "++", in Python floats (IEEE doubles, as numpy)
    rows = [(1.0, 1.0)]
    for up_ratio, plus_ratio in zip(up[1, :-1].tolist(), plus[0, :-1].tolist()):
        zero, one = rows[-1]
        rows.append((one * up_ratio, zero * plus_ratio))
    values = np.empty((nj, nk))
    values[:2] = np.transpose(rows)
    for j in range(2, nj):  # (j, 0) from (j - 1, 1) by "+-" and (j, k) from (j - 1, k - 1) by "++"
        values[j, 0] = values[j - 1, 1] * down[j - 1, 1]
        np.multiply(values[j - 1, :-1], plus[j - 1, :-1], out=values[j, 1:])
    return values


#: (target, source) slices of a window grid under which each K-type reads its head in DIRECTIONS[d]: along an
#: axis, entry i reads i + 1 for a step of +1 and i - 1 for a step of -1.
_AXIS_SLICES = {1: (slice(None, -1), slice(1, None)), -1: (slice(1, None), slice(None, -1))}
_HEAD_SLICES = [tuple(zip(*(_AXIS_SLICES[step] for step in STEPS[tag]))) for tag in DIRECTIONS]


def _at_heads(grid: np.ndarray, fill=np.nan) -> np.ndarray:
    """[d, j, k]: the entry of a window grid at (j, k) + STEPS[DIRECTIONS[d]], ``fill`` off the window."""
    heads = np.full((4,) + grid.shape, fill, dtype=grid.dtype)
    for head, (target, source) in zip(heads, _HEAD_SLICES):
        head[target] = grid[source]
    return heads


def recursion_spectrum(sig: Signature, r, jmax: int, kmax: int) -> SpectrumTable:
    """Propagate eigenvalues over [0, jmax] x [0, kmax] from both class bases.

    Values are products of transition ratios along one spanning tree that the
    window fixes: the parent of (j, k) is (j - 1, k - 1) by "++" when
    j, k >= 1, (1, k - 1) by "-+" when j = 0 and (j - 1, 1) by "+-" when
    k = 0; the bases are (0, 0) and (1, 0).  The rule runs row by row: rows
    j = 0 and 1 read each other at k - 1 and are filled together, k by k, and
    each later row is one product of the row before it with its "++" ratios,
    after its k = 0 entry by "+-".  No edge joins the two parity classes, so
    each is filled exactly as from its own base alone.  Only "++" raises
    j + k, only "+-" raises j - k and only "-+" lowers it, and every edge of
    one direction between two such lines has the same h: a singular edge
    (h = r) cuts off a whole half-plane of its class, so a K-type is
    reachable exactly when its tree path crosses no singular edge.  K-types
    that are not reached are absent from the table (value 0.0), and the
    singular edges out of reached K-types are listed in ``singular_edges``.
    A reached value that overflows a float raises OverflowError.  Afterwards
    every edge between two reached K-types, in all four directions, is
    rechecked at relative tolerance REL_TOL; an unreached end, a head off
    the window or an unusable edge makes the comparison nan, never a
    failure.  jmax or kmax below 1 raises ValueError.
    """
    order = SpectralOrder.coerce(r)
    singular, ratio = edge_arrays(sig, order, jmax, kmax)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _tree_products(ratio)
    if np.isinf(values).any():  # K-types not reached are nan
        raise OverflowError("recursion value out of range")

    with np.errstate(invalid="ignore"):
        bad = relative_difference(_at_heads(values), values * ratio) > REL_TOL
    for d, count in enumerate(bad.sum(axis=(1, 2)).tolist() if bad.any() else ()):
        if count:
            raise PathInconsistency(
                f"{count} edges in direction {DIRECTIONS[d]!r} disagree with table values"
            )

    reached = ~np.isnan(values)
    values[~reached] = 0.0
    return SpectrumTable(values, reached, singular & reached)


def max_loop_deviation(sig: Signature, r, jmax: int, kmax: int) -> float:
    """Max |product - 1| over all closed lattice walks of length <= MAX_LOOP_LENGTH.

    A walk is a start in the [0, jmax] x [0, kmax] window and a sequence of
    diagonal steps; its product multiplies the transition ratios of its steps
    in walk order, starting from 1.0.  Walks through a singular edge or off
    the window are excluded.

    For each start and each offset a walk can hold after i steps, only the
    largest and the smallest product over the prefixes ending there are
    kept.  All those prefixes take the same next ratio rho, and the rounded
    product fl(p * rho) is monotone in p: non-decreasing for rho > 0 and
    non-increasing for rho < 0, where max and min swap.  So the extremes of
    a step are those of the step before times one ratio, and since fl(x - 1)
    is monotone too, the result is bit for bit the maximum over every walk
    multiplied out on its own.  Excluded walks are nan, which fmax skips.
    No product overflows: off the singular edges |h - r| > 5e-10 (see
    TWO_R_TOL), so each ratio is below 1 + 4e9 |h| in size.
    """
    depth = MAX_LOOP_LENGTH // 2 * 2  # the longest closed walk
    nj, nk = jmax + 1, kmax + 1
    # After i steps, a walk that can still close within depth steps is at an offset (a, b) from its
    # start with |a|, |b| <= min(i, depth - i) and a = b = i (mod 2); with |a| > jmax or |b| > kmax it
    # has left the window from every start.
    reach = [min(depth // 2, side) for side in (jmax, kmax)]
    ratio = edge_arrays(sig, r, jmax, kmax)[1]  # first: it refuses a window below 1 x 1 before any allocation
    padded = np.full((4, nj + 2 * reach[0], nk + 2 * reach[1]), np.nan)
    padded[:, reach[0]:reach[0] + nj, reach[1]:reach[1] + nk] = ratio
    # at[d, reach[0] + a, reach[1] + b]: the ratios in direction d at offset (a, b) from every start, as a view
    at = as_strided(padded, (4, 2 * reach[0] + 1, 2 * reach[1] + 1, nj, nk), padded.strides + padded.strides[1:],
                    writeable=False)
    # extremes[:, x, y]: the largest product and minus the smallest (both maxima) at the offset
    # (2x - held[0], 2y - held[1]), where held holds the largest |a| and |b| of the step
    extremes = np.ones((2, 1, 1, nj, nk))
    extremes[1] = -1.0
    held = [0, 0]
    worst = 0.0
    # for each direction, the step along j and along k as 1 for +1 and 0 for -1
    raises = [(int(dj > 0), int(dk > 0)) for dj, dk in (STEPS[tag] for tag in DIRECTIONS)]
    ones = np.array([[[-1.0]], [[1.0]]])
    for i in range(1, depth + 1):
        (hj, hk), (rj, rk) = held, reach
        bound = [n - (n - i) % 2 for n in (min(i, depth - i, side) for side in (jmax, kmax))]
        products = extremes[:, None] * at[:, rj - hj:rj + hj + 1:2, rk - hk:rk + hk + 1:2]
        np.fmax(products, -products[::-1], out=products)  # rho < 0 swaps max and -min
        # step[:, x, y] at the offset (2x - held[0] - 1, 2y - held[1] - 1): a step of +1 adds 1 to x (y)
        step = np.full((2, hj + 2, hk + 2, nj, nk), np.nan)
        for d, (x, y) in enumerate(raises):
            heads = step[:, x:x + hj + 1, y:y + hk + 1]
            np.fmax(heads, products[:, d], out=heads)
        (bj, bk) = held = bound
        extremes = step[:, (hj + 1 - bj) // 2:(hj + 1 + bj) // 2 + 1, (hk + 1 - bk) // 2:(hk + 1 + bk) // 2 + 1]
        if i % 2 == 0:  # max |x - 1| over the closed walks is max(max - 1, 1 - min)
            closed = extremes[:, bj // 2, bk // 2] + ones
            worst = float(np.fmax.reduce(closed, axis=None, initial=worst))
    return worst
