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
(j - 1, 1) when k = 0.  Each value is a cumulative product of ratios along
the tree, taken over the boundary zigzags (rows k <= 1, columns j <= 1) and
then the "++" diagonals.  All edges of one direction between two lines of
constant j + k or j - k share one h, so a singular edge (h = r) cuts off a
whole half-plane, and a K-type is reached exactly when its tree path crosses
no singular edge.  Agreement along different lattice paths is guaranteed and
is rechecked here over every edge as a free consistency test.  Edges of a
window are held as arrays; the scalar functions are their single-point form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import DIRECTIONS, STEPS, KType, Signature, doubled_shifts, neighbor

#: |2r - round(2r)| below this treats 2r as the integer round(2r).  Edge
#: singularities (h = r) and Gamma-argument poles need an integer 2r, because
#: 2h and 4c are integers, so they are detected exactly and only then: at any
#: other r, |h - r| > 5e-10 on every edge and every Gamma argument is more
#: than 2.5e-10 from a pole.
TWO_R_TOL = 1e-9

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
    everywhere else.
    """
    order = SpectralOrder.coerce(r)
    j, k, tj, tk = window(sig, jmax, kmax)
    inside = (0 <= j + _DJ) & (j + _DJ <= jmax) & (0 <= k + _DK) & (k + _DK <= kmax)
    two_h = _two_h(tj, tk, _DJ, _DK)
    singular = inside & _singular(two_h, order)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = _ratio(two_h, order.r)
    ratio[~inside | singular] = np.nan
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
        raise ZeroDenominator(
            f"transition ratio singular at edge {alpha} -> {direction}: h = r = {order.r}",
            alpha=alpha,
            direction=direction,
        )
    return _ratio(_two_h(*doubled_shifts(sig, alpha), *STEPS[direction]), order.r)


def at_class_base(grid: np.ndarray, outside=None) -> np.ndarray:
    """Each entry of a window grid replaced by the entry at its class base, (0, 0) or (1, 0).

    When jmax = 0 the odd base lies outside the window, and the odd entries get ``outside``.
    """
    bases = grid[:2, 0]
    if len(bases) < 2:
        bases = np.append(bases, outside)
    j, k = np.indices(grid.shape)
    return bases[(j + k) % 2]


@dataclass
class SpectrumTable:
    """Eigenvalue table of a window, normalized to 1 at the class bases (0, 0) and (1, 0).

    ``values`` covers the whole window and is meaningful where ``reached``.
    """

    sig: Signature
    r: SpectralOrder
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


def _zigzag(step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and reached flags on lane 0 of a two-lane boundary strip.

    ``step[lane, i]`` is the ratio of the tree edge into K-type i of the lane,
    nan where that edge is unusable, and 1.0 at a class base and before a
    path starts.  Tree edges cross the strip, so the two tree paths through it
    zigzag: path c visits lane (i + c) % 2 at i, and lane 0's K-type i lies
    on path i % 2.
    """
    i = np.arange(step.shape[1])
    chains = step[(i + np.arange(2)[:, None]) % 2, i]
    values = np.multiply.accumulate(chains, axis=1)
    reached = np.logical_and.accumulate(~np.isnan(chains), axis=1)
    return values[i % 2, i], reached[i % 2, i]


def _tree_products(ratio: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, reached) of the window from the edge_arrays ratios, along the fixed spanning tree.

    Each value is its parent's times the ratio of the tree edge between them,
    accumulated from 1.0 at the class base.  Rows k in {0, 1} and columns
    j in {0, 1} are zigzag paths; every other K-type hangs on a "++" diagonal
    that starts on row 0 (j >= k) or on column 0 (j < k).
    """
    nj, nk = ratio.shape[1:]
    if min(nj, nk) == 1:  # no edge has both ends in a one-wide window: only the bases are reached
        reached = np.zeros((nj, nk), dtype=bool)
        reached[:2, 0] = True
        return reached.astype(float), reached
    plus, down, up = ratio[:3]  # "++", "+-", "-+"
    # rows: (j, 1) from (j - 1, 0) by "++"; (j, 0) from (j - 1, 1) by "+-", except the base (1, 0)
    rows = np.ones((2, nj))
    rows[0, 2:] = down[1:-1, 1]
    rows[1, 1:] = plus[:-1, 0]
    # columns: (1, k) from (0, k - 1) by "++"; (0, k) from (1, k - 1) by "-+"
    columns = np.ones((2, nk))
    columns[0, 1:] = up[1, :-1]
    columns[1, 1:] = plus[0, :-1]
    row_values, row_reached = _zigzag(rows)
    column_values, column_reached = _zigzag(columns)

    # [d, m]: the K-type (j0 + m, k0 + m) on diagonal d, which starts at (j0, k0) = (d, 0)
    # for d < nj and at (0, d - nj + 1) after that
    m = np.arange(min(nj, nk))
    j = np.concatenate([np.arange(nj), np.zeros(nk - 1, dtype=int)])[:, None] + m
    k = np.concatenate([np.zeros(nj, dtype=int), np.arange(1, nk)])[:, None] + m
    inside = (j < nj) & (k < nk)
    along = inside & (m > 0)
    chains = np.ones(j.shape)  # 1.0 past the window's edge
    chains[:, 0] = np.concatenate([row_values, column_values[1:]])
    chains[along] = plus[j[along] - 1, k[along] - 1]
    usable = ~np.isnan(chains)
    usable[:, 0] = np.concatenate([row_reached, column_reached[1:]])
    at = j[inside], k[inside]
    values = np.zeros((nj, nk))
    reached = np.zeros((nj, nk), dtype=bool)
    reached[at] = np.logical_and.accumulate(usable, axis=1)[inside]
    values[at] = np.multiply.accumulate(chains, axis=1)[inside]
    values[~reached] = 0.0
    return values, reached


def _at_heads(grid: np.ndarray) -> np.ndarray:
    """[d, j, k]: the entry of a window grid at (j, k) + STEPS[DIRECTIONS[d]], zero off the window."""
    nj, nk = grid.shape
    padded = np.zeros((nj + 2, nk + 2), dtype=grid.dtype)
    padded[1:-1, 1:-1] = grid
    return np.stack([padded[1 + dj:1 + dj + nj, 1 + dk:1 + dk + nk]
                     for dj, dk in (STEPS[tag] for tag in DIRECTIONS)])


def recursion_spectrum(sig: Signature, r, jmax: int, kmax: int) -> SpectrumTable:
    """Propagate eigenvalues over [0, jmax] x [0, kmax] from both class bases.

    Values are products of transition ratios along one spanning tree that the
    window fixes: the parent of (j, k) is (j - 1, k - 1) by "++" when
    j, k >= 1, (1, k - 1) by "-+" when j = 0 and (j - 1, 1) by "+-" when
    k = 0; the bases are (0, 0) and (1, 0) (only (0, 0) when jmax = 0).  No
    edge joins the two parity classes, so each is filled exactly as from its
    own base alone.  Only "++" raises j + k, only "+-" raises j - k and only
    "-+" lowers it, and every edge of one direction between two such lines has
    the same h: a singular edge (h = r) cuts off a whole half-plane of its
    class, so a K-type is reachable exactly when its tree path crosses no
    singular edge.  K-types that are not reached are absent from the table
    (value 0.0), and the singular edges out of reached K-types are listed in
    ``singular_edges``.  Afterwards every edge between two reached K-types,
    in all four directions, is rechecked at relative tolerance REL_TOL.
    """
    if jmax < 0 or kmax < 0:
        raise ValueError(f"truncation must be nonnegative, got ({jmax}, {kmax})")
    order = SpectralOrder.coerce(r)
    singular, ratio = edge_arrays(sig, order, jmax, kmax)
    values, reached = _tree_products(ratio)

    both = reached & _at_heads(reached) & ~singular
    with np.errstate(invalid="ignore"):
        bad = both & (relative_difference(_at_heads(values), values * ratio) > REL_TOL)
    for d, count in enumerate(bad.sum(axis=(1, 2)).tolist()):
        if count:
            raise PathInconsistency(
                f"{count} edges in direction {DIRECTIONS[d]!r} disagree with table values"
            )

    edges = np.argwhere((singular & reached).transpose(1, 2, 0)).tolist()
    return SpectrumTable(
        sig=sig,
        r=order,
        values=values,
        reached=reached,
        singular_edges=tuple((KType(j, k), DIRECTIONS[d]) for j, k, d in edges),
    )


def _extend(prefixes, room: int, span: int):
    """One more step of a list of +/-1 step prefixes, pruned.

    ``prefixes`` is (offset, low, high): the sum of each prefix and the least
    and greatest of its partial sums, 0 included.  Each prefix gets the
    children s = +1 and s = -1; a child is kept when it can still return to
    offset 0 in ``room`` more steps and its excursion high - low is at most
    ``span``.  Returns the kept children, the index of each one's parent and
    its step s.
    """
    offset, low, high = prefixes
    parent = np.tile(np.arange(len(offset)), 2)
    step = np.repeat([1, -1], len(offset))
    offset = offset[parent] + step
    low, high = np.minimum(low[parent], offset), np.maximum(high[parent], offset)
    keep = (np.abs(offset) <= room) & (high - low <= span)
    return (offset[keep], low[keep], high[keep]), parent[keep], step[keep]


def _closed_deviation(closed: np.ndarray, worst: float) -> float:
    """max(worst, |x - 1|) over the closed-walk products x in ``closed``, which it overwrites.

    A product is nan where its walk leaves the window or crosses a singular
    edge, and fmax skips the nans.  Elsewhere it is finite: off the singular
    edges |h - r| > 5e-10 (see TWO_R_TOL), so each ratio is below 1 + 4e9 |h|
    in size, and no walk short enough to enumerate overflows.
    """
    np.abs(np.subtract(closed, 1.0, out=closed), out=closed)
    return float(np.fmax.reduce(closed, axis=None, initial=worst))


def max_loop_deviation(sig: Signature, r, jmax: int, kmax: int, max_len: int = 8) -> float:
    """Max |product - 1| over all closed lattice walks of length <= max_len.

    A walk is a start in the [0, jmax] x [0, kmax] window and a sequence of
    diagonal steps; its product multiplies the transition ratios of its steps
    in walk order, starting from 1.0.  Walks through a singular edge or off
    the window are excluded.

    The j-steps and the k-steps of a walk are independent +/-1 sequences, so
    the walks form one prefix tree whose node at depth i pairs a j-prefix with
    a k-prefix of i steps.  It is walked one depth at a time, vectorized over
    the starts: the products of a depth have shape (j-prefixes, k-prefixes,
    jmax + 1, kmax + 1), and each child extends its parent's products by the
    ratio of its last step.  A prefix is pruned when it can no longer close
    within max_len steps, or when its span exceeds jmax (kmax), since it then
    leaves the window from every start.  Closed walks are the nodes at even
    depths with both offsets 0; at the last depth every node is closed.  Each
    product is formed as for its walk alone, so pruning drops no closed walk
    and changes no product or maximum.
    """
    depth = max(max_len, 0) // 2 * 2  # the longest closed walk
    half = depth // 2  # no prefix that can still close strays further from its start
    nj, nk = jmax + 1, kmax + 1
    ratio = np.pad(edge_arrays(sig, r, jmax, kmax)[1], ((0, 0), (half, half), (half, half)),
                   constant_values=np.nan)
    # at[d, half + a, half + b]: the ratios in direction d at offset (a, b) from every start
    at = np.ascontiguousarray(sliding_window_view(ratio, (nj, nk), axis=(1, 2)))
    root = (np.zeros(1, dtype=np.intp),) * 3
    jprefixes, kprefixes = root, root
    products = np.ones((1, 1, nj, nk))
    worst = 0.0
    for i in range(1, depth):
        jchildren, jparent, jstep = _extend(jprefixes, depth - i, jmax)
        kchildren, kparent, kstep = _extend(kprefixes, depth - i, kmax)
        products = products[np.ix_(jparent, kparent)]
        direction = 2 * (jstep < 0)[:, None] + (kstep < 0)[None, :]  # index into DIRECTIONS
        jat, kat = half + jprefixes[0][jparent], half + kprefixes[0][kparent]
        mid = len(jparent) // 2  # two halves: the gathered ratios need half the memory
        for rows in (slice(None, mid), slice(mid, None)):
            products[rows] *= at[direction[rows], jat[rows, None], kat[None, :]]
        jprefixes, kprefixes = jchildren, kchildren
        if i % 2 == 0:
            worst = _closed_deviation(products[np.ix_(jprefixes[0] == 0, kprefixes[0] == 0)], worst)
    if depth:
        # Every prefix left has offset +/-1 and closes with the step back to 0,
        # which keeps its span: one ratio array per pair of offsets closes them.
        for a in (-1, 1):
            for b in (-1, 1):
                closed = products[np.ix_(jprefixes[0] == a, kprefixes[0] == b)]
                closed *= at[2 * (a > 0) + (b > 0), half + a, half + b]
                worst = _closed_deviation(closed, worst)
    return worst
