"""Eigenvalue propagation over the K-type lattice.

The defining intertwining relation, compressed across a lattice edge
alpha -> beta, reduces to the purely numerical relation

    (h + r) mu_alpha = (h - r) mu_beta,

where h is half the Bochner eigenvalue jump across the edge.  For the four
quadrants h = sj*J + sk*K + 1 evaluated at alpha, so the eigenvalue ratio
across an edge is (h + r)/(h - r).  Every edge keeps the parity of j + k, so
the even and odd K-types are two disjoint classes; propagating these ratios
from the two bases (0, 0) and (1, 0) fills both in one pass.  Agreement along
different lattice paths is guaranteed and is rechecked here as a free
consistency test.  Edges of a window are held as arrays; the scalar functions
are their single-point form.
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


def _two_h(tj, tk, direction: str):
    """2h = sj*2J + sk*2K + 2 from doubled shifts; integers or integer arrays."""
    sj, sk = STEPS[direction]
    return sj * tj + sk * tk + 2


def _singular(two_h, order: SpectralOrder):
    """h = r, compared exactly as 2h = 2r; never when 2r is not an integer."""
    if order.two_r is None:
        return np.zeros(np.shape(two_h), dtype=bool)
    return two_h == order.two_r


def _ratio(two_h, r: float):
    """(h + r)/(h - r)."""
    h = two_h / 2.0
    return (h + r) / (h - r)


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|) on floats or arrays; a tiny floor on the denominator makes 0 vs 0 give 0."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


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


def recursion_spectrum(sig: Signature, r, jmax: int, kmax: int) -> SpectrumTable:
    """Propagate eigenvalues over [0, jmax] x [0, kmax] from both class bases.

    A frontier advances from (0, 0) and (1, 0) (only (0, 0) when jmax = 0)
    one edge layer at a time; the first edge into a K-type fixes its value.
    No edge joins the two parity classes, so each is filled exactly as from
    its own base alone.  Afterwards every edge between two reached K-types,
    in all four directions, is rechecked at relative tolerance REL_TOL.
    Singular edges (h = r) are skipped and listed in ``singular_edges``;
    K-types unreachable through nonsingular edges are absent from the table.
    """
    if jmax < 0 or kmax < 0:
        raise ValueError(f"truncation must be nonnegative, got ({jmax}, {kmax})")
    order = SpectralOrder.coerce(r)
    singular, ratio = edge_arrays(sig, order, jmax, kmax)
    nj, nk = jmax + 1, kmax + 1
    slices = [_edge_slices(tag, nj, nk) for tag in DIRECTIONS]
    values = np.zeros((nj, nk))
    reached = np.zeros((nj, nk), dtype=bool)
    values[:2, 0] = 1.0
    reached[:2, 0] = True
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
        with np.errstate(invalid="ignore"):
            bad = both & (relative_difference(values[head], values[tail] * ratio[d][tail]) > REL_TOL)
        if bad.any():
            raise PathInconsistency(
                f"{int(bad.sum())} edges in direction {DIRECTIONS[d]!r} disagree with table values"
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
