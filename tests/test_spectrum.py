import itertools
import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwinor import spectrum
from intertwinor.geometry import DIRECTIONS, STEPS, KType, Signature, neighbor
from intertwinor.spectrum import (
    REL_TOL,
    PathInconsistency,
    SpectralOrder,
    ZeroDenominator,
    at_class_base,
    edge_arrays,
    is_singular_edge,
    max_loop_deviation,
    recursion_spectrum,
    relative_difference,
    transition_ratio,
    window,
)
from intertwinor.verify import check_loop_consistency, check_method_agreement

GENERIC_R = (0.37, 1.5, -0.8)


def neighbors(v):
    return [(w, tag) for tag in DIRECTIONS if (w := neighbor(v, tag)) is not None]


def test_spectral_order_flags():
    assert SpectralOrder(2.0).is_positive_integer
    assert SpectralOrder(2.0).as_integer == 2
    assert not SpectralOrder(1.5).is_positive_integer
    assert SpectralOrder(1.5).two_r == 3
    assert SpectralOrder(0.37).two_r is None
    assert not SpectralOrder(-1.0).is_positive_integer
    assert (-SpectralOrder(0.5)).r == -0.5


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spectral_order_rejects_non_finite(value):
    with pytest.raises(ValueError, match=f"^spectral order must be finite, got r = {value}$"):
        SpectralOrder(value)
    with pytest.raises(ValueError):
        SpectralOrder.coerce(value)


def test_transition_ratio_examples():
    sig = Signature(1, 1)
    for r in (0.25, 0.5, -0.3):
        assert transition_ratio(sig, KType(0, 0), "++", r) == pytest.approx((1 + r) / (1 - r))
    assert transition_ratio(Signature(2, 3), KType(1, 2), "+-", 0.0) == 1.0
    # J = 1, K = 2 at alpha = (1, 1) for (p, q) = (1, 3)
    got = transition_ratio(Signature(1, 3), KType(1, 1), "-+", 0.37)
    assert got == pytest.approx(2.37 / 1.63, rel=1e-15)


def test_transition_ratio_missing_neighbor():
    with pytest.raises(ValueError):
        transition_ratio(Signature(1, 1), KType(0, 0), "--", 0.1)


def test_transition_ratio_zero_denominator():
    sig = Signature(1, 1)
    with pytest.raises(ZeroDenominator):
        transition_ratio(sig, KType(0, 0), "++", 1.0)  # h = J + K + 1 = 1 = r
    assert is_singular_edge(sig, KType(0, 0), "++", 1.0)
    assert not is_singular_edge(sig, KType(0, 0), "++", 0.99)


def test_reciprocity():
    for p, q in [(1, 1), (2, 3), (4, 2)]:
        sig = Signature(p, q)
        for r in GENERIC_R:
            for j in range(4):
                for k in range(4):
                    v = KType(j, k)
                    for w, tag in neighbors(v):
                        back = [t for u, t in neighbors(w) if u == v][0]
                        if is_singular_edge(sig, v, tag, r) or is_singular_edge(sig, w, back, r):
                            continue
                        fwd = transition_ratio(sig, v, tag, r)
                        rev = transition_ratio(sig, w, back, r)
                        assert fwd * rev == pytest.approx(1.0, rel=1e-13)


def test_r_negation_inverts_ratio():
    sig = Signature(2, 2)
    for r in GENERIC_R:
        for tag in DIRECTIONS:
            v = KType(3, 4)
            assert transition_ratio(sig, v, tag, -r) == pytest.approx(
                1.0 / transition_ratio(sig, v, tag, r), rel=1e-13
            )


def test_recursion_spectrum_examples():
    sig = Signature(1, 1)
    table = recursion_spectrum(sig, 0.5, 4, 4)
    assert table.entries[KType(0, 0)] == 1.0
    assert table.entries[KType(1, 1)] == pytest.approx(3.0)

    # both classes in one table, each normalized at its own base
    both = recursion_spectrum(Signature(2, 3), 0.8, 5, 5)
    assert both.entries[KType(0, 0)] == both.entries[KType(1, 0)] == 1.0
    assert (at_class_base(both.values) == 1.0).all()
    assert set(both.entries) == {KType(j, k) for j in range(6) for k in range(6)}

    with pytest.raises(ValueError):
        recursion_spectrum(Signature(2, 3), 0.8, 3, -1)


def test_recursion_path_consistency():
    # mu at (2, 2) along (0,0)->(1,1)->(2,2) equals the product along
    # (0,0)->(1,1)->(0,2)->(1,3)->(2,2), computed here independently
    sig = Signature(1, 3)
    r = 0.37
    table = recursion_spectrum(sig, r, 6, 6)

    def path_value(tags):
        v, mu = KType(0, 0), 1.0
        for t in tags:
            mu *= transition_ratio(sig, v, t, r)
            v = neighbor(v, t)
        return v, mu

    end_a, mu_a = path_value(["++", "++"])
    end_b, mu_b = path_value(["++", "-+", "++", "+-"])
    assert end_a == end_b == KType(2, 2)
    assert mu_a == pytest.approx(mu_b, rel=1e-12)
    assert table.entries[KType(2, 2)] == pytest.approx(mu_a, rel=1e-12)


def _reference_bfs(sig, r, jmax, kmax):
    """Plain scalar BFS from the class bases: values as tree products, and the singular edges met."""
    bases = [KType(0, 0), KType(1, 0)]
    values = dict.fromkeys(bases, 1.0)
    singular = 0
    queue = deque(bases)
    while queue:
        alpha = queue.popleft()
        for beta, tag in neighbors(alpha):
            if beta.j > jmax or beta.k > kmax:
                continue
            if is_singular_edge(sig, alpha, tag, r):
                singular += 1
                continue
            if beta not in values:
                values[beta] = values[alpha] * transition_ratio(sig, alpha, tag, r)
                queue.append(beta)
    return values, singular


ORDERS = st.one_of(
    st.floats(-6.0, 6.0, allow_nan=False),
    st.integers(-6, 6).map(float),
    st.integers(-12, 12).map(lambda n: n / 2.0),
)


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 6),
    q=st.integers(1, 6),
    jmax=st.integers(1, 10),
    kmax=st.integers(1, 10),
    r=ORDERS,
)
def test_recursion_matches_reference_bfs(p, q, jmax, kmax, r):
    sig = Signature(p, q)
    reference, singular = _reference_bfs(sig, r, jmax, kmax)
    table = recursion_spectrum(sig, r, jmax, kmax)
    assert set(table.entries) == set(reference)
    assert len(table.singular_edges) == singular
    for v, mu in reference.items():
        assert math.isclose(table.entries[v], mu, rel_tol=1e-13, abs_tol=0.0), (v, mu)


def test_recursion_skip_cases_at_integer_and_half_integer_order():
    # singular edges cut these lattices into pieces: (2, 3) at r = 1.5, (2, 2) at r = 2
    for sig, r in ((Signature(2, 3), 1.5), (Signature(2, 2), 2.0), (Signature(1, 1), 2.0)):
        reference, singular = _reference_bfs(sig, r, 12, 12)
        table = recursion_spectrum(sig, r, 12, 12)
        assert set(table.entries) == set(reference)
        assert len(table.singular_edges) == singular > 0
        for v, mu in reference.items():
            assert math.isclose(table.entries[v], mu, rel_tol=1e-13, abs_tol=0.0)


def _edge_slices(direction, nj, nk):
    """(tail, head): slices of the edge starts and of their ends inside an nj x nk window."""
    dj, dk = STEPS[direction]
    tail = (slice(max(-dj, 0), nj - max(dj, 0)), slice(max(-dk, 0), nk - max(dk, 0)))
    head = (slice(max(dj, 0), nj - max(-dj, 0)), slice(max(dk, 0), nk - max(-dk, 0)))
    return tail, head


def _reference_edge_arrays(sig, r, jmax, kmax):
    """edge_arrays built one direction at a time, on the slice of edges whose head is in the window."""
    order = SpectralOrder.coerce(r)
    _, _, tj, tk = window(sig, jmax, kmax)
    singular = np.zeros((4, jmax + 1, kmax + 1), dtype=bool)
    ratio = np.full(singular.shape, np.nan)
    for d, tag in enumerate(DIRECTIONS):
        tail, _ = _edge_slices(tag, jmax + 1, kmax + 1)
        sj, sk = STEPS[tag]
        two_h = (sj * tj + sk * tk + 2)[tail]
        if order.two_r is not None:
            singular[d][tail] = two_h == order.two_r
        h = two_h / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio[d][tail] = np.where(singular[d][tail], np.nan, (h + order.r) / (h - order.r))
    return singular, ratio


def _reference_frontier(singular, ratio):
    """(values, reached, singular edges) by a frontier from the class bases, one edge layer at a time.

    The first edge into a K-type, in DIRECTIONS order, fixes its value; then
    every edge between two reached K-types is rechecked as recursion_spectrum does.
    """
    _, nj, nk = ratio.shape
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
    return values, reached, tuple((KType(j, k), DIRECTIONS[d]) for j, k, d in edges)


#: Every order kind the tree must match the frontier on: generic, integer and
#: half-integer (singular edges at 2h = 2r for p + q up to 16), negative, and
#: the signed zero and a subnormal.
TREE_ORDERS = st.one_of(
    ORDERS,
    st.integers(-12, 16).map(lambda n: n / 2.0),
    st.sampled_from([-0.0, 0.0, 1e-320, -1e-320]),
)


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(1, 8),
    q=st.integers(1, 8),
    jmax=st.integers(1, 40),
    kmax=st.integers(1, 40),
    r=TREE_ORDERS,
)
def test_tree_products_equal_reference_frontier(p, q, jmax, kmax, r):
    # the tree forms each value by the frontier's multiplications in its order, so the floats are identical
    sig = Signature(p, q)
    values, reached, singular_edges = _reference_frontier(*edge_arrays(sig, r, jmax, kmax))
    table = recursion_spectrum(sig, r, jmax, kmax)
    assert table.values.tobytes() == values.tobytes()
    assert (table.reached == reached).all()
    assert table.singular_edges == singular_edges


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(1, 8),
    q=st.integers(1, 8),
    jmax=st.integers(1, 40),
    kmax=st.integers(1, 40),
    r=TREE_ORDERS,
)
def test_edge_arrays_equal_per_direction_reference(p, q, jmax, kmax, r):
    singular, ratio = edge_arrays(Signature(p, q), r, jmax, kmax)
    expected_singular, expected_ratio = _reference_edge_arrays(Signature(p, q), r, jmax, kmax)
    assert singular.tobytes() == expected_singular.tobytes()
    assert ratio.tobytes() == expected_ratio.tobytes()


@pytest.mark.parametrize("edges, message", [
    # one edge off the tree, in each direction that has such edges
    ([("--", 3, 3)], "1 edges in direction '--' disagree with table values"),
    ([("+-", 2, 3)], "1 edges in direction '+-' disagree with table values"),
    ([("-+", 3, 2)], "1 edges in direction '-+' disagree with table values"),
    # the first direction in DIRECTIONS order is named, with its own count
    ([("--", 4, 4), ("-+", 2, 3), ("-+", 3, 4)], "2 edges in direction '-+' disagree with table values"),
    # a tree edge moves the diagonal (3, 3), (4, 4), ... and every edge off it disagrees
    ([("++", 2, 2)], None),
])
def test_recheck_reports_perturbed_edges(monkeypatch, edges, message):
    sig, r = Signature(2, 3), 0.37
    singular, ratio = edge_arrays(sig, r, 6, 6)
    for tag, j, k in edges:
        ratio[DIRECTIONS.index(tag), j, k] *= 1 + 1e-8
    with pytest.raises(PathInconsistency) as expected:
        _reference_frontier(singular, ratio)
    if message is not None:
        assert str(expected.value) == message
    monkeypatch.setattr(spectrum, "edge_arrays", lambda *args: (singular, ratio))
    with pytest.raises(PathInconsistency, match=f"^{re.escape(str(expected.value))}$"):
        recursion_spectrum(sig, r, 6, 6)


def test_recursion_singular_edge_skip():
    sig = Signature(1, 2)  # J + K + 1 = 1.5 at the base edge
    table = recursion_spectrum(sig, 1.5, 6, 6)
    assert {v: mu for v, mu in table.entries.items() if v.parity == 0} == {KType(0, 0): 1.0}
    assert len(table.singular_edges) > 0


def test_recursion_overflow_raises():
    # products that leave the float range raise instead of reaching the table as infinities
    for r in (250.5, 300.3):
        with pytest.raises(OverflowError, match="^recursion value out of range$"):
            recursion_spectrum(Signature(2, 3), r, 600, 2)


def test_loop_consistency_examples(monkeypatch):
    sig = Signature(2, 2)

    def walk_product(tags, start):
        here, product = start, 1.0
        for tag in tags:
            product *= transition_ratio(sig, here, tag, 0.37)
            here = neighbor(here, tag)
        assert here == start
        return product

    assert walk_product([], KType(1, 1)) == 1.0
    monkeypatch.setattr(spectrum, "MAX_LOOP_LENGTH", 0)
    assert max_loop_deviation(sig, 0.37, 1, 1) == 0.0
    # forwards then backwards
    assert walk_product(["++", "--"], KType(0, 0)) == pytest.approx(1.0, rel=1e-14)
    monkeypatch.setattr(spectrum, "MAX_LOOP_LENGTH", 2)
    assert max_loop_deviation(sig, 0.37, 1, 1) <= 1e-14
    # a genuine square loop, (1,1) -> (2,2) -> (3,1) -> (2,0) -> (1,1)
    product = walk_product(["++", "+-", "--", "-+"], KType(1, 1))
    assert product == pytest.approx(1.0, rel=1e-13)
    monkeypatch.setattr(spectrum, "MAX_LOOP_LENGTH", 4)
    assert max_loop_deviation(sig, 0.37, 3, 2) <= 1e-13


def test_loop_products_sweep_small():
    for p, q in [(1, 1), (2, 3)]:
        for r in GENERIC_R:
            dev = max_loop_deviation(Signature(p, q), r, 10, 10)
            assert dev <= 1e-12


def _reference_loop_deviation(sig, r, jmax, kmax, max_len=8):
    """Max |product - 1| by brute force: every balanced sign pattern of each even length, from every start.

    For each length, every pair of zero-sum +/-1 patterns (the j-steps, the
    k-steps) is multiplied out over all starts at once, a block of j-patterns
    at a time; products that are nan (off the window or through a singular
    edge) are dropped.
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
        cum = np.cumsum(signs, axis=1) - signs  # offset before each step
        jneg = (signs < 0).astype(np.int64)
        for block in range(0, len(signs), 32):
            rows = slice(block, block + 32)
            prod = np.ones((len(signs[rows]), len(signs), nj, nk))
            for i in range(length):
                d = 2 * jneg[rows, i][:, None, None, None] + jneg[:, i][None, :, None, None]
                joff = pad + cum[rows, i][:, None, None, None] + jgrid
                koff = pad + cum[:, i][None, :, None, None] + kgrid
                prod *= ratio[d, joff, koff]
            finite = np.isfinite(prod)
            if finite.any():
                worst = max(worst, float(np.max(np.abs(prod[finite] - 1.0))))
    return worst


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 6),
    q=st.integers(1, 6),
    jmax=st.integers(1, 10),
    kmax=st.integers(1, 10),
    max_len=st.integers(0, 10),
    r=ORDERS,
)
def test_loop_deviation_equals_brute_force(p, q, jmax, kmax, max_len, r):
    # the extremal products are those of single walks, formed in walk order, so the floats are identical
    sig = Signature(p, q)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "MAX_LOOP_LENGTH", max_len)
        got = max_loop_deviation(sig, r, jmax, kmax)
    assert got == _reference_loop_deviation(sig, r, jmax, kmax, max_len=max_len)


#: (p, q, r, zero ratios): orders with negative ratios (|h| < |r|), and with zero ratios (h = -r) where
#: 2r is an integer of the parity of 2h, so that the kernel swaps its largest and smallest products.
SWAPPING_ORDERS = [(2, 3, 4.21, False), (2, 3, -2.5, True), (2, 2, 3.0, True), (1, 1, 2.0, True),
                   (1, 3, -3.0, True)]


@pytest.mark.parametrize("p, q, r, zeros", SWAPPING_ORDERS)
@pytest.mark.parametrize("jmax, kmax", [(1, 10), (10, 1), (1, 1), (5, 4)])
def test_loop_deviation_with_sign_changes_equals_brute_force(monkeypatch, p, q, r, zeros, jmax, kmax):
    sig = Signature(p, q)
    ratio = edge_arrays(sig, r, 5, 4)[1]
    assert (ratio < 0).any() and (ratio == 0).any() == zeros
    for max_len in (8, 10):
        monkeypatch.setattr(spectrum, "MAX_LOOP_LENGTH", max_len)
        got = max_loop_deviation(sig, r, jmax, kmax)
        assert got == _reference_loop_deviation(sig, r, jmax, kmax, max_len=max_len)


#: The recursion route's functions, which take windows with edges only.
EDGE_WINDOW_FUNCTIONS = [edge_arrays, recursion_spectrum, max_loop_deviation, check_method_agreement,
                         check_loop_consistency]


def _raises_window_error(build, jmax, kmax):
    message = f"truncation must satisfy jmax >= 1 and kmax >= 1, got ({jmax}, {kmax})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(Signature(2, 3), 0.37, jmax, kmax)


@pytest.mark.parametrize("jmax, kmax", [(0, 0), (0, 1), (0, 6), (1, 0), (6, 0)])
@pytest.mark.parametrize("build", EDGE_WINDOW_FUNCTIONS, ids=lambda build: build.__name__)
def test_one_k_type_wide_window_raises(build, jmax, kmax):
    # every edge changes both j and k, so a window one K-type wide has none: the CLI's rule and text
    _raises_window_error(build, jmax, kmax)


@pytest.mark.parametrize("jmax, kmax", [(-1, 3), (3, -1), (-2, -2)])
def test_negative_truncation_raises(jmax, kmax):
    # an empty window would report a perfect loop check
    for build in EDGE_WINDOW_FUNCTIONS:
        _raises_window_error(build, jmax, kmax)


def test_recheck_ignores_heads_off_the_window():
    # the recheck compares each edge with the value at its head, nan off the window, so an edge
    # whose head is outside never disagrees, whatever its ratio
    grid = np.arange(6.0).reshape(2, 3)
    heads = spectrum._at_heads(grid)
    for d, tag in enumerate(DIRECTIONS):
        dj, dk = STEPS[tag]
        for j, k in np.ndindex(grid.shape):
            inside = 0 <= j + dj < 2 and 0 <= k + dk < 3
            assert heads[d, j, k] == grid[j + dj, k + dk] if inside else np.isnan(heads[d, j, k])


def test_loop_deviation_peaks_below_brute_force():
    sig = Signature(3, 2)
    peaks = []
    for deviation in (_reference_loop_deviation, max_loop_deviation):
        tracemalloc.start()
        try:
            deviation(sig, 0.37, 10, 10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0]
    # no array over the walks of one depth: the kernel holds two products per start and offset
    assert peaks[1] < 1_000_000


def test_transition_ratio_is_bochner_jump_law():
    # the recursion's h is half the jump of the Bochner eigenvalue j(p-1+j) + k(q-1+k)
    # across the edge: mu_beta / mu_alpha = (dN/2 + r)/(dN/2 - r)
    for p in range(1, 6):
        for q in range(1, 6):
            sig = Signature(p, q)
            for r in (0.37, -0.8, 1.25, 2.6):
                for j in range(7):
                    for k in range(7):
                        alpha = KType(j, k)
                        for beta, tag in neighbors(alpha):
                            h = (beta.j * (p - 1 + beta.j) + beta.k * (q - 1 + beta.k)
                                 - j * (p - 1 + j) - k * (q - 1 + k)) / 2
                            assert transition_ratio(sig, alpha, tag, r) == (h + r) / (h - r)
