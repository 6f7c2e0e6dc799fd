import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intertwinor.geometry import DIRECTIONS, KType, Signature, n_difference, neighbor, neighbors
from intertwinor.spectrum import (
    PathInconsistency,
    SpectralOrder,
    ZeroDenominator,
    at_class_base,
    is_singular_edge,
    max_loop_deviation,
    recursion_spectrum,
    transition_ratio,
)

GENERIC_R = (0.37, 1.5, -0.8)


def test_spectral_order_flags():
    assert SpectralOrder(2.0).is_positive_integer
    assert SpectralOrder(2.0).as_integer == 2
    assert not SpectralOrder(1.5).is_positive_integer
    assert SpectralOrder(1.5).two_r == 3
    assert SpectralOrder(0.37).two_r is None
    assert not SpectralOrder(-1.0).is_positive_integer
    assert float(-SpectralOrder(0.5)) == -0.5


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spectral_order_rejects_non_finite(value):
    with pytest.raises(ValueError):
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

    # a window with jmax = 0 holds no odd base and no edge
    assert recursion_spectrum(Signature(2, 3), 0.8, 0, 5).entries == {KType(0, 0): 1.0}
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
    bases = [KType(0, 0), KType(1, 0)][: min(jmax + 1, 2)]
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
    jmax=st.integers(0, 10),
    kmax=st.integers(0, 10),
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


def test_recursion_singular_edge_skip():
    sig = Signature(1, 2)  # J + K + 1 = 1.5 at the base edge
    table = recursion_spectrum(sig, 1.5, 6, 6)
    assert {v: mu for v, mu in table.entries.items() if v.parity == 0} == {KType(0, 0): 1.0}
    assert len(table.singular_edges) > 0


def test_loop_consistency_examples():
    sig = Signature(2, 2)

    def walk_product(tags, start):
        here, product = start, 1.0
        for tag in tags:
            product *= transition_ratio(sig, here, tag, 0.37)
            here = neighbor(here, tag)
        assert here == start
        return product

    assert walk_product([], KType(1, 1)) == 1.0
    assert max_loop_deviation(sig, 0.37, 1, 1, max_len=0) == 0.0
    # forwards then backwards
    assert walk_product(["++", "--"], KType(0, 0)) == pytest.approx(1.0, rel=1e-14)
    assert max_loop_deviation(sig, 0.37, 1, 1, max_len=2) <= 1e-14
    # a genuine square loop, (1,1) -> (2,2) -> (3,1) -> (2,0) -> (1,1)
    product = walk_product(["++", "+-", "--", "-+"], KType(1, 1))
    assert product == pytest.approx(1.0, rel=1e-13)
    assert max_loop_deviation(sig, 0.37, 3, 2, max_len=4) <= 1e-13


def test_loop_products_sweep_small():
    for p, q in [(1, 1), (2, 3)]:
        for r in GENERIC_R:
            dev = max_loop_deviation(Signature(p, q), r, 10, 10, max_len=8)
            assert dev <= 1e-12


def test_transition_ratio_is_bochner_jump_law():
    # the recursion's h is half the Bochner eigenvalue jump across the edge:
    # mu_beta / mu_alpha = (dN/2 + r)/(dN/2 - r) with dN = n_difference
    for p in range(1, 6):
        for q in range(1, 6):
            sig = Signature(p, q)
            for r in (0.37, -0.8, 1.25, 2.6):
                for j in range(7):
                    for k in range(7):
                        alpha = KType(j, k)
                        for beta, tag in neighbors(alpha):
                            h = n_difference(sig, alpha, beta) / 2
                            assert transition_ratio(sig, alpha, tag, r) == (h + r) / (h - r)
