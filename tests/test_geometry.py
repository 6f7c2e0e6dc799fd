import pytest

from intertwinor.geometry import (
    DIRECTIONS,
    STEPS,
    KType,
    Signature,
    bochner_eigenvalue,
    doubled_shifts,
    laplacian_eigenvalue,
    n_difference,
    neighbor,
    neighbors,
    scalar_curvature,
)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, 3)
    with pytest.raises(ValueError):
        Signature(2, -1)
    assert Signature(2, 3).n == 5


def test_ktype_validation():
    with pytest.raises(ValueError):
        KType(-1, 0)
    assert KType(1, 2).parity == 1


def test_laplacian_eigenvalue_examples():
    assert laplacian_eigenvalue(Signature(3, 1), "first", 0) == 0
    assert laplacian_eigenvalue(Signature(3, 1), "first", 1) == 3
    assert laplacian_eigenvalue(Signature(1, 3), "second", 2) == 8  # 2*(3-1+2)


def test_bochner_eigenvalue_examples():
    assert bochner_eigenvalue(Signature(1, 3), KType(0, 0)) == 0
    assert bochner_eigenvalue(Signature(1, 3), KType(2, 1)) == 7  # 4 + 3
    assert bochner_eigenvalue(Signature(2, 2), KType(1, 1)) == 4  # 2 + 2


def test_n_difference_examples():
    sig = Signature(1, 1)
    assert n_difference(sig, KType(2, 3), KType(2, 3)) == 0
    assert n_difference(sig, KType(0, 0), KType(1, 1)) == 2
    sig13 = Signature(1, 3)
    assert n_difference(sig13, KType(1, 1), KType(0, 2)) == 4


def test_neighbors_examples():
    assert [v for v, _ in neighbors(KType(0, 0))] == [KType(1, 1)]
    assert {v for v, _ in neighbors(KType(1, 0))} == {KType(2, 1), KType(0, 1)}
    assert {v for v, _ in neighbors(KType(2, 3))} == {
        KType(1, 2), KType(1, 4), KType(3, 2), KType(3, 4)
    }


def test_neighbor_symmetry():
    for j in range(5):
        for k in range(5):
            v = KType(j, k)
            for w, _ in neighbors(v):
                assert v in {u for u, _ in neighbors(w)}


def test_parity_preserved_across_edges():
    # each lattice move changes j + k by 0 or +/- 2, so the parity class
    # is invariant (this is what makes the even/odd classes separately
    # invariant under the operator algebra)
    for j in range(6):
        for k in range(6):
            v = KType(j, k)
            for w, _ in neighbors(v):
                assert w.parity == v.parity


def test_n_difference_matches_transition_denominators():
    # across the edge in quadrant (sj, sk) the Bochner jump is
    # 2(sj*J + sk*K + 1) = sj*2J + sk*2K + 2 evaluated at the source
    for p in range(1, 6):
        for q in range(1, 6):
            sig = Signature(p, q)
            for j in range(0, 21, 3):
                for k in range(0, 21, 3):
                    v = KType(j, k)
                    tj, tk = doubled_shifts(sig, v)
                    for w, tag in neighbors(v):
                        sj, sk = STEPS[tag]
                        assert n_difference(sig, v, w) == sj * tj + sk * tk + 2


def test_bochner_strictly_increasing():
    sig = Signature(2, 3)
    for j in range(10):
        for k in range(10):
            assert bochner_eigenvalue(sig, KType(j + 1, k)) > bochner_eigenvalue(sig, KType(j, k))
            assert bochner_eigenvalue(sig, KType(j, k + 1)) > bochner_eigenvalue(sig, KType(j, k))


def test_scalar_curvature():
    assert scalar_curvature(Signature(1, 1)) == 0
    assert scalar_curvature(Signature(1, 3)) == 6
    assert scalar_curvature(Signature(3, 3)) == 0
    # (n-2)/(4(n-1)) * Scal == ((q-1)^2 - (p-1)^2)/4 at (1, 3)
    assert (4 - 2) / (4 * (4 - 1)) * 6 == ((3 - 1) ** 2 - 0) / 4


def test_direction_tags_cover_all_steps():
    assert set(DIRECTIONS) == set(STEPS)
    assert {STEPS[d] for d in DIRECTIONS} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert neighbor(KType(0, 0), "--") is None
