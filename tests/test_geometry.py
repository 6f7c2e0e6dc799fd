import ast
import re
from pathlib import Path

import pytest

from intertwinor import closedform, spectrum
from intertwinor.geometry import (
    DIRECTIONS,
    STEPS,
    KType,
    Signature,
    SpectralOrder,
    doubled_shifts,
    neighbor,
    scalar_curvature,
)


def neighbors(v):
    return [(w, tag) for tag in DIRECTIONS if (w := neighbor(v, tag)) is not None]


def test_signature_validation():
    with pytest.raises(ValueError, match=re.escape("sphere dimensions must satisfy p >= 1 and q >= 1, "
                                                   "got (p, q) = (0, 3)")):
        Signature(0, 3)
    with pytest.raises(ValueError):
        Signature(2, -1)
    assert Signature(2, 3).n == 5


def test_ktype_validation():
    with pytest.raises(ValueError, match=re.escape("harmonic orders must be nonnegative, got (-1, 0)")):
        KType(-1, 0)
    with pytest.raises(ValueError):
        KType(0, -1)
    assert KType(1, 2).parity == 1


@pytest.mark.parametrize("record, text", [(Signature(2, 3), "Signature(p=2, q=3)"), (KType(1, 0), "KType(j=1, k=0)"),
                                          (SpectralOrder(0.5), "SpectralOrder(r=0.5)")])
def test_value_records_are_immutable_tuples(record, text):
    # repr, equality, hashing and unpacking are those of the tuple of fields; no field or new attribute is set
    assert repr(record) == text
    fields = tuple(record)
    assert record == fields and hash(record) == hash(fields) == hash(type(record)(*fields))
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    assert tuple(record) == fields


def test_ktypes_sort_by_j_then_k():
    ktypes = [KType(j, k) for j in range(3, -1, -1) for k in (2, 0, 1)]
    assert sorted(ktypes) == [KType(j, k) for j in range(4) for k in range(3)]
    assert sorted([Signature(3, 1), Signature(1, 4), Signature(1, 2)]) == [(1, 2), (1, 4), (3, 1)]


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
    # across the edge in quadrant (sj, sk) the jump of the Bochner eigenvalue
    # j(p-1+j) + k(q-1+k) is 2(sj*J + sk*K + 1) = sj*2J + sk*2K + 2 at the source
    for p in range(1, 6):
        for q in range(1, 6):
            sig = Signature(p, q)
            for j in range(0, 21, 3):
                for k in range(0, 21, 3):
                    v = KType(j, k)
                    tj, tk = doubled_shifts(sig, v)
                    for w, tag in neighbors(v):
                        sj, sk = STEPS[tag]
                        jump = w.j * (p - 1 + w.j) + w.k * (q - 1 + w.k) - j * (p - 1 + j) - k * (q - 1 + k)
                        assert jump == sj * tj + sk * tk + 2


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


def _package_imports(path: Path) -> set[str]:
    """The modules of the package that a source file imports anywhere in it, relatively or by its name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["intertwinor" if node.level else None, node.module]))
            modules = [f"{module}.{alias.name}" for alias in node.names] if module == "intertwinor" else [module]
        else:
            continue
        found |= {module.removeprefix("intertwinor.") for module in modules if module.split(".")[0] == "intertwinor"}
    return found


@pytest.mark.parametrize("route", [spectrum, closedform], ids=lambda module: module.__name__)
def test_spectral_routes_meet_only_in_geometry(route):
    # the recursion and the closed form share no code but the lattice and index layer, so an error in one
    # cannot move both sides of their cross-check alike
    assert _package_imports(Path(route.__file__)) <= {"geometry"}
