"""Route independence: the two routes of each pair share no package function off that pair's allowlist.

The routes are the entry points of ``routes()``: the raw Gamma ratio and the integer-order polynomial, the two
closed-form routes of the spectrum, and the commutator and banded forms of Lemma 1.  Each argument set runs
in-process under ``reach.entered()`` with the window index cache cleared first, so every route enters what it
builds; the arguments cover generic, integer and half-integer r (the polynomial is defined at integer r only).
The script prints every function the two routes of a pair of ``ALLOWED`` both enter, as
``<module>.<qualified name>``, and exits 1 when one of them lies outside ``geometry`` and off that pair's
allowlist, and 2 with the traceback when it raises.  Shared code would let one error move both sides of a
comparison alike.  That the recursion and the closed form meet only in ``geometry``, the lattice and index
layer, is a tier-1 test: ``tests/test_geometry.py::test_spectral_routes_meet_only_in_geometry`` reads every
import of both modules.

    python tools/independence.py
"""

from __future__ import annotations

from reach import entered, exit_status

#: (route, route): the functions outside geometry both may enter.  The Gamma ratio and the polynomial read one
#: table of Gamma pair arguments, laid out on the same lines, so only method agreement against the recursion
#: catches an error in it.  The two Lemma 1 routes share only the record of a zonal function and its
#: Gegenbauer index.
ALLOWED = {
    ("gamma", "polynomial"): frozenset({"closedform._gamma_pairs", "closedform._lines"}),
    ("commutator", "banded"): frozenset({"zonal.gegenbauer_index", "zonal.ZonalFunction.__init__",
                                         "zonal.ZonalFunction.jmax", "zonal.ZonalFunction.kmax"}),
}


def routes():
    """{route: [(entry point, arguments), ...]} over the imported package."""
    from intertwinor import closedform, verify, zonal
    from intertwinor.geometry import KType, Signature

    windows = [(Signature(2, 3), 6, 5), (Signature(1, 4), 4, 7)]
    generic = [(sig, r, jmax, kmax) for sig, jmax, kmax in windows for r in (0.37, -1.3, 2.0, 3.0, 1.5, 0.5)]
    integer = [(sig, r, jmax, kmax) for sig, jmax, kmax in windows for r in (1, 2, 3)]
    functions = [verify.seeded_stack(sig, jmax, kmax, 0) for sig, jmax, kmax in windows]
    return {
        "gamma": [(closedform.z_gamma_grid, args) for args in generic]
                 + [(closedform.z_gamma_ratio, (sig, r, KType(2, 1))) for sig, r, _, _ in generic],
        "polynomial": [(closedform.z_spectral_grid, args) for args in integer],
        "commutator": [(zonal.apply_T_via_lemma, (f,)) for f in functions],
        "banded": [(zonal.apply_T_banded, (f,)) for f in functions],
    }


def found() -> dict[str, set[str]]:
    """{route: the package functions its entry points enter}."""
    from intertwinor import geometry

    def run(function, args):
        try:
            function(*args)
        except ArithmeticError:  # a pole: the route ran up to it
            pass

    names = {}
    for route, entries in routes().items():
        names[route] = set()
        for function, args in entries:
            geometry._index.cache_clear()
            names[route] |= entered(lambda: run(function, args))
    return names


def main() -> int:
    names = found()
    bad = 0
    for (a, b), allowed in ALLOWED.items():
        for name in sorted(names[a] & names[b]):
            shared = name.startswith("geometry.") or name in allowed
            bad += not shared
            print(f"{a} / {b}: {name}  {'allowed' if shared else 'NOT ALLOWED'}")
    print(f"{len(ALLOWED)} pairs: {bad} functions not allowed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(exit_status(main))
