"""Route independence: the package functions each route enters, held to one module rule.

The routes are the entry points of ``routes()``: the recursion, the raw Gamma ratio and the integer-order
polynomial (the three spectrum routes), and the commutator and banded forms of Lemma 1.  Each argument set
runs in-process under ``sys.setprofile`` with the window index cache cleared first, so every route enters
what it builds; the arguments cover generic, integer and half-integer r (the polynomial is defined at
integer r only).  The script exits 1 when a route of ``MODULES`` enters a module beyond its own, so that
the spectrum routes meet only in ``geometry``, the lattice and index layer, or when the two routes of a
pair of ``ALLOWED`` both enter a function outside ``geometry`` that is not on that pair's allowlist; it
prints each such function and every one a pair shares, as ``<module>.<qualified name>``.  Shared code
would let one error move both sides of a comparison alike.  Comprehensions and lambdas count as part of
the function that holds them.

    python tools/independence.py
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Route: the only modules it may enter.  The recursion uses transition ratios alone, never the closed form,
#: and the closed form never the recursion.
MODULES = {
    "recursion": {"spectrum", "geometry"},
    "gamma": {"closedform", "geometry"},
    "polynomial": {"closedform", "geometry"},
}

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
    from intertwinor import closedform, spectrum, verify, zonal
    from intertwinor.geometry import KType, Signature

    windows = [(Signature(2, 3), 6, 5), (Signature(1, 4), 4, 7)]
    generic = [(sig, r, jmax, kmax) for sig, jmax, kmax in windows for r in (0.37, -1.3, 2.0, 3.0, 1.5, 0.5)]
    integer = [(sig, r, jmax, kmax) for sig, jmax, kmax in windows for r in (1, 2, 3)]
    functions = [verify.seeded_stack(sig, jmax, kmax, 0) for sig, jmax, kmax in windows]
    return {
        "recursion": [(spectrum.recursion_spectrum, args) for args in generic],
        "gamma": [(closedform.z_gamma_grid, args) for args in generic]
                 + [(closedform.z_gamma_ratio, (sig, r, KType(2, 1))) for sig, r, _, _ in generic],
        "polynomial": [(closedform.z_spectral_grid, args) for args in integer],
        "commutator": [(zonal.apply_T_via_lemma, (f,)) for f in functions],
        "banded": [(zonal.apply_T_banded, (f,)) for f in functions],
    }


def entered() -> dict[str, set[str]]:
    """{route: the package functions its entry points enter}, by "<module>.<qualified name>"."""
    sys.path.insert(0, str(SRC))
    from intertwinor import geometry

    package = str(SRC / "intertwinor")

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package) and not code.co_name.startswith("<"):
            seen.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    found = {}
    for route, entries in routes().items():
        seen = found[route] = set()
        for function, args in entries:
            geometry._index.cache_clear()
            sys.setprofile(profile)
            try:
                function(*args)
            except ArithmeticError:  # a pole: the route ran up to it
                pass
            finally:
                sys.setprofile(None)
    return found


def main() -> int:
    found = entered()
    bad = 0
    for route, modules in MODULES.items():
        for name in sorted(name for name in found[route] if name.split(".")[0] not in modules):
            bad += 1
            print(f"{route}: {name}  NOT ALLOWED: outside {', '.join(sorted(modules))}")
    for (a, b), allowed in ALLOWED.items():
        for name in sorted(found[a] & found[b]):
            shared = name.startswith("geometry.") or name in allowed
            bad += not shared
            print(f"{a} / {b}: {name}  {'allowed' if shared else 'NOT ALLOWED'}")
    print(f"{len(MODULES)} routes held to their modules, {len(ALLOWED)} pairs: {bad} functions not allowed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
