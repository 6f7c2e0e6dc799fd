"""Route independence: the package functions that the two routes of each cross-check share.

The routes are the entry points of ``routes()``: the recursion, the raw Gamma ratio and the integer-order
polynomial (the three spectrum routes), and the commutator and banded forms of Lemma 1.  Each argument set
runs in-process under ``sys.setprofile`` with the window index cache cleared first, so every route enters
what it builds; the arguments cover generic, integer and half-integer r (the polynomial is defined at
integer r only).  For each pair of ``ALLOWED`` the script prints every function of ``src/intertwinor``
that both routes enter, as ``<module>.<qualified name>``, and exits 1 when one is not on that pair's
allowlist, or when a route of ``MODULES`` enters a module beyond its own: shared code would let one error
move both sides of a comparison alike.  Comprehensions and lambdas count as part of the function that holds
them.

    python tools/independence.py                  # this checkout's src/
    python tools/independence.py --src OTHER/src  # another tree
    python tools/independence.py --mutants        # also show that each of MUTANTS makes the check fail
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: Index arithmetic every spectrum route may read: the window index record and its readers, the window
#: check, the order and the lattice records.
INDEX_ARITHMETIC = frozenset({
    "spectrum.window_index", "spectrum._index", "spectrum.WindowIndex.shifts", "spectrum.window",
    "spectrum.check_window", "spectrum.SpectralOrder.__new__", "spectrum.SpectralOrder.coerce",
    "spectrum.SpectralOrder.two_r", "spectrum.SpectralOrder.is_positive_integer",
    "spectrum.SpectralOrder.as_integer", "geometry.KType.__new__", "geometry.KType.parity",
    "geometry.doubled_shifts",
})

#: (route, route): the functions both may enter.  The Gamma ratio and the polynomial read one table of Gamma
#: pair arguments, laid out on the same lines, so only method agreement against the recursion catches an
#: error in it.  The two Lemma 1 routes share only the record of a zonal function and its Gegenbauer index.
ALLOWED = {
    ("recursion", "gamma"): INDEX_ARITHMETIC,
    ("recursion", "polynomial"): INDEX_ARITHMETIC,
    ("gamma", "polynomial"): INDEX_ARITHMETIC | {"closedform._gamma_pairs", "closedform._lines"},
    ("commutator", "banded"): frozenset({"zonal.gegenbauer_index", "zonal.ZonalFunction.__init__",
                                         "zonal.ZonalFunction.jmax", "zonal.ZonalFunction.kmax"}),
}

#: Route: the only modules it may enter.  The recursion uses transition ratios alone, never the closed form.
MODULES = {"recursion": {"spectrum", "geometry"}}


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


def entered(src: Path) -> dict[str, set[str]]:
    """{route: the package functions its entry points enter}, by "<module>.<qualified name>"."""
    sys.path.insert(0, str(src))
    from intertwinor import spectrum

    package = str(src / "intertwinor")

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package) and not code.co_name.startswith("<"):
            seen.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    found = {}
    for route, entries in routes().items():
        seen = found[route] = set()
        for function, args in entries:
            spectrum._index.cache_clear()
            sys.setprofile(profile)
            try:
                function(*args)
            except ArithmeticError:  # a pole: the route ran up to it
                pass
            finally:
                sys.setprofile(None)
    return found


def check(src: Path) -> int:
    found = entered(src)
    bad = 0
    for (a, b), allowed in ALLOWED.items():
        for name in sorted(found[a] & found[b]):
            shared = name in allowed
            bad += not shared
            print(f"{a} / {b}: {name}  {'allowed' if shared else 'NOT ALLOWED'}")
    for route, modules in MODULES.items():
        for name in sorted(name for name in found[route] if name.split(".")[0] not in modules):
            bad += 1
            print(f"{route}: {name}  NOT ALLOWED: outside {', '.join(sorted(modules))}")
    print(f"{len(ALLOWED)} pairs, {bad} shared or foreign functions not allowed")
    return 1 if bad else 0


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/intertwinor
    old: str  # must occur exactly once in the file
    new: str


#: Edits that merge two routes (ROADMAP item 11); with each, the check must exit 1.
MUTANTS = [
    Mutant("the recursion calls z_gamma_grid for its base values", "spectrum.py",
           "    singular, ratio = edge_arrays(sig, order, jmax, kmax)\n",
           "    singular, ratio = edge_arrays(sig, order, jmax, kmax)\n"
           "    from .closedform import z_gamma_grid\n    z_gamma_grid(sig, order, 1, 0)\n"),
    Mutant("apply_T_banded calls _times_x", "zonal.py",
           "    out = np.zeros(f.coeffs.shape[:-2] + (f.jmax + 2, f.kmax + 2))\n",
           "    out = np.zeros(f.coeffs.shape[:-2] + (f.jmax + 2, f.kmax + 2))\n"
           "    _times_x(_x_columns(gegenbauer_index(f.sig.q), f.kmax + 1, -1), f.coeffs, -1)\n"),
    Mutant("_factorized_float calls _gamma_ratio", "closedform.py",
           "    fourc, _, parities, index, _ = lines\n",
           "    fourc, _, parities, index, _ = lines\n    _gamma_ratio(SpectralOrder(r), lines)\n"),
]


def check_mutants() -> int:
    """0 when every mutant makes the check exit 1, else 1; one line per mutant."""
    bad = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            path = copy / "intertwinor" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                verdict = f"error: the old text occurs {text.count(mutant.old)} times in {mutant.file}"
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                done = subprocess.run([sys.executable, __file__, "--src", str(copy)], capture_output=True, text=True)
                verdict = "caught" if done.returncode == 1 else f"MISSED (exit {done.returncode})"
        bad += verdict != "caught"
        print(f"{verdict}  {mutant.name}")
    print(f"{len(MUTANTS)} mutants, {bad} not caught")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the intertwinor package")
    parser.add_argument("--mutants", action="store_true", help="also run the check on each of MUTANTS")
    args = parser.parse_args()
    status = check(Path(args.src).resolve())
    return max(status, check_mutants()) if args.mutants else status


if __name__ == "__main__":
    raise SystemExit(main())
