"""Definitions in the intertwinor package that no call of tools/cli_digest.py enters.

Runs every argv of ``cli_digest.calls()`` in-process under ``sys.setprofile``,
with the package imported under the profiler too, and prints each function or
method defined in ``src/intertwinor`` whose code is never entered, one line
``<module>.<qualified name>  <reason>`` each.  ``EXPECTED`` names the
definitions that may stay unreached and why.  The script exits 1 when an
unreached definition is not in ``EXPECTED``, or when an entry of ``EXPECTED``
is reached or no longer defined, so the table stays exact.

    python tools/reach.py   # Python 3.11 or later: it matches code objects by co_qualname
"""

from __future__ import annotations

import sys
import tempfile
import types
from pathlib import Path

import cli_digest

SRC = Path(__file__).resolve().parents[1] / "src"

TRACED = "rebound by perfbench/tracing.py, which waits for ROADMAP item 7"
QUADRATURE = ("library API: acceptance criterion 9 (quadrature round trip and norms); "
              "tier-1 oracle of the banded operator")

#: "<module>.<qualified name>": why the digest calls leave that definition unentered.
EXPECTED = {
    "cli.entry": "the console-script hook of pyproject.toml; the digest calls cli.main",
    "spectrum.transition_ratio": TRACED,
    "spectrum.is_singular_edge": TRACED,
    "geometry.neighbor": TRACED,
    "closedform.singular_ktypes": TRACED,
    "closedform.conformal_laplacian_eigenvalue_exact": TRACED,
    "spectrum.SpectrumTable.entries": "read by perfbench/tracing.py for spectrum.table_entries, "
                                      "which waits for ROADMAP item 7",
    "verify.random_zonal": "library API: the seeded test function of acceptance criteria 5 and 6",
    "zonal.basis_element": "library API: the single-mode test function of the verify tests",
    "zonal.mult_by_cos": "library API: x * f along axis 0, the recurrence that multiply_by_varpi runs along "
                         "each axis through zonal._times_x",
    "zonal.project": QUADRATURE,
    "zonal.gegenbauer_norm": QUADRATURE,
    "zonal.QuadratureGrid.wx": QUADRATURE,
    "zonal.QuadratureGrid.wy": QUADRATURE,
    "zonal._christoffel_weights": "computes QuadratureGrid.wx and wy, " + QUADRATURE,
    "zonal.quadrature_grid": QUADRATURE,
    "zonal.evaluate": QUADRATURE,
    "zonal.apply_T_numeric": QUADRATURE,
    "zonal._require_degrees": "grid helper, " + QUADRATURE,
    "zonal._leading": "grid helper, " + QUADRATURE,
    "zonal._jacobi_recurrence": "grid helper, " + QUADRATURE,
    "zonal._orthonormal_sums": "grid helper, " + QUADRATURE,
    "zonal._gauss_jacobi_nodes": "grid helper, " + QUADRATURE,
    "zonal._three_term_columns": "grid helper, " + QUADRATURE,
    "zonal._derivative_columns": "grid helper, " + QUADRATURE,
}


def definitions() -> dict[str, types.CodeType]:
    """Every def in the package, by "<module>.<qualified name>", from the compiled source."""
    found = {}
    for path in sorted((SRC / "intertwinor").glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if not const.co_name.startswith("<"):  # not a lambda or comprehension
                        found[f"{path.stem}.{const.co_qualname}"] = const
    return found


def entered() -> set[tuple[str, str, int]]:
    """(file, qualified name, first line) of every Python function entered by the digest calls."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            from intertwinor import cli

            for argv in cli_digest.calls(tmp):
                cli_digest.run(cli.main, argv, tmp)
        finally:
            sys.setprofile(None)
    return {(code.co_filename, code.co_qualname, code.co_firstlineno) for code in codes}


def main() -> int:
    seen = entered()
    unreached = [name for name, code in definitions().items()
                 if (code.co_filename, code.co_qualname, code.co_firstlineno) not in seen]
    unexpected = [name for name in unreached if name not in EXPECTED]
    stale = sorted(set(EXPECTED) - set(unreached))
    for name in unreached:
        print(f"{name}  {EXPECTED.get(name, 'UNEXPECTED: no reason in EXPECTED')}")
    for name in stale:
        print(f"{name}  STALE: in EXPECTED but reached or no longer defined")
    print(f"{len(unreached)} unreached, {len(unexpected)} unexpected, {len(stale)} stale")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
