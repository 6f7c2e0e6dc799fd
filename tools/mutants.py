"""Mutation sweep: each entry of MUTANTS breaks one constant or line of the package, and its tests must fail.

For every entry the script copies ``src/``, ``tests/`` and ``pyproject.toml`` (which holds the pytest
settings) to a temporary directory, replaces the entry's old text, which must occur exactly once in its
file, by the new text, and runs pytest there on the entry's test files or test ids alone, stopping at the
first failure.  A mutant is killed when a test fails.  One line per mutant gives its verdict and run time.  The
script exits 1 when a mutant survives without a reason in the table, when a mutant marked as a survivor
is killed, or when an old text is not found, so the table stays exact.  It assumes the unmutated tests
pass; run the package tests first.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: A mutant whose tests still pass after this long counts as killed: it hangs where the package ends.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/intertwinor
    old: str
    new: str
    tests: tuple[str, ...]  # test files or pytest node ids, relative to the checkout
    survives: str | None = None  # why the listed tests cannot kill it, for an expected survivor


CLI, CLOSEDFORM, SPECTRUM, VERIFY, ZONAL = (f"tests/test_{name}.py"
                                            for name in ("cli", "closedform", "spectrum", "verify", "zonal"))
#: The lemma1 tests alone: each of the two coefficient-space routes of Lemma 1 is the other's oracle.
LEMMA1 = (f"{VERIFY}::test_lemma1_random", "tests/test_acceptance.py::test_05_conformal_field_commutator")
#: The intertwining tests alone.
INTERTWINING = (f"{VERIFY}::test_intertwining_random", "tests/test_acceptance.py::test_06_intertwining_relation")

MUTANTS = [
    Mutant("GAMMA_DIRECT 150 -> 0", "closedform.py", "GAMMA_DIRECT = 150.0", "GAMMA_DIRECT = 0.0", (CLOSEDFORM,)),
    Mutant("lemma1 gate 1e-8 -> 1e-2", "verify.py", "apply_T_via_lemma(f).coeffs, 1e-8, seed)",
           "apply_T_via_lemma(f).coeffs, 1e-2, seed)", (CLI,)),
    Mutant("intertwining gate 1e-9 -> 1e-3", "verify.py", "f, delta, 1e-9, seed)", "f, delta, 1e-3, seed)",
           (CLI,)),
    Mutant("method-agreement gate 1e-10 -> 1e-4", "verify.py", "tolerance=1e-10, worst_location=where,",
           "tolerance=1e-4, worst_location=where,", (CLI,)),
    Mutant("conformal-laplacian gate 0 -> 1", "verify.py", "max_residual=float(mismatches), tolerance=0.0,",
           "max_residual=float(mismatches), tolerance=1.0,", (CLI,)),
    Mutant("inversion gate 1e-12 -> 1e-6", "verify.py", "max_residual=residual, tolerance=1e-12,",
           "max_residual=residual, tolerance=1e-6,", (CLI,)),
    Mutant("loop-consistency gate 1e-12 -> 1e-6", "verify.py", "max_residual=deviation, tolerance=1e-12,",
           "max_residual=deviation, tolerance=1e-6,", (CLI,)),
    Mutant("MAX_INTEGER_ORDER 100 -> 98", "cli.py", "MAX_INTEGER_ORDER = 100", "MAX_INTEGER_ORDER = 98", (CLI,)),
    Mutant("MAX_LOOP_LENGTH 8 -> 4", "spectrum.py", "MAX_LOOP_LENGTH = 8", "MAX_LOOP_LENGTH = 4", (VERIFY,)),
    Mutant("GRID_MARGIN 4 -> 1", "zonal.py", "GRID_MARGIN = 4", "GRID_MARGIN = 1", (ZONAL,)),
    Mutant("CACHED_WINDOW 256 -> 0", "closedform.py", "CACHED_WINDOW = 256", "CACHED_WINDOW = 0", (CLOSEDFORM,)),
    Mutant("WINDOW_BYTES_PER_KTYPE 1133 -> 100", "cli.py", "WINDOW_BYTES_PER_KTYPE = 1133",
           "WINDOW_BYTES_PER_KTYPE = 100", (CLI,)),
    Mutant("JSON key texts of K and j swapped", "cli.py", "for key in _JSON_KEYS[1:])]",
           "for key in [_JSON_KEYS[2], _JSON_KEYS[1], *_JSON_KEYS[3:]])]", (CLI,)),
    Mutant("JSON row separator without its comma", "cli.py", '_JSON_ROW_SEPARATOR = "\\n    },\\n"',
           '_JSON_ROW_SEPARATOR = "\\n    }\\n"', (CLI,)),
    Mutant("JSON last row keeps its separator", "cli.py", "[_JSON_ROW_SEPARATOR] * (n * width - 1)",
           "[_JSON_ROW_SEPARATOR] * (n * width)", (CLI,)),
    Mutant("method-agreement prediction forced true", "verify.py",
           "prediction_ok = not (normalized & (table.reached == infinite)).any()",
           "prediction_ok = True", (VERIFY,)),
    Mutant("method-agreement ties to the odd class", "verify.py", "== np.arange(2)[:, None, None]",
           "== np.arange(1, -1, -1)[:, None, None]", (VERIFY,)),
    Mutant("method-agreement compares numerator poles", "verify.py",
           "comparable = normalized & ~infinite & table.reached", "comparable = normalized & table.reached",
           (VERIFY,)),
    Mutant("MAX_DIMENSION 2**50 -> 2**62", "cli.py", "MAX_DIMENSION = 2**50", "MAX_DIMENSION = 2**62", (CLI,)),
    Mutant("edge_arrays minimum side 1 -> 0", "spectrum.py", "check_window(jmax, kmax, 1)",
           "check_window(jmax, kmax, 0)", (SPECTRUM,)),
    Mutant("recheck heads padded with 0.0, not nan", "spectrum.py", "padded = np.full((nj + 2, nk + 2), np.nan)",
           "padded = np.full((nj + 2, nk + 2), 0.0)", (SPECTRUM,)),
    Mutant("REL_TOL 1e-10 -> 1e-6", "spectrum.py", "REL_TOL = 1e-10", "REL_TOL = 1e-6", (SPECTRUM,)),
    Mutant("mult_by_cos downward coefficient off by one", "zonal.py",
           "(j + 2.0 * lam - 1) / (2.0 * (j + lam))", "(j + 2.0 * lam) / (2.0 * (j + lam))", LEMMA1),
    Mutant("varpi k-axis pass with p's index", "zonal.py", "_times_x(gegenbauer_index(f.sig.q), along_j, -1)",
           "_times_x(gegenbauer_index(f.sig.p), along_j, -1)", LEMMA1 + INTERTWINING),
    Mutant("apply_N eigenvalue j(p + j)", "zonal.py", "nj = j * (f.sig.p - 1 + j)", "nj = j * (f.sig.p + j)", LEMMA1),
    Mutant("banded D downward coefficient off by one", "zonal.py", "(n * up, -(n + 2 * lam) * down)",
           "(n * up, -(n + 2 * lam - 1) * down)", LEMMA1),
    Mutant("LIMIT_STEP 1e-6 -> 1e-4", "closedform.py", "LIMIT_STEP = 1e-6", "LIMIT_STEP = 1e-4", (CLOSEDFORM, CLI),
           survives="removed by ROADMAP item 3"),
]


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant, on a fresh temporary copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "intertwinor" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"error: the old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                                   *mutant.tests], cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    if done.returncode not in (0, 1):  # 1: tests failed; anything else is an error of the run itself
        return f"error: pytest exited {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"
    return "killed" if done.returncode == 1 else "survived"


def main() -> int:
    bad = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        began = time.perf_counter()
        verdict = run(mutant)
        expected = "survived" if mutant.survives else "killed"
        note = f"  (expected survivor: {mutant.survives})" if mutant.survives else ""
        if verdict != expected:
            bad += 1
            note += "  UNEXPECTED"
        print(f"{verdict:9} {time.perf_counter() - began:6.1f} s  {mutant.name}{note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} unexpected, {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
