"""Mutation sweep: each entry of MUTANTS breaks one constant or line of the package, and its tests must fail.

For every entry the script copies ``src/``, ``tests/``, ``tools/`` and ``pyproject.toml`` (which holds the
pytest settings) to a temporary directory, replaces the entry's old text, which must occur exactly once in
its file, by the new text, and runs there the entry's check alone: pytest on its test files or test ids,
stopping at the first failure, or its script under ``tools/``.  A mutant is killed when its check exits 1: a
test failed, or the script gave its failing verdict.  Any status but 0 and 1 is an error, not a kill: pytest
exits 2 on an error in collection, and the scripts exit 2 when they raise.  One line per mutant gives its
verdict and run time.  The script exits 1 when a mutant survives without a reason in the table, when a mutant
marked as a survivor is killed, when a check ends in an error, or when an old text is not found, so the table
stays exact.  It assumes the unmutated tests and tools pass; run them first.

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
    tests: tuple[str, ...]  # test files or pytest node ids, or one script under tools/, relative to the checkout
    survives: str | None = None  # why the listed tests cannot kill it, for an expected survivor


CLI, CLOSEDFORM, GEOMETRY, SPECTRUM, VERIFY, ZONAL = (
    f"tests/test_{name}.py" for name in ("cli", "closedform", "geometry", "spectrum", "verify", "zonal"))
#: The lemma1 tests alone: each of the two coefficient-space routes of Lemma 1 is the other's oracle.
LEMMA1 = (f"{VERIFY}::test_lemma1_random", "tests/test_acceptance.py::test_05_conformal_field_commutator")
#: The intertwining tests alone.
INTERTWINING = (f"{VERIFY}::test_intertwining_random", "tests/test_acceptance.py::test_06_intertwining_relation")
#: The block-equivalence tests of the seeded checks.
BLOCKED = tuple(f"{VERIFY}::test_blocked_{name}" for name in (
    "seeded_checks_equal_one_block", "seeded_checks_keep_the_lowest_seed_on_ties",
    "seeded_checks_report_the_first_nan", "intertwining_raises_the_first_touched_pole"))
#: The hypothesis test of the flag reader against argparse, alone.
READER = (f"{CLI}::test_reader_matches_argparse",)
#: The route independence check of the two allowlisted pairs (ROADMAP item 11), alone.
INDEPENDENCE = ("tools/independence.py",)
#: The tier-1 test that the recursion and the closed form import no package module but geometry, alone.
MODULE_RULE = (f"{GEOMETRY}::test_spectral_routes_meet_only_in_geometry",)

MUTANTS = [
    Mutant("GAMMA_DIRECT 150 -> 0", "closedform.py", "GAMMA_DIRECT = 150.0", "GAMMA_DIRECT = 0.0", (CLOSEDFORM,)),
    Mutant("lemma1 gate 1e-8 -> 1e-2", "verify.py", "1e-8, seed)", "1e-2, seed)", (CLI,)),
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
    Mutant("CACHED_WINDOW 256 -> 0", "geometry.py", "CACHED_WINDOW = 256", "CACHED_WINDOW = 0", (CLOSEDFORM,)),
    Mutant("WINDOW_BYTES_PER_KTYPE 320 -> 100", "cli.py", "WINDOW_BYTES_PER_KTYPE = 320",
           "WINDOW_BYTES_PER_KTYPE = 100", (CLI,)),
    Mutant("BLOCK_BYTES_PER_KTYPE 1000 -> 100", "cli.py", "BLOCK_BYTES_PER_KTYPE = 1000",
           "BLOCK_BYTES_PER_KTYPE = 100", (CLI,)),
    Mutant("TABLE_BLOCK_KTYPES 512 -> 8192", "cli.py", "TABLE_BLOCK_KTYPES = 512", "TABLE_BLOCK_KTYPES = 8192",
           (CLI,)),
    Mutant("JSON key texts of K and j swapped", "cli.py", "for key in _JSON_KEYS[1:])]",
           "for key in [_JSON_KEYS[2], _JSON_KEYS[1], *_JSON_KEYS[3:]])]", (CLI,)),
    Mutant("JSON row separator without its comma", "cli.py", '_JSON_ROW_SEPARATOR = "\\n    },\\n"',
           '_JSON_ROW_SEPARATOR = "\\n    }\\n"', (CLI,)),
    Mutant("JSON last row keeps its separator", "cli.py", "[_JSON_ROW_SEPARATOR] * (n * width - 1)",
           "[_JSON_ROW_SEPARATOR] * (n * width)", (CLI,)),
    Mutant("seeded blocks merged with >=", "verify.py", "if value > worst or", "if value >= worst or",
           (f"{VERIFY}::test_blocked_seeded_checks_keep_the_lowest_seed_on_ties",)),
    Mutant("seeded block loop drops the last partial block", "verify.py", "range(0, len(stack), size)",
           "range(0, len(stack) // size * size, size)", BLOCKED),
    Mutant("intertwining pole mask without the varpi-neighbours", "verify.py",
           "touched = present | _at_heads(present, False).any(axis=0)", "touched = present",
           (f"{VERIFY}::test_blocked_intertwining_raises_the_first_touched_pole",)),
    Mutant("intertwining eigenvalues left nan at untouched poles", "verify.py", "mu[poles] = 0.0",
           "mu[poles] = mu[poles]", (f"{VERIFY}::test_intertwining_r_zero_is_exact",)),
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
    Mutant("recheck heads padded with 0.0, not nan", "geometry.py", "def _at_heads(grid: np.ndarray, fill=np.nan)",
           "def _at_heads(grid: np.ndarray, fill=0.0)", (SPECTRUM,)),
    Mutant("REL_TOL 1e-10 -> 1e-6", "spectrum.py", "REL_TOL = 1e-10", "REL_TOL = 1e-6", (SPECTRUM,)),
    Mutant("mult_by_cos downward coefficient off by one", "zonal.py",
           "(j + 2.0 * lam - 1) / twice", "(j + 2.0 * lam) / twice", LEMMA1),
    Mutant("varpi k-axis pass with p's index", "zonal.py", "_x_columns(gegenbauer_index(f.sig.q), f.kmax + 1, -1)",
           "_x_columns(gegenbauer_index(f.sig.p), f.kmax + 1, -1)", LEMMA1 + INTERTWINING),
    Mutant("N eigenvalue j(p + j)", "zonal.py", "(j * (sig.p - 1 + j))", "(j * (sig.p + j))", LEMMA1),
    Mutant("banded D downward coefficient off by one", "zonal.py", "(n * up, -(n + 2 * lam) * down)",
           "(n * up, -(n + 2 * lam - 1) * down)", LEMMA1),
    Mutant("flag reader skips the choices check", "cli.py",
           "flag.choices is not None and value not in flag.choices", "False", READER),
    Mutant("flag reader takes a separate value that starts with '-'", "cli.py",
           'if value is None or (value.startswith("-")', "if value is None or (False", READER),
    Mutant("KType accepts j = -1", "geometry.py", "if j < 0 or k < 0:\n            raise",
           "if j < -1 or k < 0:\n            raise",
           (f"{GEOMETRY}::test_ktype_validation",)),
    Mutant("ZonalFunction accepts a non-finite coefficient", "zonal.py", "if not np.all(np.isfinite(arr)):",
           "if False:", (f"{ZONAL}::test_zonal_function_rejects_non_finite_coefficients",)),
    Mutant("Gamma pair 3 with sigma flipped", "closedform.py", "(2 * eps - (sig.p - sig.q) + 2, -1),",
           "(2 * eps - (sig.p - sig.q) + 2, +1),",
           (f"{CLOSEDFORM}::test_certificate_gamma_pairs_are_pochhammer_ratios",)),
    Mutant("conformal-laplacian curvature without its factor n - 1", "verify.py",
           "== (n - 1) * ((sig.q - 1) ** 2", "== n * ((sig.q - 1) ** 2",
           (f"{VERIFY}::test_conformal_laplacian_curvature_in_integers_matches_fraction_form",)),
    Mutant("_argument leaves an exact pole as rounded", "closedform.py",
           "return np.where((four_x <= 0) & (four_x % 4 == 0), four_x / 4, x)", "return x",
           (f"{CLOSEDFORM}::TestSignedLogGamma::test_poles",)),
    Mutant("log-Gamma sign rule on odd positive floors", "closedform.py", "np.fmod(floor, 2) == -1",
           "np.fmod(floor, 2) == 1",
           (f"{CLOSEDFORM}::test_log_gamma_batch_is_the_scalar_rule",)),
    Mutant("head of a +1 step read one entry short at the far side", "geometry.py",
           "{1: (slice(None, -1), slice(1, None))", "{1: (slice(None, -2), slice(1, -1))",
           (f"{SPECTRUM}::test_edge_arrays_equal_per_direction_reference",)),
    Mutant("Gamma pair 2 centred 1/2 higher", "closedform.py", "(tk - tj + 2, +1),", "(tk - tj + 4, +1),",
           (f"{CLOSEDFORM}::test_certificate_swap_invariant",)),
    Mutant("2h with an offset", "spectrum.py", "return (dj * tj + 2) + dk * tk", "return (dj * tj + 3) + dk * tk",
           (f"{CLOSEDFORM}::test_certificate_gamma_ratio_steps_are_transition_ratios",)),
    Mutant("doubled_shifts 2J = 2j + p + 1", "geometry.py", "return 2 * v.j + sig.p - 1, 2 * v.k + sig.q - 1",
           "return 2 * v.j + sig.p + 1, 2 * v.k + sig.q - 1",
           (f"{ZONAL}::TestBandedConformalField::test_certificate_transition_law",)),
    Mutant("the recursion calls z_gamma_grid for its base values", "spectrum.py",
           "    singular, ratio = edge_arrays(sig, order, jmax, kmax)\n",
           "    singular, ratio = edge_arrays(sig, order, jmax, kmax)\n"
           "    from .closedform import z_gamma_grid\n    z_gamma_grid(sig, order, 1, 0)\n", MODULE_RULE),
    Mutant("the Gamma ratio calls spectrum.relative_difference", "closedform.py",
           "    index = lines[3].lines\n",
           "    index = lines[3].lines\n    from .spectrum import relative_difference\n"
           "    relative_difference(logs, logs)\n", MODULE_RULE),
    Mutant("_factorized_float calls _gamma_ratio", "closedform.py", "    fourc, _, parities, index = lines\n",
           "    fourc, _, parities, index = lines\n    _gamma_ratio(SpectralOrder(r), lines)\n", INDEPENDENCE),
    Mutant("apply_T_banded calls _times_x", "zonal.py",
           "    out = np.zeros(f.coeffs.shape[:-2] + (f.jmax + 2, f.kmax + 2))\n",
           "    out = np.zeros(f.coeffs.shape[:-2] + (f.jmax + 2, f.kmax + 2))\n"
           "    _times_x(_x_columns(gegenbauer_index(f.sig.q), f.kmax + 1, -1), f.coeffs, -1)\n", INDEPENDENCE),
    Mutant("LIMIT_STEP 1e-6 -> 1e-4", "closedform.py", "LIMIT_STEP = 1e-6", "LIMIT_STEP = 1e-4", (CLOSEDFORM, CLI),
           survives="removed by ROADMAP item 4"),
]


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant, on a fresh temporary copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "tools"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "intertwinor" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"error: the old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        check = mutant.tests if mutant.tests[0].startswith("tools/") else \
            ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests)
        try:
            done = subprocess.run([sys.executable, *check], cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    if done.returncode not in (0, 1):  # 1: tests or the script failed; anything else is an error of the run itself
        return f"error: the check exited {done.returncode}: {(done.stdout + done.stderr).strip().splitlines()[-1:]}"
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
