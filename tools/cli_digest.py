"""Digest of the intertwinor CLI over a fixed list of calls, for byte-identity checks.

Runs ``intertwinor.cli.main`` in-process on every argv of ``calls()`` and
prints one line per call, ``<sha256> <argv>``, then ``total <sha256>`` over
all of them.  Each digest covers the argv, the exit code, stdout, stderr and
the bytes of the ``--output`` file, with the temporary directory written as
``<tmp>``.  A RuntimeWarning counts as an exception.  A call that raises
(anything but SystemExit) is digested with the exception's type and message
and named on stderr, and the script then exits 1.

    python tools/cli_digest.py                 # this checkout's src/
    python tools/cli_digest.py --src OTHER/src # another tree, e.g. a git worktree of the parent

Compare the per-call lines of two trees with diff.  The total is not pinned:
the last digits of a float can differ with the platform's libm.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

SIGNATURES = [(p, q) for p in range(1, 7) for q in range(1, 7)]

#: Generic, integer, half-integer, negative and large orders, and the zero-like
#: edge cases -0.0 and 1e-320; orders within TWO_R_TOL of an integer too.
SPECTRUM_ORDERS = ["0.37", "-1.3", "2.25", "0", "-0.0", "1e-320", "1", "2", "-3", "0.5", "1.5", "-2.5",
                   "1.0000000001", "-2.9999999999", "60", "-1000.37"]
VERIFY_ORDERS = ["0.37", "-1.3", "2", "0.5", "-0.0", "1e-320", "-2.5", "7.25"]
VERIFY_CHECKS = [["--all"], ["--check", "inversion", "--check", "loop-consistency"],
                 ["--check", "method-agreement"], ["--check", "intertwining", "--seed", "3"]]

#: Tables at the scale of the spectrum-large benchmark: (p, q, r, jmax, kmax, format), each written with --output.
LARGE_SPECTRA = [(2, 3, "0.37", 80, 80, "csv"), (2, 3, "2", 80, 80, "json"), (1, 4, "0.5", 60, 20, "csv"),
                 (6, 6, "3", 40, 40, "json"), (1, 1, "2.000000002", 80, 3, "csv")]

#: Invalid flags, unwritable outputs and orders too large for floats.
ERROR_CALLS = [
    [], ["spectrum"], ["spectrum", "--p", "2"], ["spectrum", "--p", "2", "--q", "3", "--bogus", "1"],
    ["spectrum", "--p", "0", "--q", "2"], ["spectrum", "--p", "2", "--q", "-1"],
    ["spectrum", "--p", "2", "--q", "3", "--jmax", "0"], ["verify", "--p", "2", "--q", "3", "--kmax", "-2"],
    ["spectrum", "--p", "2", "--q", "3", "--r", "abc"], ["spectrum", "--p", "2", "--q", "3", "--format", "xml"],
    ["verify", "--p", "2", "--q", "3", "--check", "no-such-check"], ["verify", "--p", "2", "--q", "3", "--seed", "-1"],
    ["spectrum", "--p", "1", "--q", "1", "--r", "0.5", "--output", "/nonexistent-dir/out.csv"],
    ["verify", "--p", "1", "--q", "1", "--check", "inversion", "--output", "/nonexistent-dir/out.json"],
    ["spectrum", "--p", "2", "--q", "3", "--r", "1e300", "--jmax", "3", "--kmax", "3"],
    ["spectrum", "--p", "2", "--q", "3", "--r", "100", "--jmax", "2", "--kmax", "2"],
    ["spectrum", "--p", "2", "--q", "3", "--r", "101", "--jmax", "2", "--kmax", "2"],
    ["spectrum", "--p", "2", "--q", "3", "--r", "300.3", "--jmax", "600", "--kmax", "2"],
    ["spectrum", "--p", "2", "--q", "3", "--r", "250.5", "--jmax", "600", "--kmax", "2"],
    ["verify", "--p", "2", "--q", "3", "--r", "300.3", "--jmax", "380", "--kmax", "2", "--check", "intertwining"],
    ["verify", "--p", "2", "--q", "3", "--r", "300.3", "--jmax", "400", "--kmax", "2", "--check", "intertwining"],
    ["verify", "--p", "2", "--q", "3", "--r", "300.3", "--jmax", "420", "--kmax", "2", "--check", "intertwining"],
] + [[command, "--p", "2", "--q", "3", "--jmax", "3", "--kmax", "3", f"--r={r}"]
     for command in ("spectrum", "verify") for r in ("nan", "inf", "-inf", "-1e16", "1e300", "2251799813685249")]

#: --r and a value that starts with "-" as two tokens, which the CLI joins before argparse reads them;
#: kept after the others so that the earlier calls keep their line numbers.
SEPARATE_ORDER_CALLS = [
    ["spectrum", "--p", "2", "--q", "3", "--jmax", "3", "--kmax", "3", "--r", "-1e-08"],
    ["verify", "--p", "2", "--q", "3", "--jmax", "3", "--kmax", "3", "--r", "-1e-08", "--all"],
    ["spectrum", "--p", "2", "--q", "3", "--jmax", "3", "--kmax", "3", "--r", "-inf"],
]

#: Sphere dimensions beyond cli.MAX_DIMENSION, whose int64 doubled shifts would wrap; after the others.
DIMENSION_CALLS = [
    ["spectrum", "--p", "4611686018427387903", "--q", "4611686018427387903", "--r", "0.37", "--jmax", "2",
     "--kmax", "2"],
    ["verify", "--p", str(2**50 + 1), "--q", "3", "--jmax", "2", "--kmax", "2", "--check", "method-agreement"],
]


#: lemma1 where the quadrature grid's samples grew with the basis (50, 50), and lemma1 and intertwining on long
#: thin windows, where varpi was once a dense matrix per side; after the others.
LEMMA1_CALLS = [
    ["verify", "--p", "50", "--q", "50", "--jmax", "3", "--kmax", "3", "--check", "lemma1"],
    ["verify", "--p", "2", "--q", "3", "--jmax", "600", "--kmax", "1", "--check", "lemma1"],
    ["verify", "--p", "2", "--q", "3", "--jmax", "2000", "--kmax", "1", "--check", "lemma1", "--check", "intertwining"],
]


def calls(tmp: str) -> list[list[str]]:
    """The fixed argv list; ``tmp`` is the directory the --output files go to."""
    argvs = []
    for i, (p, q) in enumerate(SIGNATURES):
        sig = ["--p", str(p), "--q", str(q)]
        for m, r in enumerate(SPECTRUM_ORDERS):
            window = ["--jmax", str(1 + (i + m) % 9), "--kmax", str(1 + (i + 2 * m) % 12)]
            for fmt in ("csv", "json"):
                argvs.append(["spectrum", *sig, "--r", r, *window, "--format", fmt])
        for fmt in ("csv", "json"):
            argvs.append(["spectrum", *sig, f"--r={SPECTRUM_ORDERS[i % 16]}", "--jmax", "12", "--kmax", "7",
                          "--format", fmt, "--output", f"{tmp}/spectrum.{fmt}"])
        for m, r in enumerate(VERIFY_ORDERS):
            window = ["--jmax", str(2 + (i + m) % 7), "--kmax", str(2 + (i + 3 * m) % 7)]
            for checks in VERIFY_CHECKS:
                argvs.append(["verify", *sig, "--r", r, *window, *checks])
        argvs.append(["verify", *sig, "--r", VERIFY_ORDERS[i % 8], "--all", "--output", f"{tmp}/verify.json"])
    for p, q, r, jmax, kmax, fmt in LARGE_SPECTRA:
        argvs.append(["spectrum", "--p", str(p), "--q", str(q), "--r", r, "--jmax", str(jmax), "--kmax", str(kmax),
                      "--format", fmt, "--output", f"{tmp}/large.{fmt}"])
    return argvs + ERROR_CALLS + SEPARATE_ORDER_CALLS + DIMENSION_CALLS + LEMMA1_CALLS


def run(main, argv: list[str], tmp: str) -> tuple[str, str | None]:
    """(sha256 of one call with ``tmp`` masked, the exception it raised or None)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # digested and reported on stderr, never hidden
            code, raised = None, f"{type(exc).__name__}: {exc}"
    output = None
    for path in Path(tmp).iterdir():
        output = path.read_bytes().decode("ascii", "replace")
        path.unlink()
    record = [argv, code, out.getvalue(), err.getvalue(), output, raised]
    text = json.dumps(record).replace(tmp, "<tmp>")
    return hashlib.sha256(text.encode()).hexdigest(), raised


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the intertwinor package (default: this checkout's src/)")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from intertwinor import cli

    total = hashlib.sha256()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in calls(tmp):
            digest, raised = run(cli.main, argv, tmp)
            total.update(digest.encode())
            shown = shlex.join(argv).replace(tmp, "<tmp>")
            print(digest, shown)
            if raised:
                failures += 1
                print(f"raised: {shown}: {raised}", file=sys.stderr)
    print("total", total.hexdigest())
    if failures:
        print(f"{failures} calls raised", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
