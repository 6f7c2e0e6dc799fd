"""Command-line front end: spectrum tables and verification suites.

Exit codes: 0 success / all checks pass, 1 failed check or unwritable
output, 2 invalid configuration, including a sphere dimension beyond
MAX_DIMENSION, an order beyond MAX_ABS_ORDER or too large for floating
point, and a window too large for memory (see window_peak_bytes; refused
before any allocation).  Output is byte-deterministic for a given flag set.

``spectrum`` writes one fixed schema.  CSV cells print floats with "%.17g"
('.' decimal, 17 significant digits) and integers with str.  JSON is exactly
what json.dumps(indent=2, sort_keys=True) prints: sorted keys, two-space
indent, floats as float.__repr__, and NaN, Infinity and -Infinity for
non-finite floats.  A float column is one map of that formatter; then, by
index, JSON's tokens replace "nan", "inf" and "-inf" where the column holds
one, and labels replace the hidden cells, so a hidden value never prints.
JSON rows are one join per table, each cell after the text of its key; CSV
rows are one "," join per row.
``verify`` status lines print floats with "%.17g".

Singular table entries are first-class values, rendered as "pole" (closed
form undefined) or "zero-denominator" (recursion blocked), never as NaN.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from .closedform import (
    PoleAtKType,
    _closed_form,  # z_spectral_grid and, at integer r, the factorized polynomial from one evaluation
    z_gamma_ratio,  # unused here; perfbench/tracing.py rebinds this name
    z_spectral,  # unused here; perfbench/tracing.py rebinds this name
)
from .geometry import KType, Signature, doubled_shifts
from .spectrum import SpectralOrder, at_class_base, recursion_spectrum, relative_difference
from .verify import DEFAULT_CHECKS, run_suite

SCHEMA_VERSION = 1

#: Largest positive-integer order r accepted.  The integer-order route
#: multiplies 2r exact linear factors per K-type, and no order above 98 gives
#: a spectrum that fits a float (measured for p, q <= 6); every float above
#: 2**53 is an integer, so without a bound those products need not end.
MAX_INTEGER_ORDER = 100

#: Largest |r| accepted, for every order.  A Gamma argument (4c +/- 2r)/4 is
#: an exact float while |4c| + 2|r| < 2**53; beyond that the sum rounds, an
#: argument can land on a false pole, and the closed form prints nan (the
#: smallest such |r| in a scan was 2**52 - 1, at p = 1, q = 4, jmax = kmax =
#: 12).  No order within this bound printed nan in a scan of p, q <= 6 and
#: windows up to 40 x 40, and 2r stays within the int64 pole arithmetic.
#: Within the bound the closed form loses relative accuracy as |r| grows,
#: since each Gamma pair is a difference of log-Gammas of size about
#: |r|/2 log|r|: against 60-digit mpmath, 1.2e-12 at |r| ~ 1e3, 2e-9 at 1e6,
#: 7.6e-6 at 1e9 and 3.9e-3 at 1e12 on (2, 3).  Those values are unlabelled.
MAX_ABS_ORDER = 2**51

#: Largest sphere dimension p or q accepted.  Within it, and with |r| <= MAX_ABS_ORDER, the largest 4c of a
#: Gamma argument plus 2|r|, p + q + 2(j + k) + 2 + 2|r|, stays below 2**53 for any window that fits memory,
#: so every Gamma argument, every 2h and every int64 sum of the doubled shifts is exact.  Without a bound,
#: p = q = 2**62 - 1 wraps 4c in int64 and the closed form prints nan.
MAX_DIMENSION = 2**50

#: Peak bytes per K-type of the window, the largest over the commands: tracemalloc peaks of one warm call at
#: (2, 3), jmax = kmax = 40, over r in {0.37, 2, -1.3, 0.5}, were 1,133 for a JSON table (r = 2), 583 for a
#: CSV table and at most 342 for any verify check (intertwining; loop-consistency has a fixed window).
WINDOW_BYTES_PER_KTYPE = 1133

CSV_COLUMNS = (
    "j", "k", "J", "K", "parity",
    "mu_recursion", "mu_closed_form", "mu_factorized_or_blank",
    "max_rel_disagreement",
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@functools.cache  # built once per process: parsing leaves the parsers as they were
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, by command name, its subparsers."""
    parser = argparse.ArgumentParser(
        prog="intertwinor",
        description="Eigenvalues of conformally invariant operators on S^p x S^q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, required=True, help="dimension of the first sphere")
        sp.add_argument("--q", type=int, required=True, help="dimension of the second sphere")
        sp.add_argument("--r", type=float, default=0.37, help="spectral order (operator order 2r)")
        sp.add_argument("--jmax", type=int, default=8)
        sp.add_argument("--kmax", type=int, default=8)

    spectrum = sub.add_parser("spectrum", help="tabulate eigenvalues by all methods")
    common(spectrum)
    spectrum.add_argument("--format", choices=("csv", "json"), default="csv")
    spectrum.add_argument("--output", default="-", help="output path, '-' for stdout")

    verify = sub.add_parser("verify", help="run identity checks")
    common(verify)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--all", action="store_true", help="run every check")
    verify.add_argument("--check", action="append", choices=DEFAULT_CHECKS,
                        help="run a named check (repeatable)")
    verify.add_argument("--output", default=None, help="write the JSON report bundle here")
    return parser, {"spectrum": spectrum, "verify": verify}


def _parse(argv: list[str]) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    """(parser, parser.parse_args(argv)) with the same output, but a known command parsed by its subparser
    alone; leftover tokens end in the top-level "unrecognized arguments" error, as in parse_args."""
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser, parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return parser, args


#: The tokens that start with "-" and that argparse still reads as option values.
_ARGPARSE_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _join_order_values(argv: list[str]) -> list[str]:
    """``argv`` with "--r VALUE" written "--r=VALUE" wherever argparse would read VALUE as an option.

    argparse takes a token that starts with "-" for an option unless it reads
    like "-5" or "-.5", so "--r -1e-08" or "--r -inf" would leave --r without
    its value.  Joined, any VALUE that float() accepts acts as in "--r=VALUE".
    """
    joined = []
    for token in argv:
        if (joined and joined[-1] == "--r" and token.startswith("-")
                and not _ARGPARSE_NEGATIVE_NUMBER.fullmatch(token) and _is_float(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _validate(parser, args) -> tuple[Signature, SpectralOrder, tuple[str, ...]]:
    """The signature, the order and the checks verify runs (none for spectrum); invalid flags exit 2."""
    if args.p < 1 or args.q < 1:
        parser.error(f"sphere dimensions must satisfy p >= 1 and q >= 1, got ({args.p}, {args.q})")
    if max(args.p, args.q) > MAX_DIMENSION:
        parser.error(f"sphere dimensions must satisfy p, q <= 2**50 = {MAX_DIMENSION}, got ({args.p}, {args.q})")
    if args.jmax < 1 or args.kmax < 1:
        parser.error(f"truncation must satisfy jmax >= 1 and kmax >= 1, got ({args.jmax}, {args.kmax})")
    if args.command == "verify" and args.seed < 0:
        parser.error(f"seed must be >= 0, got {args.seed}")
    try:
        order = SpectralOrder(args.r)
    except ValueError as exc:
        parser.error(str(exc))
    if order.is_positive_integer and order.as_integer > MAX_INTEGER_ORDER:
        parser.error(f"integer order must satisfy r <= {MAX_INTEGER_ORDER}, got r = {args.r}")
    if abs(order.r) > MAX_ABS_ORDER:
        parser.error(f"order must satisfy |r| <= 2**51 = {MAX_ABS_ORDER}, got r = {args.r}")
    checks = () if args.command == "spectrum" else tuple(DEFAULT_CHECKS if args.all or not args.check else args.check)
    # Refused before any allocation: a window whose first arrays fit can still outgrow memory later.
    estimate, memory = window_peak_bytes(args.jmax, args.kmax), _physical_memory()
    if memory is not None and estimate > memory:
        raise MemoryError(f"an estimated {estimate} bytes at peak, beyond the {memory} bytes of physical memory")
    return Signature(args.p, args.q), order, checks


def window_peak_bytes(jmax: int, kmax: int) -> int:
    """Estimated peak memory of any command over the window [0, jmax] x [0, kmax]."""
    return WINDOW_BYTES_PER_KTYPE * (jmax + 1) * (kmax + 1)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name on this platform
        return None
    return page * pages if page > 0 and pages > 0 else None  # sysconf answers -1 for "indeterminate"


class SpectrumWindow(NamedTuple):
    """The arrays one spectrum table prints, each over [0, jmax] x [0, kmax].

    ``half_j`` and ``half_k`` hold J by j and K by k.  A value prints where
    its mask holds: ``reached`` for the recursion (else "zero-denominator"),
    not ``poles`` for the closed form (else "pole"), ``compared`` for the
    disagreement (else blank).  ``factorized`` is None, a blank column, unless
    r is a positive integer.
    """

    half_j: list[float]
    half_k: list[float]
    recursion: np.ndarray
    reached: np.ndarray
    closed: np.ndarray
    poles: np.ndarray
    factorized: np.ndarray | None
    disagreement: np.ndarray
    compared: np.ndarray


def _spectrum_window(sig: Signature, order: SpectralOrder, jmax: int, kmax: int) -> SpectrumWindow:
    # The closed form runs first: where the order is too large for floats it
    # raises OverflowError before the recursion overflows with warnings.
    closed, poles, factorized = _closed_form(sig, order, KType(0, 0), jmax + 1, kmax + 1)
    table = recursion_spectrum(sig, order, jmax, kmax)
    # Adding 0.0 turns -0.0 into 0.0 (IEEE 754), so no cell prints a negative zero.
    recursion, closed = table.values + 0.0, closed + 0.0
    # The closed form is compared after division by its value at the class
    # base; a class whose base is a pole or a zero has no comparison.
    zbase = at_class_base(closed)
    compared = table.reached & ~poles & ~at_class_base(poles) & (zbase != 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disagreement = relative_difference(closed / zbase, recursion)
    return SpectrumWindow(
        half_j=[doubled_shifts(sig, KType(j, 0))[0] / 2.0 for j in range(jmax + 1)],
        half_k=[doubled_shifts(sig, KType(0, k))[1] / 2.0 for k in range(kmax + 1)],
        recursion=recursion, reached=table.reached, closed=closed, poles=poles,
        factorized=None if factorized is None else factorized + 0.0,
        disagreement=disagreement, compared=compared,
    )


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """x as json.dumps prints a float: float.__repr__, with the NaN and Infinity tokens."""
    text = float.__repr__(x)
    return _JSON_SPECIAL.get(text, text)


#: The rows and the whole document as json.dumps(indent=2, sort_keys=True) prints them: each cell of a row
#: follows the text of its key, in sorted key order, and each row but the last ends in the separator; the
#: document closes the last row.
_JSON_KEYS = sorted(CSV_COLUMNS)
_JSON_KEY_TEXT = ['    {\n      "%s": ' % _JSON_KEYS[0], *(',\n      "%s": ' % key for key in _JSON_KEYS[1:])]
_JSON_ROW_SEPARATOR = "\n    },\n"
_JSON_DOCUMENT = (
    '{\n  "jmax": %d,\n  "kmax": %d,\n  "p": %d,\n  "q": %d,\n  "r": %s,\n'
    '  "rows": [\n%s\n    }\n  ],\n  "schema_version": %d\n}\n'
)


def _spectrum_text(window: SpectrumWindow, fmt: str, sig: Signature, r: float) -> str:
    """The CSV or JSON table of ``window``, row (j, k) in order of j, then k, each column formatted at once."""
    number = "%.17g".__mod__ if fmt == "csv" else float.__repr__
    quote = str if fmt == "csv" else json.dumps
    nj, nk = len(window.half_j), len(window.half_k)

    def column(values, hidden=None, label=""):
        values = np.asarray(values, dtype=float)
        cells = list(map(number, values.ravel().tolist()))
        if fmt == "json" and not np.isfinite(values).all():
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                cells[i] = _JSON_SPECIAL[cells[i]]
        if hidden is not None and hidden.any():
            label = quote(label)
            for i in np.flatnonzero(hidden).tolist():
                cells[i] = label
        return cells

    factorized = window.factorized
    parity = [[str((j + k) % 2) for k in range(nk)] for j in (0, 1)]  # row j of the column is row j % 2
    cells = {
        "j": [text for text in map(str, range(nj)) for _ in range(nk)],
        "k": [str(k) for k in range(nk)] * nj,
        "J": [half for half in column(window.half_j) for _ in range(nk)],
        "K": column(window.half_k) * nj,
        "parity": [text for j in range(nj) for text in parity[j % 2]],
        "mu_recursion": column(window.recursion, ~window.reached, "zero-denominator"),
        "mu_closed_form": column(window.closed, window.poles, "pole"),
        "mu_factorized_or_blank": [quote("")] * (nj * nk) if factorized is None else column(factorized),
        "max_rel_disagreement": column(window.disagreement, ~window.compared, ""),
    }
    if fmt == "csv":
        rows = map(",".join, zip(*(cells[name] for name in CSV_COLUMNS)))
        return "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n"
    # One join for the whole table: a row takes 2 slots per key and one for its separator.
    n, width = nj * nk, 2 * len(_JSON_KEYS) + 1
    parts = [_JSON_ROW_SEPARATOR] * (n * width - 1)
    for i, key in enumerate(_JSON_KEYS):
        parts[2 * i::width] = [_JSON_KEY_TEXT[i]] * n
        parts[2 * i + 1::width] = cells[key]
    return _JSON_DOCUMENT % (nj - 1, nk - 1, sig.p, sig.q, _json_float(r), "".join(parts), SCHEMA_VERSION)


def _write_output(path: str, text: str) -> int:
    """Write ``text`` to the file ``path``: 0, or 1 with an error line when it cannot be written."""
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_spectrum(args, parser) -> int:
    sig, order, _ = _validate(parser, args)
    window = _spectrum_window(sig, order, args.jmax, args.kmax)
    text = _spectrum_text(window, args.format, sig, order.r)
    if args.output != "-":
        return _write_output(args.output, text)
    sys.stdout.write(text)
    return 0


def cmd_verify(args, parser) -> int:
    sig, order, checks = _validate(parser, args)
    try:
        reports = run_suite(sig, order, jmax=args.jmax, kmax=args.kmax,
                            seed=args.seed, checks=checks)
    except PoleAtKType as exc:
        print(f"error: check cannot be evaluated: {exc}", file=sys.stderr)
        return 1
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name}: max_residual={_fmt(rep.max_residual)} "
              f"tol={_fmt(rep.tolerance)} {status}")
    if args.output:
        bundle = {"schema_version": SCHEMA_VERSION, "reports": [rep.to_dict() for rep in reports]}
        if _write_output(args.output, json.dumps(bundle, indent=2, sort_keys=True) + "\n"):
            return 1
    return 0 if all(rep.passed for rep in reports) else 1


def main(argv=None) -> int:
    parser, args = _parse(_join_order_values(sys.argv[1:] if argv is None else argv))
    command = cmd_spectrum if args.command == "spectrum" else cmd_verify
    try:
        return command(args, parser)
    except (OverflowError, FloatingPointError) as exc:  # nothing is written before the values are complete
        print(f"error: r = {args.r} overflows floating point: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the window jmax = {args.jmax}, kmax = {args.kmax} is too large for memory: {exc}",
              file=sys.stderr)
        return 2


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
