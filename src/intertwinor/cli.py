"""Command-line front end: spectrum tables and verification suites.

Exit codes: 0 success / all checks pass; 1 a failed check, a check that
cannot be evaluated, or an unwritable output, stdout included (a closed
stdout, a full device, a reader that left the pipe), with one line
"error: cannot write PATH: REASON" ("-" for stdout) and no traceback; 2
invalid configuration, including a sphere dimension beyond MAX_DIMENSION,
an order beyond MAX_ABS_ORDER or too large for floating point, an integer
order beyond geometry.MAX_INTEGER_ORDER (SpectralOrder.as_integer's text),
and a window too large for memory (see window_peak_bytes; refused before
any allocation).  Output is byte-deterministic for a given flag set, and
_write_output writes every result byte: "-" is stdout for both commands.

Each flag is defined once, in COMMANDS.  A well-formed command (exact flag
names, every value one that argparse reads as given) is read from that table
alone (see _read); argparse, built from the same table and imported only
when needed, parses everything else and prints every help, usage and error
text.

``spectrum`` writes one fixed schema.  CSV cells print floats with "%.17g"
('.' decimal, 17 significant digits) and integers with str.  JSON is exactly
what json.dumps(indent=2, sort_keys=True) prints: sorted keys, two-space
indent, floats as float.__repr__, and NaN, Infinity and -Infinity for
non-finite floats.  A float column of a block is formatted at once: in CSV
one "%" over the block's values, in JSON one map of float.__repr__; then, by
index, JSON's tokens replace "nan", "inf" and "-inf" where the column holds
one, and labels replace the hidden cells, so a hidden value never prints.
A table is written in blocks of whole rows, at most TABLE_BLOCK_KTYPES
K-types or one row (see _spectrum_blocks): JSON rows are one join per block,
each cell after the text of its key; CSV rows are one "," join per row.
``verify`` status lines print floats with "%.17g".

Singular table entries are first-class values, rendered as "pole" (closed
form undefined) or "zero-denominator" (recursion blocked), never as NaN.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import re
import sys
import types
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from .closedform import (
    PoleAtKType,
    _closed_form,  # z_spectral_grid and, at integer r, the factorized polynomial from one evaluation
    z_gamma_ratio,  # unused here; perfbench/tracing.py rebinds this name
    z_spectral,  # unused here; perfbench/tracing.py rebinds this name
)
from .geometry import KType, Signature, SpectralOrder, check_window, doubled_shifts, window_index
from .spectrum import at_class_base, recursion_spectrum, relative_difference
from .verify import DEFAULT_CHECKS, run_suite

SCHEMA_VERSION = 1

#: Largest |r| accepted, for every order.  4c +/- 2r is a whole multiple of
#: g = min(1, the lowest set bit of 2r), so a Gamma argument (4c +/- 2r)/4 is
#: an exact float while |4c| + 2|r| < 2**53 * g.  A fractional bit of 2r
#: lowers that bound below this one: at r = 2**51 - 0.25, 2r = 2**52 - 0.5 and
#: g = 1/2, so 4c + 2r rounds once it passes 2**52.  Rounding can put an
#: argument on a pole that its exact value is not.  closedform._log_gamma
#: reads such an argument as a pole, so the closed form prints "pole", not nan,
#: in 36 of the 169 cells of (2, 3), 13 x 13, at that r, where the recursion
#: prints +-1.  At integer 2r, g = 1, and the first false pole of a scan was at
#: |r| = 2**52 - 1, p = 1, q = 4, jmax = kmax = 12.
#: 2r stays within the int64 pole arithmetic.
#: Within the bound the closed form loses relative accuracy as |r| grows,
#: since each Gamma pair is a difference of log-Gammas of size about
#: |r|/2 log|r|: against 60-digit mpmath, 1.2e-12 at |r| ~ 1e3, 2e-9 at 1e6,
#: 7.6e-6 at 1e9 and 3.9e-3 at 1e12 on (2, 3).  Those values are unlabelled.
MAX_ABS_ORDER = 2**51

#: Largest sphere dimension p or q accepted.  Within it, and with |r| <= MAX_ABS_ORDER, the largest 4c of a
#: Gamma argument plus 2|r|, p + q + 2(j + k) + 2 + 2|r|, stays below 2**53 for any window that fits memory,
#: so every 2h and every int64 sum of the doubled shifts is exact, and every Gamma argument at integer 2r.  At
#: another 2r a large p or q can round an argument onto a pole, as a large |r| can (see MAX_ABS_ORDER); the cell
#: prints "pole" (first at p = 2**25 + 2, q = 2, r = 2.0000000011 in a scan of p = 2**e + 2, 4, 6, e = 10..50).
#: Without a bound, p = q = 2**62 - 1 wraps 4c in int64 and the closed form prints nan.
MAX_DIMENSION = 2**50

#: Peak bytes per K-type of the window one degree beyond the request, (jmax + 2) x (kmax + 2), the largest over
#: the commands with their transients held one block at a time.  tracemalloc peaks of one warm call at (2, 3),
#: r in {0.37, 2, -1.3, 0.5}, were at most 253 on square windows from 89 x 89 to 301 x 301 (method agreement,
#: and a table while it is computed) and 305 on thin windows up to 100001 x 2 (intertwining, whose commutator
#: images reach one degree beyond).  The wider window charges the work along the sides, of which a thin window
#: has as much as K-types.
WINDOW_BYTES_PER_KTYPE = 320

#: Most K-types of one block of a spectrum table (see _spectrum_blocks), or one row where a row is longer.  A
#: block's cells and text then take a few hundred KB, which the process reuses block after block: writing the
#: two 81 x 81 tables of the benchmark in a fresh process took 7 and 3 minor page faults, against 846 and 1,301
#: as one block each.  Blocks of 256, 1,024 and 2,048 K-types wrote them more slowly.
TABLE_BLOCK_KTYPES = 512

#: Peak bytes per K-type of one table block beyond WINDOW_BYTES_PER_KTYPE, the largest excess of any command over
#: the window term in tracemalloc peaks of warm calls at (2, 3), r in {0.37, 2, -1.3, 0.5}, windows from 1 x 1 to
#: 90 x 90 and thin ones: at most 959, at 10 x 10 by verify --all, whose loop-consistency check holds 0.53 MB over
#: its window of at most 11 x 11 K-types, and 445 by the cells and text of a JSON block (22 x 22, r = 2).  The
#: seeded checks' blocks of up to verify.BLOCK_KTYPES K-types stay below the estimate: at 40 x 40, one block of
#: four functions (6,724 K-types), lemma1 and intertwining peaked at 0.53 of 1.08 MB.
BLOCK_BYTES_PER_KTYPE = 1000

CSV_COLUMNS = (
    "j", "k", "J", "K", "parity",
    "mu_recursion", "mu_closed_form", "mu_factorized_or_blank",
    "max_rel_disagreement",
)


class Flag(NamedTuple):
    """One option ``--name`` of a command: its type (int, float or str; bool for a bare switch, list for a
    repeatable one whose values append), default, help text and, if listed, its only accepted values."""

    name: str
    type: type
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False


_COMMON_FLAGS = (
    Flag("p", int, help="dimension of the first sphere", required=True),
    Flag("q", int, help="dimension of the second sphere", required=True),
    Flag("r", float, 0.37, "spectral order (operator order 2r)"),
    Flag("jmax", int, 8),
    Flag("kmax", int, 8),
)

#: Every command, its help text and its flags in the order --help lists them; the one definition of each flag,
#: read by _read and by the argparse parsers alike.
COMMANDS = {
    "spectrum": ("tabulate eigenvalues by all methods", _COMMON_FLAGS + (
        Flag("format", str, "csv", choices=("csv", "json")),
        Flag("output", str, "-", "output path, '-' for stdout"),
    )),
    "verify": ("run identity checks", _COMMON_FLAGS + (
        Flag("seed", int, 0),
        Flag("all", bool, False, "run every check"),
        Flag("check", list, None, "run a named check (repeatable)", DEFAULT_CHECKS),
        Flag("output", str, None, "write the JSON report bundle here, '-' for stdout after the status lines"),
    )),
}

_FLAGS = {command: {flag.name: flag for flag in flags} for command, (_, flags) in COMMANDS.items()}


#: The tokens that start with "-" and that argparse still reads as option values.
_ARGPARSE_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


@functools.cache  # built once per process: parsing leaves the parsers as they were
def _build_parser():
    """The top-level argparse parser and, by command name, its subparsers, from COMMANDS."""
    import argparse  # only for help, usage and errors: _read takes every well-formed command

    parser = argparse.ArgumentParser(
        prog="intertwinor",
        description="Eigenvalues of conformally invariant operators on S^p x S^q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (text, flags) in COMMANDS.items():
        commands[command] = sub.add_parser(command, help=text)
        for flag in flags:
            if flag.type is bool:
                commands[command].add_argument("--" + flag.name, action="store_true", help=flag.help)
            else:
                commands[command].add_argument(
                    "--" + flag.name, action="append" if flag.type is list else "store",
                    type=str if flag.type is list else flag.type, choices=flag.choices,
                    required=flag.required, default=flag.default, help=flag.help)
    return parser, commands


def _error(message: str):
    """Exit 2 with ``message`` under the top-level usage, as argparse prints it."""
    _build_parser()[0].error(message)


def _read(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace argparse gives for a well-formed command, read from COMMANDS alone; None for anything else.

    Well formed: a command, then exact flag names, each "--flag VALUE" or "--flag=VALUE" (a bare switch has no
    value), every required flag among them, and each VALUE one that argparse reads as a value and that converts
    to the flag's type and choices.  The last value of a flag wins; a repeatable flag appends.
    """
    if not argv or argv[0] not in _FLAGS:
        return None
    flags = _FLAGS[argv[0]]
    values = {name: flag.default for name, flag in flags.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        name, joined, value = token.partition("=")
        flag = flags.get(name[2:]) if name.startswith("--") else None
        if flag is None or (joined and flag.type is bool) or value == "--":
            return None
        if flag.type is bool:
            values[flag.name] = True
            continue
        if not joined:
            value = next(tokens, None)
            if value is None or (value.startswith("-") and value != "-"
                                 and not _ARGPARSE_NEGATIVE_NUMBER.fullmatch(value)):
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        if flag.type is list:
            values[flag.name] = [*(values[flag.name] or ()), value]
            continue
        try:
            values[flag.name] = flag.type(value)
        except ValueError:
            return None
    if any(flag.required and values[name] is None for name, flag in flags.items()):
        return None
    return types.SimpleNamespace(command=argv[0], **values)


def _parse(argv: list[str]):
    """The namespace of parse_args(argv) on the top-level parser: _read's, or else argparse's, and a flag left
    without its value ("--flag=--") ends in its subparser's error."""
    args = _read(argv)
    if args is not None:
        return args
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    # argparse drops "--" from an explicit value: "--flag=--" stores no value, an empty list
    for flag in COMMANDS[args.command][1]:
        value = getattr(args, flag.name)
        if value == [] or flag.type is list and value and [] in value:
            commands[args.command].error(f"argument --{flag.name}: expected one argument")
    return args


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


def _validate(args) -> tuple[Signature, SpectralOrder, tuple[str, ...]]:
    """The signature, the order and the checks verify runs (none for spectrum); invalid flags exit 2."""
    try:
        sig = Signature(args.p, args.q)
        if max(args.p, args.q) > MAX_DIMENSION:
            raise ValueError(f"sphere dimensions must satisfy p, q <= 2**50 = {MAX_DIMENSION}, "
                             f"got ({args.p}, {args.q})")
        check_window(args.jmax, args.kmax, 1)
        if args.command == "verify" and args.seed < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        order = SpectralOrder(args.r)
        if order.is_positive_integer:
            order.as_integer  # refuses an order beyond geometry.MAX_INTEGER_ORDER
        if abs(order.r) > MAX_ABS_ORDER:
            raise ValueError(f"order must satisfy |r| <= 2**51 = {MAX_ABS_ORDER}, got r = {args.r}")
    except ValueError as exc:
        _error(str(exc))
    checks = () if args.command == "spectrum" else tuple(DEFAULT_CHECKS if args.all or not args.check else args.check)
    # Refused before any allocation: a window whose first arrays fit can still outgrow memory later.
    estimate, memory = window_peak_bytes(args.jmax, args.kmax), _physical_memory()
    if memory is not None and estimate > memory:
        raise MemoryError(f"an estimated {estimate} bytes at peak, beyond the {memory} bytes of physical memory")
    return sig, order, checks


def window_peak_bytes(jmax: int, kmax: int) -> int:
    """Estimated peak memory of any command over the window [0, jmax] x [0, kmax]: the window one degree beyond
    it, and one table block of TABLE_BLOCK_KTYPES K-types, or of one row where a row is longer."""
    return (WINDOW_BYTES_PER_KTYPE * (jmax + 2) * (kmax + 2)
            + BLOCK_BYTES_PER_KTYPE * max(TABLE_BLOCK_KTYPES, kmax + 1))


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
    tj, tk = doubled_shifts(sig, window_index(jmax + 1, kmax + 1))
    return SpectrumWindow(
        half_j=(tj[:, 0] / 2.0).tolist(), half_k=(tk[0] / 2.0).tolist(),
        recursion=recursion, reached=table.reached, closed=closed, poles=poles,
        factorized=None if factorized is None else factorized + 0.0,
        disagreement=disagreement, compared=compared,
    )


#: The JSON tokens of the non-finite cells, as json.dumps prints them.
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


#: The rows and the document around them as json.dumps(indent=2, sort_keys=True) prints them: each cell of a
#: row follows the text of its key, in sorted key order, and each row but the last ends in the separator; the
#: tail closes the last row.
_JSON_KEYS = sorted(CSV_COLUMNS)
_JSON_KEY_TEXT = ['    {\n      "%s": ' % _JSON_KEYS[0], *(',\n      "%s": ' % key for key in _JSON_KEYS[1:])]
_JSON_ROW_SEPARATOR = "\n    },\n"
_JSON_HEAD = '{\n  "jmax": %d,\n  "kmax": %d,\n  "p": %d,\n  "q": %d,\n  "r": %s,\n  "rows": [\n'
_JSON_TAIL = '\n    }\n  ],\n  "schema_version": %d\n}\n' % SCHEMA_VERSION


def _spectrum_blocks(window: SpectrumWindow, fmt: str, sig: Signature, r: float) -> Iterator[str]:
    """The CSV or JSON table of ``window`` in consecutive pieces, row (j, k) in order of j, then k.

    The rows come in blocks of max(1, TABLE_BLOCK_KTYPES // (kmax + 1)) values of j, each column of a block
    formatted at once; a block's text is made only when the one before it has been taken.
    """
    quote = str if fmt == "csv" else json.dumps
    nj, nk = len(window.half_j), len(window.half_k)

    def column(values, hidden=None, label=""):
        values = np.asarray(values, dtype=float)
        flat = values.ravel().tolist()
        if fmt == "csv":  # one "%" over the column: the text of "%.17g" % value for each value
            cells = ("\n".join(["%.17g"] * len(flat)) % tuple(flat)).split("\n")
        else:
            cells = list(map(float.__repr__, flat))
            if not np.isfinite(values).all():
                for i in np.flatnonzero(~np.isfinite(values)).tolist():
                    cells[i] = _JSON_SPECIAL[cells[i]]
        if hidden is not None and hidden.any():
            label = quote(label)
            for i in np.flatnonzero(hidden).tolist():
                cells[i] = label
        return cells

    factorized = window.factorized
    parity = [[str((j + k) % 2) for k in range(nk)] for j in (0, 1)]  # row j of the column is row j % 2
    k_text, half_k, half_j = [str(k) for k in range(nk)], column(window.half_k), column(window.half_j)

    def rows_text(start, stop):
        """Rows j in [start, stop) as one text; their cells are freed on return, before the text is written."""
        rows, block = range(start, stop), slice(start, stop)
        n = len(rows) * nk
        cells = {
            "j": [text for text in map(str, rows) for _ in range(nk)],
            "k": k_text * len(rows),
            "J": [half for half in half_j[block] for _ in range(nk)],
            "K": half_k * len(rows),
            "parity": [text for j in rows for text in parity[j % 2]],
            "mu_recursion": column(window.recursion[block], ~window.reached[block], "zero-denominator"),
            "mu_closed_form": column(window.closed[block], window.poles[block], "pole"),
            "mu_factorized_or_blank": [quote("")] * n if factorized is None else column(factorized[block]),
            "max_rel_disagreement": column(window.disagreement[block], ~window.compared[block], ""),
        }
        if fmt == "csv":
            return "\n".join([*map(",".join, zip(*(cells[name] for name in CSV_COLUMNS))), ""])
        # One join: a row takes 2 slots per key and one for its separator.
        width = 2 * len(_JSON_KEYS) + 1
        parts = [_JSON_ROW_SEPARATOR] * (n * width - 1)
        for i, key in enumerate(_JSON_KEYS):
            parts[2 * i::width] = [_JSON_KEY_TEXT[i]] * n
            parts[2 * i + 1::width] = cells[key]
        return "".join(parts)

    yield (",".join(CSV_COLUMNS) + "\n" if fmt == "csv"
           else _JSON_HEAD % (nj - 1, nk - 1, sig.p, sig.q, json.dumps(r)))
    step = max(1, TABLE_BLOCK_KTYPES // nk)
    for start in range(0, nj, step):
        if start and fmt == "json":
            yield _JSON_ROW_SEPARATOR
        yield rows_text(start, min(start + step, nj))
    if fmt == "json":
        yield _JSON_TAIL


def _write_output(path: str, pieces: Iterable[str]) -> int:
    """Write ``pieces`` one after another to ``path``, "-" for stdout, and flush them: 0, or 1 with an error line
    when the destination cannot be written, a closed stdout included.  The one writer of every result byte.

    Where stdout fails on the process's own descriptor 1, that descriptor is pointed at os.devnull, so the
    interpreter's flush at exit finds nothing to fail on (the recipe of Python's note on SIGPIPE).
    """
    try:
        if path != "-":
            with open(path, "w", encoding="ascii") as handle:
                handle.writelines(pieces)
        elif sys.stdout is None:  # started with descriptor 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        if path == "-" and sys.stdout is not None:
            try:
                descriptor = sys.stdout.fileno()
            except (OSError, ValueError):  # a stdout with no descriptor, as a StringIO, or a closed one
                descriptor = None
            if descriptor == 1:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, 1)
                os.close(devnull)
        return 1
    return 0


def cmd_spectrum(args) -> int:
    sig, order, _ = _validate(args)
    window = _spectrum_window(sig, order, args.jmax, args.kmax)
    return _write_output(args.output, _spectrum_blocks(window, args.format, sig, order.r))


def cmd_verify(args) -> int:
    sig, order, checks = _validate(args)
    try:
        reports = run_suite(sig, order, jmax=args.jmax, kmax=args.kmax,
                            seed=args.seed, checks=checks)
    except PoleAtKType as exc:
        print(f"error: check cannot be evaluated: {exc}", file=sys.stderr)
        return 1
    # The status lines go to stdout, and the report bundle after them, to stdout too for "--output -".
    outputs = {"-": ["".join("%s: max_residual=%.17g tol=%.17g %s\n" % (
        rep.name, rep.max_residual, rep.tolerance, "PASS" if rep.passed else "FAIL") for rep in reports)]}
    if args.output is not None:
        bundle = {"schema_version": SCHEMA_VERSION, "reports": [rep.to_dict() for rep in reports]}
        outputs.setdefault(args.output, []).append(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    if any([_write_output(path, pieces) for path, pieces in outputs.items()]):  # a list: every output is tried
        return 1
    return 0 if all(rep.passed for rep in reports) else 1


def main(argv=None) -> int:
    args = _parse(_join_order_values(sys.argv[1:] if argv is None else argv))
    command = cmd_spectrum if args.command == "spectrum" else cmd_verify
    try:
        return command(args)
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
