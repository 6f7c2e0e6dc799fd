"""Command-line front end: spectrum tables and verification suites.

Exit codes: 0 success / all checks pass, 1 failed check or unwritable
output, 2 invalid configuration, including an order too large for floating
point.  Output is byte-deterministic for a given flag set; floats are
printed with 17 significant digits and '.' decimal.

Singular table entries are first-class values, rendered as "pole" (closed
form undefined) or "zero-denominator" (recursion blocked), never as NaN.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .closedform import (
    PoleAtKType,
    factorized_grid,
    z_gamma_ratio,  # unused here; perfbench/tracing.py rebinds this name
    z_spectral,  # unused here; perfbench/tracing.py rebinds this name
    z_spectral_grid,
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

CSV_COLUMNS = (
    "j", "k", "J", "K", "parity",
    "mu_recursion", "mu_closed_form", "mu_factorized_or_blank",
    "max_rel_disagreement",
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@functools.cache  # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
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
    return parser


def _validate(parser, args) -> tuple[Signature, SpectralOrder]:
    if args.p < 1 or args.q < 1:
        parser.error(f"sphere dimensions must satisfy p >= 1 and q >= 1, got ({args.p}, {args.q})")
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
    return Signature(args.p, args.q), order


def _spectrum_rows(sig: Signature, order: SpectralOrder, jmax: int, kmax: int):
    # The closed form runs first: where the order is too large for floats it
    # raises OverflowError before the recursion overflows with warnings.
    closed, poles = z_spectral_grid(sig, order, jmax, kmax)
    table = recursion_spectrum(sig, order, jmax, kmax)
    # Adding 0.0 turns -0.0 into 0.0 (IEEE 754), so no cell prints a negative zero.
    recursion, closed = table.values + 0.0, closed + 0.0
    # The closed form is compared after division by its value at the class
    # base; a class whose base is a pole or a zero has no comparison.
    zbase = at_class_base(closed)
    compared = table.reached & ~poles & ~at_class_base(poles) & (zbase != 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disagreement = relative_difference(closed / zbase, recursion)
    recursion, reached, closed, poles, disagreement, compared = (
        a.tolist() for a in (recursion, table.reached, closed, poles, disagreement, compared))
    factorized = None
    if order.is_positive_integer:
        factorized = (factorized_grid(sig, order.as_integer, jmax, kmax) + 0.0).tolist()
    half_j = [doubled_shifts(sig, KType(j, 0))[0] / 2.0 for j in range(jmax + 1)]
    half_k = [doubled_shifts(sig, KType(0, k))[1] / 2.0 for k in range(kmax + 1)]
    rows = []
    for j in range(jmax + 1):
        for k in range(kmax + 1):
            rows.append({
                "j": j, "k": k,
                "J": half_j[j], "K": half_k[k],
                "parity": (j + k) % 2,
                "mu_recursion": recursion[j][k] if reached[j][k] else "zero-denominator",
                "mu_closed_form": "pole" if poles[j][k] else closed[j][k],
                "mu_factorized_or_blank": "" if factorized is None else factorized[j][k],
                "max_rel_disagreement": disagreement[j][k] if compared[j][k] else "",
            })
    return rows


def cmd_spectrum(args, parser) -> int:
    sig, order = _validate(parser, args)
    rows = _spectrum_rows(sig, order, args.jmax, args.kmax)
    if args.format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "p": sig.p, "q": sig.q, "r": order.r,
            "jmax": args.jmax, "kmax": args.kmax,
            "rows": rows,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="ascii") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
    return 0


def cmd_verify(args, parser) -> int:
    sig, order = _validate(parser, args)
    checks = tuple(args.check) if args.check else ()
    if args.all or not checks:
        checks = DEFAULT_CHECKS
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
        bundle = {
            "schema_version": SCHEMA_VERSION,
            "reports": [rep.to_dict() for rep in reports],
        }
        try:
            with open(args.output, "w", encoding="ascii") as handle:
                json.dump(bundle, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
    return 0 if all(rep.passed for rep in reports) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = cmd_spectrum if args.command == "spectrum" else cmd_verify
    try:
        return command(args, parser)
    except OverflowError as exc:  # nothing is written before the values are complete
        print(f"error: r = {args.r} overflows floating point: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
