"""Accuracy sweep: seeded ``spectrum`` calls per regime, judged by the benchmark's own oracle, and the seeded checks
of ``verify`` on long windows against their gates.

Each ``spectrum`` call runs ``intertwinor.cli.main`` in-process and is judged by ``perfbench/check.check_spectrum``
against ``perfbench/oracle.Expectation`` (60-digit mpmath and Fractions, nothing from the package), both imported
unedited.  r is passed as the exact decimal of its float, so the oracle and the CLI read one r.  A call is rejected
when the oracle rejects a printed value that carries no label, or the table itself.  Per regime the script prints
the calls rejected, the cells rejected per column, and the worst log10 relative error of each value column over
the oracle's sampled rows (``max_rel_disagreement``: its largest printed value).  Then it runs lemma1 and
intertwining on thin windows and prints each residual against its gate.  Report only: it exits 0 whatever it
finds, and 2 when it raises.

    python tools/accuracy.py
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
import time
from collections import Counter
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Seed of the drawn calls, and calls per drawn regime: the counts of the baseline in CHANGES.md.
SEED, CALLS = 0, 40

#: Windows of the thin regime: jmax (kmax = 1), out to j = 2 x 10^5, where the Gamma pairs' logs are largest.
THIN_JMAX = (200, 2_000, 20_000, 200_000)

#: (check, jmax) of the long-window verify calls at (2, 3), r = 0.37, kmax = 1.
LONG_CHECKS = (("lemma1", 500), ("lemma1", 2_000), ("lemma1", 13_000),
               ("intertwining", 60), ("intertwining", 500), ("intertwining", 2_000))


def _exact(r: float) -> str:
    """The exact decimal of the float r: float() reads it back as r, and Fraction() as r's exact value."""
    return str(Decimal(r))


def _regimes(rng: random.Random) -> dict[str, list[tuple[int, int, float, int, int]]]:
    """(p, q, r, jmax, kmax) of each call, by regime."""
    def small():
        return rng.randint(1, 6), rng.randint(1, 6)

    def power_of_two():
        large, other = 2 ** rng.randint(10, 40) + rng.randint(0, 3), rng.randint(1, 6)
        return (large, other) if rng.random() < 0.5 else (other, large)

    def near_half_integer():
        return rng.randint(-8, 8) / 2 + rng.choice((-1, 1)) * 10 ** rng.uniform(math.log10(3e-9), -4)

    def large_order():
        return rng.choice((-1, 1)) * 10 ** rng.uniform(3, 7)

    return {
        "small generic: p, q <= 6, |r| <= 4": [(*small(), rng.uniform(-4, 4), 2, 2) for _ in range(CALLS)],
        "p or q = 2^e (+0..3), e = 10..40": [(*power_of_two(), rng.uniform(-4, 4), 2, 2) for _ in range(CALLS)],
        "r = n/2 + delta, 3e-9 <= |delta| <= 1e-4": [(*small(), near_half_integer(), 2, 2) for _ in range(CALLS)],
        "1e3 <= |r| <= 1e7": [(*small(), large_order(), 2, 2) for _ in range(CALLS)],
        "thin windows: kmax = 1, jmax to 2e5": [(*small(), rng.uniform(-4, 4), jmax, 1) for jmax in THIN_JMAX],
    }


def _call(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _log10_error(printed, expected) -> float | None:
    """log10 of |printed - expected| / |expected| for a printed float, clamped at -17; None for a label."""
    if not isinstance(printed, float) or expected is None or isinstance(expected, str) or expected == 0:
        return None
    error = abs(printed - float(expected)) / abs(float(expected))
    return math.log10(max(error, 1e-17))


def sweep_spectrum(main, oracle, check) -> None:
    index = 0
    for regime, requests in _regimes(random.Random(SEED)).items():
        began, rejected, cells, worst = time.perf_counter(), 0, Counter(), {}
        for p, q, r, jmax, kmax in requests:
            argv = ["spectrum", "--p", str(p), "--q", str(q), "--r", _exact(r), "--jmax", str(jmax),
                    "--kmax", str(kmax)]
            expectation = oracle.Expectation(argv, SEED, index)
            index += 1
            code, text = _call(main, argv)
            verdict = check.check_spectrum(expectation, text)
            if code or verdict.failed or verdict.unexplained:
                rejected += 1
            cells.update(what.split(" at ")[0] for what in verdict.unexplained)
            if verdict.failed:
                cells["table"] += 1
                continue
            rows = check._rows(expectation, text)
            for row_index, (want_recursion, want_closed) in expectation.sample.items():
                recursion, closed, _, disagreement = rows[row_index][5:]
                for column, error in (("mu_recursion", _log10_error(recursion, want_recursion)),
                                      ("mu_closed_form", _log10_error(closed, want_closed))):
                    if error is not None:
                        worst[column] = max(worst.get(column, -17.0), error)
            printed = [row[8] for row in rows if isinstance(row[8], float)]
            if printed:
                largest = math.log10(max(max(printed), 1e-17))
                worst["max_rel_disagreement"] = max(worst.get("max_rel_disagreement", -17.0), largest)
        print(f"{regime}: {rejected} of {len(requests)} calls rejected, {time.perf_counter() - began:.1f} s")
        print("  cells rejected: " + (", ".join(f"{name} {count}" for name, count in sorted(cells.items()))
                                       or "none"))
        print("  worst log10 relative error: " + ", ".join(f"{name} {value:.1f}"
                                                          for name, value in sorted(worst.items())))


def sweep_verify(main) -> None:
    print("long windows, (2, 3), r = 0.37, kmax = 1:")
    for name, jmax in LONG_CHECKS:
        code, text = _call(main, ["verify", "--p", "2", "--q", "3", "--jmax", str(jmax), "--kmax", "1",
                                  "--check", name])
        status = text.split()
        residual, gate = (float(field.split("=")[1]) for field in status[1:3])
        print(f"  {name} jmax = {jmax}: max_residual {residual:.3g}, gate {gate:.0e}, "
              f"{residual / gate:.3g} of the gate, {status[3]}")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import check  # perfbench's, unedited
    import oracle

    from intertwinor import cli

    print(f"oracle RTOL {oracle.RTOL:g}, max_rel_disagreement bound {oracle.MAX_DISAGREEMENT:g}, seed {SEED}")
    sweep_spectrum(cli.main, oracle, check)
    sweep_verify(cli.main)
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except Exception:  # a crash is never read as a report
        import traceback

        traceback.print_exc()
        raise SystemExit(2)
