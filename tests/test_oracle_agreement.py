"""The small generic regime of tools/accuracy.py as a property: spectrum tables at p, q <= 6 and |r| <= 4, away from
every half-integer order, agree with the benchmark's independent oracle at its RTOL.

perfbench/oracle.py (60-digit mpmath and Fractions, nothing from the package) and perfbench/check.py are imported
unedited, as tools/accuracy.py imports them; perfbench/ is on sys.path only while they import.
"""

from __future__ import annotations

import contextlib
import io
import sys
from decimal import Decimal
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from intertwinor.cli import main

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def _perfbench_judges():
    """perfbench's check and oracle modules: check imports oracle, and oracle imports workloads."""
    sys.path.insert(0, PERFBENCH)
    try:
        import check
        import oracle
    finally:
        sys.path.remove(PERFBENCH)
    return check, oracle


check, oracle = _perfbench_judges()


@settings(max_examples=120, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 6),
       r=st.floats(-4, 4).filter(lambda r: abs(2 * r - round(2 * r)) >= 2e-3),
       jmax=st.integers(1, 4), kmax=st.integers(1, 4), fmt=st.sampled_from(["csv", "json"]),
       sample=st.integers(0, 2**16))
def test_small_generic_tables_agree_with_the_oracle(p, q, r, jmax, kmax, fmt, sample):
    # r is at least 1e-3 from every half-integer, so no edge is singular and no Gamma argument is a pole; r is
    # passed as its float's exact decimal, so the oracle and the CLI read one r; ``sample`` picks the oracle's rows
    argv = ["spectrum", "--p", str(p), "--q", str(q), "--r", str(Decimal(r)), "--jmax", str(jmax),
            "--kmax", str(kmax), "--format", fmt]
    expectation = oracle.Expectation(argv, 0, sample)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    verdict = check.check_spectrum(expectation, out.getvalue())
    assert oracle.RTOL == 1e-10
    assert (code, verdict.failed, verdict.unexplained) == (0, None, []), argv
