"""Tests of the benchmark's own parts: oracle, request generator, checker, metric names.

    python3 -m pytest perfbench
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import check
import oracle
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (2, 3), (3, 1), (4, 6), (6, 2)])
def test_oracle_reproduces_yamabe_spectrum_at_r1(p, q):
    constants = {parity: oracle.class_constant(p, q, 1, parity) for parity in (0, 1)}
    for j in range(9):
        for k in range(9):
            assert oracle.factorized(p, q, 1, j, k) == oracle.yamabe(p, q, j, k)
            J, K = oracle.shifted(p, q, j, k)
            assert oracle.yamabe(p, q, j, k) == K * K - J * J
            if oracle.has_gamma_pole(p, q, Fraction(1), j, k):
                continue
            with mpmath.workdps(oracle.DPS):
                want = constants[(j + k) % 2] * oracle._mpf(oracle.yamabe(p, q, j, k))
                assert abs(oracle.gamma_ratio(p, q, Fraction(1), j, k) - want) <= \
                    mpmath.mpf(10) ** -40 * max(1, abs(want))


def test_oracle_odd_class_constant_of_3_1_at_r1_is_a_quarter():
    assert oracle.limit_convention_class(3, 1, 1, 1)
    with mpmath.workdps(oracle.DPS):
        assert abs(oracle.class_constant(3, 1, 1, 1) - mpmath.mpf(1) / 4) < mpmath.mpf(10) ** -30


def test_oracle_reports_a_divergent_class_constant():
    # S^1 x S^1 at r = 1, even class: the r +/- delta constant has no limit.
    assert oracle.class_constant(1, 1, 1, 0) is None
    assert oracle.closed_form(1, 1, Fraction(1), 0, 2) is None


def test_oracle_limit_is_finite_part_of_a_simple_pole():
    f = lambda x: 2 / (x - 1) + 3  # noqa: E731
    with mpmath.workdps(oracle.DPS):
        assert abs(oracle.limit(lambda x: oracle._mpf(Fraction(f(x))), Fraction(1)) - 3) < 1e-30
    assert oracle.limit(lambda x: oracle._mpf(1 / (x - 1) ** 2), Fraction(1)) is None


def test_reachable_set_stops_at_singular_edges():
    # (p, q) = (1, 2), r = 3/2: edges with h = sj J + sk K + 1 = r are cut.
    r = Fraction(3, 2)
    for parity in (0, 1):
        seen = oracle.reachable(1, 2, r, 6, 6, parity)
        for j, k in seen:
            assert (j + k) % 2 == parity
        assert len(seen) < sum((j + k) % 2 == parity for j in range(7) for k in range(7))


def test_request_mix_is_byte_deterministic_per_seed():
    first = json.dumps(workloads.request_mix(7))
    assert json.dumps(workloads.request_mix(7)) == first
    assert json.dumps(workloads.request_mix(8)) != first
    code = "import json, workloads; print(json.dumps(workloads.request_mix(7)))"
    env = {**os.environ, "PYTHONHASHSEED": "123"}
    other = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, check=True,
                           capture_output=True, text=True).stdout.strip()
    assert other == first


def test_request_mix_composition():
    ops = workloads.request_mix(0)
    spectrum = [op for op in ops if op[0] == "spectrum"]
    assert 0.65 <= len(spectrum) / len(ops) <= 0.75
    # The 95th percentile of latency needs at least ten samples beyond it.
    assert len(ops) * 0.05 >= 10
    for op in ops:
        values, checks = oracle._flag_values(op)
        assert 1 <= int(values["p"]) <= 6 and 1 <= int(values["q"]) <= 6
        assert 2 <= int(values["jmax"]) <= 12 and 2 <= int(values["kmax"]) <= 12
        assert op[0] == "spectrum" or (len(checks) == 2 and checks[0] != checks[1])


def _table(exp):
    """The CSV table the CLI should print for ``exp``, built from oracle values."""
    lines = [oracle.CSV_HEADER]
    for j in range(exp.jmax + 1):
        for k in range(exp.kmax + 1):
            J, K = oracle.shifted(exp.p, exp.q, j, k)
            unreachable, pole = exp.row_labels(j, k)
            rec = "zero-denominator" if unreachable else \
                repr(float(oracle.recursion_value(exp.p, exp.q, exp.r, j, k)))
            closed = "pole" if pole else repr(float(oracle.closed_form(exp.p, exp.q, exp.r, j, k)))
            lines.append(f"{j},{k},{float(J)!r},{float(K)!r},{(j + k) % 2},{rec},{closed},,")
    return "\n".join(lines) + "\n"


def _spectrum(argv):
    exp = oracle.Expectation(argv, seed=0, index=0)
    return exp, _table(exp).splitlines()


def test_checker_accepts_oracle_table_and_flags_a_wrong_value():
    exp, lines = _spectrum(["spectrum", "--p", "2", "--q", "3", "--r", "0.37",
                            "--jmax", "3", "--kmax", "2"])
    good = check.check_op(exp, 0, "\n".join(lines) + "\n", "", None, None)
    assert (good.failed, good.wrong, good.rows) == (None, 0, 12)
    fields = lines[5].split(",")
    fields[6] = repr(float(fields[6]) * (1 + 1e-8))
    lines[5] = ",".join(fields)
    bad = check.check_op(exp, 0, "\n".join(lines) + "\n", "", None, None)
    assert bad.wrong == 1 and bad.unexplained
    short = check.check_op(exp, 0, "\n".join(lines[:-1]) + "\n", "", None, None)
    assert short.failed


def test_checker_flags_wrong_labels_at_half_integer_order():
    exp, lines = _spectrum(["spectrum", "--p", "1", "--q", "4", "--r", "0.5",
                            "--jmax", "6", "--kmax", "6"])
    assert check.check_op(exp, 0, "\n".join(lines) + "\n", "", None, None).wrong == 0
    poles = [i for i, line in enumerate(lines) if ",pole," in line]
    assert poles
    lines[poles[0]] = lines[poles[0]].replace(",pole,", ",1.0,")
    verdict = check.check_op(exp, 0, "\n".join(lines) + "\n", "", None, None)
    assert verdict.failed is None and verdict.wrong == 1 and verdict.unexplained


def test_checker_counts_failed_checks_and_explains_only_documented_ones():
    argv = ["verify", "--p", "2", "--q", "3", "--r", "0.37", "--jmax", "4", "--kmax", "4",
            "--check", "inversion", "--check", "lemma1"]
    exp = oracle.Expectation(argv, seed=0, index=0)
    passed = "inversion: max_residual=0 tol=1e-12 PASS\nlemma1: max_residual=0 tol=1e-08 PASS\n"
    assert check.check_op(exp, 0, passed, "", None, None) == check.Verdict()
    failed = passed.replace("max_residual=0 tol=1e-12 PASS", "max_residual=1 tol=1e-12 FAIL")
    verdict = check.check_op(exp, 1, failed, "", None, None)
    assert verdict.check_failed and verdict.unexplained
    assert check.check_op(exp, 0, passed.splitlines()[0] + "\n", "", None, None).failed
    assert check.check_op(exp, 3, "", "", None, None).failed


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
