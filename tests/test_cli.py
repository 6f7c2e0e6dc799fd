import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intertwinor import cli
from intertwinor.cli import main
from intertwinor.geometry import Signature
from intertwinor.spectrum import SpectralOrder


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spectrum_rows(capsys, *args):
    code, out, _ = run_cli(capsys, "spectrum", *args)
    assert code == 0
    return list(csv.DictReader(io.StringIO(out)))


def find_row(rows, j, k):
    for row in rows:
        if row["j"] == str(j) and row["k"] == str(k):
            return row
    raise AssertionError(f"missing row ({j}, {k})")


class TestSpectrumCommand:
    def test_integer_order_factorized_column(self, capsys):
        rows = spectrum_rows(
            capsys, "--p", "1", "--q", "3", "--r", "1", "--jmax", "4", "--kmax", "4"
        )
        row = find_row(rows, 0, 0)
        assert float(row["mu_factorized_or_blank"]) == 1.0
        # factorized values obey ((k+1)^2 - j^2) for this signature at order 1
        for j in range(4):
            for k in range(4):
                row = find_row(rows, j, k)
                assert float(row["mu_factorized_or_blank"]) == pytest.approx(
                    (k + 1) ** 2 - j**2
                )

    def test_circle_times_circle_example(self, capsys):
        rows = spectrum_rows(
            capsys, "--p", "1", "--q", "1", "--r", "0.5", "--jmax", "3", "--kmax", "3"
        )
        row = find_row(rows, 1, 1)
        assert float(row["mu_recursion"]) == pytest.approx(3.0, rel=1e-12)

    def test_order_zero_all_ones(self, capsys):
        # at order zero every well-defined ratio is one; some edges are 0/0
        # and get a marker instead of a number
        rows = spectrum_rows(
            capsys, "--p", "2", "--q", "2", "--r", "0", "--jmax", "5", "--kmax", "5"
        )
        numeric = 0
        for row in rows:
            try:
                value = float(row["mu_recursion"])
            except ValueError:
                continue
            numeric += 1
            assert value == pytest.approx(1.0, rel=1e-12)
        assert numeric > 10

    def test_fractional_order_has_no_factorized_column_values(self, capsys):
        rows = spectrum_rows(
            capsys, "--p", "2", "--q", "3", "--r", "0.37", "--jmax", "3", "--kmax", "3"
        )
        assert all(row["mu_factorized_or_blank"] == "" for row in rows)

    def test_methods_agree_in_output(self, capsys):
        rows = spectrum_rows(
            capsys, "--p", "2", "--q", "3", "--r", "0.37", "--jmax", "6", "--kmax", "6"
        )
        for row in rows:
            if row["max_rel_disagreement"]:
                assert float(row["max_rel_disagreement"]) < 1e-10

    def test_singular_entries_marked(self, capsys):
        rows = spectrum_rows(
            capsys, "--p", "1", "--q", "2", "--r", "1.5", "--jmax", "6", "--kmax", "6"
        )
        markers = {row["mu_closed_form"] for row in rows} | {
            row["mu_recursion"] for row in rows
        }
        assert "pole" in markers or "zero-denominator" in markers

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum",
            "--p", "2", "--q", "2", "--r", "0.5",
            "--jmax", "3", "--kmax", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["p"] == 2 and doc["q"] == 2
        assert len(doc["rows"]) == 16

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            capsys,
            "spectrum",
            "--p", "1", "--q", "1", "--r", "0.5",
            "--jmax", "2", "--kmax", "2",
            "--output", str(target),
        )
        assert code == 0
        assert target.exists()
        rows = list(csv.DictReader(target.open()))
        assert find_row(rows, 1, 1)["mu_recursion"]

    def test_denominator_only_poles_print_zero(self, capsys):
        # Every Gamma pole of these K-types sits in the denominator: mu = 0,
        # reached by the recursion through a negative ratio, so -0.0 in floats.
        rows = spectrum_rows(capsys, "--p", "1", "--q", "4", "--r", "0.5", "--jmax", "4", "--kmax", "2")
        for j, k in [(2, 0), (3, 1), (4, 0), (4, 2)]:
            row = find_row(rows, j, k)
            assert (row["mu_recursion"], row["mu_closed_form"]) == ("0", "pole")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_negative_zero(self, capsys, fmt):
        # Integer orders put exact zeros in the recursion and the closed form
        # (polynomial 0 times a negative class constant).
        for p, q, r in [(1, 4, "0.5"), (3, 1, "1"), (2, 3, "2"), (4, 2, "3"), (1, 2, "1.5")]:
            code, out, _ = run_cli(capsys, "spectrum", "--p", str(p), "--q", str(q), "--r", r,
                                   "--jmax", "9", "--kmax", "9", "--format", fmt)
            assert code == 0
            if fmt == "csv":
                cells = [cell for line in out.splitlines()[1:] for cell in line.split(",")]
            else:
                cells = [value for row in json.loads(out)["rows"] for value in row.values()]
            assert all(not (isinstance(c, float) and c == 0 and str(c).startswith("-")) for c in cells)
            assert "-0" not in cells

    def test_byte_determinism(self, capsys):
        args = ("--p", "3", "--q", "2", "--r", "2.25", "--jmax", "8", "--kmax", "8")
        _, out1, _ = run_cli(capsys, "spectrum", *args)
        _, out2, _ = run_cli(capsys, "spectrum", *args)
        assert out1 == out2


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "2", "--q", "3", "--r", "0.37", "--all"
        )
        assert code == 0
        lines = [line for line in out.splitlines() if ":" in line]
        assert len(lines) >= 6
        assert all("PASS" in line for line in lines)

    def test_single_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--p", "1", "--q", "2", "--r", "0.5",
            "--check", "inversion",
        )
        assert code == 0
        assert "inversion" in out

    def test_verify_json_output(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--p", "2", "--q", "2", "--r", "0.37",
            "--check", "intertwining",
            "--output", str(target),
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["schema_version"] == 1
        assert all(rep["pass"] for rep in doc["reports"])


class TestExitCodes:
    def test_bad_signature_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--p", "0", "--q", "2", "--r", "0.5"])
        assert err.value.code == 2
        assert "p" in capsys.readouterr().err

    def test_bad_jmax_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--p", "1", "--q", "2", "--r", "0.5", "--jmax", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize("flag", [["--r", "nan"], ["--r", "inf"], ["--r", "-inf"],
                                      ["--r=nan"], ["--r=inf"], ["--r=-inf"]])
    def test_non_finite_order_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, "--p", "2", "--q", "3", *flag])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr and "error:" in stderr

    @pytest.mark.parametrize("argv", [
        # an integer order above MAX_INTEGER_ORDER: its exact products would not end
        ["spectrum", "--p", "2", "--q", "3", "--r", "1e300", "--jmax", "3", "--kmax", "3"],
        # the integer-order polynomial overflows a float
        ["spectrum", "--p", "2", "--q", "3", "--r", "100", "--jmax", "2", "--kmax", "2"],
        # the Gamma ratio overflows a float
        ["spectrum", "--p", "2", "--q", "3", "--r", "300.3", "--jmax", "600", "--kmax", "2"],
        # the recursion overflows a float (the closed form labels every K-type a pole)
        ["spectrum", "--p", "2", "--q", "3", "--r", "250.5", "--jmax", "600", "--kmax", "2"],
        # the intertwining terms overflow a float where the eigenvalues do not
        ["verify", "--p", "2", "--q", "3", "--r", "300.3", "--jmax", "400", "--kmax", "2",
         "--check", "intertwining"],
    ])
    def test_large_order_exits_2_at_once(self, argv):
        script = (
            "import sys, time\n"
            "from intertwinor.cli import main\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, time.perf_counter() - start)\n"
        )
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                              env=_package_env(), timeout=120)
        code, seconds = done.stdout.split()
        assert int(code) == 2 and float(seconds) < 1.0
        lines = done.stderr.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:]
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize("r", ["-1e16", "-1e20", "-1e300"])
    def test_order_beyond_bound_exits_2(self, capsys, command, r):
        # beyond the bound the closed form can print nan (-1e16), and 2r leaves the int64 pole arithmetic
        with pytest.raises(SystemExit) as err:
            main([command, "--p", "2", "--q", "3", f"--r={r}", "--jmax", "3", "--kmax", "3"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert f"error: order must satisfy |r| <= 2**51 = {cli.MAX_ABS_ORDER}, got r = {float(r)}" in stderr

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize("p, q", [(1, 4), (2, 3)])
    def test_order_at_bound_prints_no_nan(self, capsys, command, p, q):
        r = -float(cli.MAX_ABS_ORDER)
        checks = ["--check", "inversion"] if command == "verify" else []
        code, out, _ = run_cli(capsys, command, "--p", str(p), "--q", str(q), f"--r={r!r}",
                               "--jmax", "12", "--kmax", "12", *checks)
        assert code == 0 and "nan" not in out

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--seed=-5"]])
    def test_negative_seed_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--p", "2", "--q", "3", "--jmax", "3", "--kmax", "3", *flag])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr and "error: seed must be >= 0" in stderr

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unwritable_output_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "spectrum",
            "--p", "1", "--q", "1", "--r", "0.5",
            "--output", "/nonexistent-dir/out.csv",
        )
        assert code == 1
        assert err


def _package_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for a child interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _call(argv):
    """(exit code, stdout, stderr) of one in-process main(argv); argparse errors exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_matches_fresh_parser():
    # main() builds its parser once per process; a sequence of calls on the
    # reused parser must print and exit exactly as calls on a fresh one.
    argvs = [
        ["spectrum", "--p", "2", "--q", "3", "--r", "0.37", "--jmax", "3", "--kmax", "2"],
        ["verify", "--p", "1", "--q", "2", "--r", "0.5", "--jmax", "4", "--kmax", "4",
         "--check", "inversion", "--check", "loop-consistency"],
        ["verify", "--p", "1", "--q", "2", "--r", "0.5", "--jmax", "4", "--kmax", "4",
         "--check", "inversion"],
        ["spectrum", "--p", "1", "--q", "1", "--r", "1", "--jmax", "2", "--kmax", "2", "--format", "json"],
        ["spectrum", "--p", "2", "--q", "3", "--bogus", "1"],
        ["verify", "--p", "2", "--q", "3", "--check", "no-such-check"],
        ["spectrum", "--p", "2", "--q", "3", "--r", "nan"],
        ["verify", "--p", "2", "--q", "3", "--r", "0.37", "--jmax", "3", "--kmax", "3", "--all"],
        [],
        ["spectrum", "--p", "2", "--q", "3", "--r", "0.37", "--jmax", "3", "--kmax", "2"],
    ]
    reused = [_call(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(_call(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 2, 2, 0, 2, 0]
    assert reused[0] == reused[-1]
    assert reused[2][1] == reused[1][1].splitlines(keepends=True)[0]  # --check does not accumulate


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("value", ["-1e-08", "-2.5e3", "-1E2", "-1.", "-1_0", "-inf", "-nan", "-1e300",
                                   "-0.5", "-.5", "-3"])
def test_negative_order_token_acts_as_joined_form(command, value):
    # argparse takes "-1e-08" for an option unless it is joined to --r; main() reads both forms alike
    argv = [command, "--p", "2", "--q", "3", "--jmax", "2", "--kmax", "2"]
    if command == "verify":
        argv += ["--check", "inversion"]
    separate = _call([*argv, "--r", value])
    assert separate == _call([*argv, f"--r={value}"])
    assert separate == _call([command, "--r", value, *argv[1:]])
    if value == "-1e-08":
        assert separate[0] == 0 and separate[1]
    if value == "-inf":
        assert separate[0] == 2
        assert separate[2].endswith("error: spectral order must be finite, got r = -inf\n")


def test_order_flag_joins_only_its_own_value():
    # a missing value, or a number after another flag, parses as it always did
    for argv in (["spectrum", "--p", "2", "--q", "3", "--r"],
                 ["spectrum", "--p", "2", "--q", "3", "--r", "--jmax", "-1e-08"]):
        code, _, err = _call(argv)
        assert code == 2 and "expected one argument" in err


def test_import_footprint():
    # The package runs on numpy and the standard library: importing the CLI
    # and running a generic-order and an integer-order spectrum loads no
    # SciPy, and no numpy.ma beyond what importing numpy itself loads.
    code = (
        "import sys, io, contextlib\n"
        "import numpy\n"
        "base = set(sys.modules)\n"
        "import intertwinor.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = max(intertwinor.cli.main(['spectrum', '--p', '2', '--q', '3', '--r', r])\n"
        "             for r in ('0.37', '2'))\n"
        "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
        "                 or (m == 'numpy.ma' and m not in base)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_package_env(), timeout=120, check=True)
    assert done.stdout.strip() == "0 []"


NEVER_RAISES_ORDERS = st.one_of(
    st.floats(-300.3, 300.3),
    st.tuples(st.integers(-12, 12), st.sampled_from([-2e-9, -5e-10, 0.0, 5e-10, 2e-9]))
    .map(lambda pair: pair[0] + pair[1]),  # inside and outside TWO_R_TOL
    st.integers(-12, 11).map(lambda n: n + 0.5),
    st.sampled_from([-300.3, 300.3, 250.5, -0.0]),
)

SUBCOMMANDS = st.one_of(
    st.tuples(st.just("spectrum"), st.sampled_from([[], ["--format", "json"]])),
    st.tuples(st.just("verify"), st.sampled_from([["--all"], ["--check", "inversion", "--seed", "3"],
                                                  ["--check", "intertwining"],
                                                  ["--check", "method-agreement"]])),
)


@settings(max_examples=60, deadline=None)
@given(subcommand=SUBCOMMANDS, p=st.integers(1, 12), q=st.integers(1, 12), r=NEVER_RAISES_ORDERS,
       window=st.integers(1, 12).flatmap(lambda kmax: st.tuples(st.integers(1, 600 if kmax <= 3 else 12),
                                                                st.just(kmax))))
@example(subcommand=("verify", ["--check", "intertwining"]), p=2, q=3, r=300.3, window=(400, 2))
@example(subcommand=("spectrum", []), p=2, q=3, r=250.5, window=(600, 2))
def test_cli_never_raises(subcommand, p, q, r, window):
    # jmax reaches 600 only in windows at most 4 K-types wide in k
    command, flags = subcommand
    argv = [command, "--p", str(p), "--q", str(q), f"--r={r!r}", "--jmax", str(window[0]),
            "--kmax", str(window[1]), *flags]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = _call(argv)
    assert code in (0, 1, 2) and "Traceback" not in err


def reference_payload(window: cli.SpectrumWindow, sig: Signature, r: float) -> dict:
    """The JSON document as one dict per row, as the spectrum command built it before its fixed-schema writer."""
    recursion, reached, closed, poles, disagreement, compared = (
        a.tolist() for a in (window.recursion, window.reached, window.closed, window.poles,
                             window.disagreement, window.compared))
    factorized = None if window.factorized is None else window.factorized.tolist()
    rows = []
    for j, half_j in enumerate(window.half_j):
        for k, half_k in enumerate(window.half_k):
            rows.append({
                "j": j, "k": k,
                "J": half_j, "K": half_k,
                "parity": (j + k) % 2,
                "mu_recursion": recursion[j][k] if reached[j][k] else "zero-denominator",
                "mu_closed_form": "pole" if poles[j][k] else closed[j][k],
                "mu_factorized_or_blank": "" if factorized is None else factorized[j][k],
                "max_rel_disagreement": disagreement[j][k] if compared[j][k] else "",
            })
    return {
        "schema_version": cli.SCHEMA_VERSION,
        "p": sig.p, "q": sig.q, "r": r,
        "jmax": len(window.half_j) - 1, "kmax": len(window.half_k) - 1,
        "rows": rows,
    }


def reference_text(window: cli.SpectrumWindow, fmt: str, sig: Signature, r: float) -> str:
    """The table by the generic encoders: json.dumps of the dict rows, or their per-cell _fmt CSV join."""
    payload = reference_payload(window, sig, r)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [",".join(cli.CSV_COLUMNS)]
    for row in payload["rows"]:
        lines.append(",".join(cli._fmt(row[c]) for c in cli.CSV_COLUMNS))
    return "\n".join(lines) + "\n"


ORDERS = st.one_of(
    st.floats(-9.0, 9.0),  # generic
    st.integers(-9, 9).map(float),  # integer
    st.integers(-9, 8).map(lambda n: n + 0.5),  # half-integer
    st.sampled_from([-0.0, 1e-320, 0.5000000001, -2.9999999999]),
)


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 6), jmax=st.integers(1, 12), kmax=st.integers(1, 12),
       r=ORDERS, fmt=st.sampled_from(["csv", "json"]))
def test_writer_matches_dict_row_reference(p, q, jmax, kmax, r, fmt):
    argv = ["spectrum", "--p", str(p), "--q", str(q), f"--r={r!r}", "--jmax", str(jmax),
            "--kmax", str(kmax), "--format", fmt]
    code, out, err = _call(argv)
    assert (code, err) == (0, "")
    sig, order = Signature(p, q), SpectralOrder(r)
    assert out == reference_text(cli._spectrum_window(sig, order, jmax, kmax), fmt, sig, order.r)


def test_writer_formats_special_values_as_reference():
    # Values the window arrays can hold in principle, and every label, in both formats.
    special = np.array([np.nan, np.inf, -np.inf, 5e-324, -1e-310, 2.2250738585072014e-308, 0.0, -0.0,
                        1.0, -1.5, 0.1, 1e16, 1.7976931348623157e308, 123456789.12345679])
    shape = (5, 7)
    cells = np.arange(np.prod(shape)).reshape(shape)

    def values(shift):
        return special[(cells + shift) % len(special)]

    window = cli.SpectrumWindow(
        half_j=[0.0, 0.5, 1.0, 1.5, 2.5], half_k=[0.5, 1.0, 3.5, 4.0, 4.5, 5.0, 1e-320],
        recursion=values(0), reached=cells % 3 != 0,
        closed=values(5), poles=cells % 4 == 1,
        factorized=None,
        disagreement=values(9), compared=cells % 5 != 2,
    )
    sig = Signature(2, 3)
    for factorized in (None, values(3)):
        for r in (0.37, -0.0, 2.0, 5e-324):
            w = window._replace(factorized=factorized)
            for fmt in ("csv", "json"):
                text = cli._spectrum_text(w, fmt, sig, r)
                assert text == reference_text(w, fmt, sig, r)
                assert all(label in text for label in ("pole", "zero-denominator"))
            assert all(token in text for token in ("NaN", "-Infinity", "Infinity", '""', "5e-324"))


def test_large_json_table_loads_to_reference_payload(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--p", "2", "--q", "3", "--r", "2",
                           "--jmax", "80", "--kmax", "80", "--format", "json")
    assert code == 0
    sig, order = Signature(2, 3), SpectralOrder(2.0)
    expected = reference_payload(cli._spectrum_window(sig, order, 80, 80), sig, order.r)
    assert len(expected["rows"]) == 81 * 81
    assert json.loads(out) == expected
