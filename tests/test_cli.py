import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intertwinor import cli, verify
from intertwinor.cli import main
from intertwinor.geometry import Signature, SpectralOrder


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
        # each status line prints its check's gate: the table under CLI in the README
        gates = {line.split(":")[0]: float(line.split(" tol=")[1].split()[0]) for line in lines}
        assert gates == {"lemma1": 1e-8, "intertwining": 1e-9, "method-agreement": 1e-10,
                         "conformal-laplacian": 0.0, "inversion": 1e-12, "loop-consistency": 1e-12}

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
        # the first integer order above MAX_INTEGER_ORDER = 100
        ["spectrum", "--p", "2", "--q", "3", "--r", "101", "--jmax", "2", "--kmax", "2"],
    ])
    def test_large_order_exits_2_at_once(self, argv):
        bound = "integer order must satisfy r <= 100"
        expected = {"1e300": bound, "101": bound, "100": "overflows floating point",
                    "300.3": "overflows floating point", "250.5": "overflows floating point"}
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
        assert expected[argv[argv.index("--r") + 1]] in lines[-1]
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr

    @pytest.mark.parametrize("command", [["spectrum"], ["verify", "--check", "lemma1"],
                                         ["verify", "--check", "inversion"]])
    def test_window_beyond_memory_exits_2(self, command):
        # numpy refuses the TiB-scale arrays of a 10^6 x 10^6 window before it touches memory
        code, out, err = _call([*command, "--p", "2", "--q", "3", "--jmax", "1000000", "--kmax", "1000000"])
        assert (code, out) == (2, "")
        assert err.startswith("error: the window jmax = 1000000, kmax = 1000000 is too large for memory: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("side", ["1000000", "10000000"])
    @pytest.mark.parametrize("r", ["0.37", "2"])
    def test_window_beyond_memory_exits_2_at_once(self, side, r):
        # the closed form asks for its window-sized gather index before it evaluates the O(n) lines,
        # so the refusal comes before any per-line Python work
        start = time.perf_counter()
        code, out, err = _call(["spectrum", "--p", "2", "--q", "3", "--r", r, "--jmax", side, "--kmax", side])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the window jmax = {side}, kmax = {side} is too large for memory: ")

    def test_window_peak_estimate(self):
        # per K-type of the window one degree beyond, plus one block; never run the 3,000,000 x 30 call itself,
        # which the out-of-memory killer ends with no error line on a machine of 8 GiB where nothing refuses it
        block = cli.BLOCK_BYTES_PER_KTYPE * cli.TABLE_BLOCK_KTYPES
        assert cli.window_peak_bytes(3, 2) == 5 * 4 * cli.WINDOW_BYTES_PER_KTYPE + block
        assert cli.window_peak_bytes(3_000_000, 30) == 3_000_002 * 32 * cli.WINDOW_BYTES_PER_KTYPE + block > 16 * 2**30
        # a row longer than a block is a block of its own
        assert cli.window_peak_bytes(1, 20_000) == (3 * 20_002 * cli.WINDOW_BYTES_PER_KTYPE
                                                    + 20_001 * cli.BLOCK_BYTES_PER_KTYPE)
        # the largest windows that the CLI digest, the benchmark and these tests expect to run fit in 256 MiB
        assert max(cli.window_peak_bytes(300, 300), cli.window_peak_bytes(13_000, 1)) < 256 * 2**20
        memory = cli._physical_memory()
        assert memory is None or memory > 2**20

    @pytest.mark.parametrize("command", [["spectrum"], ["verify", "--check", "method-agreement"]])
    def test_window_beyond_physical_memory_exits_2(self, monkeypatch, command):
        window = ["--p", "2", "--q", "3", "--jmax", "3", "--kmax", "2"]
        estimate = cli.window_peak_bytes(3, 2)
        monkeypatch.setattr(cli, "_physical_memory", lambda: estimate - 1)
        code, out, err = _call([*command, *window])
        assert (code, out) == (2, "")
        assert err == (f"error: the window jmax = 3, kmax = 2 is too large for memory: an estimated "
                       f"{estimate} bytes at peak, beyond the {estimate - 1} bytes of physical memory\n")
        for memory in (estimate, None):  # a window that fits, and no answer from sysconf
            monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
            assert _call([*command, *window])[0] == 0

    def test_long_thin_verify_fits_the_per_ktype_estimate(self, monkeypatch):
        # varpi is a recurrence along each axis, so lemma1 and intertwining peak linearly in the window like every
        # other check: a 13001 x 2 window is estimated at 16 MB, where dense varpi matrices once needed 4.2 GB
        assert cli.window_peak_bytes(13_000, 1) < 20 * 2**20
        window = ["--p", "2", "--q", "3", "--jmax", "13000", "--kmax", "1"]
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2**30)
        for check in (["--check", "lemma1"], ["--all"]):
            start = time.perf_counter()
            code, out, err = _call(["verify", *check, *window])
            assert code != 2 and err == "" and out.startswith("lemma1: "), check
            assert check == ["--all"] or time.perf_counter() - start < 1.0
        assert _call(["verify", "--check", "method-agreement", *window])[:2] == (
            0, "method-agreement: max_residual=4.9281053340861773e-11 tol=1e-10 PASS\n")
        assert _call(["spectrum", "--r", "0.37", *window])[0] == 0

    def test_varpi_checks_peak_below_the_per_ktype_estimate(self):
        # lemma1 and intertwining over 13001 x 2 K-types, seeded stack included, one function a block: the
        # estimate is about 16 MB, where dense varpi matrices would need 4.2 GB.  On a window this thin the
        # commutator images one degree beyond hold half as many K-types again, and they set the peak near 12 MB
        tracemalloc.start()
        try:
            verify.run_suite(Signature(2, 3), 0.37, jmax=13_000, kmax=1, checks=("lemma1", "intertwining"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cli.window_peak_bytes(13_000, 1)

    def test_physical_memory_unknown(self, monkeypatch):
        monkeypatch.setattr(os, "sysconf", lambda name: -1)
        assert cli._physical_memory() is None
        monkeypatch.delattr(os, "sysconf")
        assert cli._physical_memory() is None

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

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize("p, q", [(2**50 + 1, 3), (3, 2**50 + 1), (2**62 - 1, 2**62 - 1)])
    def test_dimension_beyond_bound_exits_2(self, capsys, command, p, q):
        # beyond the bound a Gamma argument can leave the exact float range, and near 2**62 4c wraps in int64
        with pytest.raises(SystemExit) as err:
            main([command, "--p", str(p), "--q", str(q), "--r", "0.37", "--jmax", "2", "--kmax", "2"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert f"error: sphere dimensions must satisfy p, q <= 2**50 = {2**50}, got ({p}, {q})" in stderr

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_dimension_at_bound_prints_no_nan(self, capsys, command):
        # in the last two cases rounding puts Gamma arguments on poles that their exact values are not
        checks = ["--check", "inversion", "--check", "loop-consistency"] if command == "verify" else []
        n = cli.MAX_DIMENSION
        for p, q, r in [(n, n, 0.37), (n, 2, 0.01), (33554434, 2, 2.0000000011)]:
            code, out, _ = run_cli(capsys, command, "--p", str(p), "--q", str(q), "--r", str(r), "--jmax", "2",
                                   "--kmax", "2", *checks)
            assert code == 0 and "nan" not in out, (p, q, r)

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

    @pytest.mark.parametrize("command", [["spectrum"], ["verify", "--check", "inversion"]])
    def test_empty_output_path_exits_1(self, capsys, command):
        # an empty --output names no file: both commands say so and exit 1, and verify still prints its verdicts
        code, out, err = run_cli(capsys, *command, "--p", "1", "--q", "1", "--r", "0.5", "--output", "")
        assert code == 1
        assert err.startswith("error: cannot write : ") and "Traceback" not in err
        assert out == "" if command == ["spectrum"] else out.startswith("inversion: ") and out.endswith(" PASS\n")


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_module_entry_point_streams_a_multi_block_table(fmt):
    # python -m intertwinor.cli writes a table of 201 x 61 K-types at a half-integer order, more than one block
    # of TABLE_BLOCK_KTYPES, to a pipe block by block: the same bytes as the in-process call, and a table that parses
    argv = ["spectrum", "--p", "1", "--q", "4", "--r", "0.5", "--jmax", "200", "--kmax", "60", "--format", fmt]
    assert 201 * 61 == 12261 > cli.TABLE_BLOCK_KTYPES
    done = subprocess.run([sys.executable, "-m", "intertwinor.cli", *argv], capture_output=True,
                          env=_package_env(), timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    code, out, err = _call(argv)
    assert (code, err) == (0, "") and done.stdout == out.encode()
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 12262 and rows[0] == list(cli.CSV_COLUMNS) and all(len(row) == 9 for row in rows)
    else:
        assert len(json.loads(out)["rows"]) == 12261


def test_intertwining_reads_only_the_requested_window():
    # (2, 0), one degree beyond this window, is a Gamma pole at r = 0.5; the window itself has none, and the
    # check once refused it there
    code, out, err = _call(["verify", "--p", "1", "--q", "4", "--r", "0.5", "--jmax", "1", "--kmax", "8",
                            "--check", "intertwining"])
    assert (code, err) == (0, "")
    assert out.startswith("intertwining: max_residual=") and out.endswith(" tol=1.0000000000000001e-09 PASS\n")


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


def test_unrecognized_arguments_print_top_level_usage():
    # leftover tokens after a known command end in the top-level error, as parse_args prints it
    code, out, err = _call(["spectrum", "--p", "2", "--q", "3", "--bogus", "1"])
    assert (code, out) == (2, "")
    assert err == "usage: intertwinor [-h] {spectrum,verify} ...\nintertwinor: error: unrecognized arguments: --bogus 1\n"


def test_subcommand_help_prints_subcommand_usage():
    code, out, err = _call(["spectrum", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: intertwinor spectrum [-h] --p P --q Q")


_NAN = object()  # stands for every NaN in a parsed namespace, so that NaN compares equal to NaN


def _parse_outcome(parse, argv):
    """(the parsed namespace as a dict, or the exit code; stdout; stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {key: _NAN if isinstance(value, float) and value != value else value
                      for key, value in vars(parse(list(argv))).items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--p", "2", "--q", "3"], ["verify", "--q", "3", "--p", "1", "--all", "--seed", "4"],
    ["verify", "--p", "1", "--q", "2", "--check", "inversion", "--check", "lemma1", "--output", "x.json"],
    ["spectrum", "--p", "2", "--q", "3", "extra"], ["verify", "--p", "2", "--q", "3", "--bogus"],
    ["spectrum", "--p", "2"], ["spectrum", "--p", "2", "--q", "3", "--format", "xml"], ["spectrum", "-h"],
    ["verify", "--help"], ["spectrum", "--p", "2", "--q", "3", "--", "--r", "1"], [], ["-h"], ["spectra"],
])
def test_subparser_parse_matches_full_parse(argv):
    # cli._parse gives what the top-level parse_args gives: the same namespace, or the same exit and output
    parser, _ = cli._build_parser()
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(parser.parse_args, argv)


#: Values that argparse may read as an option, as no value or as a bad one: half of them start with "-".
ODD_VALUES = st.one_of(st.sampled_from([
    "-", "--", "-x", "-h", "--p", "--output", "-1", "-.5", "-1.", "-1e-08", "-inf", "-nan", "-1_0", "-5\n",
    "-lemma1", "-a b",
]), st.sampled_from([
    "", " ", " 5", " -5", "5 ", "1_0", "nan", "inf", "1e300", "0x10", "csv", "json", "xml", "inversion", "lemma1",
    "=", "a=b",
]))
#: Tokens that no well-formed command holds.
STRAY_TOKENS = st.sampled_from(["-h", "--help", "--", "extra", "--bogus", "-p", "--=1"])


def _typical_value(flag):
    if flag.type is bool:
        return st.none()
    if flag.choices is not None:
        return st.sampled_from(flag.choices)
    return {int: st.integers(-3, 2**70).map(str), float: st.floats().map(repr),
            str: st.sampled_from(["-", "out.json", "a b"])}[flag.type]


@st.composite
def perturbed_argvs(draw):
    """A command of cli.COMMANDS with --p, --q and other flags of its table (any may repeat), each with a typical
    value, separate or after "=", and at most one perturbation: one more flag with an odd value (for a switch, any
    value), an abbreviated name, "--FLAG=--", a missing --p or --q, or a stray token."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = cli.COMMANDS[command][1]
    chosen = [*flags[:2], *draw(st.lists(st.sampled_from(flags), max_size=6))]
    chunks = [["--" + flag.name, draw(_typical_value(flag)), draw(st.booleans())] for flag in chosen]
    at = draw(st.integers(0, len(chunks) - 1))
    perturbation = draw(st.sampled_from(["none", "value", "value", "abbreviation", "double dash", "missing",
                                         "stray"]))
    if perturbation == "value":
        flag = draw(st.sampled_from(flags))
        chunks.append(["--" + flag.name, draw(ODD_VALUES), flag.type is bool or draw(st.booleans())])
    elif perturbation == "abbreviation" and len(chunks[at][0]) > 3:
        chunks[at][0] = chunks[at][0][:-1]
    elif perturbation == "double dash" and chosen[at].type is not bool:
        chunks[at][1:] = "--", True
    elif perturbation == "missing":
        del chunks[at % 2]
    elif perturbation == "stray":
        chunks.append([draw(STRAY_TOKENS), None, False])
    tokens = []
    for name, value, joined in draw(st.permutations(chunks)):
        tokens += [name] if value is None else [f"{name}={value}"] if joined else [name, value]
    return [command, *tokens]


@settings(max_examples=1000, deadline=None)
@given(argv=perturbed_argvs())
def test_reader_matches_argparse(argv):
    # Where cli._read accepts an argv, argparse returns the same namespace.  Everywhere else cli._parse is
    # argparse, except that "--FLAG=--", which argparse stores as an empty list, exits 2.
    parser, _ = cli._build_parser()
    expected = _parse_outcome(parser.parse_args, argv)
    if cli._read(argv) is not None:
        assert _parse_outcome(cli._read, argv) == expected
    values = expected[0].values() if isinstance(expected[0], dict) else ()
    if [] in values or any(isinstance(value, list) and [] in value for value in values):
        code, out, err = _parse_outcome(cli._parse, argv)
        assert (code, out) == (2, "") and err.endswith(": expected one argument\n")
    else:
        assert _parse_outcome(cli._parse, argv) == expected


@pytest.mark.parametrize("flag, argv", [
    ("--output", ["spectrum", "--p", "2", "--q", "3", "--output=--"]), ("--p", ["spectrum", "--p=--", "--q", "3"]),
    ("--jmax", ["spectrum", "--p", "2", "--q", "3", "--jmax=--"]),
    ("--format", ["spectrum", "--p", "2", "--q", "3", "--format=--"]),
    ("--seed", ["verify", "--p", "2", "--q", "3", "--seed=--"]),
    ("--check", ["verify", "--p", "2", "--q", "3", "--check=--"]),
    ("--r", ["verify", "--p", "2", "--q", "3", "--r=--"]),
    ("--check", ["verify", "--p", "2", "--q", "3", "--chec=--", "--check", "inversion"]),
    ("--output", ["verify", "--p", "2", "--q", "3", "--check", "inversion", "--output=--"]),
])
def test_flag_written_with_double_dash_value_exits_2(flag, argv, tmp_path, monkeypatch):
    # argparse strips "--" from an explicit value and stores an empty list; the CLI names the flag and exits 2
    monkeypatch.chdir(tmp_path)
    code, out, err = _call(argv)
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.endswith(f"error: argument {flag}: expected one argument\n")
    assert not list(tmp_path.iterdir())


def test_well_formed_commands_load_no_argparse():
    # A spectrum and a verify call are read from the flag table: argparse, and the gettext and locale modules it
    # loads, stay out of the process.  Neither the import nor any call loads dataclasses, or fractions and the
    # decimal module it imports: not the parity-constant probe (5, 3) at r = 2, nor verify --all at r = 2.
    # --help still prints argparse's usage.
    code = (
        "import sys, io, contextlib\n"
        "import intertwinor.cli\n"
        "unused = ('argparse', 'gettext', 'locale', 'dataclasses', 'fractions', 'decimal')\n"
        "loaded = [sorted(m for m in unused if m in sys.modules)]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['spectrum', '--p', '2', '--q', '3', '--r', '-1e-08'],\n"
        "                 ['verify', '--p', '2', '--q', '3', '--check=inversion', '--all'],\n"
        "                 ['spectrum', '--p', '5', '--q', '3', '--r', '2', '--jmax', '8', '--kmax', '4'],\n"
        "                 ['verify', '--p', '2', '--q', '3', '--r', '2', '--all']):\n"
        "        rc = intertwinor.cli.main(argv)\n"
        "        loaded.append((rc, sorted(m for m in unused if m in sys.modules)))\n"
        "print(loaded)\n"
        "intertwinor.cli.main(['spectrum', '--help'])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_package_env(), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    first, usage = done.stdout.split("\n", 1)
    assert first == repr([[], (0, []), (0, []), (0, []), (0, [])])
    assert usage.startswith("usage: intertwinor spectrum [-h] --p P --q Q")


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
    # verify --all draws its seeded functions without numpy.random.
    code = (
        "import sys, io, contextlib\n"
        "import numpy\n"
        "base = set(sys.modules)\n"
        "import intertwinor.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = max(intertwinor.cli.main(['spectrum', '--p', '2', '--q', '3', '--r', r])\n"
        "             for r in ('0.37', '2'))\n"
        "    rc = max(rc, intertwinor.cli.main(['verify', '--p', '2', '--q', '3', '--all']))\n"
        "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
        "                 or m == 'numpy.random' or (m == 'numpy.ma' and m not in base)))\n"
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
                                                  ["--check", "method-agreement"],
                                                  ["--check", "lemma1", "--seed", str(2**70)]])),
)


@settings(max_examples=60, deadline=None)
@given(subcommand=SUBCOMMANDS, p=st.integers(1, 12), q=st.integers(1, 12), r=NEVER_RAISES_ORDERS,
       window=st.integers(1, 12).flatmap(lambda kmax: st.tuples(st.integers(1, 600 if kmax <= 3 else 12),
                                                                st.just(kmax))))
@example(subcommand=("verify", ["--check", "intertwining"]), p=2, q=3, r=300.3, window=(400, 2))
@example(subcommand=("spectrum", []), p=2, q=3, r=250.5, window=(600, 2))
@example(subcommand=("verify", ["--all", "--seed", str(2**64 - 1)]), p=2, q=3, r=0.37, window=(3, 3))  # seed + 4 wraps
# rounding puts a Gamma argument on a pole that its exact value is not
@example(subcommand=("verify", ["--check", "intertwining"]), p=33554434, q=2, r=2.0000000011, window=(2, 2))
@example(subcommand=("verify", ["--check", "intertwining"]), p=2**50, q=2, r=0.01, window=(2, 2))
def test_cli_never_raises(subcommand, p, q, r, window):
    # jmax reaches 600 only in windows at most 4 K-types wide in k
    command, flags = subcommand
    argv = [command, "--p", str(p), "--q", str(q), f"--r={r!r}", "--jmax", str(window[0]),
            "--kmax", str(window[1]), *flags]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = _call(argv)
    assert code in (0, 1, 2) and "Traceback" not in err


@pytest.mark.parametrize("p,q", [(343, 3), (3, 343)])
def test_lemma1_beyond_the_gamma_range(p, q):
    # from sphere dimension 343 on Gamma overflows a float in the Gauss-Jacobi weight's integral, which lemma1 no
    # longer needs: it compares two coefficient-space routes
    code, out, err = _call(["verify", "--p", str(p), "--q", str(q), "--jmax", "3", "--kmax", "3",
                            "--check", "lemma1"])
    assert (code, err) == (0, "") and out.startswith("lemma1: ") and out.endswith(" PASS\n")


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
    """The table by the generic encoders: json.dumps of the dict rows, or a per-cell CSV join, floats by
    format(x, ".17g") and the rest by str."""
    payload = reference_payload(window, sig, r)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [",".join(cli.CSV_COLUMNS)]
    for row in payload["rows"]:
        lines.append(",".join(format(row[c], ".17g") if isinstance(row[c], float) else str(row[c])
                              for c in cli.CSV_COLUMNS))
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
                text = "".join(cli._spectrum_blocks(w, fmt, sig, r))
                assert text == reference_text(w, fmt, sig, r)
                assert all(label in text for label in ("pole", "zero-denominator"))
            assert all(token in text for token in ("NaN", "-Infinity", "Infinity", '""', "5e-324"))

    finite = special[np.isfinite(special)]

    def finite_values(shift):
        return finite[(cells + shift) % len(finite)]

    # Non-finite values only under labels: none of them may leak into the text.
    hidden_only = window._replace(
        recursion=np.where(window.reached, finite_values(0), np.nan),
        closed=np.where(window.poles, np.inf, finite_values(5)),
        factorized=finite_values(3),
        disagreement=np.where(window.compared, finite_values(9), -np.inf),
    )
    # No label and no non-finite value: the path that patches no cell.
    plain = window._replace(
        recursion=finite_values(0), reached=np.ones(shape, bool),
        closed=finite_values(5), poles=np.zeros(shape, bool), factorized=finite_values(3),
        disagreement=finite_values(9), compared=np.ones(shape, bool),
    )
    for w, labels in ((hidden_only, ("pole", "zero-denominator")), (plain, ())):
        for factorized in (None, w.factorized):
            for fmt in ("csv", "json"):
                text = "".join(cli._spectrum_blocks(w._replace(factorized=factorized), fmt, sig, 0.37))
                assert text == reference_text(w._replace(factorized=factorized), fmt, sig, 0.37)
                assert not any(token in text for token in ("NaN", "Infinity", "nan", "inf"))
                assert all(label in text for label in labels)
                assert labels or not any(label in text for label in ("pole", "zero-denominator"))


@pytest.mark.parametrize("r, fmt", [(0.37, "csv"), (2.0, "json")])
def test_benchmark_tables_match_reference_bytes(r, fmt):
    # the two 81 x 81 tables of the spectrum-large benchmark, byte for byte
    code, out, err = _call(["spectrum", "--p", "2", "--q", "3", "--r", repr(r), "--jmax", "80", "--kmax", "80",
                            "--format", fmt])
    assert (code, err) == (0, "")
    sig, order = Signature(2, 3), SpectralOrder(r)
    assert out == reference_text(cli._spectrum_window(sig, order, 80, 80), fmt, sig, order.r)


def test_large_json_table_loads_to_reference_payload(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--p", "2", "--q", "3", "--r", "2",
                           "--jmax", "80", "--kmax", "80", "--format", "json")
    assert code == 0
    sig, order = Signature(2, 3), SpectralOrder(2.0)
    expected = reference_payload(cli._spectrum_window(sig, order, 80, 80), sig, order.r)
    assert len(expected["rows"]) == 81 * 81
    assert json.loads(out) == expected


@pytest.mark.parametrize("r", ["0.5", "2"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_blocked_tables_equal_one_block(monkeypatch, tmp_path, r, fmt):
    # 13 rows of 10 K-types in blocks of 1, 2 and 3 rows, and of 1 row where a row is longer than a block
    # (10 > 9).  At r = 0.5 the pole, zero-denominator and blank cells start at rows 2 and 3, so they fall on
    # both sides of block boundaries; r = 2 fills the factorized column.  Stdout and --output print the
    # one-block bytes.
    argv = ["spectrum", "--p", "1", "--q", "4", "--r", r, "--jmax", "12", "--kmax", "9", "--format", fmt]
    one = _call(argv)
    assert one[0] == 0 and one[2] == ""
    sig, order = Signature(1, 4), SpectralOrder(float(r))
    window = cli._spectrum_window(sig, order, 12, 9)
    assert "".join(cli._spectrum_blocks(window, fmt, sig, order.r)) == one[1]
    for block_ktypes, rows in ((10, 1), (20, 2), (39, 3), (9, 1)):
        monkeypatch.setattr(cli, "TABLE_BLOCK_KTYPES", block_ktypes)
        pieces = list(cli._spectrum_blocks(window, fmt, sig, order.r))
        blocks = -(-13 // rows)
        # CSV: the header and one piece a block; JSON: the head, the blocks with a separator between two, the tail
        assert len(pieces) == (1 + blocks if fmt == "csv" else 2 * blocks + 1)
        assert "".join(pieces) == one[1]
        assert _call(argv) == one
        path = tmp_path / f"table.{fmt}"
        assert _call([*argv, "--output", str(path)]) == (0, "", "")
        assert path.read_text() == one[1]


def test_multi_block_commands_peak_below_the_estimate(tmp_path):
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a JSON table of 201 x 61 K-types, formatted in blocks of 8 rows, at an integer order, whose rows hold four
    # float cells: written whole, it peaked near 14 MB
    table = ["spectrum", "--p", "2", "--q", "3", "--r", "2", "--jmax", "200", "--kmax", "60", "--format", "json",
             "--output", str(tmp_path / "table.json")]
    assert peak(lambda: _call(table)) < cli.window_peak_bytes(200, 60)
    # the seeded checks at 129 x 129, one function a block: with a transient the size of the whole stack in each
    # varpi, N and stencil pass they peaked at 6 to 7 stack sizes
    suite = peak(lambda: verify.run_suite(Signature(2, 3), 0.37, jmax=128, kmax=128,
                                          checks=("lemma1", "intertwining")))
    assert suite < min(cli.window_peak_bytes(128, 128), 5 * verify.SEEDED_FUNCTIONS * 129 * 129 * 8)
    # a window where the slope outweighs the block term: the closed form and the recursion peak at about
    # 250 bytes per K-type while the table is computed
    large = ["spectrum", "--p", "2", "--q", "3", "--r", "2", "--jmax", "300", "--kmax", "300",
             "--output", str(tmp_path / "table.csv")]
    assert peak(lambda: _call(large)) < cli.window_peak_bytes(300, 300)
    # small windows, where the block term outweighs the slope: verify --all, whose loop-consistency check holds
    # about 0.53 MB over its window of at most 11 x 11 K-types, and a JSON table of 23 x 23 K-types, two blocks;
    # and the seeded checks on a stack that fills one block of verify.BLOCK_KTYPES, four functions of 41 x 41
    assert 4 * 41 * 41 <= verify.BLOCK_KTYPES < 5 * 41 * 41
    for side, command in (("10", ["verify", "--all"]), ("22", ["spectrum", "--format", "json"]),
                          ("40", ["verify", "--check", "lemma1", "--check", "intertwining"])):
        small = [*command, "--p", "2", "--q", "3", "--r", "2", "--jmax", side, "--kmax", side]
        _call(small)  # warm: first-use allocations are not the window's
        assert peak(lambda: _call(small)) < cli.window_peak_bytes(int(side), int(side)), command


def test_tables_and_seeded_stacks_have_their_own_blocks(monkeypatch):
    # The benchmark's two 81 x 81 tables are written in several blocks of at most TABLE_BLOCK_KTYPES K-types,
    # while the 5 x 33 x 33 seeded stack of verify --all at n = 32 stays one block of verify.BLOCK_KTYPES
    sig = Signature(2, 3)
    for r, fmt in ((0.37, "csv"), (2.0, "json")):
        pieces = list(cli._spectrum_blocks(cli._spectrum_window(sig, SpectralOrder(r), 80, 80), fmt, sig, r))
        blocks = len(pieces) - 1 if fmt == "csv" else len(pieces) // 2  # the JSON head, tail and separators
        assert blocks == -(-81 // (cli.TABLE_BLOCK_KTYPES // 81)) > 1, fmt
    stack, calls = verify.seeded_stack(sig, 32, 32, 0), []
    banded = verify.apply_T_banded
    monkeypatch.setattr(verify, "apply_T_banded", lambda g: calls.append(g.coeffs.shape) or banded(g))
    assert verify.check_lemma1(stack).passed
    assert calls == [(verify.SEEDED_FUNCTIONS, 33, 33)] and verify.SEEDED_FUNCTIONS * 33 * 33 > cli.TABLE_BLOCK_KTYPES


def test_table_writer_peaks_below_a_megabyte():
    # Writing the r = 2, 81 x 81 JSON table of the benchmark from its computed window holds one block of cells
    # and text at a time: it peaks at 0.42 MB, and at 5.0 MB when the table was one block
    sig = Signature(2, 3)
    window = cli._spectrum_window(sig, SpectralOrder(2.0), 80, 80)
    tracemalloc.start()
    try:
        assert cli._write_output(os.devnull, cli._spectrum_blocks(window, "json", sig, 2.0)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
