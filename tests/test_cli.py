import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from intertwinor import cli
from intertwinor.cli import main


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert done.stdout.strip() == "0 []"
