"""Judge one operation's printed output against its oracle Expectation."""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field

import mpmath

import oracle

VERIFY_LINE = re.compile(r"^(?P<name>[a-z0-9-]+): max_residual=(?P<res>\S+) tol=(?P<tol>\S+) "
                         r"(?P<verdict>PASS|FAIL)$")
CANNOT_EVALUATE = "check cannot be evaluated"


@dataclass
class Verdict:
    """Outcome of one operation; ``failed`` names why it failed, if it did."""

    failed: str | None = None
    rows: int = 0
    wrong: int = 0
    check_failed: bool = False
    #: Wrong values and failed checks that no documented defect explains.
    unexplained: list = field(default_factory=list)

    def wrong_value(self, what: str, explained: bool) -> None:
        self.wrong += 1
        if not explained:
            self.unexplained.append(what)


def _cell(text):
    """A printed cell as float, label, or '' (blank)."""
    if text in oracle.LABELS or text == "":
        return text
    return float(text)


def _rows(exp: oracle.Expectation, text: str) -> list[tuple]:
    if exp.format == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != oracle.CSV_HEADER:
            raise ValueError("missing CSV header")
        return [tuple(row[:5]) + tuple(_cell(c) for c in row[5:]) for row in csv.reader(lines[1:])]
    payload = json.loads(text)
    keys = oracle.CSV_HEADER.split(",")
    if (payload["p"], payload["q"], payload["jmax"], payload["kmax"]) != \
            (exp.p, exp.q, exp.jmax, exp.kmax):
        raise ValueError("JSON header does not echo the request")
    return [tuple(row[key] for key in keys) for row in payload["rows"]]


def _close(printed: float, expected) -> bool:
    with mpmath.workdps(oracle.DPS):
        return abs(printed - expected) <= oracle.RTOL * abs(expected)


def check_spectrum(exp: oracle.Expectation, text: str) -> Verdict:
    verdict = Verdict()
    try:
        rows = _rows(exp, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        verdict.failed = f"unparseable table: {exc}"
        return verdict
    width = exp.kmax + 1
    if len(rows) != (exp.jmax + 1) * width:
        verdict.failed = f"incomplete table: {len(rows)} rows"
        return verdict
    verdict.rows = len(rows)
    for index, row in enumerate(rows):
        if len(row) != 9:
            verdict.failed = f"row {index} has {len(row)} fields"
            return verdict
        j, k = divmod(index, width)
        J, K = oracle.shifted(exp.p, exp.q, j, k)
        rec, closed, fact, disagreement = row[5:]
        try:
            header_ok = (int(row[0]), int(row[1]), float(row[2]), float(row[3]), int(row[4])) \
                == (j, k, float(J), float(K), (j + k) % 2)
        except (TypeError, ValueError):
            header_ok = False
        numeric = (rec == "zero-denominator" or isinstance(rec, float)) and \
            (closed == "pole" or isinstance(closed, float)) and \
            (disagreement == "" or isinstance(disagreement, float))
        if not (header_ok and numeric):
            verdict.failed = f"malformed row {index}: {row}"
            return verdict
        unreachable, pole = exp.row_labels(j, k)
        where = f"({j}, {k})"
        if (rec == "zero-denominator") != unreachable:
            verdict.wrong_value(f"mu_recursion label at {where}: {rec}", False)
        if (closed == "pole") != pole:
            verdict.wrong_value(f"mu_closed_form label at {where}: {closed}", False)
        if disagreement != "" and not disagreement <= oracle.MAX_DISAGREEMENT:
            verdict.wrong_value(f"max_rel_disagreement at {where}: {disagreement}", False)
        if index not in exp.sample:
            continue
        want_rec, want_closed = exp.sample[index]
        if isinstance(rec, float) and not unreachable and \
                (want_rec is None or not _close(rec, want_rec)):
            verdict.wrong_value(f"mu_recursion at {where}: {rec} vs {want_rec}", False)
        if isinstance(closed, float) and not pole and \
                (want_closed is None or not _close(closed, want_closed)):
            verdict.wrong_value(f"mu_closed_form at {where}: {closed} vs {want_closed}",
                                exp.known_closed_form_defect(j, k))
        if exp.n_int is None:
            if fact != "":
                verdict.wrong_value(f"mu_factorized_or_blank at {where}: {fact}", False)
        elif fact != float(oracle.factorized(exp.p, exp.q, exp.n_int, j, k)):
            verdict.wrong_value(f"mu_factorized_or_blank at {where}: {fact}", False)
    return verdict


def check_verify(exp: oracle.Expectation, rc: int, stdout: str, stderr: str) -> Verdict:
    verdict = Verdict()
    lines = stdout.splitlines()
    if rc == 1 and not lines and CANNOT_EVALUATE in stderr:
        verdict.check_failed = True
        if exp.r.denominator != 2:  # documented only at half-integer orders
            verdict.unexplained.append(f"verify {exp.r_text}: {stderr.strip()}")
        return verdict
    parsed = [VERIFY_LINE.match(line) for line in lines]
    if not all(parsed) or tuple(m["name"] for m in parsed) != exp.checks:
        verdict.failed = f"verify printed {lines!r} for checks {exp.checks}"
        return verdict
    for m in parsed:
        if m["verdict"] == "PASS" and not float(m["res"]) <= float(m["tol"]):
            verdict.failed = f"inconsistent verdict: {m.group(0)}"
            return verdict
    if rc != (0 if all(m["verdict"] == "PASS" for m in parsed) else 1):
        verdict.failed = f"exit code {rc} does not match the verdicts"
        return verdict
    verdict.check_failed = rc == 1
    for m in parsed:
        if m["verdict"] == "FAIL" and not _known_failure(exp, m["name"], float(m["res"]),
                                                         float(m["tol"])):
            verdict.unexplained.append(f"verify p={exp.p} q={exp.q} r={exp.r_text}: {m.group(0)}")
    return verdict


def _known_failure(exp: oracle.Expectation, name: str, residual: float, tol: float) -> bool:
    """A FAIL verdict that a documented defect of the program explains."""
    if name == "intertwining":
        # The tolerance is absolute: the check fails where the residual is
        # small only relative to the eigenvalues.
        return residual <= tol * exp.eigenvalue_scale()
    if name == "lemma1":
        # Likewise absolute, while the sampled values grow with the basis.
        return residual <= tol * oracle.zonal_scale(exp.p, exp.q, exp.jmax, exp.kmax)
    if name == "method-agreement":
        # Where 2r is an integer, the Gamma-pole prediction of the skipped
        # K-types can differ from the set the recursion cannot reach.
        return (2 * exp.r).denominator == 1 and residual <= tol
    return False


def check_op(exp: oracle.Expectation, rc, stdout: str, stderr: str, error: str | None,
             file_text: str | None) -> Verdict:
    """Verdict of one operation: its exit, its printed tables or reports."""
    if error is not None or rc not in (0, 1):
        return Verdict(failed=error or f"exit code {rc}: {stderr.strip()[:200]}")
    if exp.command == "verify":
        return check_verify(exp, rc, stdout, stderr)
    if rc != 0:
        return Verdict(failed=f"spectrum exited {rc}: {stderr.strip()[:200]}")
    return check_spectrum(exp, stdout if file_text is None else file_text)
