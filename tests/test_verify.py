import json

import numpy as np
import pytest

from intertwinor.cli import main
from intertwinor.closedform import PoleAtKType, numerator_pole_grid, z_gamma_grid, z_gamma_ratio
from intertwinor.geometry import KType, Signature
from intertwinor.spectrum import recursion_spectrum
from intertwinor.verify import (
    DEFAULT_CHECKS,
    VerificationReport,
    check_conformal_laplacian,
    check_intertwining,
    check_inversion,
    check_lemma1,
    check_loop_consistency,
    check_method_agreement,
    random_zonal,
    run_suite,
)
from intertwinor.zonal import basis_element, quadrature_grid


def test_intertwining_r_zero_is_exact():
    # at order zero the operator is the identity on pole-free modes
    sig = Signature(1, 3)
    rep = check_intertwining(sig, 0.0, basis_element(sig, 0, 0, jmax=2, kmax=2))
    assert rep.max_residual < 1e-13
    assert rep.passed


def test_intertwining_single_mode():
    sig = Signature(2, 3)
    rep = check_intertwining(sig, 0.73, basis_element(sig, 0, 0, jmax=3, kmax=3))
    assert rep.max_residual <= 1e-12


def test_intertwining_random():
    sig = Signature(1, 3)
    rep = check_intertwining(sig, 0.37, random_zonal(sig, 8, 8, 0), seed=0)
    assert rep.passed
    assert rep.to_dict()["seed"] == 0


def test_lemma1_constant():
    sig = Signature(2, 2)
    grid = quadrature_grid(sig, 4, 4)
    rep = check_lemma1(sig, basis_element(sig, 0, 0, jmax=3, kmax=3), grid)
    assert rep.max_residual < 1e-14


def test_lemma1_random():
    sig = Signature(2, 2)
    grid = quadrature_grid(sig, 9, 9)
    rep = check_lemma1(sig, random_zonal(sig, 8, 8, 4), grid)
    assert rep.passed


def test_method_agreement_examples():
    rep = check_method_agreement(Signature(3, 2), 2.25, 12, 12)
    assert rep.passed and rep.extra["skipped"] == 0


def test_method_agreement_compares_denominator_only_poles_at_zero():
    # (1, 4) at r = 1/2: K-types whose Gamma poles all sit in the denominator
    # have mu = 0, and the recursion reaches them with the value 0
    sig = Signature(1, 4)
    rep = check_method_agreement(sig, 0.5, 9, 9)
    assert rep.passed and rep.extra["skipped_matches_prediction"]
    _, poles = z_gamma_grid(sig, 0.5, 9, 9)
    zeros = poles & ~numerator_pole_grid(sig, 0.5, 9, 9)
    assert zeros.any()
    table = recursion_spectrum(sig, 0.5, 9, 9)
    assert table.reached[zeros].all() and (table.values[zeros] == 0.0).all()
    argv = ["verify", "--p", "1", "--q", "4", "--r", "0.5", "--jmax", "9", "--kmax", "9",
            "--check", "method-agreement"]
    assert main(argv) == 0


def test_conformal_laplacian():
    rep = check_conformal_laplacian(Signature(2, 5), 10, 10)
    assert rep.passed and rep.max_residual == 0.0


def test_inversion_and_loops():
    sig = Signature(2, 3)
    assert check_inversion(sig, 0.37, 8, 8).passed
    assert check_loop_consistency(sig, 0.37, 8, 8).passed


def test_report_roundtrips_to_json():
    rep = check_method_agreement(Signature(1, 2), 0.37, 6, 6)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["check"] == "method-agreement"
    assert back["pass"] is True
    assert back["tolerance"] == rep.tolerance
    with pytest.raises(TypeError):  # the verdict is derived, never passed in
        VerificationReport("x", 1, 1, None, 1, 1, max_residual=1.0, tolerance=0.0, passed=True)


def test_run_suite_all_checks():
    reports = run_suite(Signature(2, 3), 0.37, jmax=6, kmax=6, seed=0, n_functions=2)
    assert [rep.name for rep in reports] == list(DEFAULT_CHECKS)
    assert all(rep.passed for rep in reports)


def test_reports_deterministic():
    a = run_suite(Signature(1, 2), 0.37, jmax=5, kmax=5, seed=3, n_functions=2)
    b = run_suite(Signature(1, 2), 0.37, jmax=5, kmax=5, seed=3, n_functions=2)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_intertwining_residual_stable_under_truncation_growth():
    # padding the same function with zero coefficients must not change the
    # residual: there is no hidden truncation leakage
    sig = Signature(2, 2)
    f = random_zonal(sig, 6, 6, 2)
    big = np.zeros((13, 13))
    big[:7, :7] = f.coeffs
    from intertwinor.zonal import ZonalFunction

    rep_small = check_intertwining(sig, 0.37, f)
    rep_big = check_intertwining(sig, 0.37, ZonalFunction(sig, big))
    assert abs(rep_small.max_residual - rep_big.max_residual) < 1e-12


def test_window_checks_match_scalar_loops():
    # the array forms of inversion and method agreement against per-K-type loops
    for sig, r in ((Signature(1, 2), 1.5), (Signature(2, 3), 0.37), (Signature(3, 1), -0.8)):
        inversion = check_inversion(sig, r, 7, 7)
        agreement = check_method_agreement(sig, r, 7, 7)
        worst_inv, worst_agree, compared = 0.0, 0.0, 0
        for j in range(8):
            for k in range(8):
                v = KType(j, k)
                try:
                    zv = z_gamma_ratio(sig, r, v)
                    worst_inv = max(worst_inv, abs(zv * z_gamma_ratio(sig, -r, v) - 1.0))
                    zbase = z_gamma_ratio(sig, r, KType(v.parity, 0))
                except PoleAtKType:
                    continue
                table = recursion_spectrum(sig, r, 7, 7)
                if v in table.entries:
                    mu = table.entries[v]
                    rel = abs(zv / zbase - mu) / max(abs(zv / zbase), abs(mu), 1e-300)
                    worst_agree = max(worst_agree, rel)
                    compared += 1
        assert inversion.max_residual == worst_inv
        assert agreement.max_residual == worst_agree
        assert agreement.extra["compared"] == compared
