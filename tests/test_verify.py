import json
from fractions import Fraction

import numpy as np
import pytest

from intertwinor import verify
from intertwinor.cli import main
from intertwinor.closedform import (
    PoleAtKType,
    conformal_laplacian_eigenvalue_exact,
    factorized_eigenvalue_exact,
    numerator_pole_grid,
    z_gamma_grid,
    z_gamma_ratio,
)
from intertwinor.geometry import KType, Signature, scalar_curvature
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


@pytest.mark.parametrize("r", [0.37, 2.0])
def test_method_agreement_without_odd_base(r):
    # jmax = 0 leaves the odd base (1, 0) out of the window, so the odd class is a predicted exclusion
    sig = Signature(2, 3)
    rep = check_method_agreement(sig, r, 0, 0)
    assert rep.passed and (rep.extra["compared"], rep.extra["skipped"]) == (1, 0)
    rep = check_method_agreement(sig, r, 0, 1)
    assert rep.passed and (rep.extra["compared"], rep.extra["skipped"]) == (1, 1)
    assert rep.extra["skipped_matches_prediction"]


@pytest.mark.parametrize("r", [0.37, 2.0])
@pytest.mark.parametrize("other", range(7))
def test_method_agreement_one_k_type_wide(r, other):
    # Every edge changes both j and k, so a window with jmax = 0 or kmax = 0
    # has no edges: only the class bases in it are compared, and the other
    # K-types are predicted exclusions, although their closed form is finite.
    sig = Signature(2, 3)
    for jmax, kmax in ((0, other), (other, 0)):
        rep = check_method_agreement(sig, r, jmax, kmax)
        bases = min(jmax, 1) + 1
        assert rep.passed and rep.extra["skipped_matches_prediction"]
        assert (rep.extra["compared"], rep.extra["skipped"]) == (bases, (jmax + 1) * (kmax + 1) - bases)


def test_conformal_laplacian():
    rep = check_conformal_laplacian(Signature(2, 5), 10, 10)
    assert rep.passed and rep.max_residual == 0.0


def reference_conformal_laplacian(sig, jmax, kmax, factorized=factorized_eigenvalue_exact):
    """The per-K-type Fraction loop that check_conformal_laplacian replaced."""
    mismatches = 0
    where = None
    for j in range(jmax + 1):
        for k in range(kmax + 1):
            v = KType(j, k)
            if factorized(sig, 1, v) != conformal_laplacian_eigenvalue_exact(sig, v):
                mismatches += 1
                where = where or (j, k)
    n = sig.n
    curvature_ok = (
        n == 2
        or Fraction(n - 2, 4 * (n - 1)) * scalar_curvature(sig)
        == Fraction((sig.q - 1) ** 2 - (sig.p - 1) ** 2, 4)
    )
    return mismatches + (not curvature_ok), where


@pytest.mark.parametrize("p", range(1, 9))
def test_conformal_laplacian_matches_fraction_loop(p):
    for q in range(1, 9):
        sig = Signature(p, q)
        for jmax, kmax in ((0, 0), (0, 12), (12, 0), (3, 8), (12, 12)):
            rep = check_conformal_laplacian(sig, jmax, kmax)
            residual, where = reference_conformal_laplacian(sig, jmax, kmax)
            assert (rep.max_residual, rep.worst_location) == (float(residual), where)
            assert rep.passed


def test_conformal_laplacian_reports_first_mismatch_row_major(monkeypatch):
    # Break the factorized side at (2, 7) and (3, 1): two mismatches, and the
    # first location in row-major order is (2, 7), not the smaller k of (3, 1).
    broken = {(2, 7), (3, 1)}
    numerator = verify._factorized_numerator

    def bumped(sig, tj, tk, eps, r):
        j, k = (tj - sig.p + 1) // 2, (tk - sig.q + 1) // 2
        return numerator(sig, tj, tk, eps, r) + np.isin(10 * j + k, [10 * a + b for a, b in broken])

    def bumped_exact(sig, r, v):
        return factorized_eigenvalue_exact(sig, r, v) + Fraction((v.j, v.k) in broken, 4)

    monkeypatch.setattr(verify, "_factorized_numerator", bumped)
    sig = Signature(2, 3)
    rep = check_conformal_laplacian(sig, 9, 9)
    assert (rep.max_residual, rep.worst_location, rep.passed) == (2.0, (2, 7), False)
    residual, where = reference_conformal_laplacian(sig, 9, 9, factorized=bumped_exact)
    assert (rep.max_residual, rep.worst_location) == (float(residual), where)


@pytest.mark.parametrize("r", [0.37, 2, -1.3])
def test_shared_spectrum_matches_per_seed_checks(r):
    # run_suite evaluates the eigenvalue grid once and slices it per seed;
    # each check_intertwining alone builds its own.
    for sig, jmax, kmax, seed in ((Signature(2, 3), 8, 8, 0), (Signature(1, 4), 5, 11, 7),
                                  (Signature(3, 3), 0, 6, 2)):
        suite, = run_suite(sig, r, jmax=jmax, kmax=kmax, seed=seed, checks=("intertwining",))
        alone = max((check_intertwining(sig, r, random_zonal(sig, jmax, kmax, seed + i), seed=seed + i)
                     for i in range(5)), key=lambda rep: rep.max_residual)
        assert suite.to_dict() == alone.to_dict()


def test_shared_spectrum_raises_the_same_pole():
    message = "Gamma pole in denominator at K-type KType(j=1, k=0): argument (1 - 2r)/4 with r = 0.5"
    sig = Signature(2, 3)
    with pytest.raises(PoleAtKType) as alone:
        check_intertwining(sig, 0.5, random_zonal(sig, 8, 8, 0))
    with pytest.raises(PoleAtKType) as suite:
        run_suite(sig, 0.5, checks=("intertwining",))
    assert str(alone.value) == str(suite.value) == message


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


def test_check_table_calls_rebound_names(monkeypatch):
    # perfbench/tracing.py rebinds these names in verify; the check table must call the rebound ones
    names = ("check_lemma1", "check_intertwining", "check_method_agreement", "check_conformal_laplacian",
             "check_inversion", "check_loop_consistency", "quadrature_grid", "z_spectral_grid",
             "max_loop_deviation")
    called = []
    for name in names:
        def rebound(*args, _name=name, _original=getattr(verify, name), **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(verify, name, rebound)
    reports = run_suite(Signature(2, 3), 0.37, jmax=4, kmax=4, seed=1)
    assert set(called) == set(names)
    assert tuple(verify.CHECKS) == DEFAULT_CHECKS == tuple(rep.name for rep in reports)
    with pytest.raises(ValueError, match="unknown check 'no-such-check'"):
        run_suite(Signature(2, 3), 0.37, checks=("inversion", "no-such-check"))


def test_run_suite_all_checks():
    reports = run_suite(Signature(2, 3), 0.37, jmax=6, kmax=6, seed=0)
    assert [rep.name for rep in reports] == list(DEFAULT_CHECKS)
    assert all(rep.passed for rep in reports)


def test_reports_deterministic():
    a = run_suite(Signature(1, 2), 0.37, jmax=5, kmax=5, seed=3)
    b = run_suite(Signature(1, 2), 0.37, jmax=5, kmax=5, seed=3)
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
