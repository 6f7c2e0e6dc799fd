import json
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intertwinor import closedform, verify
from intertwinor.cli import main
from intertwinor.closedform import (
    PoleAtKType,
    conformal_laplacian_eigenvalue_exact,
    factorized_eigenvalue_exact,
    z_gamma_grid,
    z_gamma_ratio,
    z_spectral_grid,
)
from intertwinor.geometry import KType, Signature, scalar_curvature
from intertwinor.spectrum import SpectrumTable, recursion_spectrum
from intertwinor.verify import (
    DEFAULT_CHECKS,
    SEEDED_FUNCTIONS,
    VerificationReport,
    check_conformal_laplacian,
    check_intertwining,
    check_inversion,
    check_lemma1,
    check_loop_consistency,
    check_method_agreement,
    random_zonal,
    run_suite,
    seeded_stack,
)
from intertwinor.zonal import ZonalFunction, _bochner, _varpi, apply_T_banded, apply_T_via_lemma, basis_element


def test_intertwining_r_zero_is_exact():
    # at order zero the operator is the identity on pole-free modes
    sig = Signature(1, 3)
    rep = check_intertwining(0.0, basis_element(sig, 0, 0, jmax=2, kmax=2))
    assert rep.max_residual < 1e-13
    assert rep.passed


def test_intertwining_single_mode():
    sig = Signature(2, 3)
    rep = check_intertwining(0.73, basis_element(sig, 0, 0, jmax=3, kmax=3))
    assert rep.max_residual <= 1e-12


def test_intertwining_random():
    sig = Signature(1, 3)
    rep = check_intertwining(0.37, random_zonal(sig, 8, 8, 0), seed=0)
    assert rep.passed
    assert rep.to_dict()["seed"] == 0


def test_lemma1_constant():
    sig = Signature(2, 2)
    rep = check_lemma1(basis_element(sig, 0, 0, jmax=3, kmax=3))
    assert rep.max_residual < 1e-14


def test_lemma1_random():
    sig = Signature(2, 2)
    rep = check_lemma1(random_zonal(sig, 8, 8, 4))
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
    _, poles, infinite = z_gamma_grid(sig, 0.5, 9, 9)
    zeros = poles & ~infinite
    assert zeros.any()
    table = recursion_spectrum(sig, 0.5, 9, 9)
    assert table.reached[zeros].all() and (table.values[zeros] == 0.0).all()
    argv = ["verify", "--p", "1", "--q", "4", "--r", "0.5", "--jmax", "9", "--kmax", "9",
            "--check", "method-agreement"]
    assert main(argv) == 0


@pytest.mark.parametrize("r", [0.37, 2.0])
def test_method_agreement_without_odd_base(r):
    # jmax = 0 leaves the odd base (1, 0) out of the window, which is refused; the smallest window
    # with edges holds both bases, and all four of its K-types are compared
    sig = Signature(2, 3)
    with pytest.raises(ValueError, match=r"^truncation must satisfy jmax >= 1 and kmax >= 1, got \(0, 1\)$"):
        check_method_agreement(sig, r, 0, 1)
    rep = check_method_agreement(sig, r, 1, 1)
    assert rep.passed and rep.extra["skipped_matches_prediction"]
    assert (rep.extra["compared"], rep.extra["skipped"]) == (4, 0)


@pytest.mark.parametrize("r", [0.37, 2.0])
@pytest.mark.parametrize("other", range(7))
def test_method_agreement_one_k_type_wide(capsys, r, other):
    # Every edge changes both j and k, so a window with jmax = 0 or kmax = 0 has no edges: method
    # agreement refuses it with the text that verify exits 2 with, one rule for the library and the CLI.
    sig = Signature(2, 3)
    for jmax, kmax in ((0, other), (other, 0)):
        message = f"truncation must satisfy jmax >= 1 and kmax >= 1, got ({jmax}, {kmax})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_method_agreement(sig, r, jmax, kmax)
        with pytest.raises(SystemExit) as exited:
            main(["verify", "--p", "2", "--q", "3", "--r", str(r), "--jmax", str(jmax), "--kmax", str(kmax),
                  "--check", "method-agreement"])
        assert exited.value.code == 2 and capsys.readouterr().err.endswith(f"error: {message}\n")


def _flip_reached(monkeypatch, sig, r, jmax, kmax, flip):
    """Let verify's recursion table mark ``flip`` reached (value 1.0) when it is not, and unreached when it is."""
    table = recursion_spectrum(sig, r, jmax, kmax)
    values, reached = table.values.copy(), table.reached.copy()
    reached[flip] = not reached[flip]
    values[flip] = float(reached[flip])
    monkeypatch.setattr(verify, "recursion_spectrum", lambda *args: SpectrumTable(values, reached))


@pytest.mark.parametrize("sig, r, jmax, kmax, flip, more_compared", [
    (Signature(2, 3), 0.37, 6, 6, (3, 2), -1),  # a joined K-type the recursion no longer reaches
    (Signature(1, 2), 1.5, 7, 7, (4, 1), 0),  # a numerator pole of the odd class, now reached
])
def test_method_agreement_fails_when_reached_leaves_the_prediction(monkeypatch, sig, r, jmax, kmax, flip,
                                                                   more_compared):
    # the skipped set must coincide with the prediction; a reached numerator pole is still not compared
    before = check_method_agreement(sig, r, jmax, kmax)
    assert before.passed and before.extra["skipped_matches_prediction"]
    _flip_reached(monkeypatch, sig, r, jmax, kmax, flip)
    rep = check_method_agreement(sig, r, jmax, kmax)
    assert not rep.extra["skipped_matches_prediction"] and not rep.passed
    assert rep.extra["compared"] == before.extra["compared"] + more_compared
    assert np.isfinite(rep.max_residual)


def _scaled_gamma_grid(monkeypatch, where, factor):
    """Let verify's z_gamma_grid return its value at ``where`` times ``factor``."""
    def scaled(*args, _original=z_gamma_grid):
        values, poles, infinite = _original(*args)
        values = values.copy()
        values[where] *= factor
        return values, poles, infinite
    monkeypatch.setattr(verify, "z_gamma_grid", scaled)


def test_method_agreement_fails_on_nan(monkeypatch):
    # a nan comparison is the worst entry, and a nan residual fails
    _scaled_gamma_grid(monkeypatch, (2, 3), np.nan)
    rep = check_method_agreement(Signature(2, 3), 0.37, 6, 6)
    assert np.isnan(rep.max_residual) and rep.worst_location == (2, 3)
    assert rep.extra["skipped_matches_prediction"] and not rep.passed


def test_method_agreement_ties_go_to_the_even_class(monkeypatch):
    # a zero table value against a nonzero closed form gives a residual of exactly 1: at odd (1, 2) and at
    # even (3, 3), later in (j, k) order, the even class wins the tie
    sig = Signature(2, 3)
    table = recursion_spectrum(sig, 0.37, 6, 6)
    values = table.values.copy()
    values[1, 2] = values[3, 3] = 0.0
    monkeypatch.setattr(verify, "recursion_spectrum", lambda *args: SpectrumTable(values, table.reached))
    rep = check_method_agreement(sig, 0.37, 6, 6)
    assert (rep.max_residual, rep.worst_location, rep.passed) == (1.0, (3, 3), False)


@pytest.mark.parametrize("factor, passed", [(2.0, False), (0.5, True)])
def test_method_agreement_gate_boundary(monkeypatch, factor, passed):
    # a relative error of factor times the 1e-10 gate at one compared K-type
    error = factor * 1e-10
    _scaled_gamma_grid(monkeypatch, (4, 3), 1.0 + error)
    rep = check_method_agreement(Signature(2, 3), 0.37, 6, 6)
    assert rep.passed is passed and rep.worst_location == (4, 3)
    assert rep.max_residual == pytest.approx(error, rel=1e-3)


@pytest.mark.parametrize("factor, passed", [(2.0, False), (0.5, True)])
def test_intertwining_gate_boundary(monkeypatch, factor, passed):
    # the residual is linear in an error of the eigenvalue at one K-type: measured at a large error, then
    # set to factor times the 1e-9 gate
    sig, original = Signature(2, 3), verify.z_spectral_grid
    f = seeded_stack(sig, 6, 6, 0)

    def with_error(error):
        def scaled(*args):
            values, poles = original(*args)
            values = values.copy()
            values[2, 3] *= 1.0 + error
            return values, poles
        monkeypatch.setattr(verify, "z_spectral_grid", scaled)
        return check_intertwining(0.37, f, seed=0)

    slope = with_error(1e-4).max_residual / 1e-4
    rep = with_error(factor * 1e-9 / slope)
    assert rep.passed is passed
    assert rep.max_residual == pytest.approx(factor * 1e-9, rel=1e-3)


@pytest.mark.parametrize("factor, passed", [(2.0, False), (0.5, True)])
def test_lemma1_gate_boundary(monkeypatch, factor, passed):
    # an error of factor times the 1e-8 gate, relative to each function's coefficient sup-norm, at every coefficient
    error = factor * 1e-8

    def shifted(f, _original=verify.apply_T_banded):
        scale = np.max(np.abs(f.coeffs), axis=(-2, -1), keepdims=True)
        return ZonalFunction(f.sig, _original(f).coeffs + error * scale)

    monkeypatch.setattr(verify, "apply_T_banded", shifted)
    rep = check_lemma1(seeded_stack(Signature(2, 3), 6, 6, 0), seed=0)
    assert rep.passed is passed
    assert rep.max_residual == pytest.approx(error, rel=1e-3)


@pytest.mark.parametrize("r", [0.37, -1.3, 7.25])
def test_scaled_log_gamma_fails_method_agreement(monkeypatch, r):
    # log |Gamma| off by a relative 1e-9: Z(-r) has Z(r)'s denominator arguments as its numerator ones, so
    # inversion sees every log-Gamma value cancel, and an error linear in x is constant per parity class;
    # method agreement compares against the recursion, which uses no Gamma function, and fails
    sig = Signature(2, 3)
    assert check_method_agreement(sig, r, 20, 20).passed

    def scaled(x, _original=closedform._log_gamma):
        log_magnitude, sign, poles = _original(x)
        return log_magnitude * (1.0 + 1e-9), sign, poles

    monkeypatch.setattr(closedform, "_log_gamma", scaled)
    rep = check_method_agreement(sig, r, 20, 20)
    assert not rep.passed and rep.max_residual > 1e-9


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


def test_conformal_laplacian_curvature_in_integers_matches_fraction_form():
    # the check's curvature identity, in integers, against the reference's Fraction form for p, q <= 50
    for p in range(1, 51):
        for q in range(1, 51):
            sig = Signature(p, q)
            rep = check_conformal_laplacian(sig, 0, 0)
            assert (rep.max_residual, rep.worst_location) == (float(reference_conformal_laplacian(sig, 0, 0)[0]), None)


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
        alone = max((check_intertwining(r, random_zonal(sig, jmax, kmax, seed + i), seed=seed + i)
                     for i in range(5)), key=lambda rep: rep.max_residual)
        assert suite.to_dict() == alone.to_dict()


def reference_splitmix64(seed, count):
    """The first ``count`` outputs of SplitMix64 seeded with ``seed``, in Python integers."""
    state, out = seed % 2**64, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return out


def test_random_zonal_is_splitmix64():
    # 6457827717110365317 is the first output of the reference splitmix64.c seeded with 1234567
    assert reference_splitmix64(1234567, 1) == [6457827717110365317]
    sig = Signature(2, 3)
    for seed in (0, 1234567, 2**63, 2**64 - 1, 2**70):
        for jmax, kmax in ((0, 0), (4, 2), (1, 12)):
            outputs = reference_splitmix64(seed, (jmax + 1) * (kmax + 1))
            expected = np.array([(z >> 11) / 2**52 - 1.0 for z in outputs]).reshape(jmax + 1, kmax + 1)
            assert np.array_equal(random_zonal(sig, jmax, kmax, seed).coeffs, expected), (seed, jmax, kmax)
    # seed + i wraps at 2^64, as the Python-integer reduction does
    stack = seeded_stack(sig, 3, 3, 2**64 - 2).coeffs
    for i, seed in enumerate((2**64 - 2, 2**64 - 1, 0, 1, 2)):
        assert np.array_equal(stack[i], random_zonal(sig, 3, 3, seed).coeffs)


def test_run_suite_stack_slices_are_seeded_functions(monkeypatch):
    # both seeded checks receive one stack whose slice i is random_zonal(..., seed + i)
    received = []
    for name in ("check_lemma1", "check_intertwining"):
        def spy(*args, _original=getattr(verify, name), **kwargs):
            received.append(next(arg for arg in args if isinstance(arg, ZonalFunction)))
            return _original(*args, **kwargs)
        monkeypatch.setattr(verify, name, spy)
    sig = Signature(3, 2)
    run_suite(sig, 0.37, jmax=6, kmax=4, seed=11, checks=("lemma1", "intertwining"))
    assert len(received) == 2
    for stack in received:
        assert stack.coeffs.shape == (SEEDED_FUNCTIONS, 7, 5)
        for i in range(SEEDED_FUNCTIONS):
            assert np.array_equal(stack.coeffs[i], random_zonal(sig, 6, 4, 11 + i).coeffs)


SEEDED_ORDERS = st.one_of(
    st.floats(-4.0, 4.0),
    st.integers(-4, 4).map(float),
    st.integers(-5, 4).map(lambda n: n + 0.5),
)


@settings(max_examples=80, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 6), jmax=st.integers(0, 12), kmax=st.integers(0, 12),
       r=SEEDED_ORDERS, seed=st.integers(0, 2**64 + 10))
@example(p=2, q=3, jmax=8, kmax=8, r=0.5, seed=0)  # a denominator pole at (1, 0)
@example(p=1, q=5, jmax=3, kmax=4, r=-0.0, seed=3)  # a numerator pole
def test_stacked_checks_report_the_worst_single_function(p, q, jmax, kmax, r, seed):
    # the stacked checks of run_suite against one check per seeded function: the largest residual,
    # bit for bit, the lowest seed on ties, the same location, and the same first pole
    sig = Signature(p, q)
    singles = [(random_zonal(sig, jmax, kmax, seed + i), seed + i) for i in range(SEEDED_FUNCTIONS)]
    suite, = run_suite(sig, r, jmax=jmax, kmax=kmax, seed=seed, checks=("lemma1",))
    alone = max((check_lemma1(f, seed=s) for f, s in singles), key=lambda rep: rep.max_residual)
    assert suite.to_dict() == alone.to_dict()
    try:
        alone = max((check_intertwining(r, f, seed=s) for f, s in singles),
                    key=lambda rep: rep.max_residual)
    except PoleAtKType as exc:
        with pytest.raises(PoleAtKType) as stacked:
            run_suite(sig, r, jmax=jmax, kmax=kmax, seed=seed, checks=("intertwining",))
        assert str(stacked.value) == str(exc)
    else:
        suite, = run_suite(sig, r, jmax=jmax, kmax=kmax, seed=seed, checks=("intertwining",))
        assert suite.to_dict() == alone.to_dict()


def _bits(rep):
    """What a seeded report says: its residual bit for bit, the seed and location of the worst function, the verdict."""
    return np.float64(rep.max_residual).tobytes(), rep.extra.get("seed"), rep.worst_location, rep.passed


def _by_block_sizes(monkeypatch, check):
    """check() with verify.BLOCK_KTYPES set so that a block holds 5, 2 and 1 functions of a 7 x 7 stack."""
    results = []
    for size in (SEEDED_FUNCTIONS, 2, 1):
        monkeypatch.setattr(verify, "BLOCK_KTYPES", 49 * size)
        results.append(check())
    return results


def _seeded_blocks(monkeypatch, sig, r, coeffs, seed=5):
    """(lemma1, intertwining) _bits of the 7 x 7 stack ``coeffs`` in blocks of 5, 2 and 1 functions."""
    f = ZonalFunction(sig, coeffs)
    return _by_block_sizes(monkeypatch, lambda: (_bits(check_lemma1(f, seed=seed)),
                                                 _bits(check_intertwining(r, f, seed=seed))))


@pytest.mark.parametrize("p, q, r", [(2, 3, 0.37), (1, 4, 2.0), (3, 3, -1.3), (5, 2, 7.25)])
def test_blocked_seeded_checks_equal_one_block(monkeypatch, p, q, r):
    # a 5-function stack in blocks of 1, 2 and 5 functions: the same residual bits, seed, location and verdict
    stack = seeded_stack(Signature(p, q), 6, 6, 5).coeffs
    one, *blocked = _seeded_blocks(monkeypatch, Signature(p, q), r, stack)
    assert blocked == [one, one]


def test_blocked_seeded_checks_keep_the_lowest_seed_on_ties(monkeypatch):
    # copies of two functions in alternate blocks: each worst residual occurs in several blocks, and the lowest
    # function that has it is reported, as np.argmax over the whole stack does
    stack = seeded_stack(Signature(2, 3), 6, 6, 5).coeffs[[1, 0, 1, 0, 1]]
    reports = _seeded_blocks(monkeypatch, Signature(2, 3), 0.37, stack)
    assert reports == [reports[0]] * 3
    assert {seed for (_, seed, *_) in reports[0]} <= {5, 6}


@pytest.mark.parametrize("marked", [(4,), (1, 4)])
def test_blocked_seeded_checks_report_the_first_nan(monkeypatch, marked):
    # a nan residual in a later block is the worst, and the first nan wins: the report FAILs on it
    mark = 0.75  # coefficient (0, 0) of the functions whose residual is made nan
    stack = seeded_stack(Signature(2, 3), 6, 6, 5).coeffs.copy()
    assert not (stack[:, 0, 0] == mark).any()
    stack[list(marked), 0, 0] = mark

    def banded(g, _original=verify.apply_T_banded):
        out = _original(g).coeffs
        out[g.coeffs[:, 0, 0] == mark, 1, 1] = np.nan
        return SimpleNamespace(coeffs=out)

    left = []  # the marked functions of the block whose left side ran last

    def commutator(g, shift, _original=verify._varpi_commutator):
        out = _original(g, shift)
        if shift < 0:  # the left side acts on the block itself, the right side on its image under A
            left[:] = [g.coeffs[:, 0, 0] == mark]
        else:
            out[left[0], 1, 1] = np.nan
        return out

    monkeypatch.setattr(verify, "apply_T_banded", banded)
    monkeypatch.setattr(verify, "_varpi_commutator", commutator)
    reports = _seeded_blocks(monkeypatch, Signature(2, 3), 0.37, stack)
    assert reports == [reports[0]] * 3
    for residual, seed, _, passed in reports[0]:
        assert np.isnan(np.frombuffer(residual)[0]) and seed == 5 + marked[0] and not passed


def test_blocked_intertwining_raises_the_first_touched_pole(monkeypatch):
    # at (2, 3), r = 0.5 the closed form has a pole exactly where j > k.  Functions 0-2 live on j <= k - 2, so
    # they touch no pole.  Function 3 adds (5, 3), and the first pole the stack touches is (4, 2), a
    # varpi-neighbour of (5, 3) where no function has a coefficient; with function 4, a full seeded function,
    # it is (1, 0).  The pole is decided before the blocks, so every block size names the same one
    sig = Signature(2, 3)
    stack = seeded_stack(sig, 6, 6, 5).coeffs.copy()
    j, k = np.indices((7, 7))
    stack[:4, j > k - 2] = 0.0
    stack[3, 5, 3] = 1.0
    assert not stack[:4, 4, 2].any()

    def message(functions):
        with pytest.raises(PoleAtKType) as raised:
            check_intertwining(0.5, ZonalFunction(sig, stack[:functions]), seed=5)
        return str(raised.value)

    for functions, pole in ((4, KType(4, 2)), (5, KType(1, 0))):
        messages = _by_block_sizes(monkeypatch, lambda: message(functions))
        assert messages == [messages[0]] * 3
        assert f" at K-type {pole}: " in messages[0]
    assert check_intertwining(0.5, ZonalFunction(sig, stack[:3]), seed=5).passed


@settings(max_examples=120, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 6), jmax=st.integers(0, 8), kmax=st.integers(0, 8),
       r=SEEDED_ORDERS, seed=st.integers(0, 2**64 + 10))
@example(p=2, q=6, jmax=3, kmax=4, r=-0.0, seed=3)  # once named (4, 1), outside the window
@example(p=1, q=4, jmax=1, kmax=8, r=0.5, seed=0)  # once refused at (2, 0), outside the window
@example(p=1, q=5, jmax=3, kmax=4, r=-0.0, seed=3)  # once named (3, 0) by float residue alone
@example(p=1, q=1, jmax=4, kmax=4, r=-2.5, seed=0)  # a pole at (0, 0)
def test_seeded_intertwining_refuses_exactly_at_window_poles(p, q, jmax, kmax, r, seed):
    # a seeded stack touches every K-type of its window, so the check refuses exactly where the closed form has
    # a pole in the window, as spectrum labels it, and names the first one in (j, k) order
    sig = Signature(p, q)
    _, poles = z_spectral_grid(sig, r, jmax, kmax)
    f = seeded_stack(sig, jmax, kmax, seed)
    if not poles.any():
        check_intertwining(r, f, seed=seed)
        return
    with pytest.raises(PoleAtKType) as raised:
        check_intertwining(r, f, seed=seed)
    assert f" at K-type {KType(*np.argwhere(poles)[0].tolist())}: " in str(raised.value)


def test_shared_spectrum_raises_the_same_pole():
    message = "Gamma pole in denominator at K-type KType(j=1, k=0): argument (1 - 2r)/4 with r = 0.5"
    sig = Signature(2, 3)
    with pytest.raises(PoleAtKType) as alone:
        check_intertwining(0.5, random_zonal(sig, 8, 8, 0))
    with pytest.raises(PoleAtKType) as suite:
        run_suite(sig, 0.5, checks=("intertwining",))
    assert str(alone.value) == str(suite.value) == message


@pytest.mark.parametrize("jmax, kmax", [(-1, 3), (3, -1), (-2, -2)])
def test_closed_form_checks_refuse_negative_truncation(jmax, kmax):
    # an empty window passed the conformal Laplacian at residual 0, and the inversion check raised IndexError
    sig = Signature(2, 3)
    message = f"truncation must satisfy jmax >= 0 and kmax >= 0, got ({jmax}, {kmax})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_inversion(sig, 0.37, jmax, kmax)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_conformal_laplacian(sig, jmax, kmax)
    assert check_inversion(sig, 0.37, 0, 0).passed and check_conformal_laplacian(sig, 0, 0).passed


def test_inversion_and_loops():
    sig = Signature(2, 3)
    assert check_inversion(sig, 0.37, 8, 8).passed
    assert check_loop_consistency(sig, 0.37, 8, 8).passed


def test_loop_length_is_eight():
    # the report states the length it checked, written here as a literal so a shorter walk fails
    assert check_loop_consistency(Signature(2, 3), 0.37, 4, 4).extra["max_loop_length"] == 8


def test_report_roundtrips_to_json():
    rep = check_method_agreement(Signature(1, 2), 0.37, 6, 6)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["check"] == "method-agreement"
    assert back["pass"] is True
    assert back["tolerance"] == rep.tolerance
    with pytest.raises(TypeError):  # the verdict is derived, never passed in
        VerificationReport("x", 1, 1, None, 1, 1, max_residual=1.0, tolerance=0.0, passed=True)
    made = VerificationReport(name="x", p=1, q=1, r=None, jmax=1, kmax=1, max_residual=1.0, tolerance=1.0)
    assert made.passed and made.extra == {} and made.worst_location is None
    assert not VerificationReport("x", 1, 1, None, 1, 1, float("nan"), 1.0).passed
    # equal fields make equal dictionaries, not equal reports: a report compares by identity
    again = check_method_agreement(Signature(1, 2), 0.37, 6, 6)
    assert again.to_dict() == rep.to_dict() and again != rep


def test_check_table_calls_rebound_names(monkeypatch):
    # perfbench/tracing.py rebinds these names in verify; the check table must call the rebound ones
    names = ("check_lemma1", "check_intertwining", "check_method_agreement", "check_conformal_laplacian",
             "check_inversion", "check_loop_consistency", "apply_T_via_lemma", "z_spectral_grid",
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


def _probes(sig, jmax, kmax):
    """The 9 probes of the window, 1 where j = a and k = b (mod 3): each stencil of T and varpi moves (j, k) by
    +/- 1 in both, so each output coefficient of a probe comes from one input coefficient, along one edge."""
    j, k = np.ogrid[:jmax + 1, :kmax + 1]
    return ZonalFunction(sig, np.stack([(j % 3 == a) & (k % 3 == b) for a in range(3) for b in range(3)]))


def _commutator_terms(f, shift):
    """(1/2)(N varpi f - varpi N f) + shift varpi f, and per coefficient the largest of its three terms."""
    varpi = _varpi(f)
    vnf = varpi(f.coeffs * _bochner(f.sig, f.jmax + 1, f.kmax + 1))
    vf = varpi(f.coeffs)
    nvf = vf * _bochner(f.sig, f.jmax + 2, f.kmax + 2)
    return 0.5 * (nvf - vnf) + shift * vf, np.maximum(np.maximum(abs(nvf), abs(vnf)), abs(shift * vf))


#: Bounds of the per-edge residuals on the probes, set from measurement over the test's space (p, q <= 6, windows
#: to 41 x 41, r at least 1e-3 from a half-integer unless integral): 3,000 seeded draws of r in [-8, 8] read
#: intertwining at most 7.6e-14, and 3,000 draws at 1e-3 to 1.05e-3 from a half-integer, where the Gamma route
#: loses about ulp/delta (ROADMAP item 3), read at most 8.3e-13, growing with |r| to |r| = 7.5: a margin of 4.8.
#: lemma1 read at most 2.7e-16 in both, a margin of 37.
PROBE_INTERTWINING_BOUND, PROBE_LEMMA1_BOUND = 4e-12, 1e-14


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 6), q=st.integers(1, 6), jmax=st.integers(1, 40), kmax=st.integers(1, 40),
       r=st.floats(-8, 8).filter(lambda r: abs(2 * r - round(2 * r)) >= 2e-3 or r == round(r)))
# the five calls that FAIL the absolute intertwining gate (ROADMAP item 15)
@example(p=2, q=3, r=2.0, jmax=32, kmax=32)
@example(p=2, q=3, r=7.25, jmax=8, kmax=8)
@example(p=2, q=3, r=0.37, jmax=500, kmax=1)
@example(p=1, q=4, r=3.483, jmax=8, kmax=3)
@example(p=1, q=5, r=7.25, jmax=6, kmax=6)
# an integer order whose eigenvalues hold exact zeros, where a residual relative to the result alone reads 1
@example(p=3, q=5, r=3.0, jmax=10, kmax=24)
def test_identities_hold_per_edge_on_the_probes(p, q, r, jmax, kmax):
    # Item 15(a): both identities applied to the 9 probes, each output coefficient one edge's term, its residual
    # scaled by that edge's operands: the terms of the commutator route on either side, so an exact zero that
    # rounding leaves at 1e-15 reads 1e-15.  The absolute gates of check_intertwining and check_lemma1 are
    # unchanged; this shows that their standing FAILs are rounding on the scale of the operands.
    sig = Signature(p, q)
    mu, poles = z_spectral_grid(sig, r, jmax, kmax)
    assume(not poles.any())
    f = _probes(sig, jmax, kmax)
    cut = (Ellipsis, slice(jmax), slice(kmax))  # the interior that check_intertwining reads
    left, left_scale = _commutator_terms(f, -r)
    right, right_scale = _commutator_terms(ZonalFunction(sig, f.coeffs * mu), r)
    left, left_scale, right = left[cut] * mu[cut], left_scale[cut] * abs(mu[cut]), right[cut]
    scale = np.maximum(np.maximum(abs(left), abs(right)), np.maximum(left_scale, right_scale[cut]))
    assert (abs(left - right) <= PROBE_INTERTWINING_BOUND * scale).all()
    _, lemma_scale = _commutator_terms(f, 0.0)  # |N varpi f| and |varpi N f|
    assert (abs(apply_T_banded(f).coeffs - apply_T_via_lemma(f).coeffs) <= PROBE_LEMMA1_BOUND * lemma_scale).all()


def test_run_suite_resolves_every_name_before_running(monkeypatch):
    # an unknown name anywhere in the list is refused before the first check runs, where lemma1 once ran first
    ran = []
    monkeypatch.setitem(verify.CHECKS, "lemma1", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="^unknown check 'bogus'$"):
        run_suite(Signature(2, 3), 0.37, checks=("lemma1", "bogus"))
    assert ran == []


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
    rep_small = check_intertwining(0.37, f)
    rep_big = check_intertwining(0.37, ZonalFunction(sig, big))
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
