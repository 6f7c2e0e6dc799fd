"""End-to-end acceptance gate.

Each test exercises one acceptance criterion over its full sweep and prints a
single pass/fail line (visible with ``pytest -s`` or on failure).
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from intertwinor.cli import main
from intertwinor.closedform import (
    PoleAtKType,
    factorized_eigenvalue_exact,
    parity_constant,
    z_gamma_ratio,
)
from intertwinor.geometry import KType, Signature, neighbor, scalar_curvature
from intertwinor.spectrum import (
    DIRECTIONS,
    is_singular_edge,
    max_loop_deviation,
    transition_ratio,
)
from intertwinor.verify import (
    check_intertwining,
    check_inversion,
    check_lemma1,
    check_method_agreement,
    random_zonal,
)
from intertwinor.zonal import (
    ZonalFunction,
    evaluate,
    gegenbauer_norm,
    project,
    quadrature_grid,
)

SWEEP_SIGS = [Signature(p, q) for p, q in product(range(1, 5), repeat=2)]
SWEEP_ORDERS = (0.37, 1.5, -0.8, 2.25)
SMALL_SIGS = [Signature(p, q) for p, q in product(range(1, 4), repeat=2)]


def report(number, label, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"[acceptance {number:2d}] {label}: {marker} ({detail})")
    assert passed, f"criterion {number} ({label}): {detail}"


def test_01_method_agreement():
    worst = 0.0
    compared = 0
    for sig, r in product(SWEEP_SIGS, SWEEP_ORDERS):
        rep = check_method_agreement(sig, r, 12, 12)
        worst = max(worst, rep.max_residual)
        compared += rep.extra["compared"]
        assert rep.extra["skipped_matches_prediction"], (sig, r)
        assert rep.passed, (sig, r, rep.max_residual)
    report(
        1,
        "method agreement",
        worst <= 1e-10,
        f"max_rel={worst:.3e} over {compared} entries, "
        "singular exclusions match prediction",
    )


def test_02_transition_law():
    worst = 0.0
    checked = 0
    for sig, r in product(SWEEP_SIGS, SWEEP_ORDERS):
        z = {}
        for j, k in product(range(14), repeat=2):
            v = KType(j, k)
            try:
                z[v] = z_gamma_ratio(sig, r, v)
            except PoleAtKType:
                pass
        for alpha, tag in product(list(z), DIRECTIONS):
            if alpha.j > 12 or alpha.k > 12:
                continue
            beta = neighbor(alpha, tag)
            if beta is None or beta not in z or is_singular_edge(sig, alpha, tag, r):
                continue
            t = float(transition_ratio(sig, alpha, tag, r))
            scale = max(abs(z[beta]), abs(t * z[alpha]), abs(z[alpha]))
            err = abs(z[beta] - t * z[alpha]) / scale
            worst = max(worst, err)
            checked += 1
    report(2, "transition law", worst <= 1e-10, f"max_rel={worst:.3e} over {checked} edges")


def test_03_factorized_ratio_constant():
    worst_spread = 0.0
    limit_classes = 0
    for sig, r, parity in product(SWEEP_SIGS, (1, 2, 3), (0, 1)):
        ratios = []
        for j, k in product(range(13), repeat=2):
            v = KType(j, k)
            if (j + k) % 2 != parity:
                continue
            poly = factorized_eigenvalue_exact(sig, r, v)
            if poly == 0:
                continue
            try:
                ratios.append(z_gamma_ratio(sig, r, v) / float(poly))
            except PoleAtKType:
                continue
        if not ratios:
            # Gamma constant singular on the whole class: the limit
            # convention supplies a deterministic finite constant
            c = parity_constant(sig, r, parity)
            assert np.isfinite(c) and c != 0, (sig, r, parity)
            limit_classes += 1
            continue
        lo, hi = min(ratios), max(ratios)
        spread = abs(hi - lo) / max(abs(lo), abs(hi))
        worst_spread = max(worst_spread, spread)
        c = parity_constant(sig, r, parity)
        assert abs(c - ratios[0]) <= 1e-9 * max(1.0, abs(c)), (sig, r, parity)
    report(
        3,
        "integer-order factorization",
        worst_spread <= 1e-10,
        f"max class spread={worst_spread:.3e}, {limit_classes} limit-convention classes",
    )


def test_04_conformal_laplacian_exact():
    mismatches = 0
    for sig in SWEEP_SIGS:
        p, q = sig.p, sig.q
        shift = Fraction((q - 1) ** 2 - (p - 1) ** 2, 4)
        for j, k in product(range(13), repeat=2):
            expected = Fraction(k * (q - 1 + k) - j * (p - 1 + j)) + shift
            if factorized_eigenvalue_exact(sig, 1, KType(j, k)) != expected:
                mismatches += 1
        n = sig.n
        curvature_side = Fraction(n - 2, 4 * (n - 1)) * scalar_curvature(sig)
        if curvature_side != shift:
            mismatches += 1
    report(
        4,
        "conformal Laplacian at order 1",
        mismatches == 0,
        f"{mismatches} exact-arithmetic mismatches across {len(SWEEP_SIGS)} signatures",
    )


def test_05_conformal_field_commutator():
    worst = 0.0
    for sig in SMALL_SIGS:
        for seed in range(20):
            rep = check_lemma1(random_zonal(sig, 8, 8, seed))
            worst = max(worst, rep.max_residual)
            assert rep.passed, (sig, seed, rep.max_residual)
    report(5, "conformal-field commutator identity", worst <= 1e-8, f"max_resid={worst:.3e}")


def test_06_intertwining_relation():
    worst = 0.0
    pole_signatures = 0
    for sig in SMALL_SIGS:
        for r in (0.37, 1.5):
            if r == 1.5 and (sig.p + sig.q) % 2 == 1:
                # odd total dimension puts Gamma poles at order 3/2: the
                # spectral multiplier is undefined there, which must surface
                # as an explicit pole error rather than a wrong number
                with pytest.raises(PoleAtKType):
                    check_intertwining(r, random_zonal(sig, 8, 8, 0), seed=0)
                pole_signatures += 1
                continue
            for seed in range(20):
                rep = check_intertwining(
                    r, random_zonal(sig, 8, 8, seed), seed=seed
                )
                worst = max(worst, rep.max_residual)
                assert rep.passed, (sig, r, seed, rep.max_residual)
    report(
        6,
        "intertwining relation",
        worst <= 1e-9,
        f"max_resid={worst:.3e}, {pole_signatures} odd-dimension pole cases raised",
    )


def test_07_inversion():
    worst = 0.0
    checked = 0
    for sig, r in product(SWEEP_SIGS, SWEEP_ORDERS):
        rep = check_inversion(sig, r, 12, 12)
        worst = max(worst, rep.max_residual)
        checked += rep.extra["compared"]
    report(7, "inversion", worst <= 1e-12, f"max |Z(r)Z(-r)-1|={worst:.3e} over {checked} entries")


def test_08_loop_consistency():
    worst = 0.0
    for sig in SWEEP_SIGS:
        worst = max(worst, max_loop_deviation(sig, 0.37, 10, 10))
    for sig in (Signature(1, 2), Signature(2, 2), Signature(3, 4), Signature(4, 4)):
        for r in (-0.8, 2.25):
            worst = max(worst, max_loop_deviation(sig, r, 10, 10))
    report(8, "lattice loop consistency", worst <= 1e-12, f"max deviation={worst:.3e}")


def test_09_quadrature_roundtrip():
    worst_rt = 0.0
    worst_norm = 0.0
    rng = np.random.default_rng(7)
    for sig in SMALL_SIGS:
        grid = quadrature_grid(sig, 9, 9)
        for _ in range(5):
            f = ZonalFunction(sig, rng.uniform(-1.0, 1.0, size=(9, 9)))
            back = project(evaluate(f, grid), grid, 8, 8)
            worst_rt = max(worst_rt, float(np.max(np.abs(back.coeffs - f.coeffs))))
        for d, V, w, deg in ((sig.p, grid.Vx, grid.wx, 8), (sig.q, grid.Vy, grid.wy, 8)):
            quad_norms = w @ (V[:, : deg + 1] ** 2)
            for j in range(deg + 1):
                err = abs(quad_norms[j] - gegenbauer_norm(d, j)) / gegenbauer_norm(d, j)
                worst_norm = max(worst_norm, err)
    report(
        9,
        "quadrature round-trip",
        worst_rt <= 1e-12 and worst_norm <= 1e-11,
        f"roundtrip={worst_rt:.3e}, norm_rel={worst_norm:.3e}",
    )


def test_10_cli_determinism(tmp_path, capsys):
    flags = ["--p", "3", "--q", "2", "--r", "2.25", "--jmax", "10", "--kmax", "10"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["spectrum", *flags, "--output", str(out1)]) == 0
    assert main(["spectrum", *flags, "--output", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    code = main(["verify", "--p", "2", "--q", "3", "--r", "0.37", "--all"])
    capsys.readouterr()
    report(
        10,
        "CLI determinism",
        identical and code == 0,
        f"byte-identical={identical}, verify --all exit={code}",
    )
