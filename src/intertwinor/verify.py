"""Verification harness: operator identities checked on band-limited functions.

Each check produces a VerificationReport with the worst residual, its
location, and the tolerance it was held to.  Reports are deterministic
given (signature, r, truncation, seed) and serialize to flat JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .closedform import (
    PoleAtKType,
    _factorized_numerator,
    conformal_laplacian_eigenvalue_exact,  # unused here; perfbench/tracing.py rebinds this name
    factorized_eigenvalue_exact,  # unused here; perfbench/tracing.py rebinds this name
    numerator_pole_grid,
    singular_ktypes,  # unused here; perfbench/tracing.py rebinds this name
    z_gamma_grid,
    z_gamma_ratio,  # unused here; perfbench/tracing.py rebinds this name
    z_spectral,
    z_spectral_grid,
)
from .geometry import KType, Signature, scalar_curvature
from .spectrum import (
    MAX_LOOP_LENGTH,
    SpectralOrder,
    at_class_base,
    max_loop_deviation,
    recursion_spectrum,
    relative_difference,
    window,
)
from .zonal import (
    QuadratureGrid,
    ZonalFunction,
    apply_T_numeric,
    apply_T_via_lemma,
    evaluate,
    multiply_by_varpi,
    quadrature_grid,
)


@dataclass
class VerificationReport:
    """Outcome of one identity check."""

    name: str
    p: int
    q: int
    r: float | None
    jmax: int
    kmax: int
    max_residual: float
    tolerance: float
    worst_location: tuple | None = None
    extra: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        out = {
            "check": self.name,
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "jmax": self.jmax,
            "kmax": self.kmax,
            "max_residual": self.max_residual,
            "worst_location": list(self.worst_location) if self.worst_location else None,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }
        out.update(self.extra)
        return out


def random_zonal(sig: Signature, jmax: int, kmax: int, seed: int) -> ZonalFunction:
    """Band-limited test function with fixed-seed coefficients in [-1, 1]."""
    rng = np.random.default_rng(seed)
    return ZonalFunction(sig, rng.uniform(-1.0, 1.0, size=(jmax + 1, kmax + 1)))


def _worst(delta: np.ndarray) -> tuple[float, tuple[int, int]]:
    idx = np.unravel_index(np.argmax(np.abs(delta)), delta.shape)
    return float(np.abs(delta[idx])), (int(idx[0]), int(idx[1]))


def _apply_eigenvalues(f: ZonalFunction, r, spectrum) -> ZonalFunction:
    """Diagonal action of the intertwining operator on every K-type present.

    ``spectrum`` is z_spectral_grid over a window containing f's; every
    entry depends only on its own K-type, so its leading block is f's.
    """
    mu, poles = (grid[: f.jmax + 1, : f.kmax + 1] for grid in spectrum)
    present = f.coeffs != 0.0
    if (poles & present).any():
        j, k = np.argwhere(poles & present)[0].tolist()
        z_spectral(f.sig, r, KType(j, k))  # raises PoleAtKType naming the argument
    return ZonalFunction(f.sig, np.where(present, f.coeffs * mu, 0.0))


def check_intertwining(sig: Signature, r, f: ZonalFunction, seed: int | None = None,
                       spectrum=None) -> VerificationReport:
    """Residual of A(T + (n/2 - r) varpi) f = (T + (n/2 + r) varpi) A f.

    A acts diagonally by the closed-form eigenvalues.  The residual is
    measured on interior coefficients (j <= jmax - 1, k <= kmax - 1 of the
    input truncation), relative to the coefficient sup-norm of f.
    ``spectrum`` is z_spectral_grid(sig, r, jmax', kmax') over any window
    with jmax' > f.jmax and kmax' > f.kmax, which run_suite evaluates once
    for all seeds; without it the check evaluates its own.  The varpi
    matrices are built once per degree and cached.  A term beyond the float
    range raises FloatingPointError.
    """
    order = SpectralOrder.coerce(r)
    if spectrum is None:
        spectrum = z_spectral_grid(sig, order, f.jmax + 1, f.kmax + 1)
    half_n = sig.n / 2.0
    with np.errstate(over="raise"):
        left = _apply_eigenvalues(
            apply_T_via_lemma(f) + (half_n - order.r) * multiply_by_varpi(f), order, spectrum
        )
        af = _apply_eigenvalues(f, order, spectrum)
        right = apply_T_via_lemma(af) + (half_n + order.r) * multiply_by_varpi(af)
        delta = (left - right).coeffs[: max(f.jmax, 1), : max(f.kmax, 1)]
        scale = max(float(np.max(np.abs(f.coeffs))), 1e-14)
        residual, where = _worst(delta / scale)
    return VerificationReport(
        name="intertwining", p=sig.p, q=sig.q, r=order.r,
        jmax=f.jmax, kmax=f.kmax,
        max_residual=residual, tolerance=1e-9, worst_location=where,
        extra={} if seed is None else {"seed": seed},
    )


def check_lemma1(sig: Signature, f: ZonalFunction, grid: QuadratureGrid,
                 seed: int | None = None) -> VerificationReport:
    """Commutator route vs derivative route for the conformal vector field."""
    lhs = apply_T_numeric(f, grid)
    rhs = evaluate(apply_T_via_lemma(f), grid)
    scale = max(float(np.max(np.abs(f.coeffs))), 1e-14)
    residual, where = _worst((lhs - rhs) / scale)
    return VerificationReport(
        name="lemma1", p=sig.p, q=sig.q, r=None,
        jmax=f.jmax, kmax=f.kmax,
        max_residual=residual, tolerance=1e-8, worst_location=where,
        extra={} if seed is None else {"seed": seed},
    )


def check_method_agreement(sig: Signature, r, jmax: int, kmax: int) -> VerificationReport:
    """Recursion table vs base-normalized closed form, both parity classes.

    Entries with a numerator Gamma-argument pole, where the closed form is
    infinite, and entries that no window edge joins to their class base are
    the predicted exclusions: skipped and counted, and the skipped set must
    coincide with the prediction.  Entries whose poles all sit in the
    denominator are compared at mu = 0.
    """
    order = SpectralOrder.coerce(r)
    gamma, poles = z_gamma_grid(sig, order, jmax, kmax)
    infinite = numerator_pole_grid(sig, order, jmax, kmax)
    mu = np.where(poles & ~infinite, 0.0, gamma)
    table = recursion_spectrum(sig, order, jmax, kmax)
    # A class whose base is singular, or outside the window (the odd class
    # when jmax = 0), has no closed-form normalization, so the whole class is
    # the predicted exclusion.  (The recursion may still propagate ratios
    # within its own reachable component.)
    normalized = ~at_class_base(poles, outside=True)
    # Every edge changes both j and k by one, so a window one K-type wide has
    # no edges, and in any wider window the edges join each class.
    j, k = np.indices(poles.shape)
    joined = (min(jmax, kmax) >= 1) | ((j < 2) & (k == 0))
    predicted = normalized & (infinite | ~joined)
    missing = normalized & joined & ~infinite & ~table.reached
    prediction_ok = not (predicted & table.reached).any() and not missing.any()
    comparable = normalized & ~infinite & table.reached
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(comparable, relative_difference(mu / at_class_base(mu, outside=np.nan), table.values), 0.0)
    parity = np.indices(rel.shape).sum(axis=0) % 2
    residual = 0.0
    where = None
    for klass in (0, 1):  # the worst entry, the even class first on ties
        worst, location = _worst(np.where(parity == klass, rel, 0.0))
        if worst > residual:
            residual, where = worst, location
    report = VerificationReport(
        name="method-agreement", p=sig.p, q=sig.q, r=order.r,
        jmax=jmax, kmax=kmax,
        max_residual=residual, tolerance=1e-10, worst_location=where,
        extra={"compared": int(comparable.sum()), "skipped": int((~comparable).sum()),
               "skipped_matches_prediction": prediction_ok},
    )
    report.passed = report.passed and prediction_ok
    return report


def check_conformal_laplacian(sig: Signature, jmax: int, kmax: int) -> VerificationReport:
    """Order-2 factorized eigenvalue vs the Yamabe eigenvalue, exactly.

    Both are compared over the window as exact integers, four times their
    value: the Pochhammer pairs of the factorized polynomial at r = 1 on one
    side, 4(K^2 - J^2) on the other.
    """
    j, k, tj, tk = window(sig, jmax, kmax)
    mismatch = _factorized_numerator(sig, tj, tk, (j + k) % 2, 1) != tk * tk - tj * tj
    mismatches = int(mismatch.sum())
    where = tuple(np.argwhere(mismatch)[0].tolist()) if mismatches else None
    # (n-2)/(4(n-1)) * Scal must equal ((q-1)^2 - (p-1)^2)/4, exactly.
    n = sig.n
    curvature_ok = (
        n == 2
        or Fraction(n - 2, 4 * (n - 1)) * scalar_curvature(sig)
        == Fraction((sig.q - 1) ** 2 - (sig.p - 1) ** 2, 4)
    )
    if not curvature_ok:
        mismatches += 1
    return VerificationReport(
        name="conformal-laplacian", p=sig.p, q=sig.q, r=1.0,
        jmax=jmax, kmax=kmax,
        max_residual=float(mismatches), tolerance=0.0, worst_location=where,
        extra={"exact": True},
    )


def check_inversion(sig: Signature, r, jmax: int, kmax: int) -> VerificationReport:
    """Z(r) * Z(-r) = 1 wherever both factors are finite."""
    order = SpectralOrder.coerce(r)
    forward, forward_poles = z_gamma_grid(sig, order, jmax, kmax)
    backward, backward_poles = z_gamma_grid(sig, -order, jmax, kmax)
    finite = ~(forward_poles | backward_poles)
    residual, where = _worst(np.where(finite, forward * backward - 1.0, 0.0))
    compared = int(finite.sum())
    skipped = finite.size - compared
    return VerificationReport(
        name="inversion", p=sig.p, q=sig.q, r=order.r,
        jmax=jmax, kmax=kmax,
        max_residual=residual, tolerance=1e-12, worst_location=where if residual else None,
        extra={"compared": compared, "skipped": skipped},
    )


def check_loop_consistency(sig: Signature, r, jmax: int, kmax: int) -> VerificationReport:
    """Transition-ratio product around every closed lattice walk of length <= MAX_LOOP_LENGTH."""
    deviation = max_loop_deviation(sig, r, jmax, kmax)
    return VerificationReport(
        name="loop-consistency", p=sig.p, q=sig.q, r=SpectralOrder.coerce(r).r,
        jmax=jmax, kmax=kmax,
        max_residual=deviation, tolerance=1e-12,
        extra={"max_loop_length": MAX_LOOP_LENGTH},
    )


def _worst_over_seeds(check, sig: Signature, jmax: int, kmax: int, seed: int) -> VerificationReport:
    """The report with the largest residual of ``check(f, seed=s)`` over the 5 seeds s = seed, ..., seed + 4."""
    reports = [check(random_zonal(sig, jmax, kmax, s), seed=s) for s in range(seed, seed + 5)]
    return max(reports, key=lambda rep: rep.max_residual)


#: Every check, in the order verify runs them, as its report of (sig, r, jmax, kmax, seed).  Each entry
#: looks its callees up in this module's globals when called, so a name rebound here (as by
#: perfbench/tracing.py) takes effect.  Loops stay within an 11 x 11 window.
CHECKS = {
    "lemma1": lambda sig, r, jmax, kmax, seed: _worst_over_seeds(
        partial(check_lemma1, sig, grid=quadrature_grid(sig, jmax + 1, kmax + 1)), sig, jmax, kmax, seed),
    "intertwining": lambda sig, r, jmax, kmax, seed: _worst_over_seeds(
        partial(check_intertwining, sig, r, spectrum=z_spectral_grid(sig, r, jmax + 1, kmax + 1)),
        sig, jmax, kmax, seed),
    "method-agreement": lambda sig, r, jmax, kmax, seed: check_method_agreement(sig, r, jmax, kmax),
    "conformal-laplacian": lambda sig, r, jmax, kmax, seed: check_conformal_laplacian(sig, jmax, kmax),
    "inversion": lambda sig, r, jmax, kmax, seed: check_inversion(sig, r, jmax, kmax),
    "loop-consistency": lambda sig, r, jmax, kmax, seed: check_loop_consistency(
        sig, r, min(jmax, 10), min(kmax, 10)),
}

DEFAULT_CHECKS = tuple(CHECKS)


def run_suite(sig: Signature, r, jmax: int = 8, kmax: int = 8, seed: int = 0,
              checks=DEFAULT_CHECKS) -> list[VerificationReport]:
    """Run the named checks; random-function checks use seeds seed, ..., seed + 4."""
    reports = []
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
        reports.append(CHECKS[name](sig, r, jmax, kmax, seed))
    return reports
