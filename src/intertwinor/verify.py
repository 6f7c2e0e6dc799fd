"""Verification harness: operator identities checked on band-limited functions.

Each check produces a VerificationReport with the worst residual, its
location, and the tolerance it was held to.  Reports are deterministic
given (signature, r, truncation, seed) and serialize to flat JSON.
"""

from __future__ import annotations

import numpy as np

from .closedform import (
    PoleAtKType,
    _factorized_numerator,
    conformal_laplacian_eigenvalue_exact,  # unused here; perfbench/tracing.py rebinds this name
    factorized_eigenvalue_exact,  # unused here; perfbench/tracing.py rebinds this name
    singular_ktypes,  # unused here; perfbench/tracing.py rebinds this name
    z_gamma_grid,
    z_gamma_ratio,  # unused here; perfbench/tracing.py rebinds this name
    z_spectral,
    z_spectral_grid,
)
from .geometry import (KType, Signature, SpectralOrder, _at_heads, check_window, doubled_shifts, scalar_curvature,
                       window_index)
from .spectrum import (
    MAX_LOOP_LENGTH,
    at_class_base,
    max_loop_deviation,
    recursion_spectrum,
    relative_difference,
)
from .zonal import (
    ZonalFunction,
    _varpi_commutator,
    apply_T_banded,
    apply_T_numeric,  # unused here; perfbench/tracing.py rebinds this name
    apply_T_via_lemma,
    evaluate,  # unused here; perfbench/tracing.py rebinds this name
    multiply_by_varpi,  # unused here; perfbench/tracing.py rebinds this name
    quadrature_grid,  # unused here; perfbench/tracing.py rebinds this name
)


class VerificationReport:
    """Outcome of one identity check; it passes when max_residual <= tolerance.  Equality is identity."""

    def __init__(self, name: str, p: int, q: int, r: float | None, jmax: int, kmax: int, max_residual: float,
                 tolerance: float, worst_location: tuple | None = None, extra: dict | None = None):
        self.name, self.p, self.q, self.r, self.jmax, self.kmax = name, p, q, r, jmax, kmax
        self.max_residual, self.tolerance, self.worst_location = max_residual, tolerance, worst_location
        self.extra = {} if extra is None else extra
        self.passed = max_residual <= tolerance

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


#: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the state increment and the two multipliers of its mix.
_GOLDEN_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _uniform_coefficients(seed: int, count: int, jmax: int, kmax: int) -> np.ndarray:
    """Shape (count, jmax + 1, kmax + 1): slice i holds the row-major outputs of SplitMix64 seeded with seed + i.

    Output t for seed s is mix(s + (t + 1) * gamma) mod 2^64, seeds reduced mod 2^64 as Python integers.
    Its top 53 bits u map to u / 2^52 - 1 in [-1, 1), exactly.  A negative jmax or kmax raises ValueError.
    """
    check_window(jmax, kmax, 0)
    state = np.arange(count, dtype=np.uint64) + np.uint64(seed % 2**64)
    steps = np.arange(1, (jmax + 1) * (kmax + 1) + 1, dtype=np.uint64) * np.uint64(_GOLDEN_GAMMA)
    z = state[:, None] + steps
    t = np.empty_like(z)  # the one buffer of every shift: no temporary the size of the stack
    z ^= np.right_shift(z, 30, out=t)
    z *= _MIX1
    z ^= np.right_shift(z, 27, out=t)
    z *= _MIX2
    z ^= np.right_shift(z, 31, out=t)
    z >>= 11
    u = np.multiply(z, 2.0**-52, out=t.view(float))  # the floats reuse the shift buffer
    u -= 1.0
    return u.reshape(count, jmax + 1, kmax + 1)


def random_zonal(sig: Signature, jmax: int, kmax: int, seed: int) -> ZonalFunction:
    """Band-limited test function with fixed-seed coefficients in [-1, 1), the same on every platform."""
    return ZonalFunction(sig, _uniform_coefficients(seed, 1, jmax, kmax)[0])


#: Seeded functions per random-function check: seeds seed, ..., seed + SEEDED_FUNCTIONS - 1.
SEEDED_FUNCTIONS = 5

#: Most K-types the seeded checks hold transients for at a time: they run on blocks of whole functions, at least
#: one function a block (see _seeded_report).  Every seeded stack up to 33 x 33 is one block; at blocks of 512
#: K-types, as a spectrum table is written (cli.TABLE_BLOCK_KTYPES), lemma1 and intertwining on 33 x 33 ran 2.7
#: and 1.8 times slower (warm, best of 7 x 20 calls).
BLOCK_KTYPES = 8192


def seeded_stack(sig: Signature, jmax: int, kmax: int, seed: int) -> ZonalFunction:
    """The SEEDED_FUNCTIONS test functions as one stack; slice i is random_zonal(sig, jmax, kmax, seed + i)."""
    return ZonalFunction(sig, _uniform_coefficients(seed, SEEDED_FUNCTIONS, jmax, kmax))


def _worst(delta: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Largest |delta| and its index, the first in C order on ties."""
    idx = np.unravel_index(np.argmax(np.abs(delta)), delta.shape)
    return float(np.abs(delta[idx])), tuple(int(i) for i in idx)


def _seeded_report(name: str, r, f: ZonalFunction, residual, tolerance: float,
                   seed: int | None) -> VerificationReport:
    """Report on the worst function of a stack, by residual relative to its coefficient sup-norm.

    ``residual(g)`` gives the residual coefficients of a sub-stack g of f's
    functions.  It runs on consecutive blocks of max(1, BLOCK_KTYPES // K-types
    per function) functions, so no transient holds more than one block.  Ties
    go to the lowest function, reported as seed + its index, then to the first
    (j, k) within it; a nan residual is the worst, the first one in that order.
    """
    stack = f.coeffs.reshape((-1,) + f.coeffs.shape[-2:])
    size = max(1, BLOCK_KTYPES // (stack.shape[1] * stack.shape[2]))
    worst, where = -np.inf, None
    for start in range(0, len(stack), size):
        block = ZonalFunction(f.sig, stack[start:start + size])
        scale = np.maximum(np.max(np.abs(block.coeffs), axis=(-2, -1), keepdims=True), 1e-14)
        value, (index, j, k) = _worst(residual(block) / scale)
        if value > worst or np.isnan(value) > np.isnan(worst):  # strict: an equal later block loses
            worst, where = value, (start + index, j, k)
    index, j, k = where
    return VerificationReport(
        name=name, p=f.sig.p, q=f.sig.q, r=r,
        jmax=f.jmax, kmax=f.kmax,
        max_residual=worst, tolerance=tolerance, worst_location=(j, k),
        extra={} if seed is None else {"seed": seed + index},
    )


def check_intertwining(r, f: ZonalFunction, seed: int | None = None) -> VerificationReport:
    """Residual of A(T + (n/2 - r) varpi) f = (T + (n/2 + r) varpi) A f.

    With T = (1/2)[N, varpi] - (n/2) varpi the n/2 terms cancel, so both
    sides are computed as A((1/2)[N, varpi] - r varpi) f and
    ((1/2)[N, varpi] + r varpi) A f, each with two multiplications by varpi.
    A acts diagonally by z_spectral_grid over f's window: on the commutator
    image of the left side, and on f before the commutator of the right.
    The residual is measured on interior coefficients (j <= jmax - 1,
    k <= kmax - 1 of the input truncation), relative to the coefficient
    sup-norm of f.  ``f`` may be a stack of functions along leading axes,
    such as seeded_stack; the report names the worst one.  First the check
    raises PoleAtKType at the first window pole, in (j, k) order, that the
    stack touches: where some function has a nonzero coefficient, or at a
    diagonal neighbour of one.  Both sides vanish at the other poles, whose
    eigenvalue is set to 0.  Then both sides run on one block of functions
    at a time (see _seeded_report), so memory beyond f and the eigenvalue
    grid is bounded by a block.  A term beyond the float range raises
    FloatingPointError.
    """
    order = SpectralOrder.coerce(r)
    mu, poles = z_spectral_grid(f.sig, order, f.jmax, f.kmax)
    present = (f.coeffs != 0.0).reshape((-1,) + mu.shape).any(axis=0)
    touched = present | _at_heads(present, False).any(axis=0)
    if (poles & touched).any():
        j, k = np.argwhere(poles & touched)[0].tolist()
        z_spectral(f.sig, order, KType(j, k))  # raises PoleAtKType naming the argument
    mu[poles] = 0.0
    interior = (Ellipsis, slice(max(f.jmax, 1)), slice(max(f.kmax, 1)))

    def delta(g: ZonalFunction) -> np.ndarray:
        left = _varpi_commutator(g, -order.r)[interior] * mu[interior]
        return left - _varpi_commutator(ZonalFunction(g.sig, g.coeffs * mu), order.r)[interior]

    with np.errstate(over="raise"):
        return _seeded_report("intertwining", order.r, f, delta, 1e-9, seed)


def check_lemma1(f: ZonalFunction, seed: int | None = None) -> VerificationReport:
    """Derivative route vs commutator route for the conformal vector field, on f or a stack (see _seeded_report).

    apply_T_banded and apply_T_via_lemma share no code; the worst location is the (j, k) of a coefficient.
    """
    return _seeded_report("lemma1", None, f, lambda g: apply_T_banded(g).coeffs - apply_T_via_lemma(g).coeffs,
                          1e-8, seed)


def check_method_agreement(sig: Signature, r, jmax: int, kmax: int) -> VerificationReport:
    """Recursion table vs base-normalized closed form, both parity classes.

    Entries with a numerator Gamma-argument pole, where the closed form is
    infinite, are the predicted exclusions: skipped and counted, and the
    recursion must reach exactly the other entries of each normalized class.
    Entries whose poles all sit in the denominator are compared at mu = 0.
    The worst entry is the first in (j, k) order of the even class, then of
    the odd one; a nan comparison is the worst and fails.  jmax or kmax
    below 1 raises ValueError.
    """
    check_window(jmax, kmax, 1)
    order = SpectralOrder.coerce(r)
    gamma, poles, infinite = z_gamma_grid(sig, order, jmax, kmax)
    mu = np.where(poles & ~infinite, 0.0, gamma)
    table = recursion_spectrum(sig, order, jmax, kmax)
    # A class whose base is singular has no closed-form normalization, so the
    # whole class is the predicted exclusion.  (The recursion may still
    # propagate ratios within its own reachable component.)
    normalized = ~at_class_base(poles)
    prediction_ok = not (normalized & (table.reached == infinite)).any()
    comparable = normalized & ~infinite & table.reached
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(comparable, relative_difference(mu / at_class_base(mu), table.values), 0.0)
    by_class = np.where(window_index(jmax + 1, kmax + 1).parity == np.arange(2)[:, None, None], rel, 0.0)  # even first
    residual, (_, *worst) = _worst(by_class)
    where = tuple(worst) if residual else None
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
    side, 4(K^2 - J^2) on the other.  A negative jmax or kmax raises ValueError.
    """
    check_window(jmax, kmax, 0)
    index = window_index(jmax + 1, kmax + 1)
    tj, tk = doubled_shifts(sig, index)
    mismatch = _factorized_numerator(sig, tj, tk, index.parity, 1) != tk * tk - tj * tj
    mismatches = int(mismatch.sum())
    where = tuple(np.argwhere(mismatch)[0].tolist()) if mismatches else None
    # (n-2)/(4(n-1)) * Scal must equal ((q-1)^2 - (p-1)^2)/4, exactly: both sides times 4(n-1), in integers.
    n = sig.n
    curvature_ok = n == 2 or (n - 2) * scalar_curvature(sig) == (n - 1) * ((sig.q - 1) ** 2 - (sig.p - 1) ** 2)
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
    forward, forward_poles, _ = z_gamma_grid(sig, order, jmax, kmax)
    backward, backward_poles, _ = z_gamma_grid(sig, -order, jmax, kmax)
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


#: Every check, in the order verify runs them, as its report of (sig, r, jmax, kmax, seed).  Each entry
#: looks its callees up in this module's globals when called, so a name rebound here (as by
#: perfbench/tracing.py) takes effect.  Loops stay within an 11 x 11 window.
CHECKS = {
    "lemma1": lambda sig, r, jmax, kmax, seed: check_lemma1(seeded_stack(sig, jmax, kmax, seed), seed=seed),
    "intertwining": lambda sig, r, jmax, kmax, seed: check_intertwining(
        r, seeded_stack(sig, jmax, kmax, seed), seed=seed),
    "method-agreement": lambda sig, r, jmax, kmax, seed: check_method_agreement(sig, r, jmax, kmax),
    "conformal-laplacian": lambda sig, r, jmax, kmax, seed: check_conformal_laplacian(sig, jmax, kmax),
    "inversion": lambda sig, r, jmax, kmax, seed: check_inversion(sig, r, jmax, kmax),
    "loop-consistency": lambda sig, r, jmax, kmax, seed: check_loop_consistency(
        sig, r, min(jmax, 10), min(kmax, 10)),
}

DEFAULT_CHECKS = tuple(CHECKS)


def run_suite(sig: Signature, r, jmax: int = 8, kmax: int = 8, seed: int = 0,
              checks=DEFAULT_CHECKS) -> list[VerificationReport]:
    """Run the named checks; random-function checks use the stack seeded_stack(sig, jmax, kmax, seed).

    Every name is resolved before any check runs: an unknown one raises ValueError at once.
    """
    checks = tuple(checks)
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}")
    return [CHECKS[name](sig, r, jmax, kmax, seed) for name in checks]
