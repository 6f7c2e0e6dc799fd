"""Independent oracle for what ``intertwinor spectrum`` and ``verify`` print.

Imports nothing from the package.  The eigenvalue is transcribed from the
statement of the closed form: on the parity class eps = (j + k) mod 2,

    mu(j, k) = prod_i Gamma(c_i + s_i r/2) / Gamma(c_i - s_i r/2),

    c = ((K+J+1)/2, (K-J+1)/2, (eps-(p-q)/2+1)/2, (eps+(p+q)/2)/2),
    s = (+1, +1, -1, -1),   J = j + (p-1)/2,  K = k + (q-1)/2,

evaluated with mpmath at DPS digits from exact Fraction arguments.  For a
positive integer r the spectrum is a class constant times the polynomial
prod_{m<r} (K+J+1-r+2m)(K-J+1-r+2m), kept as an exact Fraction.  Where the
Gamma route meets a pole, values are taken as limits r' -> r from exact
rational offsets of r (see ``limit``).  Pole and reachability sets are exact.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache

import mpmath

from workloads import CHECKS

DPS = 60
#: Offsets d of the limit evaluation; exact, so no rounding enters r +/- d.
#: A pole of order m costs about 11m of the DPS digits.
DELTAS = (Fraction(1, 10**8), Fraction(1, 10**11))
#: Relative tolerance of a printed float against the oracle value.
RTOL = 1e-10
#: Bound on every printed max_rel_disagreement.
MAX_DISAGREEMENT = 1e-10
#: Sampled rows per spectrum operation: at least this many, or every row.
MIN_SAMPLE = 12
#: ... and at least one row in SAMPLE_STRIDE of a large table.
SAMPLE_STRIDE = 16

LABELS = ("pole", "zero-denominator")
CSV_HEADER = ("j,k,J,K,parity,mu_recursion,mu_closed_form,"
              "mu_factorized_or_blank,max_rel_disagreement")


class OracleError(RuntimeError):
    """The oracle's own assumptions failed; its verdicts cannot be trusted."""


def shifted(p: int, q: int, j: int, k: int) -> tuple[Fraction, Fraction]:
    """(J, K) = (j + (p-1)/2, k + (q-1)/2)."""
    return Fraction(2 * j + p - 1, 2), Fraction(2 * k + q - 1, 2)


def _gamma_pairs(p, q, j, k):
    J, K = shifted(p, q, j, k)
    eps = (j + k) % 2
    return (((K + J + 1) / 2, 1), ((K - J + 1) / 2, 1),
            ((eps - Fraction(p - q, 2) + 1) / 2, -1), ((eps + Fraction(p + q, 2)) / 2, -1))


def gamma_arguments(p, q, r: Fraction, j, k) -> list[Fraction]:
    """The four numerator and four denominator Gamma arguments, exactly."""
    pairs = _gamma_pairs(p, q, j, k)
    return [c + s * r / 2 for c, s in pairs] + [c - s * r / 2 for c, s in pairs]


def has_gamma_pole(p, q, r: Fraction, j, k) -> bool:
    """True when some Gamma argument is a nonpositive integer."""
    return any(a.denominator == 1 and a <= 0 for a in gamma_arguments(p, q, r, j, k))


@mpmath.workdps(DPS)
def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


@mpmath.workdps(DPS)
def gamma_ratio(p, q, r: Fraction, j, k):
    """The eight-Gamma ratio at exactly r; mpmath raises at an argument pole."""
    value = mpmath.mpf(1)
    for c, s in _gamma_pairs(p, q, j, k):
        value *= mpmath.gamma(_mpf(c + s * r / 2)) / mpmath.gamma(_mpf(c - s * r / 2))
    return value


@mpmath.workdps(DPS)
def limit(f, r: Fraction):
    """The symmetric limit of (f(r + d) + f(r - d))/2 as d -> 0, or None if it diverges.

    This is the "r +/- delta" convention of the class constants: odd-order
    Laurent terms cancel, so a simple pole leaves its finite part.  The
    average is even in d, so a surviving pole grows by at least
    (DELTAS[0]/DELTAS[1])^2 between the two offsets, a zero limit shrinks by
    as much, and a finite nonzero limit moves by O(d^2).
    """
    near, nearer = ((f(r + d) + f(r - d)) / 2 for d in DELTAS)
    if abs(nearer) > 1e2 * abs(near):
        return None
    if 1e2 * abs(nearer) < abs(near):
        return mpmath.mpf(0)
    return nearer


def factorized(p, q, r: int, j, k) -> Fraction:
    """prod_{m<r} (K+J+1-r+2m)(K-J+1-r+2m), exactly."""
    J, K = shifted(p, q, j, k)
    out = Fraction(1)
    for m in range(r):
        out *= (K + J + 1 - r + 2 * m) * (K - J + 1 - r + 2 * m)
    return out


def yamabe(p, q, j, k) -> Fraction:
    """Conformal-Laplacian (Yamabe) eigenvalue K^2 - J^2 of (-g_p + g_q)."""
    J, K = shifted(p, q, j, k)
    return K * K - J * J


def _probes(r: int, parity: int):
    """Class members in [0, 2r+8]^2, in (j + k, j) order."""
    side = range(2 * r + 9)
    return sorted(((j, k) for j in side for k in side if (j + k) % 2 == parity),
                  key=lambda v: (v[0] + v[1], v[0]))


@lru_cache(maxsize=None)
def _class_probe(p, q, r: int, parity: int) -> tuple[tuple[int, int], bool]:
    """The class member that fixes the constant, and whether its ratio is pole-free.

    The first member with a nonzero polynomial and no Gamma-argument pole;
    when [0, 2r+8]^2 holds none, the first member with a nonzero polynomial.
    """
    members = [v for v in _probes(r, parity) if factorized(p, q, r, *v)]
    if not members:
        raise OracleError(f"no probe with nonzero polynomial for ({p}, {q}), r = {r}")
    for v in members:
        if not has_gamma_pole(p, q, Fraction(r), *v):
            return v, True
    return members[0], False


def limit_convention_class(p, q, r: int, parity: int) -> bool:
    """True when no probe has a nonzero polynomial and a pole-free ratio.

    On these classes the program takes the constant from a float evaluation
    at r +/- 1e-6 (a known defect), so its closed-form values are not
    expected to match the oracle's constant.
    """
    return not _class_probe(p, q, r, parity)[1]


@lru_cache(maxsize=None)
@mpmath.workdps(DPS)
def class_constant(p, q, r: int, parity: int):
    """mu / polynomial on a parity class at integer r; None if it diverges.

    Exact at a pole-free probe; otherwise the symmetric r +/- delta limit.
    """
    (j, k), pole_free = _class_probe(p, q, r, parity)
    poly = _mpf(factorized(p, q, r, j, k))
    if pole_free:
        return gamma_ratio(p, q, Fraction(r), j, k) / poly
    return limit(lambda x: gamma_ratio(p, q, x, j, k) / poly, Fraction(r))


def reachable(p, q, r: Fraction, jmax: int, kmax: int, parity: int) -> set:
    """Window K-types joined to the base by edges with h != r (exact)."""
    start = (0, 0) if parity == 0 else (1, 0)
    seen = {start}
    todo = deque([start])
    while todo:
        j, k = todo.popleft()
        J, K = shifted(p, q, j, k)
        for sj in (1, -1):
            for sk in (1, -1):
                w = (j + sj, k + sk)
                if not (0 <= w[0] <= jmax and 0 <= w[1] <= kmax) or w in seen:
                    continue
                if sj * J + sk * K + 1 != r:
                    seen.add(w)
                    todo.append(w)
    return seen


def positive_integer(r: Fraction) -> int | None:
    return int(r) if r.denominator == 1 and r > 0 else None


@mpmath.workdps(DPS)
def closed_form(p, q, r: Fraction, j, k):
    """Expected mu_closed_form: mpf, "pole", or None (class constant diverges)."""
    n = positive_integer(r)
    if n is not None:
        c = class_constant(p, q, n, (j + k) % 2)
        return None if c is None else c * _mpf(factorized(p, q, n, j, k))
    if has_gamma_pole(p, q, r, j, k):
        return "pole"
    return gamma_ratio(p, q, r, j, k)


@mpmath.workdps(DPS)
def recursion_value(p, q, r: Fraction, j, k):
    """Expected mu_recursion of a reachable K-type: mu normalized at the base.

    The polynomial ratio at integer r; otherwise the Gamma ratio, as a limit
    where a pole sits at (j, k) or at the base.  None if that limit diverges.
    """
    bj = (j + k) % 2
    n = positive_integer(r)
    if n is not None and factorized(p, q, n, bj, 0):
        return _mpf(factorized(p, q, n, j, k) / factorized(p, q, n, bj, 0))
    if not (has_gamma_pole(p, q, r, j, k) or has_gamma_pole(p, q, r, bj, 0)):
        return gamma_ratio(p, q, r, j, k) / gamma_ratio(p, q, r, bj, 0)
    return limit(lambda x: gamma_ratio(p, q, x, j, k) / gamma_ratio(p, q, x, bj, 0), r)


def eigenvalue_scale(p, q, r: Fraction, jmax: int, kmax: int) -> float:
    """max |mu| over the non-pole K-types of the window (inf if a constant diverges)."""
    worst = 0.0
    for j in range(jmax + 1):
        for k in range(kmax + 1):
            mu = closed_form(p, q, r, j, k)
            if mu is None:
                return float("inf")
            if mu != "pole":
                worst = max(worst, abs(float(mu)))
    return worst


def zonal_scale(p, q, jmax: int, kmax: int) -> int:
    """Scale of the zonal samples of a unit-coefficient function of degree (jmax, kmax).

    The product of the largest basis values G_j(1) on the two axes, with
    G_j(1) = C(j + d - 2, j) for the Gegenbauer basis of a d-sphere (1 for
    Chebyshev, d = 1), times the degree for the derivative in T.
    """
    def peak(d, j):
        return 1 if d == 1 else math.comb(j + d - 2, j)

    return (jmax + kmax) * peak(p, jmax) * peak(q, kmax)


def _flag_values(argv):
    values = {}
    checks = []
    for flag, value in zip(argv[1:], argv[2:] + [None]):
        if flag == "--check":
            checks.append(value)
        elif flag.startswith("--"):
            values[flag[2:]] = value
    return values, checks


def sample_rows(seed: int, index: int, n_rows: int) -> list[int]:
    """Seeded row sample of one operation's table."""
    size = min(n_rows, max(MIN_SAMPLE, n_rows // SAMPLE_STRIDE))
    return sorted(random.Random(f"{seed}:{index}").sample(range(n_rows), size))


class Expectation:
    """What one operation must print, computed before any timed pass."""

    def __init__(self, argv: list[str], seed: int, index: int):
        values, checks = _flag_values(argv)
        self.command = argv[0]
        self.p, self.q = int(values["p"]), int(values["q"])
        self.r_text = values.get("r", "0.37")
        self.r = Fraction(self.r_text)
        self.jmax, self.kmax = int(values["jmax"]), int(values["kmax"])
        self.output = values.get("output", "-")
        if self.command == "verify":
            self.checks = CHECKS if ("all" in values or not checks) else tuple(checks)
            self._scale = None
            return
        self.format = values.get("format", "csv")
        p, q, r = self.p, self.q, self.r
        self.n_int = positive_integer(r)
        self.reach = {parity: reachable(p, q, r, self.jmax, self.kmax, parity) for parity in (0, 1)}
        n_rows = (self.jmax + 1) * (self.kmax + 1)
        self.sample = {}
        for row in sample_rows(seed, index, n_rows):
            j, k = divmod(row, self.kmax + 1)
            rec = recursion_value(p, q, r, j, k) if (j, k) in self.reach[(j + k) % 2] else None
            self.sample[row] = (rec, closed_form(p, q, r, j, k))

    def row_labels(self, j: int, k: int) -> tuple[bool, bool]:
        """(zero-denominator expected, pole expected) at (j, k)."""
        unreachable = (j, k) not in self.reach[(j + k) % 2]
        pole = self.n_int is None and has_gamma_pole(self.p, self.q, self.r, j, k)
        return unreachable, pole

    def known_closed_form_defect(self, j: int, k: int) -> bool:
        """Closed-form mismatch explained by the limit-convention constant."""
        return self.n_int is not None and limit_convention_class(
            self.p, self.q, self.n_int, (j + k) % 2)

    def eigenvalue_scale(self) -> float:
        if self._scale is None:
            self._scale = eigenvalue_scale(self.p, self.q, self.r, self.jmax, self.kmax)
        return self._scale


def expectations(ops: list[list[str]], seed: int) -> list[Expectation]:
    return [Expectation(argv, seed, i) for i, argv in enumerate(ops)]
