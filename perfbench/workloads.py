"""Operation lists of the benchmark workloads, generated from the workload seed.

Each workload is a fixed list of CLI argument vectors.  The seed fixes the
request-mix stream and the ``--seed`` of verify operations; the program sees
only the generated argv.  Generation uses ``random.Random`` only, so the
lists are byte-identical for a given seed on every platform.

``{out}`` in an argv is replaced by the worker with a path inside its
scratch directory before the call.
"""

from __future__ import annotations

import random

#: Verify check names, spelled as the CLI accepts them.
CHECKS = (
    "lemma1",
    "intertwining",
    "method-agreement",
    "conformal-laplacian",
    "inversion",
    "loop-consistency",
)

WORKLOADS = ("spectrum-large", "verify-suite", "request-mix")

#: Window sides of request-mix operations: jmax, kmax in 2..12.
MIX_SIDES = range(2, 13)
#: Every (unordered) pair of distinct checks appears this often: twice per
#: order kind, once per window-side stratum.
MIX_PAIR_REPEATS = 6
#: Every (jmax, kmax) window appears this often among spectrum requests.
MIX_WINDOW_REPEATS = 2
#: Seed of the request-mix design: the part of the stream that sets its work.
MIX_DESIGN_SEED = 20100729


def spectrum_large(seed: int) -> list[list[str]]:
    """Two 81 x 81 tables of (p, q) = (2, 3): CSV at r = 0.37, JSON at r = 2."""
    del seed  # the operations are fixed; the seed only moves the oracle sample
    base = ["spectrum", "--p", "2", "--q", "3", "--jmax", "80", "--kmax", "80"]
    return [
        base + ["--r", "0.37", "--format", "csv", "--output", "{out}/large-0.csv"],
        base + ["--r", "2", "--format", "json", "--output", "{out}/large-1.json"],
    ]


def verify_suite(seed: int) -> list[list[str]]:
    """Every check at n = 32 for r = 0.37 and r = 2, then lemma1 at n = 128."""
    base = ["verify", "--p", "2", "--q", "3"]
    return [
        base + ["--r", "0.37", "--jmax", "32", "--kmax", "32", "--seed", str(seed), "--all"],
        base + ["--r", "2", "--jmax", "32", "--kmax", "32", "--seed", str(seed), "--all"],
        base + ["--jmax", "128", "--kmax", "128", "--seed", str(seed), "--check", "lemma1"],
    ]


def _order_value(design: random.Random, rng: random.Random, kind: str) -> str:
    if kind == "integer":
        return str(design.randint(1, 4))
    if kind == "half":
        return str(design.randint(0, 3) + 0.5)
    while True:  # generic: keep 2r at least 0.02 away from every integer
        r = round(rng.uniform(0.05, 4.45), 3)
        if abs(2 * r - round(2 * r)) >= 0.02:
            return repr(r)


def _strata(design: random.Random) -> list[int]:
    """One window side from each of [2, 3], [4, 5], ..., [10, 11], [12], shuffled."""
    sides = [min(low + design.randint(0, 1), MIX_SIDES[-1]) for low in MIX_SIDES[::2]]
    design.shuffle(sides)
    return sides


def _order_kinds(design: random.Random, n: int) -> list[str]:
    """Half generic reals, a quarter integers 1-4, a quarter half-integers."""
    kinds = ["generic"] * (n - 2 * (n // 4)) + ["integer"] * (n // 4) + ["half"] * (n // 4)
    design.shuffle(kinds)
    return kinds


def request_mix(seed: int) -> list[list[str]]:
    """A seeded stream of small spectrum (about 70%) and two-check verify requests.

    What sets the amount of work is a fixed balanced design, drawn from
    MIX_DESIGN_SEED: the signatures, the windows (every (jmax, kmax) appears
    MIX_WINDOW_REPEATS times among spectrum requests), the order kinds and
    the integer and half-integer orders, the formats, and the check pairs
    (each pair MIX_PAIR_REPEATS times, in both orders, twice per order kind,
    with one window side from each size stratum).  The workload seed draws
    the stream: the order of the requests, the generic orders and the
    verify seeds.  So the work and the latency tail barely depend on the
    seed, while the seed still changes every input value it can.
    """
    design = random.Random(MIX_DESIGN_SEED)
    rng = random.Random(seed)
    windows = [(j, k) for j in MIX_SIDES for k in MIX_SIDES]

    spectrum_windows = windows * MIX_WINDOW_REPEATS
    design.shuffle(spectrum_windows)
    formats = ["csv", "json"] * (len(spectrum_windows) // 2)
    design.shuffle(formats)
    kinds = _order_kinds(design, len(spectrum_windows))
    ops = []
    for (jmax, kmax), fmt, kind in zip(spectrum_windows, formats, kinds):
        p, q = design.randint(1, 6), design.randint(1, 6)
        ops.append(["spectrum", "--p", str(p), "--q", str(q), "--r", _order_value(design, rng, kind),
                    "--jmax", str(jmax), "--kmax", str(kmax), "--format", fmt])

    for a, b in [(a, b) for i, a in enumerate(CHECKS) for b in CHECKS[i + 1:]]:
        jsides, ksides = _strata(design), _strata(design)
        for n, kind in enumerate(["generic", "integer", "half"] * (MIX_PAIR_REPEATS // 3)):
            first, second = (a, b) if n % 2 == 0 else (b, a)
            p, q = design.randint(1, 6), design.randint(1, 6)
            ops.append(["verify", "--p", str(p), "--q", str(q),
                        "--r", _order_value(design, rng, kind),
                        "--jmax", str(jsides[n]), "--kmax", str(ksides[n]),
                        "--seed", str(rng.randrange(1000)), "--check", first, "--check", second])
    rng.shuffle(ops)
    return ops


def operations(workload: str, seed: int) -> list[list[str]]:
    """The argv list of ``workload`` for ``seed``."""
    if workload == "spectrum-large":
        return spectrum_large(seed)
    if workload == "verify-suite":
        return verify_suite(seed)
    if workload == "request-mix":
        return request_mix(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
