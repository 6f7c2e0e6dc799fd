"""The intertwinor benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload request-mix --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each pass runs the workload's fixed operation list in a
fresh worker interpreter (cold ``lru_cache``s, as for a CLI user), and passes
repeat until ``--seconds`` is used up.  Every output is checked against the
independent oracle, computed once per seed before the first pass.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
#: No pass starts, and every pass is stopped, this long after the run began.
RUN_LIMIT_S = 165
#: Duration of worker.probe at the fast phase of a 2-vCPU Xeon KVM guest
#: (Python 3.11).  Only the unit of the corrected times depends on it.
PROBE_REFERENCE_S = 0.019

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "req_p50_s": ("s", "lower"),
    "req_p95_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Outcome metrics of the untraced passes; reported with the layers because
#: they are 0 on some workloads (rows_per_s on verify-suite, the rest on
#: spectrum-large) and an end-to-end metric must never read 0.
OUTCOME = {
    "rows_per_s": ("1/s", "higher"),
    "failed_frac": ("frac", "lower"),
    "wrong_values": ("count", "lower"),
    "checks_failed": ("count", "lower"),
}

PER_LAYER_TIMES = (
    "spectrum.recursion_s", "spectrum.loops_s", "closedform.z_spectral_s",
    "closedform.factorized_s", "closedform.parity_constant_s", "zonal.s",
    "zonal.quadrature_grid_s", "verify.self_s", "verify.lemma1_s", "verify.intertwining_s",
    "verify.method_agreement_s", "verify.conformal_laplacian_s", "verify.inversion_s",
    "verify.loop_consistency_s", "cli.self_s",
)
PER_LAYER_COUNTS = (
    "spectrum.recursion_calls", "spectrum.transition_ratio_calls",
    "spectrum.singular_edge_tests", "spectrum.table_entries", "spectrum.singular_edges",
    "spectrum.loops_calls", "geometry.neighbor_calls", "geometry.doubled_shifts_calls",
    "closedform.z_spectral_calls", "closedform.gamma_ratio_calls", "closedform.factorized_calls",
    "closedform.parity_constant_calls", "zonal.calls", "verify.checks_run",
    "cli.rows", "cli.bytes_written",
)

PER_LAYER = {
    **{name: ("s", "lower") for name in PER_LAYER_TIMES},
    **{name: ("count", "lower") for name in PER_LAYER_COUNTS},
    "closedform.pole_frac": ("frac", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    **OUTCOME,
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    # Cap BLAS threads at the core count, through the worker's environment only.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


class Judge:
    """Checks each pass's outputs; identical outputs are judged once."""

    def __init__(self, expectations, scratch):
        self.expectations, self.scratch = expectations, scratch
        self._cache = {}

    def _file_text(self, index):
        path = self.expectations[index].output
        if path == "-":
            return None
        path = path.replace("{out}", self.scratch)
        try:
            with open(path, encoding="ascii") as handle:
                return handle.read()
        except OSError:
            return None
        finally:
            if os.path.exists(path):
                os.remove(path)

    def judge(self, report):
        verdicts, written = [], 0
        for index, op in enumerate(report["ops"]):
            text = self._file_text(index) if op["rc"] == 0 else None
            written += len(op["stdout"].encode()) + (len(text.encode()) if text else 0)
            digest = hashlib.sha256(json.dumps(
                [index, op["rc"], op["stdout"], op["stderr"], op["error"], text]).encode()).digest()
            if digest not in self._cache:
                self._cache[digest] = check.check_op(self.expectations[index], op["rc"], op["stdout"],
                                                     op["stderr"], op["error"], text)
            verdicts.append(self._cache[digest])
        return verdicts, written


def _speed_factors(report):
    """PROBE_REFERENCE_S over the mean of the probes just before and after each interval.

    A shared 2-vCPU KVM guest was seen to run the same code up to 1.5x slower
    for seconds to minutes at a time; the probes slow down with it, so a
    latency times its factor is the latency at the reference speed.
    Returns the factor of the set-up and of each operation.  The import
    time moves with only about 0.4 of the probes' slowdown (log-log slope
    0.34-0.46 over 30 runs of the three workloads), so the set-up takes the
    square root of the factor of the pass's median probe.
    """
    ends = [end for end, _ in report["probes"]]
    durations = [duration for _, duration in report["probes"]]

    def factor(start, elapsed):
        before = durations[bisect.bisect_right(ends, start) - 1]
        after = durations[bisect.bisect_right(ends, start + elapsed)]
        return 2 * PROBE_REFERENCE_S / (before + after)

    return (math.sqrt(PROBE_REFERENCE_S / statistics.median(durations)),
            [factor(op["start"], op["s"]) for op in report["ops"]])


def _pass_summary(report, verdicts, written):
    setup_factor, factors = _speed_factors(report)
    raw = [op["s"] for op in report["ops"]]
    latencies = [t * f for t, f in zip(raw, factors)]
    failed = sum(v.failed is not None for v in verdicts)
    return {
        "setup_s": report["setup"][1] * setup_factor,
        "raw_setup_s": report["setup"][1],
        "peak_rss_mb": report["peak_rss_mb"],
        "latencies": latencies,
        "raw_latencies": raw,
        "speed_factor": sum(latencies) / sum(raw),
        "failed": failed,
        "failed_frac": failed / len(verdicts),
        "wrong_values": sum(v.wrong for v in verdicts),
        "checks_failed": sum(v.check_failed for v in verdicts),
        "cli.rows": sum(v.rows for v in verdicts),
        "cli.bytes_written": written,
    }


def _timings(passes, ops):
    """Latency metrics of ``passes``.

    ``wall_s`` sums each operation's median latency.  The percentiles are
    taken over every latency of every pass when at least ten lie beyond the
    95th percentile; otherwise (two or three long operations) over the
    per-operation medians.
    """
    latencies = [statistics.median(t) for t in zip(*(s["latencies"] for s in passes))]
    pooled = [t for s in passes for t in s["latencies"]]
    cuts = statistics.quantiles(pooled if len(pooled) >= 200 else latencies, n=20,
                                method="inclusive")
    spectrum_s = sum(t for t, argv in zip(latencies, ops) if argv[0] == "spectrum")
    return {
        "setup_s": statistics.median(s["setup_s"] for s in passes),
        "wall_s": sum(latencies),
        "req_p50_s": cuts[9],
        "req_p95_s": cuts[18],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in passes),
        "rows_per_s": passes[0]["cli.rows"] / spectrum_s if spectrum_s else 0.0,
    }


#: Pass values that must repeat exactly for a seed.
REPEATED = ("failed", "wrong_values", "checks_failed", "cli.rows", "cli.bytes_written")


def _run_pass(ops, traced, paths, env, deadline):
    spec = {"src": paths["src"], "scratch": paths["scratch"], "ops": ops, "trace": traced,
            "spans": paths["spans"]}
    with open(paths["spec"], "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), paths["spec"],
                           paths["report"]], env=env, cwd=paths["root"], capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(paths["report"], encoding="utf-8") as handle:
        return json.load(handle)


def _print_metric(name, value, unit, better):
    print(f"  {name:34s} {value:>16.6g} {unit:6s} {better} is better")


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "intertwinor", "cli.py")):
        print(f"error: no intertwinor sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    ops = workloads.operations(args.workload, args.seed)
    expectations = oracle.expectations(ops, args.seed)
    oracle_s = time.monotonic() - started

    out = os.path.join(HERE, "out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(out, f"{tag}-{os.getpid()}")
    os.makedirs(scratch)
    paths = {"root": root, "src": src, "scratch": scratch,
             "spec": os.path.join(scratch, "spec.json"),
             "report": os.path.join(scratch, "report.json"),
             "spans": os.path.join(out, f"spans-{tag}.json")}
    env = _worker_env(nproc)
    judge = Judge(expectations, scratch)
    plain, traced, problems, unexplained = [], [], [], set()
    machine = None
    try:
        start = time.monotonic()
        durations = []
        while not durations or time.monotonic() + max(durations[-2:]) <= deadline:
            enough = len(plain) + len(traced) >= (2 * MIN_PASSES if args.trace else MIN_PASSES)
            if enough and time.monotonic() - start + max(durations[-2:]) > args.seconds:
                break
            is_traced = bool(args.trace) and len(plain) > len(traced)
            begin = time.monotonic()
            report = _run_pass(ops, is_traced, paths, env, deadline)
            durations.append(time.monotonic() - begin)
            verdicts, written = judge.judge(report)
            for v in verdicts:
                unexplained.update(v.unexplained)
                if v.failed:
                    unexplained.add(f"failed operation: {v.failed[:300]}")
            summary = _pass_summary(report, verdicts, written)
            machine = report["machine"]
            if is_traced:
                summary["layer_times"] = report["layer_times"]
                summary["layer_counts"] = report["layer_counts"]
                traced.append(summary)
            else:
                plain.append(summary)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = plain + traced
    for key in REPEATED:
        if len({s[key] for s in everything}) != 1:
            problems.append(f"{key} differs between passes: {[s[key] for s in everything]}")
    if traced and any(s["layer_counts"] != traced[0]["layer_counts"] for s in traced):
        problems.append("traced counts differ between passes")

    timings = _timings(plain, ops)
    e2e = {name: timings[name] for name in END_TO_END}
    outcome = {name: timings[name] if name == "rows_per_s" else plain[0][name] for name in OUTCOME}
    layers = {}
    if traced:
        for name in PER_LAYER_TIMES:
            layers[name] = statistics.median(s["layer_times"][name] * s["speed_factor"]
                                             for s in traced)
        counts = traced[0]["layer_counts"]
        for name in PER_LAYER_COUNTS:
            layers[name] = counts[name] if name in counts else traced[0][name]
        attempts = counts["closedform.gamma_ratio_calls"]
        layers["closedform.pole_frac"] = counts["closedform.gamma_ratio_poles"] / attempts \
            if attempts else 0.0
        layers["trace.overhead_frac"] = _timings(traced, ops)["wall_s"] / e2e["wall_s"] - 1.0
        layers.update(outcome)

    attempted = len(ops) * len(everything)
    failed = sum(s["failed"] for s in everything)
    correct = not problems and not unexplained
    machine = {**machine, "nproc": nproc}

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes; oracle {oracle_s:.2f} s")
    raw_wall = sum(statistics.median(t) for t in zip(*(s["raw_latencies"] for s in plain)))
    raw_setup = statistics.median(s["raw_setup_s"] for s in plain)
    factors = " ".join(f"{s['speed_factor']:.3f}" for s in plain)
    print(f"uncorrected: setup_s {raw_setup:.6g} s, wall_s {raw_wall:.6g} s; "
          f"speed factor of each pass: {factors}")
    print("end to end (medians over untraced passes, at reference speed):")
    for name, (unit, better) in {**END_TO_END, **OUTCOME}.items():
        _print_metric(name, {**e2e, **outcome}[name], unit, better)
    if layers:
        print("per layer (medians over traced passes):")
        for name, (unit, better) in PER_LAYER.items():
            _print_metric(name, layers[name], unit, better)
    for line in sorted(problems) + sorted(unexplained)[:20]:
        print(f"problem: {line}", file=sys.stderr)

    table = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({**result, "machine": machine, "outcome": outcome, "problems": problems,
                   "unexplained": sorted(unexplained), "passes": everything}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
