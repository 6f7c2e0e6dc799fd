"""Paired benchmark runs of two trees: the unchanged perfbench/run.py, alternating which tree runs first.

    python tools/pairs.py --base REV
    python tools/pairs.py --base HEAD~1 --workload spectrum-large --pairs 10 --seconds 5 --write

The base is git revision REV of this checkout, its ``src/`` and ``perfbench/`` exported with git archive; the head
is this checkout's working tree.  Pair i (from 0) runs
``perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0`` once per side and workload, the base first
in even pairs and the head first in odd ones.  Both sides run from one path: before each run the ``src/`` and
``perfbench/`` there are replaced by the side's, so the directory cannot tell the two apart.  Both share one
bytecode state, which the output names: no ``__pycache__`` is copied and the runs write none
(PYTHONDONTWRITEBYTECODE=1), so every pass compiles ``src/`` from source.

Printed: one line per run with its end-to-end values; per workload and metric, both sides' medians and
quartiles, the change of the median and the pairs the head won (a strictly better value); then one
``summary:`` line.  ``--write`` writes BENCH_<n>.json at the root of this checkout, n one past the highest
there: the machine block, per workload the median and quartiles of every metric of each side, the defect
counts and the pairs won.  The script exits 0 when every run read correct with no failed operation, 1 when
one did not, and 2 when a run or the export failed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("spectrum-large", "verify-suite", "request-mix")
#: The end-to-end metrics of perfbench/run.py, all lower-is-better, then its outcome values.
METRICS = ("setup_s", "wall_s", "req_p50_s", "req_p95_s", "peak_rss_mb")
OUTCOME = ("rows_per_s", "failed_frac", "wrong_values", "checks_failed")
HIGHER_IS_BETTER = {"rows_per_s"}
#: What a side needs to run the benchmark; the rest of a checkout stays out of the shared path.
TREE = ("src", "perfbench")
#: The bytecode state of every run, as the output names it.
BYTECODE = "no bytecode (PYTHONDONTWRITEBYTECODE=1, no __pycache__)"


def _export(rev: str, into: Path) -> str:
    """Extract the src/ and perfbench/ of git revision ``rev`` of this checkout under ``into``; its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True)
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *TREE], capture_output=True)
    if commit.returncode or done.returncode:
        raise RuntimeError(f"git cannot export {rev}: {(commit.stderr + done.stderr.decode()).strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        archive.extractall(into, filter="data")
    return commit.stdout.strip()


def _install(side: Path, checkout: Path) -> None:
    """Replace the src/ and perfbench/ of ``checkout`` by the side's, without bytecode or benchmark output."""
    for name in TREE:
        shutil.rmtree(checkout / name, ignore_errors=True)
        shutil.copytree(side / name, checkout / name, ignore=shutil.ignore_patterns("__pycache__", "out"))


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result file of one perfbench/run.py run in ``checkout``, with its printed end-to-end values."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"perfbench/run.py exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    path = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "machine": result["machine"], **{name: result["metrics"][name]["value"] for name in METRICS},
            **{name: result["outcome"][name] for name in OUTCOME}}


def _stats(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, inclusive) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def _won(head: float, base: float, name: str) -> bool:
    return head > base if name in HIGHER_IS_BETTER else head < base


def summarize(runs: dict) -> dict:
    """Per workload: each side's statistics of every metric (wrong_values and checks_failed among them), its
    incorrect runs and failed operations, and the pairs the head won."""
    out = {}
    for workload, pairs in runs.items():
        sides = {side: [pair[side] for pair in pairs] for side in ("base", "head")}
        out[workload] = {
            "pairs": len(pairs),
            **{side: {name: _stats([run[name] for run in side_runs]) for name in METRICS + OUTCOME}
               for side, side_runs in sides.items()},
            "defects": {side: {"incorrect_runs": sum(not run["correct"] for run in side_runs),
                               "failed_operations": sum(run["failed"] for run in side_runs),
                               "attempted_operations": sum(run["attempted"] for run in side_runs)}
                        for side, side_runs in sides.items()},
            "head_won": {name: sum(_won(pair["head"][name], pair["base"][name], name) for pair in pairs)
                         for name in METRICS + OUTCOME},
        }
    return out


def _print_summary(summary: dict) -> None:
    for workload, entry in summary.items():
        print(f"{workload}: {entry['pairs']} pairs; median [q1, q3] of each side, change of the median, "
              "pairs the head won")
        for name in METRICS + OUTCOME:
            base, head = entry["base"][name], entry["head"][name]
            change = (head["median"] / base["median"] - 1) * 100 if base["median"] else 0.0
            print(f"  {name:14s} base {base['median']:.6g} [{base['q1']:.6g}, {base['q3']:.6g}]  "
                  f"head {head['median']:.6g} [{head['q1']:.6g}, {head['q3']:.6g}]  {change:+.1f}%  "
                  f"{entry['head_won'][name]}/{entry['pairs']}")


def _next_bench_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base tree")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all three)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=5, help="--seconds of each perfbench/run.py run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--write", action="store_true", help="write BENCH_<n>.json at the root of this checkout")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    workloads = args.workload or list(WORKLOADS)

    runs = {workload: [] for workload in workloads}
    machine = None
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        try:
            sides = {"base": Path(tmp, "base"), "head": ROOT}
            base = f"{args.base} = {_export(args.base, sides['base'])}"
            checkout = Path(tmp, "checkout")
            print(f"{BYTECODE}; every run from {checkout}; base {base}, head the working tree of {ROOT}")
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for workload in workloads:
                    pair = {}
                    for side in order:
                        _install(sides[side], checkout)
                        pair[side] = run = _run(checkout, workload, args.seed + i, args.seconds)
                        machine = run.pop("machine")
                        values = " ".join(f"{name} {run[name]:.6g}" for name in METRICS)
                        print(f"pair {i + 1} seed {args.seed + i} {workload} {side}: {values}"
                              f"{'' if run['correct'] and not run['failed'] else '  NOT CORRECT'}", flush=True)
                    runs[workload].append(pair)
        except (RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    summary = summarize(runs)
    _print_summary(summary)
    bad = sum(entry["defects"][side]["incorrect_runs"] + entry["defects"][side]["failed_operations"]
              for entry in summary.values() for side in ("base", "head"))
    print(f"summary: {len(workloads)} workloads, {args.pairs} pairs, {BYTECODE}, "
          f"{'every run correct' if not bad else f'{bad} incorrect runs or failed operations'}")
    if args.write:
        path = _next_bench_path()
        bench = {"machine": machine, "bytecode": BYTECODE, "seconds": args.seconds, "seeds":
                 [args.seed, args.seed + args.pairs - 1], "base": base, "workloads": summary}
        path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
