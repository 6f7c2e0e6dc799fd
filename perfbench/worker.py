"""One pass of a workload in a fresh interpreter: python3 worker.py SPEC RESULT.

SPEC is a JSON file {"src", "scratch", "ops", "trace", "spans"}.  The worker
times ``import intertwinor.cli`` (set-up), then calls ``intertwinor.cli.main``
in-process on each argv in turn, one client in a closed loop, capturing what
it prints.  It writes per-operation exit codes, start times, latencies and
output, its peak RSS, a machine block and, when tracing, the per-layer
summary to RESULT.

Between operations, at most every PROBE_EVERY_S, it times a fixed
pure-Python reference kernel (``probe``); the caller uses these to correct
latencies for the speed of the machine at the time (see run.py).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


PROBE_EVERY_S = 0.2


def probe() -> tuple[float, float]:
    """Time a fixed interpreter-bound kernel; returns (end time, duration)."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(120_000):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + (i * i) % 13
        acc += len(str(key)) if i % 16 == 0 else 1
    end = time.perf_counter()
    return end, end - start


def _blas_threads():
    """Thread count reported by the BLAS numpy loaded, or None if unknown."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _machine():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    probes = [probe()]
    start = time.perf_counter()
    import intertwinor.cli
    setup = [start, time.perf_counter() - start]
    probes.append(probe())

    import intertwinor
    if not os.path.abspath(intertwinor.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise SystemExit(f"imported {intertwinor.__file__}, not the package under {spec['src']}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(intertwinor)

    results = []
    for index, argv in enumerate(spec["ops"]):
        if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append(probe())
        argv = [arg.replace("{out}", spec["scratch"]) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        begin = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = intertwinor.cli.main(argv)
                else:
                    rc = tracer.run_op(index, intertwinor.cli.main, argv)
            except SystemExit as exc:  # argparse rejects a flag
                rc = exc.code
            except Exception:  # an operation that raises counts as failed; keep going
                error = traceback.format_exc()
        elapsed = time.perf_counter() - begin
        results.append({"rc": rc, "start": begin, "s": elapsed, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "error": error})

    probes.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {"setup": setup, "probes": probes, "peak_rss_mb": peak_rss_mb, "ops": results,
              "machine": _machine()}
    if tracer is not None:
        report["layer_times"], report["layer_counts"] = tracer.summary()
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
