"""Spans and counters around the package's layers, installed from outside it.

``Tracer.install`` rebinds public functions under the names the importing
modules use (``cli.recursion_spectrum``, ``verify.apply_T_via_lemma``,
``spectrum.neighbor``, ...), so no program file changes.  Coarse layer
boundaries record a span each; hot leaves in ``geometry`` and ``spectrum``
only count calls.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import time

#: (module, attribute, span name): calls that cross into another layer.
SPANS = (
    ("cli", "recursion_spectrum", "spectrum.recursion"),
    ("cli", "z_spectral", "closedform.z_spectral"),
    ("cli", "z_gamma_ratio", "closedform.z_gamma_ratio"),
    ("cli", "run_suite", "verify.run_suite"),
    ("verify", "recursion_spectrum", "spectrum.recursion"),
    ("verify", "max_loop_deviation", "spectrum.loops"),
    ("verify", "z_spectral", "closedform.z_spectral"),
    ("verify", "z_gamma_ratio", "closedform.z_gamma_ratio"),
    ("verify", "singular_ktypes", "closedform.singular_ktypes"),
    ("verify", "factorized_eigenvalue_exact", "closedform.factorized"),
    ("verify", "conformal_laplacian_eigenvalue_exact", "closedform.conformal_laplacian"),
    ("verify", "check_lemma1", "verify.check.lemma1"),
    ("verify", "check_intertwining", "verify.check.intertwining"),
    ("verify", "check_method_agreement", "verify.check.method_agreement"),
    ("verify", "check_conformal_laplacian", "verify.check.conformal_laplacian"),
    ("verify", "check_inversion", "verify.check.inversion"),
    ("verify", "check_loop_consistency", "verify.check.loop_consistency"),
    ("verify", "apply_T_numeric", "zonal.apply_T_numeric"),
    ("verify", "apply_T_via_lemma", "zonal.apply_T_via_lemma"),
    ("verify", "evaluate", "zonal.evaluate"),
    ("verify", "multiply_by_varpi", "zonal.multiply_by_varpi"),
    ("verify", "quadrature_grid", "zonal.quadrature_grid"),
    ("closedform", "factorized_eigenvalue_exact", "closedform.factorized"),
    ("closedform", "parity_constant", "closedform.parity_constant"),
)

#: (module, attribute, counter name): hot leaves, counted only.
COUNTERS = (
    ("spectrum", "neighbor", "geometry.neighbor_calls"),
    ("spectrum", "doubled_shifts", "geometry.doubled_shifts_calls"),
    ("closedform", "doubled_shifts", "geometry.doubled_shifts_calls"),
    ("cli", "doubled_shifts", "geometry.doubled_shifts_calls"),
    ("spectrum", "transition_ratio", "spectrum.transition_ratio_calls"),
    ("spectrum", "is_singular_edge", "spectrum.singular_edge_tests"),
    ("closedform", "z_gamma_ratio", "closedform.gamma_ratio_calls"),
)

GAMMA_RATIO = "closedform.gamma_ratio_calls"
GAMMA_POLES = "closedform.gamma_ratio_poles"
ROOT = "cli.main"

# Index of each field in a span record.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span and counter store of one worker pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1

    def install(self, package) -> None:
        """Rebind the traced names in the modules of ``package``."""
        modules = {name: getattr(package, name) for name in ("cli", "verify", "spectrum", "closedform")}
        pole = package.closedform.PoleAtKType
        for module, attr, name in SPANS:
            fn = getattr(modules[module], attr)
            if attr == "z_gamma_ratio":
                fn = self._pole_counter(fn, pole)
            setattr(modules[module], attr, self._span(name, fn))
        for module, attr, name in COUNTERS:
            fn = getattr(modules[module], attr)
            if attr == "z_gamma_ratio":
                setattr(modules[module], attr, self._pole_counter(fn, pole))
            else:
                setattr(modules[module], attr, self._counter(name, fn))
        for name in ("spectrum.table_entries", "spectrum.singular_edges", "verify.checks_run",
                     GAMMA_RATIO, GAMMA_POLES):
            self.counts.setdefault(name, 0)

    def run_op(self, index: int, fn, *args):
        """Call ``fn(*args)`` as operation ``index`` under a root span."""
        self._op = index
        return self._span(ROOT, fn)(*args)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self._op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if name == "spectrum.recursion":
                counts["spectrum.table_entries"] += len(result.entries)
                counts["spectrum.singular_edges"] += len(result.singular_edges)
            elif name == "verify.run_suite":
                counts["verify.checks_run"] += len(result)
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _pole_counter(self, fn, pole):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[GAMMA_RATIO] += 1
            try:
                return fn(*args, **kwargs)
            except pole:
                counts[GAMMA_POLES] += 1
                raise

        return counted

    def summary(self) -> tuple[dict, dict]:
        """(times in seconds, counts) of this pass, keyed by metric name."""
        total = {}
        calls = {}
        self_ns = {}
        covered = [0] * len(self.spans)
        for span in self.spans:
            duration = span[END] - span[START]
            if span[PARENT] >= 0:
                covered[span[PARENT]] += duration
        for index, span in enumerate(self.spans):
            name = span[NAME]
            duration = span[END] - span[START]
            total[name] = total.get(name, 0) + duration
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + duration - covered[index]

        def seconds(ns):
            return ns / 1e9

        def by_prefix(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        times = {
            "spectrum.recursion_s": seconds(total.get("spectrum.recursion", 0)),
            "spectrum.loops_s": seconds(total.get("spectrum.loops", 0)),
            "closedform.z_spectral_s": seconds(total.get("closedform.z_spectral", 0)),
            "closedform.factorized_s": seconds(total.get("closedform.factorized", 0)),
            "closedform.parity_constant_s": seconds(total.get("closedform.parity_constant", 0)),
            "zonal.s": seconds(by_prefix(total, "zonal.")),
            "zonal.quadrature_grid_s": seconds(total.get("zonal.quadrature_grid", 0)),
            "verify.self_s": seconds(by_prefix(self_ns, "verify.")),
            "cli.self_s": seconds(self_ns.get(ROOT, 0)),
        }
        for check in ("lemma1", "intertwining", "method_agreement", "conformal_laplacian",
                      "inversion", "loop_consistency"):
            times[f"verify.{check}_s"] = seconds(total.get(f"verify.check.{check}", 0))
        counts = {
            "spectrum.recursion_calls": calls.get("spectrum.recursion", 0),
            "spectrum.loops_calls": calls.get("spectrum.loops", 0),
            "closedform.z_spectral_calls": calls.get("closedform.z_spectral", 0),
            "closedform.factorized_calls": calls.get("closedform.factorized", 0),
            "closedform.parity_constant_calls": calls.get("closedform.parity_constant", 0),
            "zonal.calls": sum(v for k, v in calls.items() if k.startswith("zonal.")),
            **self.counts,
        }
        return times, counts

    def dump(self) -> dict:
        return {"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.spans}
