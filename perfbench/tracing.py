"""Per-layer tracing of freeconv from outside the package.

Spans are recorded around calls into the public functions of the seven
modules by replacing each function, for the duration of one traced pass,
under every name a caller looks it up by.  `edge` imports `solve` and
`density_sweep` by name, so both `freeconv.subordination.solve` and
`freeconv.edge.solve` are replaced; the eigensolve is attributed to `rmt`
by replacing `numpy.linalg.eigvalsh`, which both `rmt` and `harness` call.
The Stieltjes transforms run millions of times per theory pass, so they are
counted, not spanned.  A function a later version of the package no longer
has is skipped, and its metrics read 0.

Spans stay in memory (name, start, end, parent) and are written out when the
benchmark ends.  A span's self time is its duration minus the time its child
spans cover; a layer's self time is the sum over its spans.  The stack is a
plain list, so tracing assumes the single-threaded `workers=1` runs the
benchmark makes.
"""

import collections
import contextlib
import importlib
import statistics
import sys
import time

import numpy as np

_clock = time.perf_counter

# span name -> every (module, attribute) the function is looked up under
SPANNED = {
    "cli.main": [("freeconv.cli", "main")],
    "harness.run_tw_experiment": [("freeconv.harness", "run_tw_experiment")],
    "harness.run_local_law_experiment": [("freeconv.harness", "run_local_law_experiment")],
    "harness.run_dbm_comparison": [("freeconv.harness", "run_dbm_comparison")],
    "harness.ks_statistic": [("freeconv.harness", "ks_statistic")],
    "harness.write_report": [("freeconv.harness", "write_report")],
    "tracywidom.tw2_cdf": [("freeconv.tracywidom", "tw2_cdf")],
    "tracywidom.tw2_mean": [("freeconv.tracywidom", "tw2_mean")],
    "tracywidom.tw2_variance": [("freeconv.tracywidom", "tw2_variance")],
    "rmt.sample_stream": [("freeconv.rmt", "sample_stream")],
    "rmt.sample_haar_unitary": [("freeconv.rmt", "sample_haar_unitary")],
    "rmt.sample_gue": [("freeconv.rmt", "sample_gue")],
    "rmt.build_matrix": [("freeconv.rmt", "build_matrix")],
    "rmt.assemble": [("freeconv.rmt", "assemble")],
    "rmt.resolvent_probe": [("freeconv.rmt", "resolvent_probe")],
    "rmt.eigensolve": [("numpy.linalg", "eigvalsh")],
    "subordination.solve": [("freeconv.subordination", "solve"), ("freeconv.edge", "solve")],
    "subordination.density_sweep": [("freeconv.subordination", "density_sweep"),
                                    ("freeconv.edge", "density_sweep")],
    "edge.find_edge_stability": [("freeconv.edge", "find_edge_stability")],
    "edge.gamma_from_density_fit": [("freeconv.edge", "gamma_from_density_fit")],
    "edge.classical_locations": [("freeconv.edge", "classical_locations")],
    "edge.stability_diagnostics": [("freeconv.edge", "stability_diagnostics")],
    "measure.quantiles": [("freeconv.measure", "quantiles")],
}

# Spans recorded only for calls made from these modules: numpy's own
# `leggauss` (behind TWEvaluator) also calls eigvalsh.
CALLERS = {"rmt.eigensolve": ("freeconv.rmt", "freeconv.harness")}

COUNTED = {
    "measure.stieltjes": [("freeconv.measure", "stieltjes")],
    "measure.stieltjes_derivative": [("freeconv.measure", "stieltjes_derivative")],
}

LAYERS = ("cli", "harness", "tracywidom", "rmt", "subordination", "edge")


def _dense_flops(n, is_complex, kind):
    """Textbook LAPACK flop counts; complex arithmetic costs 4 real flops.

    qr: geqrf plus the explicit Q (4/3 + 4/3) n^3; eigensolve: Hermitian
    reduction to tridiagonal form, 4/3 n^3 (eigenvalues only); inverse:
    getrf plus getri, 2 n^3.
    """
    base = {"qr": 8.0 / 3.0, "eig": 4.0 / 3.0, "inv": 2.0}[kind] * float(n) ** 3
    return base * (4.0 if is_complex else 1.0)


class Tracer:
    """Spans, counters and per-call values for one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, child seconds]
        self._stack = []
        self.counts = collections.Counter()
        self.values = collections.defaultdict(list)
        self.flops = 0.0

    # -- hooks: (args, kwargs) -> (args, kwargs) before, result -> None after
    def _before_ks(self, args, kwargs):
        if len(args) > 1 and callable(args[1]):
            cdf = args[1]

            def counted_cdf(s):
                self.counts["harness.ks_statistic.cdf_evals"] += 1
                return cdf(s)
            args = (args[0], counted_cdf) + tuple(args[2:])
        return args, kwargs

    def _before_sample_stream(self, args, kwargs):
        self.values["rmt.sample_stream.at"].append(_clock())
        return args, kwargs

    def _before_haar(self, args, kwargs):
        self.flops += _dense_flops(int(args[0]), True, "qr")
        return args, kwargs

    def _before_eig(self, args, kwargs):
        a = np.asarray(args[0])
        self.flops += _dense_flops(a.shape[-1], np.iscomplexobj(a), "eig")
        return args, kwargs

    def _before_inverse(self, args, kwargs):
        h = np.asarray(args[0])
        self.flops += _dense_flops(h.shape[-1], True, "inv")
        return args, kwargs

    def _after_solve(self, sol):
        self.values["subordination.solve.iterations"].append(int(sol.iterations))

    def _after_sweep(self, result):
        rho = np.asarray(result[0])
        self.counts["subordination.density_sweep.points"] += int(rho.size)
        self.counts["subordination.density_sweep.failed_points"] += int(np.sum(~np.isfinite(rho)))

    def _after_edge(self, rep):
        self.values["edge.residual"].append(float(rep.residual))

    def _hooks(self, name):
        return {
            "harness.ks_statistic": (self._before_ks, None),
            "rmt.sample_stream": (self._before_sample_stream, None),
            "rmt.sample_haar_unitary": (self._before_haar, None),
            "rmt.eigensolve": (self._before_eig, None),
            "rmt.resolvent_probe": (self._before_inverse, None),
            "subordination.solve": (None, self._after_solve),
            "subordination.density_sweep": (None, self._after_sweep),
            "edge.find_edge_stability": (None, self._after_edge),
        }.get(name, (None, None))

    def spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        before, after = self._hooks(name)
        callers = CALLERS.get(name)

        def wrapper(*args, **kwargs):
            if callers and sys._getframe(1).f_globals.get("__name__") not in callers:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                rec[2] = _clock()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][4] += rec[2] - rec[1]
            if after is not None:
                after(result)
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function for the duration of the block."""
        saved = []
        try:
            for table, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
                for name, sites in table.items():
                    wrapped = {}
                    for module_name, attr in sites:
                        module = importlib.import_module(module_name)
                        orig = getattr(module, attr, None)
                        if orig is None:
                            continue
                        if id(orig) not in wrapped:
                            wrapped[id(orig)] = make(name, orig)
                        saved.append((module, attr, orig))
                        setattr(module, attr, wrapped[id(orig)])
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p, _ in self.spans]

    def metrics(self):
        """Per-layer metrics of this pass, every name present (0 when unused)."""
        calls = collections.Counter()
        total = collections.Counter()
        self_s = collections.Counter()
        for name, start, end, _, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name.split(".")[0]] += end - start - child
        iters = self.values["subordination.solve.iterations"]
        stamps = self.values["rmt.sample_stream.at"]
        gaps_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
        residuals = self.values["edge.residual"]
        out = {
            "rmt.sample_stream.calls": calls["rmt.sample_stream"],
            "rmt.sample.p50_ms": _percentile(gaps_ms, 50),
            "rmt.sample.p90_ms": _percentile(gaps_ms, 90),
            "rmt.dense_gflop_computed": self.flops / 1e9,
            "tracywidom.tw2_cdf.calls": calls["tracywidom.tw2_cdf"],
            "harness.experiment.s": sum(total[n] for n in SPANNED if n.startswith("harness.run_")),
            "harness.ks_statistic.cdf_evals": self.counts["harness.ks_statistic.cdf_evals"],
            "subordination.solve.calls": calls["subordination.solve"],
            "subordination.solve.iterations": sum(iters),
            "subordination.solve.iters_p50": _percentile(iters, 50),
            "subordination.solve.iters_max": max(iters, default=0),
            "subordination.solve.failed": self.counts["subordination.solve.failed"],
            "subordination.density_sweep.points": self.counts["subordination.density_sweep.points"],
            "subordination.density_sweep.failed_points":
                self.counts["subordination.density_sweep.failed_points"],
            "edge.find_edge_stability.calls": calls["edge.find_edge_stability"],
            "edge.residual_max": max(residuals, default=0.0),
            "measure.stieltjes.calls": self.counts["measure.stieltjes"],
            "measure.stieltjes_derivative.calls": self.counts["measure.stieltjes_derivative"],
        }
        for name in ("rmt.sample_haar_unitary", "rmt.sample_gue", "rmt.eigensolve",
                     "rmt.resolvent_probe"):
            out[name + ".calls"] = calls[name]
        for name in ("rmt.sample_haar_unitary", "rmt.sample_gue", "rmt.build_matrix",
                     "rmt.eigensolve", "rmt.resolvent_probe", "tracywidom.tw2_cdf",
                     "tracywidom.tw2_mean", "tracywidom.tw2_variance",
                     "harness.ks_statistic", "harness.write_report",
                     "subordination.solve", "subordination.density_sweep",
                     "edge.find_edge_stability", "edge.gamma_from_density_fit",
                     "edge.classical_locations", "measure.quantiles", "cli.main"):
            out[name + ".s"] = total[name]
        for layer in LAYERS:
            out[layer + ".self_s"] = self_s[layer]
        return out


def _percentile(values, q):
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median_metrics(per_pass):
    """Per-key median over passes (counts repeat exactly across passes)."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
