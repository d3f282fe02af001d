"""The four benchmark workloads: inputs, one timed pass, correctness checks.

A pass is the workload's calls into freeconv, timed in process after import.
Every Monte Carlo pass goes through `freeconv.cli.main` at the reference
configuration of its `verify-*` command, with the sample count scaled down;
the workload seed is the command's master seed, and every pass of a run
repeats the same seed, so their outputs must be byte-identical.

The checks do not use the reference pass/fail gates, which are calibrated
for the full sample counts (`verify-dbm` at 200 pairs fails its 0.08 gate
with KS 0.095).  An operation is one Monte Carlo sample or pair, one density
grid point, one classical location, or one check; an exception, a
non-finite value, a NaN density point or a failed check fails it.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from freeconv import cli, edge, harness, measure, rmt, tracywidom

# Kolmogorov 1% critical value c(0.01) = sqrt(ln(2 / 0.01) / 2).
_KS_C01 = math.sqrt(math.log(200.0) / 2.0)

REPORT_KEYS = {"tag", "n_samples", "ks_statistic", "threshold", "pass", "config", "stats"}
EDGE_KEYS = {"e_plus", "xi", "gamma", "omega1_edge", "omega2_edge", "scaled_edge",
             "method", "residual"}


@dataclass(frozen=True)
class Workload:
    name: str
    run: object            # (workload, seed, out_dir) -> outcome; the timed pass
    check: object          # (workload, seed, out_dir, outcome) -> Tally
    build_inputs: object   # (workload, seed) -> inputs; what set-up time covers
    n_samples: int = 0


class Tally:
    """Attempted and failed operations, with the names of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def ops(self, name, ok):
        """One operation per entry of the boolean array `ok`."""
        ok = np.asarray(ok, dtype=bool)
        bad = int(np.sum(~ok))
        self.attempted += int(ok.size)
        self.failed += bad
        if bad:
            self.failures.append("%s: %d of %d failed" % (name, bad, ok.size))


def ks_critical_1pct(n, m=None):
    """1% critical value of the one-sample (n) or two-sample (n, m) KS test.

    One-sample: Stephens' small-sample form c / (sqrt n + 0.12 + 0.11 / sqrt n);
    two-sample: the asymptotic c sqrt((n + m) / (n m)).
    """
    if m is None:
        r = math.sqrt(n)
        return _KS_C01 / (r + 0.12 + 0.11 / r)
    return _KS_C01 * math.sqrt((n + m) / (n * m))


def semicircle_locations(n, top_k):
    """Exact classical locations of the standard semicircle on [-2, 2]:
    gamma_j leaves tail mass (j - 1/2)/n above it."""
    target = 1.0 - (np.arange(1, top_k + 1) - 0.5) / n
    lo, hi = np.full(top_k, -2.0), np.full(top_k, 2.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        u = mid / 2.0
        cdf = 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / np.pi
        below = cdf < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _finite_row(cells):
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------- Monte Carlo

# Reference configurations of the verify commands (their bare defaults).
MC_COMMANDS = {
    "mc-tw-gue": ("verify-tw", "point_mass:0", "point_mass:0", 1.0, 400),
    "mc-dbm-uniform": ("verify-dbm", "uniform:-1,1", "uniform:-1,1", 0.0, 300),
    "mc-local-law-uniform": ("verify-local-law", "uniform:-1,1", "uniform:-1,1", 0.0, None),
}
LOCAL_LAW_SIZES = (250, 500, 1000)
SAMPLE_HEADERS = {
    "tw": ["sample_index", "value"],
    "dbm": ["sample_index", "value", "value_flowed"],
    "local-law": ["size", "sample_index", "entry_error", "avg_error", "upsilon",
                  "subordination_error"],
}


def _mc_run(wl, seed, out_dir):
    command = MC_COMMANDS[wl.name][0]
    return cli.main([command, "--n-samples", str(wl.n_samples), "--seed", str(seed),
                     "--out-dir", out_dir])


def _mc_build_inputs(wl, seed):
    """What the verify command builds before its first experiment call."""
    command, spec1, spec2, t, n = MC_COMMANDS[wl.name]
    mu1 = cli.parse_measure("mu1", spec1)
    mu2 = cli.parse_measure("mu2", spec2)
    extra = {}
    if n is None:
        n = max(LOCAL_LAW_SIZES)
        extra["sizes"] = LOCAL_LAW_SIZES
    spec = rmt.EnsembleSpec(n, measure.quantiles(mu1, n), measure.quantiles(mu2, n), t, seed)
    cfg = harness.ExperimentConfig(ensemble=spec, n_samples=wl.n_samples, mu1=mu1, mu2=mu2,
                                   t=t, **extra)
    ev = tracywidom.TWEvaluator(40) if command == "verify-tw" else None
    return cfg, ev


def _mc_check(wl, seed, out_dir, rc):
    tally = Tally()
    tally.check("exit code %r in (0, 1)" % (rc,), rc in (0, 1))
    try:
        report = _read_json(os.path.join(out_dir, "report.json"))
        header, rows = _read_csv(os.path.join(out_dir, "samples.csv"))
    except (OSError, ValueError, IndexError) as exc:
        tally.check("outputs parse: %s" % exc, False)
        return tally
    tag = report.get("tag")
    per_sample = wl.n_samples * (len(LOCAL_LAW_SIZES) if tag == "local-law" else 1)
    tally.check("report.json schema",
                set(report) == REPORT_KEYS and report["n_samples"] == wl.n_samples
                and tag == {"mc-tw-gue": "tw", "mc-dbm-uniform": "dbm",
                            "mc-local-law-uniform": "local-law"}[wl.name])
    tally.check("samples.csv schema",
                header == SAMPLE_HEADERS.get(tag) and len(rows) == per_sample
                and all(len(r) == len(header) for r in rows))
    tally.ops("finite sample", [_finite_row(r) for r in rows] or [False])
    ks = report.get("ks_statistic", math.nan)
    if wl.name == "mc-tw-gue":
        crit = ks_critical_1pct(wl.n_samples)
        tally.check("KS %.4g within 1%% critical %.4g" % (ks, crit), ks <= crit)
        stats = report.get("stats", {})
        tally.check("GUE edge e_plus = 2, gamma = 1 to 1e-10",
                    abs(stats.get("e_plus", math.nan) - 2.0) <= 1e-10
                    and abs(stats.get("gamma", math.nan) - 1.0) <= 1e-10)
    elif wl.name == "mc-dbm-uniform":
        crit = ks_critical_1pct(wl.n_samples, wl.n_samples)
        tally.check("two-sample KS %.4g within 1%% critical %.4g" % (ks, crit), ks <= crit)
    return tally


# --------------------------------------------------------------------- theory

CONVOLVES = (
    ("closed-form", "uniform:-1,1", "uniform:-1,1", 0.0),
    ("quadrature", "arcsine:-1,1", "uniform:-1,1", 0.5),
)
RIGIDITY = ("point_mass:0", "point_mass:0", 1.0, 1000, 100)   # verify-rigidity reference
CONVOLVE_GRID = 400


def _theory_build_inputs(wl, seed):
    measures = [(cli.parse_measure("mu1", a), cli.parse_measure("mu2", b))
                for _, a, b, _ in CONVOLVES]
    measures.append((cli.parse_measure("mu1", RIGIDITY[0]),
                     cli.parse_measure("mu2", RIGIDITY[1])))
    return measures


def _theory_run(wl, seed, out_dir):
    codes = []
    for tag, a, b, t in CONVOLVES:
        codes.append(cli.main(["convolve", "--mu1", a, "--mu2", b, "--t", repr(t),
                               "--out-dir", os.path.join(out_dir, tag)]))
    mu1 = cli.parse_measure("mu1", RIGIDITY[0])
    mu2 = cli.parse_measure("mu2", RIGIDITY[1])
    locs = edge.classical_locations(mu1, mu2, *RIGIDITY[2:])
    return codes, locs


def _theory_check(wl, seed, out_dir, outcome):
    codes, locs = outcome
    tally = Tally()
    for (tag, _, _, _), rc in zip(CONVOLVES, codes):
        tally.check("%s convolve exit code %r" % (tag, rc), rc == 0)
        try:
            header, rows = _read_csv(os.path.join(out_dir, tag, "density.csv"))
            rec = _read_json(os.path.join(out_dir, tag, "edge.json"))
            grid = np.array([[float(c) for c in r] for r in rows])
        except (OSError, ValueError, IndexError) as exc:
            tally.check("%s outputs parse: %s" % (tag, exc), False)
            continue
        tally.check("%s density.csv schema" % tag,
                    header == ["x", "density"] and grid.shape == (CONVOLVE_GRID, 2))
        tally.check("%s edge.json schema" % tag, set(rec) == EDGE_KEYS)
        tally.ops("%s density point" % tag, np.isfinite(grid[:, 1]))
        integral = float(np.trapezoid(grid[:, 1], grid[:, 0]))
        tally.check("%s density integral %.6f within 1e-3 of 1" % (tag, integral),
                    abs(integral - 1.0) <= 1e-3)
    n, top_k = RIGIDITY[3:]
    locs = np.asarray(locs, dtype=float)
    if tally.check("classical locations count", locs.shape == (top_k,)):
        err = np.abs(locs - semicircle_locations(n, top_k))
        tally.ops("classical location within 1e-5 of the semicircle", err <= 1e-5)
    return tally


# Why each workload was chosen: which layer it loads, and which ROADMAP change
# should show on it and which should not.  The one-line form is the `why` of
# each workload in BENCHMARK.json.
WORKLOADS = {
    wl.name: wl for wl in (
        # verify-tw reference (point_mass:0 pair, t=1, N=400), 40 samples.  About
        # 0.11 s per sample plus 2.3-3.4 s for tw2_mean and tw2_variance; at 16
        # samples the pure-Python F2 share made run-to-run spread twice as wide.
        # Loads the N=400 eigensolve and the F2 evaluator; b is constant, so the
        # Haar draw is pure overhead: ROADMAP 3a (skip it) and 3b (Lanczos) show
        # here, as does the single-table tw2_moments of item 4.  No subordination
        # work, so theory-side vectorization predicts no change.
        Workload("mc-tw-gue", _mc_run, _mc_check, _mc_build_inputs, n_samples=40),
        # verify-dbm reference (uniform pair, t=0, N=300), 48 pairs.  About 0.07 s
        # per pair: one Haar draw and two eigensolves per pair, plus two edge
        # solves with a density-fit gamma.  b is not constant, so 3a predicts no
        # change; the two eigensolves are where 3b and 3c's warm start show.  No F2.
        Workload("mc-dbm-uniform", _mc_run, _mc_check, _mc_build_inputs, n_samples=48),
        # verify-local-law reference (uniform pair, sizes 250/500/1000), 3 samples
        # per size, about 1 s per sample across the sizes.  The only workload
        # calling rmt.resolvent_probe (a dense inverse at N=1000) and the only
        # one solving subordination over N-atom measures.  No eigensolve, so
        # Lanczos (3b) predicts no change; peak memory is set here.
        Workload("mc-local-law-uniform", _mc_run, _mc_check, _mc_build_inputs, n_samples=3),
        # Three theory calls, no random matrices: convolve uniform+uniform at t=0
        # (closed-form Stieltjes, ~0.2 s), convolve arcsine+uniform at t=0.5
        # (quadrature Stieltjes, ~1.7 s) and classical_locations at the
        # verify-rigidity reference (point_mass:0 pair, t=1, n=1000, top_k=100;
        # 11-22 s, bound by fixed-point iterations; the uniform pair takes 1.2 s).
        # The scalar loops of measure, subordination and edge take the time:
        # ROADMAP 4 (vectorization) and 5 (Newton fallback) show here; Monte
        # Carlo changes predict no change.  The rigidity sampling is left out,
        # since it is the mc-tw-gue code path.  The inputs are fixed; the seed
        # is only recorded.
        Workload("theory-sweep", _theory_run, _theory_check, _theory_build_inputs),
    )
}
