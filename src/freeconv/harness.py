"""Monte Carlo experiments against the limiting edge theory.

Four experiments: Tracy-Widom rescaled top-eigenvalue law, local-law
resolvent decay across sizes, eigenvalue rigidity against classical
locations, and the short-time flow comparison with paired samples.  Each
returns an ExperimentReport whose decision statistic is compared against
a threshold; for the two distributional experiments that statistic is a
Kolmogorov-Smirnov distance, for the other two it is the decay ratio or
the rigidity percentile reported in the same slot.

The local-law decay ratio is taken over the per-size median of the
largest entry-local subordination error max_i |a_i - 1/G_ii - omega|,
which the local law controls directly.  The raw worst-entry resolvent
error max_i |G_ii - 1/(a_i - omega)| carries the deterministic factor
|a_i - omega|^-2, which grows as eta shrinks near the edge; it is still
recorded per sample, but not gated.

Each experiment maps one per-sample function of (spec, ..., k) over its
samples and reduces the results in index order.  Sample k draws only from
the stream (seed, k), so a large run can compute its samples in worker
processes (see _map), and the worker count changes no output.

write_json and write_csv write every file freeconv emits.
"""

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import edge as eg
from . import measure as ms
from . import rmt
from . import subordination as sub
from . import tracywidom as tw


def check_sizes(sizes):
    """sizes as a tuple of int; ValueError unless they are at least three
    integers >= 1, strictly increasing.  The local-law decay ratio reads
    the largest size over the smallest."""
    if not all(isinstance(n, numbers.Integral) for n in sizes):
        raise ValueError("sizes entries must be integers")
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 3:
        raise ValueError("sizes needs at least three entries")
    if min(sizes) < 1:
        raise ValueError("sizes entries must be >= 1")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    return sizes


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: rmt.EnsembleSpec
    n_samples: int
    mu1: ms.Measure
    mu2: ms.Measure
    t: float
    ks_threshold: float = 0.05
    eta_exponent: float = 0.6
    chi: float = 0.1
    sizes: tuple = ()
    top_k: int = 100
    rigidity_limit: float = 10.0

    def __post_init__(self):
        for name in ("n_samples", "top_k"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError("%s must be an integer" % name)
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0.0 < self.ks_threshold < 1.0:
            raise ValueError("ks_threshold must lie in (0, 1)")
        if not 0.0 < self.chi < 1.0 / 3.0:
            raise ValueError("chi must lie in (0, 1/3)")
        if not 0.0 < self.eta_exponent < 1.0:
            raise ValueError("eta_exponent must lie in (0, 1)")
        if self.ensemble.t != self.t:
            raise ValueError("ensemble time and theory time must agree")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        # the statistic is >= 0, so a limit <= 0 could never be met
        if not (math.isfinite(self.rigidity_limit) and self.rigidity_limit > 0):
            raise ValueError("rigidity_limit must be finite and > 0")
        # no sizes: the config is for another experiment than the local law
        object.__setattr__(self, "sizes", check_sizes(self.sizes) if len(self.sizes) else ())


@dataclass(frozen=True)
class ExperimentReport:
    tag: str
    n_samples: int
    ks_statistic: float
    threshold: float
    config: dict
    stats: dict
    records: tuple

    def __post_init__(self):
        if not self.ks_statistic >= 0:  # NaN fails this too
            raise ValueError("decision statistic must be >= 0")

    @property
    def passed(self):
        return bool(self.ks_statistic <= self.threshold)

    def to_json_dict(self):
        """Schema: tag, config echo, ks, pass, stats."""
        return {
            "tag": self.tag,
            "n_samples": self.n_samples,
            "ks_statistic": self.ks_statistic,
            "threshold": self.threshold,
            "pass": self.passed,
            "config": self.config,
            "stats": self.stats,
        }


def _sorted_sample(values):
    x = np.sort(np.asarray(values, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample")
    if np.isnan(x[-1]):  # np.sort puts every NaN last
        raise ValueError("sample contains NaN")
    return x


def ks_statistic(samples, cdf_or_samples):
    """One-sample (against a CDF callable) or two-sample KS sup-distance.

    A CDF callable is called once, on the sorted sample array.  An empty
    sample, a NaN entry in either sample, or a NaN CDF value is rejected.
    """
    x = _sorted_sample(samples)
    if callable(cdf_or_samples):
        f = np.asarray(cdf_or_samples(x), dtype=float)
        if np.isnan(f).any():
            raise ValueError("CDF is NaN at a sample")
        n = x.size
        upper = np.max(np.arange(1, n + 1) / n - f)
        lower = np.max(f - np.arange(0, n) / n)
        return float(max(upper, lower))
    y = _sorted_sample(cdf_or_samples)
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / x.size
    fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def _report(tag, cfg, statistic, threshold, stats, records, **echo):
    return ExperimentReport(
        tag=tag,
        n_samples=cfg.n_samples,
        ks_statistic=float(statistic),
        threshold=float(threshold),
        config={
            "n": cfg.ensemble.n,
            "seed": cfg.ensemble.seed,
            "t": cfg.t,
            "n_samples": cfg.n_samples,
            "mu1": cfg.mu1.echo(),
            "mu2": cfg.mu2.echo(),
            "ks_threshold": cfg.ks_threshold,
            "eta_exponent": cfg.eta_exponent,
            "chi": cfg.chi,
            **echo,
        },
        stats=stats,
        records=tuple(records),
    )


# Below these, a run's samples cost less than starting a pool.  Measured on
# 2 cores at one BLAS thread, the first 2-worker pool in a process starts
# its first task 0.19-0.24 s after it is built, since it starts the
# forkserver, which imports numpy and freeconv; a later pool forks from that
# server and starts its first task in about 0.02 s.
_POOL_MIN_N = 200
_POOL_MIN_SAMPLES_PER_WORKER = 8
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pool_size(n_tasks, n):
    """Worker processes for n_tasks samples whose largest matrix is n x n:
    one per usable core, with at least 8 samples each, and none below
    N = 200.  A result of 1 means the samples run in this process."""
    if n < _POOL_MIN_N:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, n_tasks // _POOL_MIN_SAMPLES_PER_WORKER))


def _map(fn, tasks, n):
    """[fn(*task) for task in tasks], in task order; n is the largest matrix
    size among the tasks.

    A run that _pool_size gives more than one worker is computed in a pool
    of workers forked from multiprocessing's forkserver ("spawn" where
    there is none).  The first pool in a process starts the server, which
    imports freeconv.harness, and with it numpy, once; later pools fork
    from it.  The server (under spawn, each worker) starts inside a window
    in which the three BLAS thread variables are 1, so every worker runs
    BLAS on one thread, and the directory holding freeconv leads
    PYTHONPATH: the server ignores the caller's sys.path, and without it
    the preload would fail silently and every worker would import numpy
    and freeconv again.  The window closes, restoring the caller's
    environment, once the tasks are submitted.  A forkserver that other code in this process started
    earlier is reused as it is, with its own preload and environment.  The
    pool is shut down and its workers joined before this returns, after
    cancelling what has not started if a task raised.  A task's result
    depends only on its arguments, so the worker count does not change it.
    """
    workers = _pool_size(len(tasks), n)
    if workers < 2:
        return [fn(*task) for task in tasks]
    # imported here, not at module level: they lengthen every start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(method)
    if method == "forkserver":
        ctx.set_forkserver_preload(["freeconv.harness"])
    pool = ProcessPoolExecutor(workers, mp_context=ctx)
    try:
        saved = {name: os.environ.get(name) for name in (*_BLAS_THREAD_VARS, "PYTHONPATH")}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        package_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (package_parent,
                                                                  saved["PYTHONPATH"])))
        try:
            # the first `workers` submissions start the workers, and the
            # first of those the server if none is running
            futures = [pool.submit(fn, *task) for task in tasks]
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _top_sample(spec, t0, k):
    """lambda_max of sample k, lambda_max after a flow of length t0 (no flow
    for t0 <= 0), and the number of dense fallbacks taken."""
    rng = rmt.sample_stream(spec.seed, k)
    # W is not kept: it would stay alive, an n x n array, through the Lanczos
    h = rmt.sample_matrix(spec, rng)[0]
    lam0, fell_back = rmt.top_eigenvalue(h, spec.seed)
    if not t0 > 0:
        return lam0, lam0, fell_back
    h = h + math.sqrt(t0) * rmt.sample_gue(spec.n, rng)
    lam1, fell_back1 = rmt.top_eigenvalue(h, spec.seed)
    return lam0, lam1, fell_back + fell_back1


# _local_law_sample returns these, in this order, and then the entry-local
# error, which is gated rather than recorded
_LOCAL_LAW_COLUMNS = ("entry_error", "avg_error", "upsilon", "subordination_error")


def _local_law_sample(spec, z, omega, k):
    """Resolvent errors of sample k at z against the subordination point omega:
    worst-entry and averaged G_ii - 1/(a_i - omega), |upsilon|,
    |omega_a_c - omega| and the largest entry-local error |a_i - 1/G_ii - omega|."""
    h, w = rmt.sample_matrix(spec, rmt.sample_stream(spec.seed, k))
    a = spec.a_diag
    probe = rmt.resolvent_probe(h, a, spec.t, z, w)
    diff = probe.g_diag - 1.0 / (a - omega)
    # Im G_ii > 0 for Im z > 0, so 1 / G_ii is always finite.
    local = a - 1.0 / probe.g_diag - omega
    return (float(np.max(np.abs(diff))), abs(complex(np.mean(diff))),
            abs(probe.upsilon), abs(probe.omega_a_c - omega),
            float(np.max(np.abs(local))))


def _rigidity_sample(spec, gammas, weights, k):
    """Largest weighted deviation of the top len(gammas) eigenvalues of sample k."""
    h = rmt.sample_matrix(spec, rmt.sample_stream(spec.seed, k))[0]
    dev = np.abs(rmt.descending_eigenvalues(h, spec.seed)[:len(gammas)] - gammas)
    return float(np.max(weights * dev))


def run_tw_experiment(cfg):
    """Rescaled top eigenvalue against the Tracy-Widom beta=2 law."""
    rep = eg.find_edge_stability(cfg.mu1, cfg.mu2, cfg.t)
    ev = tw.TWEvaluator()
    n = cfg.ensemble.n
    scale = rep.gamma * n ** (2.0 / 3.0)

    tasks = [(cfg.ensemble, 0.0, k) for k in range(cfg.n_samples)]
    lam, _, fallbacks = zip(*_map(_top_sample, tasks, n))
    xs = scale * (np.array(lam) - rep.e_plus)
    ks = ks_statistic(xs, lambda s: tw.tw2_cdf(ev, s))
    tw_mean, tw_variance = tw.tw2_moments(ev)
    stats = {
        "e_plus": rep.e_plus,
        "gamma": rep.gamma,
        "mean_rescaled": float(np.mean(xs)),
        "variance_rescaled": float(np.var(xs)),
        "tw_mean": tw_mean,
        "tw_variance": tw_variance,
        "dense_fallbacks": sum(fallbacks),
    }
    records = [{"sample_index": k, "value": float(v)} for k, v in enumerate(xs)]
    return _report("tw", cfg, ks, cfg.ks_threshold, stats, records)


def run_local_law_experiment(cfg):
    """Entrywise local-law error decay across at least three sizes.

    At z = E_+ + i N^-eta_exponent, with omega the subordination point
    omega1 of the atomic quantile measures, each sample yields the
    largest entry-local subordination error max_i |a_i - 1/G_ii - omega|.
    stats["entry_medians"] holds its per-size medians, and the decision
    statistic is the ratio of the largest-size median to the
    smallest-size one.  To first order the raw resolvent error
    G_ii - 1/(a_i - omega) is that error times 1/(a_i - omega)^2, a
    deterministic factor that grows as eta shrinks; the raw worst-entry
    error is recorded as each record's entry_error and summarised in
    per_size, but not gated.
    """
    if not cfg.sizes:
        raise ValueError("local-law experiment needs sizes")
    edge_rep = eg.find_edge_stability(cfg.mu1, cfg.mu2, cfg.t)
    tasks = []
    for n in cfg.sizes:
        a = ms.quantiles(cfg.mu1, n)
        b = ms.quantiles(cfg.mu2, n)
        mu_a = ms.atoms(a, np.full(n, 1.0 / n))
        mu_b = ms.atoms(b, np.full(n, 1.0 / n))
        z = edge_rep.e_plus + 1j * n ** (-cfg.eta_exponent)
        omega_a = sub.solve(mu_a, mu_b, cfg.t, z).omega1
        spec = rmt.EnsembleSpec(n, a, b, cfg.t, cfg.ensemble.seed)
        tasks += [(spec, z, omega_a, k) for k in range(cfg.n_samples)]
    rows = _map(_local_law_sample, tasks, cfg.sizes[-1])
    per_size = {}
    records = []
    medians = []
    for i, n in enumerate(cfg.sizes):
        block = rows[i * cfg.n_samples:(i + 1) * cfg.n_samples]
        *recorded, local = zip(*block)
        per_size[str(n)] = {"median_" + name: float(np.median(column))
                            for name, column in zip(_LOCAL_LAW_COLUMNS, recorded)}
        for k, row in enumerate(block):
            values = dict(zip(_LOCAL_LAW_COLUMNS, map(float, row)))
            records.append({"size": n, "sample_index": k, **values})
        medians.append(float(np.median(local)))
    ratio = medians[-1] / medians[0]
    stats = {"e_plus": edge_rep.e_plus, "per_size": per_size,
             "entry_medians": medians, "decay_ratio": ratio}
    return _report("local-law", cfg, ratio, cfg.ks_threshold, stats, records,
                   sizes=list(cfg.sizes))


def run_rigidity_experiment(cfg):
    """95th percentile of the rescaled classical-location deviations."""
    n = cfg.ensemble.n
    gammas = eg.classical_locations(cfg.mu1, cfg.mu2, cfg.t, n, cfg.top_k)
    weights = (n ** (2.0 / 3.0)) * np.arange(1, cfg.top_k + 1) ** (1.0 / 3.0)
    tasks = [(cfg.ensemble, gammas, weights, k) for k in range(cfg.n_samples)]
    rs = np.array(_map(_rigidity_sample, tasks, n))
    pct = float(np.percentile(rs, 95))
    stats = {"percentile_95": pct, "max_r": float(np.max(rs)),
             "median_r": float(np.median(rs)), "top_k": cfg.top_k}
    records = [{"sample_index": k, "value": float(v)} for k, v in enumerate(rs)]
    return _report("rigidity", cfg, pct, cfg.rigidity_limit, stats, records,
                   top_k=cfg.top_k, rigidity_limit=cfg.rigidity_limit)


def run_dbm_comparison(cfg, t0=None):
    """Two-sample KS between rescaled top eigenvalues before and after
    a short flow of length t0 = N^(-1/3 + chi), with the unitary shared
    inside each pair.  The pairs are the Tracy-Widom experiment's draws."""
    n = cfg.ensemble.n
    if t0 is None:
        t0 = n ** (-1.0 / 3.0 + cfg.chi)
    base = eg.find_edge_stability(cfg.mu1, cfg.mu2, cfg.t)
    flowed = eg.find_edge_stability(cfg.mu1, cfg.mu2, cfg.t + t0) if t0 > 0 else base
    pow23 = n ** (2.0 / 3.0)

    tasks = [(cfg.ensemble, t0, k) for k in range(cfg.n_samples)]
    lam0, lam1, fallbacks = zip(*_map(_top_sample, tasks, n))
    x0 = base.gamma * pow23 * (np.array(lam0) - base.e_plus)
    x1 = flowed.gamma * pow23 * (np.array(lam1) - flowed.e_plus)
    ks = ks_statistic(x0, x1)
    stats = {"t0": float(t0), "e_plus_base": base.e_plus, "e_plus_flowed": flowed.e_plus,
             "gamma_base": base.gamma, "gamma_flowed": flowed.gamma,
             "mean_base": float(np.mean(x0)), "mean_flowed": float(np.mean(x1)),
             "dense_fallbacks": sum(fallbacks)}
    records = [{"sample_index": k, "value": float(a), "value_flowed": float(b)}
               for k, (a, b) in enumerate(zip(x0, x1))]
    return _report("dbm", cfg, ks, cfg.ks_threshold, stats, records, t0=float(t0))


def write_json(path, payload):
    """payload as JSON: sorted keys, indent 2, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, header, rows):
    """header, then rows; a float cell at 17 significant digits, any other by str."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % cell if isinstance(cell, float) else str(cell)
                             for cell in row])


def write_report(report, json_path, csv_path):
    """The report as JSON, and its records, if any, as CSV."""
    write_json(json_path, report.to_json_dict())
    if report.records:
        names = list(report.records[0])
        write_csv(csv_path, names, ([row[name] for name in names] for row in report.records))
