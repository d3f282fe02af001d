"""Monte Carlo experiment drivers: statistics, determinism, reports."""

import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from freeconv import cli
from freeconv import edge as eg
from freeconv import harness as hz
from freeconv import measure as ms
from freeconv import rmt
from freeconv import subordination as sub
from freeconv import tracywidom as tw

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def gue_control_spec(n, seed, t=1.0):
    zeros = np.zeros(n)
    return rmt.EnsembleSpec(n, zeros, zeros, t, seed)


def gue_control_config(n, seed, n_samples, **kw):
    pm0 = ms.point_mass(0.0)
    return hz.ExperimentConfig(ensemble=gue_control_spec(n, seed),
                               n_samples=n_samples, mu1=pm0, mu2=pm0, t=1.0, **kw)


# --- KS statistic ---

def test_ks_one_sample_quantile_grid():
    # x_i = (i - 1/2)/n against the identity CDF leaves exactly 1/(2n).
    n = 10
    x = (np.arange(1, n + 1) - 0.5) / n
    assert abs(hz.ks_statistic(x, lambda v: v) - 0.05) < 1e-12


def test_ks_two_sample_identical_is_zero():
    x = np.array([0.3, 1.2, -0.7, 2.0])
    assert hz.ks_statistic(x, x.copy()) == 0.0


def test_ks_two_sample_disjoint_is_one():
    assert hz.ks_statistic([0.0, 1.0, 2.0], [10.0, 11.0]) == 1.0


def test_ks_uniform_large_sample():
    rng = np.random.default_rng(915)
    x = rng.uniform(size=10000)
    assert hz.ks_statistic(x, lambda v: np.clip(v, 0.0, 1.0)) <= 0.025


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        hz.ks_statistic([], lambda v: v)
    with pytest.raises(ValueError):
        hz.ks_statistic([1.0], [])


def test_ks_nan_rejected():
    # a NaN sample must raise, not sort to the end and come back as a distance
    nan = math.nan
    with pytest.raises(ValueError, match="NaN"):
        hz.ks_statistic([nan, 1.0], [0.0, 2.0])
    with pytest.raises(ValueError, match="NaN"):
        hz.ks_statistic([0.0, 2.0], [1.0, nan])
    # the one-sample form rejects NaN even where the CDF would take it
    with pytest.raises(ValueError, match="NaN"):
        hz.ks_statistic([0.5, nan], lambda v: np.clip(v, 0.0, 1.0))
    # and a CDF that is NaN at one sample, which would make the distance NaN
    with pytest.raises(ValueError, match="NaN"):
        hz.ks_statistic([0.5, 0.7], lambda v: np.array([0.2, np.nan]))
    assert hz.ks_statistic([-math.inf, math.inf], [0.0, 1.0]) == 0.5


# --- config and report validation ---

def test_config_validation():
    pm0 = ms.point_mass(0.0)
    spec = gue_control_spec(20, 1)

    def build(**kw):
        base = dict(ensemble=spec, n_samples=5, mu1=pm0, mu2=pm0, t=1.0)
        base.update(kw)
        return hz.ExperimentConfig(**base)

    build()
    with pytest.raises(ValueError):
        build(n_samples=0)
    with pytest.raises(ValueError):
        build(ks_threshold=0.0)
    with pytest.raises(ValueError):
        build(ks_threshold=1.0)
    with pytest.raises(ValueError):
        build(chi=0.0)
    with pytest.raises(ValueError):
        build(chi=1.0 / 3.0)
    with pytest.raises(ValueError):
        build(eta_exponent=0.0)
    with pytest.raises(ValueError):
        build(eta_exponent=1.0)
    with pytest.raises(ValueError):
        build(t=0.5)
    with pytest.raises(ValueError):
        build(top_k=0)
    for bad in ({"n_samples": 2.5}, {"top_k": 2.5}, {"n_samples": 5.0}, {"top_k": "3"}):
        with pytest.raises(ValueError):
            build(**bad)
    cfg = build(n_samples=np.int64(5), top_k=np.int32(3))
    assert (type(cfg.n_samples), type(cfg.top_k)) == (int, int)
    assert (cfg.n_samples, cfg.top_k) == (5, 3)
    for limit in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            build(rigidity_limit=limit)
    for sizes in [(100, 200), (80, 60, 40), (40, 40, 60), (0, 1, 2), (100.9, 200, 400)]:
        with pytest.raises(ValueError):
            build(sizes=sizes)
    assert build(sizes=np.array([40, 60, 80])).sizes == (40, 60, 80)


def test_atoms_echo_round_trips():
    # the config echo of an atoms measure is the [locations, weights] that
    # from_config takes, so runs on different atoms echo differently
    rng = np.random.default_rng(3)
    locs = np.sort(rng.normal(size=7))
    mus = [ms.atoms(locs, w / w.sum()) for w in (rng.random(7), rng.random(7))]
    echoes = [json.loads(json.dumps(mu.echo())) for mu in mus]
    assert echoes[0] != echoes[1]
    for mu, echo in zip(mus, echoes):
        assert echo["family"] == "atoms"
        back = ms.from_config("atoms", echo["params"])
        assert np.array_equal(back.locations, mu.locations)
        np.testing.assert_allclose(back.weights, mu.weights, rtol=1e-14, atol=0.0)


def test_report_flag_must_match_statistic():
    kw = dict(tag="x", n_samples=1, threshold=0.5, config={}, stats={},
              records=())
    assert hz.ExperimentReport(ks_statistic=0.4, **kw).passed is True
    assert hz.ExperimentReport(ks_statistic=0.5, **kw).passed is True
    assert hz.ExperimentReport(ks_statistic=0.6, **kw).passed is False
    with pytest.raises(ValueError):
        hz.ExperimentReport(ks_statistic=-0.1, **kw)
    # NaN would be a silent FAIL, and to_json_dict would carry a bare NaN
    with pytest.raises(ValueError, match="decision statistic must be >= 0"):
        hz.ExperimentReport(ks_statistic=math.nan, **kw)


# --- Tracy-Widom experiment ---

def test_tw_single_sample_ks_formula():
    # With one sample the KS distance is max(F(x), 1 - F(x)) exactly.
    cfg = gue_control_config(80, 31, 1, ks_threshold=0.999)
    rep = hz.run_tw_experiment(cfg)
    x = rep.records[0]["value"]
    ev = tw.TWEvaluator(40)
    f = tw.tw2_cdf(ev, x)
    assert abs(rep.ks_statistic - max(f, 1.0 - f)) < 1e-15


def test_tw_gue_control_small():
    cfg = gue_control_config(150, 7, 300, ks_threshold=0.12)
    rep = hz.run_tw_experiment(cfg)
    assert rep.passed
    assert abs(rep.stats["e_plus"] - 2.0) < 1e-8
    assert abs(rep.stats["gamma"] - 1.0) < 1e-8
    assert abs(rep.stats["mean_rescaled"] - rep.stats["tw_mean"]) < 0.25
    assert rep.stats["dense_fallbacks"] == 0
    assert len(rep.records) == 300
    assert rep.n_samples == 300
    assert 0.0 <= rep.ks_statistic <= 1.0


def test_tw_exact_shift_edge():
    # sc(1) shifted by delta_0 at t = 0: the edge is the support endpoint 2,
    # where the stability function cannot be evaluated; the edge gate reads
    # the report's residual instead.
    sc = ms.semicircle(1.0)
    pm0 = ms.point_mass(0.0)
    n = 100
    spec = rmt.EnsembleSpec(n, ms.quantiles(sc, n), ms.quantiles(pm0, n), 0.0, 1)
    cfg = hz.ExperimentConfig(ensemble=spec, n_samples=5, mu1=sc, mu2=pm0, t=0.0)
    rep = hz.run_tw_experiment(cfg)
    assert rep.stats["e_plus"] == 2.0
    assert len(rep.records) == 5


# --- local law experiment ---

def test_local_law_record_recompute():
    # Rebuild the first sample at the smallest size from scratch and match
    # the recorded entry error bit for bit: pins the stream keying, the
    # z anchor at the continuum edge, and the atomic theory side.
    from freeconv import subordination as sub

    n = 40
    mu1 = ms.uniform(-1.0, 1.0)
    seed = 3
    spec = rmt.EnsembleSpec(n, ms.quantiles(mu1, n), ms.quantiles(mu1, n), 0.0, seed)
    cfg = hz.ExperimentConfig(ensemble=spec, n_samples=2, mu1=mu1, mu2=mu1,
                              t=0.0, sizes=(40, 60, 80), ks_threshold=0.999)
    rep = hz.run_local_law_experiment(cfg)

    a = ms.quantiles(mu1, n)
    mu_atom = ms.atoms(a, np.full(n, 1.0 / n))
    z = eg.find_edge_stability(mu1, mu1, 0.0).e_plus + 1j * n ** (-0.6)
    omega = sub.solve(mu_atom, mu_atom, 0.0, z).omega1
    u = rmt.sample_haar_unitary(n, rmt.sample_stream(seed, 0))
    probe = rmt.resolvent_probe(rmt.build_matrix(a, a, u), a, 0.0, z)
    err = float(np.max(np.abs(probe.g_diag - 1.0 / (a - omega))))

    first = rep.records[0]
    assert first["size"] == 40 and first["sample_index"] == 0
    assert first["entry_error"] == err
    assert rep.ks_statistic == rep.stats["decay_ratio"]


def test_local_law_gated_statistic_recompute():
    # With one sample per size the smallest-size median is sample 0 itself:
    # rebuild it from its stream and match the gated entry-local
    # subordination error max_i |a_i - 1/G_ii - omega| bit for bit.
    from freeconv import subordination as sub

    n = 40
    mu1 = ms.uniform(-1.0, 1.0)
    seed = 5
    spec = rmt.EnsembleSpec(n, ms.quantiles(mu1, n), ms.quantiles(mu1, n), 0.0, seed)
    cfg = hz.ExperimentConfig(ensemble=spec, n_samples=1, mu1=mu1, mu2=mu1,
                              t=0.0, sizes=(40, 60, 80), ks_threshold=0.999)
    rep = hz.run_local_law_experiment(cfg)

    a = ms.quantiles(mu1, n)
    mu_atom = ms.atoms(a, np.full(n, 1.0 / n))
    z = eg.find_edge_stability(mu1, mu1, 0.0).e_plus + 1j * n ** (-0.6)
    omega = sub.solve(mu_atom, mu_atom, 0.0, z).omega1
    u = rmt.sample_haar_unitary(n, rmt.sample_stream(seed, 0))
    g_diag = rmt.resolvent_probe(rmt.build_matrix(a, a, u), a, 0.0, z).g_diag
    local = float(np.max(np.abs(a - 1.0 / g_diag - omega)))

    assert rep.stats["entry_medians"][0] == local
    # The raw resolvent-coordinate error is still what the record carries.
    raw = float(np.max(np.abs(g_diag - 1.0 / (a - omega))))
    assert rep.records[0]["entry_error"] == raw
    assert rep.stats["per_size"]["40"]["median_entry_error"] == raw


def test_local_law_flow_time_record_recompute():
    # At t = 0.2 the harness adds sqrt(t) W and probes through the W terms.
    # Rebuild sample 0 at the smallest size with the explicit products B G
    # and (B G) B: the entry error matches bit for bit, the trace-level
    # values to 1e-12 relative.  No t > 0 value is gated.
    from freeconv import subordination as sub

    n, t = 40, 0.2
    mu1 = ms.uniform(-1.0, 1.0)
    seed = 7
    spec = rmt.EnsembleSpec(n, ms.quantiles(mu1, n), ms.quantiles(mu1, n), t, seed)
    cfg = hz.ExperimentConfig(ensemble=spec, n_samples=1, mu1=mu1, mu2=mu1,
                              t=t, sizes=(40, 60, 80), ks_threshold=0.999)
    rep = hz.run_local_law_experiment(cfg)

    a = ms.quantiles(mu1, n)
    mu_atom = ms.atoms(a, np.full(n, 1.0 / n))
    z = eg.find_edge_stability(mu1, mu1, t).e_plus + 1j * n ** (-0.6)
    omega = sub.solve(mu_atom, mu_atom, t, z).omega1
    rng = rmt.sample_stream(seed, 0)
    u = rmt.sample_haar_unitary(n, rng)
    w = rmt.sample_gue(n, rng)
    b_tilde = (u * a) @ u.conj().T
    h = b_tilde.copy()
    h[np.diag_indices(n)] += a
    h = h + math.sqrt(t) * w
    g = np.linalg.inv(h - z * np.eye(n))
    bg = b_tilde @ g
    trace_g, trace_bg = np.trace(g) / n, np.trace(bg) / n
    trace_bgb = np.trace(bg @ b_tilde) / n
    upsilon = abs(trace_bg - trace_bg ** 2 + trace_g * trace_bgb)
    omega_a_c = z - trace_bg / trace_g + t * trace_g

    first = rep.records[0]
    assert first["size"] == 40 and first["sample_index"] == 0
    assert first["entry_error"] == float(np.max(np.abs(np.diagonal(g) - 1.0 / (a - omega))))
    assert abs(first["upsilon"] - upsilon) <= 1e-12 * upsilon
    sub_err = abs(omega_a_c - omega)
    assert abs(first["subordination_error"] - sub_err) <= 1e-12 * sub_err


def test_local_law_needs_three_sizes():
    # the decay ratio reads the largest size over the smallest, so the sizes
    # must also increase strictly
    for sizes in [(100, 200), (80, 60, 40), (40, 40, 60)]:
        with pytest.raises(ValueError):
            gue_control_config(40, 1, 2, sizes=sizes)
    with pytest.raises(ValueError):
        hz.run_local_law_experiment(gue_control_config(40, 1, 2))


def test_local_law_report_structure():
    n = 40
    mu1 = ms.uniform(-1.0, 1.0)
    spec = rmt.EnsembleSpec(n, ms.quantiles(mu1, n), ms.quantiles(mu1, n), 0.0, 9)
    cfg = hz.ExperimentConfig(ensemble=spec, n_samples=4, mu1=mu1, mu2=mu1,
                              t=0.0, sizes=(40, 60, 80), ks_threshold=0.999)
    rep = hz.run_local_law_experiment(cfg)
    per_size = rep.stats["per_size"]
    assert sorted(per_size) == ["40", "60", "80"]
    for block in per_size.values():
        assert set(block) == {"median_entry_error", "median_avg_error",
                              "median_upsilon", "median_subordination_error"}
    medians = rep.stats["entry_medians"]
    assert rep.stats["decay_ratio"] == medians[-1] / medians[0]
    assert len(rep.records) == 12
    assert list(rep.records[0]) == ["size", "sample_index", "entry_error", "avg_error",
                                    "upsilon", "subordination_error"]
    assert rep.config["sizes"] == [40, 60, 80]
    # averaging over the diagonal can never exceed the worst entry
    for row in rep.records:
        assert row["avg_error"] <= row["entry_error"] + 1e-12


# --- rigidity experiment ---

def test_rigidity_deterministic_embedding():
    # B = 0 and t = 0 leave H = diag(a); with a at the quantiles the
    # deviations are just the classical-location interpolation error.
    n, k = 200, 20
    mu1 = ms.uniform(-1.0, 1.0)
    pm0 = ms.point_mass(0.0)
    spec = rmt.EnsembleSpec(n, ms.quantiles(mu1, n), np.zeros(n), 0.0, 5)
    cfg = hz.ExperimentConfig(ensemble=spec, n_samples=3, mu1=mu1, mu2=pm0,
                              t=0.0, top_k=k, rigidity_limit=1.0)
    rep = hz.run_rigidity_experiment(cfg)
    assert rep.passed
    assert rep.stats["percentile_95"] <= 0.05
    assert rep.stats["max_r"] >= rep.stats["median_r"]


def test_rigidity_gue_control_small():
    cfg = gue_control_config(300, 17, 30, top_k=50, rigidity_limit=10.0)
    rep = hz.run_rigidity_experiment(cfg)
    assert rep.passed
    assert rep.stats["percentile_95"] < 8.0
    assert rep.config["top_k"] == 50
    assert len(rep.records) == 30


# --- flow comparison ---

def test_dbm_degenerate_flow_is_identity():
    cfg = gue_control_config(60, 23, 20)
    rep = hz.run_dbm_comparison(cfg, t0=0.0)
    assert rep.ks_statistic == 0.0
    assert rep.passed
    assert rep.stats["t0"] == 0.0
    for row in rep.records:
        assert row["value"] == row["value_flowed"]


def test_dbm_gue_control():
    # Adding an independent increment to a t = 1 control sample keeps the
    # rescaled top eigenvalue in the same family, so both sides match.
    cfg = gue_control_config(200, 29, 400, ks_threshold=0.08)
    rep = hz.run_dbm_comparison(cfg)
    assert rep.passed
    expected_t0 = 200 ** (-1.0 / 3.0 + 0.1)
    assert abs(rep.stats["t0"] - expected_t0) < 1e-12
    assert rep.stats["e_plus_flowed"] > rep.stats["e_plus_base"]
    assert rep.stats["dense_fallbacks"] == 0
    # 400 samples at N = 200 run in a pool on two or more cores; it is gone
    # by the time the experiment returns
    assert multiprocessing.active_children() == []


def test_tw_and_dbm_share_one_draw():
    # Both experiments draw sample k's matrix from the same (seed, k) stream;
    # the flow increment comes after it, so the unflowed values agree exactly.
    n = 60
    mu = ms.uniform(-1.0, 1.0)
    q = ms.quantiles(mu, n)
    spec = rmt.EnsembleSpec(n, q, q, 0.0, 13)
    cfg = hz.ExperimentConfig(ensemble=spec, n_samples=8, mu1=mu, mu2=mu, t=0.0)
    tw_rep, dbm_rep = hz.run_tw_experiment(cfg), hz.run_dbm_comparison(cfg)
    assert dbm_rep.stats["t0"] > 0
    for tw_row, dbm_row in zip(tw_rep.records, dbm_rep.records, strict=True):
        assert tw_row["value"] == dbm_row["value"]
        assert dbm_row["value_flowed"] != dbm_row["value"]


# --- worker pool ---

def test_exceptions_survive_pickling():
    errors = [rmt.EigensolverError(7, np.linalg.LinAlgError("x")),
              sub.NonConvergenceError(12, 3.5e-9), rmt.DegenerateError("d"),
              sub.DomainError("z"), eg.BracketNotFound("b"), eg.FitUnstable("f"),
              cli.ConfigError("c")]
    for exc in errors:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back).keys() == vars(exc).keys()
    assert pickle.loads(pickle.dumps(errors[0])).seed == 7
    assert pickle.loads(pickle.dumps(errors[1])).residual == 3.5e-9


def test_map_reraises_worker_errors(monkeypatch):
    monkeypatch.setattr(hz, "_pool_size", lambda n_tasks, n: 2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="math domain error"):
        hz._map(math.sqrt, [(4.0,), (-1.0,)], 1)
    bad = np.full((3, 3), np.nan)
    with pytest.raises(rmt.EigensolverError) as local:
        rmt.descending_eigenvalues(bad, 7)
    with pytest.raises(rmt.EigensolverError) as remote:
        hz._map(rmt.descending_eigenvalues, [(bad, 7), (bad, 7)], 1)
    assert time.perf_counter() - start < 30.0
    assert str(remote.value) == str(local.value)
    assert remote.value.seed == 7
    assert multiprocessing.active_children() == []


def _worker_blas_env():
    return os.getpid(), [os.environ.get(name) for name in hz._BLAS_THREAD_VARS]


def _window_vars():
    return {name: os.environ.get(name) for name in (*hz._BLAS_THREAD_VARS, "PYTHONPATH")}


def test_map_environment_window(monkeypatch):
    # every worker runs BLAS on one thread, and the caller's thread variables
    # and PYTHONPATH come back as they were, also when a task raises
    monkeypatch.setattr(hz, "_pool_size", lambda n_tasks, n: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("OMP_NUM_THREADS", "")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    for pythonpath in (None, os.pathsep.join([SRC, "elsewhere"])):
        if pythonpath is None:
            monkeypatch.delenv("PYTHONPATH", raising=False)
        else:
            monkeypatch.setenv("PYTHONPATH", pythonpath)
        before = _window_vars()
        results = hz._map(_worker_blas_env, [()] * 8, 1)
        assert len(results) == 8
        for pid, values in results:
            assert pid != os.getpid()
            assert values == ["1", "1", "1"]
        assert _window_vars() == before
        with pytest.raises(ValueError, match="math domain error"):
            hz._map(math.sqrt, [(4.0,), (-1.0,)], 1)
        assert _window_vars() == before


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="no forkserver on this platform")
def test_forkserver_preload_takes_effect():
    # freeconv reachable through sys.path only, as perfbench/run.py does: the
    # pool's server must still preload it, so numpy is imported once here and
    # once in the server, never in a worker that unpickles a freeconv task
    # (-X importtime reaches the server and, under spawn, every worker)
    code = ("import sys; sys.path.insert(0, %r)\n"
            "from freeconv import harness as hz\n"
            "hz._pool_size = lambda n_tasks, n: 2\n"
            "for _ in range(2):\n"
            "    assert hz._map(hz.ks_statistic, [([0.0], [1.0])] * 2, 1) == [1.0, 1.0]\n" % SRC)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    numpy_lines = [line for line in run.stderr.splitlines() if re.search(r"\|\s+numpy$", line)]
    assert len(numpy_lines) == 2


def test_pool_rule():
    cores = len(os.sched_getaffinity(0))
    assert hz._pool_size(10_000, 199) == 1
    assert hz._pool_size(15, 1000) == 1
    assert hz._pool_size(9, 1000) == 1  # verify-local-law at 3 samples per size
    assert hz._pool_size(40, 400) == min(cores, 5)
    assert hz._pool_size(10_000, 200) == cores


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores to pool")
def test_worker_count_and_blas_threads_leave_outputs_unchanged(tmp_path):
    # Pooled on every usable core, against one core (so no pool) with one
    # BLAS thread: the emitted files are the same bytes.
    args = [sys.executable, "-m", "freeconv", "verify-dbm", "--n", "200",
            "--n-samples", "32", "--seed", "3", "--out-dir"]
    env = dict(os.environ, PYTHONPATH=SRC)
    cpu = min(os.sched_getaffinity(0))

    def run(name, **kwargs):
        return subprocess.run(args + [str(tmp_path / name)], stdout=subprocess.DEVNULL,
                              timeout=300, **kwargs).returncode

    pooled = run("pooled", env=env)
    serial = run("serial", env=dict(env, OPENBLAS_NUM_THREADS="1"),
                 preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert pooled in (0, 1) and serial == pooled
    for f in ("report.json", "samples.csv"):
        assert (tmp_path / "pooled" / f).read_bytes() == (tmp_path / "serial" / f).read_bytes()


def test_import_does_not_load_multiprocessing():
    code = ("import sys, freeconv.cli, freeconv.harness; "
            "assert 'multiprocessing' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                   check=True, timeout=60)


# --- report files ---

def test_write_report_json_and_csv(tmp_path):
    cfg = gue_control_config(60, 41, 25)
    rep = hz.run_tw_experiment(cfg)
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    hz.write_report(rep, json_path=str(json_path), csv_path=str(csv_path))

    loaded = json.loads(json_path.read_text())
    assert loaded == json.loads(json.dumps(rep.to_json_dict()))
    assert "wall_time" not in loaded
    assert loaded["pass"] == rep.passed

    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "sample_index,value"
    assert len(lines) == 26
    value = float(lines[1].split(",")[1])
    assert value == rep.records[0]["value"]


def test_write_report_rerun_byte_identical(tmp_path):
    paths = []
    for label in ("first", "second"):
        cfg = gue_control_config(60, 43, 25)
        rep = hz.run_tw_experiment(cfg)
        json_path = tmp_path / ("%s.json" % label)
        csv_path = tmp_path / ("%s.csv" % label)
        hz.write_report(rep, json_path=str(json_path), csv_path=str(csv_path))
        paths.append((json_path, csv_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
