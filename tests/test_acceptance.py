"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with -s (or read captured output) for the per-criterion lines; every
tolerance below is asserted exactly as stated, no loosening.  Criterion 8
gates the decay of the median largest entry-local subordination error
max_i |a_i - 1/G_ii - omega|, the quantity the local law bounds; the raw
resolvent error G_ii - 1/(a_i - omega) carries the factor |a_i - omega|^-2,
which grows as eta shrinks at the edge, so it does not decay at these sizes
and is reported but not gated.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from freeconv import edge as eg
from freeconv import harness as hz
from freeconv import measure as ms
from freeconv import rmt
from freeconv import subordination as sub
from freeconv import tracywidom as tw


def _line(num, ok, detail):
    print("criterion %02d %s  %s" % (num, "PASS" if ok else "FAIL", detail))


def test_criterion_01_semicircle_self_convolution():
    sc1 = ms.semicircle(1.0)
    start = time.perf_counter()
    worst = 0.0
    for x in np.linspace(-3.5, 3.5, 100):
        z = complex(x, 0.05)
        m = sub.solve(sc1, sc1, 0.0, z).m
        exact = (-z + z * np.sqrt(1.0 - 8.0 / (z * z))) / 4.0
        worst = max(worst, abs(m - exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _line(1, ok, "max |m - m_sc(2)| = %.3e (tol 1e-10), %.2f s (limit 5 s)"
          % (worst, elapsed))
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_delta_shift_identity():
    worst = 0.0
    for mu in (ms.semicircle(1.0), ms.uniform(-1.0, 1.0)):
        for c in (-0.3, 0.5):
            delta = ms.point_mass(c)
            for x in np.linspace(-2.5, 2.5, 20):
                z = complex(x, 0.35)
                omega1 = sub.solve(mu, delta, 0.0, z).omega1
                worst = max(worst, abs(omega1 - (z - c)))
    ok = worst <= 1e-10
    _line(2, ok, "max |omega1 - (z - c)| = %.3e (tol 1e-10)" % worst)
    assert worst <= 1e-10


def test_criterion_03_xi_gamma_closed_forms():
    sc1 = ms.semicircle(1.0)
    worst = 0.0
    for t in (0.25, 1.0):
        xi = eg.solve_xi(sc1, t)
        e_plus, gamma = eg.edge_from_xi(sc1, t)
        worst = max(worst,
                    abs(xi - (2.0 + t) / math.sqrt(1.0 + t)),
                    abs(e_plus - 2.0 * math.sqrt(1.0 + t)),
                    abs(gamma - (1.0 + t) ** -0.5))
    ok = worst <= 1e-8
    _line(3, ok, "max closed-form deviation over t in {0.25, 1} = %.3e "
          "(tol 1e-8)" % worst)
    assert worst <= 1e-8


def test_criterion_04_edge_stability_root():
    sc1 = ms.semicircle(1.0)
    rep = eg.find_edge_stability(sc1, sc1, 0.0)
    edge_err = abs(rep.e_plus - 2.0 * math.sqrt(2.0))
    s_res = abs(eg.stability_at_edge(sc1, sc1, 0.0, rep))
    ok = edge_err <= 1e-8 and s_res <= 1e-9
    _line(4, ok, "|e_plus - 2 sqrt 2| = %.3e (tol 1e-8), |S| = %.3e "
          "(tol 1e-9)" % (edge_err, s_res))
    assert edge_err <= 1e-8
    assert s_res <= 1e-9


def _tridiagonal_gue_top(n, rng):
    # same eigenvalue law as sample_gue(n), reduced to tridiagonal form
    d = rng.standard_normal(n) / math.sqrt(n)
    k = np.arange(1, n)
    e = np.sqrt(rng.chisquare(2 * (n - k)) / 2.0) / math.sqrt(n)
    return scipy.linalg.eigh_tridiagonal(
        d, e, select="i", select_range=(n - 1, n - 1), eigvals_only=True)[0]


def test_criterion_05_tw_self_consistency():
    ev40, ev80 = tw.TWEvaluator(40), tw.TWEvaluator(80)
    grid = np.arange(-6.0, 4.5, 0.5)
    refine = np.max(np.abs(tw.tw2_cdf(ev40, grid) - tw.tw2_cdf(ev80, grid)))

    h = 0.01
    ode = 0.0
    for x in (-5.0, -1.0, 0.0, 1.0, 5.0):
        f = [tw.airy_ai(x + j * h) for j in (-2, -1, 0, 1, 2)]
        second = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        ode = max(ode, abs(second - x * f[2]))

    mean, _ = tw.tw2_moments(ev40)
    mean_err = abs(mean - (-1.7711))

    n, samples = 2000, 5000
    xs = np.array([_tridiagonal_gue_top(n, rmt.sample_stream(2, k))
                   for k in range(samples)])
    mc_err = abs((xs.mean() - 2.0) * n ** (2.0 / 3.0) - mean)

    ok = refine <= 1e-8 and ode <= 1e-8 and mean_err <= 1e-3 and mc_err <= 0.01
    _line(5, ok, "|F40 - F80| = %.2e (1e-8), ODE = %.2e (1e-8), "
          "|mean + 1.7711| = %.2e (1e-3), |MC - mean| = %.4f (0.01)"
          % (refine, ode, mean_err, mc_err))
    assert refine <= 1e-8
    assert ode <= 1e-8
    assert mean_err <= 1e-3
    assert mc_err <= 0.01


def _gue_control_config(n, n_samples, seed, **kw):
    pm0 = ms.point_mass(0.0)
    zeros = np.zeros(n)
    spec = rmt.EnsembleSpec(n, zeros, zeros, 1.0, seed)
    return hz.ExperimentConfig(ensemble=spec, n_samples=n_samples,
                               mu1=pm0, mu2=pm0, t=1.0, **kw)


def _uniform_pair_config(n, n_samples, seed, t=0.0, **kw):
    mu = ms.uniform(-1.0, 1.0)
    q = ms.quantiles(mu, n)
    spec = rmt.EnsembleSpec(n, q, q, t, seed)
    return hz.ExperimentConfig(ensemble=spec, n_samples=n_samples,
                               mu1=mu, mu2=mu, t=t, **kw)


@pytest.fixture(scope="module")
def gue_control_run():
    """Criterion 6's run and its wall time, shared with the wrong-theory test."""
    start = time.perf_counter()
    rep = hz.run_tw_experiment(_gue_control_config(400, 2000, 61,
                                                   ks_threshold=0.05))
    return rep, time.perf_counter() - start


@pytest.fixture(scope="module")
def main_theorem_report():
    """Criterion 7's run, shared with the wrong-theory test."""
    return hz.run_tw_experiment(_uniform_pair_config(300, 1000, 71,
                                                     ks_threshold=0.08))


@pytest.fixture(scope="module")
def dbm_report():
    """Criterion 10's run, shared with the wrong-theory test."""
    cfg = _uniform_pair_config(300, 1000, 101, ks_threshold=0.08, chi=0.1)
    return hz.run_dbm_comparison(cfg)


def test_criterion_06_gue_tracy_widom_control(gue_control_run):
    rep, elapsed = gue_control_run
    _line(6, rep.passed, "KS = %.4f (tol 0.05), N=400, 2000 samples, %.0f s"
          % (rep.ks_statistic, elapsed))
    assert rep.passed


def test_criterion_07_main_theorem_desk_scale(main_theorem_report):
    rep = main_theorem_report
    _line(7, rep.passed, "KS = %.4f (tol 0.08), uniform pair, N=300, t=0"
          % rep.ks_statistic)
    assert rep.passed


LOCAL_LAW_SIZES = (250, 500, 1000)
# The paper's flow time N^(-1/3 + chi) = 0.1995 at N = 1000 and chi = 0.1.
LOCAL_LAW_FLOW_T = 0.2


@pytest.fixture(scope="module")
def local_law_report():
    """Criterion 8's run, shared by its gate and the omega value gate."""
    cfg = _uniform_pair_config(1000, 20, 81, ks_threshold=0.9, sizes=LOCAL_LAW_SIZES)
    return hz.run_local_law_experiment(cfg)


@pytest.fixture(scope="module")
def local_law_flow_report():
    """Criterion 8's configuration at the flow time LOCAL_LAW_FLOW_T."""
    cfg = _uniform_pair_config(1000, 20, 81, t=LOCAL_LAW_FLOW_T, ks_threshold=0.9,
                               sizes=LOCAL_LAW_SIZES)
    return hz.run_local_law_experiment(cfg)


def test_criterion_08_local_law_decay(local_law_report):
    sizes = LOCAL_LAW_SIZES
    rep = local_law_report
    per_size = rep.stats["per_size"]

    upsilon_ok = all(per_size[str(n)]["median_upsilon"] <= 5.0 / math.sqrt(n)
                     for n in sizes)
    subord_ok = all(per_size[str(n)]["median_subordination_error"]
                    <= per_size[str(n)]["median_entry_error"] for n in sizes)
    medians = rep.stats["entry_medians"]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ratio = rep.stats["decay_ratio"]
    decay_ok = decreasing and ratio <= 0.9

    ok = upsilon_ok and subord_ok and decay_ok
    _line(8, ok, "entry medians %s ratio %.3f (decreasing, <= 0.9: %s); "
          "upsilon bound: %s; subordination bound: %s"
          % (["%.3f" % m for m in medians], ratio, decay_ok, upsilon_ok,
             subord_ok))
    assert upsilon_ok
    assert subord_ok
    # Decay of the largest entry-local subordination error, not of the raw
    # resolvent error, whose edge amplification grows with N; see the module
    # docstring.
    assert decay_ok


def _check_omega_value(rep):
    # The approximate subordination point omega_a_c of each sample must land
    # on the atomic omega itself, not only decay in ratio: the per-size
    # median of |omega_a_c - omega| stays below N^-0.4 = 1/(N eta).
    per_size = rep.stats["per_size"]
    errors = [per_size[str(n)]["median_subordination_error"] for n in LOCAL_LAW_SIZES]
    bounds = [n ** -0.4 for n in LOCAL_LAW_SIZES]
    ok = all(e <= b for e, b in zip(errors, bounds))
    print("local-law omega value at t = %g %s  median |omega_a_c - omega| %s (bounds %s)"
          % (rep.config["t"], "PASS" if ok else "FAIL", ["%.4f" % e for e in errors],
             ["%.3f" % b for b in bounds]))
    for e, b in zip(errors, bounds):
        assert e <= b


def test_local_law_subordination_value(local_law_report):
    _check_omega_value(local_law_report)


def test_local_law_subordination_value_at_flow_time(local_law_flow_report):
    # the paper's local law holds along the flow, here with omega_a_c's
    # t tr G term and the sqrt(t) W part of the matrix both active
    _check_omega_value(local_law_flow_report)


def test_criterion_09_rigidity():
    cfg = _gue_control_config(1000, 50, 91, top_k=100, rigidity_limit=10.0)
    rep = hz.run_rigidity_experiment(cfg)
    _line(9, rep.passed, "95th percentile R = %.3f (tol 10), N=1000, top 100"
          % rep.stats["percentile_95"])
    assert rep.passed


def test_criterion_10_dbm_edge_comparison(dbm_report):
    rep = dbm_report
    _line(10, rep.passed, "two-sample KS = %.4f (tol 0.08), t0 = %.4f"
          % (rep.ks_statistic, rep.stats["t0"]))
    assert rep.passed


# Two wrong theories, fixed in advance, as maps of a rescaled sample
# x = gamma N^(2/3) (lambda - E_+): E_+ placed 0.3 / (gamma N^(2/3)) too
# high, and gamma scaled by 0.85.  Against the exact F2 they move the CDF by
# a sup of 0.133 and 0.148.
WRONG_THEORIES = (("E_+ + 0.3/(gamma N^2/3)", lambda x: x - 0.3),
                  ("0.85 gamma", lambda x: 0.85 * x))


def test_edge_law_gates_reject_wrong_theories(gue_control_run, main_theorem_report,
                                              dbm_report):
    # Criteria 6, 7 and 10 rescored on their stored samples: each gate must
    # reject each wrong theory, or it could not tell it from the right one.
    # Criterion 10's wrong theory rescales the flowed sample only.
    ev = tw.TWEvaluator(40)

    def column(rep, key):
        return np.array([r[key] for r in rep.records])

    for name, wrong in WRONG_THEORIES:
        for num, rep in ((6, gue_control_run[0]), (7, main_theorem_report)):
            ks = hz.ks_statistic(wrong(column(rep, "value")),
                                 lambda s: tw.tw2_cdf(ev, s))
            print("criterion %02d under %s: KS = %.4f (must exceed %g)"
                  % (num, name, ks, rep.threshold))
            assert ks > rep.threshold
        ks = hz.ks_statistic(column(dbm_report, "value"),
                             wrong(column(dbm_report, "value_flowed")))
        print("criterion 10 under %s: KS = %.4f (must exceed %g)"
              % (name, ks, dbm_report.threshold))
        assert ks > dbm_report.threshold


def test_rigidity_gate_rejects_wrong_scale(monkeypatch):
    # Criterion 9 rerun against classical locations at the wrong edge scale
    # 0.85 gamma, E_+ + (gamma_j - E_+) / 0.85: its limit must reject them.
    # A wrong E_+ is invisible below about 1.5 / (gamma N^(2/3)) (README).
    cfg = _gue_control_config(1000, 50, 91, top_k=100, rigidity_limit=10.0)
    e_plus = eg.find_edge_stability(cfg.mu1, cfg.mu2, cfg.t).e_plus
    right = eg.classical_locations

    def wrong(*args):
        return e_plus + (right(*args) - e_plus) / 0.85

    monkeypatch.setattr(hz.eg, "classical_locations", wrong)
    rep = hz.run_rigidity_experiment(cfg)
    print("criterion 09 under 0.85 gamma: 95th percentile R = %.3f (must exceed %g)"
          % (rep.stats["percentile_95"], rep.threshold))
    assert rep.stats["percentile_95"] > rep.threshold


def test_criterion_11_partial_decomposition():
    n, pairs = 64, 50
    eye = np.eye(n)
    worst = 0.0
    for k in range(pairs):
        rng = rmt.sample_stream(111, k)
        u = rmt.sample_haar_unitary(n, rng)
        i = int(rng.integers(n))
        parts = rmt.partial_decomposition(u, i)
        reflect = eye - np.outer(parts.r_vec, np.conj(parts.r_vec))
        worst = max(worst, float(np.max(np.abs(reflect @ reflect - eye))))
        rebuilt = -np.exp(1j * parts.theta) * (reflect @ parts.u_reduced)
        worst = max(worst, float(np.max(np.abs(rebuilt - u))))
        worst = max(worst, float(np.max(np.abs(parts.u_reduced[i] - eye[i]))))
        worst = max(worst, float(np.max(np.abs(parts.u_reduced[:, i] - eye[:, i]))))
        worst = max(worst, float(np.max(np.abs(reflect @ eye[i] + parts.h_vec))))
    ok = worst <= 1e-10
    _line(11, ok, "worst identity residual over %d pairs = %.3e (tol 1e-10)"
          % (pairs, worst))
    assert worst <= 1e-10


def test_criterion_12_bernoulli_arcsine():
    n = 2000
    half = n // 2
    signs = np.concatenate([-np.ones(half), np.ones(half)])
    spec = rmt.EnsembleSpec(n, signs, signs, 0.0, 7)
    h, _ = rmt.sample_matrix(spec, rmt.sample_stream(spec.seed, 0))
    lam = np.sort(rmt.descending_eigenvalues(h, spec.seed))
    cdf = 0.5 + np.arcsin(np.clip(lam / 2.0, -1.0, 1.0)) / math.pi
    ranks = np.arange(1, n + 1)
    sup = max(np.max(np.abs(cdf - ranks / n)),
              np.max(np.abs(cdf - (ranks - 1) / n)))
    ok = sup <= 0.03
    _line(12, ok, "sup |ECDF - arcsine CDF| = %.4f (tol 0.03), N=2000" % sup)
    assert sup <= 0.03
