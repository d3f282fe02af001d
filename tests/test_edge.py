"""Edge location, edge scale, classical locations, stability diagnostics."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import edge as eg
from freeconv import measure as ms
from freeconv import subordination as sub

ROOT2 = math.sqrt(2.0)

# 40-digit closed-form oracle values (independent integral representations
# evaluated with mpmath), frozen.
UU_OMEGA_STAR = 1.1066988454078950
UU_E_PLUS = 1.5429018527568684
UU_GAMMA0 = 1.7212332377624658
T300_13 = 0.14938015821857216       # 300 ** (-1/3)
UU_T13_E_PLUS = 1.7443664415328209
UU_T13_XI = 1.5594439456600831
UU_T13_GAMMA = 1.3331507346881355
T300_730 = 0.26424394261700112      # 300 ** (-7/30)
UU_T730_E_PLUS = 1.8796534915427013
UU_T730_XI = 1.5825516878349295
UU_T730_GAMMA = 1.1851350422005306

# sc(1) plus sc(1): S on the real axis at E = 2 sqrt(2) + kappa.  S is
# negative beyond the edge (the slope product sits below one there) and
# |S|/sqrt(kappa) drifts slowly; the frozen values pin both facts.
SC_S_SWEEP = {
    1e-2: -0.464223100579625,
    1e-3: -0.187267732405605,
    1e-4: -0.0645383951252002,
}

# classical locations of the variance-2 semicircle, n = 1000, tail (j-1/2)/n
SC2_GAMMA_1 = 2.8033636571343162
SC2_GAMMA_100 = 1.9463269538995114
# j = n = 300: the last location leaves mass 1/600 below itself
SC2_N300_GAMMA_LAST = -2.772437947302673


@functools.lru_cache(maxsize=None)
def sc_edge():
    return eg.find_edge_stability(ms.semicircle(1.0), ms.semicircle(1.0), 0.0)


@functools.lru_cache(maxsize=None)
def uu_edge(t):
    return eg.find_edge_stability(ms.uniform(-1, 1), ms.uniform(-1, 1), t)


def test_sc_sc_edge_report():
    rep = sc_edge()
    assert abs(rep.e_plus - 2.0 * ROOT2) < 1e-10
    assert abs(rep.omega1_edge - 3.0 / ROOT2) < 1e-9
    assert abs(rep.omega2_edge - 3.0 / ROOT2) < 1e-9
    assert rep.residual <= 1e-9
    assert rep.xi is None
    assert rep.method == "stability_root"
    assert abs(rep.gamma - 1.0 / ROOT2) < 1e-3
    assert rep.scaled_edge == pytest.approx(rep.gamma * rep.e_plus)


def test_point_mass_shift_is_exact():
    rep = eg.find_edge_stability(ms.semicircle(1.0), ms.point_mass(0.0), 0.0)
    assert rep.e_plus == pytest.approx(2.0, abs=1e-12)
    assert abs(rep.gamma - 1.0) < 1e-3
    rep = eg.find_edge_stability(ms.point_mass(0.5), ms.semicircle(1.0), 0.0)
    assert rep.e_plus == pytest.approx(2.5, abs=1e-12)
    assert rep.residual == 0.0


def test_uniform_uniform_edge():
    rep = uu_edge(0.0)
    assert abs(rep.e_plus - UU_E_PLUS) < 1e-9
    assert abs(rep.omega1_edge - UU_OMEGA_STAR) < 1e-8
    assert abs(rep.omega1_edge - rep.omega2_edge) < 1e-9
    assert rep.residual <= 1e-9
    # the sqrt fit window is fixed at kappa <= 1e-2, so gamma carries the
    # O(kappa) truncation bias of the fit (about 0.7% on this system)
    assert abs(rep.gamma - UU_GAMMA0) < 0.015


@pytest.mark.parametrize(
    "t,e_plus,xi,gamma",
    [
        (T300_13, UU_T13_E_PLUS, UU_T13_XI, UU_T13_GAMMA),
        (T300_730, UU_T730_E_PLUS, UU_T730_XI, UU_T730_GAMMA),
    ],
)
def test_uniform_uniform_positive_time_edge(t, e_plus, xi, gamma):
    rep = uu_edge(t)
    assert abs(rep.e_plus - e_plus) < 1e-9
    assert rep.xi is not None and abs(rep.xi - xi) < 1e-8
    assert abs(rep.gamma - gamma) < 5e-3
    assert rep.omega1_edge > 1.0 and rep.omega2_edge > 1.0
    assert rep.residual <= 1e-9


def test_solve_xi_semicircle():
    assert abs(eg.solve_xi(ms.semicircle(1.0), 1.0) - 3.0 / ROOT2) < 1e-10
    assert abs(eg.solve_xi(ms.semicircle(1.0), 0.25) - 2.25 / math.sqrt(1.25)) < 1e-10


def test_solve_xi_resubstitution():
    mu = ms.uniform(-1.0, 1.0)
    xi = eg.solve_xi(mu, 0.5)
    assert xi > 1.0
    assert abs(ms.stieltjes(mu, complex(xi, 0.0), 1).real - 2.0) < 1e-10


def test_edge_from_xi_semicircle():
    e, g = eg.edge_from_xi(ms.semicircle(1.0), 1.0)
    assert abs(e - 2.0 * ROOT2) < 1e-9
    assert abs(g - 1.0 / ROOT2) < 1e-9
    e, g = eg.edge_from_xi(ms.semicircle(1.0), 0.25)
    assert abs(e - 2.0 * math.sqrt(1.25)) < 1e-9
    assert abs(g - 1.0 / math.sqrt(1.25)) < 1e-9


def test_xi_validation():
    with pytest.raises(ValueError):
        eg.solve_xi(ms.semicircle(1.0), 0.0)
    with pytest.raises(ValueError):
        eg.solve_xi(ms.semicircle(1.0), -1.0)
    with pytest.raises(ValueError):
        eg.find_edge_stability(ms.semicircle(1.0), ms.semicircle(1.0), -0.1)


_CROSS_CASES = [(tag, t, c) for c in (0.0, 0.7) for tag in ("semicircle", "uniform")
                for t in (0.25, 1.0)]


@pytest.mark.parametrize(
    "tag,t,c", _CROSS_CASES,
    ids=["%s-%s" % (tag, t) + ("-shift%s" % c if c else "") for tag, t, c in _CROSS_CASES],
)
def test_cross_method_agreement(tag, t, c):
    # a point mass at c translates mu0 (+) sc(t) by c and leaves gamma as is
    mu0 = ms.semicircle(1.0) if tag == "semicircle" else ms.uniform(-1, 1)
    e_xi, g_xi = eg.edge_from_xi(mu0, t)
    rep = eg.find_edge_stability(mu0, ms.point_mass(c), t)
    assert abs(rep.e_plus - (e_xi + c)) <= 1e-6
    assert rep.gamma == g_xi
    assert rep.xi is not None and abs(rep.xi - (eg.solve_xi(mu0, t) + c)) < 1e-7


def test_edge_from_xi_on_grid_base_measure():
    # mu0 = uniform plus uniform tabulated on a grid, then pushed through the
    # xi route at t = 300^(-1/3); cross-validates against the direct
    # stability search on the same three-fold system.
    half = UU_E_PLUS - 5e-4
    nodes = np.linspace(-half, half, 2060)
    rho = sub.density(
        ms.uniform(-1, 1), ms.uniform(-1, 1), 0.0, nodes, eta_seq=(2e-4, 1e-4)
    )
    mu0 = ms.grid_density(nodes, np.nan_to_num(rho, nan=0.0))
    e, _ = eg.edge_from_xi(mu0, T300_13)
    assert abs(e - UU_T13_E_PLUS) <= 2e-3


def test_gamma_fit_rejects_interior_point():
    with pytest.raises(eg.FitUnstable):
        eg.gamma_from_density_fit(ms.semicircle(1.0), ms.semicircle(1.0), 0.0, 2.0)


def test_classical_locations_semicircle():
    locs = eg.classical_locations(ms.semicircle(1.0), ms.semicircle(1.0), 0.0, 1000, 100)
    assert locs.shape == (100,)
    assert np.all(np.diff(locs) < 0)
    assert abs(locs[0] - SC2_GAMMA_1) < 1e-4
    assert abs(locs[99] - SC2_GAMMA_100) < 3e-4


def test_classical_locations_full_range():
    locs = eg.classical_locations(
        ms.semicircle(1.0), ms.semicircle(1.0), 0.0, 300, 300, grid_points=1500
    )
    assert locs.shape == (300,)
    assert np.all(np.diff(locs) <= 0)
    assert locs[0] < 2.0 * ROOT2
    assert abs(locs[-1] - SC2_N300_GAMMA_LAST) < 5e-3


def test_classical_locations_uniform_resubstitution():
    mu = ms.uniform(-1, 1)
    locs = eg.classical_locations(mu, mu, 0.0, 1000, 10)
    assert np.all(np.diff(locs) < 0)
    assert np.all(locs < UU_E_PLUS)
    # independent tail quadrature on a uniform fine grid
    grid = np.linspace(locs[-1], UU_E_PLUS - 1e-6, 400)
    rho = sub.density(mu, mu, 0.0, grid, eta_seq=(2e-4, 1e-4))
    for j in (1, 10):
        sel = grid >= locs[j - 1]
        mass = np.trapezoid(rho[sel], grid[sel])
        assert abs(mass - (j - 0.5) / 1000.0) < 2e-4


def test_classical_locations_reject_failed_density(monkeypatch):
    # a density point the solver could not resolve must not count as zero mass
    real_sweep = eg.density_sweep

    def one_failure(*args, **kwargs):
        rho, resid, iters = real_sweep(*args, **kwargs)
        rho[len(rho) // 2] = np.nan
        return rho, resid, iters

    monkeypatch.setattr(eg, "density_sweep", one_failure)
    with pytest.raises(eg.FitUnstable):
        eg.classical_locations(ms.semicircle(1.0), ms.semicircle(1.0), 0.0, 100, 5)


def test_classical_locations_validation():
    with pytest.raises(ValueError):
        eg.classical_locations(ms.semicircle(1.0), ms.semicircle(1.0), 0.0, 10, 11)
    with pytest.raises(ValueError):
        eg.classical_locations(ms.semicircle(1.0), ms.semicircle(1.0), 0.0, 0, 1)


def test_stability_diagnostics_at_edge():
    rep = sc_edge()
    diag = eg.stability_diagnostics(
        ms.semicircle(1.0), ms.semicircle(1.0), 0.0, rep.e_plus, rep
    )
    assert abs(diag.s_value) < 1e-9
    assert abs(diag.t_alpha - diag.t_beta) < 1e-10
    assert diag.kappa == 0.0


def test_stability_diagnostics_real_sweep():
    rep = sc_edge()
    mu = ms.semicircle(1.0)
    band = []
    for kappa, frozen in SC_S_SWEEP.items():
        diag = eg.stability_diagnostics(mu, mu, 0.0, rep.e_plus + kappa, rep)
        assert abs(diag.s_value.imag) < 1e-10
        assert diag.s_value.real < 0.0
        assert abs(diag.s_value.real - frozen) < max(1e-7, 1e-6 * abs(frozen))
        assert diag.kappa == pytest.approx(kappa)
        band.append(abs(diag.s_value) / math.sqrt(kappa))
    assert max(band) / min(band) < 1.5


def test_stability_diagnostics_symmetry_off_axis():
    rep = sc_edge()
    mu = ms.semicircle(1.0)
    diag = eg.stability_diagnostics(mu, mu, 0.0, complex(2.0, 0.3), rep)
    assert abs(diag.t_alpha - diag.t_beta) < 1e-10
    assert diag.kappa == pytest.approx(abs(2.0 - rep.e_plus))


def test_subordination_square_root_expansion():
    rep = sc_edge()
    mu = ms.semicircle(1.0)
    ratios = []
    for kappa in (1e-2, 1e-3, 1e-4):
        sol = sub.solve(sub.SubordinationQuery(mu, mu, 0.0, rep.e_plus + kappa))
        ratios.append(abs(sol.omega1.real - rep.omega1_edge) / math.sqrt(kappa))
    assert abs(ratios[1] / ratios[0] - 1.0) < 0.1
    assert abs(ratios[2] / ratios[1] - 1.0) < 0.1


def test_omega_monotone_beyond_edge():
    rep = sc_edge()
    mu = ms.semicircle(1.0)
    vals = [
        sub.solve(sub.SubordinationQuery(mu, mu, 0.0, rep.e_plus + 0.1 * k)).omega1.real
        for k in range(1, 6)
    ]
    assert np.all(np.diff(vals) > 0)


def test_im_m_profile_both_sides():
    rep = sc_edge()
    mu = ms.semicircle(1.0)
    etas = (1e-5, 1e-4, 1e-3)
    kappa = 0.05
    outside = []
    inside = []
    for eta in etas:
        z = complex(rep.e_plus + kappa, eta)
        m = sub.solve(sub.SubordinationQuery(mu, mu, 0.0, z)).m
        outside.append(m.imag * math.sqrt(kappa + eta) / eta)
        z = complex(rep.e_plus - kappa, eta)
        m = sub.solve(sub.SubordinationQuery(mu, mu, 0.0, z)).m
        inside.append(m.imag / math.sqrt(kappa + eta))
    assert min(outside) > 0 and max(outside) / min(outside) < 1.5
    assert min(inside) > 0 and max(inside) / min(inside) < 1.5


def test_touching_atoms_have_no_square_root_scale():
    # two symmetric atoms against themselves produce an arcsine-type hard
    # edge; the stability root degenerates onto the support endpoint and the
    # sqrt density fit must refuse to produce a scale there
    two = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises((eg.FitUnstable, eg.BracketNotFound)):
        eg.find_edge_stability(two, two, 0.0)


def test_edge_report_record_shape():
    rep = sc_edge()
    rec = rep.as_record()
    assert set(rec) == {
        "e_plus", "xi", "gamma", "omega1_edge", "omega2_edge",
        "scaled_edge", "method", "residual",
    }
    json.dumps(rec)


def test_edge_report_fields_are_python_floats():
    # np.float64 subclasses float, so check the exact type
    rec = eg.find_edge_stability(ms.semicircle(1.0), ms.point_mass(0.7), 0.25).as_record()
    for key, value in rec.items():
        if key != "method":
            assert type(value) is float, key


# --- root-finding helpers ---

def test_newton_root_concave_increasing():
    # log x - 1 is concave and increasing; every step from the hi side
    # lands on the lo side
    root = eg._newton_root(lambda x: (math.log(x) - 1.0, 1.0 / x), 0.5, 40.0)
    assert abs(root - math.e) <= 1e-15 * math.e


def test_newton_root_bisects_out_of_lo_side_none_region():
    seen = []

    def f(x):
        seen.append(x)
        return None if x < 2.0 else (math.log(x) - 1.0, 1.0 / x)

    root = eg._newton_root(f, 0.0, 3.0)
    assert abs(root - math.e) <= 1e-15 * math.e
    assert min(seen) < 2.0


def test_march_brackets_and_its_first_point_conventions():
    assert eg._march(lambda x: x > 3.0, 0.0, 1.0, 2.0, 100.0) == (2.0, 4.0)
    assert eg._march(lambda x: x > 0.3, 0.0, 1.0, 0.5, 1e-3) == (0.25, 0.5)
    # before its first point an upward march stands on the floor, a
    # downward one on floor + gap / factor
    assert eg._march(lambda x: True, 0.0, 1.0, 2.0, 100.0) == (0.0, 1.0)
    assert eg._march(lambda x: False, 0.0, 0.5, 0.5, 1e-3) == (0.5, 1.0)


def test_march_raises_at_its_bound():
    with pytest.raises(eg.BracketNotFound):
        eg._march(lambda x: True, 1.0, 0.5, 0.5, 1e-3)      # reaches the floor
    with pytest.raises(eg.BracketNotFound):
        eg._march(lambda x: False, 1.0, 1.0, 2.0, 100.0)    # leaves the window


def test_edge_search_stieltjes_call_budget(monkeypatch):
    # the uniform pair at t = 0 took 15720 calls with the bisection-first
    # search; the safeguarded Newton search needs about half
    calls = [0]
    stieltjes = ms.stieltjes

    def counted(*args):
        calls[0] += 1
        return stieltjes(*args)

    monkeypatch.setattr(ms, "stieltjes", counted)
    eg.find_edge_stability(ms.uniform(-1.0, 1.0), ms.uniform(-1.0, 1.0), 0.0)
    assert 0 < calls[0] < 15720


def test_edge_report_stieltjes_call_budget(monkeypatch):
    # the whole report, density-fit gamma included: 8286 calls while the
    # fixed point stalled next to the edge, about 1040 with its Newton step
    calls = [0]
    stieltjes = ms.stieltjes

    def counted(*args):
        calls[0] += 1
        return stieltjes(*args)

    monkeypatch.setattr(ms, "stieltjes", counted)
    eg.find_edge_stability(ms.uniform(-1.0, 1.0), ms.uniform(-1.0, 1.0), 0.0)
    assert 0 < calls[0] < 2000


@settings(max_examples=12, deadline=None)
@given(
    locs=st.lists(
        st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=4, unique=True
    ),
    t=st.floats(min_value=0.25, max_value=1.0),
)
def test_atomic_cross_method_property(locs, t):
    n = len(locs)
    mu0 = ms.atoms(locs, [1.0 / n] * n)
    e_xi, g_xi = eg.edge_from_xi(mu0, t)
    rep = eg.find_edge_stability(mu0, ms.point_mass(0.0), t)
    assert abs(rep.e_plus - e_xi) <= 1e-8
    assert abs(rep.gamma - g_xi) <= 1e-9
    assert rep.omega1_edge > max(locs)
    assert rep.residual <= 1e-9
