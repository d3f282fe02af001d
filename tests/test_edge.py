"""Edge location, edge scale, classical locations, stability at the edge."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeconv import cli
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
    assert rep.gamma == pytest.approx(1.0 / ROOT2, rel=1e-12)
    assert rep.scaled_edge == pytest.approx(rep.gamma * rep.e_plus)


def test_point_mass_shift_is_exact():
    rep = eg.find_edge_stability(ms.semicircle(1.0), ms.point_mass(0.0), 0.0)
    assert rep.e_plus == pytest.approx(2.0, abs=1e-12)
    assert rep.gamma == 1.0
    rep = eg.find_edge_stability(ms.point_mass(0.5), ms.semicircle(1.0), 0.0)
    assert rep.e_plus == pytest.approx(2.5, abs=1e-12)
    assert rep.residual == 0.0


def test_shift_case_gamma_is_the_factor_own_coefficient():
    # at t = 0 a point-mass factor only translates the other one, so gamma is
    # that factor's square-root coefficient, variance^(-1/2) for a semicircle
    rep = eg.find_edge_stability(ms.semicircle(4.0), ms.point_mass(0.3), 0.0)
    assert rep.gamma == 0.5
    for mu in (ms.uniform(-1.0, 1.0), ms.arcsine(-1.0, 1.0)):
        with pytest.raises(eg.FitUnstable):
            eg.find_edge_stability(mu, ms.point_mass(0.3), 0.0)


def test_uniform_uniform_edge():
    rep = uu_edge(0.0)
    assert abs(rep.e_plus - UU_E_PLUS) < 1e-9
    assert abs(rep.omega1_edge - UU_OMEGA_STAR) < 1e-8
    assert abs(rep.omega1_edge - rep.omega2_edge) < 1e-9
    assert rep.residual <= 1e-9
    assert rep.gamma == pytest.approx(UU_GAMMA0, rel=1e-12)


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
    assert rep.gamma == pytest.approx(gamma, rel=1e-12)
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
    assert rep.gamma == pytest.approx(g_xi, rel=1e-12)
    assert rep.xi is not None and abs(rep.xi - (eg.solve_xi(mu0, t) + c)) < 1e-7


def test_edge_from_xi_on_grid_base_measure():
    # mu0 = uniform plus uniform tabulated on a grid and discretised by the
    # trapezoid rule into atoms, then pushed through the xi route at
    # t = 300^(-1/3); cross-validates against the direct stability search on
    # the same three-fold system.
    half = UU_E_PLUS - 5e-4
    nodes = np.linspace(-half, half, 2060)
    rho = sub.density_sweep(ms.uniform(-1, 1), ms.uniform(-1, 1), 0.0, nodes)[0]
    h = np.diff(nodes)
    trap = np.concatenate([[0.0], 0.5 * h]) + np.concatenate([0.5 * h, [0.0]])
    eff = trap * np.nan_to_num(rho, nan=0.0)
    keep = eff > 0.0
    mu0 = ms.atoms(nodes[keep], eff[keep] / eff[keep].sum())
    e, _ = eg.edge_from_xi(mu0, T300_13)
    assert abs(e - UU_T13_E_PLUS) <= 2e-3


def test_classical_locations_semicircle():
    locs = eg.classical_locations(ms.semicircle(1.0), ms.semicircle(1.0), 0.0, 1000, 100)
    assert locs.shape == (100,)
    assert np.all(np.diff(locs) < 0)
    assert abs(locs[0] - SC2_GAMMA_1) < 1e-4
    assert abs(locs[99] - SC2_GAMMA_100) < 3e-4
    # sqrt(2) times the standard semicircle's locations, whose tail mass
    # 1/2 - x sqrt(4 - x^2) / (4 pi) - arcsin(x / 2) / pi is inverted by bisection
    target = (np.arange(1, 101) - 0.5) / 1000
    lo, hi = np.zeros(100), np.full(100, 2.0)
    for _ in range(60):
        x = 0.5 * (lo + hi)
        tail = 0.5 - x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) - np.arcsin(x / 2.0) / math.pi
        lo, hi = np.where(tail > target, x, lo), np.where(tail > target, hi, x)
    assert np.all(np.abs(locs - ROOT2 * 0.5 * (lo + hi)) < 1e-6)


def test_classical_locations_full_range():
    locs = eg.classical_locations(ms.semicircle(1.0), ms.semicircle(1.0), 0.0, 300, 300)
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
    rho = sub.density_sweep(mu, mu, 0.0, grid)[0]
    for j in (1, 10):
        sel = grid >= locs[j - 1]
        mass = np.trapezoid(rho[sel], grid[sel])
        assert abs(mass - (j - 0.5) / 1000.0) < 2e-4


def test_classical_locations_point_mass_shift():
    # at t = 0 the point mass only translates the uniform density on
    # [-100, 100], so gamma_1 leaves mass 1/400 above it: 99.5
    locs = eg.classical_locations(ms.uniform(-100.0, 100.0), ms.point_mass(0.0), 0.0, 200, 20)
    assert abs(locs[0] - 99.5) < 1e-4


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


def test_stability_at_edge():
    rep = sc_edge()
    mu = ms.semicircle(1.0)
    assert abs(eg.stability_at_edge(mu, mu, 0.0, rep)) < 1e-9


# omega is analytic off the support, so just above a real x beyond the edge
# solve gives the real subordination pair to O(ETA_AXIS / sqrt(x - E_+))
ETA_AXIS = 1e-12


def omega1_beyond_edge(mu, x):
    return sub.solve(mu, mu, 0.0, complex(x, ETA_AXIS)).omega1


def test_subordination_square_root_expansion():
    rep = sc_edge()
    mu = ms.semicircle(1.0)
    ratios = []
    for kappa in (1e-2, 1e-3, 1e-4):
        w1 = omega1_beyond_edge(mu, rep.e_plus + kappa)
        ratios.append(abs(w1 - rep.omega1_edge) / math.sqrt(kappa))
    assert abs(ratios[1] / ratios[0] - 1.0) < 0.1
    assert abs(ratios[2] / ratios[1] - 1.0) < 0.1


def test_omega_monotone_beyond_edge():
    rep = sc_edge()
    mu = ms.semicircle(1.0)
    vals = [omega1_beyond_edge(mu, rep.e_plus + 0.1 * k).real for k in range(1, 6)]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(sub.DomainError):
        sub.solve(mu, mu, 0.0, rep.e_plus + 0.1)


@settings(max_examples=15, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=0.999), dt=st.floats(min_value=1e-3, max_value=1.0))
def test_uniform_pair_edge_increases_with_time_property(t, dt):
    mu = ms.uniform(-1.0, 1.0)
    t2 = min(t + dt, 1.0)
    assert eg.find_edge_stability(mu, mu, t).e_plus < eg.find_edge_stability(mu, mu, t2).e_plus


def test_im_m_profile_both_sides():
    rep = sc_edge()
    mu = ms.semicircle(1.0)
    etas = (1e-5, 1e-4, 1e-3)
    kappa = 0.05
    outside = []
    inside = []
    for eta in etas:
        z = complex(rep.e_plus + kappa, eta)
        m = sub.solve(mu, mu, 0.0, z).m
        outside.append(m.imag * math.sqrt(kappa + eta) / eta)
        z = complex(rep.e_plus - kappa, eta)
        m = sub.solve(mu, mu, 0.0, z).m
        inside.append(m.imag / math.sqrt(kappa + eta))
    assert min(outside) > 0 and max(outside) / min(outside) < 1.5
    assert min(inside) > 0 and max(inside) / min(inside) < 1.5


def test_touching_atoms_have_no_square_root_scale():
    # two symmetric atoms against themselves produce an arcsine-type hard
    # edge; the stability root degenerates onto the partner inversion's floor
    # next to the support endpoint, where |S| stays at about 4e-9, and the
    # closed form would return a scale near 6e11
    two = ms.atoms([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(eg.BracketNotFound):
        eg.find_edge_stability(two, two, 0.0)


# find_edge_stability on the seven reference edge cases, frozen bit for bit:
# (mu1, mu2, t) -> (e_plus, gamma, xi, omega1_edge, omega2_edge).  A change
# of the edge search that moves any of these by one ulp must say so.
_EDGE_PINS = {
    ("semicircle:1", "semicircle:1", 0.0):
        (2.82842712474619, 0.7071067811865474, None,
         2.1213203435596424, 2.1213203435596424),
    ("uniform:-1,1", "uniform:-1,1", 0.0):
        (1.5429018527568683, 1.7212332377624653, None,
         1.1066988454078948, 1.1066988454078948),
    ("uniform:-1,1", "uniform:-1,1", 0.5):
        (2.1253473531170863, 1.0034449511590173, 1.6390746785361905,
         1.333652182787665, 1.333652182787665),
    # e_plus, xi and both omegas are the correctly rounded 40-digit mpmath
    # solution of the edge system with the closed-form transforms
    ("arcsine:-1,1", "uniform:-1,1", 0.5):
        (2.2258941131952947, 1.0146693375991567, 1.7451363812648912,
         1.44279303449095, 1.3423682216570392),
    ("atoms:-1,0.25,0,0.5,1,0.25", "point_mass:0", 0.5):
        (1.9425895520871812, 1.2007858589667937, 1.3840479050972796,
         1.3840479050972798, 0.8951883940877198),
    ("uniform:-1,1", "point_mass:0.7", 1.0):
        (2.9955871493926383, 0.8908987181403393, 2.114213562373095,
         1.4142135623730951, 1.834592657106511),
    ("point_mass:0", "point_mass:0", 1.0):
        (2.0, 1.0, 1.0, 1.0, 1.0),
}


@pytest.mark.parametrize("case", list(_EDGE_PINS), ids=["%s+%s@t=%s" % c for c in _EDGE_PINS])
def test_edge_report_frozen_on_reference_cases(case):
    spec1, spec2, t = case
    rep = eg.find_edge_stability(cli.parse_measure("mu1", spec1),
                                 cli.parse_measure("mu2", spec2), t)
    assert (rep.e_plus, rep.gamma, rep.xi, rep.omega1_edge, rep.omega2_edge) == _EDGE_PINS[case]


def test_edge_report_record_shape():
    rep = sc_edge()
    rec = dataclasses.asdict(rep)
    assert set(rec) == {
        "e_plus", "xi", "gamma", "omega1_edge", "omega2_edge",
        "scaled_edge", "method", "residual",
    }
    json.dumps(rec)


def test_edge_report_fields_are_python_floats():
    # np.float64 subclasses float, so check the exact type
    rec = dataclasses.asdict(eg.find_edge_stability(ms.semicircle(1.0), ms.point_mass(0.7), 0.25))
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
    # the whole report: 815 calls with a density-fit gamma, of which the
    # edge search took 541; 552 with the closed-form gamma
    calls = [0]
    stieltjes = ms.stieltjes

    def counted(*args):
        calls[0] += 1
        return stieltjes(*args)

    monkeypatch.setattr(ms, "stieltjes", counted)
    eg.find_edge_stability(ms.uniform(-1.0, 1.0), ms.uniform(-1.0, 1.0), 0.0)
    assert 0 < calls[0] < 700


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
    assert rep.gamma == pytest.approx(g_xi, rel=1e-12)
    assert rep.omega1_edge > max(locs)
    assert rep.residual <= 1e-9


_AFFINE_BASES = {
    "uniform": lambda s, c: ms.uniform(c - s, c + s),
    "arcsine": lambda s, c: ms.arcsine(c - s, c + s),
    "semicircle": lambda s, c: ms.semicircle(s * s, c),
}


@settings(max_examples=20, deadline=None)
@given(
    fam1=st.sampled_from(sorted(_AFFINE_BASES)),
    fam2=st.sampled_from(sorted(_AFFINE_BASES)),
    scale=st.floats(min_value=0.5, max_value=2.0),
    c1=st.floats(min_value=-1.0, max_value=1.0),
    c2=st.floats(min_value=-1.0, max_value=1.0),
    t=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=1.0)),
)
def test_gamma_affine_covariance_property(fam1, fam2, scale, c1, c2, t):
    # x -> scale x + c maps mu1 (+) mu2 (+) sc(t) onto the convolution of the
    # mapped factors with sc(scale^2 t), and the edge scale goes to gamma / scale
    base = eg.find_edge_stability(_AFFINE_BASES[fam1](1.0, 0.0),
                                  _AFFINE_BASES[fam2](1.0, 0.0), t)
    mapped = eg.find_edge_stability(_AFFINE_BASES[fam1](scale, c1),
                                    _AFFINE_BASES[fam2](scale, c2), scale * scale * t)
    assert mapped.gamma == pytest.approx(base.gamma / scale, rel=1e-12)
