"""Subordination solver: fixed point, real-axis polish, density inversion."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import measure as ms
from freeconv import subordination as sub


def m_sc(z, var=1.0):
    """Closed-form semicircle Stieltjes transform (independent reference)."""
    z = complex(z)
    s = np.sqrt(complex(z - 2 * math.sqrt(var))) * np.sqrt(complex(z + 2 * math.sqrt(var)))
    return (-z + s) / (2 * var)


def test_f_transform_examples():
    assert abs(sub.f_transform(ms.semicircle(1.0), 1.0, 10.0 / 3.0) - 8.0 / 3.0) < 1e-12
    assert abs(sub.f_transform(ms.point_mass(0.7), 0.0, 1.2 + 3j) - (1.2 + 3j - 0.7)) < 1e-14
    # large-z expansion: -1/m = z - mean + O(1/z), consistent with the exact
    # point-mass transform F = z - c
    z = 1e4j
    mu = ms.uniform(0.0, 1.0)  # mean 1/2
    assert abs(sub.f_transform(mu, 0.0, z) - (z - 0.5)) < 1e-2


def test_f_transform_derivative_examples():
    val = sub.f_transform(ms.semicircle(1.0), 0.0, 3.0 * math.sqrt(2.0) / 2.0, 1)
    assert abs(val - 2.0) < 1e-12
    assert abs(sub.f_transform(ms.point_mass(0.3), 0.0, 1.0 + 1j, 1) - 1.0) < 1e-13
    for k in (3, -1):
        with pytest.raises(ValueError):
            sub.f_transform(ms.semicircle(1.0), 0.0, 2j, k)


def test_f_transform_derivative_matches_finite_difference():
    h = 1e-5
    for mu in [ms.semicircle(1.0), ms.uniform(-1.0, 1.0), ms.atoms([0.0, 1.0], [0.3, 0.7])]:
        for t in (0.0, 0.7):
            for z in (0.4 + 0.6j, 2.5 + 0.3j):
                fd1 = (sub.f_transform(mu, t, z + h) - sub.f_transform(mu, t, z - h)) / (2 * h)
                d1 = sub.f_transform(mu, t, z, 1)
                assert abs(fd1 - d1) / abs(d1) < 1e-6
                fd2 = (sub.f_transform(mu, t, z + h, 1) - sub.f_transform(mu, t, z - h, 1)) / (2 * h)
                d2 = sub.f_transform(mu, t, z, 2)
                assert abs(fd2 - d2) / abs(d2) < 1e-6


def test_solve_semicircle_pair_t0():
    q = sub.SubordinationQuery(ms.semicircle(1.0), ms.semicircle(1.0), 0.0, 3.0 + 0.0j)
    sol = sub.solve(q)
    assert sol.converged and sol.residual < 1e-12
    assert abs(sol.omega1 - 2.5) < 1e-10
    assert abs(sol.omega2 - 2.5) < 1e-10
    assert abs(sol.m - (-0.5)) < 1e-10
    assert abs(sol.f_value - (sol.omega1 + sol.omega2 - 3.0)) < 1e-12


def test_solve_semicircle_pair_t1():
    q = sub.SubordinationQuery(ms.semicircle(1.0), ms.semicircle(1.0), 1.0, 4.0)
    sol = sub.solve(q)
    assert abs(sol.omega1 - 10.0 / 3.0) < 1e-10
    assert abs(sol.m - (-1.0 / 3.0)) < 1e-10


def test_solve_delta_shift():
    for c in (-0.3, 0.5):
        for z in (2j, 0.7 + 1.1j):
            q = sub.SubordinationQuery(ms.semicircle(1.0), ms.point_mass(c), 0.0, z)
            sol = sub.solve(q)
            assert abs(sol.omega1 - (z - c)) < 1e-10
            assert abs(sol.m - m_sc(z - c)) < 1e-10


def test_solve_matches_sc2_on_contour():
    mu = ms.semicircle(1.0)
    w2 = None
    for x in np.linspace(-3.5, 3.5, 40):
        z = complex(x, 0.05)
        sol = sub.solve(sub.SubordinationQuery(mu, mu, 0.0, z), omega2_init=w2)
        w2 = sol.omega2
        assert abs(sol.m - m_sc(z, 2.0)) < 1e-10


def test_solve_m_consistent_between_sides():
    q = sub.SubordinationQuery(ms.uniform(-1.0, 1.0), ms.arcsine(-1.0, 1.0), 0.3, 0.4 + 0.2j)
    sol = sub.solve(q)
    m1 = ms.stieltjes(q.mu1, sol.omega1)
    m2 = ms.stieltjes(q.mu2, sol.omega2)
    assert abs(m1 - m2) < 1e-10
    assert abs(sol.f_value - (sol.omega1 + sol.omega2 - q.z)) < 1e-10


def test_solve_swap_symmetry():
    mu1, mu2 = ms.uniform(-1.0, 1.0), ms.semicircle(0.5, 0.2)
    z = 0.3 + 0.4j
    a = sub.solve(sub.SubordinationQuery(mu1, mu2, 0.2, z))
    b = sub.solve(sub.SubordinationQuery(mu2, mu1, 0.2, z))
    assert abs(a.omega1 - b.omega2) < 1e-10
    assert abs(a.omega2 - b.omega1) < 1e-10
    assert abs(a.m - b.m) < 1e-10


def test_time_route_consistency():
    # omega_{1,t}(z) = omega_{1,0}(z + t m_{mu_t}(z))
    mu1, mu2, t = ms.uniform(-1.0, 1.0), ms.uniform(-1.0, 1.0), 0.4
    for z in (0.5 + 0.8j, 1.9 + 0.3j):
        st_ = sub.solve(sub.SubordinationQuery(mu1, mu2, t, z))
        s0 = sub.solve(sub.SubordinationQuery(mu1, mu2, 0.0, z + t * st_.m))
        assert abs(st_.omega1 - s0.omega1) < 1e-8


def test_half_plane_preservation():
    for z in (0.1 + 0.02j, 2.0 + 1.0j, -1.5 + 0.3j):
        for t in (0.0, 1.3):
            sol = sub.solve(sub.SubordinationQuery(ms.arcsine(-1.0, 1.0),
                                                   ms.uniform(-0.5, 1.5), t, z))
            assert sol.omega1.imag >= z.imag - 1e-10
            assert sol.omega2.imag >= z.imag - 1e-10


@given(st.floats(-2.0, 2.0), st.floats(0.05, 5.0), st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_pick_property_of_f(re, im, t):
    z = complex(re, im)
    for mu in (ms.semicircle(1.0), ms.uniform(-1.0, 1.0)):
        assert sub.f_transform(mu, t, z).imag >= z.imag - 1e-12


def test_real_axis_solve_beyond_edge():
    mu = ms.semicircle(1.0)
    sol = sub.solve(sub.SubordinationQuery(mu, mu, 0.0, 3.0))
    assert sol.omega1.imag == 0.0
    assert abs(sol.omega1 - 2.5) < 1e-11
    # warm start from a nearby real solution
    sol2 = sub.solve(sub.SubordinationQuery(mu, mu, 0.0, 3.01), omega2_init=sol.omega2.real)
    assert abs(sol2.residual) < 1e-12
    assert sol2.omega1.real > 2.5


def test_real_axis_warm_start_uniform():
    # a real warm start must not depend on the type of the support bounds
    mu = ms.uniform(-1.0, 1.0)
    sol = sub.solve(sub.SubordinationQuery(mu, mu, 0.0, 2.0))
    warm = sub.solve(sub.SubordinationQuery(mu, mu, 0.0, 2.0), omega2_init=sol.omega2.real)
    assert warm.residual < 1e-12
    assert abs(warm.omega2 - sol.omega2) < 1e-12


def test_real_axis_inside_support_rejected():
    mu = ms.semicircle(1.0)
    with pytest.raises((sub.DomainError, ValueError)):
        sub.solve(sub.SubordinationQuery(mu, mu, 0.0, 2.0))  # inside sc(2) support


def test_query_validation():
    mu = ms.semicircle(1.0)
    with pytest.raises(sub.DomainError):
        sub.solve(sub.SubordinationQuery(mu, mu, -0.5, 1j))
    with pytest.raises(sub.DomainError):
        sub.solve(sub.SubordinationQuery(mu, mu, 0.0, 1 - 1j))
    with pytest.raises(sub.DomainError):
        sub.solve(sub.SubordinationQuery(mu, mu, 0.0, 1j), tol=1e-16)


def test_nonconvergence_reports_iterations():
    mu = ms.semicircle(1.0)
    with pytest.raises(sub.NonConvergenceError) as exc:
        sub.solve(sub.SubordinationQuery(mu, mu, 0.0, 0.0 + 0.001j), max_iter=3)
    assert exc.value.iterations == 3
    assert exc.value.residual > 0


@pytest.mark.parametrize("kappa", [0.0, 1e-4, 1e-2])
@pytest.mark.parametrize("eta", [1e-4, 2e-4])
def test_edge_stall_semicircle_closed_form(kappa, eta):
    # the point_mass(0) pair at t = 1 is the standard semicircle; just inside
    # its edge 2 the stability function nearly vanishes and the plain
    # fixed-point step stalls, so a cold start must still converge quickly
    mu = ms.point_mass(0.0)
    z = complex(2.0 - kappa, eta)
    sol = sub.solve(sub.SubordinationQuery(mu, mu, 1.0, z))
    assert abs(sol.m - m_sc(z)) <= 1e-10
    assert sol.iterations <= 100


@given(st.floats(0.0, 2.0), st.floats(-4.0, 4.0), st.floats(1e-4, 2.0))
@settings(max_examples=400, deadline=None)
def test_semicircle_pair_property(t, re, im):
    # sc(1) (+) sc(1) (+) sc(t) is the semicircle of variance 2 + t
    mu = ms.semicircle(1.0)
    z = complex(re, im)
    sol = sub.solve(sub.SubordinationQuery(mu, mu, t, z))
    assert sol.converged
    assert abs(sol.m - m_sc(z, 2.0 + t)) <= 1e-9
    assert sol.omega1.imag >= im - 1e-10
    assert sol.omega2.imag >= im - 1e-10


def test_density_semicircle_pair():
    mu = ms.semicircle(1.0)
    rho = sub.density(mu, mu, 0.0, np.array([0.0]))
    assert abs(rho[0] - 1.0 / (math.pi * math.sqrt(2.0))) < 1e-6
    far = sub.density(mu, mu, 0.0, np.array([6.0]))
    assert far[0] <= 1e-10


def test_density_mass_and_csv_columns():
    mu = ms.semicircle(1.0)
    grid = np.arange(-3.0, 3.0 + 1e-9, 2e-3)
    rho, resid, iters = sub.density_sweep(mu, mu, 0.0, grid)
    assert not np.any(np.isnan(rho))
    mass = np.trapezoid(rho, grid)
    assert 0.99 <= mass <= 1.001
    assert np.all(resid <= 1e-11)
    assert np.all(iters >= 1)


@pytest.mark.skipif(os.environ.get("FREECONV_HEAVY") != "1",
                    reason="several minutes and ~3 GB; set FREECONV_HEAVY=1")
def test_density_uniform_pair_matches_matrix_monte_carlo_heavy():
    _density_vs_monte_carlo(n=8000)


def test_density_uniform_pair_matches_matrix_monte_carlo():
    # same check at n=4000; the n=8000 variant of the oracle runs under
    # FREECONV_HEAVY=1 (this sandbox has 1 core / 5 GB)
    _density_vs_monte_carlo(n=4000)


def _density_vs_monte_carlo(n):
    # intermediates are dropped as they are consumed; at n=8000 each square
    # is a gigabyte and keeping them alive would not fit a 5 GB budget
    rng = np.random.default_rng(np.random.Philox(key=12345))
    mu = ms.uniform(-1.0, 1.0)
    a = ms.quantiles(mu, n)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    del z
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    del q, r
    h = (u * a) @ u.conj().T
    del u
    np.fill_diagonal(h, h.diagonal() + a)
    lam = np.linalg.eigvalsh(h)
    del h
    # density at 0 from the empirical CDF over a window (rigidity makes this
    # far more accurate than a histogram bin)
    w = 0.2
    est = (np.searchsorted(lam, w) - np.searchsorted(lam, -w)) / (2.0 * w * n)
    rho0 = sub.density(mu, mu, 0.0, np.array([0.0]))[0]
    assert abs(est - rho0) < 0.01
