"""Subordination solver: fixed point, its limit at the real axis beyond the edge,
density inversion."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import edge as eg
from freeconv import measure as ms
from freeconv import subordination as sub


def m_sc(z, var=1.0):
    """Closed-form semicircle Stieltjes transform (independent reference)."""
    z = complex(z)
    s = np.sqrt(complex(z - 2 * math.sqrt(var))) * np.sqrt(complex(z + 2 * math.sqrt(var)))
    return (-z + s) / (2 * var)


def beyond_edge(mu1, mu2, t, x):
    """(omega1, omega2, residual) just above a real x beyond the upper edge.

    omega is analytic off the support, so at x + 1e-12 i it is the real
    subordination pair to O(1e-12); real z itself must be rejected.
    """
    with pytest.raises(sub.DomainError):
        sub.solve(mu1, mu2, t, x)
    sol = sub.solve(mu1, mu2, t, complex(x, 1e-12))
    return sol.omega1, sol.omega2, sol.residual


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


def test_f_transform_zero_stieltjes_is_domain_error():
    # Far from the support the uniform transform's log difference cancels to
    # exactly 0; -1/m is then no number, and a density grid point there fails.
    mu = ms.uniform(-1.0, 1.0)
    z = complex(1e20, 1e-3)
    assert ms.stieltjes(mu, z) == 0
    for k in (0, 1, 2):
        with pytest.raises(sub.DomainError):
            sub.f_transform(mu, 0.0, z, k)
    rho, _, _ = sub.density_sweep(mu, mu, 0.0, [0.0, 1e20])
    assert np.isfinite(rho[0]) and np.isnan(rho[1])


def test_solve_semicircle_pair_t0():
    mu = ms.semicircle(1.0)
    w1, w2, res = beyond_edge(mu, mu, 0.0, 3.0)
    assert res < 1e-12
    assert abs(w1 - 2.5) < 1e-10
    assert abs(w2 - 2.5) < 1e-10
    assert abs(ms.stieltjes(mu, w1) - (-0.5)) < 1e-10


def test_solve_semicircle_pair_t1():
    mu = ms.semicircle(1.0)
    w1, _, _ = beyond_edge(mu, mu, 1.0, 4.0)
    assert abs(w1 - 10.0 / 3.0) < 1e-10
    assert abs(ms.stieltjes(mu, w1) - (-1.0 / 3.0)) < 1e-10


def test_solve_delta_shift():
    for c in (-0.3, 0.5):
        for z in (2j, 0.7 + 1.1j):
            sol = sub.solve(ms.semicircle(1.0), ms.point_mass(c), 0.0, z)
            assert abs(sol.omega1 - (z - c)) < 1e-10
            assert abs(sol.m - m_sc(z - c)) < 1e-10


def test_solve_matches_sc2_on_contour():
    mu = ms.semicircle(1.0)
    for x in np.linspace(-3.5, 3.5, 40):
        z = complex(x, 0.05)
        sol = sub.solve(mu, mu, 0.0, z)
        assert abs(sol.m - m_sc(z, 2.0)) < 1e-10


def test_solve_m_consistent_between_sides():
    mu1, mu2 = ms.uniform(-1.0, 1.0), ms.arcsine(-1.0, 1.0)
    sol = sub.solve(mu1, mu2, 0.3, 0.4 + 0.2j)
    m1 = ms.stieltjes(mu1, sol.omega1)
    m2 = ms.stieltjes(mu2, sol.omega2)
    assert abs(m1 - m2) < 1e-10


def test_solve_swap_symmetry():
    mu1, mu2 = ms.uniform(-1.0, 1.0), ms.semicircle(0.5, 0.2)
    z = 0.3 + 0.4j
    a = sub.solve(mu1, mu2, 0.2, z)
    b = sub.solve(mu2, mu1, 0.2, z)
    assert abs(a.omega1 - b.omega2) < 1e-10
    assert abs(a.omega2 - b.omega1) < 1e-10
    assert abs(a.m - b.m) < 1e-10


def test_time_route_consistency():
    # omega_{1,t}(z) = omega_{1,0}(z + t m_{mu_t}(z))
    mu1, mu2, t = ms.uniform(-1.0, 1.0), ms.uniform(-1.0, 1.0), 0.4
    for z in (0.5 + 0.8j, 1.9 + 0.3j):
        st_ = sub.solve(mu1, mu2, t, z)
        s0 = sub.solve(mu1, mu2, 0.0, z + t * st_.m)
        assert abs(st_.omega1 - s0.omega1) < 1e-8


def test_half_plane_preservation():
    for z in (0.1 + 0.02j, 2.0 + 1.0j, -1.5 + 0.3j):
        for t in (0.0, 1.3):
            sol = sub.solve(ms.arcsine(-1.0, 1.0), ms.uniform(-0.5, 1.5), t, z)
            assert sol.omega1.imag >= z.imag - 1e-10
            assert sol.omega2.imag >= z.imag - 1e-10


@given(st.floats(-2.0, 2.0), st.floats(0.05, 5.0), st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_pick_property_of_f(re, im, t):
    z = complex(re, im)
    for mu in (ms.semicircle(1.0), ms.uniform(-1.0, 1.0)):
        assert sub.f_transform(mu, t, z).imag >= z.imag - 1e-12


def test_real_axis_inside_support_rejected():
    mu = ms.semicircle(1.0)
    rep = eg.find_edge_stability(mu, mu, 0.0)
    for x in (2.0, rep.e_plus):  # inside the sc(2) support, and at its edge
        with pytest.raises(sub.DomainError):
            sub.solve(mu, mu, 0.0, x)


def test_query_validation():
    mu = ms.semicircle(1.0)
    with pytest.raises(sub.DomainError):
        sub.solve(mu, mu, -0.5, 1j)
    with pytest.raises(sub.DomainError):
        sub.solve(mu, mu, 0.0, 1 - 1j)


def test_nonfinite_query_rejected_before_iterating(monkeypatch):
    # a nan real part passes the im z > 0 check, and a nan t the t < 0 one;
    # both must fail before the first transform evaluation, not after
    # max_iter iterations on nan
    calls = []
    real_stieltjes = sub.ms.stieltjes

    def counting(*args):
        calls.append(args)
        return real_stieltjes(*args)

    monkeypatch.setattr(sub.ms, "stieltjes", counting)
    mu = ms.uniform(-1.0, 1.0)
    for t, z in ((0.0, complex(math.nan, 0.1)), (0.0, complex(math.inf, 0.1)),
                 (0.0, complex(0.3, math.inf)), (math.nan, 0.3 + 0.1j),
                 (math.inf, 0.3 + 0.1j)):
        with pytest.raises(sub.DomainError):
            sub.solve(mu, mu, t, z)
    assert calls == []
    rho, _, iters = sub.density_sweep(mu, mu, math.nan, np.array([0.0, 0.5]))
    assert np.all(np.isnan(rho)) and np.all(iters == 0)
    assert calls == []


def test_nonconvergence_reports_iterations():
    mu = ms.semicircle(1.0)
    with pytest.raises(sub.NonConvergenceError) as exc:
        sub.solve(mu, mu, 0.0, 0.0 + 0.001j, max_iter=3)
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
    sol = sub.solve(mu, mu, 1.0, z)
    assert abs(sol.m - m_sc(z)) <= 1e-10
    assert sol.iterations <= 100


@given(st.floats(0.0, 2.0), st.floats(-4.0, 4.0), st.floats(1e-4, 2.0))
@settings(max_examples=400, deadline=None)
def test_semicircle_pair_property(t, re, im):
    # sc(1) (+) sc(1) (+) sc(t) is the semicircle of variance 2 + t
    mu = ms.semicircle(1.0)
    z = complex(re, im)
    sol = sub.solve(mu, mu, t, z)
    assert sol.residual <= 1e-12
    assert abs(sol.m - m_sc(z, 2.0 + t)) <= 1e-9
    assert sol.omega1.imag >= im - 1e-10
    assert sol.omega2.imag >= im - 1e-10


def test_density_semicircle_pair():
    mu = ms.semicircle(1.0)
    rho = sub.density_sweep(mu, mu, 0.0, np.array([0.0]))[0]
    assert abs(rho[0] - 1.0 / (math.pi * math.sqrt(2.0))) < 1e-6
    far = sub.density_sweep(mu, mu, 0.0, np.array([6.0]))[0]
    assert far[0] <= 1e-10
    # sc(1) + sc(1) + sc(t) is the semicircle of variance 2 + t: its square-
    # root profile down to kappa = 1e-6 below the edge, and 0 just beyond it
    for t in (0.0, 1.0):
        var = 2.0 + t
        e_plus = 2.0 * math.sqrt(var)
        x = e_plus - np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, -1e-3])
        exact = np.sqrt(np.maximum(4.0 * var - x * x, 0.0)) / (2.0 * math.pi * var)
        rho = sub.density_sweep(mu, mu, t, x)[0]
        assert np.all(np.abs(rho - exact) <= 1e-8)


def test_density_mass_and_csv_columns():
    mu = ms.semicircle(1.0)
    grid = np.arange(-3.0, 3.0 + 1e-9, 2e-3)
    rho, resid, iters = sub.density_sweep(mu, mu, 0.0, grid)
    assert not np.any(np.isnan(rho))
    mass = np.trapezoid(rho, grid)
    assert 0.99 <= mass <= 1.001
    assert np.all(resid <= 1e-11)
    assert np.all(iters >= 1)


def test_density_failed_lane_is_nan_at_its_point_only(monkeypatch):
    # the first transform value of the lane at grid[2] is poisoned with nan:
    # that lane fails at its first step and only its grid point reads nan,
    # with residual 0 and iterations 0
    mu = ms.uniform(-1.0, 1.0)
    grid = np.linspace(-0.5, 0.5, 5)
    real_h = sub._h
    calls = []

    def poisoned(mu_, t, w):
        out = real_h(mu_, t, w)
        if not calls:
            out[2] = np.nan
        calls.append(len(w))
        return out

    clean = sub.density_sweep(mu, mu, 0.0, grid)
    monkeypatch.setattr(sub, "_h", poisoned)
    rho, resid, iters = sub.density_sweep(mu, mu, 0.0, grid)
    # h2, then h1 on all five lanes; the next h2 runs without the failed lane
    assert calls[:3] == [5, 5, 4]
    assert np.isnan(rho[2]) and resid[2] == 0.0 and iters[2] == 0
    keep = np.arange(len(grid)) != 2
    for got, want in zip((rho, resid, iters), clean):
        assert np.array_equal(got[keep], want[keep])


def test_nonfinite_iterate_is_domain_error_at_once():
    # t = 1e300 overflows the first transform value; the lane stops at that
    # step instead of running max_iter iterations on nan
    mu = ms.semicircle(1.0)
    with pytest.raises(sub.DomainError, match="non-finite"):
        sub.solve(mu, mu, 1e300, 0.3 + 0.1j)
    rho, resid, iters = sub.density_sweep(mu, mu, 1e300, [0.0, 0.3])
    assert np.all(np.isnan(rho)) and np.all(iters == 0)


def test_iterate_below_axis_is_nan_point():
    # the far point masses put an iterate below the real axis; the lane
    # fails before that iterate reaches a transform, so the sweep gives nan
    # points instead of the transform's ValueError
    mu1, mu2 = ms.point_mass(1e300), ms.point_mass(-1e300)
    rho, _, iters = sub.density_sweep(mu1, mu2, 0.0, [0.0, 0.3])
    assert np.all(np.isnan(rho)) and np.all(iters == 0)
    with pytest.raises(sub.DomainError):
        sub.solve(mu1, mu2, 0.0, 0.3 + 1e-3j)


@pytest.mark.parametrize("family", [
    lambda s: ms.semicircle(s * s, 0.1 * s), lambda s: ms.uniform(-s, 0.8 * s),
    lambda s: ms.arcsine(-0.6 * s, 1.2 * s),
    lambda s: ms.atoms([-s, 0.2 * s, 0.9 * s], [0.3, 0.5, 0.2])],
    ids=["semicircle", "uniform", "arcsine", "atoms"])
def test_point_mass_factor_at_t0_in_either_order(family):
    # at t = 0 the point mass's h = -c carries rounding that F' of the other
    # factor amplifies next to its endpoints and atoms; iterated second, the
    # plain step cycled above the tolerance there.  Either order converges
    # at once to the same bits, the other factor's density translated by c.
    for scale in (0.01, 1.0, 1000.0):
        mu = family(scale)
        for c in (0.0, 0.7 * scale, -1.3 * scale):
            pm = ms.point_mass(c)
            x = np.array([mu.lower, 0.5 * (mu.lower + mu.upper),
                          mu.upper - 1e-9 * (mu.upper - mu.lower), mu.upper])
            first = sub.density_sweep(pm, mu, 0.0, c + x)
            second = sub.density_sweep(mu, pm, 0.0, c + x)
            for a, b in zip(first, second):
                assert np.array_equal(a, b)
            rho, _, iters = second
            assert np.all(np.isfinite(rho)) and np.all(iters <= 2)
            # at scale 1000 a rounding of eps |c| moves z - c by about 3e-4 eta
            z = c + x + 1j * sub._ETA
            want = ms.stieltjes(mu, z - c).imag / np.pi
            assert np.all(np.abs(rho - want) <= 1e-3 * want)


FAMILIES = [ms.semicircle(1.0, 0.1), ms.uniform(-1.0, 0.8), ms.arcsine(-0.6, 1.2),
            ms.point_mass(0.3), ms.atoms([-1.0, 0.2, 0.9], [0.3, 0.5, 0.2])]


@pytest.mark.parametrize("mu1", FAMILIES, ids=repr)
@pytest.mark.parametrize("t", [0.0, 0.7])
def test_sweep_lane_equals_solve_bitwise(mu1, t):
    # each sweep lane runs solve's iteration on its own, so the density at
    # every E equals im m / pi of per-point solve at E + i _ETA bit for bit
    mu2 = ms.uniform(-0.5, 1.0)
    grid = np.linspace(-3.0, 3.0, 13)
    rho, resid, iters = sub.density_sweep(mu1, mu2, t, grid)
    sols = [sub.solve(mu1, mu2, t, complex(e, sub._ETA)) for e in grid]
    assert np.array_equal(rho, [s.m.imag / np.pi for s in sols])
    assert np.array_equal(resid, [s.residual for s in sols])
    assert np.array_equal(iters, [s.iterations for s in sols])


def test_sweep_subgrid_equals_full_grid():
    mu1, mu2 = ms.arcsine(-1.0, 1.0), ms.uniform(-1.0, 1.0)
    grid = np.linspace(-2.5, 2.5, 101)
    full = sub.density_sweep(mu1, mu2, 0.5, grid)
    for part in (slice(0, 1), slice(40, 61), slice(None, None, 7)):
        sub_sweep = sub.density_sweep(mu1, mu2, 0.5, grid[part])
        for a, b in zip(sub_sweep, full):
            assert np.array_equal(a, b[part])


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
    rho0 = sub.density_sweep(mu, mu, 0.0, np.array([0.0]))[0][0]
    assert abs(est - rho0) < 0.01
