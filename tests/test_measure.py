"""Measure representations, Stieltjes transforms, quantiles, CDFs.

Closed-form reference values are computed inline from independent formulas;
high-precision constants were frozen from a 40-digit quadrature/root-finding
oracle (noted next to each value).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import measure as ms

# frozen oracle constants (40-digit bisection against closed-form CDFs)
SC1_QUANTILE_75 = 0.8079455065990344   # solves CDF_sc(1) = 3/4
ARCSINE_M_HALF = complex(-0.03941986530625558, 0.4807756337167951)
#   arcsine(-2,2) at z = 0.5 + 0.7i, closed form -1/sqrt((z-2)(z+2))
# arcsine(-1,2): k-th derivative k!/pi int_0^pi (c + r cos(theta) - z)^-(k+1)
# dtheta (c = 1/2, r = 3/2), mpmath at 50 digits, quadrature split at the
# angle facing re z; it agrees with the closed form to 27+ digits.  Points in
# the bulk at im z = 1e-10, beyond b and below a.
ARCSINE_ASYM = {
    (0.3 + 1e-10j, 0): complex(6.087536597251697e-12, 0.6726727939963124),
    (0.3 + 1e-10j, 1): complex(-3.209040785429062e-11, -0.06087536597251697),
    (0.3 + 1e-10j, 2): complex(2.5538712327283896e-11, 0.3209040785429062),
    (2.5, 0): -0.7559289460184545,
    (2.5, 1): 0.8639187954496622,
    (2.5, 2): -2.530047900959725,
    (-1.7, 0): 0.6213697660012001,
    (-1.7, 1): 0.5278044344411739,
    (-1.7, 2): 1.1050731665291689,
}

# one measure of each family
ONE_OF_EACH = [ms.semicircle(1.0, 0.2), ms.uniform(-1.0, 2.0), ms.arcsine(-1.0, 2.0),
               ms.point_mass(0.3), ms.atoms([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])]


def test_semicircle_stieltjes_at_i():
    m = ms.stieltjes(ms.semicircle(1.0), 1j)
    assert abs(m - 1j * (math.sqrt(5) - 1) / 2) < 1e-14


def test_point_mass_stieltjes():
    assert abs(ms.stieltjes(ms.point_mass(0.0), 2j) - 0.5j) < 1e-15


def test_uniform_stieltjes_real_axis():
    m = ms.stieltjes(ms.uniform(-1.0, 1.0), 2.0)
    assert abs(m - (-math.log(3.0) / 2)) < 1e-14
    assert m.imag == 0.0


def test_uniform_stieltjes_interior_point():
    # frozen oracle: (log(1-z) - log(-1-z))/2 at z = 0.5+0.05i, 40 digits
    m = ms.stieltjes(ms.uniform(-1.0, 1.0), 0.5 + 0.05j)
    assert abs(m - complex(-0.5470961851917696, 1.504301502610192)) < 1e-13


def test_arcsine_matches_closed_form():
    mu = ms.arcsine(-2.0, 2.0)
    assert abs(ms.stieltjes(mu, 1.5j) - 0.4j) < 1e-12
    assert abs(ms.stieltjes(mu, 3.0) - (-1.0 / math.sqrt(5.0))) < 1e-12
    assert abs(ms.stieltjes(mu, 0.5 + 0.7j) - ARCSINE_M_HALF) < 1e-12


def test_arcsine_small_eta_near_support():
    # close to the support the closed form keeps the branch of the upper
    # half-plane: im m(E + i eta) -> pi * rho(E) as eta -> 0
    mu = ms.arcsine(-2.0, 2.0)
    z = 0.3 + 1e-5j
    rho = 1.0 / (math.pi * math.sqrt((0.3 + 2.0) * (2.0 - 0.3)))
    got = ms.stieltjes(mu, z)
    want = -1.0 / (np.sqrt(complex(z - 2.0)) * np.sqrt(complex(z + 2.0)))
    assert abs(got - want) <= 1e-15 * abs(want)
    assert abs(got.imag / math.pi - rho) < 1e-4


@pytest.mark.parametrize("z, k", list(ARCSINE_ASYM))
def test_arcsine_asymmetric_frozen(z, k):
    want = ARCSINE_ASYM[(z, k)]
    got = ms.stieltjes(ms.arcsine(-1.0, 2.0), z, k)
    assert abs(got - want) <= 1e-14 * abs(want)


@given(st.floats(-5.0, 5.0), st.floats(0.01, 5.0), st.floats(1e-9, 50.0),
       st.booleans(), st.sampled_from([0, 1, 2]))
@settings(max_examples=200, deadline=None)
def test_arcsine_real_outside_support_is_real(a, width, gap, above, k):
    b = a + width
    x = b + gap if above else a - gap
    m = ms.stieltjes(ms.arcsine(a, b), x, k)
    assert m.imag == 0.0
    # the sign of k! int (t - x)^-(k+1) dmu(t): m' > 0, while m and m'' are
    # negative above b and positive below a
    sign = 1.0 if k == 1 or not above else -1.0
    assert m.real * sign > 0.0


def test_derivative_examples():
    assert abs(ms.stieltjes(ms.semicircle(1.0), 3.0 / math.sqrt(2.0), 1) - 1.0) < 1e-12
    assert abs(ms.stieltjes(ms.point_mass(0.0), 2.0, 2) - (-0.25)) < 1e-15
    assert abs(ms.stieltjes(ms.uniform(-1.0, 1.0), 2.0, 1) - (1.0 / 3.0)) < 1e-14
    # k = 0 is the transform itself
    assert ms.stieltjes(ms.uniform(-1.0, 1.0), 2.0, 0) == ms.stieltjes(ms.uniform(-1.0, 1.0), 2.0)


def test_derivative_rejects_bad_order():
    for mu in ONE_OF_EACH:
        for k in (3, 4, -1):
            with pytest.raises(ValueError):
                ms.stieltjes(mu, 2j, k)


def test_stieltjes_elementwise_over_arrays():
    # an array z gives each entry the bits a one-entry array gives it, in any
    # shape; 70000 atoms make the atoms sum run in blocks of 3 lanes.  A
    # scalar z takes the scalar expressions and agrees to rounding.
    rng = np.random.default_rng(5)
    big = ms.atoms(rng.normal(size=70000), np.full(70000, 1.0 / 70000))
    z = np.concatenate([rng.normal(size=20) * 3 + 1j * rng.uniform(0.01, 2.0, 20),
                        [10.0, -10.0]])
    for mu in [ms.semicircle(1.0, 0.2), ms.uniform(-1.0, 2.0), ms.arcsine(-1.0, 2.0),
               ms.point_mass(0.3), big]:
        for k in (0, 1, 2):
            got = ms.stieltjes(mu, z, k)
            assert got.shape == z.shape
            assert np.array_equal(ms.stieltjes(mu, z.reshape(2, 11), k), got.reshape(2, 11))
            for i, zi in enumerate(z):
                assert ms.stieltjes(mu, z[i:i + 1], k)[0].tobytes() == got[i].tobytes()
                # a 0-d array is one entry too
                zero_d = ms.stieltjes(mu, z[i:i + 1].reshape(()), k)
                assert zero_d.shape == () and zero_d.tobytes() == got[i].tobytes()
                want = ms.stieltjes(mu, complex(zi), k)
                assert abs(got[i] - want) <= 1e-13 * abs(want)
        with pytest.raises(ValueError):
            ms.stieltjes(mu, np.array([1j, 0.5 - 1e-3j]))
        with pytest.raises(ValueError):
            ms.stieltjes(mu, np.array([1j, 0.3 + 0j]))


def _bits(m):
    """The bytes of a complex array, every nan entry read as one nan: the sign
    of a nan from the transforms depends on the lane's place in the array."""
    m = np.array(m, dtype=complex)
    m[np.isnan(m)] = complex(math.nan, math.nan)
    return m.tobytes()


def test_stieltjes_guard_on_mixed_lanes():
    # one reduction of im z clears an array whose entries all lie above the
    # axis; a nan, real or negative im z anywhere sends the array through the
    # full checks, and each lane still reads what it reads on its own
    nan, inf = math.nan, math.inf
    clean = np.array([0.3 + 0.1j, -0.5 + 2j])
    odd = [complex(0.3, nan), 3.5 + 0j, complex(0.3, inf), complex(inf, 0.1),
           complex(-inf, 0.1), complex(-inf, 0.0)]
    with np.errstate(all="ignore"):
        for mu in ONE_OF_EACH:
            for k in (0, 1, 2):
                base = ms.stieltjes(mu, clean, k)
                for extra in odd:
                    got = ms.stieltjes(mu, np.array([clean[0], extra, clean[1]]), k)
                    assert got[[0, 2]].tobytes() == base.tobytes()
                    assert _bits(got[1:]) == _bits(ms.stieltjes(mu, np.array([extra, clean[1]]), k))
                    two_d = ms.stieltjes(mu, np.array([[clean[0], extra], [clean[1], extra]]), k)
                    assert two_d.shape == (2, 2) and _bits(two_d[:, 1]) == _bits(got[[1, 1]])
                    zero_d = ms.stieltjes(mu, np.array(extra), k)
                    assert zero_d.shape == () and _bits(zero_d) == _bits(got[1])
                assert np.isnan(ms.stieltjes(mu, np.array([clean[0], odd[0]]), k)[1])
                empty = ms.stieltjes(mu, np.array([], dtype=complex), k)
                assert empty.shape == (0,) and empty.dtype == complex
                for z in ([0.3 - 0.1j], [complex(0.3, nan), 0.3 - 0.1j], [1j, complex(0.3, -inf)]):
                    with pytest.raises(ValueError, match=r"requires im z >= 0"):
                        ms.stieltjes(mu, np.array(z), k)
                x = 0.5 * (mu.lower + mu.upper)
                for z in ([1j, x, 10.0], [complex(0.3, nan), complex(x, 0.0)]):
                    with pytest.raises(ValueError, match=r"real z=%g lies inside the support" % x):
                        ms.stieltjes(mu, np.array(z, dtype=complex).reshape(1, -1), k)
    # beyond the support the uniform law reads its real on-axis form
    m = ms.stieltjes(ms.uniform(-1.0, 2.0), np.array([1j, 3.5 + 0j]))
    assert m[1].imag == 0.0 and abs(m[1].real - (math.log(1.5) - math.log(4.5)) / 3.0) < 1e-15


def test_real_z_inside_support_rejected():
    # the real z = 0.5 is the atom of the point mass
    for mu in [ms.semicircle(1.0), ms.uniform(-1.0, 1.0), ms.arcsine(-1.0, 1.0),
               ms.point_mass(0.5), ms.atoms([-1.0, 1.0], [0.5, 0.5])]:
        with pytest.raises(ValueError):
            ms.stieltjes(mu, 0.5)
        with pytest.raises(ValueError):
            ms.stieltjes(mu, -3.0 - 0.1j)


def test_atoms_constructor_validates():
    with pytest.raises(ValueError):
        ms.atoms([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        ms.atoms([0.0, 1.0], [-0.1, 1.1])
    with pytest.raises(ValueError):
        ms.atoms([0.0], [math.nan])
    with pytest.raises(ValueError):
        ms.atoms([math.inf], [1.0])
    mu = ms.atoms([1.0, -1.0], [0.25, 0.75])
    assert mu.locations[0] == -1.0 and mu.weights[0] == 0.75


def test_quantiles_uniform_and_point_mass():
    np.testing.assert_allclose(ms.quantiles(ms.uniform(-1.0, 1.0), 2), [-0.5, 0.5], atol=1e-11)
    np.testing.assert_allclose(ms.quantiles(ms.uniform(-1.0, 1.0), 4),
                               [-0.75, -0.25, 0.25, 0.75], atol=1e-11)
    np.testing.assert_allclose(ms.quantiles(ms.point_mass(0.7), 3), [0.7, 0.7, 0.7], atol=1e-11)


def test_quantiles_far_from_origin():
    # one ulp near 9000 is 1.8e-12, wider than the 1e-12 bracket tolerance
    q = ms.quantiles(ms.uniform(9000.0, 9001.0), 3)
    np.testing.assert_allclose(q, 9000.0 + np.array([1.0, 3.0, 5.0]) / 6.0, rtol=0, atol=1e-11)


def test_quantiles_semicircle_frozen():
    q = ms.quantiles(ms.semicircle(1.0), 2)
    np.testing.assert_allclose(q, [-SC1_QUANTILE_75, SC1_QUANTILE_75], atol=1e-10)


def test_levy_atomization_convergence():
    # the Kolmogorov distance bounds the Levy distance from above; for a
    # continuous mu its supremum sits at a jump of the atomic CDF, on one
    # side of it, and for quantile atoms it is exactly 1/(2n)
    mu = ms.uniform(-1.0, 1.0)
    d = {}
    for n in (100, 1000):
        x = ms.quantiles(mu, n)
        at = ms.atoms(x, np.full(n, 1.0 / n))
        f = ms.cdf(mu, x)
        d[n] = max(np.max(np.abs(f - ms.cdf(at, x))),
                   np.max(np.abs(f - ms.cdf(at, np.nextafter(x, -np.inf)))))
    assert d[1000] <= 1.5e-3
    assert 5.0 < d[100] / d[1000] < 20.0


@given(st.floats(-3.0, 3.0), st.floats(0.05, 50.0))
@settings(max_examples=80, deadline=None)
def test_nevanlinna_property(re, im):
    z = complex(re, im)
    for mu in [ms.semicircle(0.7, 0.2), ms.uniform(-1.5, 0.5), ms.arcsine(-1.0, 2.0),
               ms.point_mass(0.3), ms.atoms([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])]:
        assert ms.stieltjes(mu, z).imag > 0.0


@given(st.sampled_from(["semicircle", "uniform", "arcsine", "atoms"]))
@settings(max_examples=8, deadline=None)
def test_decay_at_infinity(fam):
    mu = {"semicircle": ms.semicircle(1.0), "uniform": ms.uniform(-1.0, 1.0),
          "arcsine": ms.arcsine(-2.0, 2.0),
          "atoms": ms.atoms([-0.5, 0.5], [0.5, 0.5])}[fam]
    z = 1e4j
    assert abs(z * ms.stieltjes(mu, z) + 1.0) < 1e-3


def test_derivative_matches_finite_difference():
    h = 1e-5
    for mu in [ms.semicircle(1.3, -0.4), ms.uniform(-1.0, 2.0), ms.arcsine(-1.0, 1.0),
               ms.atoms([-1.0, 1.0], [0.4, 0.6]), ms.point_mass(0.3)]:
        for z in [0.3 + 0.5j, -1.0 + 0.2j, 2.0 + 1.0j]:
            for k in (1, 2):
                fd = (ms.stieltjes(mu, z + h, k - 1) - ms.stieltjes(mu, z - h, k - 1)) / (2 * h)
                assert abs(fd - ms.stieltjes(mu, z, k)) / abs(fd) < 1e-6


def test_from_config_round_trip():
    mu = ms.from_config("semicircle", [2.0, 0.5])
    assert mu.family == "semicircle" and mu.params == (2.0, 0.5)
    mu = ms.from_config("atoms", [[0.0, 1.0], [0.5, 0.5]])
    assert mu.family == "atoms"
    with pytest.raises(ValueError):
        ms.from_config("cauchy", [1.0])
    # the config echo rebuilds every family, through JSON as report.json
    # stores it
    assert sorted(mu.family for mu in ONE_OF_EACH) == sorted(ms._FAMILIES)
    z = 0.4 + 0.3j
    for mu in ONE_OF_EACH:
        echo = json.loads(json.dumps(mu.echo()))
        assert echo["family"] == mu.family
        back = ms.from_config(echo["family"], echo["params"])
        assert type(back) is type(mu) and back.params == mu.params
        assert (back.lower, back.upper) == (mu.lower, mu.upper)
        assert ms.stieltjes(back, z) == ms.stieltjes(mu, z)
    # a wrong parameter count names the family's parameters
    for tag, params in [("semicircle", [1.0, 2.0, 3.0]), ("point_mass", []),
                        ("uniform", [1.0]), ("atoms", [[0.0]])]:
        with pytest.raises(ValueError, match=r"%s takes \(" % tag):
            ms.from_config(tag, params)
    with pytest.raises(ValueError) as exc:
        ms.from_config("semicircle", [1.0, 2.0, 3.0])
    assert str(exc.value) == "semicircle takes (variance, center=0.0), got 3 parameters"


def test_cdf_of_every_family():
    # 0 below lower and 1 from upper on; for the point mass, whose lower and
    # upper are its atom, this is the jump taken at the atom itself
    for mu in ONE_OF_EACH:
        lo, hi = mu.lower, mu.upper
        below = [lo - 1.0, np.nextafter(lo, -np.inf)]
        assert np.array_equal(ms.cdf(mu, below), [0.0, 0.0]), mu
        assert np.array_equal(ms.cdf(mu, [hi, hi + 1.0]), [1.0, 1.0]), mu
        f = ms.cdf(mu, np.linspace(lo - 1.0, hi + 1.0, 1001))
        assert np.all(np.diff(f) >= 0.0), mu
    # 1/2 at the centre of the symmetric families
    for mu in ONE_OF_EACH[:3]:
        assert abs(ms.cdf(mu, 0.5 * (mu.lower + mu.upper)) - 0.5) <= 1e-15, mu
    # right-continuous at each atom
    mu = ONE_OF_EACH[4]
    assert np.array_equal(ms.cdf(mu, mu.locations), np.cumsum(mu.weights))
    assert np.array_equal(ms.cdf(mu, np.nextafter(mu.locations, -np.inf)),
                          np.concatenate([[0.0], np.cumsum(mu.weights)[:-1]]))


def test_measure_arrays_immutable():
    mu = ms.atoms([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        mu.locations[0] = 5.0
