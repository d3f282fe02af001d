"""Airy function pair and the Tracy-Widom beta=2 distribution."""

import math

import numpy as np
import pytest
import scipy.special

from freeconv import tracywidom as tw

# 30-digit oracle values (independent integral representation evaluated
# with mpmath), frozen.  Points straddle both the series window and the
# asymptotic branches on each side.
AIRY_FROZEN = {
    0.0: (0.35502805388781724, -0.25881940379280680),
    1.0: (0.13529241631288142, -0.15914744129679321),
    2.0: (0.034924130423274379, -0.053090384433653632),
    5.0: (1.0834442813607442e-4, -2.4741389086846248e-4),
    5.5: (3.3685311908599814e-5, -8.0463391305565143e-5),
    8.0: (4.6922076160992316e-8, -1.3414392979067866e-7),
    10.0: (1.1047532552898686e-10, -3.5206336767389236e-10),
    -1.0: (0.53556088329235212, -0.010160567116645209),
    -2.0: (0.22740742820168558, 0.61825902074169104),
    -5.0: (0.35076100902411432, 0.32719281855444314),
    -5.5: (0.017781541276574976, 0.86419721777139839),
    -8.0: (-0.052705050356386203, 0.93556093819830655),
    -10.0: (0.040241238486443191, 0.99626504413279006),
    -20.0: (-0.17640612707798469, 0.89286285673647124),
    -35.0: (0.13033638994602217, -1.1342272299930086),
}

# Same oracle at the left seam and at both ends of the evaluated range.
AIRY_SEAMS = {
    -6.7: (-0.078312471801255761, -0.88790796525555364),
    40.0: (6.3657426585529149e-75, -4.030017977600678e-74),
    -40.0: (-0.04593392343795725, -1.3890908752607184),
}

# Literature values for the beta=2 Tracy-Widom mean and variance.
TW2_MEAN = -1.771086807411601
TW2_VAR = 0.8131947928329


@pytest.fixture(scope="module")
def ev():
    return tw.TWEvaluator(40)


@pytest.fixture(scope="module")
def ev80():
    return tw.TWEvaluator(80)


def test_airy_frozen_values():
    for x, (ai, aip) in AIRY_FROZEN.items():
        assert abs(tw.airy_ai(x) - ai) < 1e-12, x
        assert abs(tw.airy_ai_prime(x) - aip) < 1e-12, x


def test_airy_at_origin():
    assert abs(tw.airy_ai(0.0) - 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)) < 1e-16
    assert abs(tw.airy_ai_prime(0.0) + 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)) < 1e-16


def test_airy_against_scipy():
    for x in np.linspace(-12.0, 8.0, 401):
        ai, aip, _, _ = scipy.special.airy(x)
        assert abs(tw.airy_ai(x) - ai) < 1e-11
        assert abs(tw.airy_ai_prime(x) - aip) < 1e-11


def test_airy_ode_residual():
    # Ai'' = x Ai, checked with a fourth-order five-point stencil; a plain
    # central difference cannot resolve 1e-8 at x = -5.
    h = 0.01
    for x in (-5.0, -1.0, 0.0, 1.0, 5.0):
        f = [tw.airy_ai(x + k * h) for k in (-2, -1, 0, 1, 2)]
        second = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        assert abs(second - x * tw.airy_ai(x)) <= 1e-8


def test_airy_range_guards():
    assert tw.airy_ai(41.0) == 0.0
    assert tw.airy_ai_prime(41.0) == 0.0
    with pytest.raises(ValueError):
        tw.airy_ai(-41.0)
    with pytest.raises(ValueError):
        tw.airy_ai_prime(-41.0)
    assert tw.airy_ai(math.inf) == 0.0
    assert tw.airy_ai_prime(math.inf) == 0.0


def test_airy_nan_rejected():
    # NaN lies in no branch's mask; it must raise, not come back as 0.0.
    for f in (tw.airy_ai, tw.airy_ai_prime):
        with pytest.raises(ValueError):
            f(math.nan)
        with pytest.raises(ValueError):
            f(np.array([0.0, math.nan, 1.0]))


def test_airy_array_call_matches_oracle():
    # One batch across every branch and both seams (5.5 is in AIRY_FROZEN);
    # 40 is the last point of the right branch, -40 the last accepted.
    oracle = {**AIRY_FROZEN, **AIRY_SEAMS}
    xs = np.array(list(oracle))
    ai, aip = tw.airy_ai(xs), tw.airy_ai_prime(xs)
    assert ai.shape == aip.shape == xs.shape
    for x, a, ap in zip(xs, ai, aip):
        assert abs(a - oracle[x][0]) < 1e-12, x
        assert abs(ap - oracle[x][1]) < 1e-12, x


def test_evaluator_validation():
    with pytest.raises(ValueError):
        tw.TWEvaluator(19)
    # a non-integer order is rejected, not truncated by int() (40.5 -> 40)
    for bad in (40.5, 40.0, "40"):
        with pytest.raises(ValueError):
            tw.TWEvaluator(bad)
    assert tw.TWEvaluator(np.int64(40)).m == 40
    assert type(tw.TWEvaluator(np.int32(40)).m) is int


def test_cdf_tail_limits(ev):
    assert tw.tw2_cdf(ev, 6.0) >= 1.0 - 1e-8
    assert tw.tw2_cdf(ev, -9.0) <= 1e-4


def test_cdf_monotone_and_bounded(ev):
    grid = np.linspace(-12.0, 8.0, 201)
    vals = tw.tw2_cdf(ev, grid)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)
    dens = np.diff(vals) / np.diff(grid)
    assert dens.min() >= -1e-9


def test_cdf_domain_rejected(ev):
    # outside the window F2 saturates; only NaN lies in neither tail
    assert tw.tw2_cdf(ev, -13.0) == 0.0
    assert tw.tw2_cdf(ev, 9.0) == 1.0
    for bad, value in ((-13.0, 0.0), (9.0, 1.0)):
        f = tw.tw2_cdf(ev, np.array([-2.0, bad, 0.5]))
        assert f[1] == value
    with pytest.raises(ValueError):
        tw.tw2_cdf(ev, math.nan)
    with pytest.raises(ValueError):
        tw.tw2_cdf(ev, np.array([-2.0, math.nan, 0.5]))


def test_cdf_whole_line_batch(ev):
    # a batch straddling both window ends equals its per-point values
    s = np.array([-13.0, -12.0, -1.0, 8.0, 9.0, -math.inf, math.inf])
    f = tw.tw2_cdf(ev, s)
    assert np.array_equal(f, [tw.tw2_cdf(ev, float(v)) for v in s])
    assert f[0] == 0.0 and f[4] == 1.0 and f[5] == 0.0 and f[6] == 1.0
    for bad in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ValueError):
            tw.tw2_cdf(ev, bad)


def test_cdf_batch_matches_single_points(ev):
    # A 1,002-point grid spans several chunks; no value may depend on which
    # batch, or which position in it, computed it.
    step = 0.02
    grid = np.concatenate([np.arange(-12.0, 0.0 + 0.5 * step, step),
                           np.arange(0.0, 8.0 + 0.5 * step, step)])
    batch = tw.tw2_cdf(ev, grid)
    single = [tw.tw2_cdf(ev, float(s)) for s in grid]
    assert isinstance(single[0], float)
    assert np.array_equal(batch, np.array(single))


def test_cdf_quadrature_refinement(ev, ev80):
    grid = np.linspace(-10.0, 6.0, 81)
    diff = np.max(np.abs(tw.tw2_cdf(ev, grid) - tw.tw2_cdf(ev80, grid)))
    assert diff <= 1e-8


def test_mean(ev, ev80):
    mean, _ = tw.tw2_moments(ev)
    assert abs(mean - TW2_MEAN) <= 1e-12
    assert abs(mean - tw.tw2_moments(ev80)[0]) <= 1e-8


def test_variance(ev):
    _, variance = tw.tw2_moments(ev)
    assert abs(variance - TW2_VAR) <= 1e-12


def test_moments_frozen(ev):
    mean, variance = tw.tw2_moments(ev)
    assert abs(mean - (-1.7710868074115973)) <= 1e-15
    assert abs(variance - 0.8131947928329) <= 1e-15


def test_moments_use_the_evaluator_rule(ev, ev80, monkeypatch):
    # one m-point Gauss-Legendre panel on each side of the kink at s = 0:
    # 2m determinants, every point inside the window and none at s = 0
    seen = []
    det = tw._fredholm_det

    def counting(e, s):
        seen.append(s.copy())
        return det(e, s)

    monkeypatch.setattr(tw, "_fredholm_det", counting)
    moments = {}
    for e in (ev, ev80):
        seen.clear()
        moments[e.m] = tw.tw2_moments(e)
        points = np.concatenate(seen)
        assert points.size == 2 * e.m
        assert np.all((points > tw.S_LO) & (points < tw.S_HI) & (points != 0.0))
        assert np.sum(points < 0.0) == e.m
    assert np.max(np.abs(np.subtract(moments[40], moments[80]))) <= 1e-12
