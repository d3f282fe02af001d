"""GUE Tracy-Widom distribution via the Airy-kernel Fredholm determinant.

F2(s) = det(I - K restricted to (s, inf)) with the Airy kernel
K(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y).  The determinant is
discretised by a Nystrom rule: Gauss-Legendre nodes mapped affinely onto
(s, s + L], the kernel sandwiched between sqrt-weight factors, and a dense
LU determinant of the resulting m x m matrix.  The kernel decays
super-exponentially, so L = 14 already leaves a 1e-10 scale tail.

The Airy function itself is evaluated from scratch: Maclaurin series up to
|x| = 5.5, asymptotic expansions with exponential (x > 5.5) or oscillatory
(x < -5.5) prefactors beyond, accurate to about 1e-12 absolute for |x| <= 10.
"""

import math

import numpy as np

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)    # Ai(0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)
_SERIES_TERMS = 60
# Branch seams balance series cancellation (error ~ exp(zeta) * eps) against
# the optimally truncated asymptotic tail (error ~ exp(-2 zeta)).  On the
# right the asymptotic error is relative to a decaying modulus, so the seam
# can sit early; on the left the modulus stays O(1) and the seam moves out.
_SEAM_RIGHT = 5.5
_SEAM_LEFT = -6.7


def _airy_series(x):
    """(Ai, Ai') by the Maclaurin series; reliable between the seams."""
    x3 = x * x * x
    f = a = 1.0
    g = s = x
    fp = 0.0
    b = 0.5 * x * x
    gp = c = 1.0
    for k in range(_SERIES_TERMS):
        a *= x3 / ((3 * k + 2) * (3 * k + 3))
        f += a
        s *= x3 / ((3 * k + 3) * (3 * k + 4))
        g += s
        c *= x3 / ((3 * k + 1) * (3 * k + 3))
        gp += c
        if k > 0:
            b *= x3 / ((3 * k) * (3 * k + 2))
        fp += b
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp
    return ai, aip


def _asymptotic_terms(zeta):
    """Terms u_k / zeta^k and v_k / zeta^k, truncated where they turn."""
    us = [1.0]
    vs = [1.0]
    u = 1.0
    tu = 1.0
    for k in range(40):
        u *= (3 * k + 2.5) * (3 * k + 1.5) * (3 * k + 0.5) / (54.0 * (k + 1) * (k + 0.5))
        t = u / zeta ** (k + 1)
        if abs(t) >= abs(tu) or abs(t) < 1e-18:
            break
        tu = t
        us.append(t)
        vs.append(-t * (6 * (k + 1) + 1) / (6 * (k + 1) - 1))
    return us, vs


def _airy_right(x):
    """Exponentially damped expansion for x > 5.5."""
    zeta = (2.0 / 3.0) * x ** 1.5
    us, vs = _asymptotic_terms(zeta)
    su = sum((-1) ** k * t for k, t in enumerate(us))
    sv = sum((-1) ** k * t for k, t in enumerate(vs))
    pre = math.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = pre * su / x ** 0.25
    aip = -pre * sv * x ** 0.25
    return ai, aip


def _airy_left(x):
    """Oscillatory expansion for x < -5.5."""
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    us, vs = _asymptotic_terms(zeta)
    ue = sum((-1) ** k * t for k, t in enumerate(us[0::2]))
    uo = sum((-1) ** k * t for k, t in enumerate(us[1::2]))
    ve = sum((-1) ** k * t for k, t in enumerate(vs[0::2]))
    vo = sum((-1) ** k * t for k, t in enumerate(vs[1::2]))
    w = zeta - 0.25 * math.pi
    cw, sw = math.cos(w), math.sin(w)
    rp = math.sqrt(math.pi)
    ai = (cw * ue + sw * uo) / (rp * z ** 0.25)
    aip = (z ** 0.25 / rp) * (sw * ve - cw * vo)
    return ai, aip


def _airy_pair(x):
    x = float(x)
    if x > 40.0:
        return 0.0, 0.0
    if x < -40.0:
        raise ValueError("Airy evaluation limited to x >= -40")
    if _SEAM_LEFT <= x <= _SEAM_RIGHT:
        return _airy_series(x)
    if x > 0:
        return _airy_right(x)
    return _airy_left(x)


def airy_ai(x):
    """Airy function Ai(x); 0.0 beyond x = 40, rejects x < -40."""
    return _airy_pair(x)[0]


def airy_ai_prime(x):
    """Derivative Ai'(x); 0.0 beyond x = 40, rejects x < -40."""
    return _airy_pair(x)[1]


class TWEvaluator:
    """Nystrom discretisation of the Airy-kernel determinant.

    m Gauss-Legendre nodes on (s, s + L]; immutable after construction.
    """

    def __init__(self, m=40, L=14.0):
        if m < 20:
            raise ValueError("quadrature order m must be >= 20")
        if L < 10.0:
            raise ValueError("domain cap L must be >= 10")
        self.m = int(m)
        self.L = float(L)
        u, w = np.polynomial.legendre.leggauss(self.m)
        self._nodes = u
        self._weights = w


def tw2_cdf(ev, s):
    """F2(s) = det(I - K_Airy on (s, inf)), clipped into [0, 1]."""
    s = float(s)
    if not -12.0 <= s <= 8.0:
        raise ValueError("s must lie in [-12, 8]")
    x = s + ev.L * (1.0 + ev._nodes) / 2.0
    w = ev._weights * ev.L / 2.0
    pairs = [_airy_pair(v) for v in x]
    ai = np.array([p[0] for p in pairs])
    aip = np.array([p[1] for p in pairs])
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    kern = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / dx
    np.fill_diagonal(kern, aip * aip - x * ai * ai)
    a = np.eye(ev.m) - np.sqrt(np.outer(w, w)) * kern
    sign, logdet = np.linalg.slogdet(a)
    val = sign * math.exp(logdet)
    return min(1.0, max(0.0, val))


def tw2_quantile(ev, p):
    """Inverse of tw2_cdf by bisection to 1e-8 in s."""
    p = float(p)
    if not 1e-4 <= p <= 1.0 - 1e-6:
        raise ValueError("p must lie in [1e-4, 1 - 1e-6]")
    lo, hi = -12.0, 8.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if tw2_cdf(ev, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tw2_moments(ev):
    """(mean, variance) of TW2 by tail-formula quadrature of one CDF table.

    E X = -int_{-12}^{0} F2 ds + int_{0}^{8} (1 - F2) ds and
    E X^2 = 2 (int_{0}^{8} s (1 - F2) ds - int_{-12}^{0} s F2 ds), both by the
    trapezoid rule on a 0.02-spaced grid, up to tails below 1e-13.
    """
    step = 0.02
    neg = np.arange(-12.0, 0.0 + 0.5 * step, step)
    pos = np.arange(0.0, 8.0 + 0.5 * step, step)
    f_neg = np.array([tw2_cdf(ev, v) for v in neg])
    f_pos = np.array([tw2_cdf(ev, v) for v in pos])
    mean = float(np.trapezoid(1.0 - f_pos, pos) - np.trapezoid(f_neg, neg))
    second = 2.0 * (
        np.trapezoid(pos * (1.0 - f_pos), pos) - np.trapezoid(neg * f_neg, neg)
    )
    return mean, float(second - mean * mean)
