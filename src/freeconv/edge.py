"""Upper spectral edge location and edge-scale analysis.

For the additive convolution of mu1, mu2 and a semicircle of variance t,
a square-root upper edge E_+ is the largest real point where the stability
function

    S(z) = (F1'(w1(z)) - 1) (F2'(w2(z)) - 1) - 1

vanishes.  On the real axis beyond the edge S(E) ~ -c sqrt(E - E_+), so a
bisection in E cannot push |S| near machine precision.  The search here runs
in the w2 coordinate instead: for real w2 beyond the support of mu2 the
partner point w1 is recovered by inverting F1 = F2(w2), S has a simple zero
at the critical w2, and the edge abscissa E(w2) = w1 + w2 - F2(w2) satisfies
dE/dw2 = -S/F1', so it is stationary at the root and inherits twice the
accuracy of the located w2.

The edge scale gamma is normalised through the density profile

    rho(E_+ - kappa) ~ (gamma^{3/2} / pi) sqrt(kappa),

which makes gamma = 1 for a standard semicircle on [-2, 2].  Near the root w2c,
E(w2) - E_+ ~ -S'/(2 F1') (w2 - w2c)^2 with S' = dS/dw2, and the convolution's
transform is m_{mu2}(w2), so gamma = (m'_{mu2}(w2c) sqrt(2 F1'(w1c)/|S'|))^{2/3}.
The t = 0 shift case (one factor a point mass) has no root; gamma is then the
other factor's own coefficient.  With a point-mass factor at t > 0,
`edge_from_xi` gives gamma independently as (-t^3 m''_{mu0}(xi) / 2)^{-1/3},
with xi the rightmost solution of m'_{mu0}(xi) = 1/t, mu0 the other factor.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import measure as ms
from .subordination import density_sweep, f_transform


class BracketNotFound(RuntimeError):
    """No zero of the stability function was located above the support."""


class FitUnstable(RuntimeError):
    """A shift case without a square-root edge, or failed density solves."""


@dataclass(frozen=True)
class EdgeReport:
    e_plus: float
    xi: Optional[float]
    gamma: float
    omega1_edge: float
    omega2_edge: float
    scaled_edge: float
    method: str
    residual: float


def _real_f(mu, t, x, k=0):
    """F_{mu,t} (k=0) or its k-th derivative at a real point beyond support."""
    return f_transform(mu, t, complex(x, 0.0), k).real


def _shift_case(mu1, mu2, t):
    """(c, other) when t = 0 and one factor is the point mass at c, so that the
    convolution is `other` translated by c; else None."""
    if t == 0.0:
        for atom, other in ((mu2, mu1), (mu1, mu2)):
            if atom.lower == atom.upper:
                return atom.lower, other
    return None


def _newton_root(f, lo, hi):
    """Root of f in the bracket (lo, hi), by Newton steps kept inside it.

    f(x) returns (g, g') with g increasing through the root (g <= 0 on the
    lo side, g > 0 on the hi side), or None for a lo-side point where g is
    undefined.  Each evaluation tightens the bracket; a Newton step from
    the latest iterate, on either side of the root, is taken when it stays
    inside, and otherwise, or from a None point, the bracket is bisected.
    Returns once a step moves the iterate by at most 1e-15 relative.
    """
    x = 0.5 * (lo + hi)
    for _ in range(200):
        ev = f(x)
        if ev is not None and ev[0] > 0.0:
            hi = x
        else:
            lo = x
        cand = 0.5 * (lo + hi)
        if ev is not None and ev[1] > 0.0:
            newton = x - ev[0] / ev[1]
            if lo <= newton <= hi:
                cand = newton
        if abs(cand - x) <= 1e-15 * max(1.0, abs(x)):
            return cand
        x = cand
    return x


def _march(is_hi, floor, gap, factor, bound):
    """Bracket a root on the points floor + gap * factor**k, k = 0, 1, ...

    An upward march (factor > 1) stops at the first point where is_hi holds
    and returns (previous point, that point); a downward march (factor < 1)
    stops at the first point where it fails and returns (that point,
    previous point).  Before the first point the previous one is the floor
    upward, which must lie on the lo side, and floor + gap / factor
    downward, which must lie on the hi side.  Raises BracketNotFound once
    the gap passes bound: above it upward, below it downward.
    """
    upward = factor > 1.0
    prev = floor if upward else floor + gap / factor
    while (gap <= bound) if upward else (gap >= bound):
        x = floor + gap
        if is_hi(x) == upward:
            return (prev, x) if upward else (x, prev)
        prev = x
        gap *= factor
    raise BracketNotFound("no sign change on floor %r + gap * %g**k before gap %g"
                          % (floor, factor, bound))


def _invert_f(mu, t, u, eps):
    """Real w beyond the support of mu with F_{mu,t}(w) = u.

    F_{mu,t} is strictly increasing on (sup supp, inf), so the inverse is
    found by a bracketed Newton iteration.  Returns None when u lies below
    the range, which signals that the queried point sits inside the band.
    """
    lo = mu.upper + eps
    flo = _real_f(mu, t, lo)
    if not flo < u:
        return None
    step = max(1.0, u - flo)
    try:
        lo, hi = _march(lambda w: _real_f(mu, t, w) >= u, lo, step, 2.0, step * 2.0 ** 79)
    except BracketNotFound:
        return None
    return _newton_root(lambda w: (_real_f(mu, t, w) - u, _real_f(mu, t, w, 1)), lo, hi)


def _stability_at(mu1, mu2, t, w2, eps1):
    """(S, w1, F1'(w1), F2'(w2)) at a real w2 beyond the support of mu2, or
    None inside the band."""
    w1 = _invert_f(mu1, t, _real_f(mu2, t, w2), eps1)
    if w1 is None:
        return None
    f1p = _real_f(mu1, t, w1, 1)
    f2p = _real_f(mu2, t, w2, 1)
    return (f1p - 1.0) * (f2p - 1.0) - 1.0, w1, f1p, f2p


def _ds_dw2(mu1, mu2, t, w1, w2, f1p, f2p):
    """dS/dw2 along the matched curve F1(w1) = F2(w2), where dw1/dw2 = F2'/F1'."""
    return (_real_f(mu1, t, w1, 2) * (f2p / f1p) * (f2p - 1.0)
            + (f1p - 1.0) * _real_f(mu2, t, w2, 2))


def _edge_core(mu1, mu2, t):
    """(e_plus, omega1, omega2, residual, shifted, F1'(omega1), F2'(omega2))
    for the upper edge.

    The shift case (t = 0 with a point-mass factor) is exact: the edge is the
    translated support endpoint and the stability function never vanishes, so
    it is resolved directly rather than through the root search; `shifted` is
    then the translated factor and both slopes are None.  Otherwise shifted is
    None, and a root whose |S| exceeds 1e-9 raises BracketNotFound.
    """
    shift = _shift_case(mu1, mu2, t)
    if shift is not None:
        c, other = shift
        w_o = other.upper
        # F of the continuous factor one ulp-scale beyond its endpoint
        # stands in for the boundary limit.
        f_o = _real_f(other, 0.0, w_o + 1e-9 * max(1.0, abs(w_o)))
        if other is mu1:
            return w_o + c, w_o, f_o + c, 0.0, other, None, None
        return w_o + c, f_o + c, w_o, 0.0, other, None, None

    eps1 = 1e-9 * max(1.0, abs(mu1.upper))

    def minus_s(w2):
        ev = _stability_at(mu1, mu2, t, w2, eps1)
        if ev is None:
            return None
        s_val, w1, f1p, f2p = ev
        return -s_val, -_ds_dw2(mu1, mu2, t, w1, w2, f1p, f2p)

    def is_hi(w2):
        ev = _stability_at(mu1, mu2, t, w2, eps1)
        return ev is not None and ev[0] < 0.0

    floor = mu2.upper
    # march up from the support to a point with S < 0, then march the gap to
    # the support down until the sign flips or the partner inversion fails
    # (both mean the band has been entered)
    _, hi = _march(is_hi, floor, 1.0, 2.0, 2.0 ** 59)
    lo, hi = _march(is_hi, floor, 0.85 * (hi - floor), 0.85, 1e-13 * max(1.0, abs(floor)))
    w2 = _newton_root(minus_s, lo, hi)
    ev = _stability_at(mu1, mu2, t, w2, eps1)
    s_val = math.inf if ev is None else ev[0]
    if abs(s_val) > 1e-9:
        raise BracketNotFound(
            "stability function does not vanish above the support "
            "(residual %.3g); the edge is not of square-root type" % abs(s_val)
        )
    _, w1, f1p, f2p = ev
    e_plus = w1 + w2 - _real_f(mu2, t, w2)
    return e_plus, w1, w2, abs(s_val), None, f1p, f2p


def find_edge_stability(mu1, mu2, t):
    """Largest real zero of the stability function, packaged with the scale.

    gamma is the closed form of the module docstring; a root where it is not
    finite (dS/dw2 >= 0) raises BracketNotFound.  In the shift case gamma is
    the translated factor's own edge coefficient, and a factor without one,
    having no square-root upper edge, raises FitUnstable.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    e_plus, w1, w2, resid, shifted, f1p, f2p = _edge_core(mu1, mu2, t)

    xi = None
    if t > 0.0:
        m_edge = ms.stieltjes(mu1, complex(w1, 0.0)).real
        xi = e_plus + t * m_edge

    if shifted is None:
        ds = _ds_dw2(mu1, mu2, t, w1, w2, f1p, f2p)
        m2p = ms.stieltjes(mu2, complex(w2, 0.0), 1).real
        gamma = math.inf
        if ds < 0.0:
            gamma = (m2p * math.sqrt(2.0 * f1p / -ds)) ** (2.0 / 3.0)
        if not math.isfinite(gamma):
            raise BracketNotFound("no square-root scale at the stability root "
                                  "(dS/dw2 = %.3g)" % ds)
    else:
        gamma = shifted.edge_coefficient
        if gamma is None:
            raise FitUnstable("%r has no square-root upper edge" % (shifted,))

    return EdgeReport(
        e_plus=float(e_plus),
        xi=xi,
        gamma=float(gamma),
        omega1_edge=float(w1),
        omega2_edge=float(w2),
        scaled_edge=float(gamma * e_plus),
        method="stability_root",
        residual=float(resid),
    )


def stability_at_edge(mu1, mu2, t, rep):
    """S = (F1'(w1) - 1)(F2'(w2) - 1) - 1 at the subordination pair (w1, w2)
    of the edge report `rep` for the same (mu1, mu2, t)."""
    f1p = f_transform(mu1, t, complex(rep.omega1_edge, 0.0), 1)
    f2p = f_transform(mu2, t, complex(rep.omega2_edge, 0.0), 1)
    return (f1p - 1.0) * (f2p - 1.0) - 1.0


def solve_xi(mu0, t):
    """Rightmost xi above the support of mu0 with m'_{mu0}(xi) = 1/t.

    m' is positive and strictly decreasing beyond the support, so a bracket
    always pins the root.  The search window doubles from the support edge
    plus one up to a cap of 1e6, or halves toward the edge when that first
    point already lies beyond the root.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    up = mu0.upper
    target = 1.0 / t

    def g(x):
        z = complex(x, 0.0)
        return target - ms.stieltjes(mu0, z, 1).real, -ms.stieltjes(mu0, z, 2).real

    def is_hi(x):
        return ms.stieltjes(mu0, complex(x, 0.0), 1).real <= target

    lo, hi = _march(is_hi, up, 1.0, 2.0, 1e6 - up)
    if lo == up:
        # up + 1 already lies above the root: halve the gap down to it
        lo, hi = _march(is_hi, up, 0.5, 0.5, 1e-300)
    return float(_newton_root(g, lo, hi))


def edge_from_xi(mu0, t):
    """(e_plus, gamma) of mu0 convolved with a semicircle of variance t, by the
    xi route: the oracle for find_edge_stability with a point-mass factor."""
    xi = solve_xi(mu0, t)
    m = ms.stieltjes(mu0, complex(xi, 0.0)).real
    mpp = ms.stieltjes(mu0, complex(xi, 0.0), 2).real
    e_plus = xi - t * m
    gamma = (-(t ** 3) * 0.5 * mpp) ** (-1.0 / 3.0)
    return float(e_plus), float(gamma)


def classical_locations(mu1, mu2, t, n, top_k):
    """Deterministic eigenvalue locations gamma_1 >= ... >= gamma_top_k.

    gamma_j leaves tail mass (j - 1/2)/n above it under the convolved
    measure; the tail CDF is built by quadrature of the computed density on
    a grid refined quadratically toward the edge, widening the window below
    the edge from 1 until the deepest target is covered.
    """
    if n <= 0 or top_k <= 0 or top_k > n:
        raise ValueError("need 0 < top_k <= n")
    e_plus = _edge_core(mu1, mu2, t)[0]
    targets = (np.arange(1, top_k + 1) - 0.5) / n

    span_cap = e_plus - (mu1.lower + mu2.lower - 2.0 * math.sqrt(t)) + 0.5
    w = min(1.0, span_cap)
    grid_points = int(max(800, min(6000, 12 * top_k)))
    for _ in range(9):
        kap = w * np.linspace(0.0, 1.0, grid_points) ** 2
        rho, _, _ = density_sweep(mu1, mu2, t, (e_plus - kap)[::-1])
        failed = int(np.count_nonzero(~np.isfinite(rho)))
        if failed:
            raise FitUnstable("density solve failed at %d of %d points below the edge"
                              % (failed, len(rho)))
        rho = rho[::-1]
        tail = np.concatenate(
            ([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(kap)))
        )
        if tail[-1] >= targets[-1] + 0.2 / n or w >= span_cap:
            break
        w = min(1.7 * w, span_cap)
    if tail[-1] <= 0.0:
        raise FitUnstable("no absolutely continuous mass below the edge")

    keep = np.diff(tail, prepend=-1.0) > 0.0
    locs = e_plus - np.interp(np.minimum(targets, tail[keep][-1]), tail[keep], kap[keep])
    return locs
