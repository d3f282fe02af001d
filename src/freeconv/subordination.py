"""Two-measure, time-t subordination system and density recovery.

Solves, for measures mu1, mu2 and semicircle time component t >= 0,

    F_{mu1,t}(omega1) - omega1 - omega2 + z = 0
    F_{mu2,t}(omega2) - omega1 - omega2 + z = 0

with F_{mu,t}(z) = -1/m_mu(z) + t m_mu(z), by the alternating analytic map
omega2 -> z + h1(z + h2(omega2)) with h_j(w) = F_{mu_j,t}(w) - w.  Where that
map stalls, next to the edge where the stability function vanishes, a Newton
step on its fixed-point equation, kept in {im omega >= im z}, takes over from
the plain step.  The fixed point gives m_{mu_t}(z) = m_{mu1}(omega1) =
m_{mu2}(omega2) for the free convolution mu_t = mu1 (+) mu2 (+) semicircle(t),
and the density follows by Stieltjes inversion, read as im m / pi at the one
height _ETA above the real axis.  Only im z > 0 is solved; the upper edge on
the real axis is located in `edge`.

One iteration serves every caller: it runs on an array of spectral
parameters, one lane each, with numpy arithmetic that treats each lane on
its own.  `solve` runs it on one lane and `density_sweep` on one lane per
grid point at once, so a sweep point equals `solve` at the same z bit for bit.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import measure as ms

# Absolute stopping tolerance on the plain step of omega2.
_TOL = 1e-12
_MAX_ITER = 100000

# Height above the real axis at which `density_sweep` reads im m / pi.  Its
# bias is the Cauchy smoothing of the density, of order eta / sqrt(kappa) at
# distance kappa below a square-root edge, so smaller is more accurate; but
# rounding in the iteration grows as eta falls.  At 1e-9 the sc(1) + sc(1)
# pair errs by at most 8e-11 from kappa = 0.1 down to 1e-6 below its edge and
# by 3e-9 at 1e-3 beyond it; 1e-8 reads 1.1e-10 at E = 6, where the density
# is 0, and at 1e-10 arcsine + uniform lanes with |E| >= 719 stop below the axis.
_ETA = 1e-9

# Lane status: converged, or why the lane stopped.  A lane that meets the
# tolerance with no domain failure (code 0) has status _CONVERGED.
_CONVERGED, _NO_CONVERGENCE, _BELOW_AXIS, _NOT_FINITE = 0, 1, 2, 3
_FAILURES = {_BELOW_AXIS: "below-axis", _NOT_FINITE: "non-finite"}


class NonConvergenceError(RuntimeError):
    """Raised when the iteration fails to reach the residual tolerance."""

    def __init__(self, iterations, residual):
        super().__init__("no convergence after %d iterations (residual %.3e)"
                         % (iterations, residual))
        self.iterations = iterations
        self.residual = residual

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it survives pickling
        # out of a worker process
        return type(self), (self.iterations, self.residual)


class DomainError(ValueError):
    """Raised when an iterate or query leaves the admissible domain."""


@dataclass(frozen=True)
class SubordinationSolution:
    omega1: complex
    omega2: complex
    m: complex
    residual: float
    iterations: int


def f_transform(mu, t, z, k=0):
    """F_{mu,t}(z) = -1/m_mu(z) + t m_mu(z) (k = 0) or its k-th derivative, k in {1, 2}.

    Elementwise over an array z, where a zero m gives a non-finite entry; at
    a scalar z a zero m raises DomainError.
    """
    m = ms.stieltjes(mu, z)
    if not isinstance(m, np.ndarray) and m == 0:
        # far from the support m rounds to 0, where -1/m is not a number
        raise DomainError("m_mu(z) is 0 at z=%r" % (z,))
    if k == 0:
        return -1.0 / m + t * m
    if k not in (1, 2):
        raise ValueError("k must be in {0, 1, 2}")
    m1 = ms.stieltjes(mu, z, 1)
    if k == 1:
        return m1 / m ** 2 + t * m1
    m2 = ms.stieltjes(mu, z, 2)
    return m2 / m ** 2 - 2.0 * m1 ** 2 / m ** 3 + t * m2


def _h(mu, t, w):
    return f_transform(mu, t, w) - w


def _admissible(w):
    """Where w is finite in the closed upper half-plane."""
    return np.isfinite(w) & (w.imag >= 0)


def _domain_failure(w):
    """0 where w is admissible, else _NOT_FINITE or _BELOW_AXIS."""
    return np.where(np.isfinite(w), np.where(w.imag < 0, _BELOW_AXIS, 0), _NOT_FINITE)


def _solve_lanes(mu1, mu2, t, z, max_iter):
    """Alternating fixed point on every lane of the 1d array z, Newton-accelerated.

    Every lane starts at z + i max(1, |z|).  The plain step
    w2 -> z + h1(z + h2(w2)) has multiplier 1 + S, with
    S = (F1'(w1) - 1)(F2'(w2) - 1) - 1 the stability function, so it stalls
    where S vanishes at the edge.  Whenever a lane's plain step shrank by
    less than half, its w2 takes the Newton step on
    g(w2) = z + h1(z + h2(w2)) - w2, whose derivative is S, if that step stays
    in {im w >= im z}, where the fixed point is unique.  A lane converges
    when its plain step falls to _TOL and then leaves the loop.  It fails at
    the step where an iterate about to enter a transform, or be returned, is
    not finite or lies below the real axis.  Elementwise numpy arithmetic
    gives each lane the same bits whatever the other lanes are.

    Returns arrays (omega1, omega2, m, residual, iterations, status).  For a
    converged lane residual is the system's, max |F_j(w_j) - w1 - w2 + z|;
    for a lane still stalled after max_iter it is the last plain step.

    At t = 0 a point-mass mu2 is iterated first: its h = -c carries rounding
    of about eps |w|, which F1' amplifies by about 1/im z next to an edge or
    jump of mu1, and the plain step would then cycle above _TOL.
    """
    if t == 0 and mu2.lower == mu2.upper and mu1.lower < mu1.upper:
        w2, w1, m, res, it, status = _solve_lanes(mu2, mu1, t, z, max_iter)
        return w1, w2, m, res, it, status
    n = len(z)
    w1_out = np.full(n, np.nan, dtype=complex)
    w2_out = np.full(n, np.nan, dtype=complex)
    res_out = np.full(n, np.inf)
    it_out = np.full(n, max_iter)
    status = np.full(n, _NO_CONVERGENCE)
    lane, zl = np.arange(n), z
    w2 = z + 1j * np.maximum(1.0, np.abs(z))
    prev = np.full(n, np.inf)
    with np.errstate(all="ignore"):
        for it in range(1, max_iter + 1):
            if not len(lane):
                break
            w1 = zl + _h(mu2, t, w2)
            ok1 = _admissible(w1)
            w2_next = zl + _h(mu1, t, np.where(ok1, w1, zl))
            res = np.abs(w2_next - w2)
            done = ok1 & (res <= _TOL)
            stall = ok1 & ~done & (res > 0.5 * prev)
            if stall.any():
                a, b, c = w1[stall], w2[stall], w2_next[stall]
                s = (f_transform(mu1, t, a, 1) - 1.0) * (f_transform(mu2, t, b, 1) - 1.0) - 1.0
                newton = np.where(s != 0, b - (c - b) / s, c)
                w2_next[stall] = np.where(newton.imag >= zl[stall].imag, newton, c)
            ok = ok1 & _admissible(w2_next)
            out = done | ~ok
            if out.any():
                # a failed lane's code is that of its first inadmissible iterate
                code = _domain_failure(np.where(ok1, w2_next, w1))
                idx = lane[out]
                w1_out[idx], w2_out[idx] = w1[out], w2_next[out]
                res_out[idx], it_out[idx], status[idx] = res[out], it, code[out]
                keep = ~out
                lane, zl, w2_next, res = lane[keep], zl[keep], w2_next[keep], res[keep]
            w2, prev = w2_next, res
        res_out[lane] = prev
        ok = status == _CONVERGED
        m = np.full(n, np.nan, dtype=complex)
        if np.any(ok):
            w1, w2 = w1_out[ok], w2_out[ok]
            m[ok] = ms.stieltjes(mu1, w1)
            p1 = f_transform(mu1, t, w1) - w1 - w2 + z[ok]
            p2 = f_transform(mu2, t, w2) - w1 - w2 + z[ok]
            res_out[ok] = np.maximum(np.abs(p1), np.abs(p2))
    return w1_out, w2_out, m, res_out, it_out, status


def solve(mu1, mu2, t, z, max_iter=_MAX_ITER):
    """Solve the subordination system at one z with im z > 0.

    The lane iteration of `density_sweep` on a single lane, from a cold
    start, so a sweep point equals `solve` at the same E + i _ETA bit for bit.
    Raises DomainError for an inadmissible query or iterate and
    NonConvergenceError after max_iter iterations.
    """
    if not (math.isfinite(t) and t >= 0):
        raise DomainError("t must be finite and nonnegative, got %r" % (t,))
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite, got %r" % (z,))
    if not z.imag > 0:
        raise DomainError("im z must be > 0, got %r" % (z,))
    w1, w2, m, res, it, status = _solve_lanes(mu1, mu2, t, np.array([z]), max_iter)
    if status[0] == _NO_CONVERGENCE:
        raise NonConvergenceError(int(it[0]), float(res[0]))
    if status[0] != _CONVERGED:
        raise DomainError("%s iterate at z=%r" % (_FAILURES[status[0]], z))
    return SubordinationSolution(omega1=complex(w1[0]), omega2=complex(w2[0]), m=complex(m[0]),
                                 residual=float(res[0]), iterations=int(it[0]))


def density_sweep(mu1, mu2, t, grid):
    """Density of mu_t on a grid by Stieltjes inversion, im m(E + i _ETA) / pi.

    Every grid point is one lane of one iteration.  Returns (rho, residual,
    iterations) arrays.  A lane that fails, or an inadmissible t or grid
    point, gives rho = nan, residual 0 and iterations 0 at its own point only.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or (len(grid) > 1 and np.any(np.diff(grid) <= 0)):
        raise ValueError("grid must be 1d and strictly increasing")
    rho = np.full(len(grid), np.nan)
    resid = np.zeros(len(grid))
    iters = np.zeros(len(grid), dtype=int)
    lanes = np.isfinite(grid) & (math.isfinite(t) and t >= 0)
    _, _, m, res, it, status = _solve_lanes(mu1, mu2, t, grid[lanes] + 1j * _ETA, _MAX_ITER)
    ok = status == _CONVERGED
    solved = np.flatnonzero(lanes)[ok]
    rho[solved] = m[ok].imag / np.pi
    resid[solved] = res[ok]
    iters[solved] = it[ok]
    return rho, resid, iters
