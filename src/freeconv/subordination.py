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
and the density follows by Stieltjes inversion with linear eta-extrapolation.
Only im z > 0 is solved; the upper edge on the real axis is located in `edge`.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import measure as ms

# Absolute stopping tolerance on the plain step of omega2.
_TOL = 1e-12


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
    """F_{mu,t}(z) = -1/m_mu(z) + t m_mu(z) (k = 0) or its k-th derivative, k in {1, 2}."""
    m = ms.stieltjes(mu, z)
    if m == 0:
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


def _iterate_upper(mu1, mu2, t, z, max_iter, omega2_init):
    """Alternating fixed point in the open upper half-plane, Newton-accelerated.

    The plain step w2 -> z + h1(z + h2(w2)) has multiplier 1 + S, with
    S = (F1'(w1) - 1)(F2'(w2) - 1) - 1 the stability function, so it stalls
    where S vanishes at the edge.  Whenever the plain step shrank by less than
    half, w2 takes the Newton step on g(w2) = z + h1(z + h2(w2)) - w2, whose
    derivative is S, if that step stays in {im w >= im z}, where the fixed
    point is unique.  Convergence is still the plain step falling to _TOL.
    """
    w2 = omega2_init if omega2_init is not None else z + 1j * max(1.0, abs(z))
    res = prev = np.inf
    w1 = w2
    for it in range(1, max_iter + 1):
        w1 = z + _h(mu2, t, w2)
        w2_next = z + _h(mu1, t, w1)
        if w1.imag < -1e-8 or w2_next.imag < -1e-8:
            raise DomainError("iterate left the closed upper half-plane at z=%r" % (z,))
        res = abs(w2_next - w2)
        if res <= _TOL:
            return w1, w2_next, res, it
        if res > 0.5 * prev:
            s = (f_transform(mu1, t, w1, 1) - 1.0) * (f_transform(mu2, t, w2, 1) - 1.0) - 1.0
            newton = w2 - (w2_next - w2) / s if s else w2_next
            if newton.imag >= z.imag:
                w2_next = newton
        prev = res
        w2 = w2_next
    raise NonConvergenceError(max_iter, res)


def solve(mu1, mu2, t, z, max_iter=100000, omega2_init=None):
    """Solve the subordination system at z with im z > 0.

    `omega2_init` warm-starts the iteration, e.g. from the previous point of
    a contour sweep.
    """
    if not (math.isfinite(t) and t >= 0):
        raise DomainError("t must be finite and nonnegative, got %r" % (t,))
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite, got %r" % (z,))
    if not z.imag > 0:
        raise DomainError("im z must be > 0, got %r" % (z,))
    w1, w2, res, it = _iterate_upper(mu1, mu2, t, z, max_iter, omega2_init)
    m1 = ms.stieltjes(mu1, w1)
    p1 = f_transform(mu1, t, w1) - w1 - w2 + z
    p2 = f_transform(mu2, t, w2) - w1 - w2 + z
    res = max(abs(p1), abs(p2))
    return SubordinationSolution(omega1=w1, omega2=w2, m=m1, residual=res, iterations=it)


def density_sweep(mu1, mu2, t, grid, eta_seq=(1e-3, 5e-4)):
    """Density of mu_t on a grid by Stieltjes inversion.

    For each grid point E evaluates im m at E + i eta over eta_seq, fits a
    line in eta and reports the intercept / pi, clipped at 0.  Returns
    (rho, residual, iterations) arrays; points where the solver failed carry
    rho = nan and are not fatal.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or (len(grid) > 1 and np.any(np.diff(grid) <= 0)):
        raise ValueError("grid must be 1d and strictly increasing")
    etas = np.asarray(eta_seq, dtype=float)
    if len(etas) < 2 or np.any(etas <= 0) or np.any(np.diff(etas) >= 0):
        raise ValueError("eta_seq must be a decreasing positive sequence, len >= 2")
    ims = np.full((len(grid), len(etas)), np.nan)
    resid = np.zeros(len(grid))
    iters = np.zeros(len(grid), dtype=int)
    warm = [None] * len(etas)
    for j, e_val in enumerate(grid):
        for k, eta in enumerate(etas):
            try:
                sol = solve(mu1, mu2, t, complex(e_val, eta), omega2_init=warm[k])
            except (NonConvergenceError, DomainError):
                warm[k] = None
                continue
            warm[k] = sol.omega2
            ims[j, k] = sol.m.imag
            resid[j] = max(resid[j], sol.residual)
            iters[j] += sol.iterations
    # least-squares intercept of every row as one weighted sum of its values.
    # In units of the last eta a halving pair gets the weights -1, 2 exactly,
    # so its sum is correctly rounded; a row with a failed solve keeps its nan.
    u = etas / etas[-1]
    uc = u - u.mean()
    weights = 1.0 / len(u) - u.mean() * uc / np.sum(uc * uc)
    rho = np.maximum(np.sum(ims * weights, axis=1) / np.pi, 0.0)
    return rho, resid, iters
