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

Real z beyond the upper edge is handled by seeding from z + 1e-6 i and
polishing with a damped 2x2 Newton iteration; the solution there is real.
"""

from dataclasses import dataclass

import numpy as np

from . import measure as ms


class NonConvergenceError(RuntimeError):
    """Raised when the iteration fails to reach the residual tolerance."""

    def __init__(self, iterations, residual):
        super().__init__("no convergence after %d iterations (residual %.3e)"
                         % (iterations, residual))
        self.iterations = iterations
        self.residual = residual


class DomainError(ValueError):
    """Raised when an iterate or query leaves the admissible domain."""


@dataclass(frozen=True)
class SubordinationQuery:
    mu1: ms.Measure
    mu2: ms.Measure
    t: float
    z: complex


@dataclass(frozen=True)
class SubordinationSolution:
    omega1: complex
    omega2: complex
    m: complex
    f_value: complex
    residual: float
    iterations: int
    converged: bool


def f_transform(mu, t, z, k=0):
    """F_{mu,t}(z) = -1/m_mu(z) + t m_mu(z) (k = 0) or its k-th derivative, k in {1, 2}."""
    m = ms.stieltjes(mu, z)
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


def _iterate_upper(mu1, mu2, t, z, tol, max_iter, omega2_init):
    """Alternating fixed point in the open upper half-plane, Newton-accelerated.

    The plain step w2 -> z + h1(z + h2(w2)) has multiplier 1 + S, with
    S = (F1'(w1) - 1)(F2'(w2) - 1) - 1 the stability function, so it stalls
    where S vanishes at the edge.  Whenever the plain step shrank by less than
    half, w2 takes the Newton step on g(w2) = z + h1(z + h2(w2)) - w2, whose
    derivative is S, if that step stays in {im w >= im z}, where the fixed
    point is unique.  Convergence is still the plain step falling to tol.
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
        if res <= tol:
            return w1, w2_next, res, it
        if res > 0.5 * prev:
            s = (f_transform(mu1, t, w1, 1) - 1.0) * (f_transform(mu2, t, w2, 1) - 1.0) - 1.0
            newton = w2 - (w2_next - w2) / s if s else w2_next
            if newton.imag >= z.imag:
                w2_next = newton
        prev = res
        w2 = w2_next
    raise NonConvergenceError(max_iter, res)


def _newton_real(mu1, mu2, t, z, w1, w2, tol, max_iter=200):
    """Damped 2x2 Newton polish of Phi = 0 on the real axis beyond the edge."""
    top1 = mu1.support().upper
    top2 = mu2.support().upper

    def phi(w1, w2):
        p1 = f_transform(mu1, t, w1) - w1 - w2 + z
        p2 = f_transform(mu2, t, w2) - w1 - w2 + z
        return p1.real, p2.real

    p1, p2 = phi(w1, w2)
    res = max(abs(p1), abs(p2))
    for it in range(1, max_iter + 1):
        if res <= tol:
            return w1, w2, res, it
        a = (f_transform(mu1, t, w1, 1) - 1.0).real
        d = (f_transform(mu2, t, w2, 1) - 1.0).real
        det = a * d - 1.0
        if det == 0.0:
            break
        # J = [[a, -1], [-1, d]]; J^{-1} = [[d, 1], [1, a]] / det
        dw1 = -(d * p1 + p2) / det
        dw2 = -(p1 + a * p2) / det
        step = 1.0
        for _ in range(40):
            c1, c2 = w1 + step * dw1, w2 + step * dw2
            if c1 <= top1 or c2 <= top2:
                step *= 0.5
                continue
            q1, q2 = phi(c1, c2)
            cand = max(abs(q1), abs(q2))
            if cand < res or cand <= tol:
                w1, w2, p1, p2, res = c1, c2, q1, q2, cand
                break
            step *= 0.5
        else:
            break
    if res > tol:
        raise NonConvergenceError(it, res)
    return w1, w2, res, it


def solve(query, tol=1e-12, max_iter=100000, omega2_init=None):
    """Solve the subordination system at query.z.

    Accepts im z > 0, or real z beyond the upper edge (checked post hoc via
    realness of the polished solution).  `omega2_init` warm-starts the
    iteration, e.g. from the previous point of a contour sweep.
    """
    if query.t < 0:
        raise DomainError("t must be nonnegative")
    if tol < 1e-14:
        raise DomainError("tol below 1e-14 is not resolvable in double precision")
    mu1, mu2, t = query.mu1, query.mu2, query.t
    z = complex(query.z)
    if z.imag < 0:
        raise DomainError("im z must be >= 0")
    if z.imag > 0:
        w1, w2, res, it = _iterate_upper(mu1, mu2, t, z, tol, max_iter, omega2_init)
    else:
        if omega2_init is not None and complex(omega2_init).imag == 0.0:
            w2s = complex(omega2_init).real
            w1s = z.real + _h(mu2, t, w2s).real
        else:
            zc = z + 1e-6j
            w1c, w2c, _, _ = _iterate_upper(mu1, mu2, t, zc, tol, max_iter, omega2_init)
            w1s, w2s = w1c.real, w2c.real
        if w1s <= mu1.support().upper or w2s <= mu2.support().upper:
            raise DomainError("real z=%g is not beyond the upper edge" % z.real)
        w1, w2, res, it = _newton_real(mu1, mu2, t, z, w1s, w2s, tol)
        w1, w2 = complex(w1), complex(w2)
    m1 = ms.stieltjes(mu1, w1)
    p1 = f_transform(mu1, t, w1) - w1 - w2 + z
    p2 = f_transform(mu2, t, w2) - w1 - w2 + z
    res = max(abs(p1), abs(p2))
    return SubordinationSolution(omega1=w1, omega2=w2, m=m1,
                                 f_value=w1 + w2 - z, residual=res,
                                 iterations=it, converged=res <= tol)


def density_sweep(mu1, mu2, t, grid, eta_seq=(1e-3, 5e-4), tol=1e-12,
                  max_iter=100000):
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
    rho = np.empty(len(grid))
    resid = np.zeros(len(grid))
    iters = np.zeros(len(grid), dtype=int)
    warm = [None] * len(etas)
    for j, e_val in enumerate(grid):
        ims = np.empty(len(etas))
        bad = False
        for k, eta in enumerate(etas):
            q = SubordinationQuery(mu1, mu2, t, complex(e_val, eta))
            try:
                sol = solve(q, tol=tol, max_iter=max_iter, omega2_init=warm[k])
            except (NonConvergenceError, DomainError):
                bad = True
                warm[k] = None
                continue
            warm[k] = sol.omega2
            ims[k] = sol.m.imag
            resid[j] = max(resid[j], sol.residual)
            iters[j] += sol.iterations
        if bad:
            rho[j] = np.nan
            continue
        intercept = np.polyfit(etas, ims, 1)[1]
        rho[j] = max(intercept / np.pi, 0.0)
    return rho, resid, iters


def density(mu1, mu2, t, grid, eta_seq=(1e-3, 5e-4)):
    """Density values of mu_t = mu1 (+) mu2 (+) sc(t) on the given grid."""
    rho, _, _ = density_sweep(mu1, mu2, t, grid, eta_seq=eta_seq)
    return rho
