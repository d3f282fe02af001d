"""Probability measures on the real line and their Stieltjes transforms.

A measure is either a finite set of weighted atoms or one of the analytic
families semicircle, uniform, arcsine.  A point mass is a one-atom measure
whose transform keeps its own closed form.  The Stieltjes transform
convention is

    m_mu(z) = int (x - z)^{-1} dmu(x),

so im m(z) > 0 whenever im z > 0 and m(z) ~ -1/z at infinity.  Every
analytic family, and the point mass, has a closed-form transform; only the
atoms family sums over its atoms.

Measures are immutable after construction, and every parameter, location
and weight is finite.
"""

import cmath
import math
import numbers

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SupportInfo:
    """Smallest closed interval [lower, upper] containing the support."""

    lower: float
    upper: float


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class Measure:
    """Immutable probability measure on the real line.

    Construct through the module-level factories (`semicircle`, `uniform`,
    `arcsine`, `point_mass`, `atoms`) rather than directly.
    """

    def __init__(self, family, params=(), locations=None, weights=None):
        self.family = family
        self.params = tuple(float(p) for p in params)
        if not all(map(math.isfinite, self.params)):
            raise ValueError("%s parameters must be finite, got %r" % (family, self.params))
        for name, arr in (("locations", locations), ("weights", weights)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("%s %s must be finite" % (family, name))
        self.locations = locations
        self.weights = weights
        self._support = self._compute_support()

    def _compute_support(self):
        if self.family == "semicircle":
            var, center = self.params
            r = 2.0 * math.sqrt(var)
            return SupportInfo(center - r, center + r)
        if self.family in ("uniform", "arcsine"):
            a, b = self.params
            return SupportInfo(a, b)
        return SupportInfo(float(self.locations[0]), float(self.locations[-1]))

    def support(self):
        return self._support

    def __repr__(self):
        if self.family == "atoms":
            return "Measure(atoms, n=%d)" % len(self.locations)
        return "Measure(%s%r)" % (self.family, self.params)


def semicircle(variance, center=0.0):
    """Semicircle law with the given variance, supported on center +- 2 sqrt(variance)."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return Measure("semicircle", (variance, center))


def uniform(a, b):
    """Uniform law on [a, b]."""
    if not b > a:
        raise ValueError("need a < b")
    return Measure("uniform", (a, b))


def arcsine(a, b):
    """Arcsine law on [a, b], density 1/(pi sqrt((x-a)(b-x)))."""
    if not b > a:
        raise ValueError("need a < b")
    return Measure("arcsine", (a, b))


def point_mass(c):
    """Unit mass at the point c, stored as a one-atom measure."""
    return Measure("point_mass", (c,), locations=_readonly([c]), weights=_readonly([1.0]))


def atoms(locations, weights):
    """Finitely many atoms; weights must be nonnegative and sum to 1 within 1e-12."""
    locs = np.asarray(locations, dtype=float)
    wts = np.asarray(weights, dtype=float)
    if locs.ndim != 1 or locs.shape != wts.shape or len(locs) == 0:
        raise ValueError("locations and weights must be equal-length 1d sequences")
    if np.any(wts < 0):
        raise ValueError("weights must be nonnegative")
    total = np.sum(wts)
    if abs(total - 1.0) > 1e-12:
        raise ValueError("weights sum to %.17g, not 1 within 1e-12" % total)
    order = np.argsort(locs, kind="stable")
    return Measure("atoms", (), locations=_readonly(locs[order]),
                   weights=_readonly(wts[order] / total))


def from_config(tag, params):
    """Build a measure from a string tag and parameter list (config files)."""
    builders = {
        "semicircle": lambda p: semicircle(*p),
        "uniform": lambda p: uniform(*p),
        "arcsine": lambda p: arcsine(*p),
        "point_mass": lambda p: point_mass(*p),
        "atoms": lambda p: atoms(p[0], p[1]),
    }
    if tag not in builders:
        raise ValueError("unknown measure tag %r (known: %s)" % (tag, sorted(builders)))
    return builders[tag](params)


# Lanes per block of an atoms sum over an array z: the lanes x atoms
# temporaries stay near 2**18 complex entries (4 MB).
_BLOCK_ENTRIES = 2 ** 18


def _pole_sum(mass, locs, z, k):
    """k-th derivative of sum_j mass_j / (locs_j - z), summed over the last axis."""
    if k == 0:
        return np.sum(mass / (locs - z), axis=-1)
    return float(math.factorial(k)) * np.sum(mass * (locs - z) ** (-(k + 1)), axis=-1)


def _uniform_on_axis(a, b, x):
    """Uniform transform at real x beyond [a, b], from the logs of |b - x|, |a - x|."""
    return (np.log(abs(b - x)) - np.log(abs(a - x))) / (b - a)


def stieltjes(mu, z, k=0):
    """Stieltjes transform m_mu(z) = int (x - z)^{-1} dmu(x) or its k-th derivative.

    k in {0, 1, 2}; the k-th derivative is k! * int (x - z)^{-(k+1)} dmu(x).
    Accepts im z > 0 or real z outside the support interval.  Every family
    but `atoms` is evaluated in closed form.  A scalar z gives a Python
    complex; a numpy array z gives the transform elementwise, each entry to
    the same bits whatever the array's length or the entry's position in it.
    """
    scalar = not isinstance(z, np.ndarray)
    z = complex(z) if scalar else z.astype(complex, copy=False)
    # at a scalar z every comparison below is already one bool
    anywhere = bool if scalar else np.any
    if anywhere(z.imag < 0):
        raise ValueError("stieltjes requires im z >= 0, got %r" % (z,))
    on_axis = z.imag == 0
    if anywhere(on_axis):
        sup = mu.support()
        inside = on_axis & (sup.lower <= z.real) & (z.real <= sup.upper)
        if anywhere(inside):
            raise ValueError("real z=%g lies inside the support interval [%g, %g]"
                             % (np.extract(inside, z.real)[0], sup.lower, sup.upper))
    fam = mu.family
    # the edge search on a point-mass pair makes most of its scalar calls
    # here: keep the k = 0 point-mass return ahead of every other check
    if fam == "point_mass" and k == 0:
        return 1.0 / (mu.params[0] - z)
    if k not in (0, 1, 2):
        raise ValueError("k must be in {0, 1, 2}")
    if fam == "point_mass":
        return float(math.factorial(k)) * (mu.params[0] - z) ** (-(k + 1))
    if fam == "semicircle":
        var, center = mu.params
        w = z - center
        r = 2.0 * np.sqrt(var)
        s = np.sqrt(w - r) * np.sqrt(w + r)
        if k == 0:
            m = (-w + s) / (2.0 * var)
        elif k == 1:
            m = (-1.0 + w / s) / (2.0 * var)
        else:
            m = -2.0 / s ** 3
    elif fam == "uniform":
        a, b = mu.params
        if k == 0 and scalar and on_axis:
            m = _uniform_on_axis(a, b, z.real)
        elif k == 0:
            m = (np.log(b - z) - np.log(a - z)) / (b - a)
            if anywhere(on_axis):
                m[on_axis] = _uniform_on_axis(a, b, z.real[on_axis])
        else:
            za, zb = a - z, b - z
            if k == 1:
                m = (1.0 / za - 1.0 / zb) / (b - a)
            else:
                m = (1.0 / za ** 2 - 1.0 / zb ** 2) / (b - a)
    elif fam == "arcsine":
        # m = -1/s with s = sqrt((z-a)(z-b)) as a product of principal roots,
        # so s ~ z at infinity and s is real (of either sign) off [a, b]
        a, b = mu.params
        sqrt = cmath.sqrt if scalar else np.sqrt
        s = sqrt(z - a) * sqrt(z - b)
        if k == 0:
            return -1.0 / s
        # m' = w/s^3 and m'' = (s^2 - 3w^2)/s^5 with w = z - (a+b)/2; the
        # products round as s ** 3 and s ** 5 do, but a far z overflows them
        # to inf where ** would raise OverflowError
        w = z - 0.5 * (a + b)
        s2 = s * s
        if k == 1:
            return w / (s * s2)
        return (s2 - 3.0 * w * w) / (s * (s2 * s2))
    elif scalar:
        m = _pole_sum(mu.weights, mu.locations, z, k)
    else:
        lanes = z.reshape(-1, 1)
        m = np.empty(len(lanes), dtype=complex)
        step = max(1, _BLOCK_ENTRIES // len(mu.locations))
        for i in range(0, len(lanes), step):
            m[i:i + step] = _pole_sum(mu.weights, mu.locations, lanes[i:i + step], k)
        m = m.reshape(z.shape)
    return complex(m) if scalar else m


def cdf(mu, x):
    """Distribution function mu((-inf, x]), vectorized over x."""
    x = np.asarray(x, dtype=float)
    fam = mu.family
    if mu.locations is not None:
        idx = np.searchsorted(mu.locations, x, side="right")
        cum = np.concatenate([[0.0], np.cumsum(mu.weights)])
        return cum[idx]
    if fam == "semicircle":
        var, center = mu.params
        r = 2.0 * np.sqrt(var)
        u = np.clip((x - center) / r, -1.0, 1.0)
        return 0.5 + (u * np.sqrt(1.0 - u ** 2) + np.arcsin(u)) / np.pi
    if fam == "uniform":
        a, b = mu.params
        return np.clip((x - a) / (b - a), 0.0, 1.0)
    # arcsine
    a, b = mu.params
    u = np.clip((2.0 * x - a - b) / (b - a), -1.0, 1.0)
    return 0.5 + np.arcsin(u) / np.pi


def quantiles(mu, n):
    """Quantiles x_i with CDF(x_i) = (i - 1/2)/n, by bisection.

    The bisection stops once every bracket is at most 1e-12 wide or has no
    floating-point midpoint strictly inside it; far from the origin one ulp
    is wider than 1e-12.
    """
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError("n must be a positive integer")
    q = (np.arange(1, n + 1) - 0.5) / n
    s = mu.support()
    span = max(s.upper - s.lower, 1.0)
    lo = np.full(n, s.lower - 1e-9 * span)
    hi = np.full(n, s.upper + 1e-9 * span)
    mid = 0.5 * (lo + hi)
    while np.any((hi - lo > 1e-12) & (lo < mid) & (mid < hi)):
        below = cdf(mu, mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid

