"""Probability measures on the real line and their Stieltjes transforms.

Each family is one subclass of `Measure`, named by its config tag:
`semicircle`, `uniform`, `arcsine`, `point_mass` and `atoms`.  The class
holds the family's parameter checks, support bounds `lower` and `upper`,
transform, CDF, config echo and square-root edge coefficient.  The
Stieltjes transform convention is

    m_mu(z) = int (x - z)^{-1} dmu(x),

so im m(z) > 0 whenever im z > 0 and m(z) ~ -1/z at infinity.  Every
family but `atoms` has a closed-form transform; `atoms` sums over its atoms.

Measures are immutable after construction, and every parameter, location
and weight is finite.
"""

import cmath
import inspect
import math
import numbers

import numpy as np


class Measure:
    """Immutable probability measure on the real line.

    A family sets `lower` and `upper`, the smallest closed interval containing
    the support, and defines `_cdf(x)` and `_transform(z, k, scalar, on_axis)`
    for `cdf` and `stieltjes`, which check z and k first: z is a complex, or
    a 1d complex array unless scalar; on_axis is None when every im z > 0,
    else z.imag == 0.
    """

    # gamma of a square-root upper edge, rho(upper - kappa) ~ (gamma^{3/2} / pi) sqrt(kappa)
    edge_coefficient = None

    def __init_subclass__(cls):
        cls.family = cls.__name__

    def __init__(self, *params):
        self.params = tuple(float(p) for p in params)
        if not all(map(math.isfinite, self.params)):
            raise ValueError("%s parameters must be finite, got %r" % (self.family, self.params))

    def echo(self):
        """The family and the parameters from_config takes to rebuild this measure."""
        return {"family": self.family, "params": list(self.params)}

    def __repr__(self):
        return "Measure(%s%r)" % (self.family, self.params)


class semicircle(Measure):
    """Semicircle law with the given variance, supported on center +- 2 sqrt(variance)."""

    def __init__(self, variance, center=0.0):
        if variance <= 0:
            raise ValueError("variance must be positive")
        super().__init__(variance, center)
        var, center = self.params
        self.radius = 2.0 * math.sqrt(var)
        self.lower, self.upper = center - self.radius, center + self.radius
        self.edge_coefficient = var ** -0.5

    def _transform(self, z, k, scalar, on_axis):
        var, center = self.params
        w = z - center
        s = np.sqrt(w - self.radius) * np.sqrt(w + self.radius)
        if k == 0:
            return (-w + s) / (2.0 * var)
        if k == 1:
            return (-1.0 + w / s) / (2.0 * var)
        return -2.0 / s ** 3

    def _cdf(self, x):
        u = np.clip((x - self.params[1]) / self.radius, -1.0, 1.0)
        return 0.5 + (u * np.sqrt(1.0 - u ** 2) + np.arcsin(u)) / np.pi


class _interval(Measure):
    def __init__(self, a, b):
        if not b > a:
            raise ValueError("need a < b")
        super().__init__(a, b)
        self.lower, self.upper = self.params


def _uniform_on_axis(a, b, x):
    """Uniform transform at real x beyond [a, b], from the logs of |b - x|, |a - x|."""
    return (np.log(abs(b - x)) - np.log(abs(a - x))) / (b - a)


class uniform(_interval):
    """Uniform law on [a, b]."""

    def _transform(self, z, k, scalar, on_axis):
        a, b = self.params
        if k == 0 and scalar and on_axis:
            return _uniform_on_axis(a, b, z.real)
        if k == 0:
            m = (np.log(b - z) - np.log(a - z)) / (b - a)
            if not scalar and on_axis is not None:
                m[on_axis] = _uniform_on_axis(a, b, z.real[on_axis])
            return m
        za, zb = a - z, b - z
        if k == 1:
            return (1.0 / za - 1.0 / zb) / (b - a)
        return (1.0 / za ** 2 - 1.0 / zb ** 2) / (b - a)

    def _cdf(self, x):
        a, b = self.params
        return np.clip((x - a) / (b - a), 0.0, 1.0)


class arcsine(_interval):
    """Arcsine law on [a, b], density 1/(pi sqrt((x-a)(b-x)))."""

    def _transform(self, z, k, scalar, on_axis):
        # m = -1/s with s = sqrt((z-a)(z-b)) as a product of principal roots,
        # so s ~ z at infinity and s is real (of either sign) off [a, b]
        a, b = self.params
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

    def _cdf(self, x):
        a, b = self.params
        u = np.clip((2.0 * x - a - b) / (b - a), -1.0, 1.0)
        return 0.5 + np.arcsin(u) / np.pi


class point_mass(Measure):
    """Unit mass at the point c."""

    def __init__(self, c):
        super().__init__(c)
        self.lower = self.upper = self.params[0]

    def _transform(self, z, k, scalar, on_axis):
        c = self.params[0]
        if k == 0:
            return 1.0 / (c - z)
        return float(math.factorial(k)) * (c - z) ** (-(k + 1))

    def _cdf(self, x):
        return (x >= self.params[0]).astype(float)


# Lanes per block of an atoms sum over an array z: the lanes x atoms
# temporaries stay near 2**18 complex entries (4 MB).
_BLOCK_ENTRIES = 2 ** 18


def _pole_sum(mass, locs, z, k):
    """k-th derivative of sum_j mass_j / (locs_j - z), summed over the last axis."""
    if k == 0:
        return np.sum(mass / (locs - z), axis=-1)
    return float(math.factorial(k)) * np.sum(mass * (locs - z) ** (-(k + 1)), axis=-1)


class atoms(Measure):
    """Finitely many atoms; weights must be nonnegative and sum to 1 within 1e-12.

    The atoms are kept sorted by location in the read-only arrays
    `locations` and `weights`; `params` is empty.
    """

    def __init__(self, locations, weights):
        locs = np.asarray(locations, dtype=float)
        wts = np.asarray(weights, dtype=float)
        if locs.ndim != 1 or locs.shape != wts.shape or len(locs) == 0:
            raise ValueError("locations and weights must be equal-length 1d sequences")
        if np.any(wts < 0):
            raise ValueError("weights must be nonnegative")
        total = np.sum(wts)
        if abs(total - 1.0) > 1e-12:
            raise ValueError("weights sum to %.17g, not 1 within 1e-12" % total)
        super().__init__()
        order = np.argsort(locs, kind="stable")
        self.locations = locs[order]
        self.weights = wts[order] / total
        for name, arr in (("locations", self.locations), ("weights", self.weights)):
            if not np.all(np.isfinite(arr)):
                raise ValueError("atoms %s must be finite" % name)
            arr.setflags(write=False)
        self.lower, self.upper = float(self.locations[0]), float(self.locations[-1])

    def echo(self):
        return {"family": "atoms", "params": [self.locations.tolist(), self.weights.tolist()]}

    def __repr__(self):
        return "Measure(atoms, n=%d)" % len(self.locations)

    def _transform(self, z, k, scalar, on_axis):
        if scalar:
            return _pole_sum(self.weights, self.locations, z, k)
        m = np.empty(len(z), dtype=complex)
        step = max(1, _BLOCK_ENTRIES // len(self.locations))
        for i in range(0, len(z), step):
            m[i:i + step] = _pole_sum(self.weights, self.locations, z[i:i + step, None], k)
        return m

    def _cdf(self, x):
        idx = np.searchsorted(self.locations, x, side="right")
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        return cum[idx]


_FAMILIES = {cls.family: cls for cls in (semicircle, uniform, arcsine, point_mass, atoms)}
_SIGNATURES = {tag: inspect.signature(cls) for tag, cls in _FAMILIES.items()}


def from_config(tag, params):
    """Build a measure from a string tag and parameter list (config files)."""
    if tag not in _FAMILIES:
        raise ValueError("unknown measure tag %r (known: %s)" % (tag, sorted(_FAMILIES)))
    signature = _SIGNATURES[tag]
    try:
        signature.bind(*params)
    except TypeError:
        raise ValueError("%s takes %s, got %d parameters" % (tag, signature, len(params))) from None
    return _FAMILIES[tag](*params)


def stieltjes(mu, z, k=0):
    """Stieltjes transform m_mu(z) = int (x - z)^{-1} dmu(x) or its k-th derivative.

    k in {0, 1, 2}; the k-th derivative is k! * int (x - z)^{-(k+1)} dmu(x).
    Accepts im z > 0 or real z outside the support interval.  Every family
    but `atoms` is evaluated in closed form.  A scalar z gives a Python
    complex; a numpy array z gives the transform elementwise, each entry to
    the same bits whatever the array's shape (0-d too) or the entry's place,
    except the sign of a nan entry.
    """
    scalar = not isinstance(z, np.ndarray)
    if not scalar and z.ndim != 1:
        # any other shape, 0-d too, is evaluated as one row of lanes: numpy's
        # scalar arithmetic does not round as its array loops do
        return stieltjes(mu, z.reshape(-1), k).reshape(z.shape)
    z = complex(z) if scalar else z.astype(complex, copy=False)
    # one reduction clears the common case: the least im z is > 0 only when no
    # entry lies below the axis, on it or at nan (nan propagates through min)
    on_axis = None
    if not (z.imag if scalar else z.imag.min(initial=math.inf)) > 0:
        # at a scalar z every comparison below is already one bool
        anywhere = bool if scalar else np.any
        if anywhere(z.imag < 0):
            raise ValueError("stieltjes requires im z >= 0, got %r" % (z,))
        on_axis = z.imag == 0
        if anywhere(on_axis):
            inside = on_axis & (mu.lower <= z.real) & (z.real <= mu.upper)
            if anywhere(inside):
                raise ValueError("real z=%g lies inside the support interval [%g, %g]"
                                 % (np.extract(inside, z.real)[0], mu.lower, mu.upper))
    if k not in (0, 1, 2):
        raise ValueError("k must be in {0, 1, 2}")
    m = mu._transform(z, k, scalar, on_axis)
    return complex(m) if scalar else m


def cdf(mu, x):
    """Distribution function mu((-inf, x]), vectorized over x."""
    return mu._cdf(np.asarray(x, dtype=float))


def quantiles(mu, n):
    """Quantiles x_i with CDF(x_i) = (i - 1/2)/n, by bisection.

    The bisection stops once every bracket is at most 1e-12 wide or has no
    floating-point midpoint strictly inside it; far from the origin one ulp
    is wider than 1e-12.
    """
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError("n must be a positive integer")
    q = (np.arange(1, n + 1) - 0.5) / n
    span = max(mu.upper - mu.lower, 1.0)
    lo = np.full(n, mu.lower - 1e-9 * span)
    hi = np.full(n, mu.upper + 1e-9 * span)
    mid = 0.5 * (lo + hi)
    while np.any((hi - lo > 1e-12) & (lo < mid) & (mid < hi)):
        below = cdf(mu, mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid
