"""Random-matrix sampling for H_t = A + U diag(b) U* + sqrt(t) W.

A and B are diagonal, U is Haar unitary, W is GUE normalized so that
sqrt(t) W has limiting spectrum [-2 sqrt(t), 2 sqrt(t)].  The module also
certifies the top eigenvalue of H by Lanczos, probes resolvents
G = (H - z)^{-1} for the trace functionals driving the approximate
subordination function, and realizes the one-column partial randomness
decomposition U = -exp(i theta_i) R_i U^<i>.
"""

import math
from dataclasses import dataclass

import numpy as np


class EigensolverError(RuntimeError):
    """Raised when the dense eigensolver fails; carries the sample seed."""

    def __init__(self, seed, cause):
        super().__init__("eigensolver failure for seed %r: %s" % (seed, cause))
        self.seed = seed
        self.cause = cause

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it survives pickling
        # out of a worker process
        return type(self), (self.seed, self.cause)


class DegenerateError(RuntimeError):
    """Raised when the decomposition reflection vector cannot be normalized."""


# Seeds lie in [SEED_LO, SEED_HI), the int64 range.  numpy reads a Philox key
# list holding a larger int as float64, so larger seeds would share a stream;
# beyond the uint64 range the key overflows.
SEED_LO, SEED_HI = -2 ** 63, 2 ** 63


def _check_seed(seed):
    if not SEED_LO <= seed < SEED_HI:
        raise ValueError("seed must lie in [-2^63, 2^63), got %r" % (seed,))


def sample_stream(master_seed, sample_index):
    """Counter-based generator for one sample, splittable by index."""
    _check_seed(master_seed)
    return np.random.Generator(np.random.Philox(key=[master_seed, sample_index]))


@dataclass(frozen=True)
class EnsembleSpec:
    n: int
    a_diag: np.ndarray
    b_diag: np.ndarray
    t: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not math.isfinite(self.t) or self.t < 0:
            raise ValueError("t must be finite and >= 0")
        _check_seed(self.seed)
        for name in ("a_diag", "b_diag"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.n,):
                raise ValueError("%s must have length n" % name)
            if not np.all(np.isfinite(arr)):
                raise ValueError("%s must be finite" % name)
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ResolventProbe:
    z: complex
    g_diag: np.ndarray
    trace_g: complex
    trace_bg: complex
    trace_bgb: complex
    upsilon: complex
    omega_a_c: complex

    def __post_init__(self):
        if self.z.imag > 0 and not self.trace_g.imag > 0:
            raise ValueError("tr G must have positive imaginary part")


@dataclass(frozen=True)
class DecompositionParts:
    index: int
    theta: float
    h_vec: np.ndarray
    r_vec: np.ndarray
    ell: float
    u_reduced: np.ndarray

    def __post_init__(self):
        if abs(np.linalg.norm(self.h_vec) - 1.0) > 1e-12:
            raise ValueError("h_vec must be a unit vector")


def sample_haar_unitary(n, rng):
    """Haar unitary via QR of a complex Ginibre matrix with phase fix.

    The raw QR factor is not Haar; multiplying each column by the
    conjugate sign of the matching R diagonal entry restores the unique
    positive-diagonal factorization whose Q factor is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0, d, 1.0)
    return q * np.conj(phase / np.abs(phase))


def sample_gue(n, rng):
    """GUE with E|W_ij|^2 = 1/n; limiting spectrum [-2, 2]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / (2.0 * math.sqrt(n))


def build_matrix(a_diag, b_diag, u, t=0.0, w=None):
    """Dense H = diag(a) + U diag(b) U* + sqrt(t) W."""
    h = (u * np.asarray(b_diag)) @ u.conj().T
    h[np.diag_indices_from(h)] += np.asarray(a_diag)
    if w is not None and t > 0:
        h = h + math.sqrt(t) * w
    return h


def sample_matrix(spec, rng):
    """Draw U, then W for t > 0, from rng; return (H_t, W), W None at t = 0.

    This is the one place a sample's matrix is drawn, so a fixed stream
    reproduces it bit for bit.  When every entry of b is equal, U diag(b) U*
    is exactly b_0 I: U's two Ginibre arrays are still drawn, so W and every
    later draw keep their place in the stream, but the QR, the phase fix and
    the conjugation are skipped.
    """
    n, b = spec.n, spec.b_diag
    if np.all(b == b[0]):
        rng.standard_normal((2, n, n))
        if spec.t > 0:
            w = sample_gue(n, rng)
            h = math.sqrt(spec.t) * w
        else:
            w = None
            h = np.zeros((n, n), dtype=complex)
        # added through a view: the fancy-index temporaries, made while W is
        # still held, measured 4% slower per sample at N = 400 (heap layout)
        np.einsum("ii->i", h)[...] += spec.a_diag + b[0]
        return h, w
    u = sample_haar_unitary(n, rng)
    w = sample_gue(n, rng) if spec.t > 0 else None
    return build_matrix(spec.a_diag, b, u, spec.t, w), w


def descending_eigenvalues(h, seed):
    """Spectrum of a Hermitian matrix by the dense eigvalsh, largest first;
    a solver failure raises EigensolverError carrying seed."""
    try:
        return np.linalg.eigvalsh(h)[::-1]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(seed, exc) from exc


TOP_TOL = 1e-10


def _start_vector(n):
    """Fixed unit Lanczos start vector, from a stream no sample uses."""
    rng = np.random.Generator(np.random.PCG64(0))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _below(h, x):
    """True when x I - H has a Cholesky factor, so lambda_max(H) < x."""
    m = -h
    m[np.diag_indices_from(m)] += x
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def top_eigenvalue(h, seed):
    """Largest eigenvalue of a Hermitian matrix, certified to TOP_TOL.

    Lanczos with full reorthogonalization from a fixed start vector, so
    nothing is drawn from the sample stream.  Its top Ritz value theta is
    at most lambda_max, and is returned only once a Cholesky factor of
    (theta + TOP_TOL) I - H exists, which shows lambda_max < theta + TOP_TOL.
    Every 8 steps, the factorization is tried if the Ritz residual r
    predicts an error min(r, r^2 / gap) below TOP_TOL / 10 and, after a
    failed try, only once theta has risen; the Krylov space grows until
    the certificate passes.  On breakdown, or when the space fills
    uncertified, the dense eigvalsh answers.  Returns (lambda_max, fell_back).
    """
    n = h.shape[0]
    basis = np.empty((n, n), dtype=complex)
    basis[0] = _start_vector(n)
    alpha, beta = [], []
    tiny = n * np.finfo(float).eps * np.linalg.norm(h)
    failed_at = -np.inf
    for j in range(n):
        q = basis[:j + 1]
        w = h @ q[j]
        # Classical Gram-Schmidt against the whole basis, twice.
        c = (q @ w.conj()).conj()
        w -= c @ q
        c2 = (q @ w.conj()).conj()
        w -= c2 @ q
        alpha.append(c[j].real + c2[j].real)
        beta.append(float(np.linalg.norm(w)))
        if not np.isfinite(alpha[-1] + beta[-1]):
            break
        done = beta[-1] <= tiny or j == n - 1
        if done or j % 8 == 7:
            t = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
            vals, vecs = np.linalg.eigh(t)
            theta = vals[-1]
            r = beta[-1] * abs(vecs[-1, -1])
            gap = vals[-1] - vals[-2] if j else 0.0
            err = r if gap <= r else r * r / gap
            if err <= 0.1 * TOP_TOL and theta > failed_at + 0.01 * TOP_TOL:
                if _below(h, theta + TOP_TOL):
                    return float(theta), False
                failed_at = theta
        if done:
            break
        basis[j + 1] = w / beta[-1]
    return float(descending_eigenvalues(h, seed)[0]), True


def resolvent_probe(h, a_diag, t, z, w=None):
    """Trace functionals of G = (H - z)^{-1} at one spectral parameter.

    H = B + C with B = U diag(b) U* and C = diag(a) + sqrt(t) W (W read as 0
    when w is None or t = 0, as in build_matrix).  B = H - C is recovered
    entrywise, and B G B = B - (C - z) G B, so with p_i = (G B)_ii:
        tr BG  = sum_i p_i,
        tr BGB = tr B - sum_i (a_i - z) p_i - sqrt(t) tr(W G B).
    Besides the inverse, the only n x n product is W G, made at t > 0.
    upsilon = tr BG - (tr BG)^2 + tr G tr BGB and the approximate
    subordination point omega_a_c = z - tr BG / tr G + t tr G, with all
    traces normalized by 1/n.
    """
    z = complex(z)
    if z.imag < 1e-10:
        raise ValueError("resolvent probe requires im z >= 1e-10")
    n = h.shape[0]
    a = np.asarray(a_diag)
    diag = np.diag_indices(n)
    shifted = h.astype(complex)
    shifted[diag] -= z
    g = np.linalg.inv(shifted)
    trace_g = np.trace(g) / n
    # Once inverted, the shifted copy is reused for B = H - C.
    b_mat = shifted
    with_w = w is not None and t > 0
    if with_w:
        np.subtract(h, math.sqrt(t) * w, out=b_mat)
    else:
        b_mat[diag] = np.diagonal(h)
    b_mat[diag] -= a
    p = np.einsum("ij,ji->i", g, b_mat)
    trace_bg = np.sum(p) / n
    trace_bgb = np.trace(b_mat) - (a - z) @ p
    if with_w:
        trace_bgb -= math.sqrt(t) * np.einsum("ij,ji->", w @ g, b_mat)
    trace_bgb /= n
    upsilon = trace_bg - trace_bg ** 2 + trace_g * trace_bgb
    omega_a_c = z - trace_bg / trace_g + t * trace_g
    return ResolventProbe(z, np.diagonal(g).copy(), complex(trace_g),
                          complex(trace_bg), complex(trace_bgb),
                          complex(upsilon), complex(omega_a_c))


def partial_decomposition(u, i):
    """Split off the randomness of column i of a Haar unitary.

    With v = U e_i, theta = arg v_i, h = exp(-i theta) v, the Householder
    reflection R = I - r r* built from r = ell (e_i + h) swaps -e_i and h,
    and U^<i> = -exp(-i theta) R U has e_i as its i-th row and column.
    """
    n = u.shape[0]
    if not 0 <= i < n:
        raise ValueError("index out of range")
    if np.max(np.abs(u @ u.conj().T - np.eye(n))) > 1e-10:
        raise ValueError("matrix is not unitary to 1e-10")
    v = u[:, i]
    theta = float(np.angle(v[i])) if v[i] != 0 else 0.0
    h_vec = np.exp(-1j * theta) * v
    s = h_vec.copy()
    s[i] += 1.0
    norm_s = np.linalg.norm(s)
    if norm_s < 1e-8:
        raise DegenerateError("e_i + h has norm below 1e-8 at index %d" % i)
    # ||e_i + h||^2 = 2 (1 + h_i) with h_i = |U_ii| >= 0, so ell is finite.
    ell = math.sqrt(2.0) / norm_s
    r = ell * s
    reflect = np.eye(n) - np.outer(r, r.conj())
    u_reduced = -np.exp(-1j * theta) * (reflect @ u)
    return DecompositionParts(i, theta, h_vec, r, float(ell), u_reduced)
