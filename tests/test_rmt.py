"""Ensemble sampling, resolvent probes, partial randomness decomposition."""

import math
import os

import numpy as np
import pytest
import scipy.stats

from freeconv import edge as eg
from freeconv import measure as ms
from freeconv import rmt
from freeconv import subordination as sub

heavy = pytest.mark.skipif(os.environ.get("FREECONV_HEAVY") != "1",
                           reason="about a minute of dense eigensolves; set FREECONV_HEAVY=1")


def uniform_quantiles(n):
    return -1.0 + (2.0 * np.arange(1, n + 1) - 1.0) / n


def test_sample_stream_seed_range():
    # both ends of the int64 range keep their own stream; beyond it numpy
    # would read the key as float64, so 2^63 and 2^63 + 5 would share one
    draws = {rmt.sample_stream(seed, 0).random() for seed in (2 ** 63 - 1, -2 ** 63, -1)}
    assert len(draws) == 3
    for seed in (2 ** 63, 2 ** 63 + 5, 2 ** 64, -2 ** 63 - 1):
        with pytest.raises(ValueError):
            rmt.sample_stream(seed, 0)


def test_haar_scalar_modulus():
    u = rmt.sample_haar_unitary(1, rmt.sample_stream(3, 0))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14


def test_haar_unitarity():
    u = rmt.sample_haar_unitary(64, rmt.sample_stream(3, 1))
    assert np.max(np.abs(u @ u.conj().T - np.eye(64))) < 1e-12


def test_haar_trace_moment():
    # E tr U = 0 with E|tr U|^2 = 1; 4 sigma over 1000 samples.
    traces = [np.trace(rmt.sample_haar_unitary(64, rmt.sample_stream(11, k)))
              for k in range(1000)]
    assert abs(np.mean(traces)) <= 4.0 / math.sqrt(1000)


def test_haar_left_invariance():
    # A + (PU) B (PU)* must match A + U B U* in distribution; the top
    # eigenvalue gives i.i.d. per-sample functionals for the KS test.
    n = 24
    a = uniform_quantiles(n)
    perm = np.eye(n)[::-1]
    plain, permuted = [], []
    for k in range(500):
        u = rmt.sample_haar_unitary(n, rmt.sample_stream(21, k))
        plain.append(np.linalg.eigvalsh(np.diag(a) + (u * a) @ u.conj().T)[-1])
        pu = perm @ rmt.sample_haar_unitary(n, rmt.sample_stream(22, k))
        permuted.append(np.linalg.eigvalsh(np.diag(a) + (pu * a) @ pu.conj().T)[-1])
    assert scipy.stats.ks_2samp(plain, permuted).pvalue >= 0.01


def test_gue_hermitian_exact():
    w = rmt.sample_gue(50, rmt.sample_stream(4, 0))
    assert np.array_equal(w, w.conj().T)


def test_gue_entry_variance():
    w = rmt.sample_gue(1000, rmt.sample_stream(4, 1))
    off = w[~np.eye(1000, dtype=bool)]
    second = np.mean(np.abs(off) ** 2)
    # |W_ij|^2 is exponential with mean and std 1/n.
    se = 1e-3 / math.sqrt(off.size)
    assert abs(second - 1e-3) <= 3.0 * se


@heavy
def test_gue_largest_eigenvalue_mean():
    lam = [np.linalg.eigvalsh(rmt.sample_gue(400, rmt.sample_stream(5, k)))[-1]
           for k in range(2000)]
    assert abs(np.mean(lam) - (2.0 - 1.771086807411601 * 400.0 ** (-2.0 / 3.0))) <= 0.004


def _spectrum(spec):
    """Descending spectrum of the sample drawn from the (seed, 0) stream."""
    h, _ = rmt.sample_matrix(spec, rmt.sample_stream(spec.seed, 0))
    return rmt.descending_eigenvalues(h, spec.seed)


def test_assemble_b_zero_exact():
    a = np.array([3.0, 1.0, 2.0, -1.0, 0.0])
    lam = _spectrum(rmt.EnsembleSpec(5, a, np.zeros(5), 0.0, 42))
    assert np.array_equal(lam, np.sort(a)[::-1])


def test_assemble_a_zero_similarity():
    b = np.linspace(-1.0, 1.0, 60)
    lam = _spectrum(rmt.EnsembleSpec(60, np.zeros(60), b, 0.0, 43))
    assert np.max(np.abs(lam - np.sort(b)[::-1])) < 1e-10


def test_assemble_reproducible():
    spec = rmt.EnsembleSpec(40, np.zeros(40), np.ones(40), 0.5, 99)
    assert np.array_equal(_spectrum(spec), _spectrum(spec))


def test_assemble_spectrum_bound():
    a = uniform_quantiles(120)
    for t in (0.0, 0.3):
        for seed in range(5):
            lam = _spectrum(rmt.EnsembleSpec(120, a, a, t, seed))
            assert lam[0] <= 1.0 + 1.0 + 2.0 * math.sqrt(t) + 0.5


def _haar_path(spec, rng):
    """(H, W) built on the full Haar path, the reference for sample_matrix."""
    u = rmt.sample_haar_unitary(spec.n, rng)
    w = rmt.sample_gue(spec.n, rng) if spec.t > 0 else None
    return rmt.build_matrix(spec.a_diag, spec.b_diag, u, spec.t, w), w


def _assert_w_inside(spec, h, w):
    # a constant b adds only to the diagonal, so off it H is sqrt(t) W exactly
    off = ~np.eye(spec.n, dtype=bool)
    assert np.array_equal(h[off], math.sqrt(spec.t) * w[off])


def test_sample_matrix_b_zero_bit_identical():
    n = 80
    spec = rmt.EnsembleSpec(n, uniform_quantiles(n), np.zeros(n), 1.0, 17)
    fast, full = rmt.sample_stream(17, 3), rmt.sample_stream(17, 3)
    (h, w), (h_ref, w_ref) = rmt.sample_matrix(spec, fast), _haar_path(spec, full)
    assert np.array_equal(h, h_ref)
    assert np.array_equal(w, w_ref)
    _assert_w_inside(spec, h, w)
    assert fast.standard_normal() == full.standard_normal()


def test_sample_matrix_constant_b_matches_haar_path():
    n = 80
    spec = rmt.EnsembleSpec(n, uniform_quantiles(n), np.full(n, 0.7), 1.0, 18)
    fast, full = rmt.sample_stream(18, 0), rmt.sample_stream(18, 0)
    (h, w), (h_ref, w_ref) = rmt.sample_matrix(spec, fast), _haar_path(spec, full)
    assert np.max(np.abs(h - h_ref)) <= 1e-14
    assert np.array_equal(w, w_ref)
    _assert_w_inside(spec, h, w)
    assert fast.standard_normal() == full.standard_normal()


def _top_against_dense(spec, t0, count):
    """top_eigenvalue against eigvalsh on base and flowed samples."""
    for k in range(count):
        rng = rmt.sample_stream(spec.seed, k)
        h, _ = rmt.sample_matrix(spec, rng)
        for m in (h, h + math.sqrt(t0) * rmt.sample_gue(spec.n, rng)):
            lam, fell_back = rmt.top_eigenvalue(m, spec.seed)
            assert not fell_back
            assert abs(lam - np.linalg.eigvalsh(m)[-1]) <= 1e-10


def test_top_eigenvalue_gue_matches_dense():
    n = 400
    _top_against_dense(rmt.EnsembleSpec(n, np.zeros(n), np.zeros(n), 1.0, 61),
                       n ** (-1.0 / 3.0 + 0.1), 20)


def test_top_eigenvalue_uniform_pair_matches_dense():
    n = 300
    a = uniform_quantiles(n)
    _top_against_dense(rmt.EnsembleSpec(n, a, a, 0.0, 101), n ** (-1.0 / 3.0 + 0.1), 20)


def _hermitian(q, lam):
    return (q * lam) @ q.conj().T


def _unitary_with_first(v, seed):
    """Unitary whose first column is v / |v| up to a phase."""
    rng = rmt.sample_stream(seed, 0)
    g = rng.standard_normal((v.size, v.size)) + 1j * rng.standard_normal((v.size, v.size))
    g[:, 0] = v
    return np.linalg.qr(g)[0]


def _assert_top(h, fell_back=None):
    lam, fb = rmt.top_eigenvalue(h, 5)
    assert abs(lam - np.linalg.eigvalsh(h)[-1]) <= 1e-10
    if fell_back is not None:
        assert fb == fell_back


def test_top_eigenvalue_top_vector_orthogonal_to_start():
    n = 60
    start = rmt._start_vector(n)
    rest = np.linspace(-1.0, 1.0, n - 1)
    top = np.roll(start, 1)
    top -= (start.conj() @ top) * start
    q = _unitary_with_first(top, 1)
    assert abs(start.conj() @ q[:, 0]) <= 1e-14
    _assert_top(_hermitian(q, np.concatenate([[3.0], rest])))
    # With the start vector itself an eigenvector, Lanczos breaks down at
    # dimension one on a value below the top, and the dense path answers.
    q = _unitary_with_first(start, 2)
    _assert_top(_hermitian(q, np.concatenate([[0.5], [3.0], rest[1:]])), fell_back=True)


def test_top_eigenvalue_degenerate_top():
    n = 60
    q = rmt.sample_haar_unitary(n, rmt.sample_stream(3, 4))
    _assert_top(_hermitian(q, np.concatenate([[2.0, 2.0], np.linspace(-2.0, 1.9, n - 2)])),
                fell_back=False)


def test_top_eigenvalue_diagonal_breakdown():
    # Three distinct eigenvalues: the Krylov space is invariant at dimension 3.
    h = np.diag(np.repeat([-1.0, 0.5, 2.0], 20)).astype(complex)
    _assert_top(h)
    _assert_top(np.diag(np.linspace(-1.0, 1.0, 50)).astype(complex))


def test_top_eigenvalue_small_n():
    for n in (1, 2, 3):
        _assert_top(rmt.sample_gue(n, rmt.sample_stream(8, n)))


def test_top_eigenvalue_dense_failure_carries_seed():
    h = np.eye(5, dtype=complex)
    h[1, 1] = np.nan
    with pytest.raises(rmt.EigensolverError) as info:
        rmt.top_eigenvalue(h, 7)
    assert info.value.seed == 7
    with pytest.raises(rmt.EigensolverError) as info:
        rmt.descending_eigenvalues(h, 8)
    assert info.value.seed == 8


def test_spec_validation():
    with pytest.raises(ValueError):
        rmt.EnsembleSpec(3, np.zeros(2), np.zeros(3), 0.0, 1)
    with pytest.raises(ValueError):
        rmt.EnsembleSpec(3, np.zeros(3), np.zeros(3), -0.1, 1)
    with pytest.raises(ValueError):
        rmt.EnsembleSpec(3, np.array([np.inf, 0, 0]), np.zeros(3), 0.0, 1)
    # a non-finite t must not pass for t = 0 (nan > 0 is False) or reach Lanczos
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError):
            rmt.EnsembleSpec(4, np.zeros(4), np.linspace(0.0, 1.0, 4), t, 1)
    # seeds outside int64 fail here, not at the first draw
    for seed in (2 ** 63, -2 ** 63 - 1):
        with pytest.raises(ValueError):
            rmt.EnsembleSpec(3, np.zeros(3), np.zeros(3), 0.0, seed)
    rmt.EnsembleSpec(3, np.zeros(3), np.zeros(3), 0.0, 2 ** 63 - 1)


def test_resolvent_diagonal_exact():
    a = np.linspace(-1.0, 1.0, 30)
    z = 0.3 + 0.05j
    p = rmt.resolvent_probe(np.diag(a).astype(complex), a, 0.0, z)
    assert np.max(np.abs(p.g_diag - 1.0 / (a - z))) < 1e-13
    assert p.trace_bg == 0 and p.trace_bgb == 0 and p.upsilon == 0


def test_resolvent_herglotz_and_identity():
    n = 80
    a = uniform_quantiles(n)
    rng = rmt.sample_stream(5, 0)
    u = rmt.sample_haar_unitary(n, rng)
    w = rmt.sample_gue(n, rng)
    h = rmt.build_matrix(a, a, u, 0.3, w)
    lam = np.linalg.eigvalsh(h)
    for z in (0.2 + 0.1j, -1.0 + 0.02j, 2.0 + 1.0j):
        p = rmt.resolvent_probe(h, a, 0.3, z, w)
        assert p.trace_g.imag > 0
        assert abs(p.trace_g - np.mean(1.0 / (lam - z))) < 1e-9


def test_resolvent_rejects_real_axis():
    h = np.diag(np.ones(4)).astype(complex)
    with pytest.raises(ValueError):
        rmt.resolvent_probe(h, np.ones(4), 0.0, 1.0 + 1e-12j)


def test_resolvent_approximate_subordination():
    # One N=1000 draw probed at the upper edge with eta = N^{-0.6}; the
    # trace combination must land near the subordination point.
    n = 1000
    a = uniform_quantiles(n)
    z = eg.find_edge_stability(ms.uniform(-1, 1), ms.uniform(-1, 1), 0.0).e_plus \
        + 1j * n ** (-0.6)
    sol = sub.solve(ms.uniform(-1, 1), ms.uniform(-1, 1), 0.0, z)
    rng = rmt.sample_stream(1, 0)
    u = rmt.sample_haar_unitary(n, rng)
    bt = (u * a) @ u.conj().T
    p = rmt.resolvent_probe(bt + np.diag(a), a, 0.0, z)
    assert abs(p.omega_a_c - sol.omega1) <= 0.05


def explicit_traces(h, b_tilde, z):
    """tr G, tr BG and tr BGB (normalized) from the explicit product B G."""
    n = h.shape[0]
    g = np.linalg.inv(h - z * np.eye(n))
    bg = b_tilde @ g
    return np.trace(g) / n, np.trace(bg) / n, np.trace(bg @ b_tilde) / n


def test_resolvent_traces_match_explicit_product():
    # The probe's traces come from p_i = (G B)_ii and, at t > 0, W G; they
    # must agree with tr BG and tr BGB formed from the product B G itself.
    n = 120
    a = np.cos(np.linspace(0.0, 3.0, n)) + 0.3 * np.linspace(-1.0, 1.0, n) ** 3
    b = uniform_quantiles(n) ** 2 - 0.4
    rng = rmt.sample_stream(21, 0)
    u = rmt.sample_haar_unitary(n, rng)
    w = rmt.sample_gue(n, rng)
    bt = (u * b) @ u.conj().T
    for t in (0.0, 0.3):
        h = rmt.build_matrix(a, b, u, t, w)
        e_top = np.linalg.eigvalsh(h)[-1]
        for z in (0.1 + 0.05j, e_top + 0.01j, 0.4 + 1e-3j, e_top + 1e-3j):
            p = rmt.resolvent_probe(h, a, t, z, w)
            trace_g, trace_bg, trace_bgb = explicit_traces(h, bt, z)
            assert p.trace_g == trace_g
            assert abs(p.trace_bg - trace_bg) <= 1e-13
            assert abs(p.trace_bgb - trace_bgb) <= 1e-13
            assert abs(p.upsilon - (trace_bg - trace_bg ** 2 + trace_g * trace_bgb)) <= 1e-12
            assert abs(p.omega_a_c - (z - trace_bg / trace_g + t * trace_g)) <= 1e-12


def test_decomposition_identities():
    n = 64
    u = rmt.sample_haar_unitary(n, rmt.sample_stream(3, 1))
    e = np.eye(n)
    for i in (0, 17, 63):
        dp = rmt.partial_decomposition(u, i)
        reflect = np.eye(n) - np.outer(dp.r_vec, dp.r_vec.conj())
        assert np.max(np.abs(reflect @ reflect - np.eye(n))) < 1e-12
        assert np.max(np.abs(-np.exp(1j * dp.theta) * (reflect @ dp.u_reduced) - u)) < 1e-10
        assert np.max(np.abs(dp.u_reduced[i] - e[i])) < 1e-12
        assert np.max(np.abs(dp.u_reduced[:, i] - e[i])) < 1e-12
        assert np.max(np.abs(reflect @ e[i] + dp.h_vec)) < 1e-12
        assert np.max(np.abs(reflect @ dp.h_vec + e[i])) < 1e-12
        assert abs(np.linalg.norm(dp.h_vec) - 1.0) < 1e-12


def test_decomposition_validation():
    u = rmt.sample_haar_unitary(8, rmt.sample_stream(3, 2))
    with pytest.raises(ValueError):
        rmt.partial_decomposition(u, 8)
    with pytest.raises(ValueError):
        rmt.partial_decomposition(2.0 * u, 0)
