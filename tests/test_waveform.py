import math

import numpy as np
import numpy.testing as npt
import pytest

from gfdmsim.waveform import (
    PrototypeFilter,
    build_transmitter_matrix,
    dirichlet_filter,
    dominant_window,
    fast_modulate,
    rc_filter,
    window_filter,
)

from oracles import dft_matrix_ref, transmitter_matrix_ref, window_diag_dft_ref

GRID = [(2, 2), (4, 2), (4, 4), (8, 2), (8, 4), (3, 5)]


def random_data(d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def test_config_dimensions_and_defaults():
    f = dirichlet_filter(8, 2)
    assert (f.n_subcarriers, f.n_subsymbols, f.length) == (8, 2, 16)
    assert rc_filter(3, 5, 0.5).n_subsymbols == 5
    g = np.ones(8, dtype=complex) / math.sqrt(8)
    assert PrototypeFilter(g_f=np.fft.fft(g), n_subcarriers=8).n_subsymbols == 1
    for k_sc, length in ((0, 8), (-2, 8), (4, 0)):
        g = np.zeros(length, dtype=complex)
        with pytest.raises(ValueError):
            PrototypeFilter(g_f=g, n_subcarriers=k_sc)


@pytest.mark.parametrize("g_f", [np.ones((4, 2)), np.array(1.0), np.ones((1, 8))])
def test_filter_spectrum_must_be_one_dimensional(g_f):
    with pytest.raises(ValueError, match="1-D"):
        PrototypeFilter(g_f=g_f, n_subcarriers=2)


def test_transmitter_matrix_dimension_mismatch():
    # the grid comes from the filter, so a filter whose length is not a
    # multiple of K cannot be built, and the matrix is always D x D
    assert build_transmitter_matrix(dirichlet_filter(4, 4)).shape == (16, 16)
    for k_sc, length in ((3, 8), (16, 8)):
        g = np.zeros(length, dtype=complex)
        with pytest.raises(ValueError):
            PrototypeFilter(g_f=g, n_subcarriers=k_sc)


@pytest.mark.parametrize(
    "make",
    [
        lambda: dirichlet_filter(0, 4),
        lambda: dirichlet_filter(4, 0),
        lambda: dirichlet_filter(-1, 4),
        lambda: rc_filter(4, 0, 0.5),
        lambda: window_filter(0, 2, [1, 1], 0),
        lambda: window_filter(2, 0, [], 0),
    ],
    ids=["dirichlet-k0", "dirichlet-m0", "dirichlet-k-1", "rc-m0", "window-k0", "window-m0"],
)
def test_filter_constructors_reject_empty_grid(make):
    with pytest.raises(ValueError, match="K and M must be positive"):
        make()


@pytest.mark.parametrize(
    "g_1,match",
    [
        ([1, 1, 1], "length M"),
        ([[1, 1]], "length M"),
        ([0, 0], "nonzero energy"),
        ([1, np.nan], "nonzero energy"),
    ],
    ids=["too-long", "2-d", "all-zero", "nan"],
)
def test_window_filter_rejects_bad_window(g_1, match):
    with pytest.raises(ValueError, match=match):
        window_filter(2, 2, g_1, 0)


def test_window_filter_random_windows():
    rng = np.random.default_rng(23)
    for k, m in GRID:
        d_len = k * m
        g_1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        shift = int(rng.integers(0, d_len))
        f = window_filter(k, m, g_1, shift - 2 * d_len)
        assert abs(np.linalg.norm(f.g) - 1.0) < 1e-12
        npt.assert_array_equal(f.g, np.fft.ifft(f.g_f))
        # the window read from g_f is the input window, scaled to unit
        # energy, at the input shift mod D
        scale = math.sqrt(d_len) / np.linalg.norm(g_1)
        g_1_found, start = f.support
        assert start == shift
        npt.assert_allclose(g_1_found, g_1 * scale, rtol=1e-12)


def test_dirichlet_k2_m1():
    f = dirichlet_filter(2, 1)
    npt.assert_allclose(f.g_f, math.sqrt(2) * np.array([1, 0]), atol=1e-12)
    npt.assert_allclose(f.g, np.array([1, 1]) / math.sqrt(2), atol=1e-12)
    assert f.support[1] == 0


def test_dirichlet_k2_m2():
    f = dirichlet_filter(2, 2)
    g_1, shift = f.support
    assert shift == 1
    npt.assert_allclose(f.g_f, math.sqrt(2) * np.array([0, 1, 1, 0]), atol=1e-12)
    npt.assert_allclose(g_1, math.sqrt(2) * np.ones(2), atol=1e-12)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_dirichlet_m1_gives_inverse_dft_matrix(k):
    a = build_transmitter_matrix(dirichlet_filter(k, 1))
    npt.assert_allclose(a, dft_matrix_ref(k).conj().T, atol=1e-12)


@pytest.mark.parametrize("k,m", GRID)
def test_unit_energy_and_column_norms(k, m):
    for f in (dirichlet_filter(k, m), rc_filter(k, m, 0.5)):
        assert abs(np.linalg.norm(f.g) - 1.0) < 1e-12
        a = build_transmitter_matrix(f)
        npt.assert_allclose(np.linalg.norm(a, axis=0), np.ones(k * m), atol=1e-12)


@pytest.mark.parametrize("k,m", GRID)
def test_dirichlet_matrix_is_orthogonal(k, m):
    a = build_transmitter_matrix(dirichlet_filter(k, m))
    npt.assert_allclose(a.conj().T @ a, np.eye(k * m), atol=1e-10)


@pytest.mark.parametrize("k,m", GRID)
def test_parseval_for_dirichlet(k, m):
    a = build_transmitter_matrix(dirichlet_filter(k, m))
    d = random_data(k * m, seed=k * 31 + m)
    assert abs(np.linalg.norm(a @ d) - np.linalg.norm(d)) < 1e-10


def test_transmitter_matrix_k1_m1():
    f = PrototypeFilter(g_f=np.array([1.0 + 0j]), n_subcarriers=1)
    npt.assert_allclose(build_transmitter_matrix(f), np.array([[1.0]]), atol=1e-15)


@pytest.mark.parametrize("k,m", [(4, 2), (3, 5)])
def test_transmitter_matrix_matches_entry_formula(k, m):
    g = random_data(k * m, seed=7)
    g = g / np.linalg.norm(g)
    f = PrototypeFilter(g_f=np.fft.fft(g), n_subcarriers=k)
    a = build_transmitter_matrix(f)
    npt.assert_allclose(a, transmitter_matrix_ref(g, k, m), atol=1e-12)


def random_spectrum_filter(k, m):
    # a pulse with energy on every bin: no M-bin window
    rng = np.random.default_rng([k, m])
    g_f = rng.standard_normal(k * m) + 1j * rng.standard_normal(k * m)
    return PrototypeFilter(g_f=g_f * math.sqrt(k * m) / np.linalg.norm(g_f), n_subcarriers=k)


MODULATE_SHAPES = [(2, 2), (4, 4), (8, 2), (3, 5), (1, 4), (8, 1), (1, 1)]
MODULATE_FILTERS = {
    "rc0.5": lambda k, m: rc_filter(k, m, 0.5),
    "rc0.9": lambda k, m: rc_filter(k, m, 0.9),
    "random": random_spectrum_filter,
}


@pytest.mark.parametrize(
    "k,m,make",
    [pytest.param(k, m, dirichlet_filter, id=f"{k}-{m}") for k, m in MODULATE_SHAPES]
    + [
        pytest.param(k, m, make, id=f"{name}-{k}-{m}")
        for name, make in MODULATE_FILTERS.items()
        for k, m in MODULATE_SHAPES
    ],
)
def test_fast_modulate_matches_dense(k, m, make):
    f = make(k, m)
    a = build_transmitter_matrix(f)
    for seed in range(5):
        d = random_data(k * m, seed=seed)
        dense = a @ d
        fast = fast_modulate(d, f)
        assert np.linalg.norm(dense - fast) <= 1e-10 * np.linalg.norm(dense)
    # a stack of blocks is modulated row by row, with the same arithmetic
    stack = np.stack([random_data(k * m, seed=s) for s in range(6)]).reshape(2, 3, k * m)
    rows = np.stack([fast_modulate(row, f) for row in stack.reshape(6, k * m)])
    npt.assert_array_equal(fast_modulate(stack, f), rows.reshape(2, 3, k * m))


def test_fast_modulate_random_window_filters():
    # a filter with an M-bin window, at any shift, is modulated as A @ d
    rng = np.random.default_rng(3)
    for k, m in [(4, 2), (8, 4), (5, 3)]:
        d_len = k * m
        g_1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        shift = int(rng.integers(0, d_len))
        f = window_filter(k, m, g_1, shift)
        a = build_transmitter_matrix(f)
        d = random_data(d_len, seed=int(rng.integers(1 << 30)))
        assert np.linalg.norm(a @ d - fast_modulate(d, f)) < 1e-10


def test_fast_modulate_zero_and_errors():
    # a filter without an M-bin window is modulated too
    for f in (dirichlet_filter(4, 4), rc_filter(4, 4, 0.9)):
        npt.assert_allclose(fast_modulate(np.zeros(16), f), np.zeros(16), atol=1e-14)
    f = dirichlet_filter(4, 4)
    with pytest.raises(ValueError):
        fast_modulate(np.zeros(15), f)
    with pytest.raises(ValueError):
        fast_modulate(np.zeros((16, 2)), f)  # blocks run along the last axis


def test_fast_modulate_m1_reduces_to_inverse_dft():
    k = 8
    f = dirichlet_filter(k, 1)
    d = random_data(k, seed=11)
    npt.assert_allclose(fast_modulate(d, f), math.sqrt(k) * np.fft.ifft(d), atol=1e-12)


def test_support_recovery_is_identity_on_dirichlet():
    for k, m in GRID:
        g_1, shift = dirichlet_filter(k, m).support
        d = k * m
        assert shift == (d - math.ceil(-m / 2)) % d
        npt.assert_allclose(g_1, np.full(m, math.sqrt(d / m)), atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_k1_window_is_centred(m):
    # at K = 1 every start holds the whole spectrum; the window keeps the
    # constructors' centred start, which orders the rows of the one block
    centred = (m - math.ceil(-m / 2)) % m
    taper = window_filter(1, m, np.arange(1, m + 1), 0)
    for f in (dirichlet_filter(1, m), rc_filter(1, m, 0.9), taper):
        g_1, start = f.support
        assert start == centred
        npt.assert_array_equal(g_1, np.roll(f.g_f, -centred))


def test_support_is_derived_not_stored():
    f = dirichlet_filter(8, 2)
    with pytest.raises(TypeError):
        PrototypeFilter(g_f=f.g_f, n_subcarriers=8, support=(2 * f.support[0], f.support[1]))


def test_spectrum_is_a_read_only_copy():
    # the window is cached per filter, so the spectrum it was read from
    # cannot change under it, neither through the filter nor its input
    g_f = dirichlet_filter(8, 2).g_f.copy()
    f = PrototypeFilter(g_f=g_f, n_subcarriers=8)
    assert f.support is not None
    with pytest.raises(ValueError):
        f.g_f[0] = 3.0
    g_f[0] = 3.0
    assert f.g_f[0] == 0.0


def test_filters_compare_and_hash_by_identity():
    # generated equality would compare the spectra, whose == has no truth
    # value; the cached pulse and window still work on an identity-hashed filter
    a, b = dirichlet_filter(4, 2), dirichlet_filter(4, 2)
    assert a == a and a != b and np.array_equal(a.g_f, b.g_f)
    assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)
    assert a.support is a.support and a.g is a.g


def test_pulse_is_computed_once_and_read_only():
    # fast_modulate and build_transmitter_matrix read g on every call, so the
    # filter keeps one copy of the inverse DFT, which no caller can change;
    # compute_blocks reads the M x M block factor on every call, kept likewise
    f = window_filter(8, 4, np.linspace(0.5, 1.0, 4) * np.exp(1j * np.arange(4)), 5)
    assert f.g.tobytes() == np.fft.ifft(f.g_f).tobytes()
    assert f.g is f.g
    with pytest.raises(ValueError):
        f.g[0] = 3.0
    assert f.block_factor.tobytes() == window_diag_dft_ref(*f.support, 8).tobytes()
    assert f.block_factor is f.block_factor
    with pytest.raises(ValueError):
        f.block_factor[0, 0] = 3.0
    assert rc_filter(8, 4, 0.9).block_factor is None


@pytest.mark.parametrize("k,m", GRID + [(8, 1), (1, 4)])
def test_rc_small_rolloff_has_window_and_fast_path(k, m):
    # alpha <= 1/M ends the roll-off inside the Dirichlet window, so the
    # filter carries a window; its modulation is the dense product
    rng = np.random.default_rng([k, m])
    filters = [rc_filter(k, m, alpha) for alpha in (0.0, 0.5 / m, 1.0 / m)]
    g_1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    filters.append(window_filter(k, m, g_1, int(rng.integers(0, k * m))))
    for f in filters:
        assert f.support is not None
        d = random_data(k * m, seed=int(rng.integers(1 << 30)))
        dense = build_transmitter_matrix(f) @ d
        npt.assert_allclose(fast_modulate(d, f), dense, rtol=0, atol=1e-12)
    if k > 1 and m > 1:  # at K = 1 the window is the whole spectrum
        assert rc_filter(k, m, 0.9).support is None


def test_dominant_window_ties_go_to_smallest_start():
    # bins 3-4 and the cyclic pair 7-0 hold equal energy
    g_f = np.array([1, 0, 0, 1, 1, 0, 0, 1], dtype=complex)
    g_1, start = dominant_window(g_f, 2)
    assert start == 3
    npt.assert_array_equal(g_1, [1, 1])
    assert dominant_window(np.roll(g_f, 1), 2)[1] == 0


def test_rc_zero_rolloff_equals_dirichlet_rectangle():
    for k, m in GRID:
        f = rc_filter(k, m, 0.0)
        ref = dirichlet_filter(k, m)
        npt.assert_allclose(f.g_f, ref.g_f, atol=1e-12)
        assert f.support[1] == ref.support[1]


@pytest.mark.parametrize("k,m", [(8, 4), (8, 2), (4, 4)])
def test_rc_large_rolloff_is_not_ici_free(k, m):
    f = rc_filter(k, m, 0.9)
    assert f.support is None


def test_rc_rolloff_range():
    for alpha in (-0.1, 1.5):
        with pytest.raises(ValueError):
            rc_filter(4, 4, alpha)


def test_all_ones_spectrum_is_not_ici_free():
    d = 8
    g_f = np.ones(d, dtype=complex) * math.sqrt(d) / math.sqrt(d)
    f = PrototypeFilter(g_f=g_f, n_subcarriers=4)
    assert f.support is None


def test_zero_spectrum_has_no_support():
    for k in (1, 2, 4):  # K = 1 has a single window, the whole spectrum
        f = PrototypeFilter(g_f=np.zeros(8, dtype=complex), n_subcarriers=k)
        assert f.support is None
