import math

import numpy as np
import numpy.testing as npt
import pytest

from gfdmsim.channel import (
    MimoChannel,
    apply_channel,
    assemble_full_matrix,
    generate_channel,
    snr_db_to_noise_power,
)
from gfdmsim.decoupling import (
    compute_blocks,
    data_permutation,
    receive_transform,
    verify_decomposition,
)
from gfdmsim.waveform import build_transmitter_matrix, dirichlet_filter, rc_filter, window_filter

from oracles import (
    compute_blocks_ref,
    data_operator_ref,
    matrix_power,
    perm_cyclic_ref,
    perm_interleave_ref,
    receive_operator_ref,
)

GRID = [(4, 2, 2, 2), (8, 2, 2, 2), (4, 4, 2, 2), (8, 4, 2, 3)]


def random_channel(k, m, t, r, seed):
    return generate_channel(t, r, np.random.default_rng(seed), k * m)


def test_cyclic_shift_basics():
    npt.assert_array_equal(perm_cyclic_ref(2) @ np.array([1.0, 2.0]), [2.0, 1.0])
    for a in (2, 3, 5):
        npt.assert_allclose(matrix_power(perm_cyclic_ref(a), a), np.eye(a), atol=1e-14)


def test_interleave_2_3_example():
    npt.assert_array_equal(perm_interleave_ref(2, 3) @ np.arange(6), [0, 2, 4, 1, 3, 5])


def test_receive_transform_degenerates_to_dft():
    d = 8
    y = np.random.default_rng(1).standard_normal((1, d)) + 0j
    out = receive_transform(y, window_filter(d, np.ones(1), 0))
    npt.assert_allclose(out, np.fft.fft(y[0]) / math.sqrt(d), atol=1e-12)


@pytest.mark.parametrize("k,m,r,shift", [(4, 2, 2, 3), (2, 3, 2, 0), (4, 4, 3, 2)])
def test_receive_transform_matches_dense_operator(k, m, r, shift):
    d = k * m
    rng = np.random.default_rng(5)
    y = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
    expected = receive_operator_ref(k, m, r, shift) @ y.reshape(-1)
    npt.assert_allclose(receive_transform(y, window_filter(k, np.ones(m), shift)), expected, atol=1e-10)


def test_receive_transform_is_unitary():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    out = receive_transform(y, window_filter(4, np.ones(2), 3))
    assert abs(np.linalg.norm(out) - np.linalg.norm(y)) < 1e-10


@pytest.mark.parametrize(
    "k, m, t, r, shift, n_blocks, snr_db",
    [
        (8, 4, 2, 2, 0, 20, 4.0),  # the desk_proposed shape
        (4, 2, 2, 3, 3, 2, 10.0),
        (16, 1, 2, 2, 0, 3, 20.0),  # M = 1, the ofdm case
        (4, 4, 1, 1, 2, 5, 0.0),
        (8, 2, 2, 2, 1, 4, math.inf),  # no noise is drawn
    ],
)
def test_stacked_channel_and_receive_transform_match_block_calls(
    k, m, t, r, shift, n_blocks, snr_db
):
    # a realization's blocks go through apply_channel and receive_transform
    # in one call each; every block must equal its own one-block calls bit
    # for bit, its noise drawn from its own generator
    filt = window_filter(k, np.linspace(1.0, 0.5, m), shift)
    rng = np.random.default_rng(41)
    ch = generate_channel(t, r, rng, k * m)
    x = rng.standard_normal((n_blocks, t, k * m)) + 1j * rng.standard_normal((n_blocks, t, k * m))
    n0 = snr_db_to_noise_power(snr_db)
    streams = [np.random.default_rng([42, b]) for b in range(n_blocks)]
    y = apply_channel(x, ch, n0, streams if n0 > 0 else None)
    ybar = receive_transform(y, filt)
    assert y.shape == (n_blocks, r, k * m) and ybar.shape == (n_blocks, r * k * m)
    for b in range(n_blocks):
        y_b = apply_channel(x[b], ch, n0, np.random.default_rng([42, b]) if n0 > 0 else None)
        assert y_b.tobytes() == y[b].tobytes()
        assert receive_transform(y_b, filt).tobytes() == ybar[b].tobytes()
    if n0 > 0:
        # a stack needs a sequence of one generator per block, a block one generator
        for x_in, bad in ((x, None), (x, streams[:-1]), (x, streams[0]), (x[0], streams[:1])):
            with pytest.raises(ValueError, match="one random stream per block"):
                apply_channel(x_in, ch, n0, bad)
    with pytest.raises(ValueError, match="transmit array"):
        apply_channel(x[None], ch, n0, streams)
    with pytest.raises(ValueError, match="blocks of"):
        receive_transform(y[None], filt)


@pytest.mark.parametrize("k,m,t", [(2, 2, 2), (4, 2, 3), (3, 1, 1)])
def test_data_permutation_matches_dense_operator(k, m, t):
    # row i of the dense P picks data entry i of the map read row by row
    idx = data_permutation(dirichlet_filter(k, m), t)
    assert idx.shape == (k, m * t)
    npt.assert_array_equal(idx.reshape(-1), data_operator_ref(k, m, t).argmax(axis=1))


def test_data_permutation_roundtrip_and_grouping():
    k, m, t = 4, 2, 2
    idx = data_permutation(dirichlet_filter(k, m), t)
    # every data position appears once, so scattering through the map undoes gathering
    npt.assert_array_equal(np.sort(idx, axis=None), np.arange(t * k * m))
    # row q holds exactly subcarrier q's symbols, antenna-major
    for q in range(k):
        ref = [tt * k * m + mm * k + q for tt in range(t) for mm in range(m)]
        npt.assert_array_equal(idx[q], ref)


def test_data_permutation_t1_m1_is_bijection():
    npt.assert_array_equal(data_permutation(dirichlet_filter(6, 1), 1), np.arange(6)[:, None])


def test_compute_blocks_identity_channel_unitary():
    # Dirichlet filter and a flat channel make every per-subcarrier block unitary
    taps = np.ones((1, 1, 1), dtype=complex)
    ch = MimoChannel(taps, 16)
    blocks = compute_blocks(ch, dirichlet_filter(4, 4))
    for k in range(4):
        npt.assert_allclose(blocks[k].conj().T @ blocks[k], np.eye(4), atol=1e-10)


def test_compute_blocks_gram_formula():
    # F_k^H F_k = |h_k|^2-weighted Gram of the shared window factor
    ch = random_channel(4, 3, 1, 1, seed=2)
    filt = dirichlet_filter(4, 3)
    blocks = compute_blocks(ch, filt)
    g_1, shift = filt.support
    m = 3
    w_m = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / math.sqrt(m)
    core = np.diag(g_1) @ np.roll(w_m, -shift, axis=0) / math.sqrt(4)
    gains = np.roll(ch.freq[0, 0], -shift)
    for k in range(4):
        w = np.diag(gains[k * m : (k + 1) * m])
        expected = core.conj().T @ w.conj().T @ w @ core
        npt.assert_allclose(blocks[k].conj().T @ blocks[k], expected, atol=1e-10)


def test_compute_blocks_requires_support():
    ch = random_channel(4, 2, 2, 2, seed=3)
    with pytest.raises(ValueError):
        compute_blocks(ch, rc_filter(4, 2, 0.9))
    with pytest.raises(ValueError):
        compute_blocks(ch, dirichlet_filter(4, 4))  # 16-sample filter, 8-sample channel
    with pytest.raises(ValueError):
        receive_transform(np.zeros((2, 8)), rc_filter(4, 2, 0.9))


def test_compute_blocks_m1_gives_ofdm_channels():
    ch = random_channel(8, 1, 2, 3, seed=4)
    blocks = compute_blocks(ch, dirichlet_filter(8, 1))
    for k in range(8):
        npt.assert_allclose(blocks[k], ch.freq[:, :, k], atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 8, 256])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_compute_blocks_matches_reference_bit_for_bit(k, m):
    # the products run with the subcarrier axis innermost; their operands,
    # and so every bit of the stack, are those of the reference layout
    rng = np.random.default_rng(k * 10 + m)
    g_1 = rng.uniform(0.2, 1.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    for filt in (dirichlet_filter(k, m), window_filter(k, g_1, int(rng.integers(0, k * m)))):
        for t, r in ((2, 2), (1, 3), (3, 2)):
            ch = random_channel(k, m, t, r, seed=int(rng.integers(1000)))
            blocks = compute_blocks(ch, filt)
            assert blocks.flags.c_contiguous
            assert blocks.tobytes() == compute_blocks_ref(ch, filt).tobytes()


@pytest.mark.parametrize("k,m,t,r", GRID)
def test_blocks_match_dense_factorization(k, m, t, r):
    ch = random_channel(k, m, t, r, seed=k + m + t + r)
    filt = dirichlet_filter(k, m)
    blocks = compute_blocks(ch, filt)
    a = build_transmitter_matrix(filt)
    h_full = assemble_full_matrix(ch, a)
    u = receive_operator_ref(k, m, r, filt.support[1])
    p = data_operator_ref(k, m, t)
    transformed = u @ h_full @ p.conj().T
    extracted = np.stack(
        [transformed[i * m * r : (i + 1) * m * r, i * m * t : (i + 1) * m * t] for i in range(k)]
    )
    npt.assert_allclose(extracted, blocks, atol=1e-10)


@pytest.mark.parametrize("k,m,t,r", GRID)
def test_decomposition_residual_dirichlet(k, m, t, r):
    filt = dirichlet_filter(k, m)
    for seed in range(5):
        assert verify_decomposition(random_channel(k, m, t, r, seed), filt) <= 1e-10


def test_decomposition_residual_random_window_filters():
    # the factorization holds for every filter in the M-bin window class,
    # not just the Dirichlet pulse
    rng = np.random.default_rng(17)
    shapes = [(4, 2), (4, 4), (8, 2), (3, 5), (8, 1), (1, 4)]
    for k, m, t, r in [(k, m, 2, 2) for k, m in shapes]:
        d_len = k * m
        g_1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        filt = window_filter(k, g_1, int(rng.integers(0, d_len)))
        ch = generate_channel(t, r, rng, d_len)
        assert verify_decomposition(ch, filt) <= 1e-10


@pytest.mark.parametrize("k,m", [(2, 2), (4, 2), (8, 2), (16, 2), (4, 4), (8, 4), (8, 1), (1, 4)])
def test_decomposition_residual_small_rolloff_rc(k, m):
    # for alpha <= 1/M the raised cosine is the Dirichlet rectangle, window
    # and all, so the receiver runs on it without a projection
    ch = random_channel(k, m, 2, 2, seed=k * 10 + m)
    for alpha in (0.0, 0.5 / m, 1.0 / m):
        assert verify_decomposition(ch, rc_filter(k, m, alpha)) <= 1e-10


def test_decomposition_residual_rc():
    ch = random_channel(8, 4, 2, 2, seed=6)
    assert verify_decomposition(ch, rc_filter(8, 4, 0.9)) > 1e-3


def test_decomposition_zero_channel():
    taps = np.zeros((2, 2, 1), dtype=complex)
    ch = MimoChannel(taps, 8)
    assert verify_decomposition(ch, dirichlet_filter(4, 2)) == 0.0


def test_off_block_leakage_is_negligible():
    k, m, t, r = 4, 2, 2, 2
    ch = random_channel(k, m, t, r, seed=8)
    filt = dirichlet_filter(k, m)
    blocks = compute_blocks(ch, filt)
    a = build_transmitter_matrix(filt)
    h_full = assemble_full_matrix(ch, a)
    u = receive_operator_ref(k, m, r, filt.support[1])
    p = data_operator_ref(k, m, t)
    transformed = u @ h_full @ p.conj().T
    mask = np.zeros_like(transformed, dtype=bool)
    for i in range(k):
        mask[i * m * r : (i + 1) * m * r, i * m * t : (i + 1) * m * t] = True
    leak = np.sum(np.abs(transformed[~mask]) ** 2) / np.sum(np.abs(transformed) ** 2)
    assert leak <= 1e-20
