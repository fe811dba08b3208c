import math

import numpy as np
import numpy.testing as npt
import pytest

from gfdmsim.channel import (
    MimoChannel,
    apply_channel,
    assemble_full_matrix,
    build_circulant,
    generate_channel,
    power_delay_profile,
    snr_db_to_noise_power,
)
from gfdmsim.waveform import build_transmitter_matrix, dirichlet_filter, rc_filter

from oracles import circulant_ref, dft_matrix_ref


def test_power_delay_profile_values():
    powers = power_delay_profile(32)  # 32 // 8 = 4 taps
    # direct evaluation of the linear-in-dB ramp 0 .. -10 dB over 4 taps
    raw = 10.0 ** (-10.0 * np.arange(4) / (3 * 10.0))
    npt.assert_allclose(powers, raw / raw.sum(), atol=1e-15)
    assert abs(powers.sum() - 1.0) < 1e-12


def test_power_delay_profile_single_tap():
    npt.assert_allclose(power_delay_profile(8), [1.0])
    npt.assert_allclose(power_delay_profile(4), [1.0])  # D < 8 still has one tap


def test_generate_channel_tap_count():
    for d in (4, 16, 1024):
        ch = generate_channel(2, 3, np.random.default_rng(d), d)
        assert ch.taps.shape == (3, 2, max(1, d // 8))
        assert ch.freq.shape == (3, 2, d)


def test_generate_channel_deterministic():
    a = generate_channel(2, 2, np.random.default_rng(123), 24)
    b = generate_channel(2, 2, np.random.default_rng(123), 24)
    npt.assert_array_equal(a.taps, b.taps)
    npt.assert_array_equal(a.freq, b.freq)


def test_flat_fading_statistics():
    rng = np.random.default_rng(0)
    draws = np.array([generate_channel(1, 1, rng, 4).taps[0, 0, 0] for _ in range(10_000)])
    energy = np.mean(np.abs(draws) ** 2)
    assert abs(energy - 1.0) < 0.03
    # Rayleigh magnitude: E|h| = sqrt(pi)/2 for unit mean-square
    assert abs(np.mean(np.abs(draws)) - math.sqrt(math.pi) / 2) < 0.03


def test_channel_energy_multitap():
    rng = np.random.default_rng(5)
    total = 0.0
    n = 10_000
    for _ in range(n // 100):
        ch = generate_channel(10, 10, rng, 32)  # 4 taps
        total += np.sum(np.abs(ch.taps) ** 2)
    assert abs(total / n - 1.0) < 0.03


def test_freq_response_matches_taps():
    # freq is the taps' D-point DFT, computed once, to the last bit
    ch = generate_channel(2, 2, np.random.default_rng(9), 24)  # 3 taps
    assert ch.freq.tobytes() == np.fft.fft(ch.taps, n=24, axis=2).tobytes()
    for r in range(2):
        for t in range(2):
            assert ch.freq[r, t].tobytes() == np.fft.fft(ch.taps[r, t], n=24).tobytes()


@pytest.mark.parametrize(
    "shape, d",
    [((2, 2), 8), ((2, 2, 0), 8), ((2, 2, 9), 8), ((1, 1, 20), 16), ((1, 1, 1), 0),
     ((2, 0, 1), 4), ((0, 2, 1), 4)],
    ids=["2-d", "no-taps", "9-taps-on-8", "20-taps-on-16", "empty-block", "no-tx", "no-rx"],
)
def test_channel_rejects_taps_that_do_not_fit(shape, d):
    # both receivers read one channel, so taps that a D-point block cannot
    # hold are rejected before either sees them
    MimoChannel(np.ones((2, 2, 8)), 8)
    with pytest.raises(ValueError, match=r"taps must be \(R, T, n_taps\)"):
        MimoChannel(np.ones(shape), d)


@pytest.mark.parametrize("block_len", [2.5, "4", 4.0, None])
def test_channel_block_length_must_be_an_integer(block_len):
    with pytest.raises(ValueError, match="block_len must be an integer"):
        MimoChannel(np.ones((1, 1, 2)), block_len)
    ch = MimoChannel(np.ones((1, 1, 2)), np.int64(4))  # numpy's integers are stored as int
    assert type(ch.block_len) is int and ch.freq.shape == (1, 1, 4)


def test_channel_is_a_read_only_copy_of_its_taps():
    rng = np.random.default_rng(10)
    taps = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    kept = taps.copy()
    ch = MimoChannel(taps, 16)
    freq = ch.freq.copy()
    taps[...] = 0.0  # the caller's array is not the channel's
    assert np.array_equal(ch.taps, kept) and np.array_equal(ch.freq, freq)
    assert (ch.n_rx, ch.n_tx, ch.block_len) == (3, 2, 16)
    for arr in (ch.taps, ch.freq):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 1.0
    real = MimoChannel(np.ones((1, 1, 2)), 4)  # real taps are stored complex
    assert real.taps.dtype == complex


def test_channels_compare_and_hash_by_identity():
    # generated equality would compare the tap arrays, whose == has no truth value
    a = generate_channel(2, 2, np.random.default_rng(0), 16)
    b = generate_channel(2, 2, np.random.default_rng(0), 16)
    assert a == a and a != b and np.array_equal(a.taps, b.taps)
    assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)


def test_build_circulant_examples():
    npt.assert_allclose(build_circulant(np.array([1.0]), 3), np.eye(3), atol=1e-15)
    a, b = 2.0 + 1j, -0.5 + 0.25j
    npt.assert_allclose(
        build_circulant(np.array([a, b]), 3),
        np.array([[a, 0, b], [b, a, 0], [0, b, a]]),
        atol=1e-15,
    )
    with pytest.raises(ValueError):
        build_circulant(np.ones(5), 4)
    with pytest.raises(ValueError):
        build_circulant(np.ones((2, 3, 5)), 4)


def test_circulant_matches_reference_and_diagonalizes():
    rng = np.random.default_rng(2)
    taps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = build_circulant(taps, 8)
    npt.assert_allclose(h, circulant_ref(taps, 8), atol=1e-14)
    w = dft_matrix_ref(8)
    diag = w @ h @ w.conj().T
    expected = np.fft.fft(taps, n=8)
    npt.assert_allclose(np.diag(diag), expected, atol=1e-10)
    off = diag - np.diag(np.diag(diag))
    assert np.abs(off).max() < 1e-10


def test_apply_channel_identity():
    taps = np.zeros((2, 2, 1), dtype=complex)
    taps[0, 0, 0] = taps[1, 1, 0] = 1.0
    ch = MimoChannel(taps, 8)
    x = np.arange(16, dtype=complex).reshape(2, 8)
    npt.assert_allclose(apply_channel(x, ch, 0.0), x, atol=1e-12)


def test_apply_channel_matches_circulant_oracle():
    rng = np.random.default_rng(14)
    ch = generate_channel(2, 3, rng, 24)  # 3 taps
    x = rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))
    y = apply_channel(x, ch, 0.0)
    for r in range(3):
        expected = sum(circulant_ref(ch.taps[r, t], 24) @ x[t] for t in range(2))
        assert np.linalg.norm(y[r] - expected) <= 1e-10 * np.linalg.norm(expected)


def test_apply_channel_equals_cp_transmission():
    # explicit path: prepend a cyclic prefix, run a linear convolution,
    # drop the prefix; must agree with the circular model
    rng = np.random.default_rng(21)
    d, cp = 32, 4
    ch = generate_channel(1, 1, rng, d)  # 4 taps, all covered by the prefix
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    with_cp = np.concatenate([x[-cp:], x])
    linear = np.convolve(with_cp, ch.taps[0, 0])[cp : cp + d]
    circular = apply_channel(x[None, :], ch, 0.0)[0]
    npt.assert_allclose(circular, linear, atol=1e-12)


def test_noise_only_variance():
    taps = np.zeros((4, 1, 1), dtype=complex)
    ch = MimoChannel(taps, 1024)
    n0 = 0.3
    y = apply_channel(np.zeros((1, 1024)), ch, n0, np.random.default_rng(8))
    measured = np.mean(np.abs(y) ** 2)
    assert abs(measured - n0) < 0.05 * n0
    with pytest.raises(ValueError):
        apply_channel(np.zeros((1, 1024)), ch, n0)  # missing rng
    for bad in (-1.0, math.nan, math.inf):  # a bad noise power never passes as noiseless
        with pytest.raises(ValueError, match="noise power"):
            apply_channel(np.zeros((1, 1024)), ch, bad, np.random.default_rng(8))


def test_assemble_identity_channel_returns_a():
    a = build_transmitter_matrix(dirichlet_filter(4, 2))
    taps = np.ones((1, 1, 1), dtype=complex)
    ch = MimoChannel(taps, 8)
    npt.assert_allclose(assemble_full_matrix(ch, a), a, atol=1e-14)


@pytest.mark.parametrize("t, r", [(2, 2), (1, 3), (3, 2)])
def test_assemble_full_matrix_matches_per_pair_products(t, r):
    # one stacked circulant build and matmul: one gemm per antenna pair, so
    # every block equals its own circulant times A to the last bit
    for filt in (rc_filter(8, 4, 0.9), dirichlet_filter(8, 4)):
        a = build_transmitter_matrix(filt)
        ch = generate_channel(t, r, np.random.default_rng([49, t, r]), 32)
        h_full = assemble_full_matrix(ch, a)
        assert h_full.shape == (r * 32, t * 32)
        pairs = [[circulant_ref(ch.taps[i, j], 32) @ a for j in range(t)] for i in range(r)]
        assert np.array_equal(h_full, np.block(pairs))
        circ = build_circulant(ch.taps, 32)
        assert circ.shape == (r, t, 32, 32)
        assert np.array_equal(circ[-1, -1], circulant_ref(ch.taps[-1, -1], 32))


@pytest.mark.parametrize(
    "make", [lambda k, m: dirichlet_filter(k, m), lambda k, m: rc_filter(k, m, 0.9)]
)
def test_noiseless_chain_matches_full_matrix(make):
    a = build_transmitter_matrix(make(4, 2))
    rng = np.random.default_rng(3)
    ch = generate_channel(2, 2, rng, 8)
    h_full = assemble_full_matrix(ch, a)
    d = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    x = np.stack([a @ d[:8], a @ d[8:]])
    y = apply_channel(x, ch, 0.0).reshape(-1)
    expected = h_full @ d
    assert np.linalg.norm(y - expected) <= 1e-10 * np.linalg.norm(expected)


def test_ofdm_blocks_are_diagonalized():
    k = 8
    a = build_transmitter_matrix(dirichlet_filter(k, 1))
    ch = generate_channel(2, 2, np.random.default_rng(4), k)
    w = dft_matrix_ref(k)
    for r in range(2):
        for t in range(2):
            block = w @ build_circulant(ch.taps[r, t], k) @ a
            off = block - np.diag(np.diag(block))
            assert np.abs(off).max() < 1e-10


def test_snr_conversion():
    assert snr_db_to_noise_power(0.0) == pytest.approx(1.0)
    assert snr_db_to_noise_power(10.0) == pytest.approx(0.1)
    assert snr_db_to_noise_power(float("inf")) == 0.0
    assert snr_db_to_noise_power(-300.0) == pytest.approx(1e30)
    with pytest.raises(ValueError, match="SNR -4000 dB"):
        snr_db_to_noise_power(-4000)
