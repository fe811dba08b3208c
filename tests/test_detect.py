import math

import numpy as np
import numpy.testing as npt
import pytest

from gfdmsim.channel import (
    apply_channel,
    assemble_full_matrix,
    generate_channel,
)
from gfdmsim.decoupling import compute_blocks, receive_transform
from gfdmsim.detect import (
    QPSK,
    DetectionStats,
    baseline_factorization,
    detect_baseline_near_ml,
    detect_ofdm,
    detect_proposed,
    exhaustive_ml,
    factorize_blocks,
    sphere_decode,
    sqrd,
)
from gfdmsim.waveform import build_transmitter_matrix, dirichlet_filter, fast_modulate

from oracles import brute_force_ml_ref, sphere_decode_ref


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ----------------------------------------------------------------- alphabet


def test_qpsk_points_order_and_unit_energy():
    # the order fixes the data draws and the "ties go to the lower index"
    # rule; unit energy is what the SNR conversion and MMSE regularization assume
    expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)
    npt.assert_array_equal(QPSK, expected)
    assert abs(float(np.mean(np.abs(QPSK) ** 2)) - 1.0) <= 1e-12
    assert not QPSK.flags.writeable


# ---------------------------------------------------------------- sorted QR


def test_sqrd_identity():
    fact = sqrd(np.eye(3, dtype=complex))
    npt.assert_allclose(fact.q, np.eye(3), atol=1e-14)
    npt.assert_allclose(fact.r, np.eye(3), atol=1e-14)
    npt.assert_array_equal(fact.perm, [0, 1, 2])


def test_sqrd_sorts_min_norm_first():
    fact = sqrd(np.diag([2.0, 1.0]).astype(complex))
    npt.assert_array_equal(fact.perm, [1, 0])
    npt.assert_allclose(fact.r, np.diag([1.0, 2.0]), atol=1e-14)
    f = np.diag([2.0, 1.0]).astype(complex)
    npt.assert_allclose(f[:, fact.perm], fact.q @ fact.r, atol=1e-14)


@pytest.mark.parametrize("shape", [(4, 4), (6, 4), (8, 3), (12, 8)])
def test_sqrd_reconstruction_properties(shape):
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    for _ in range(10):
        f = random_complex(shape, rng)
        fact = sqrd(f)
        n = shape[1]
        assert np.linalg.norm(f[:, fact.perm] - fact.q @ fact.r) <= 1e-10 * np.linalg.norm(f)
        npt.assert_allclose(fact.q.conj().T @ fact.q, np.eye(n), atol=1e-10)
        lower = fact.r[np.tril_indices(n, k=-1)]
        assert np.all(lower == 0.0)
        diag = np.diag(fact.r)
        assert np.all(diag.imag == 0.0) and np.all(diag.real >= 0.0)


def test_sqrd_rejects_rank_deficiency_and_wide_input():
    f = np.ones((4, 2), dtype=complex)  # second column is a copy of the first
    with pytest.raises(np.linalg.LinAlgError):
        sqrd(f)
    with pytest.raises(ValueError):
        sqrd(np.ones((2, 4), dtype=complex))


def test_sqrd_and_baseline_on_all_zero_matrix(caplog):
    # the rank check compares against the Frobenius norm, which is 0 here
    with pytest.raises(np.linalg.LinAlgError):
        sqrd(np.zeros((2, 2)))
    with caplog.at_level("WARNING", logger="gfdmsim.detect"):
        fact = baseline_factorization(np.zeros((4, 2)), 0.0)
    assert len(caplog.records) == 1
    assert np.all(np.isfinite(fact.q))
    npt.assert_allclose(fact.r, 1e-6 * np.eye(2), atol=1e-18)


def test_baseline_factorization_zero_noise_reduces_to_sqrd():
    rng = np.random.default_rng(1)
    h = random_complex((6, 4), rng)
    plain = sqrd(h)
    mmse = baseline_factorization(h, 0.0)
    npt.assert_array_equal(plain.perm, mmse.perm)
    npt.assert_allclose(plain.r, mmse.r, atol=1e-10)


def test_baseline_factorization_zero_matrix():
    fact = baseline_factorization(np.zeros((4, 3), dtype=complex), 0.25)
    npt.assert_allclose(fact.r, 0.5 * np.eye(3), atol=1e-12)


def test_baseline_factorization_normal_equations():
    rng = np.random.default_rng(2)
    for _ in range(5):
        h = random_complex((8, 5), rng)
        n0 = float(rng.uniform(0.01, 1.0))
        fact = baseline_factorization(h, n0)
        gram = h.conj().T @ h + n0 * np.eye(5)
        expected = gram[np.ix_(fact.perm, fact.perm)]
        npt.assert_allclose(fact.r.conj().T @ fact.r, expected, atol=1e-8)


# ----------------------------------------------------------- sphere decoder


def test_sphere_identity_system_first_descent():
    rng = np.random.default_rng(3)
    for n in (1, 4, 6):
        z = QPSK[rng.integers(0, 4, n)]
        stats = DetectionStats()
        out = sphere_decode(np.eye(n, dtype=complex), z, stats)
        npt.assert_array_equal(out, z)
        assert stats.sd_nodes_visited == n


def test_sphere_noiseless_recovery():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        fact = sqrd(random_complex((n + 2, n), rng))
        s = QPSK[rng.integers(0, 4, n)]
        out = sphere_decode(fact.r, fact.r @ s)
        npt.assert_array_equal(out, s)


def test_sphere_matches_exhaustive_and_reference():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        fact = sqrd(random_complex((n + 1, n), rng))
        z = fact.r @ QPSK[rng.integers(0, 4, n)] + 0.8 * random_complex(n, rng)
        fast = sphere_decode(fact.r, z)
        oracle = exhaustive_ml(z, fact.r)
        npt.assert_array_equal(fast, oracle)
        if trial < 10:
            npt.assert_array_equal(fast, brute_force_ml_ref(z, fact.r, QPSK))


def test_sphere_decode_matches_reference_traversal():
    # the scalar decoder walks the numpy-array oracle's tree node for node
    rng = np.random.default_rng(30)
    cases = []
    for n in (1, 2, 3, 4, 8):
        for snr_db in (0.0, 8.0, 20.0, math.inf):
            n0 = 10.0 ** (-snr_db / 10.0)
            for _ in range(25):
                fact = sqrd(random_complex((n, n), rng))
                s = QPSK[rng.integers(0, 4, n)]
                cases.append((fact.r, fact.r @ s + math.sqrt(n0 / 2) * random_complex(n, rng)))
    # exact ties: all four children equal (z = 0), on a point, midway between two
    for n in (1, 3, 4):
        eye = np.eye(n, dtype=complex)
        for z in (0j, QPSK[2], (QPSK[0] + QPSK[1]) / 2):
            cases.append((eye, np.full(n, z)))
    for r, z in cases:
        fast, ref = DetectionStats(), DetectionStats()
        npt.assert_array_equal(sphere_decode(r, z, fast), sphere_decode_ref(r, z, ref))
        assert (fast.sd_nodes_visited, fast.cm_count) == (ref.sd_nodes_visited, ref.cm_count)
    stats = DetectionStats()
    sphere_decode(np.eye(3, dtype=complex), np.zeros(3, dtype=complex), stats)
    assert (stats.sd_nodes_visited, stats.cm_count) == (21, 120)


def test_sphere_decode_rejects_bad_shapes():
    with pytest.raises(ValueError, match="1-D"):
        sphere_decode(np.zeros((0, 0)), np.zeros(0, dtype=complex))
    with pytest.raises(ValueError, match="1-D"):
        sphere_decode(np.eye(2), np.zeros((2, 1), dtype=complex))
    with pytest.raises(ValueError, match="does not match"):
        sphere_decode(np.eye(3), np.zeros(2, dtype=complex))


def test_sphere_counters_are_deterministic_and_monotone():
    rng = np.random.default_rng(6)
    fact = sqrd(random_complex((5, 4), rng))
    z = fact.r @ QPSK[rng.integers(0, 4, 4)] + 0.5 * random_complex(4, rng)
    a, b = DetectionStats(), DetectionStats()
    sphere_decode(fact.r, z, a)
    sphere_decode(fact.r, z, b)
    assert (a.sd_nodes_visited, a.cm_count) == (b.sd_nodes_visited, b.cm_count)
    before = (a.sd_nodes_visited, a.cm_count)
    sphere_decode(fact.r, z, a)
    assert a.sd_nodes_visited >= before[0] and a.cm_count >= before[1]


def test_sphere_node_count_decreases_with_snr():
    # statistical: the search tree shrinks as noise drops (500 trials/point)
    rng = np.random.default_rng(7)
    averages = []
    for snr_db in (0.0, 10.0, 20.0):
        n0 = 10.0 ** (-snr_db / 10.0)
        stats = DetectionStats()
        for _ in range(500):
            h = random_complex((4, 4), rng)
            fact = sqrd(h)
            s = QPSK[rng.integers(0, 4, 4)]
            z = fact.q.conj().T @ (h[:, fact.perm] @ s + math.sqrt(n0 / 2) * random_complex(4, rng))
            sphere_decode(fact.r, z, stats)
        averages.append(stats.sd_nodes_visited / 500)
    assert averages[0] >= averages[1] >= averages[2]


# ------------------------------------------------------------ exhaustive ML


def test_exhaustive_identity_and_budget():
    y = QPSK[np.array([0, 3, 1])]
    npt.assert_array_equal(exhaustive_ml(y, np.eye(3, dtype=complex)), y)
    with pytest.raises(ValueError):
        exhaustive_ml(np.zeros(11), np.eye(11, dtype=complex))


def test_exhaustive_tie_break_is_first_candidate():
    # an all-zero system makes every candidate equally good; the documented
    # rule keeps the lexicographically smallest index
    out = exhaustive_ml(np.zeros(2), np.zeros((2, 2), dtype=complex))
    npt.assert_array_equal(out, QPSK[[0, 0]])


# ------------------------------------------------------------ full receivers


def proposed_setup(k, m, t, r, seed):
    filt = dirichlet_filter(k, m)
    ch = generate_channel(t, r, np.random.default_rng(seed), k * m)
    return filt, ch, factorize_blocks(compute_blocks(ch, filt))


def transmit(data, filt, n_tx):
    return fast_modulate(data.reshape(n_tx, filt.length), filt)


def test_detect_proposed_noiseless():
    filt, ch, factors = proposed_setup(4, 2, 2, 2, seed=10)
    rng = np.random.default_rng(11)
    data = QPSK[rng.integers(0, 4, 2 * filt.length)]
    y = apply_channel(transmit(data, filt, 2), ch, 0.0)
    ybar = receive_transform(y, filt)
    npt.assert_array_equal(detect_proposed(ybar, factors, filt), data)
    with pytest.raises(ValueError):  # factors of a K = 2 system for a K = 4 filter
        detect_proposed(ybar, proposed_setup(2, 2, 2, 2, seed=10)[2], filt)
    with pytest.raises(ValueError):
        detect_proposed(ybar[:-1], factors, filt)


def test_detect_proposed_equals_global_exhaustive():
    filt, ch, factors = proposed_setup(2, 2, 2, 2, seed=12)
    a = build_transmitter_matrix(filt)
    h_full = assemble_full_matrix(ch, a)
    rng = np.random.default_rng(13)
    for trial in range(50):
        data = QPSK[rng.integers(0, 4, 8)]
        n0 = 10.0 ** (-float(rng.uniform(0, 20)) / 10.0)
        y = apply_channel(transmit(data, filt, 2), ch, n0, rng)
        fast = detect_proposed(receive_transform(y, filt), factors, filt)
        oracle = exhaustive_ml(y.reshape(-1), h_full)
        npt.assert_array_equal(fast, oracle)


def test_detect_proposed_m1_equals_detect_ofdm():
    filt, ch, factors = proposed_setup(8, 1, 2, 2, seed=14)
    rng = np.random.default_rng(15)
    for _ in range(20):
        data = QPSK[rng.integers(0, 4, 16)]
        y = apply_channel(transmit(data, filt, 2), ch, 0.2, rng)
        ybar = receive_transform(y, filt)
        via_blocks = detect_proposed(ybar, factors, filt)
        via_ofdm = detect_ofdm(y, ch)
        npt.assert_array_equal(via_blocks, via_ofdm)


def test_detect_ofdm_single_antenna_nearest_point():
    k = 8
    filt = dirichlet_filter(k, 1)
    ch = generate_channel(1, 1, np.random.default_rng(16), k)
    rng = np.random.default_rng(17)
    data = QPSK[rng.integers(0, 4, k)]
    y = apply_channel(transmit(data, filt, 1), ch, 0.05, rng)
    out = detect_ofdm(y, ch)
    yf = np.fft.fft(y[0]) / math.sqrt(k)
    for i in range(k):
        nearest = QPSK[np.argmin(np.abs(yf[i] / ch.freq[0, 0, i] - QPSK))]
        assert out[i] == nearest


def test_detect_baseline_noiseless_diagonal():
    h = np.diag([1.0, 2.0, 0.5, 1.5]).astype(complex)
    data = QPSK[np.array([1, 2, 0, 3])]
    out = detect_baseline_near_ml(h @ data, baseline_factorization(h, 0.0), 2)
    npt.assert_array_equal(out, data)


def test_detect_baseline_full_group_is_ml_on_rotated_system():
    rng = np.random.default_rng(18)
    filt, ch, _ = proposed_setup(2, 2, 2, 2, seed=19)
    a = build_transmitter_matrix(filt)
    h_full = assemble_full_matrix(ch, a)
    n0 = 0.15
    fact = baseline_factorization(h_full, n0)
    data = QPSK[rng.integers(0, 4, 8)]
    y = apply_channel(transmit(data, filt, 2), ch, n0, rng).reshape(-1)
    joint = detect_baseline_near_ml(y, fact, 8)  # one group of all T * D = 8 symbols
    z = fact.q[: h_full.shape[0]].conj().T @ y
    oracle_sorted = exhaustive_ml(z, fact.r)
    expected = np.empty(8, dtype=complex)
    expected[fact.perm] = oracle_sorted
    npt.assert_array_equal(joint, expected)


def test_detect_baseline_rejects_wrong_received_length():
    rng = np.random.default_rng(31)
    h = random_complex((8, 4), rng)
    fact = baseline_factorization(h, 0.1)
    assert fact.q.shape == (12, 4)  # 8 received rows plus 4 MMSE extension rows
    for length in (6, 12):
        with pytest.raises(ValueError, match="received samples"):
            detect_baseline_near_ml(np.zeros(length, dtype=complex), fact, 2)
    data = QPSK[np.array([0, 3, 1, 2])]
    assert detect_baseline_near_ml(h @ data, fact, 2).shape == (4,)


def test_detect_baseline_noiseless_rank_deficient_falls_back():
    h = np.zeros((4, 2), dtype=complex)
    h[:, 0] = [1.0, 1.0, 0.0, 0.0]
    h[:, 1] = [1.0, 1.0, 0.0, 0.0]  # rank 1
    data = QPSK[np.array([2, 2])]
    out = detect_baseline_near_ml(h @ data, baseline_factorization(h, 0.0), 1)
    assert out.shape == (2,)  # regularized fallback still returns a decision


def test_baseline_sic_never_beats_exact_ml_on_average():
    # grouped SIC is near-ML: pooled over seeds at low SNR (many errors, so
    # the paired margin is well above Monte Carlo noise) it must lose to the
    # exact per-subcarrier ML receiver
    filt = dirichlet_filter(2, 2)
    a = build_transmitter_matrix(filt)
    n0 = 10.0 ** (-0.3)  # 3 dB
    err_ml = err_sic = 0
    for master in range(3):
        for c in range(150):
            rng = np.random.default_rng([master, c])
            ch = generate_channel(2, 2, rng, 4)
            factors = factorize_blocks(compute_blocks(ch, filt))
            h_full = assemble_full_matrix(ch, a)
            fact = baseline_factorization(h_full, n0)
            for _ in range(5):
                data = QPSK[rng.integers(0, 4, 8)]
                y = apply_channel(transmit(data, filt, 2), ch, n0, rng)
                ybar = receive_transform(y, filt)
                d_ml = detect_proposed(ybar, factors, filt)
                d_sic = detect_baseline_near_ml(y, fact, 4)
                err_ml += int(np.sum(d_ml != data))
                err_sic += int(np.sum(d_sic != data))
    assert err_sic >= err_ml


def test_detectors_accumulate_stats():
    filt, ch, factors = proposed_setup(4, 2, 2, 2, seed=20)
    rng = np.random.default_rng(21)
    data = QPSK[rng.integers(0, 4, 16)]
    y = apply_channel(transmit(data, filt, 2), ch, 0.1, rng)
    stats = DetectionStats()
    ybar = receive_transform(y, filt)
    detect_proposed(ybar, factors, filt, stats)
    assert stats.sd_nodes_visited >= 4 * 4  # K sphere calls of size MT
    assert stats.cm_count > 0
