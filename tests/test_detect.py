import dataclasses
import math
import sys
import time

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from gfdmsim.channel import (
    apply_channel,
    assemble_full_matrix,
    generate_channel,
    snr_db_to_noise_power,
)
from gfdmsim.decoupling import compute_blocks, data_permutation, receive_transform
from gfdmsim.detect import (
    QPSK,
    DetectionStats,
    _first_descent,
    _order,
    _row_lists,
    _search,
    baseline_factorization,
    detect_baseline_near_ml,
    detect_ofdm,
    detect_proposed,
    exhaustive_ml,
    factorize_blocks,
    sphere_decode,
    sqrd,
)
from gfdmsim.waveform import (
    build_transmitter_matrix,
    dirichlet_filter,
    fast_modulate,
    rc_filter,
    window_filter,
)

from oracles import (
    brute_force_ml_ref,
    detect_baseline_near_ml_ref,
    detect_ofdm_ref,
    detect_proposed_ref,
    first_descent_ref,
    sphere_decode_ref,
    sqrd_ref,
)


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def with_dead_columns(blocks):
    """A copy of a (K, rows, cols) stack whose factors have dead columns.

    Block 0 is zero, and every other block's last column repeats its first.
    """
    dead = blocks.copy()
    dead[0] = 0.0
    dead[1:, :, -1] = dead[1:, :, 0]
    return dead


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


def test_sqrd_gives_dead_columns_and_rejects_wide_input():
    # a column that the rank test finds dependent is dead: a zero column of
    # Q and a zero row of R, and the factors still reproduce the input
    rng = np.random.default_rng(9)
    dup = random_complex((5, 4), rng)
    dup[:, 3] = dup[:, 1]
    dup[:, 2] = 2j * dup[:, 0]
    for f, n_dead in ((dup, 2), (np.ones((4, 2), dtype=complex), 1), (np.zeros((3, 3)), 3)):
        fact = sqrd(f)
        dead = np.flatnonzero(np.diag(fact.r) == 0.0)
        assert len(dead) == n_dead
        assert np.all(fact.q[:, dead] == 0.0) and np.all(fact.r[dead] == 0.0)
        assert np.linalg.norm(f[:, fact.perm] - fact.q @ fact.r) <= 1e-12 * np.linalg.norm(f)
        live = np.flatnonzero(np.diag(fact.r) != 0.0)
        q_live = fact.q[:, live]
        npt.assert_allclose(q_live.conj().T @ q_live, np.eye(len(live)), atol=1e-12)
    with pytest.raises(ValueError):
        sqrd(np.ones((2, 4), dtype=complex))


def assert_sqrd_matches_reference(f):
    ref = sqrd_ref(f)
    out = sqrd(f)
    assert np.array_equal(out.q, ref.q)
    assert np.array_equal(out.r, ref.r)
    assert np.array_equal(out.perm, ref.perm)


@pytest.mark.parametrize("k, m", [(8, 2), (8, 4), (16, 2)])
@pytest.mark.parametrize("rolloff", [0.9, None])
def test_sqrd_matches_reference_bit_for_bit_on_dense_mmse_matrices(k, m, rolloff):
    # the M subsymbol columns of one (antenna, subcarrier) of the full matrix
    # tie in exact arithmetic, so every last bit picks pivots
    filt = dirichlet_filter(k, m) if rolloff is None else rc_filter(k, m, rolloff)
    a_mat = build_transmitter_matrix(filt)
    for seed in range(3):
        h = assemble_full_matrix(generate_channel(2, 2, np.random.default_rng(seed), k * m), a_mat)
        for n0 in (0.0, 1.0, 0.1, 0.01):
            f = np.vstack([h, math.sqrt(n0) * np.eye(h.shape[1])])
            assert_sqrd_matches_reference(f)
            # a batch of one repeats the dense factors too, only slower
            one, ref = factorize_blocks(f[None]), sqrd(f)
            assert np.array_equal(one.q[0], ref.q) and np.array_equal(one.r[0], ref.r)
            assert np.array_equal(one.perm[0], ref.perm)


def test_sqrd_matches_reference_bit_for_bit_on_random_matrices():
    rng = np.random.default_rng(44)
    for _ in range(60):
        m = int(rng.integers(1, 40))
        f = random_complex((m, int(rng.integers(1, m + 1))), rng)
        assert_sqrd_matches_reference(f)
        if f.shape[1] > 1:  # rank deficient: the same dead columns
            f[:, -1] = f[:, 0]
            assert_sqrd_matches_reference(f)
    assert_sqrd_matches_reference(np.zeros((3, 2)))


def test_sqrd_and_baseline_on_all_zero_matrix():
    # the rank check compares against the Frobenius norm, which is 0 here,
    # so every column is dead, in the plain and in the noiseless MMSE factor
    for fact in (sqrd(np.zeros((2, 2))), baseline_factorization(np.zeros((4, 2)), 0.0)):
        assert np.all(fact.q == 0.0) and np.all(fact.r == 0.0)
        npt.assert_array_equal(fact.perm, [0, 1])


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


@pytest.mark.parametrize(
    "k, m, t, r, window",
    [
        (256, 4, 2, 2, False),
        (1024, 1, 2, 2, False),
        (8, 4, 2, 2, False),
        (16, 2, 2, 2, False),
        (8, 2, 2, 3, False),
        (8, 4, 2, 2, True),
        (8, 4, 1, 2, False),
        (1, 4, 2, 2, False),
    ],
)
def test_factorize_blocks_matches_sqrd_bit_for_bit(k, m, t, r, window):
    # the columns of one antenna tie in exact arithmetic, so the pivot order
    # depends on every last bit: the batch must repeat sqrd exactly, whatever
    # the memory order of its input, and leave that input as it was
    rng = np.random.default_rng(k * 100 + m * 10 + t + r)
    for seed in range(3):
        if window:
            g_1 = rng.uniform(0.2, 1.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            filt = window_filter(k, m, g_1, int(rng.integers(0, k * m)))
        else:
            filt = dirichlet_filter(k, m)
        blocks = compute_blocks(generate_channel(t, r, np.random.default_rng(seed), k * m), filt)
        for source in (blocks, with_dead_columns(blocks)):
            before = source.tobytes()
            serial = [sqrd(b) for b in source]
            for stack in (source, np.asfortranarray(source)):
                stacked = factorize_blocks(stack)
                assert stack.tobytes() == before
                assert stacked.q.flags.c_contiguous and stacked.r.flags.c_contiguous
                assert stacked.q.tobytes() == np.stack([s.q for s in serial]).tobytes()
                assert stacked.r.tobytes() == np.stack([s.r for s in serial]).tobytes()
                assert np.array_equal(stacked.perm, np.stack([s.perm for s in serial]))
        dead = np.count_nonzero(np.diagonal(stacked.r, axis1=1, axis2=2) == 0.0)
        assert dead == m * t + k - 1


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
    sizes = [(n, snr_db) for n in (1, 2, 3, 4, 8) for snr_db in (0.0, 8.0, 20.0, math.inf)]
    # n = 16 is the block size at K = 1, M = 8, T = 2
    sizes += [(16, snr_db) for snr_db in (8.0, 20.0, math.inf)]
    for n, snr_db in sizes:
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
    # zero rows of R, the dead columns of a sorted QR: all four children tie
    # there. Noiseless, whether a leaf's metric equals that of a tied sibling
    # rests on the last bit of the off-diagonal sums, which the two round
    # differently; the zero rows of the identity tie on exact arithmetic
    for n in (1, 2, 3, 4, 8):
        for snr_db in (0.0, 8.0, 20.0):
            n0 = 10.0 ** (-snr_db / 10.0)
            for _ in range(10):
                r = random_upper_triangular(n, rng)
                r[rng.integers(0, n, 1 + n // 4)] = 0.0
                s = QPSK[rng.integers(0, 4, n)]
                cases.append((r, r @ s + math.sqrt(n0 / 2) * random_complex(n, rng)))
        dead = np.eye(n, dtype=complex)
        dead[::2] = 0.0
        cases += [(dead, np.full(n, z)) for z in (0j, QPSK[2], (QPSK[0] + QPSK[1]) / 2)]
    for r, z in cases:
        fast, ref = DetectionStats(), DetectionStats()
        npt.assert_array_equal(sphere_decode(r, z, fast), sphere_decode_ref(r, z, ref))
        assert (fast.sd_nodes_visited, fast.cm_count) == (ref.sd_nodes_visited, ref.cm_count)
    stats = DetectionStats()
    sphere_decode(np.eye(3, dtype=complex), np.zeros(3, dtype=complex), stats)
    assert (stats.sd_nodes_visited, stats.cm_count) == (21, 120)


def test_sphere_decode_runs_deeper_than_the_recursion_limit():
    # the open levels are flat lists indexed by level, not recursion, so no
    # depth is too deep; a noiseless identity system ends at its first leaf
    n = sys.getrecursionlimit() + 50
    z = QPSK[np.random.default_rng(33).integers(0, 4, n)]
    stats = DetectionStats()
    npt.assert_array_equal(sphere_decode(np.eye(n, dtype=complex), z, stats), z)
    assert stats.sd_nodes_visited == n


def test_sphere_decode_ties_on_decision_boundaries():
    # z on the QPSK decision boundaries (re = 0, im = 0, |re| = |im|) with
    # equal diagonals ties the four children's metrics in pairs or all at
    # once; the separable metrics must keep the reference's (metric, QPSK
    # index) order, so decisions and counts match node for node
    c = QPSK[0].real
    boundary = [0j, 0.5 + 0j, -0.5 + 0j, 0.5j, -0.5j, c + 0j, -c * 1j]
    boundary += [complex(a, b) for a in (0.5, -0.5, c) for b in (0.5, -0.5, -c)]
    rng = np.random.default_rng(34)
    cases = []
    for d in (1.0, 0.7):
        for z0, z1 in np.ndindex(len(boundary), len(boundary)):
            cases.append((d * np.eye(2, dtype=complex), np.array([boundary[z0], boundary[z1]])))
        for n in (3, 4, 6):
            for _ in range(40):
                r = d * np.eye(n, dtype=complex)
                # off-diagonal entries that keep the residuals on the grid
                r[np.triu_indices(n, 1)] = rng.choice([0.0, 0.5, -0.5, 0.5j], n * (n - 1) // 2)
                cases.append((r, np.array(boundary)[rng.integers(0, len(boundary), n)]))
    for r, z in cases:
        fast, ref = DetectionStats(), DetectionStats()
        npt.assert_array_equal(sphere_decode(r, z, fast), sphere_decode_ref(r, z, ref))
        assert (fast.sd_nodes_visited, fast.cm_count) == (ref.sd_nodes_visited, ref.cm_count)


def test_child_order_equals_sorted_metric_index_pairs():
    # the search puts a level's children in sorted((metric, index)) order from
    # comparisons of the summed metrics; the metrics come from the decoder's
    # formula on residuals with exact ties (a zero diagonal, points and
    # decision boundaries), NaN, overflow to inf, and absorption: at a real
    # part near 1e20 the imaginary parts differ below the ulp of the sum, so
    # the sums tie although the parts do not
    c = float(QPSK[0].real)
    rng = np.random.default_rng(37)
    residuals = [complex(a, b) for a in (0.0, c, -c, 0.5) for b in (0.0, c, -c, 0.5)]
    residuals += [complex(*rng.standard_normal(2)) for _ in range(200)]
    residuals += [complex(math.nan, 0.0), complex(0.0, math.nan), complex(1e200, 0.3)]
    residuals += [complex(1e200, 1e200), complex(1e20, 0.3), complex(-1e20, -0.3)]
    cases = []
    for rhs in residuals:
        for d in (0.0, 1.0, 0.7, 3.0):
            a, b = rhs.real - d * c, rhs.real + d * c
            e, f = rhs.imag - d * c, rhs.imag + d * c
            re_hi, re_lo, im_hi, im_lo = a * a, b * b, e * e, f * f
            cases.append((re_hi + im_hi, re_hi + im_lo, re_lo + im_hi, re_lo + im_lo))
    # the parts put point 1 before 0 and 3 before 2; the sums tie
    absorbed = (1e40 + 0.5, 1e40 + 0.25, 1e40 + 0.5, 1e40 + 0.25)
    assert len(set(absorbed)) == 1
    cases.append(absorbed)
    cases += [tuple(rng.permutation([1.0, 1.0, 2.0, math.inf]).tolist()) for _ in range(20)]
    for v in cases:
        vals, kids = _order(*v)
        want = sorted((metric, q) for q, metric in enumerate(v))
        assert [(repr(m), q) for m, q in zip(vals, kids)] == [(repr(m), q) for m, q in want]
    vals, kids = _order(*absorbed)
    assert kids == (0, 1, 2, 3)


@pytest.mark.parametrize("n", [9, 16])
def test_sphere_decode_rejects_non_finite_or_overflowing_input(n):
    # each of these once made the search visit every node above level 0,
    # 87380 nodes at n = 9; now each raises at once
    eye = np.eye(n, dtype=complex)
    for bad in (math.inf, -math.inf, math.nan, complex(0.0, math.inf)):
        z = np.zeros(n, dtype=complex)
        z[0] = bad
        r = eye.copy()
        r[0, n - 1] = bad
        for args in ((eye, z), (r, np.zeros(n, dtype=complex))):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="finite"):
                sphere_decode(*args)
            assert time.perf_counter() - start < 1.0
    z = np.zeros(n, dtype=complex)
    z[0] = 1e200  # finite, but its squared residual overflows at level 0
    stats = DetectionStats()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="overflows at level 0"):
        sphere_decode(eye, z, stats)
    assert time.perf_counter() - start < 1.0
    # finite entries whose products overflow: the first descent takes QPSK[0]
    # above level 0, where the residual sum's imaginary part is inf - inf
    r = eye.copy()
    r[0, 1], r[0, 2] = 1.7e308 * (1 + 1j), -1.7e308 * (1 + 1j)
    with pytest.raises(ValueError, match="NaN"):
        sphere_decode(r, np.zeros(n, dtype=complex))


def test_receivers_reject_non_finite_input():
    filt, ch, factors = proposed_setup(4, 2, 2, 2, seed=35)
    rng = np.random.default_rng(36)
    data = QPSK[rng.integers(0, 4, 2 * filt.length)]
    ybar = receive_transform(apply_channel(transmit(data, filt, 2), ch, 0.1, rng), filt)
    for bad in (math.nan, math.inf):
        y_bad = np.stack([ybar, ybar])
        y_bad[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            detect_proposed(y_bad, factors, filt)
        r_bad = factors.r.copy()
        r_bad[2, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            detect_proposed(ybar, dataclasses.replace(factors, r=r_bad), filt)
    # finite, but every top-level metric overflows: the search finds no leaf
    with pytest.raises(ValueError, match="overflows"):
        detect_proposed(ybar * 1e200, factors, filt)
    # finite entries whose products overflow at level 0 of subcarrier 1: the
    # first descent takes point 0 at every level above, where the residual
    # sum's imaginary part is inf - inf. A first leaf whose metric overflows
    # is searched from scratch, so either message is that of one
    # sphere_decode call per subcarrier
    r_big = factors.r.copy()
    r_big[1] = np.eye(4)
    r_big[1, 0, 1], r_big[1, 0, 2] = 1.7e308 * (1 + 1j), -1.7e308 * (1 + 1j)
    big = dataclasses.replace(factors, r=r_big)
    for y_bad, fact in ((ybar * 1e200, factors), (np.zeros_like(ybar), big)):
        with pytest.raises(ValueError) as want:
            detect_proposed_ref(y_bad, fact, filt)
        with pytest.raises(ValueError) as got:
            detect_proposed(y_bad, fact, filt)
        assert str(got.value) == str(want.value)
    h = random_complex((8, 4), rng)
    fact = baseline_factorization(h, 0.1)
    y = h @ QPSK[np.array([0, 3, 1, 2])]
    for bad in (math.nan, -math.inf):
        y_bad = y.copy()
        y_bad[5] = bad
        with pytest.raises(ValueError, match="finite"):
            detect_baseline_near_ml(y_bad, fact, 2)
        r_bad = fact.r.copy()
        r_bad[0, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            detect_baseline_near_ml(y, dataclasses.replace(fact, r=r_bad), 2)


def random_upper_triangular(n, rng):
    r = np.triu(random_complex((n, n), rng))
    r[np.diag_indices(n)] = rng.uniform(0.1, 2.0, n)
    return r


def test_first_descent_certifies_exactly_the_n_node_searches():
    # a problem is certified exactly when the scalar search ends at its first
    # leaf; then the leaf is its decision and the counts are n and n(n-1)/2 + 4n
    rng = np.random.default_rng(32)
    r_list, z_list = [], []
    for n in (1, 2, 4, 8):
        for snr_db in (0.0, 4.0, 8.0, 16.0, 30.0, math.inf):
            n0 = 10.0 ** (-snr_db / 10.0)
            r = np.stack([random_upper_triangular(n, rng) for _ in range(60)])
            if n > 1:  # dead columns: a zero row of R in every third problem
                r[::3, rng.integers(0, n)] = 0.0
            s = QPSK[rng.integers(0, 4, (60, n))]
            noise = math.sqrt(n0 / 2) * random_complex((60, n), rng)
            z = np.matmul(r, s[:, :, None])[:, :, 0] + noise
            r_list.append(r)
            z_list.append(z)
    # built ties: z on the bisector of points 0 and 1, at one level and at
    # every level; a top-level second child whose metric equals the leaf's,
    # which the scalar search prunes
    c = QPSK[0].real
    built = [
        (np.full(1, (QPSK[0] + QPSK[1]) / 2), True, [0]),
        (np.full(3, (QPSK[0] + QPSK[1]) / 2), False, [0, 0, 0]),
        (np.array([QPSK[3], c]), True, [3, 0]),
    ]
    for z, expect_certified, expect_idx in built:
        r_list.append(np.eye(len(z), dtype=complex)[None])
        z_list.append(z[None])
        idx, certified, *_ = _first_descent(r_list[-1], z_list[-1])
        assert bool(certified[0]) == expect_certified
        npt.assert_array_equal(idx[0], expect_idx)
    # metrics that overflow, so that the scalar search reaches no leaf: the
    # descent leaves it uncertified, and the scalar search raises
    z = np.full(2, 1e200 + 0j)
    idx, certified, *_ = _first_descent(np.eye(2, dtype=complex)[None], z[None])
    assert not certified[0]
    npt.assert_array_equal(idx[0], [0, 0])
    with pytest.raises(ValueError, match="overflows at level 1"):
        sphere_decode(np.eye(2, dtype=complex), z)
    # an uncertified problem resumed at its first leaf, every level above on
    # its second child, finishes the scalar search: the same decision, and
    # the same counts once the descent's are added
    outcomes = set()
    for r, z in zip(r_list, z_list):
        n = z.shape[1]
        idx, certified, child, partial, leaf = _first_descent(r, z)
        outcomes.update(certified.tolist())
        for p in range(len(z)):
            stats = DetectionStats()
            out = sphere_decode(r[p], z[p], stats)
            assert bool(certified[p]) == (stats.sd_nodes_visited == n)
            if certified[p]:
                npt.assert_array_equal(out, QPSK[idx[p]])
                assert stats.cm_count == n * (n - 1) // 2 + 4 * n
            else:
                state = (a[p].tolist() for a in (z, idx, child, partial, leaf))
                found, nodes, cms = _search(*_row_lists(r[p]), *state, 0)
                npt.assert_array_equal(QPSK[found], out)
                charged = (nodes + n, cms + n * (n - 1) // 2 + 4 * n)
                assert charged == (stats.sd_nodes_visited, stats.cm_count)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "k, m, t, r", [(1, 4, 2, 2), (3, 2, 1, 3), (8, 4, 2, 2), (256, 4, 2, 2), (1024, 1, 2, 2)]
)
@pytest.mark.parametrize("n_blocks", [1, 20])
def test_first_descent_matches_reference_bit_for_bit(k, m, t, r, n_blocks):
    # the descent runs level by level over all problems at once; its layout
    # changes, its float operations do not: one block's factors broadcast
    # over a realization's stack, at noise levels that certify some problems
    rng = np.random.default_rng(k * 100 + m * 10 + t + r + n_blocks)
    filt = dirichlet_filter(k, m)
    blocks = compute_blocks(generate_channel(t, r, rng, k * m), filt)
    # the second stack's factors hold zero rows of R, where all four children tie
    live = factorize_blocks(blocks)
    for factors in (live, factorize_blocks(with_dead_columns(blocks))):
        outcomes = set()
        for snr_db in (0.0, 8.0, 30.0):
            n0 = 10.0 ** (-snr_db / 10.0)
            s = QPSK[rng.integers(0, 4, (n_blocks, k, m * t))]
            noise = math.sqrt(n0 / 2) * random_complex(s.shape, rng)
            z = np.matmul(factors.r, s[..., None])[..., 0] + noise
            idx, certified, *_ = _first_descent(factors.r, z)
            idx_ref, certified_ref = first_descent_ref(factors.r, z)
            assert idx.tobytes() == idx_ref.tobytes()
            assert certified.tobytes() == certified_ref.tobytes()
            outcomes.update(certified.ravel().tolist())
        # a tie at a dead level certifies only when the levels below it add zero
        if factors is live:
            assert outcomes == {True, False}


def test_first_descent_matches_reference_on_ties_and_overflow():
    # the built ties of the certification test, metrics that overflow, and
    # observations that are not finite: ties go to the lower index, NaN last
    c = QPSK[0].real
    cases = [
        np.full(1, (QPSK[0] + QPSK[1]) / 2),
        np.full(3, (QPSK[0] + QPSK[1]) / 2),
        np.array([QPSK[3], c]),
        np.full(2, 1e200 + 0j),
        np.array([1e200, 0.5, -1e200j]),
        np.array([np.inf, 0.5]),
        np.array([0.5, np.nan]),
    ]
    for z in cases:
        eye = np.eye(len(z), dtype=complex)
        dead = eye.copy()
        dead[-1] = 0.0  # a zero row of R: all four children tie
        for r in (eye[None], dead[None]):
            for got, want in zip(_first_descent(r, z[None]), first_descent_ref(r, z[None])):
                assert got.tobytes() == want.tobytes()


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


def test_exhaustive_rejects_mismatched_shapes():
    h = np.eye(2, dtype=complex)
    for y, mat in (
        (np.array([0.7 + 0.7j]), h),  # used to broadcast to a 2-vector decision
        (np.zeros(3, dtype=complex), h),
        (np.zeros((2, 1), dtype=complex), h),
        (np.zeros(2, dtype=complex), np.ones(2, dtype=complex)),
    ):
        with pytest.raises(ValueError, match="row count"):
            exhaustive_ml(y, mat)


def test_exhaustive_tie_break_is_first_candidate():
    # an all-zero system makes every candidate equally good; the documented
    # rule keeps the lexicographically smallest index
    out = exhaustive_ml(np.zeros(2), np.zeros((2, 2), dtype=complex))
    npt.assert_array_equal(out, QPSK[[0, 0]])


def test_exhaustive_matches_sphere_decode_across_chunks():
    # nine symbols are 4**9 candidates, four chunks of the enumeration
    rng = np.random.default_rng(50)
    for _ in range(3):
        r_mat = sqrd(random_complex((9, 9), rng)).r
        z = r_mat @ QPSK[rng.integers(0, 4, 9)] + 0.5 * random_complex(9, rng)
        npt.assert_array_equal(exhaustive_ml(z, r_mat), sphere_decode(r_mat, z))


def test_exhaustive_ties_across_chunks_keep_the_first():
    # a zero first column ties the candidates that differ in the first, most
    # significant symbol; they fall in chunks 0-3 and chunk 0's must win
    rng = np.random.default_rng(51)
    h = random_complex((10, 9), rng)
    h[:, 0] = 0.0
    y = h @ QPSK[rng.integers(0, 4, 9)] + 0.3 * random_complex(10, rng)
    out = exhaustive_ml(y, h)
    assert out[0] == QPSK[0]
    npt.assert_array_equal(out[1:], exhaustive_ml(y, h[:, 1:]))


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
    odd = factorize_blocks(random_complex((4, 4, 3), rng))  # 3 columns: not whole M = 2 groups
    with pytest.raises(ValueError, match="M\\*T columns"):
        detect_proposed(ybar, odd, filt)


@pytest.mark.parametrize(
    "k, m, t, r, n_blocks, snr_db",
    [
        (8, 4, 2, 2, 6, 4.0),
        (1, 4, 2, 2, 5, 0.0),  # K = 1, M = D
        (16, 1, 2, 2, 5, 8.0),  # M = 1, the ofdm case
        (8, 2, 1, 2, 4, 2.0),  # T = 1
        (8, 4, 2, 3, 1, 6.0),  # B = 1
        (4, 2, 2, 2, 3, math.inf),
    ],
)
def test_detect_proposed_stack_matches_single_blocks_and_loop(k, m, t, r, n_blocks, snr_db):
    filt, ch, factors = proposed_setup(k, m, t, r, seed=22)
    rng = np.random.default_rng(23)
    n0 = 10.0 ** (-snr_db / 10.0)
    data = QPSK[rng.integers(0, 4, (n_blocks, t * filt.length))]
    ybar = np.stack(
        [receive_transform(apply_channel(transmit(b, filt, t), ch, n0, rng), filt) for b in data]
    )
    stacked, single, loop = DetectionStats(), DetectionStats(), DetectionStats()
    out = detect_proposed(ybar, factors, filt, stacked)
    assert out.shape == data.shape
    for b in range(n_blocks):
        npt.assert_array_equal(out[b], detect_proposed(ybar[b], factors, filt, single))
        npt.assert_array_equal(out[b], detect_proposed_ref(ybar[b], factors, filt, loop))
    assert stacked == single == loop
    assert stacked.sd_nodes_visited >= n_blocks * k * m * t
    for bad in (ybar[:, :-1], ybar[None], ybar[0, 0]):
        with pytest.raises(ValueError, match="observation length"):
            detect_proposed(bad, factors, filt)


def assert_proposed_equals_global_exhaustive(k, m, seeds, trials):
    filt, ch, factors = proposed_setup(k, m, 2, 2, seed=seeds[0])
    a = build_transmitter_matrix(filt)
    h_full = assemble_full_matrix(ch, a)
    rng = np.random.default_rng(seeds[1])
    for trial in range(trials):
        data = QPSK[rng.integers(0, 4, 2 * k * m)]
        n0 = 10.0 ** (-float(rng.uniform(0, 20)) / 10.0)
        y = apply_channel(transmit(data, filt, 2), ch, n0, rng)
        fast = detect_proposed(receive_transform(y, filt), factors, filt)
        oracle = exhaustive_ml(y.reshape(-1), h_full)
        npt.assert_array_equal(fast, oracle)


def test_detect_proposed_equals_global_exhaustive():
    assert_proposed_equals_global_exhaustive(2, 2, (12, 13), 50)


@pytest.mark.parametrize("m", [2, 4])
def test_detect_proposed_is_exact_ml_at_k1(m):
    # K = 1, M = D: one block couples every symbol, and its rows follow the
    # filter's centred window start
    assert_proposed_equals_global_exhaustive(1, m, (60 + m, 70 + m), 20)


def residual(y, h, d):
    """||y - H d||^2, the metric that every ML decision minimizes."""
    e = y - h @ d
    return float(np.vdot(e, e).real)


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0, math.inf])
def test_detect_proposed_is_ml_on_a_window_with_a_zero_bin(snr_db):
    # the zero bin leaves M*T - rank = 2 dead columns in every block; the
    # receiver decides anyway, and every block's metric is the exhaustive
    # search's (decisions may differ where dependent columns tie). Noiseless,
    # both metrics are rounding error, so the tolerance is relative to the
    # block's observation energy
    filt = window_filter(8, 4, [0, 1, 1, 1], 0)
    ch = generate_channel(2, 2, np.random.default_rng(56), filt.length)
    blocks = compute_blocks(ch, filt)
    factors = factorize_blocks(blocks)
    assert np.all(np.count_nonzero(np.diagonal(factors.r, axis1=1, axis2=2) == 0.0, axis=1) == 2)
    rng = np.random.default_rng(57)
    data = QPSK[rng.integers(0, 4, 2 * filt.length)]
    y = apply_channel(transmit(data, filt, 2), ch, snr_db_to_noise_power(snr_db), rng)
    ybar = receive_transform(y, filt).reshape(filt.n_subcarriers, -1)
    d_hat = detect_proposed(ybar.reshape(-1), factors, filt)
    for y_k, f_k, pos_k in zip(ybar, blocks, data_permutation(filt, 2)):
        ml = residual(y_k, f_k, exhaustive_ml(y_k, f_k))
        assert abs(residual(y_k, f_k, d_hat[pos_k]) - ml) <= 1e-12 * (ml + np.vdot(y_k, y_k).real)


@st.composite
def ici_free_links(draw):
    """A small ICI-free link: K*M*T <= 8 symbols, R from T to 3, any SNR."""
    t = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8 // t))
    k = draw(st.integers(1, 8 // (t * m)))
    r = draw(st.integers(t, 3))
    snr_db = draw(st.floats(-10.0, 40.0) | st.just(math.inf))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        filt = dirichlet_filter(k, m)
    else:  # any window, zero bins included, at any start
        zeros = draw(st.lists(st.booleans(), min_size=m, max_size=m).filter(lambda z: not all(z)))
        g_1 = np.where(zeros, 0.0, random_complex(m, rng))
        filt = window_filter(k, m, g_1, draw(st.integers(0, k * m - 1)))
    return filt, t, r, snr_db, rng


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(link=ici_free_links())
def test_detect_proposed_is_ml_across_the_ici_free_class(link):
    # the dense system's metric, at every SNR: the decoupled receiver, dead
    # columns and all, is exact ML on the whole RD x TD system; noiseless, both
    # metrics are rounding error, so the tolerance is relative to ||y||^2
    filt, t, r, snr_db, rng = link
    ch = generate_channel(t, r, rng, filt.length)
    data = QPSK[rng.integers(0, 4, t * filt.length)]
    y = apply_channel(transmit(data, filt, t), ch, snr_db_to_noise_power(snr_db), rng)
    factors = factorize_blocks(compute_blocks(ch, filt))
    d_hat = detect_proposed(receive_transform(y, filt), factors, filt)
    y = y.reshape(-1)
    h_full = assemble_full_matrix(ch, build_transmitter_matrix(filt))
    ml = residual(y, h_full, exhaustive_ml(y, h_full))
    assert abs(residual(y, h_full, d_hat) - ml) <= 1e-9 * (ml + np.vdot(y, y).real)


def test_detect_proposed_m1_equals_detect_ofdm():
    filt, ch, factors = proposed_setup(8, 1, 2, 2, seed=14)
    rng = np.random.default_rng(15)
    for _ in range(20):
        data = QPSK[rng.integers(0, 4, 16)]
        y = apply_channel(transmit(data, filt, 2), ch, 0.2, rng)
        ybar = receive_transform(y, filt)
        via_blocks = detect_proposed(ybar, factors, filt)
        via_ofdm = detect_ofdm_ref(y, ch)
        npt.assert_array_equal(via_blocks, via_ofdm)


# (D, T, R, SNR in dB): one antenna, more receive than transmit antennas, a
# single bin, a deep noise floor, and no noise at all
OFDM_CASES = [
    (8, 1, 1, 10.0), (8, 1, 3, 5.0), (16, 2, 3, 20.0), (1, 2, 2, 10.0), (1, 1, 2, 0.0),
    (8, 2, 2, -10.0), (16, 3, 3, -10.0), (8, 2, 2, math.inf), (4, 1, 3, math.inf),
]


@pytest.mark.parametrize("d, t, r, snr_db", OFDM_CASES)
def test_detect_ofdm_matches_reference_decisions_and_counts(d, t, r, snr_db):
    # the per-subcarrier receiver at M = 1 against the per-bin loop it
    # replaced: the same decisions, sphere-decoder nodes and CM units
    filt = dirichlet_filter(d, 1)
    for seed in range(10):
        rng = np.random.default_rng([20, d, t, r, seed])
        ch = generate_channel(t, r, rng, d)
        data = QPSK[rng.integers(0, 4, t * d)]
        y = apply_channel(transmit(data, filt, t), ch, snr_db_to_noise_power(snr_db), rng)
        got, want = DetectionStats(), DetectionStats()
        npt.assert_array_equal(detect_ofdm(y, ch, got), detect_ofdm_ref(y, ch, want))
        assert got == want


def test_detect_ofdm_stack_equals_block_calls():
    filt, ch, _ = proposed_setup(8, 1, 2, 2, seed=14)
    data = QPSK[np.random.default_rng(21).integers(0, 4, (3, 2, 8))]
    rngs = [np.random.default_rng([22, b]) for b in range(3)]
    y = apply_channel(fast_modulate(data, filt), ch, 0.2, rngs)
    npt.assert_array_equal(detect_ofdm(y, ch), [detect_ofdm(block, ch) for block in y])


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
    for fact in (baseline_factorization(h, 0.0), sqrd(h)):  # any sorted-QR factor of H
        npt.assert_array_equal(detect_baseline_near_ml(h @ data, fact, 2), data)


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
    z = fact.q.conj().T @ y
    oracle_sorted = exhaustive_ml(z, fact.r)
    expected = np.empty(8, dtype=complex)
    expected[fact.perm] = oracle_sorted
    npt.assert_array_equal(joint, expected)


def test_detect_baseline_rejects_wrong_received_length():
    rng = np.random.default_rng(31)
    h = random_complex((8, 4), rng)
    fact = baseline_factorization(h, 0.1)
    assert fact.q.shape == (8, 4)  # the 8 received rows; the 4 MMSE extension rows are dropped
    for length in (6, 12):
        with pytest.raises(ValueError, match="received samples"):
            detect_baseline_near_ml(np.zeros(length, dtype=complex), fact, 2)
    data = QPSK[np.array([0, 3, 1, 2])]
    assert detect_baseline_near_ml(h @ data, fact, 2).shape == (4,)


@pytest.mark.parametrize("k, m", [(8, 2), (8, 4), (16, 2)])
@pytest.mark.parametrize("rolloff", [0.9, 0.3, None])
def test_detect_baseline_stack_matches_one_block_reference(k, m, rolloff):
    # a stack of B observations makes the one-block receiver's sphere_decode
    # calls: the same decisions and node/CM counts, block by block, at SIC
    # group sizes from symbol by symbol to one exact search over all T * D
    filt = dirichlet_filter(k, m) if rolloff is None else rc_filter(k, m, rolloff)
    a = build_transmitter_matrix(filt)
    rng = np.random.default_rng([47, k, m])
    ch = generate_channel(2, 2, rng, k * m)
    h_full = assemble_full_matrix(ch, a)
    x = np.matmul(a, QPSK[rng.integers(0, 4, (3, 2, k * m))][..., None])[..., 0]
    for n0 in (0.0, 0.1):
        fact = baseline_factorization(h_full, n0)
        streams = [np.random.default_rng([48, b]) for b in range(3)] if n0 else None
        y = apply_channel(x, ch, n0, streams).reshape(3, -1)
        for group in (1, 2 * m, 2 * k * m):
            stats, total = DetectionStats(), DetectionStats()
            out = detect_baseline_near_ml(y, fact, group, stats)
            assert out.shape == (3, 2 * k * m)
            for y_b, out_b in zip(y, out):
                ref_stats, one_stats = DetectionStats(), DetectionStats()
                ref = detect_baseline_near_ml_ref(y_b, fact, group, ref_stats)
                one = detect_baseline_near_ml(y_b, fact, group, one_stats)
                assert ref.tobytes() == out_b.tobytes() == one.tobytes()
                assert one_stats == ref_stats
                total.sd_nodes_visited += ref_stats.sd_nodes_visited
                total.cm_count += ref_stats.cm_count
            assert stats == total
    for bad in (y[:, :-1], y[None], y.reshape(3, 2, -1)):
        with pytest.raises(ValueError, match="received samples"):
            detect_baseline_near_ml(bad, fact, 2)


def test_detect_baseline_stack_rotates_like_one_block_reference(monkeypatch):
    # every observation the stacked receiver hands the sphere decoder, Q^H y
    # and each SIC-adjusted group of it, equals the one-block reference's bit
    # for bit; a gemm over the stack rounds the last bit differently, and the
    # decisions would show that only where it flips a near-tie
    seen = {"stack": [], "ref": []}

    def spy(key, decode):
        def record(r_mat, z, stats=None):
            seen[key].append(np.array(z))
            return decode(r_mat, z, stats)

        return record

    monkeypatch.setattr("gfdmsim.detect.sphere_decode", spy("stack", sphere_decode))
    monkeypatch.setattr("oracles.sphere_decode", spy("ref", sphere_decode))
    n_blocks = 3
    for k, m in ((16, 2), (8, 4), (8, 2)):
        for rolloff in (0.9, 0.3):
            filt = rc_filter(k, m, rolloff)
            a = build_transmitter_matrix(filt)
            for c in range(5):
                rng = np.random.default_rng([53, k, m, c])
                ch = generate_channel(2, 2, rng, k * m)
                h_full = assemble_full_matrix(ch, a)
                fact = baseline_factorization(h_full, 0.1)
                x = np.matmul(a, QPSK[rng.integers(0, 4, (n_blocks, 2, k * m))][..., None])[..., 0]
                streams = [np.random.default_rng([54, c, b]) for b in range(n_blocks)]
                y = apply_channel(x, ch, 0.1, streams).reshape(n_blocks, -1)
                seen["stack"].clear()
                seen["ref"].clear()
                detect_baseline_near_ml(y, fact, 2 * m)
                for y_b in y:
                    detect_baseline_near_ml_ref(y_b, fact, 2 * m)
                # the stack decodes group by group, the reference block by block
                n_groups = len(seen["ref"]) // n_blocks
                assert len(seen["stack"]) == n_groups * n_blocks
                for i, z in enumerate(seen["stack"]):
                    g, b = divmod(i, n_blocks)
                    assert np.array_equal(z, seen["ref"][b * n_groups + g])


def test_detect_baseline_noiseless_rank_deficient_has_dead_column(caplog):
    h = np.zeros((4, 2), dtype=complex)
    h[:, 0] = [1.0, 1.0, 0.0, 0.0]
    h[:, 1] = [1.0, 1.0, 0.0, 0.0]  # rank 1
    y = h @ QPSK[np.array([2, 2])]
    with caplog.at_level("DEBUG"):
        fact = baseline_factorization(h, 0.0)
    assert not caplog.records
    assert fact.r[1, 1] == 0.0  # the second column is dead
    # one group of all T*D symbols is exact ML; symbol by symbol, SIC takes
    # the lowest-index point at the dead level and cannot revise it
    ml = residual(y, h, exhaustive_ml(y, h))
    assert residual(y, h, detect_baseline_near_ml(y, fact, 2)) == ml == 0.0
    assert residual(y, h, detect_baseline_near_ml(y, fact, 1)) == pytest.approx(4.0)


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
                d_sic = detect_baseline_near_ml(y.reshape(-1), fact, 4)
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
