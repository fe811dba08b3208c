"""Independent reference constructions used as test oracles.

Everything here is built directly from the defining formulas with plain
loops and dense matrices, deliberately avoiding the library's vectorized
index-map implementations.
"""

import itertools
import math

import numpy as np

from gfdmsim.detect import (
    QPSK,
    DetectionStats,
    SqrdFactorization,
    _require_finite,
    sphere_decode,
)
from gfdmsim import channel as chan
from gfdmsim import detect, simulate, waveform
from gfdmsim.channel import MimoChannel
from gfdmsim.decoupling import compute_blocks, receive_transform
from gfdmsim.waveform import PrototypeFilter


def dft_matrix_ref(p: int) -> np.ndarray:
    w = np.empty((p, p), dtype=complex)
    for m in range(p):
        for n in range(p):
            w[m, n] = np.exp(-2j * np.pi * m * n / p) / math.sqrt(p)
    return w


def perm_cyclic_ref(a: int) -> np.ndarray:
    """The a x a single-step cyclic matrix [[0^T, 1], [I, 0]]."""
    out = np.zeros((a, a))
    out[0, a - 1] = 1.0
    out[1:, : a - 1] = np.eye(a - 1)
    return out


def perm_interleave_ref(a: int, b: int) -> np.ndarray:
    """The ab x ab matrix with entry 1 at (m*b + p, q*a + n) iff m == n and p == q."""
    out = np.zeros((a * b, a * b))
    for m in range(a):
        for n in range(a):
            for p in range(b):
                for q in range(b):
                    if m == n and p == q:
                        out[m * b + p, q * a + n] = 1.0
    return out


def transmitter_matrix_ref(g: np.ndarray, k_sc: int, m_ss: int) -> np.ndarray:
    """Column-by-column assembly from the per-entry definition."""
    d = k_sc * m_ss
    out = np.empty((d, d), dtype=complex)
    for m in range(m_ss):
        for k in range(k_sc):
            for n in range(d):
                out[n, m * k_sc + k] = g[(n - m * k_sc) % d] * np.exp(
                    2j * np.pi * k * n / k_sc
                )
    return out


def circulant_ref(taps: np.ndarray, d: int) -> np.ndarray:
    col = np.zeros(d, dtype=complex)
    col[: len(taps)] = taps
    out = np.empty((d, d), dtype=complex)
    for j in range(d):
        for i in range(d):
            out[i, j] = col[(i - j) % d]
    return out


def matrix_power(p: np.ndarray, e: int) -> np.ndarray:
    out = np.eye(p.shape[0])
    step = p if e >= 0 else np.linalg.inv(p)
    for _ in range(abs(e)):
        out = step @ out
    return out


def receive_operator_ref(k_sc: int, m_ss: int, n_rx: int, shift: int) -> np.ndarray:
    """(Pi_{KR} (x) I_M) (I_R (x) Pi_D^{-shift} W_D) from the definitions."""
    d = k_sc * m_ss
    shift_up = matrix_power(perm_cyclic_ref(d), -shift)
    inner = np.kron(np.eye(n_rx), shift_up @ dft_matrix_ref(d))
    outer = np.kron(perm_interleave_ref(k_sc, n_rx), np.eye(m_ss))
    return outer @ inner


def data_operator_ref(k_sc: int, m_ss: int, n_tx: int) -> np.ndarray:
    """(Pi_{KT} (x) I_M) (I_T (x) Pi_{KM}) from the definitions."""
    inner = np.kron(np.eye(n_tx), perm_interleave_ref(k_sc, m_ss))
    outer = np.kron(perm_interleave_ref(k_sc, n_tx), np.eye(m_ss))
    return outer @ inner


def brute_force_ml_ref(y: np.ndarray, h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Plain loop over every candidate vector; first minimum wins."""
    n = h.shape[1]
    best = None
    best_metric = math.inf
    for combo in itertools.product(range(len(points)), repeat=n):
        s = points[list(combo)]
        metric = float(np.sum(np.abs(y - h @ s) ** 2))
        if metric < best_metric:
            best_metric = metric
            best = s
    return best


def sign_flip_p_value(diffs) -> float:
    """Exact one-sided p-value of sum(diffs) under random sign flips of paired differences.

    The share of the 2**n sign vectors e with sum(e * |diffs|) >= sum(diffs)
    (Fisher 1935; Pitman 1937). Small when the differences lean positive
    beyond what noise symmetric about zero explains. Meant for the integer
    error-count differences of paired runs, so the comparison is exact.
    """
    diffs = np.asarray(diffs)
    n = len(diffs)
    signs = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    return float(np.mean(signs @ np.abs(diffs) >= diffs.sum()))


# The serial reference for gfdmsim.detect.factorize_blocks, and so for sqrd,
# its call on one matrix: the textbook loop in the same arithmetic, so
# every block's q, r and perm, dead columns included, must match it bit for
# bit.
def sqrd_ref(f: np.ndarray) -> SqrdFactorization:
    """Sorted QR via modified Gram-Schmidt with min-norm column pivoting.

    At every step the unprocessed column of smallest residual norm is chosen
    next (ties go to the lowest index), which pushes weak columns early in
    the triangular system and strong ones to the bottom where detection
    starts. A pivot whose residual norm is at most 1e-12 times the Frobenius
    norm of the input is a dead column: a zero column of Q, a zero row of R.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim != 2 or f.shape[0] < f.shape[1]:
        raise ValueError(f"expected a tall or square matrix, got shape {f.shape}")
    m, n = f.shape
    v = f.copy()
    q = np.zeros((m, n), dtype=complex)
    r = np.zeros((n, n), dtype=complex)
    perm = np.arange(n)
    norms_sq = np.sum(np.abs(v) ** 2, axis=0)
    fro = math.sqrt(float(norms_sq.sum()))
    for i in range(n):
        j = i + int(np.argmin(norms_sq[i:]))
        if j != i:
            v[:, [i, j]] = v[:, [j, i]]
            r[:i, [i, j]] = r[:i, [j, i]]
            norms_sq[[i, j]] = norms_sq[[j, i]]
            perm[[i, j]] = perm[[j, i]]
        norm = np.linalg.norm(v[:, i])
        if norm <= 1e-12 * fro:
            continue
        r[i, i] = norm
        q[:, i] = v[:, i] / norm
        if i + 1 < n:
            proj = q[:, i].conj() @ v[:, i + 1 :]
            r[i, i + 1 :] = proj
            v[:, i + 1 :] -= np.outer(q[:, i], proj)
            norms_sq[i + 1 :] = np.maximum(norms_sq[i + 1 :] - np.abs(proj) ** 2, 0.0)
    return SqrdFactorization(q=q, r=r, perm=perm)


# The numpy-array implementation that gfdmsim.detect.sphere_decode replaced:
# same traversal, so decisions and node/CM counts must match node for node.
def sphere_decode_ref(
    r_mat: np.ndarray,
    z: np.ndarray,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Exact ML solve of min_s ||z - R s||^2 over QPSK vectors.

    Depth-first search from the last coordinate with Schnorr-Euchner child
    ordering (children sorted by increasing incremental metric, ties by
    QPSK index), infinite initial radius, and radius shrinking at
    every improved leaf. Equal-metric leaves keep the first one found. R
    must be upper triangular with a real nonnegative diagonal: a zero on
    it, a dead column, ties the four children.

    Bookkeeping per call: one node per child that survives the radius test,
    one complex-multiplication unit per off-diagonal product in the partial
    residuals and per candidate-symbol metric evaluation.
    """
    r_mat = np.asarray(r_mat)
    z = np.asarray(z)
    points = QPSK
    nq = len(points)
    n = len(z)
    if r_mat.shape != (n, n):
        raise ValueError(f"triangular factor {r_mat.shape} does not match length {n}")
    order = np.empty((n, nq), dtype=np.intp)
    inc = np.empty((n, nq))
    ptr = np.zeros(n, dtype=np.intp)
    base = np.zeros(n)
    s_idx = np.zeros(n, dtype=np.intp)
    s_pts = np.zeros(n, dtype=complex)
    best = math.inf
    best_idx = s_idx.copy()
    nodes = 0
    cms = 0

    def expand(level: int, acc: float) -> None:
        nonlocal cms
        rhs = z[level]
        if level < n - 1:
            rhs = rhs - r_mat[level, level + 1 :] @ s_pts[level + 1 :]
            cms += n - 1 - level
        diff = rhs - r_mat[level, level] * points
        vals = diff.real**2 + diff.imag**2
        cms += nq
        idx = np.argsort(vals, kind="stable")
        order[level] = idx
        inc[level] = vals[idx]
        ptr[level] = 0
        base[level] = acc

    expand(n - 1, 0.0)
    i = n - 1
    while True:
        if ptr[i] >= nq:
            i += 1
            if i == n:
                break
            continue
        metric = base[i] + inc[i, ptr[i]]
        if metric >= best:
            ptr[i] = nq  # children are sorted: the rest cannot beat the radius
            continue
        s_idx[i] = order[i, ptr[i]]
        s_pts[i] = points[s_idx[i]]
        ptr[i] += 1
        nodes += 1
        if i == 0:
            best = metric
            best_idx = s_idx.copy()
        else:
            i -= 1
            expand(i, metric)
    if stats is not None:
        stats.sd_nodes_visited += nodes
        stats.cm_count += cms
    return points[best_idx]


# The per-subcarrier loop that gfdmsim.detect.detect_proposed replaced: one
# sphere_decode call and one scatter per subcarrier of one block, so the
# batched receiver must match its decisions and node/CM counts exactly.
def detect_proposed_ref(
    ybar: np.ndarray,
    factors: SqrdFactorization,
    f: PrototypeFilter,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Per-subcarrier ML detection of one receive-transformed block, subcarrier by subcarrier."""
    k_sc, m_ss = f.n_subcarriers, f.n_subsymbols
    q, r, perm = factors.q, factors.r, factors.perm
    if q.ndim != 3 or q.shape[0] != k_sc:
        raise ValueError(f"expected a stack of {k_sc} block factorizations, got shape {q.shape}")
    _, rows, cols = q.shape
    ybar = np.asarray(ybar)
    if ybar.shape != (k_sc * rows,):
        raise ValueError("observation length does not match the block system")
    z = np.matmul(q.conj().transpose(0, 2, 1), ybar.reshape(k_sc, rows, 1))[:, :, 0]
    d_hat = np.empty(k_sc * cols, dtype=complex)
    for k in range(k_sc):
        dbar_k = np.empty(cols, dtype=complex)
        dbar_k[perm[k]] = sphere_decode(r[k], z[k], stats)
        # column t*M + m of block k multiplies symbol m*K + k of antenna t
        for t in range(cols // m_ss):
            for m in range(m_ss):
                d_hat[t * k_sc * m_ss + m * k_sc + k] = dbar_k[t * m_ss + m]
    return d_hat


# gfdmsim.detect.detect_baseline_near_ml as it was when it took one block:
# the stacked receiver keeps its arithmetic and its one sphere_decode call per
# (group, block), so decisions and node/CM counts must match bit for bit.
def detect_baseline_near_ml_ref(
    y: np.ndarray,
    factor: SqrdFactorization,
    group_size: int,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Near-ML detection of the QPSK data on the full stacked system: grouped DFSD + SIC.

    ``y`` is the received (R, D) array or its flattening and ``factor`` the
    :func:`baseline_factorization` of the full RD x TD matrix. The
    triangular system is processed bottom-up in groups of ``group_size``
    symbols (TD gives one single group, i.e. exact ML on the rotated
    system). Each group is sphere-decoded jointly, then its contribution is
    cancelled from the remaining rows. Raises ``ValueError`` on a non-finite
    entry of ``y`` or of the triangular factor.
    """
    y = np.asarray(y).reshape(-1)
    n_obs, n = factor.q.shape
    if len(y) != n_obs:
        raise ValueError(f"expected {n_obs} received samples, got {len(y)}")
    group = int(group_size)
    if group < 1:
        raise ValueError("group size must be positive")
    _require_finite(factor.r, y)
    z = factor.q.conj().T @ y
    s_sorted = np.zeros(n, dtype=complex)
    for hi in range(n, 0, -group):
        lo = max(hi - group, 0)
        z_adj = z[lo:hi]
        if hi < n:
            z_adj = z_adj - factor.r[lo:hi, hi:] @ s_sorted[hi:]
        s_sorted[lo:hi] = sphere_decode(factor.r[lo:hi, lo:hi], z_adj, stats)
    d_hat = np.empty(n, dtype=complex)
    d_hat[factor.perm] = s_sorted
    return d_hat


# gfdmsim.detect.detect_ofdm as it was before it ran the per-subcarrier
# receiver at M = 1: one sorted QR of the channel's frequency response and one
# sphere_decode call per bin, so that receiver must match its decisions and
# node/CM counts exactly.
def detect_ofdm_ref(
    y: np.ndarray,
    ch: MimoChannel,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Per-subcarrier detection for M = 1 blocks (A = inverse DFT matrix).

    Each of the D subcarriers is an R x T system solved by sorted QR plus a
    size-T sphere-decoder call over QPSK. Output stacking matches the transmit data
    (antenna-major).
    """
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    d = ch.block_len
    if y.shape != (ch.n_rx, d):
        raise ValueError(f"expected received array of shape {(ch.n_rx, d)}, got {y.shape}")
    yf = np.fft.fft(y, axis=1) / math.sqrt(d)
    d_hat = np.empty(ch.n_tx * d, dtype=complex)
    for i in range(d):
        fact = sqrd_ref(ch.freq[:, :, i])
        z = fact.q.conj().T @ yf[:, i]
        s_sorted = sphere_decode(fact.r, z, stats)
        d_hat[fact.perm * d + i] = s_sorted
    return d_hat


# The M x M window/DFT factor as gfdmsim.decoupling formed it on every
# compute_blocks call, before the filter kept it: the cached copy must
# match it bit for bit.
def window_diag_dft_ref(g_1: np.ndarray, shift: int, k_sc: int) -> np.ndarray:
    """The M x M factor diag(g_1) * shift-up(l) * W_M / sqrt(K) shared by all blocks."""
    m_ss = len(g_1)
    mm, nn = np.meshgrid(np.arange(m_ss), np.arange(m_ss), indexing="ij")
    w_m = np.exp(-2j * np.pi * mm * nn / m_ss) / math.sqrt(m_ss)
    return g_1[:, None] * np.roll(w_m, -shift, axis=0) / math.sqrt(k_sc)


# gfdmsim.decoupling.compute_blocks as it was when its product ran with the
# subcarrier axis outside the M x M factor and formed that factor per call:
# the rewrite forms the same products in another layout, so the stack must
# match bit for bit.
def compute_blocks_ref(ch: MimoChannel, f: PrototypeFilter) -> np.ndarray:
    """Per-subcarrier MR x MT matrices, formed as an (R, T, K, M, M) product."""
    g_1, shift = f.support
    k_sc, m_ss = f.n_subcarriers, f.n_subsymbols
    r, t = ch.n_rx, ch.n_tx
    core = window_diag_dft_ref(g_1, shift, k_sc)
    gains = np.roll(ch.freq, -shift, axis=2).reshape(r, t, k_sc, m_ss)
    blocks = gains[..., None] * core[None, None, None, :, :]  # (R, T, K, M, M)
    return blocks.transpose(2, 0, 3, 1, 4).reshape(k_sc, r * m_ss, t * m_ss)


# gfdmsim.detect._first_descent as it was when each level ran with the
# problems outermost and sorted every problem's four children: the rewrite
# keeps every float operation, so indices and certificates must match.
@np.errstate(over="ignore", invalid="ignore")
def first_descent_ref(r: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First leaf of sphere_decode for a stack of problems, and whether it is final."""
    n = z.shape[-1]
    shape = np.broadcast_shapes(r.shape[:-2], z.shape[:-1])
    pr, pi = QPSK.real, QPSK.imag
    rr, ri = r.real, r.imag
    idx = np.empty(shape + (n,), dtype=np.intp)
    sr = np.empty(shape + (n,))  # the chosen points' real and imaginary parts
    si = np.empty(shape + (n,))
    metric = np.zeros(shape)
    second = np.full(shape, np.inf)  # the least second-child metric over the levels
    for lev in range(n - 1, -1, -1):
        re, im = z[..., lev].real, z[..., lev].imag
        if lev < n - 1:
            ar, ai = rr[..., lev, lev + 1 :], ri[..., lev, lev + 1 :]
            br, bi = sr[..., lev + 1 :], si[..., lev + 1 :]
            prod_r = ar * br - ai * bi
            prod_i = ar * bi + ai * br
            off_r = off_i = 0.0
            for j in range(n - 1 - lev):
                off_r = off_r + prod_r[..., j]
                off_i = off_i + prod_i[..., j]
            re = re - off_r
            im = im - off_i
        d = rr[..., lev, lev, None]
        cr = re[..., None] - d * pr
        ci = im[..., None] - d * pi
        vals = cr * cr + ci * ci
        order = np.argsort(vals, axis=-1, kind="stable")
        best2 = np.take_along_axis(vals, order[..., :2], axis=-1)
        second = np.minimum(second, metric + best2[..., 1])
        metric = metric + best2[..., 0]
        choice = order[..., 0]
        idx[..., lev] = choice
        sr[..., lev] = pr[choice]
        si[..., lev] = pi[choice]
    return idx, (metric < np.inf) & (second >= metric)


# gfdmsim.simulate.run_sweep as it was before it ran its realizations in
# chunks: one realization per iteration, each with its own front end,
# factorization and detector call. The dense baseline's branch uses none of
# the batched code: sqrd_ref of the explicit MMSE extension, then the one-block
# detector per block. Every stage equals its per-realization calls bit for
# bit, so the chunked sweep must match its records exactly.
def run_sweep_ref(cfg: simulate.SimConfig) -> list[simulate.TrialRecord]:
    """The configured sweep, one realization at a time."""
    k_sc, m_ss = cfg.n_subcarriers, cfg.n_subsymbols
    n_tx, n_rx, d = cfg.n_tx, cfg.n_rx, cfg.block_len
    if cfg.scheme == "baseline_rc":
        filt = waveform.rc_filter(k_sc, m_ss, cfg.alpha)
    else:
        filt = waveform.dirichlet_filter(k_sc, m_ss)
    # the two baselines detect on the full matrix; ofdm and proposed_dirichlet per subcarrier
    dense = cfg.scheme in ("baseline_dirichlet", "baseline_rc")
    a_mat = waveform.build_transmitter_matrix(filt) if dense else None
    blocks = range(cfg.n_blocks)
    records = []
    for s_idx, snr in enumerate(cfg.snr_db):
        noise_power = chan.snr_db_to_noise_power(snr)
        stats = DetectionStats()
        errors = 0
        for c_idx in range(cfg.n_channels):
            rng_ch = simulate._trial_rng(cfg.seed, simulate._STREAM_CHANNEL, s_idx, c_idx)
            ch = chan.generate_channel(n_tx, n_rx, rng_ch, d)
            data = [simulate._trial_rng(cfg.seed, simulate._STREAM_DATA, s_idx, c_idx, b) for b in blocks]
            noise = [simulate._trial_rng(cfg.seed, simulate._STREAM_NOISE, s_idx, c_idx, b) for b in blocks]
            sent = QPSK[np.stack([g.integers(0, len(QPSK), size=n_tx * d) for g in data])]
            x = waveform.fast_modulate(sent.reshape(-1, n_tx, d), filt)
            y = chan.apply_channel(x, ch, noise_power, noise)
            if dense:  # sqrd_ref of the explicit MMSE extension, then one block at a time
                h_full = chan.assemble_full_matrix(ch, a_mat)
                eye = np.eye(n_tx * d, dtype=complex)
                fact = sqrd_ref(np.vstack([h_full, math.sqrt(noise_power) * eye]))
                factor = SqrdFactorization(q=fact.q[: len(h_full)], r=fact.r, perm=fact.perm)
                d_hat = np.stack([
                    detect_baseline_near_ml_ref(y_b, factor, m_ss * n_tx, stats) for y_b in y
                ])
            else:
                factors = detect.factorize_blocks(compute_blocks(ch, filt))
                d_hat = detect.detect_proposed(receive_transform(y, filt), factors, filt, stats)
            errors += int(np.sum(d_hat != sent))
        records.append(
            simulate.TrialRecord(
                config=cfg,
                snr_db=float(snr),
                errors=errors,
                cm_sd=stats.cm_count,
                sd_nodes=stats.sd_nodes_visited,
                wall_time=0.0,
            )
        )
    return records
