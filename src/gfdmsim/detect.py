"""MIMO detection: sorted QR, depth-first sphere decoding, and full receivers.

Every receiver decides over one symbol alphabet, :data:`QPSK`. Three
receivers share the same sphere-decoder core:

* the per-subcarrier detector, which factors each MR x MT block with plain
  sorted QR and solves K independent ML subproblems;
* the conventional near-ML receiver, which MMSE-sorted-QR-factors the whole
  RD x TD matrix and alternates group-wise sphere decoding with successive
  interference cancellation;
* the OFDM detector for M = 1 blocks, an independent reference for the
  per-subcarrier detector at M = 1 (sweeps run ``ofdm`` through the latter).

An exhaustive ML search over all candidate vectors is provided as a test
oracle. Complexity bookkeeping: sphere-decoder work is counted empirically
(one unit per complex multiplication in the metric recursions, with
complex-by-real products counted the same as complex-by-complex); the
closed-form QR/SIC counts live in the simulation layer.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import MimoChannel
from .decoupling import inverse_data_permutation
from .waveform import PrototypeFilter

logger = logging.getLogger(__name__)

# The symbol alphabet, (+-1 +-1j)/sqrt(2). Its unit average energy is what
# the SNR conversion and the MMSE regularization assume; its order fixes the
# data draws and every tie-break (ties go to the lower index).
QPSK = (
    np.array([1, 1, -1, -1], dtype=float) + 1j * np.array([1, -1, 1, -1], dtype=float)
) / np.sqrt(2.0)
QPSK.flags.writeable = False
# the sphere decoder's Python-scalar copies: the points and their (re, im) pairs
_POINTS = QPSK.tolist()
_PARTS = [(p.real, p.imag) for p in _POINTS]


@dataclass
class DetectionStats:
    """Sphere-decoder work counters accumulated over a run.

    ``sd_nodes_visited`` and ``cm_count`` are measured by the sphere decoder;
    the closed-form QR/SIC counts live in the simulation layer.
    """

    sd_nodes_visited: int = 0
    cm_count: int = 0


@dataclass(frozen=True)
class SqrdFactorization:
    """Sorted QR factors: F[:, perm] = Q @ R with R upper triangular.

    Q has orthonormal columns (for the MMSE variant it spans the extended
    matrix and its top block applies to received data); the diagonal of R is
    real and nonnegative; ``perm[i]`` is the original column processed at
    step i.
    """

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray


def sqrd(f: np.ndarray) -> SqrdFactorization:
    """Sorted QR via modified Gram-Schmidt with min-norm column pivoting.

    At every step the unprocessed column of smallest residual norm is chosen
    next (ties go to the lowest index), which pushes weak columns early in
    the triangular system and strong ones to the bottom where detection
    starts. Raises ``numpy.linalg.LinAlgError`` when a residual column norm
    is at most 1e-12 times the Frobenius norm of the input, which includes
    every column of an all-zero matrix.
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
            raise np.linalg.LinAlgError(
                f"column {perm[i]} is numerically rank deficient (norm {norm:.3e})"
            )
        r[i, i] = norm
        q[:, i] = v[:, i] / norm
        if i + 1 < n:
            proj = q[:, i].conj() @ v[:, i + 1 :]
            r[i, i + 1 :] = proj
            v[:, i + 1 :] -= np.outer(q[:, i], proj)
            norms_sq[i + 1 :] = np.maximum(norms_sq[i + 1 :] - np.abs(proj) ** 2, 0.0)
    return SqrdFactorization(q=q, r=r, perm=perm)


def sphere_decode(
    r_mat: np.ndarray,
    z: np.ndarray,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Exact ML solve of min_s ||z - R s||^2 over QPSK vectors.

    Depth-first search from the last coordinate with Schnorr-Euchner child
    ordering (children sorted by increasing incremental metric, ties by
    :data:`QPSK` index), infinite initial radius, and radius shrinking at
    every improved leaf. Equal-metric leaves keep the first one found. R
    must be upper triangular with positive diagonal.

    Bookkeeping per call: one node per child that survives the radius test,
    one complex-multiplication unit per off-diagonal product in the partial
    residuals and per candidate-symbol metric evaluation.

    The search state lives in Python scalars and lists: a search visits a
    few dozen nodes on average, each with one child per QPSK point, too few
    for array calls to pay off. The points' Python copies are built once at
    import. Partial residuals are summed left to right in Python complex
    arithmetic, so the result does not depend on the BLAS build.
    """
    r_mat = np.asarray(r_mat)
    z = np.asarray(z)
    if z.ndim != 1 or len(z) == 0:
        raise ValueError(f"expected a nonempty 1-D received vector, got shape {z.shape}")
    n = len(z)
    if r_mat.shape != (n, n):
        raise ValueError(f"triangular factor {r_mat.shape} does not match length {n}")
    rows = r_mat.tolist()
    zs = z.tolist()
    points = _POINTS
    nq = len(points)
    labels = range(nq)
    # R[l, l] * point for every level and candidate, as (real, imag) pairs;
    # the diagonal is real, so these are the complex products exactly
    scaled = [[(d * pr, d * pi) for pr, pi in _PARTS] for d in (rows[l][l].real for l in range(n))]
    children = [None] * n  # per level: (incremental metric, candidate) pairs, best first
    ptr = [0] * n
    base = [0.0] * n
    s_idx = [0] * n
    s_pts = [0j] * n
    best = math.inf
    best_idx = [0] * n
    nodes = 0
    cms = 0

    def expand(level: int, acc: float) -> None:
        nonlocal cms
        rhs = zs[level]
        if level < n - 1:
            row = rows[level]
            off = 0j
            for j in range(level + 1, n):
                off += row[j] * s_pts[j]
            rhs -= off
            cms += n - 1 - level
        re, im = rhs.real, rhs.imag
        vals = [(re - cr) * (re - cr) + (im - ci) * (im - ci) for cr, ci in scaled[level]]
        cms += nq
        children[level] = sorted(zip(vals, labels))
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
        val, q = children[i][ptr[i]]
        metric = base[i] + val
        if metric >= best:
            ptr[i] = nq  # children are sorted: the rest cannot beat the radius
            continue
        s_idx[i] = q
        s_pts[i] = points[q]
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
    return QPSK[best_idx]


def exhaustive_ml(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Brute-force argmin of ||y - H d||^2 over all QPSK vectors.

    Candidates are enumerated with the first coordinate as the most
    significant digit; ties keep the lexicographically smallest candidate
    index. Refuses instances with more than 2**20 candidates (ten QPSK
    symbols). Test oracle only.
    """
    y = np.asarray(y)
    h = np.asarray(h)
    n = h.shape[1]
    nq = len(QPSK)
    total = nq**n
    if total > 2**20:
        raise ValueError(f"{total} candidates exceed the enumeration limit of 2**20")
    weights = nq ** np.arange(n - 1, -1, -1)
    best_metric = math.inf
    best_first = 0
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        cand = np.arange(lo, min(lo + chunk, total))
        digits = (cand[None, :] // weights[:, None]) % nq
        s = QPSK[digits]
        resid = y[:, None] - h @ s
        metrics = np.sum(resid.real**2 + resid.imag**2, axis=0)
        j = int(np.argmin(metrics))  # first occurrence = smallest index
        if metrics[j] < best_metric:
            best_metric = float(metrics[j])
            best_first = lo + j
    digits = (best_first // weights) % nq
    return QPSK[digits]


def factorize_blocks(blocks: np.ndarray) -> list[SqrdFactorization]:
    """Sorted QR of every block of a (K, MR, MT) stack, computed once per channel realization."""
    return [sqrd(b) for b in blocks]


def detect_proposed(
    ybar: np.ndarray,
    factors: list[SqrdFactorization],
    f: PrototypeFilter,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Per-subcarrier ML detection of the QPSK data on the decoupled system.

    ``ybar`` and ``factors`` are the receive-transformed observation and the
    :func:`factorize_blocks` output under the filter ``f``, which gives K and
    M (T comes from the factors). Each of the K subproblems is solved exactly
    by one sphere-decoder call of size MT, then the data permutation is
    undone. The QR is plain and unregularized, so no noise power enters.
    """
    k_sc, m_ss = f.n_subcarriers, f.n_subsymbols
    if len(factors) != k_sc:
        raise ValueError(f"expected {k_sc} block factorizations, got {len(factors)}")
    rows, cols = factors[0].q.shape
    ybar = np.asarray(ybar)
    if ybar.shape[0] != k_sc * rows:
        raise ValueError("observation length does not match the block system")
    dbar = np.empty(k_sc * cols, dtype=complex)
    for k in range(k_sc):
        fact = factors[k]
        z = fact.q.conj().T @ ybar[k * rows : (k + 1) * rows]
        s_sorted = sphere_decode(fact.r, z, stats)
        seg = dbar[k * cols : (k + 1) * cols]
        seg[fact.perm] = s_sorted
    return inverse_data_permutation(dbar, k_sc, m_ss, cols // m_ss)


def baseline_factorization(h_full: np.ndarray, noise_power: float) -> SqrdFactorization:
    """MMSE-SQRD of the full stacked matrix, with a tiny-regularization fallback.

    Sorted QR of the noise-regularized extension [H; sqrt(N0) * I]. Symbols
    have unit energy, so R^H R = perm'(H^H H + N0 I)perm; the top rows of Q
    apply to the received vector, and with N0 = 0 the factors are those of
    plain ``sqrd(h_full)``. Computed once per channel realization and SNR; a
    rank-deficient noiseless system falls back to a 1e-12 regularization
    with a logged warning.
    """
    h_full = np.asarray(h_full, dtype=complex)
    eye = np.eye(h_full.shape[1], dtype=complex)
    try:
        return sqrd(np.vstack([h_full, math.sqrt(noise_power) * eye]))
    except np.linalg.LinAlgError:
        logger.warning(
            "rank-deficient system at noise power %g; retrying with 1e-12 regularization",
            noise_power,
        )
        return sqrd(np.vstack([h_full, math.sqrt(1e-12) * eye]))


def detect_baseline_near_ml(
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
    cancelled from the remaining rows.
    """
    y = np.asarray(y).reshape(-1)
    n = factor.r.shape[0]
    n_obs = factor.q.shape[0] - n  # the rows of Q below these belong to the MMSE extension
    if len(y) != n_obs:
        raise ValueError(f"expected {n_obs} received samples, got {len(y)}")
    group = int(group_size)
    if group < 1:
        raise ValueError("group size must be positive")
    z = factor.q[:n_obs].conj().T @ y
    s_sorted = np.zeros(n, dtype=complex)
    hi = n
    while hi > 0:
        lo = max(hi - group, 0)
        z_adj = z[lo:hi]
        if hi < n:
            z_adj = z_adj - factor.r[lo:hi, hi:] @ s_sorted[hi:]
        s_sorted[lo:hi] = sphere_decode(factor.r[lo:hi, lo:hi], z_adj, stats)
        hi = lo
    d_hat = np.empty(n, dtype=complex)
    d_hat[factor.perm] = s_sorted
    return d_hat


def detect_ofdm(
    y: np.ndarray,
    ch: MimoChannel,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Per-subcarrier detection for M = 1 blocks (A = inverse DFT matrix).

    Each of the D subcarriers is an R x T system solved by sorted QR plus a
    size-T sphere-decoder call over QPSK. Output stacking matches the transmit data
    (antenna-major). Built from the channel's frequency response without
    the block factorization, it is the reference that :func:`detect_proposed`
    at M = 1 must match (acceptance criterion 5); sweeps do not call it.
    """
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    d = ch.block_len
    if y.shape != (ch.n_rx, d):
        raise ValueError(f"expected received array of shape {(ch.n_rx, d)}, got {y.shape}")
    yf = np.fft.fft(y, axis=1) / math.sqrt(d)
    d_hat = np.empty(ch.n_tx * d, dtype=complex)
    for i in range(d):
        fact = sqrd(ch.freq[:, :, i])
        z = fact.q.conj().T @ yf[:, i]
        s_sorted = sphere_decode(fact.r, z, stats)
        d_hat[fact.perm * d + i] = s_sorted
    return d_hat
