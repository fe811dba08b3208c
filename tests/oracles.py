"""Independent reference constructions used as test oracles.

Everything here is built directly from the defining formulas with plain
loops and dense matrices, deliberately avoiding the library's vectorized
index-map implementations.
"""

import itertools
import math

import numpy as np

from gfdmsim.detect import QPSK, DetectionStats


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
    must be upper triangular with positive diagonal.

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
