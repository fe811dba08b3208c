"""MIMO detection: sorted QR, depth-first sphere decoding, and full receivers.

Every receiver decides over one symbol alphabet, :data:`QPSK`. Two
receivers share the same sphere-decoder core:

* the per-subcarrier detector, which factors all K MR x MT blocks of a
  channel realization in one batched plain sorted QR and solves K
  independent ML subproblems per data block; for a stack of a
  realization's blocks it runs the sphere decoder's first descent on every
  subproblem at once, and for the subproblems whose first leaf that descent
  cannot certify as the decoder's answer it resumes the scalar search from
  that leaf;
* the conventional near-ML receiver, which MMSE-sorted-QR-factors the whole
  RD x TD matrix and alternates group-wise sphere decoding with successive
  interference cancellation.

:func:`detect_ofdm` runs the per-subcarrier detector at M = 1, as sweeps
do for the ``ofdm`` scheme.

An exhaustive ML search over all candidate vectors is provided as an oracle
for the tests and demos. Complexity bookkeeping: sphere-decoder work is
counted empirically (one unit per complex multiplication in the metric
recursions, with complex-by-real products counted the same as
complex-by-complex); the closed-form QR/SIC counts live in the simulation
layer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import MimoChannel
from .decoupling import compute_blocks, data_permutation, receive_transform
from .waveform import PrototypeFilter, dirichlet_filter

# The symbol alphabet, (+-1 +-1j)/sqrt(2). Its unit average energy is what
# the SNR conversion and the MMSE regularization assume; its order fixes the
# data draws and every tie-break (ties go to the lower index).
QPSK = (
    np.array([1, 1, -1, -1], dtype=float) + 1j * np.array([1, -1, 1, -1], dtype=float)
) / np.sqrt(2.0)
QPSK.flags.writeable = False
# the sphere decoder's Python-scalar copies of the points, and the two values
# every coordinate takes: point q is _COORD[q >> 1] + 1j * _COORD[q & 1]
_POINTS = QPSK.tolist()
_COORD = (_POINTS[0].real, _POINTS[3].real)


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

    The diagonal of R is real and nonnegative, and Q's columns are
    orthonormal except at a dead column, where :func:`sqrd`'s rank test found
    the pivot dependent on the columns before it: there Q has a zero column
    and R a zero row. ``perm[i]`` is the original column processed at step
    i. :func:`sqrd` returns one matrix's factors; :func:`factorize_blocks`
    returns a stack of K, with a leading block axis on every field
    (``q[k]``, ``r[k]``, ``perm[k]`` factor block k).
    :func:`baseline_factorization` factors the MMSE extension
    F = [H; sqrt(N0) * I] and keeps only the top rows of Q, those that apply
    to received data: its ``q`` is the top block of an orthonormal matrix and
    is not orthonormal on its own.
    """

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray


def sqrd(f: np.ndarray) -> SqrdFactorization:
    """Sorted QR via modified Gram-Schmidt with min-norm column pivoting.

    At every step the unprocessed column of smallest residual norm is chosen
    next (ties go to the lowest index), which pushes weak columns early in
    the triangular system and strong ones to the bottom where detection
    starts. It always factors: a pivot whose residual norm is at most 1e-12
    times the Frobenius norm of the input, every column of an all-zero
    matrix included, is a dead column. It gets a zero column of Q and a zero
    row of R, so F[:, perm] = Q @ R still holds to that tolerance, and it
    leaves the residual of the other columns as it was.

    Pivot ties are structural, not rare. Within an antenna, the columns of
    an ICI-free per-subcarrier block have equal norms in exact arithmetic;
    so do the M subsymbol columns of one (antenna, subcarrier) in the
    baseline's dense matrix, whose columns are cyclic shifts through a
    circulant channel. The pivot order therefore rests on the last bit of
    every norm, and the arithmetic is fixed:

    * the initial norms, ``np.sum(np.abs(v) ** 2, axis=0)``;
    * each pivot's norm, from the two real dot products that
      ``np.linalg.norm`` runs on the contiguous column, and the column
      divided by it;
    * the projections, one gemv ``q_i.conj() @ v[:, i + 1 :]`` on the
      C-ordered residual (its layout picks the BLAS kernel and so the
      summation order);
    * the rank-one update, numpy's complex product with q_i as the first
      factor (it is not commutative to the last bit), subtracted in place;
    * the norm downdate, clamped at zero.

    LAPACK, Householder, ``einsum`` or a transposed residual would round
    differently and move pivots. Everything else is data movement, done in
    place: column swaps are slice copies, Q is built by rows, the
    projections are written straight into R, and every update goes to one
    buffer allocated per call.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim != 2 or f.shape[0] < f.shape[1]:
        raise ValueError(f"expected a tall or square matrix, got shape {f.shape}")
    m, n = f.shape
    v = f.copy()
    q_t = np.zeros((n, m), dtype=complex)  # row i is column i of Q
    r = np.zeros((n, n), dtype=complex)
    perm = np.arange(n)
    norms_sq = np.sum(np.abs(v) ** 2, axis=0)
    fro = math.sqrt(float(norms_sq.sum()))
    col = np.empty(m, dtype=complex)  # the pivot column, contiguous
    outer = np.empty(m * n, dtype=complex)  # each step's rank-one update
    for i in range(n):
        j = i + int(norms_sq[i:].argmin())
        col[:] = v[:, j]
        if j != i:  # column i is read no more, so it takes j's place
            v[:, j] = v[:, i]
            r_j = r[:i, j].copy()
            r[:i, j] = r[:i, i]
            r[:i, i] = r_j
            norms_sq[j] = norms_sq[i]
            perm[i], perm[j] = perm[j], perm[i]
        re, im = col.real, col.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))
        if norm <= 1e-12 * fro:  # a dead column: Q and R keep their zeros
            continue
        r[i, i] = norm
        q_i = np.divide(col, norm, out=q_t[i])
        if i + 1 < n:
            proj = np.matmul(q_i.conj(), v[:, i + 1 :], out=r[i, i + 1 :])
            upd = outer[: m * (n - i - 1)].reshape(m, n - i - 1)
            v[:, i + 1 :] -= np.multiply(q_i[:, None], proj, out=upd)
            down = np.abs(proj)
            np.square(down, out=down)
            np.subtract(norms_sq[i + 1 :], down, out=down)
            np.maximum(down, 0.0, out=norms_sq[i + 1 :])
    return SqrdFactorization(q=np.ascontiguousarray(q_t.T), r=r, perm=perm)


def _require_finite(r: np.ndarray, z: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry of ``r`` and ``z`` is finite."""
    if np.count_nonzero(np.isfinite(r)) < r.size or np.count_nonzero(np.isfinite(z)) < z.size:
        raise ValueError("the observation and the triangular factor must be finite")


def _order(v0: float, v1: float, v2: float, v3: float) -> tuple[tuple, tuple]:
    """A level's four child metrics, point q's at [q], in ``sorted((metric, q))`` order.

    Returns the sorted metrics and their QPSK indices. Points 0 and 1 share a
    real coordinate, and so do 2 and 3: each pair is put in order, then the
    two pairs are merged. A tie goes to the lower index, and since no
    comparison holds for NaN, an all-NaN level keeps index order.
    """
    if v1 < v0:
        a0, a1, i0, i1 = v1, v0, 1, 0
    else:
        a0, a1, i0, i1 = v0, v1, 0, 1
    if v3 < v2:
        b0, b1, j0, j1 = v3, v2, 3, 2
    else:
        b0, b1, j0, j1 = v2, v3, 2, 3
    if b0 < a0:
        if b1 < a0:
            return (b0, b1, a0, a1), (j0, j1, i0, i1)
        if b1 < a1:
            return (b0, a0, b1, a1), (j0, i0, j1, i1)
        return (b0, a0, a1, b1), (j0, i0, i1, j1)
    if b0 < a1:
        if b1 < a1:
            return (a0, b0, b1, a1), (i0, j0, j1, i1)
        return (a0, b0, a1, b1), (i0, j0, i1, j1)
    return (a0, a1, b0, b1), (i0, i1, j0, j1)


def _row_lists(r_mat: np.ndarray) -> tuple[list, list]:
    """R's rows and its real diagonal as Python scalars, the form :func:`_search` reads."""
    return r_mat.tolist(), r_mat.diagonal().real.tolist()


def _search(rows, diag, zs, path, raw, base, best, level):
    """The depth-first search of :func:`sphere_decode`, from the expansion of ``level``.

    ``rows`` and ``diag`` come from :func:`_row_lists`, and ``zs`` is z as
    Python complex numbers. ``path[l]`` is the QPSK index taken at level l,
    ``base[l]`` the level's partial metric, that of the path above it, and
    ``raw[l]`` its four child metrics, point q's at [q]. Every level above
    ``level`` is open on its first child. For ``level`` itself, ``raw`` holds
    the metrics the vectorized first descent formed, or ``None`` for the
    search to form them. ``best`` is the radius; while it is finite,
    ``path`` ends in the leaf it belongs to. The lists are updated in place.
    Returns the best leaf's indices, and the nodes and complex-multiplication
    units of the work done beyond the given state.

    The open levels are always the contiguous range level..n-1, so flat
    lists indexed by level hold them, and a depth of M*T levels needs no
    recursion. A level's best child comes from pairwise minima. Its other
    children are put in :func:`_order`'s order (``vals`` and ``kids``) only
    when the search comes back for its second; ``nxt`` is the rank of the
    next. Level 0 takes only its best child: once a leaf is taken, its
    siblings cannot beat the radius.
    """
    n = len(zs)
    up, down = _COORD
    pts = [_POINTS[q] for q in path]
    best_idx = path.copy()
    nxt, vals, kids = [1] * n, [None] * n, [None] * n
    v, acc = raw[level], base[level]
    nodes = cms = 0
    while True:
        if v is None:  # the expansion: n - 1 - level products, 4 candidates
            cms += n + 3 - level
            off = 0j
            row = rows[level]
            for j in range(level + 1, n):
                off += row[j] * pts[j]
            rhs = zs[level] - off
            re, im = rhs.real, rhs.imag
            d = diag[level]
            hi, lo = d * up, d * down  # R[l, l] times each coordinate value
            a, b = re - hi, re - lo
            re_hi, re_lo = a * a, b * b
            a, b = im - hi, im - lo
            im_hi, im_lo = a * a, b * b
            v = (re_hi + im_hi, re_hi + im_lo, re_lo + im_hi, re_lo + im_lo)
        v0, v1, v2, v3 = v
        q, m = (1, v1) if v1 < v0 else (0, v0)  # ties to the lower index
        if v3 < v2:
            if v3 < m:
                q, m = 3, v3
        elif v2 < m:
            q, m = 2, v2
        raw[level], base[level], nxt[level] = v, acc, 1
        v = None
        metric = acc + m
        while True:  # child q of level, at partial metric `metric`
            if metric >= best:  # sorted: the rest cannot beat the radius
                if best == math.inf:  # backtracking with no leaf found
                    raise ValueError(f"partial metric overflows at level {level}")
            else:
                path[level] = q
                nodes += 1
                if level:
                    pts[level] = _POINTS[q]
                    break
                if metric != metric:
                    raise ValueError("partial metric overflows to NaN")
                best = metric
                best_idx = path.copy()
            # back up to the deepest open level with an untried child
            level += 1
            while level < n and nxt[level] == 4:
                level += 1
            if level == n:
                return best_idx, nodes, cms
            k = nxt[level]
            if k == 1:
                vals[level], kids[level] = _order(*raw[level])
            nxt[level] = k + 1
            q = kids[level][k]
            metric = base[level] + vals[level][k]
        level -= 1
        acc = metric


def _decode(rows: list, diag: list, zs: list) -> tuple[list, int, int]:
    """:func:`_search` from scratch: no level open and an infinite radius."""
    n = len(zs)
    return _search(rows, diag, zs, [0] * n, [None] * n, [0.0] * n, math.inf, n - 1)


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
    must be upper triangular with a real nonnegative diagonal. A zero on it,
    a dead column of :func:`sqrd`, ties the four children, so the lowest
    index goes first.

    Raises ``ValueError`` on a non-finite entry of R or z, and on a partial
    metric that overflows: to infinity on any level before the first leaf
    (the radius would stay infinite and the search would visit every node
    above that level, or, at the top level, end with no leaf to answer
    with), or to NaN on any path.

    Bookkeeping per call: one node per child that survives the radius test,
    one complex-multiplication unit per off-diagonal product in the partial
    residuals and per candidate-symbol metric evaluation.

    The search state lives in Python scalars and flat lists indexed by level
    (see :func:`_search`, which :func:`detect_proposed` resumes from its
    vectorized first descent): a search visits a few dozen nodes on average,
    each with one child per QPSK point, too few for array calls to pay off.
    Every QPSK coordinate is +-1/sqrt(2), so a level's four metrics are sums
    of two real squares for the real part and two for the imaginary part.
    Partial residuals are summed left to right in Python complex arithmetic,
    so the result does not depend on the BLAS build.
    """
    r_mat = np.asarray(r_mat)
    z = np.asarray(z)
    if z.ndim != 1 or len(z) == 0:
        raise ValueError(f"expected a nonempty 1-D received vector, got shape {z.shape}")
    n = len(z)
    if r_mat.shape != (n, n):
        raise ValueError(f"triangular factor {r_mat.shape} does not match length {n}")
    _require_finite(r_mat, z)
    best_idx, nodes, cms = _decode(*_row_lists(r_mat), z.tolist())
    if stats is not None:
        stats.sd_nodes_visited += nodes
        stats.cm_count += cms
    return QPSK[best_idx]


def exhaustive_ml(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Brute-force argmin of ||y - H d||^2 over all QPSK vectors.

    Candidates are enumerated with the first coordinate as the most
    significant digit; ties keep the lexicographically smallest candidate
    index. Refuses instances with more than 2**20 candidates (ten QPSK
    symbols). An oracle for tests and demos: it certifies a decision as
    exactly ML. Raises ``ValueError`` unless ``h`` is a matrix and ``y`` a
    vector with one entry per row of ``h``.
    """
    y = np.asarray(y)
    h = np.asarray(h)
    if h.ndim != 2 or y.shape != h.shape[:1]:
        raise ValueError(
            f"expected a matrix and a vector of its row count, got {h.shape} and {y.shape}"
        )
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


def factorize_blocks(blocks: np.ndarray) -> SqrdFactorization:
    """Sorted QR of every block of a (K, MR, MT) stack, computed once per channel realization.

    Runs :func:`sqrd`'s modified Gram-Schmidt with min-norm pivoting on all K
    blocks at once and returns the factors stacked: ``q`` (K, MR, MT), ``r``
    (K, MT, MT) and ``perm`` (K, MT), all C-contiguous; the input is not
    modified. Block k's factors equal ``sqrd(blocks[k])`` bit for bit.
    Within an antenna the columns of an ICI-free block tie in exact
    arithmetic, so the pivot order rests on the last bit of every norm; each
    per-block reduction therefore goes through the same numpy/BLAS kernel
    that ``sqrd`` calls: the two real dot products of the contiguous pivot
    column, and the gemv of ``matmul`` on the strided columns of the
    C-ordered residual (also for its last column, which a contiguous copy
    would send to ``dot``), not ``einsum``, whose different summation order
    changes pivots. As in ``sqrd`` the work is in place: a pivot swap is one
    gather of the pivot columns and one scatter of column i into their
    place, each step's column of Q overwrites the residual column it was
    taken from, which is read no more, and the rank-one update runs column
    by column through one (K, MR) buffer allocated per call. No temporary
    is as large as the stack, so a realization allocates no more than its
    factors and their input copy. A block's dead columns, under ``sqrd``'s
    rank test, get a zero column of Q before the projection, so their row
    of R is zero and their update subtracts zeros. ``sqrd`` keeps its own
    serial loop: on the baseline's single large matrix a batch of one runs
    slower than it.
    """
    v = np.array(blocks, dtype=complex, order="C")
    if v.ndim != 3 or v.shape[1] < v.shape[2]:
        raise ValueError(f"expected a (K, rows, cols) stack of tall blocks, got shape {v.shape}")
    n_blk, m, n = v.shape
    r = np.zeros((n_blk, n, n), dtype=complex)
    perm = np.tile(np.arange(n), (n_blk, 1))
    # the rows one by one, as sqrd's sum adds them
    norms_sq = np.square(np.abs(v[:, 0]))
    for row in range(1, m):
        norms_sq += np.square(np.abs(v[:, row]))
    tol = 1e-12 * np.sqrt(norms_sq.sum(axis=1))
    upd = np.empty((n_blk, m), dtype=complex)  # each column's rank-one update
    every = np.arange(n_blk)
    for i in range(n):
        j = i + np.argmin(norms_sq[:, i:], axis=1)
        sw = np.flatnonzero(j != i)
        if sw.size:  # column i is read no more, so it takes j's place
            js = j[sw]
            col = v[every, :, j]  # the pivot columns, contiguous
            v[sw, :, js] = v[sw, :, i]
            if i:
                r[sw, :i, i], r[sw, :i, js] = r[sw, :i, js], r[sw, :i, i]
            norms_sq[sw, js] = norms_sq[sw, i]
            perm[sw, i], perm[sw, js] = perm[sw, js], perm[sw, i]
        else:
            col = v[:, :, i].copy()
        # per block the strided ddot of np.linalg.norm's x.real.dot(x.real)
        norm = np.sqrt(
            np.matmul(col.real[:, None, :], col.real[:, :, None])
            + np.matmul(col.imag[:, None, :], col.imag[:, :, None])
        )[:, 0, 0]
        r[:, i, i] = norm
        bad = np.flatnonzero(norm <= tol)
        if bad.size:  # dead columns: a zero column of Q, so a zero row of R
            r[bad, i, i] = 0.0
            col[bad] = 0.0
            norm[bad] = 1.0
        q_i = np.divide(col, norm[:, None], out=col)
        v[:, :, i] = q_i
        if i + 1 < n:
            # per block the gemv of q[:, i].conj() @ v[:, i + 1 :]
            proj = np.matmul(q_i.conj()[:, None, :], v[:, :, i + 1 :])[:, 0, :]
            r[:, i, i + 1 :] = proj
            for c in range(i + 1, n):
                v[:, :, c] -= np.multiply(q_i, proj[:, c - i - 1, None], out=upd)
            norms_sq[:, i + 1 :] = np.maximum(norms_sq[:, i + 1 :] - np.abs(proj) ** 2, 0.0)
    return SqrdFactorization(q=v, r=r, perm=perm)


@np.errstate(over="ignore", invalid="ignore")  # as silent as the decoder's Python floats
def _first_descent(r: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """First leaf of :func:`sphere_decode` for a stack of problems, its certificate and state.

    ``r`` (..., n, n) and ``z`` (..., n) broadcast over their leading axes.
    Going down from level n - 1, each problem takes its best Schnorr-Euchner
    child with the decoder's own float arithmetic: the off-diagonal terms
    are summed left to right from 0, and each complex product is formed as
    CPython forms it, re = ac - bd and im = ad + bc, from real ufuncs (a
    numpy complex product, ``einsum`` or ``matmul`` may round the last bit
    differently); ties go to the lower QPSK index. A problem is certified
    when its leaf metric is finite and, at every level, the second child's
    metric is at least the leaf's: ``sphere_decode`` then prunes every other
    branch and returns this leaf after n nodes. Returns the leaf's QPSK
    indices (..., n), the certified mask (...), each level's four child
    metrics, point q's at [q] (..., n, 4), each level's partial metric, that
    of the path above it (..., n), and the leaf metric (...): the state from
    which :func:`_search` resumes an uncertified problem. ``r`` must be
    finite, as :func:`sphere_decode` requires.

    Every pass runs over the problems, innermost, one level at a time: the
    level axes of ``r`` and ``z`` go first, and ``r`` broadcasts over the
    leading axes it lacks without being copied per problem. Each level's
    best two children come from pairwise minima, not a sort.
    """
    n = z.shape[-1]
    shape = np.broadcast_shapes(r.shape[:-2], z.shape[:-1])
    up, down = _COORD
    # r gets the problems' rank, so that its level-first view aligns with z's
    rt = np.moveaxis(r.reshape((1,) * (len(shape) + 2 - r.ndim) + r.shape), (-2, -1), (0, 1))
    rr, ri = rt.real, rt.imag
    zt = np.moveaxis(z, -1, 0)
    idx = np.empty((n,) + shape, dtype=np.intp)
    sr = np.empty((n,) + shape)  # the chosen points' real and imaginary parts
    si = np.empty((n,) + shape)
    child = np.empty((n, 4) + shape)
    acc = np.zeros((n + 1,) + shape)  # acc[l + 1] is level l's partial metric, acc[0] the leaf's
    second = np.full(shape, np.inf)  # the least second-child metric over the levels
    for lev in range(n - 1, -1, -1):
        re, im = zt[lev].real, zt[lev].imag
        if lev < n - 1:
            ar, ai = rr[lev, lev + 1 :], ri[lev, lev + 1 :]
            br, bi = sr[lev + 1 :], si[lev + 1 :]
            prod_r = ar * br - ai * bi
            prod_i = ar * bi + ai * br
            off_r = off_i = 0.0
            for j in range(n - 1 - lev):
                off_r = off_r + prod_r[j]
                off_i = off_i + prod_i[j]
            re = re - off_r
            im = im - off_i
        d = rr[lev, lev]
        hi, lo = d * up, d * down  # R[l, l] times each coordinate value
        re_hi, re_lo = re - hi, re - lo
        im_hi, im_lo = im - hi, im - lo
        re_hi, re_lo = re_hi * re_hi, re_lo * re_lo
        im_hi, im_lo = im_hi * im_hi, im_lo * im_lo
        # the four children's metrics, point q at [q], and the first two of
        # their stable sort, ties to the lower index; with R finite, a level's
        # metrics are all NaN or none is, and all NaN keep point 0 as the sort does
        v0 = np.add(re_hi, im_hi, out=child[lev, 0])
        v1 = np.add(re_hi, im_lo, out=child[lev, 1])
        v2 = np.add(re_lo, im_hi, out=child[lev, 2])
        v3 = np.add(re_lo, im_lo, out=child[lev, 3])
        low01, low23 = np.minimum(v0, v1), np.minimum(v2, v3)
        q_re = low23 < low01  # the chosen point's q >> 1 and q & 1
        q_im = np.where(q_re, v3 < v2, v1 < v0)
        runner = np.where(
            q_re, np.minimum(low01, np.maximum(v2, v3)), np.minimum(low23, np.maximum(v0, v1))
        )
        second = np.minimum(second, acc[lev + 1] + runner)
        np.add(acc[lev + 1], np.where(q_re, low23, low01), out=acc[lev])
        idx[lev] = 2 * q_re + q_im
        sr[lev] = np.where(q_re, down, up)
        si[lev] = np.where(q_im, down, up)
    leaf = acc[0]
    return (
        np.moveaxis(idx, 0, -1),
        (leaf < np.inf) & (second >= leaf),
        np.moveaxis(child, (0, 1), (-2, -1)),
        np.moveaxis(acc[1:], 0, -1),
        leaf,
    )


def detect_proposed(
    ybar: np.ndarray,
    factors: SqrdFactorization,
    f: PrototypeFilter,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Per-subcarrier ML detection of the QPSK data on the decoupled system.

    ``ybar`` is one receive-transformed observation of length K*M*R, or a
    (B, K*M*R) stack of B observations through the same channel
    realization, and ``factors`` their :func:`factorize_blocks` output under
    the filter ``f``, which gives K and M (T comes from the factors).
    Returns the detected data, T*D symbols per observation, with the
    input's stacking. All rotated observations Q_k^H ybar_k are formed in
    one batched product. The B*K subproblems of size MT then run one
    vectorized first descent of the sphere decoder (:func:`_first_descent`).
    Each subproblem it cannot certify resumes the scalar search at the first
    leaf, with that leaf's metric as the radius and every level above on its
    second child, so no subproblem runs its first descent twice; one whose
    leaf metric overflows runs from scratch, to raise as
    :func:`sphere_decode` does. R's rows become Python scalars once per
    subcarrier. Each subproblem is charged the first descent's n nodes and
    n(n - 1)/2 + 4n CM units once, plus what the resumed search visits, so
    decisions and node/CM counts are those of one sphere-decoder call per
    subproblem. All decisions go to data order in one
    scatter through the filter's :func:`data_permutation` map. The QR is plain
    and unregularized, so no noise power enters. Raises ``ValueError`` on a
    non-finite entry of ``ybar`` or of the triangular factors, and when the
    factors' column count is not a multiple of M.
    """
    k_sc, m_ss = f.n_subcarriers, f.n_subsymbols
    q, r, perm = factors.q, factors.r, factors.perm
    if q.ndim != 3 or q.shape[0] != k_sc or q.shape[2] % m_ss:
        raise ValueError(
            f"expected a stack of {k_sc} block factorizations of M*T columns, got shape {q.shape}"
        )
    _, rows, cols = q.shape
    ybar = np.asarray(ybar)
    if ybar.ndim not in (1, 2) or ybar.shape[-1] != k_sc * rows:
        raise ValueError("observation length does not match the block system")
    _require_finite(r, ybar)
    stack = ybar.reshape(-1, k_sc, rows, 1)
    z = np.matmul(q.conj().transpose(0, 2, 1), stack)[..., 0]
    idx, certified, child, partial, leaf = _first_descent(r, z)
    n_desc, nodes, cms = int(np.count_nonzero(certified)), 0, 0
    sel = np.nonzero(~certified)
    todo = (a.tolist() for a in (*sel, z[sel], idx[sel], child[sel], partial[sel], leaf[sel]))
    lists = {}  # each subcarrier's R as Python scalars, shared by the blocks
    for b, k, zs, path, raw, base, best in zip(*todo):
        if k not in lists:
            lists[k] = _row_lists(r[k])
        if math.isfinite(best):  # from the first leaf, every level above on its second child
            idx[b, k], n_k, cm_k = _search(*lists[k], zs, path, raw, base, best, 0)
            n_desc += 1
        else:  # from scratch, to raise where the search first overflows
            idx[b, k], n_k, cm_k = _decode(*lists[k], zs)
        nodes += n_k
        cms += cm_k
    if stats is not None:
        # each first descent once: n nodes, n(n - 1)/2 products and 4n candidates
        stats.sd_nodes_visited += nodes + n_desc * cols
        stats.cm_count += cms + n_desc * (cols * (cols - 1) // 2 + len(QPSK) * cols)
    s = QPSK[idx]
    # step i of block k decided the symbol at data position pos[k, i]
    pos = np.take_along_axis(data_permutation(f, cols // m_ss), perm, 1)
    d_hat = np.empty((len(stack), k_sc * cols), dtype=complex)
    d_hat[:, pos.reshape(-1)] = s.reshape(len(stack), -1)
    return d_hat.reshape(ybar.shape[:-1] + (-1,))


def baseline_factorization(h_full: np.ndarray, noise_power: float) -> SqrdFactorization:
    """MMSE-SQRD of the full stacked matrix.

    Sorted QR of the noise-regularized extension [H; sqrt(N0) * I]. Symbols
    have unit energy, so R^H R = perm'(H^H H + N0 I)perm; ``q`` is a view of
    the top RD rows of the extended Q, the only rows that apply to received
    data, and with N0 = 0 the factors are those of plain ``sqrd(h_full)``.
    Computed once per channel realization and SNR. A rank-deficient
    noiseless system gets dead columns, as :func:`sqrd` gives any matrix.
    """
    h_full = np.asarray(h_full, dtype=complex)
    eye = np.eye(h_full.shape[1], dtype=complex)
    fact = sqrd(np.vstack([h_full, math.sqrt(noise_power) * eye]))
    return SqrdFactorization(q=fact.q[: len(h_full)], r=fact.r, perm=fact.perm)


def detect_baseline_near_ml(
    y: np.ndarray,
    factor: SqrdFactorization,
    group_size: int,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Near-ML detection of the QPSK data on the full stacked system: grouped DFSD + SIC.

    ``y`` is one flattened observation of R*D samples, or a (B, R*D) stack,
    and ``factor`` a sorted-QR factor of the full RD x TD matrix whose ``q``
    has one row per received sample: its :func:`baseline_factorization`, or
    plain :func:`sqrd`. The T*D decisions per observation keep the input's
    stacking. The triangular system is processed bottom-up in groups of
    ``group_size`` symbols (TD gives one single group, i.e. exact ML on the
    rotated system): each group is sphere-decoded jointly, one call per
    observation, then cancelled from the remaining rows. Q^H y and the
    cancellations are stacked matrix-vector ``np.matmul`` calls, so each
    observation's result equals its own call's bit for bit. Raises
    ``ValueError`` on a non-finite entry of ``y`` or of the triangular factor.
    """
    y = np.asarray(y)
    n_obs, n = factor.q.shape
    if y.ndim not in (1, 2) or y.shape[-1] != n_obs:
        raise ValueError(f"expected {n_obs} received samples or a stack of them, got {y.shape}")
    group = int(group_size)
    if group < 1:
        raise ValueError("group size must be positive")
    _require_finite(factor.r, y)
    z = np.matmul(factor.q.conj().T, y.reshape(-1, n_obs, 1))[..., 0]
    s_sorted = np.zeros((len(z), n), dtype=complex)
    for hi in range(n, 0, -group):
        lo = max(hi - group, 0)
        z_adj = z[:, lo:hi]
        if hi < n:
            z_adj = z_adj - np.matmul(factor.r[lo:hi, hi:], s_sorted[:, hi:, None])[..., 0]
        for s_b, z_b in zip(s_sorted, z_adj):
            s_b[lo:hi] = sphere_decode(factor.r[lo:hi, lo:hi], z_b, stats)
    return s_sorted[:, np.argsort(factor.perm)].reshape(y.shape[:-1] + (n,))


def detect_ofdm(
    y: np.ndarray,
    ch: MimoChannel,
    stats: DetectionStats | None = None,
) -> np.ndarray:
    """Per-subcarrier detection for M = 1 blocks (A = inverse DFT matrix).

    The per-subcarrier receiver at K = D, M = 1, the path sweeps run for
    ``ofdm``: each of the D subcarriers is an R x T system, factored by
    :func:`factorize_blocks` and decoded by :func:`detect_proposed`. ``y``
    is the received (R, D) array, or a (B, R, D) stack through the channel;
    the T*D decisions per block are antenna-major, as the transmit data.
    """
    f = dirichlet_filter(ch.block_len, 1)
    factors = factorize_blocks(compute_blocks(ch, f))
    return detect_proposed(receive_transform(y, f), factors, f, stats)
