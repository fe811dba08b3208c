"""Frequency-domain decoupling of the stacked MIMO-GFDM system.

For a prototype filter whose frequency response lives in M consecutive
(cyclic) bins starting at index l, its ``support`` (g_1, l), the RD x TD
end-to-end matrix factors as U^H * blkdiag(F_0 .. F_{K-1}) * P: U combines
per-antenna FFTs, an l-bin cyclic shift, and a subcarrier/antenna interleave;
P is a pure reordering of the transmit symbols; and each F_k is the MR x MT
matrix coupling only the symbols of subcarrier k. Both U and P are unitary,
so white noise stays white and per-subcarrier ML detection equals joint ML
detection. The filter is the only grid: K, M and l are all read from it.

Permutations are index maps applied in O(1) per element; dense matrices are
built only by the diagnostic/verification helpers.
"""

import math

import numpy as np

from .channel import MimoChannel, assemble_full_matrix
from .waveform import PrototypeFilter, build_transmitter_matrix, dominant_window


def receive_transform(y: np.ndarray, f: PrototypeFilter) -> np.ndarray:
    """Apply the unitary receive-side transform to R blocks of D samples.

    Each antenna stream is FFT'd (unitary normalization) and cyclically
    shifted up by the window start l of ``f``; the R spectra are then
    interleaved so that the k-th group of M*R entries collects the M bins of
    subcarrier k from every antenna. An (R, D) block gives a vector of R*D
    entries; a (B, R, D) stack gives (B, R*D), row b equal to block b's
    transform bit for bit. Costs O(R D log D) per block; raises
    ``ValueError`` for a filter without an M-bin window.
    """
    if f.support is None:
        raise ValueError("the receive transform requires a filter with an M-bin window")
    k_sc, m_ss, d = f.n_subcarriers, f.n_subsymbols, f.length
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    if y.ndim > 3 or y.shape[-1] != d:
        raise ValueError(f"expected blocks of {d} samples, got shape {y.shape}")
    spec = np.fft.fft(y, axis=-1) / math.sqrt(d)
    spec = np.roll(spec, -f.support[1], axis=-1)
    lead, n_rx = y.shape[:-2], y.shape[-2]
    spec = np.swapaxes(spec.reshape(*lead, n_rx, k_sc, m_ss), -3, -2)
    return spec.reshape(*lead, n_rx * d)


def data_permutation(f: PrototypeFilter, n_tx: int) -> np.ndarray:
    """The data reordering P as a (K, M*T) index map read from the filter.

    Entry [k, t*M + m] is t*D + m*K + k, the position in the stacked
    transmit data of the symbol that column t*M + m of block k multiplies.
    """
    k_sc, m_ss = f.n_subcarriers, f.n_subsymbols
    grid = np.arange(n_tx * f.length).reshape(n_tx, m_ss, k_sc)
    return grid.transpose(2, 0, 1).reshape(k_sc, n_tx * m_ss)


def compute_blocks(ch: MimoChannel, f: PrototypeFilter) -> np.ndarray:
    """Per-subcarrier MR x MT matrices from the analytic window formula.

    Returns the C-contiguous (K, M*R, M*T) stack whose block k stacks, over
    antenna pairs, diag of the M channel-frequency gains at subcarrier k
    times the filter's :attr:`~gfdmsim.waveform.PrototypeFilter.block_factor`, the
    window/DFT factor they all share. Costs O(K M^2 T R) given the
    channel's precomputed frequency response; no dense D x D products are
    formed. The products run with the subcarrier axis innermost, as
    (M, M, R, T, K), and one transposing copy gives the stack.
    """
    if f.support is None:
        raise ValueError("per-subcarrier blocks require a filter with an M-bin window")
    if ch.block_len != f.length:
        raise ValueError("channel block length does not match the filter length")
    shift = f.support[1]
    k_sc, m_ss = f.n_subcarriers, f.n_subsymbols
    r, t = ch.n_rx, ch.n_tx
    core = f.block_factor
    # gains[m, :, :, k] is the channel at bin l + k*M + m
    gains = np.roll(ch.freq, -shift, axis=2).reshape(r, t, k_sc, m_ss).transpose(3, 0, 1, 2)
    # the gain is the first factor, as complex products need not commute
    blocks = np.multiply(gains[:, None], core[:, :, None, None, None])  # (M, M, R, T, K)
    blocks = np.ascontiguousarray(blocks.transpose(4, 2, 0, 3, 1))  # (K, R, M, T, M)
    return blocks.reshape(k_sc, r * m_ss, t * m_ss)


def verify_decomposition(ch: MimoChannel, f: PrototypeFilter) -> float:
    """Relative Frobenius residual ||U H - B P|| / ||H|| of the block factorization.

    H is the dense RD x TD end-to-end matrix from circulant blocks and the
    dense transmitter matrix; U, B and P are the receiver's own
    :func:`receive_transform`, :func:`compute_blocks` and :func:`data_permutation`.
    A filter without an M-bin window is first projected on that class: the
    receiver runs on the filter that keeps only the bins of its dominant
    window, so the residual measures how far the filter is from the class.
    Returns 0 for an all-zero channel by convention. Diagnostic/test use only.
    """
    k_sc, m_ss, d = f.n_subcarriers, f.n_subsymbols, f.length
    h_full = assemble_full_matrix(ch, build_transmitter_matrix(f))
    denom = np.linalg.norm(h_full)
    if denom == 0.0:
        return 0.0
    if f.support is None:
        in_window = (np.arange(d) - dominant_window(f.g_f, m_ss)) % d < m_ss
        f = PrototypeFilter(g_f=np.where(in_window, f.g_f, 0), n_subcarriers=k_sc)
    # every column in one transform; C order, as the norm below sums in memory order
    lhs = np.ascontiguousarray(receive_transform(h_full.T.reshape(-1, ch.n_rx, d), f).T)
    # B P holds block k in its M*R rows and in the columns of its data
    rhs = np.zeros_like(lhs)
    rows = np.arange(len(lhs)).reshape(k_sc, -1, 1)
    rhs[rows, data_permutation(f, ch.n_tx)[:, None, :]] = compute_blocks(ch, f)
    return float(np.linalg.norm(lhs - rhs) / denom)
