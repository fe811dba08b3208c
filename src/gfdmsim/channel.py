"""Frequency-selective MIMO channels: generation, application, dense oracles.

Channels are modeled after cyclic-prefix removal, where the dispersive link
between each transmit/receive antenna pair is exactly a circular convolution
with its impulse response. Every antenna pair fades independently (Rayleigh)
with a common exponential power delay profile of max(1, D // 8) taps,
normalized to unit total power; the circular model stands for a cyclic
prefix that covers this memory.

All randomness flows through explicitly passed ``numpy.random.Generator``
streams; identical streams reproduce channels and noise bit for bit.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .waveform import _integer


def power_delay_profile(block_len: int) -> np.ndarray:
    """Tap powers of a ``block_len``-sample block's channel, summing to one.

    The channel has max(1, D // 8) taps, the memory a D // 8 cyclic prefix
    covers. Powers fall linearly in dB from 0 dB at tap 0 to -10 dB at the
    last tap and are normalized to unit total power; a single tap is [1.0].
    """
    n = max(1, block_len // 8)
    if n == 1:
        return np.ones(1)
    ramp = 10.0 ** (-(10.0 / (n - 1)) * np.arange(n) / 10.0)
    return ramp / ramp.sum()


@dataclass(frozen=True, eq=False)
class MimoChannel:
    """One realization of an R x T channel over blocks of ``block_len`` samples.

    taps[r, t] holds the impulse response of the (receive r, transmit t) pair;
    freq[r, t] its ``block_len``-point DFT (the eigenvalues of the corresponding
    circulant matrix), derived once from the taps. Both are read-only, and
    taps is a copy of the input. Raises ``ValueError`` unless ``block_len``
    is an integer (numpy's included, stored as an int) and the taps are
    (R, T, n_taps) with R, T >= 1 and 1 <= n_taps <= ``block_len``. A channel compares and
    hashes by identity, as its arrays give ``==`` no single truth value.
    """

    taps: np.ndarray  # (R, T, n_taps) complex
    block_len: int
    freq: np.ndarray = field(init=False)  # (R, T, block_len) complex

    def __post_init__(self):
        object.__setattr__(self, "block_len", _integer("block_len", self.block_len))
        taps = np.array(self.taps, dtype=complex)
        if taps.ndim != 3 or 0 in taps.shape[:2] or not 1 <= taps.shape[2] <= self.block_len:
            raise ValueError(
                f"taps must be (R, T, n_taps) with R, T >= 1 and 1 <= n_taps <= {self.block_len}, "
                f"got shape {taps.shape}"
            )
        freq = np.fft.fft(taps, n=self.block_len, axis=2)
        taps.flags.writeable = freq.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "freq", freq)

    @property
    def n_rx(self) -> int:
        return self.taps.shape[0]

    @property
    def n_tx(self) -> int:
        return self.taps.shape[1]


def generate_channel(
    n_tx: int,
    n_rx: int,
    rng: np.random.Generator,
    block_len: int,
) -> MimoChannel:
    """Draw spatially uncorrelated Rayleigh taps for ``block_len``-sample blocks.

    Tap i of every antenna pair is circularly-symmetric complex Gaussian with
    variance ``power_delay_profile(block_len)[i]``, so the expected total
    power per pair is one.
    """
    powers = power_delay_profile(block_len)
    shape = (n_rx, n_tx, len(powers))
    scale = np.sqrt(powers / 2.0)
    taps = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    return MimoChannel(taps, block_len)


def apply_channel(
    x: np.ndarray,
    ch: MimoChannel,
    noise_power: float,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
) -> np.ndarray:
    """Pass T transmit blocks through the channel and add complex AWGN.

    x has shape (T, D); the result (R, D) is the sum of per-pair circular
    convolutions plus noise with per-sample variance ``noise_power``
    (equivalent to CP insertion, linear convolution, CP removal). A
    (B, T, D) stack of B blocks gives a (B, R, D) stack and takes one
    generator per block in ``rng``: block b's noise is drawn from ``rng[b]``
    exactly as a one-block call draws it, so the stack equals B one-block
    calls bit for bit. Raises ``ValueError`` unless 0 <= ``noise_power`` < inf,
    and when noise is drawn without exactly one generator per block.
    """
    if not 0.0 <= noise_power < np.inf:
        raise ValueError(f"noise power must be finite and nonnegative, got {noise_power}")
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    d = ch.block_len
    if x.ndim > 3 or x.shape[-2:] != (ch.n_tx, d):
        raise ValueError(
            f"expected transmit array of shape {(ch.n_tx, d)} or a stack of them, got {x.shape}"
        )
    xf = np.fft.fft(x, axis=-1)
    y = np.fft.ifft(np.einsum("rtd,...td->...rd", ch.freq, xf), axis=-1)
    if noise_power > 0.0:
        streams = rng if x.ndim == 3 else [rng]
        valid = isinstance(streams, Sequence) and len(streams) == x.size // (ch.n_tx * d)
        if not valid or not all(isinstance(g, np.random.Generator) for g in streams):
            raise ValueError("one random stream per block is required when noise_power > 0")
        shape = y.shape[-2:]
        noise = np.array([g.standard_normal(shape) + 1j * g.standard_normal(shape) for g in streams])
        y = y + noise.reshape(y.shape) * np.sqrt(noise_power / 2.0)
    return y


def build_circulant(taps: np.ndarray, d: int) -> np.ndarray:
    """Dense (..., D, D) circulants whose first columns are the zero-padded (..., n_taps) taps."""
    taps = np.asarray(taps, dtype=complex)
    if taps.shape[-1] > d:
        raise ValueError(f"{taps.shape[-1]} taps do not fit a {d}-point block")
    col = np.zeros(taps.shape[:-1] + (d,), dtype=complex)
    col[..., : taps.shape[-1]] = taps
    n = np.arange(d)
    return col[..., (n[:, None] - n[None, :]) % d]


def assemble_full_matrix(ch: MimoChannel, a: np.ndarray) -> np.ndarray:
    """Dense RD x TD end-to-end matrix with blocks H_{r,t} @ A; the baseline detects on it."""
    d = ch.block_len
    if a.shape != (d, d):
        raise ValueError(f"modulation matrix must be {d} x {d}, got {a.shape}")
    blocks = np.matmul(build_circulant(ch.taps, d), a)  # (R, T, D, D), one gemm per pair
    return blocks.transpose(0, 2, 1, 3).reshape(ch.n_rx * d, ch.n_tx * d)


def snr_db_to_noise_power(snr_db: float) -> float:
    """Noise power N0 for a target per-antenna SNR = Es/N0 with unit symbol energy Es.

    Channels have unit average power and the prototype filter unit energy, so
    Es/N0 is the receive-side symbol SNR. CP overhead is excluded; +inf dB
    gives N0 = 0. Raises ``ValueError`` below about -3082.5 dB, where N0 leaves
    the float range.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return 0.0
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"SNR {snr_db} dB gives a noise power beyond the float range") from None
