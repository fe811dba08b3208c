"""GFDM prototype filters and block modulation.

A GFDM block carries K subcarriers times M subsymbols in D = K*M samples.
Every pulse is a time/frequency shift of one prototype filter g, collected
column-wise into the D x D transmitter matrix A; :func:`fast_modulate`
computes A @ d for any filter without forming A. Filters whose frequency
response occupies at most M consecutive (cyclic) DFT bins admit, at the
receiver, per-subcarrier detection. A filter's :attr:`PrototypeFilter.support`
is that window, read from its spectrum; :func:`window_filter` builds any
member of the class from its window, whose length is M, and the Dirichlet
filter is its flat, orthogonal member. Grid values (K, M, a window start)
are integers, numpy's included; anything else raises ``ValueError``.

Conventions: the DFT matrix W_p is unitary ([W_p]_{mn} = exp(-2j*pi*m*n/p)/sqrt(p)),
the frequency-domain filter is g_f = sqrt(D) * W_D @ g (i.e. the plain FFT of g),
and all prototype filters are normalized to unit energy ||g|| = 1 so that every
column of A has unit norm.
"""

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class PrototypeFilter:
    """Unit-energy prototype pulse, held as its frequency response g_f.

    The pulse spans one block of D = K*M samples: ``n_subcarriers`` is K,
    and :attr:`n_subsymbols` is M = D // K. The time-domain pulse :attr:`g`,
    the M-bin window :attr:`support` and the per-subcarrier
    :attr:`block_factor` are derived from g_f, so none of them can disagree
    with it. The filter holds a read-only copy of g_f, so the pulse, the
    window and the block factor, each computed once per filter, stay those
    of its spectrum. A filter compares and hashes by identity, as g_f gives
    ``==`` no single truth value. Raises ``ValueError`` for a spectrum that
    is not 1-D and finite, or whose length is not a positive multiple of K.
    """

    g_f: np.ndarray
    n_subcarriers: int

    def __post_init__(self):
        g_f = np.array(self.g_f)
        if g_f.ndim != 1:
            raise ValueError(f"the filter spectrum must be 1-D, got shape {g_f.shape}")
        if not np.isfinite(g_f).all():
            raise ValueError("the filter spectrum must be finite")
        g_f.flags.writeable = False
        object.__setattr__(self, "g_f", g_f)
        object.__setattr__(self, "n_subcarriers", _integer("K", self.n_subcarriers))
        if self.n_subcarriers < 1 or self.length == 0 or self.length % self.n_subcarriers:
            raise ValueError(
                f"filter length {self.length} is not a positive multiple of "
                f"K = {self.n_subcarriers}"
            )

    @cached_property
    def g(self) -> np.ndarray:
        """Time-domain pulse, the inverse DFT of g_f, computed once per filter; read-only."""
        g = np.fft.ifft(self.g_f)
        g.flags.writeable = False
        return g

    @property
    def length(self) -> int:
        return len(self.g_f)

    @property
    def n_subsymbols(self) -> int:
        return self.length // self.n_subcarriers

    @cached_property
    def support(self) -> tuple[np.ndarray, int] | None:
        """The M-bin window (g_1, l) of g_f, or None if the spectrum has none.

        g_f[(l + i) % D] = g_1[i] for i < M and every other bin is exactly
        zero: the class the per-subcarrier receiver accepts. l is the
        :func:`dominant_window` start or, at K = 1, where every start holds
        the whole spectrum, the constructors' centred one, floor(M/2).
        An all-zero spectrum has no window.
        """
        m_ss, d = self.n_subsymbols, self.length
        if self.n_subcarriers == 1:
            start = m_ss // 2
        else:
            start = dominant_window(self.g_f, m_ss)
        g_1 = self.g_f[(start + np.arange(m_ss)) % d]
        inside = np.count_nonzero(g_1)
        if inside == 0 or inside < np.count_nonzero(self.g_f):
            return None
        return g_1, start

    @cached_property
    def block_factor(self) -> np.ndarray | None:
        """The M x M factor diag(g_1) * shift-up(l) * W_M / sqrt(K) of every per-subcarrier block.

        Computed once per filter from :attr:`support`, read-only; None when
        the spectrum has no M-bin window.
        """
        if self.support is None:
            return None
        g_1, shift = self.support
        m_ss = len(g_1)
        mm, nn = np.meshgrid(np.arange(m_ss), np.arange(m_ss), indexing="ij")
        w_m = np.exp(-2j * np.pi * mm * nn / m_ss) / math.sqrt(m_ss)
        # the exponent of the inner cyclic shift is the frequency-window start,
        # reduced mod M; confirmed against the dense factorization to 1e-12
        core = g_1[:, None] * np.roll(w_m, -shift, axis=0) / math.sqrt(self.n_subcarriers)
        core.flags.writeable = False
        return core


def _integer(name: str, value) -> int:
    """``value`` as a Python int; ``ValueError`` unless it is an integer (numpy's included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _grid(k, m) -> tuple[int, int]:
    """(K, M) as Python ints; ``ValueError`` unless both are positive integers."""
    k, m = _integer("K", k), _integer("M", m)
    if k < 1 or m < 1:
        raise ValueError(f"K and M must be positive, got K = {k}, M = {m}")
    return k, m


def window_filter(k: int, g_1, shift: int) -> PrototypeFilter:
    """Unit-energy K x M filter whose spectrum is the window g_1 on M = len(g_1) cyclic bins.

    g_f holds g_1, scaled to unit pulse energy, on bins shift, ...,
    shift + M - 1 (mod D = K*M) and zero elsewhere, so the filter is ICI-free
    by construction; :func:`dirichlet_filter` is the flat window. Its
    :attr:`PrototypeFilter.support` starts at shift mod D when no bin of g_1
    is zero. Raises ``ValueError`` for a K or shift that is not an integer,
    for K < 1, for a g_1 that is not 1-D and nonempty, and for a window of
    zero or non-finite energy.
    """
    g_1 = np.asarray(g_1, dtype=complex)
    if g_1.ndim != 1:
        raise ValueError(f"window must be 1-D, got shape {g_1.shape}")
    k, m = _grid(k, len(g_1))
    d_len = k * m
    shift = _integer("shift", shift) % d_len
    g_f = np.zeros(d_len, dtype=complex)
    g_f[(shift + np.arange(m)) % d_len] = g_1
    energy = np.linalg.norm(g_f)
    if not 0.0 < energy < math.inf:
        raise ValueError(f"window must have finite, nonzero energy, got norm {energy}")
    # g_f = fft(g), so Parseval fixes ||g_f|| = sqrt(D) for unit-energy g
    scale = math.sqrt(d_len) / energy
    return PrototypeFilter(g_f=g_f * scale, n_subcarriers=k)


def dirichlet_filter(k: int, m: int) -> PrototypeFilter:
    """Flat M-bin frequency window: the orthogonal, ICI-free GFDM pulse.

    The window holds sqrt(D/M) on M consecutive bins starting at
    l = floor(M/2), zero elsewhere; the time-domain pulse is its
    inverse DFT. For M = 1 this is the OFDM rectangular pulse and A equals
    the inverse DFT matrix.
    """
    k, m = _grid(k, m)
    return window_filter(k, [1] * m, m // 2)


def rc_filter(k: int, m: int, alpha: float) -> PrototypeFilter:
    """Raised-cosine prototype, realized as a frequency-domain amplitude taper.

    The taper is centered on the Dirichlet window of the same (K, M): flat
    over (1 - alpha)*M bins, cosine roll-off out to a total width of
    (1 + alpha)*M bins. For alpha <= 1/M the roll-off ends inside the
    Dirichlet window and the filter is exactly the Dirichlet rectangle; for
    larger alpha (and M > 1) the response spills outside every M-bin window,
    so the filter is not ICI-free and has no :attr:`PrototypeFilter.support`:
    :func:`fast_modulate` sends it, but only the dense receiver detects it.
    Raises ``ValueError`` for a roll-off that is not a real number in [0, 1].
    """
    if not isinstance(alpha, numbers.Real):
        raise ValueError(f"roll-off must be a real number, got {alpha!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"roll-off must lie in [0, 1], got {alpha}")
    k, m = _grid(k, m)
    d = k * m
    center = m // 2 + (m - 1) / 2.0
    # signed cyclic bin distance from the window center, in (-D/2, D/2]
    offsets = (np.arange(d) - center + d / 2.0) % d - d / 2.0
    x = np.abs(offsets)
    flat = (1.0 - alpha) * m / 2.0
    edge = (1.0 + alpha) * m / 2.0
    g_f = np.zeros(d)
    g_f[x <= flat] = 1.0
    if alpha > 0.0:
        roll = (x > flat) & (x < edge)
        g_f[roll] = 0.5 * (1.0 + np.cos(np.pi * (x[roll] - flat) / (alpha * m)))
    g_f = g_f.astype(complex) * (math.sqrt(d) / np.linalg.norm(g_f))
    return PrototypeFilter(g_f=g_f, n_subcarriers=k)


def dominant_window(g_f: np.ndarray, m: int) -> int:
    """The start l of the cyclic M-bin window of ``g_f`` that holds the most energy.

    The window is g_f[(l + i) % D] for i < M; ties resolve to the smallest
    start. Requires M <= D.
    """
    energy = np.abs(g_f) ** 2
    sums = np.convolve(np.concatenate([energy, energy[: m - 1]]), np.ones(m), "valid")[: len(g_f)]
    return int(np.argmax(sums))


def _shifted_pulses(f: PrototypeFilter, m: np.ndarray) -> np.ndarray:
    """The pulse moved to subsymbol m, g[(n - m*K) % D]: n down the rows, m along the columns."""
    n = np.arange(f.length)[:, None]
    return f.g[(n - m * f.n_subcarriers) % f.length]


def build_transmitter_matrix(f: PrototypeFilter) -> np.ndarray:
    """Assemble the dense D x D GFDM matrix A column by column.

    Column m*K + k pulse-shapes subsymbol m of subcarrier k:
    A[n, m*K + k] = g[(n - m*K) % D] * exp(2j*pi*k*n/K).
    """
    k_sc, d = f.n_subcarriers, f.length
    n = np.arange(d)
    cols = np.arange(d)
    phase = np.exp(2j * np.pi * (cols % k_sc)[None, :] * n[:, None] / k_sc)
    return _shifted_pulses(f, cols // k_sc) * phase


def fast_modulate(d: np.ndarray, f: PrototypeFilter) -> np.ndarray:
    """GFDM modulation ``A @ d`` for any prototype filter, in O(M*D).

    x[n] = sum_m g[(n - m*K) % D] * sum_k d[m*K + k] * exp(2j*pi*k*n/K): the
    inner sum is the K-point inverse DFT of subsymbol m's symbols, repeated
    M times over the block, and each subsymbol's copy is shaped by the pulse
    moved to it. ``d`` is one block of D symbols or a ``(..., D)`` stack of
    them (one row per transmit antenna, say); every block is modulated along
    the last axis with the same arithmetic. Data ordering matches the dense
    matrix (index m*K + k holds subsymbol m of subcarrier k).
    """
    k_sc, m_ss, d_len = f.n_subcarriers, f.n_subsymbols, f.length
    d = np.asarray(d, dtype=complex)
    if d.shape[-1:] != (d_len,):
        raise ValueError(f"data shape {d.shape} does not end in the block length {d_len}")
    tones = np.fft.ifft(d.reshape(*d.shape[:-1], m_ss, k_sc), axis=-1, norm="forward")
    pulses = _shifted_pulses(f, np.arange(m_ss))
    return sum(np.tile(tones[..., m, :], m_ss) * pulses[:, m] for m in range(m_ss))
