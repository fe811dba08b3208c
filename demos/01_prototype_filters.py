"""Prototype filters: frequency-domain windows, orthogonality, fast modulation.

Builds the Dirichlet and raised-cosine pulses for a small GFDM block, shows
which of them occupy an M-bin frequency window (the property that later
decouples detection), and cross-checks the modulator against the dense
matrix for every filter. Deviations below 1e-12 are rounding noise, whose
digits depend on the BLAS kernel, so they print as that bound.
"""

import numpy as np

from gfdmsim import (
    build_transmitter_matrix,
    dirichlet_filter,
    fast_modulate,
    rc_filter,
)


def deviation(value: float) -> str:
    return "< 1e-12" if value < 1e-12 else f"= {value:.2e}"


k_sc, m_ss = 8, 4
d_len = k_sc * m_ss
print(f"block: K={k_sc} subcarriers x M={m_ss} subsymbols = D={d_len} samples\n")

for name, filt in [
    ("dirichlet", dirichlet_filter(k_sc, m_ss)),
    ("rc(0.0)", rc_filter(k_sc, m_ss, 0.0)),
    ("rc(0.5)", rc_filter(k_sc, m_ss, 0.5)),
    ("rc(0.9)", rc_filter(k_sc, m_ss, 0.9)),
]:
    window = filt.support
    nonzero = np.sum(np.abs(filt.g_f) > 1e-9)
    a = build_transmitter_matrix(filt)
    gram_dev = np.abs(a.conj().T @ a - np.eye(d_len)).max()
    print(f"{name:10s} nonzero FD bins: {nonzero:2d}  "
          f"M-bin window: {'yes, start ' + str(window[1]) if window else 'no'}  "
          f"|A^H A - I|_max {deviation(gram_dev)}")

print("\nfast modulator vs dense matrix on random data:")
rng = np.random.default_rng(0)
d = rng.standard_normal(d_len) + 1j * rng.standard_normal(d_len)
for name, filt in [
    ("dirichlet", dirichlet_filter(k_sc, m_ss)),
    ("rc(0.9)", rc_filter(k_sc, m_ss, 0.9)),
]:
    a = build_transmitter_matrix(filt)
    err = np.linalg.norm(a @ d - fast_modulate(d, filt)) / np.linalg.norm(a @ d)
    print(f"{name:10s} relative error {deviation(err)}")
print("(one K-point IFFT per subsymbol, shaped by the pulse moved to it: O(M*D))")
