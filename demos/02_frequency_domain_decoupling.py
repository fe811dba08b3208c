"""Per-subcarrier decoupling of the stacked MIMO-GFDM matrix.

For an M-bin-window filter, the RD x TD end-to-end matrix turns into K
independent MR x MT blocks after a unitary receive transform and a data
reordering. The residual below is the relative Frobenius distance between
the dense end-to-end matrix and its block factorization; it is numerical
zero for the Dirichlet pulse and far from zero for the leaky rc(0.9).
Residuals below 1e-12 are rounding noise, whose digits depend on the BLAS
kernel, so they print as that bound.
"""

import numpy as np

from gfdmsim import (
    compute_blocks,
    dirichlet_filter,
    generate_channel,
    rc_filter,
    verify_decomposition,
)

k_sc, m_ss, n_tx, n_rx = 8, 2, 2, 2
d_len = k_sc * m_ss
ch = generate_channel(n_tx, n_rx, np.random.default_rng(1), d_len)

for name, filt in [
    ("dirichlet", dirichlet_filter(k_sc, m_ss)),
    ("rc(0.9)", rc_filter(k_sc, m_ss, 0.9)),
]:
    res = verify_decomposition(ch, filt)
    shown = "< 1e-12" if res < 1e-12 else f"{res:.3e}"
    print(f"{name:10s} factorization residual: {shown}")

filt = dirichlet_filter(k_sc, m_ss)
blocks = compute_blocks(ch, filt)
print(f"\nper-subcarrier blocks: {blocks.shape[0]} matrices of "
      f"{blocks.shape[1]}x{blocks.shape[2]}")
print("condition numbers:",
      np.array2string(np.linalg.cond(blocks), precision=1))

print("\nOFDM special case (M = 1): each block is just the per-subcarrier channel")
ch1 = generate_channel(2, 2, np.random.default_rng(2), 8)
b1 = compute_blocks(ch1, dirichlet_filter(8, 1))
print("max |block - H_f|:", np.abs(b1 - np.moveaxis(ch1.freq, 2, 0)).max())
