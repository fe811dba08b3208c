"""One noisy block through both receivers, checked against brute force.

The per-subcarrier receiver factors K small blocks and sphere-decodes each;
the conventional receiver factors the whole RD x TD matrix once and
alternates grouped sphere decoding with interference cancellation. On this
tiny instance the exhaustive search over all 4^8 = 65536 candidate vectors
is feasible and certifies the per-subcarrier result as exactly ML.
"""

import numpy as np

from gfdmsim import (
    QPSK,
    DetectionStats,
    apply_channel,
    assemble_full_matrix,
    baseline_factorization,
    build_transmitter_matrix,
    compute_blocks,
    detect_baseline_near_ml,
    detect_proposed,
    dirichlet_filter,
    exhaustive_ml,
    factorize_blocks,
    fast_modulate,
    generate_channel,
    receive_transform,
)

k_sc, m_ss, n_tx, n_rx = 2, 2, 2, 2
d_len = k_sc * m_ss
rng = np.random.default_rng(7)

filt = dirichlet_filter(k_sc, m_ss)
ch = generate_channel(n_tx, n_rx, rng, d_len)
h_full = assemble_full_matrix(ch, build_transmitter_matrix(filt))

data = QPSK[rng.integers(0, len(QPSK), n_tx * d_len)]
x = fast_modulate(data.reshape(n_tx, d_len), filt)
noise_power = 10.0 ** (-8.0 / 10.0)  # 8 dB
y = apply_channel(x, ch, noise_power, rng)

# factor once per channel realization, then detect the block
factors = factorize_blocks(compute_blocks(ch, filt))
factor = baseline_factorization(h_full, noise_power)
stats = DetectionStats()
d_fast = detect_proposed(receive_transform(y, filt), factors, filt, stats)
d_base = detect_baseline_near_ml(y, factor, m_ss * n_tx)
d_ml = exhaustive_ml(y.reshape(-1), h_full)

print("sent:                ", np.round(data, 3))
print("per-subcarrier ML:   ", np.round(d_fast, 3))
print("grouped SIC baseline:", np.round(d_base, 3))
print()
print("per-subcarrier == exhaustive ML:", np.array_equal(d_fast, d_ml))
print(f"symbol errors: per-subcarrier {np.sum(d_fast != data)}, baseline {np.sum(d_base != data)}")
print(f"sphere decoder visited {stats.sd_nodes_visited} nodes "
      f"({stats.cm_count} complex multiplications) vs 65536 exhaustive candidates")
