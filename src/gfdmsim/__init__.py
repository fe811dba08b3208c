"""MIMO-GFDM spatial multiplexing with frequency-domain decoupling.

Library layers, bottom up: prototype filters and block modulation
(:mod:`gfdmsim.waveform`), Rayleigh MIMO channels (:mod:`gfdmsim.channel`),
the per-subcarrier block factorization (:mod:`gfdmsim.decoupling`),
sorted-QR/sphere-decoding receivers (:mod:`gfdmsim.detect`), and the seeded
Monte Carlo harness with CSV reporting (:mod:`gfdmsim.simulate`). The
``gfdmsim`` console script exposes `simulate`, `complexity`, and `verify`.
"""

from .channel import (
    MimoChannel,
    apply_channel,
    assemble_full_matrix,
    build_circulant,
    generate_channel,
    power_delay_profile,
    snr_db_to_noise_power,
)
from .decoupling import (
    compute_blocks,
    data_permutation,
    inverse_data_permutation,
    receive_transform,
    verify_decomposition,
)
from .detect import (
    QPSK,
    DetectionStats,
    SqrdFactorization,
    baseline_factorization,
    detect_baseline_near_ml,
    detect_ofdm,
    detect_proposed,
    exhaustive_ml,
    factorize_blocks,
    sphere_decode,
    sqrd,
)
from .simulate import (
    SimConfig,
    TrialRecord,
    parse_config,
    run_sweep,
    serialize_config,
    closed_form_cm,
    write_report,
)
from .waveform import (
    PrototypeFilter,
    build_transmitter_matrix,
    dirichlet_filter,
    fast_modulate,
    ici_free_support,
    rc_filter,
)

__version__ = "0.1.0"
