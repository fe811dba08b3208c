"""Seeded Monte Carlo SER sweep comparing three receivers at desk scale.

Sweeps share one master seed, so every scheme sees identical channels, data,
and noise; differences in the table are purely algorithmic. Writes the CSV
report ser_sweep.csv to the current directory. Takes roughly half a minute.
"""

from gfdmsim import SimConfig, run_sweep, write_report

SNR_GRID = (0.0, 4.0, 8.0, 12.0, 16.0)
COMMON = dict(
    n_subcarriers=8,
    n_subsymbols=2,
    n_tx=2,
    n_rx=2,
    snr_db=SNR_GRID,
    n_channels=30,
    n_blocks=10,
    seed=0,
)

records = []
for scheme, alpha in (
    ("proposed_dirichlet", None),
    ("baseline_dirichlet", None),
    ("baseline_rc", 0.9),
):
    records += run_sweep(SimConfig(scheme=scheme, alpha=alpha, **COMMON))

header = "snr_db " + "".join(f"{s:>22s}" for s in ("proposed_dirichlet", "baseline_dirichlet", "baseline_rc"))
print(header)
for snr in SNR_GRID:
    row = [r for r in records if r.snr_db == snr]
    by_scheme = {r.config.scheme: r for r in row}
    cells = "".join(
        f"{by_scheme[s].ser:>22.5f}"
        for s in ("proposed_dirichlet", "baseline_dirichlet", "baseline_rc")
    )
    print(f"{snr:6.1f}{cells}")

write_report(records, "ser_sweep.csv")
print("\nwrote ser_sweep.csv")
