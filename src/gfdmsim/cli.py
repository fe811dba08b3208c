"""Command-line front end: `simulate`, `complexity`, and `verify` subcommands."""

import argparse
import os
import sys

import numpy as np

from . import channel as chan
from .decoupling import verify_decomposition
from .simulate import ConfigError, parse_config, run_sweep, closed_form_cm, write_report
from .waveform import dirichlet_filter

# block lengths beyond this run the full-matrix baseline into minutes-to-hours
# of MMSE-SQRD work and must be requested explicitly
LARGE_BLOCK_LEN = 64

VERIFY_GRID = ((4, 2, 2, 2), (8, 2, 2, 2), (4, 4, 2, 2), (8, 4, 2, 3))
VERIFY_TOL = 1e-10


def _residual(value: float) -> str:
    # rounding noise below 1e-12 has digits that depend on the BLAS kernel
    return "< 1e-12" if value < 1e-12 else f"{value:.3e}"


def _cmd_simulate(args) -> int:
    overrides = {}
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    if args.snr is not None:
        overrides["snr_db"] = args.snr
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    try:
        cfg = parse_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.block_len > LARGE_BLOCK_LEN and not args.large:
        print(
            f"error: block length D = {cfg.block_len} exceeds the desk-scale limit "
            f"of {LARGE_BLOCK_LEN}; pass --large to run it anyway",
            file=sys.stderr,
        )
        return 2
    if args.large and cfg.block_len > LARGE_BLOCK_LEN:
        print(
            f"warning: D = {cfg.block_len} is full scale; the full-matrix baseline "
            "factorization is intentionally expensive at this size",
            file=sys.stderr,
        )
    out = args.out or cfg.out or "results.csv"
    out_dir = os.path.dirname(out) or "."
    if not os.path.isdir(out_dir):
        print(f"error: output directory '{out_dir}' does not exist", file=sys.stderr)
        return 2
    if os.path.isdir(out):
        print(f"error: output path '{out}' is a directory", file=sys.stderr)
        return 2
    records = run_sweep(cfg)
    write_report(records, out)
    for rec in records:
        print(
            f"snr={rec.snr_db:g} dB  scheme={rec.config.scheme}  ser={rec.ser:.6g}  "
            f"sd_nodes_avg={rec.sd_nodes_avg:.6g}"
        )
    print(f"wrote {out}")
    return 0


def _cmd_complexity(args) -> int:
    try:
        cm_sqrd, cm_sic = closed_form_cm(args.scheme, args.K, args.M, args.T, args.R)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"scheme={args.scheme} K={args.K} M={args.M} T={args.T} R={args.R}")
    print(f"cm_sqrd={cm_sqrd}")
    print(f"cm_sic={cm_sic}")
    return 0


def _cmd_verify(args) -> int:
    for flag, value, least in (("--channels", args.channels, 1), ("--seed", args.seed, 0)):
        if value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 2
    worst = 0.0
    for k, m, t, r in VERIFY_GRID:
        filt = dirichlet_filter(k, m)
        peak = 0.0
        for idx in range(args.channels):
            rng = np.random.default_rng(np.random.SeedSequence([args.seed, k, m, t, r, idx]))
            ch = chan.generate_channel(t, r, rng, k * m)
            peak = max(peak, verify_decomposition(ch, filt))
        print(f"K={k} M={m} T={t} R={r}: max residual {_residual(peak)} over {args.channels} channels")
        worst = max(worst, peak)
    print(f"max residual: {_residual(worst)}")
    if worst > VERIFY_TOL:
        print(f"FAIL: residual exceeds {VERIFY_TOL:g}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gfdmsim",
        description="MIMO-GFDM link-level simulation and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded Monte Carlo SER/complexity sweep")
    sim.add_argument("--config", required=True, help="key-value config file")
    sim.add_argument("--scheme", help="override the configured scheme")
    sim.add_argument("--snr", help="override the SNR grid, comma separated dB values")
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.add_argument("--out", help="output CSV path (default: config 'out' or results.csv)")
    sim.add_argument(
        "--large", action="store_true", help="allow full-scale block lengths (D > 64)"
    )
    sim.set_defaults(func=_cmd_simulate)

    comp = sub.add_parser("complexity", help="evaluate the closed-form operation counts")
    comp.add_argument("--scheme", required=True)
    comp.add_argument("-K", type=int, required=True)
    comp.add_argument("-M", type=int, required=True)
    comp.add_argument("-T", type=int, required=True)
    comp.add_argument("-R", type=int, required=True)
    comp.set_defaults(func=_cmd_complexity)

    ver = sub.add_parser("verify", help="check the block-factorization residual suite")
    ver.add_argument("--channels", type=int, default=100, help="realizations per grid point")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
