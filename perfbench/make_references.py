"""Write the reference CSVs that benchmark runs compare their rows against.

    python3 perfbench/make_references.py --seeds 0-10 [--workload NAME ...]

For every workload and seed it runs the timed sweep size (for the
run_seconds of BENCHMARK.json) and the traced one once, untraced, and writes
perfbench/references/<workload>/c<channels>-s<seed>.csv.
Regenerate only from a commit whose CSVs are known good: the benchmark
counts every row that differs from these files as failed.
"""

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0", help="one seed or an inclusive range such as 0-10")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    run.pin_threads()
    gfdmsim, _ = run.load_gfdmsim()
    simulate = gfdmsim.simulate
    for name in args.workload or run.WORKLOADS:
        wl = run.WORKLOADS[name]
        n_snr = len(run.make_config(simulate, wl, 1, 0).snr_db)
        for channels in sorted({wl.channels(seconds), wl.trace_channels(n_snr)}):
            for seed in parse_seeds(args.seeds):
                path = run.reference_path(name, channels, seed)
                path.parent.mkdir(parents=True, exist_ok=True)
                cfg = run.make_config(simulate, wl, channels, seed)
                simulate.write_report(simulate.run_sweep(cfg), str(path))
                print(path.relative_to(run.ROOT), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
