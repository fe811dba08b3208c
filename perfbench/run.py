"""Benchmark for gfdmsim: seeded Monte Carlo sweeps through the public API.

One run measures one workload in one fresh, single-threaded process:

    python3 perfbench/run.py --workload desk_proposed --seed 0 --seconds 10 --trace 0

It makes the calls ``gfdmsim simulate`` makes (parse_config, run_sweep,
write_report) on a sweep sized to take about ``--seconds`` on the reference
machine, checks every CSV row against the committed reference for the seed
and size (or, without one, the row layout the inputs fix), and prints one
JSON line last. With ``--trace 0`` that line holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (see tracer.py).
Metric names and units come from BENCHMARK.json; README.md explains them.

    python3 perfbench/run.py --all [--seed 0] [--seconds 10]

runs every workload untraced and traced, one child process each, prints a
table and writes perfbench/out/summary.json.
"""

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from tracer import TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
REF_DIR = BENCH_DIR / "references"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FULL_GRID = "0, 4, 8, 12, 16, 20"
SETUP_REPEATS = 5
TRACE_REALIZATIONS = 100  # so that the p90 realization time has 10 samples beyond it
# the callers of sqrd in a sweep: the proposed receiver, the baseline, and the
# ofdm per-bin loop inside run_sweep
SQRD_PARENTS = ("factorize_blocks", "baseline_factorization", "run_sweep")


@dataclass(frozen=True)
class Workload:
    """A shipped config plus overrides; runs differ only in n_channels and seed."""

    config: str
    overrides: tuple[tuple[str, str], ...]
    channel_s: float  # reference seconds per channel index, all SNR points

    def channels(self, seconds: float) -> int:
        """Channel realizations per SNR point of a timed sweep of about ``seconds``."""
        return max(1, round(seconds / self.channel_s))

    def trace_channels(self, n_snr: int) -> int:
        return math.ceil(TRACE_REALIZATIONS / n_snr)


WORKLOADS = {
    "desk_proposed": Workload(
        "configs/desk_k8_m4.cfg",
        (("scheme", "proposed_dirichlet"), ("snr_db", FULL_GRID), ("n_blocks", "20")),
        channel_s=0.35,
    ),
    "full_proposed": Workload(
        "configs/full_k256_m4.cfg",
        (("scheme", "proposed_dirichlet"), ("snr_db", "16, 20"), ("n_blocks", "1")),
        channel_s=0.14,
    ),
    "desk_baseline_rc": Workload(
        "configs/desk_k16_m2.cfg",
        (("scheme", "baseline_rc(0.9)"), ("snr_db", FULL_GRID), ("n_blocks", "2")),
        channel_s=0.038,
    ),
    "full_ofdm": Workload(
        "configs/full_ofdm_k1024.cfg",
        (("scheme", "ofdm"), ("snr_db", "16, 20"), ("n_blocks", "1")),
        channel_s=0.13,
    ),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_gfdmsim():
    """Import gfdmsim from the checkout's src/; returns (package, import seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import gfdmsim
    import gfdmsim.simulate  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(gfdmsim.__file__).resolve().parent.parent != src:
        raise BenchmarkError(f"gfdmsim imported from {gfdmsim.__file__}, not from {src}")
    return gfdmsim, elapsed


def make_config(simulate, wl: Workload, channels: int, seed: int, **extra: str):
    overrides = dict(wl.overrides, n_channels=str(channels), seed=str(seed), **extra)
    return simulate.parse_config(str(ROOT / wl.config), overrides)


def reference_path(name: str, channels: int, seed: int) -> Path:
    return REF_DIR / name / f"c{channels}-s{seed}.csv"


class Calibrator:
    """Times a fixed kernel of small numpy calls driven from Python, as the sweeps are.

    The machine is shared: other load slows the CPU by up to a factor of two
    for seconds at a time, for this kernel and the sweeps alike. A timing
    multiplied by REF_S over the kernel's mean time across the same interval
    is in reference seconds, which repeat where raw seconds do not.
    """

    REF_S = 8.5e-4  # the kernel on an unloaded 2-core x86-64 VM, Python 3.11, numpy 2.4
    LOOPS = 150
    PERIOD_S = 0.05  # wall time between samples taken during a sweep

    def __init__(self):
        numpy = sys.modules["numpy"]
        rng = numpy.random.default_rng(0)
        self._argsort = numpy.argsort
        self._a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.samples: list[float] = []

    def sample(self) -> None:
        a, argsort = self._a, self._argsort
        start = time.perf_counter()
        for i in range(self.LOOPS):
            diff = a[i % 8] - a[3] * 0.5
            argsort(diff.real**2 + diff.imag**2, kind="stable")
            a @ diff
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference seconds per wall second over the samples taken so far."""
        return self.REF_S / statistics.fmean(self.samples)

    @contextmanager
    def sampling(self):
        """Take a sample every PERIOD_S of wall time, from a timer signal, in the block.

        The samples fall uniformly in time, whatever the code in the block
        does, and run on this thread between two of its Python operations.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def environment() -> dict:
    numpy = sys.modules["numpy"]
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "processes": 1,  # for the sweeps; set-up probes run before them, one at a time
        "setup_probes": SETUP_REPEATS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class WarningCounter(logging.Handler):
    """Counts warnings of gfdmsim.detect, whose only warning is the baseline's rank-deficiency retry."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def row_failures(text: str, reference: str | None, cfg) -> int:
    """CSV rows (one per SNR point) that are missing or wrong.

    With a reference, a row fails unless its bytes equal the reference row.
    Without one, a row fails unless it has the SNR, scheme and symbol count
    that the inputs fix and an error count within [0, symbols].
    """
    lines = text.split("\n")
    rows = lines[1:-1] if lines[-1] == "" else lines[1:]
    if reference is not None:
        ref_lines = reference.split("\n")
        ref_rows = ref_lines[1:-1]
        if lines[0] != ref_lines[0]:
            return len(ref_rows)
        return sum(i >= len(rows) or rows[i] != want for i, want in enumerate(ref_rows))
    symbols = cfg.n_channels * cfg.n_blocks * cfg.n_tx * cfg.block_len
    failed = 0
    for i, snr in enumerate(sorted(cfg.snr_db)):
        fields = rows[i].split(",") if i < len(rows) else []
        ok = (
            len(fields) == 15
            and fields[0] == format(snr, ".6g")
            and fields[1] == cfg.scheme
            and fields[9] == str(symbols)
            and fields[8].isdigit()
            and int(fields[8]) <= symbols
        )
        failed += not ok
    return failed


@dataclass
class Sweep:
    traced: bool
    csv: str
    blocks: int
    raw_s: float  # sum of TrialRecord.wall_time, calibration samples excluded
    ref_s: float  # the same in reference seconds; raw_s when traced
    counts: dict


def run_sweep(gfdmsim, cfg, csv_path: Path, warnings: WarningCounter, tracer: Tracer | None) -> Sweep:
    """One sweep, traced by ``tracer`` or, without one, calibrated from a timer."""
    simulate = gfdmsim.simulate
    fallbacks = warnings.count
    cal = Calibrator()
    cal.sample()  # one sample before, so that a short sweep still has one
    hooks = tracer.installed(gfdmsim) if tracer else cal.sampling()
    with hooks:
        records = simulate.run_sweep(cfg)  # looked up here so that the tracer applies
    simulate.write_report(records, str(csv_path))
    # samples taken inside run_sweep fell, but for one at most, in its timed loops
    raw_s = sum(rec.wall_time for rec in records) - sum(cal.samples[1:])
    return Sweep(
        traced=tracer is not None,
        csv=csv_path.read_text(encoding="utf-8"),
        blocks=len(records) * cfg.n_channels * cfg.n_blocks,
        raw_s=raw_s,
        ref_s=raw_s if tracer else raw_s * cal.factor(),
        counts={
            "detect.sd_nodes": sum(rec.sd_nodes for rec in records),
            "detect.cm_sd": sum(rec.cm_sd for rec in records),
            "detect.baseline_fallbacks": warnings.count - fallbacks,
        },
    )


def probe_setup(name: str, seed: int) -> float:
    """One set-up as a CLI run pays it, in reference seconds; runs in a fresh process.

    Set-up is the import of gfdmsim, parse_config, and run_sweep's pre-loop
    work: its wall time minus its records' wall times, on a one-point,
    one-channel, one-block sweep. The import includes numpy's, as a CLI run's
    does, so calibration samples (which need numpy) are taken right after.
    """
    pin_threads()
    gfdmsim, import_s = load_gfdmsim()
    start = time.perf_counter()
    cfg = make_config(gfdmsim.simulate, WORKLOADS[name], 1, seed, n_blocks="1", snr_db="0")
    records = gfdmsim.simulate.run_sweep(cfg)
    setup_s = import_s + time.perf_counter() - start - sum(rec.wall_time for rec in records)
    cal = Calibrator()
    for _ in range(20):
        cal.sample()
    return setup_s * cal.factor()


def measure_setup(name: str, seed: int) -> list[float]:
    """SETUP_REPEATS set-ups, each in its own child process, run one after another."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    return [
        float(subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def layer_metrics(tracer: Tracer, sweeps: list[Sweep]) -> dict:
    """Per-layer metrics: medians over traced sweeps of per-sweep self time, exact counts."""
    summaries = [tracer.sweep_summary(root) for root in tracer.roots()]
    traced = [s for s in sweeps if s.traced]
    metrics = {}
    keys = [span for _, _, span in TRACED] + [f"detect.sqrd.in_{p}" for p in SQRD_PARENTS]
    for key in keys:
        metrics[f"{key}.self_s"] = statistics.median(s["self_s"].get(key, 0.0) for s in summaries)
        metrics[f"{key}.calls"] = summaries[0]["calls"].get(key, 0)
    metrics.update(traced[0].counts)
    sd_calls = summaries[0]["calls"].get("detect.sphere_decode", 0)
    metrics["detect.sd_nodes_per_call"] = metrics["detect.sd_nodes"] / sd_calls if sd_calls else 0.0
    realizations = summaries[0]["realizations_s"]
    deciles = statistics.quantiles(realizations, n=10, method="inclusive")
    metrics["simulate.realizations"] = len(realizations)
    metrics["simulate.realization_ms_p50"] = 1e3 * deciles[4]
    metrics["simulate.realization_ms_p90"] = 1e3 * deciles[8]
    untraced = statistics.median(s.raw_s for s in sweeps if not s.traced)
    metrics["trace.overhead_frac"] = statistics.median(s.raw_s for s in traced) / untraced - 1.0
    return metrics


def check_counts(tracer: Tracer, sweeps: list[Sweep]) -> None:
    """Exact counts must repeat between sweeps of the same inputs and code."""
    for i, sweep in enumerate(sweeps[1:], start=1):
        if sweep.counts != sweeps[0].counts:
            raise BenchmarkError(
                f"exact counts differ between sweep 0 and sweep {i}: "
                f"{sweeps[0].counts} != {sweep.counts}"
            )
    calls = [tracer.sweep_summary(root)["calls"] for root in tracer.roots()]
    for i, c in enumerate(calls[1:], start=1):
        if c != calls[0]:
            raise BenchmarkError(f"call counts differ between traced sweeps 0 and {i}: {calls[0]} != {c}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[name]
    gfdmsim, _ = load_gfdmsim()
    env = environment()
    warnings = WarningCounter()
    logging.getLogger("gfdmsim.detect").addHandler(warnings)
    setup = [] if trace else measure_setup(name, seed)

    n_snr = len(make_config(gfdmsim.simulate, wl, 1, seed).snr_db)
    channels = wl.trace_channels(n_snr) if trace else wl.channels(seconds)
    cfg = make_config(gfdmsim.simulate, wl, channels, seed)
    ref_file = reference_path(name, channels, seed)
    committed = ref_file.read_text(encoding="utf-8") if ref_file.is_file() else None
    OUT_DIR.mkdir(exist_ok=True)
    csv_path = OUT_DIR / f"{name}-s{seed}-t{int(trace)}.csv"

    # traced: one untraced sweep to compare results and time against, then
    # two traced ones whose exact counts must agree
    plan = [False, True, True] if trace else [False]
    tracer = Tracer()
    sweeps: list[Sweep] = []
    attempted = failed = 0
    for traced in plan:
        try:
            sweep = run_sweep(gfdmsim, cfg, csv_path, warnings, tracer if traced else None)
        except Exception as exc:  # no rows, so nothing to check or time
            traceback.print_exc()
            raise BenchmarkError("a sweep raised; see the traceback above") from exc
        reference = committed if committed is not None else (sweeps[0].csv if sweeps else None)
        attempted += len(cfg.snr_db)
        failed += row_failures(sweep.csv, reference, cfg)
        sweeps.append(sweep)
    check_counts(tracer, sweeps)

    if trace:
        values = layer_metrics(tracer, sweeps)
        tracer.write(str(OUT_DIR / f"{name}-s{seed}.spans.tsv"))
        wanted = spec["per_layer"]
    else:
        values = {
            "blocks_per_s": sweeps[0].blocks / sweeps[0].ref_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    digest = hashlib.sha256(sweeps[0].csv.encode()).hexdigest()
    print(f"workload {name}  seed {seed}  trace {int(trace)}  channels {channels}  sweeps {len(sweeps)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"csv_sha256 {digest}  reference {'committed' if committed is not None else 'none'}")
    print(f"failed_rows {failed}/{attempted}")
    if trace:
        print("note: single-threaded, so no layer waits on another; self time is all there is")
    else:
        print(f"raw_blocks_per_s {sweeps[0].blocks / sweeps[0].raw_s:.6g} blocks/s (wall seconds)")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own child process, one at a time."""
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    table = []
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{name} trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            summary["env"] = json.loads(next(line for line in lines if line.startswith("env "))[4:])
            entry[f"trace{trace}"] = {
                "correct": result["correct"],
                "failed_rows": f"{result['failed']}/{result['attempted']}",
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
            for key, metric in result["metrics"].items():
                table.append(f"{name:18s} {key:44s} {metric['value']:>14.6g} {metric['unit']}")
            table.append(f"{name:18s} {f'failed_rows (trace {trace})':44s} {entry[f'trace{trace}']['failed_rows']:>14s}")
        summary["workloads"][name] = entry
    print("\n".join(table))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    try:
        if args.setup_probe:
            print(repr(probe_setup(args.workload, args.seed)))
            return 0
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
