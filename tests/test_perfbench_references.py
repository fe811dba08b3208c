"""The sweeps reproduce the benchmark's committed seed-0 reference CSVs byte for byte.

Each check builds its config with the benchmark's own workload table and
``make_config``, and runs in a child process with one BLAS/OpenMP thread, as
the benchmark does, so a change that moves any result fails here and not only
in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = """
import importlib.util
import sys

bench, name, channels, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
sys.path.insert(0, bench)  # run.py imports tracer.py as a top-level module
spec = importlib.util.spec_from_file_location("perfbench_run", bench + "/run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
gfdmsim, _ = run.load_gfdmsim()
cfg = run.make_config(gfdmsim.simulate, run.WORKLOADS[name], channels, 0)
gfdmsim.simulate.write_report(gfdmsim.simulate.run_sweep(cfg), out)
"""


@pytest.mark.parametrize(
    "name, channels",
    [("desk_proposed", 17), ("desk_baseline_rc", 17), ("full_proposed", 50), ("full_ofdm", 50)],
)
def test_sweep_reproduces_reference_csv(name, channels, tmp_path):
    reference = BENCH / "references" / name / f"c{channels}-s0.csv"
    out = tmp_path / "sweep.csv"
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(BENCH), name, str(channels), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == reference.read_bytes()
