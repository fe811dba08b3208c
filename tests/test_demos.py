"""Every script in demos/ runs to completion against the library in src/.

Each demo's stdout, and the CSV that demo 04 writes, must equal the pinned
copy under demos/expected/ byte for byte: the demos are seeded, so a change
to their output is a change to the library's results.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "demos" / "expected"
# files a demo writes to its working directory, pinned next to its stdout
WRITTEN = {"04_ser_sweep.py": ("ser_sweep.csv",)}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run from an empty directory: demo 04 writes its CSV to the current one
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
    for name in WRITTEN.get(demo.name, ()):
        assert (tmp_path / name).read_bytes() == (EXPECTED / name).read_bytes(), name
