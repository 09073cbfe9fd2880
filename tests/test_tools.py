"""Smoke tests of the scripts under tools/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bit_parity_prints_every_fingerprint_and_the_same_total_twice():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    totals = []
    # fresh processes, so no cache or heap state carries over; the second one runs BLAS on one
    # thread, so a result that depends on the thread count shows as two TOTALs
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bit_parity.py")],
            capture_output=True, text=True, env={**env, **threads}, cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        # 15 models and 8 variants at three sizes, the 15 on a saved and loaded store,
        # one short training run per model, one prepare run, then TOTAL
        assert sum(" nodes=" in line for line in lines) == 84
        assert sum(" loaded " in line and " nodes=" in line for line in lines) == 15
        assert sum(" train params.json+history.csv " in line for line in lines) == 15
        assert sum(line.startswith("prepare ") for line in lines) == 1
        assert len(lines) == 101 and lines[-1].startswith("TOTAL ")
        totals.append(lines[-1])
    assert totals[0] == totals[1]
