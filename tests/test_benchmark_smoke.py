"""The benchmark harness still runs every workload and check on tiny shapes.

``perfbench/run.py`` drives the library through the CLI; this keeps an API
change from breaking it unnoticed.  It takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
