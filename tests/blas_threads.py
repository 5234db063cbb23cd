"""Run Python in a fresh interpreter with a fixed OpenBLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_under_blas_threads(threads: int, args, cwd):
    """Run ``python *args`` in ``cwd`` where OpenBLAS uses ``threads``
    threads, with ccax and the test modules importable; return the
    finished process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
