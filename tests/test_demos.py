"""The demos still run against the library.

Each ``demos/0N_*.py`` runs in its own interpreter with ``src`` on the
import path and must exit 0; together they take about 15 seconds.
``demos/05_cli_pipeline.sh`` calls a ``ccax`` command, which a shim on
``PATH`` provides as ``python -m ccax``; it takes about 7 seconds.  The
README's library tour runs the same way, so that it names only public
names that exist.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_cli_pipeline_runs(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "ccax"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m ccax "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(["bash", str(ROOT / "demos" / "05_cli_pipeline.sh")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "search_mean" in proc.stdout


def test_readme_library_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("{1: ")  # the search recalls
