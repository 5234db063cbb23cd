"""One process of a benchmark run: ``setup`` or ``ops``.

``run.py`` starts this script in a fresh interpreter for each set-up and
once for the timed ops, so that set-up allocations never raise the peak
resident memory reported for the ops.  The result goes to the JSON file
named by ``--result``.

Usage: worker.py {setup,ops} --workload W --seed N --shapes {full,smoke}
       --dir WORKDIR --result FILE [--seconds S] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io as textio
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
import workloads


def _blas_facts() -> dict:
    """BLAS vendor and thread count as the loaded library reports them."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts = {"blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
             "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        facts["blas_threads"] = int(get())
    return facts


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, **_blas_facts(), "path_workers": 1}


def _setup(args, shape) -> dict:
    trace = tracer.Tracer()
    if args.trace:
        trace.install()
    try:
        facts = workloads.setup(args.workload, shape, args.seed,
                                Path(args.dir))
    finally:
        trace.uninstall()
    return {"inputs": facts, "spans": trace.spans}


def _ops(args, shape) -> dict:
    from ccax import cli

    d = Path(args.dir)
    out, ref = d / "out", d / "ref"
    argv = workloads.op_argv(args.workload, shape, args.seed, d, out)
    trace = tracer.Tracer()
    untraced, traced, errors, digests = [], [], [], set()
    attempted = failed = 0
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time
    first_op_at = time.monotonic()
    started = time.perf_counter()
    while True:
        # in a traced run, ops alternate untraced and traced so that the
        # overhead ratio compares neighbours
        traced_op = bool(args.trace) and attempted % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if traced_op:
            trace.op = attempted
            trace.install()
        sink = textio.StringIO()
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                seconds = time.perf_counter() - t0
        except (Exception, SystemExit):  # argparse exits on usage errors
            # an op that raises is a failed op, not a crash of the benchmark
            seconds = None
            error = traceback.format_exc(limit=3)
        finally:
            trace.uninstall()
        attempted += 1
        if attempted == 1:
            # one CLI invocation's own peak over the interpreter and imports;
            # later ops in this process would add only allocator
            # fragmentation, which no CLI user sees
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is None and rc != 0:
            error = f"exit code {rc}: {sink.getvalue()[-500:]}"
        if error is None:
            try:
                digest = workloads.output_digest(args.workload, out)
                if not digests:
                    workloads.keep_reference(args.workload, out, ref)
                digests.add(digest)
                if len(digests) > 1:
                    error = "outputs differ from the first op's"
            except workloads.CheckError as exc:
                error = str(exc)
        if error is None:
            (traced if traced_op else untraced).append(seconds)
        else:
            failed += 1
            errors.append(error)
            if traced_op:  # keep spans of successful ops only
                trace.spans[:] = [s for s in trace.spans
                                  if s["op"] != trace.op]
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds and (untraced or failed) \
                and (traced or failed or not args.trace):
            break
    quality = {}
    if digests:
        try:
            quality = workloads.check_reference(args.workload, shape,
                                                args.seed, d, ref)
        except workloads.CheckError as exc:
            # every op that succeeded wrote these same bytes
            errors.append(str(exc))
            failed = attempted
    return {"attempted": attempted, "failed": failed, "errors": errors[:5],
            "checks_passed": not errors,
            "op_s": untraced, "traced_op_s": traced,
            "peak_rss_mb": peak_rss_mb, "first_op_at": first_op_at,
            "quality": quality, "machine": machine_facts(),
            "spans": trace.spans}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "ops"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shapes", choices=("full", "smoke"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    shape = workloads.SHAPES[args.shapes][args.workload]
    if args.role == "setup":
        result = _setup(args, shape)
    else:
        result = _ops(args, shape)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
