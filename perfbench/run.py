"""ccax benchmark: seeded CLI pipelines, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload select --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke        # every workload and check, tiny

``--trace 0`` reports the end-to-end metrics (set-up time, median op time,
peak resident memory of the ops); ``--trace 1`` runs the same ops with
untraced and traced calls alternating and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: set-ups per end-to-end run; setup_s is their median
SETUPS = 4

#: BLAS threads of every worker.  On a small shared machine two BLAS threads
#: wait on each other whenever a neighbour takes a core, and op times then
#: spread by a fifth from run to run; one thread leaves a core free and keeps
#: them within a few percent.
BLAS_THREADS = "1"

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("io.load_matrix.s", "s"), ("io.load_matrix.mb", "MB"),
    ("io.load_embedding_table.s", "s"), ("io.load_corpus.s", "s"),
    ("io.save_matrix.s", "s"),
    ("cca.thin_svd.calls", "count"), ("cca.thin_svd.s", "s"),
    ("cca.thin_svd.gflop", "GFLOP"), ("cca.center_columns.s", "s"),
    ("cca.cca_fit_tikhonov.s", "s"),
    ("linalg.svd.calls", "count"), ("linalg.svd.s", "s"),
    ("linalg.svd.thin.calls", "count"), ("linalg.svd.block.calls", "count"),
    ("linalg.svd.block.s", "s"),
    ("selection.tsvd_path.self_s", "s"), ("selection.cells", "count"),
    ("selection.cell_s.p50", "s"), ("selection.cell_s.p97_5", "s"),
    ("retrieval.rank.calls", "count"), ("retrieval.rank.s", "s"),
    ("retrieval.rank.score_mb", "MB"), ("retrieval.evaluate.s", "s"),
    ("retrieval.embed.s", "s"),
    ("hkse.word_feature.calls", "count"), ("hkse.word_cache_hit_ratio", "ratio"),
    ("hkse.embed_corpus.self_s", "s"), ("hkse.bandwidth_heuristic.s", "s"),
    ("synthetic.generate_caption_like.s", "s"),
    ("io.self_s", "s"), ("cca.self_s", "s"), ("linalg.self_s", "s"),
    ("selection.self_s", "s"), ("retrieval.self_s", "s"),
    ("hkse.self_s", "s"), ("cli.self_s", "s"),
    ("trace.op_s", "s"), ("trace.self_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

# layers an op can spend time in; their self times add up to the op
OP_LAYERS = ("io", "cca", "linalg", "selection", "retrieval", "hkse", "cli")

# per-layer metrics derived from shapes rather than measured
COMPUTED = {"io.load_matrix.mb", "cca.thin_svd.gflop", "retrieval.rank.score_mb"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def _worker(role: str, args, d: Path, shapes: str, trace: int,
            timeout: float) -> tuple[dict, float, float]:
    """Run worker.py in a fresh interpreter; returns (result, spawn, wall)."""
    result_path = d.parent / f"{d.name}-{role}.json"
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--shapes", shapes, "--dir", str(d), "--result", str(result_path),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker exceeded {timeout:.0f} s") from None
    wall = time.monotonic() - spawn
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    return result, spawn, wall


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of traced ops
# ---------------------------------------------------------------------------

def _svd_gflop(shape) -> float:
    # Golub & Van Loan's R-SVD count for U, S and V of an n x m matrix
    n, m = max(shape), min(shape)
    return (6.0 * n * m * m + 20.0 * m ** 3) / 1e9


def _op_layer_metrics(spans: list[dict], wall: float) -> dict[str, float]:
    own = tracer.self_times(spans)
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_except(name, keep_layer):
        # duration minus children, but children of keep_layer stay counted
        out = 0.0
        for s in named(name):
            out += s["end"] - s["start"]
            for c in children.get(s["id"], ()):
                if tracer.layer(c["name"]) != keep_layer:
                    out -= c["end"] - c["start"]
        return out

    svds = named("linalg.svd")
    blocks = [s for s in svds if s["kind"] == "block"]
    cells = [v for s in named("selection.tsvd_path") for v in s["cell_seconds"]]
    ranks = named("retrieval.rank")
    tokens = sum(s["tokens"] for s in named("hkse.embed_corpus"))
    words = len(named("hkse.word_feature"))
    m = {
        "io.load_matrix.s": total("io.load_matrix"),
        "io.load_matrix.mb": sum(8.0 * s["shape"][0] * s["shape"][1] / 1e6
                                 for s in named("io.load_matrix")),
        "io.load_embedding_table.s": total("io.load_embedding_table"),
        "io.load_corpus.s": total("io.load_corpus"),
        "io.save_matrix.s": total("io.save_matrix"),
        "cca.thin_svd.calls": len(named("cca.thin_svd")),
        "cca.thin_svd.s": total("cca.thin_svd"),
        "cca.thin_svd.gflop": sum(_svd_gflop(s["shape"])
                                  for s in named("cca.thin_svd")),
        "cca.center_columns.s": total("cca.center_columns"),
        "cca.cca_fit_tikhonov.s": total("cca.cca_fit_tikhonov"),
        "linalg.svd.calls": len(svds),
        "linalg.svd.s": total("linalg.svd"),
        "linalg.svd.thin.calls": len(svds) - len(blocks),
        "linalg.svd.block.calls": len(blocks),
        "linalg.svd.block.s": sum(s["end"] - s["start"] for s in blocks),
        "selection.tsvd_path.self_s": self_except("selection.tsvd_path",
                                                  "linalg"),
        "selection.cells": len(cells),
        "selection.cell_s.p50": _percentile(cells, 50.0),
        "selection.cell_s.p97_5": _percentile(cells, 97.5),
        "retrieval.rank.calls": len(ranks),
        "retrieval.rank.s": total("retrieval.rank"),
        "retrieval.rank.score_mb": max(
            (8.0 * s["shape"][0] * s["shape"][1] / 1e6 for s in ranks),
            default=0.0),
        "retrieval.evaluate.s": total("retrieval.evaluate"),
        "retrieval.embed.s": total("retrieval.TaskEmbedding.embed_images")
        + total("retrieval.TaskEmbedding.embed_texts"),
        "hkse.word_feature.calls": words,
        "hkse.word_cache_hit_ratio": 1.0 - words / tokens if tokens else 0.0,
        "hkse.embed_corpus.self_s": sum(own[s["id"]]
                                        for s in named("hkse.embed_corpus")),
        "hkse.bandwidth_heuristic.s": total("hkse.bandwidth_heuristic"),
    }
    layer_self = {name: 0.0 for name in OP_LAYERS}
    for s in spans:
        layer_self[tracer.layer(s["name"])] += own[s["id"]]
    for name, seconds in layer_self.items():
        m[f"{name}.self_s"] = seconds
    m["trace.op_s"] = wall
    m["trace.self_sum_ratio"] = sum(layer_self.values()) / wall
    return m


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer_metrics(setup_spans: list[dict], ops: dict) -> dict[str, float]:
    by_op: dict[int, list[dict]] = {}
    for s in ops["spans"]:
        by_op.setdefault(s["op"], []).append(s)
    per_op = [_op_layer_metrics(spans, wall)
              for (_, spans), wall in zip(sorted(by_op.items()),
                                          ops["traced_op_s"])]
    if not per_op:
        raise BenchError("every traced op failed: "
                         + "; ".join(ops["errors"][:1]))
    metrics = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        # counts stay whole numbers; they repeat exactly from op to op
        exact = all(isinstance(v, int) for v in values)
        metrics[name] = (statistics.median_low if exact
                         else statistics.median)(values)
    metrics["synthetic.generate_caption_like.s"] = sum(
        s["end"] - s["start"] for s in setup_spans
        if s["name"] == "synthetic.generate_caption_like")
    metrics["trace.overhead_ratio"] = (statistics.median(ops["traced_op_s"])
                                       / statistics.median(ops["op_s"]) - 1.0)
    return metrics


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_workload(args, shapes: str, setups: int) -> dict:
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    d = WORK / tag
    # every worker shares one deadline, so a run ends within 180 s
    deadline = time.monotonic() + 170
    setup_walls: list[float] = []

    def set_up() -> dict:
        shutil.rmtree(d, ignore_errors=True)
        res, _, wall = _worker("setup", args, d, shapes, args.trace,
                               deadline - time.monotonic())
        setup_walls.append(wall)
        return res

    try:
        # half the set-ups run before the ops and half after them, so that
        # their median spans two moments of a machine whose speed drifts
        before = max(1, setups // 2)
        for _ in range(before):
            res = set_up()
        setup_spans, inputs = res["spans"], res["inputs"]
        ops, spawn, _ = _worker("ops", args, d, shapes, args.trace,
                                deadline - time.monotonic())
        for _ in range(setups - before):
            set_up()
    finally:
        shutil.rmtree(d, ignore_errors=True)
    if not ops["op_s"]:
        raise BenchError("every op failed: " + "; ".join(ops["errors"][:1]))
    ready = ops["first_op_at"] - spawn
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "shapes": shapes, "inputs": inputs, "setup_walls": setup_walls,
              "ready_s": ready, **{k: v for k, v in ops.items() if k != "spans"}}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result["per_layer"] = per_layer_metrics(setup_spans, ops)
        with open(OUT / f"spans-{shapes}-{args.workload}-seed{args.seed}.jsonl",
                  "w", encoding="utf-8") as fh:
            for span in setup_spans + ops["spans"]:
                fh.write(json.dumps({"phase": "setup" if span["op"] is None
                                     else "op", **span}) + "\n")
    else:
        result["end_to_end"] = {
            "setup_s": statistics.median(setup_walls) + ready,
            "op_s": statistics.median(ops["op_s"]),
            "peak_rss_mb": ops["peak_rss_mb"],
        }
    # every sample of the run, for reading spreads after the fact
    with open(OUT / f"run-{shapes}-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _report(r: dict) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    n_ops, n_traced = len(r["op_s"]), len(r["traced_op_s"])
    lines = [f"# workload {r['workload']} seed {r['seed']} trace {r['trace']} "
             f"shapes {r['shapes']} inputs {json.dumps(r['inputs'])}",
             "# machine " + json.dumps(r["machine"])]

    def line(name, value, unit, samples):
        lines.append(f"{name:36s} {value:12.6g} {unit:6s} {samples}")

    if r["trace"]:
        for name, unit in PER_LAYER:
            tag = " (computed from shapes)" if name in COMPUTED else ""
            line(name, r["per_layer"][name], unit,
                 f"median of {n_traced} traced ops{tag}")
    else:
        e2e = r["end_to_end"]
        line("setup_s", e2e["setup_s"], "s",
             f"median of {len(r['setup_walls'])} set-ups")
        ops = sorted(r["op_s"])
        line("op_s", e2e["op_s"], "s",
             f"median of {n_ops} ops, range {ops[0]:.4g}-{ops[-1]:.4g}")
        line("peak_rss_mb", e2e["peak_rss_mb"], "MB",
             "1 ops process, after its first op")
    line("fail_ratio", r["failed"] / r["attempted"], "ratio",
         f"{r['failed']} of {r['attempted']} ops")
    for name, value in sorted(r["quality"].items()):
        unit = "%" if name.startswith("quality.r1") else "kernel"
        line(name, value, unit, "deterministic, from the op's own output")
    for error in r["errors"]:
        lines.append("# check failed: " + error.replace("\n", " | ")[:300])
    return lines


def _result_line(r: dict) -> dict:
    metrics = r["per_layer"] if r["trace"] else r["end_to_end"]
    names = PER_LAYER if r["trace"] else END_TO_END
    return {"correct": r["failed"] == 0 and r["checks_passed"],
            "attempted": r["attempted"], "failed": r["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, every workload in both modes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ccax" / "cli.py").is_file():
        print(f"run.py: no ccax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    WORK.mkdir(exist_ok=True)
    try:
        if args.smoke:
            results = []
            for name in [args.workload] if args.workload else workloads.NAMES:
                for trace in (0, 1):
                    run_args = argparse.Namespace(workload=name, seed=args.seed,
                                                  seconds=0.2, trace=trace)
                    results.append(run_workload(run_args, "smoke", 1))
                    print("\n".join(_report(results[-1])))
            correct = all(_result_line(r)["correct"] for r in results)
            print(json.dumps({
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results), "metrics": {}}))
            return 0 if correct else 1
        result = run_workload(args, "full", 1 if args.trace else SETUPS)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print("\n".join(_report(result)))
    print(json.dumps(_result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
