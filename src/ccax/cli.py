"""The ``ccax`` command line: generate, embed, fit, select, evaluate.

Subcommands: ``synth``, ``embed``, ``fit``, ``path``, ``timing``, ``eval``,
``sweep``, ``inspect``.  Exit codes: 0 success, 1 runtime or data error,
2 usage error.  An optional ``--config`` key=value file supplies defaults;
flags given on the command line win.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

from . import cca, hkse, io, retrieval, selection, synthetic

_REG_KINDS = ("none", "tikhonov", "tsvd", "guided-tsvd")

#: the path's cell flags and their defaults; fit's are None, so that a
#: given one can be told from its default, and are filled in where read
_PATH_FLAGS = {"grid": (20, 20), "metric": "r1", "threads": 1}

#: fit's flags that one --reg alone reads, by dest; any other refuses them
_REG_FLAGS = {"gamma_x": "tikhonov", "gamma_y": "tikhonov",
              "kx": "tsvd", "ky": "tsvd",
              **dict.fromkeys(("val_x", "val_y", "val_pairing", "grid_x",
                               "grid_y", "path_out", *_PATH_FLAGS),
                              "guided-tsvd")}

#: embed's map-defining flags and their defaults; a saved --map fixes all
#: of them, so giving one beside it is a usage error
_MAP_FLAGS = {"variant": ("lin", "lin"), "concat": None, "m": 2000,
              "mprime": 2000, "gamma": "median", "eta": 0.01,
              "gamma_sample": 2000, "seed": 0}


def _int_from(floor: int):
    """argparse type of an integer flag whose smallest value is ``floor``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < floor:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {floor}, got {text!r}")
        return value

    return parse


#: argparse type of a count, size or rank: an integer >= 1
_COUNT = _int_from(1)


def _finite_nonneg(text: str) -> float:
    """argparse type of a penalty, bandwidth or noise scale: finite, >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}")
    return value


def _bandwidth(text: str) -> str | float:
    """argparse type of --gamma: median, or a finite number >= 0."""
    return text if text == "median" else _finite_nonneg(text)


def _number_list(text: str) -> list[float]:
    """argparse type of a non-empty comma-separated list of finite numbers."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated list of finite numbers, got {text!r}")
    return values


def _alpha_list(text: str) -> list[float]:
    """argparse type of sweep --alphas: a number list inside [0, 1]."""
    values = _number_list(text)
    if not all(0 <= v <= 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"must lie in [0, 1], got {text!r}")
    return values


def _grid_size(text: str) -> tuple[int, int]:
    """argparse type of --grid: cell counts like 20x20, each >= 1."""
    try:
        counts = tuple(int(v) for v in text.lower().split("x"))
    except ValueError:
        counts = ()
    if len(counts) != 2 or min(counts) < 1:
        raise argparse.ArgumentTypeError(
            f"must look like 20x20 with counts >= 1, got {text!r}")
    return counts


def _variant(text: str) -> tuple[str, str]:
    """argparse type of --variant/--concat: word,sentence layer kinds."""
    parts = tuple(p.strip() for p in text.split(","))
    if len(parts) != 2 or any(p not in hkse.VARIANTS for p in parts):
        raise argparse.ArgumentTypeError(
            f"must be two of {'/'.join(hkse.VARIANTS)} like lin,rbf, "
            f"got {text!r}")
    return parts


def _weighting(text: str) -> tuple[str, float | None]:
    """argparse type of --weighting: asymmetric, or symmetric:<alpha>."""
    kind, _, value = text.partition(":")
    if text == "asymmetric":
        return kind, None
    try:
        if kind == "symmetric":
            return kind, _finite_nonneg(value)
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be asymmetric or symmetric:<alpha> with a finite alpha >= 0, "
        f"got {text!r}")


class _OnceAction(argparse.Action):
    """Reject a repeated flag instead of silently keeping the last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest + "_seen", False):
            parser.error(f"{option_string} given more than once")
        setattr(namespace, self.dest + "_seen", True)
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccax",
        description="Regularized CCA retrieval pipeline: generate or ingest "
                    "features, embed sentences, fit and select models, "
                    "evaluate bidirectional retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="key=value file of flag defaults")

    def add_path_inputs(p, val_required=True):
        """The training pair, validation set and axes a path runs on."""
        p.add_argument("--x", required=True, help="training view X (FMAT1)")
        p.add_argument("--y", required=True, help="training view Y (FMAT1)")
        p.add_argument("--val-x", required=val_required,
                       help="validation images (FMAT1)")
        p.add_argument("--val-y", required=val_required,
                       help="validation captions (FMAT1)")
        p.add_argument("--val-pairing", help="validation caption->image rows")
        p.add_argument("--grid", type=_grid_size,
                       default=_PATH_FLAGS["grid"],
                       help="cells of the default axes (default 20x20)")

    def add_axes_and_cells(p):
        p.add_argument("--grid-x", type=_number_list,
                       help="comma-separated axis of view X")
        p.add_argument("--grid-y", type=_number_list,
                       help="comma-separated axis of view Y")
        p.add_argument("--metric", choices=selection.METRICS,
                       default=_PATH_FLAGS["metric"])
        p.add_argument("--threads", type=_int_from(0),
                       default=_PATH_FLAGS["threads"],
                       help="path grid rows scored at once (default 1); "
                            "0 = min(32, cores + 4)")

    p = sub.add_parser("synth", help="generate seeded latent-factor data")
    add_config(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-train", type=_COUNT, default=2000)
    p.add_argument("--n-val", type=_COUNT, default=500)
    p.add_argument("--n-test", type=_COUNT, default=500)
    p.add_argument("--latent", type=_COUNT, default=20)
    p.add_argument("--mx", type=_COUNT, default=128)
    p.add_argument("--my", type=_COUNT, default=64)
    p.add_argument("--noise-x", type=_finite_nonneg, default=0.25)
    p.add_argument("--noise-y", type=_finite_nonneg, default=0.25)
    p.add_argument("--captions", type=_COUNT, default=1,
                   help="captions per image (default 1)")
    p.add_argument("--seed", type=_int_from(0), default=0)

    p = sub.add_parser("embed", help="embed a sentence corpus")
    add_config(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vectors", required=True, help="word-embedding text file")
    p.add_argument("--variant", type=_variant,
                   help="word,sentence layer kinds, e.g. rbf,rbf "
                        f"(default {','.join(_MAP_FLAGS['variant'])})")
    p.add_argument("--concat", type=_variant,
                   help="second map variant to concatenate")
    p.add_argument("--m", type=_COUNT, help="word-layer feature count "
                                         f"(default {_MAP_FLAGS['m']})")
    p.add_argument("--mprime", type=_COUNT,
                   help="sentence-layer feature count "
                        f"(default {_MAP_FLAGS['mprime']})")
    p.add_argument("--gamma", type=_bandwidth,
                   help="word bandwidth, a float or 'median' "
                        f"(default {_MAP_FLAGS['gamma']})")
    p.add_argument("--eta", type=_finite_nonneg, help="sentence bandwidth "
                                             f"(default {_MAP_FLAGS['eta']})")
    p.add_argument("--gamma-sample", type=_int_from(2),
                   help="words sampled by the median heuristic "
                        f"(default {_MAP_FLAGS['gamma_sample']})")
    p.add_argument("--oov", choices=("skip", "error"), default="skip")
    p.add_argument("--seed", type=_int_from(0),
                   help=f"map seed (default {_MAP_FLAGS['seed']})")
    p.add_argument("--out", required=True, help="output FMAT1 path")
    p.add_argument("--map-out", help="save the feature map archive here")
    p.add_argument("--map", help="reuse a saved feature map archive; no "
                                 "map-defining flag may be given with it")

    p = sub.add_parser("fit", help="fit a CCA model")
    add_config(p)
    add_path_inputs(p, val_required=False)  # read by guided-tsvd only
    add_axes_and_cells(p)
    p.set_defaults(**dict.fromkeys(_PATH_FLAGS))
    p.add_argument("--reg", action=_OnceAction, choices=_REG_KINDS,
                   default="none")
    p.add_argument("--gamma-x", type=_finite_nonneg, help="(default 0)")
    p.add_argument("--gamma-y", type=_finite_nonneg, help="(default 0)")
    p.add_argument("--kx", type=_COUNT)
    p.add_argument("--ky", type=_COUNT)
    p.add_argument("--path-out", help="write the T-SVD path TSV here")
    p.add_argument("--out", required=True, help="model archive path")

    p = sub.add_parser("path", help="regularization-path grid search")
    add_config(p)
    add_path_inputs(p)
    add_axes_and_cells(p)
    p.add_argument("--reg", action=_OnceAction,
                   choices=("tikhonov", "tsvd"), default="tsvd")
    p.add_argument("--out", required=True, help="path TSV")

    p = sub.add_parser("timing", help="time the T-SVD vs Tikhonov paths")
    add_config(p)
    add_path_inputs(p)
    p.set_defaults(grid_x=None, grid_y=None)  # always the default axes
    p.add_argument("--repeats", type=_COUNT, default=3)
    p.add_argument("--out", required=True, help="timing TSV")

    p = sub.add_parser("eval", help="evaluate bidirectional retrieval")
    add_config(p)
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--captions", required=True)
    p.add_argument("--pairing")
    p.add_argument("--weighting", type=_weighting, default="asymmetric",
                   help="asymmetric | symmetric:<alpha>")
    p.add_argument("--similarity", choices=("cosine", "l2"), default="cosine")
    p.add_argument("--blocks", type=_COUNT, default=1,
                   help="evaluate N contiguous image blocks and average")
    p.add_argument("--out", required=True, help="report TSV")

    p = sub.add_parser("sweep", help="alpha sweep of the weighting exponent")
    add_config(p)
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--captions", required=True)
    p.add_argument("--pairing")
    p.add_argument("--alphas", type=_alpha_list,
                   default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
                   help="comma-separated grid on [0, 1]")
    p.add_argument("--k", type=_COUNT, default=10, help="recall cutoff")
    p.add_argument("--out", required=True, help="sweep TSV")

    p = sub.add_parser("inspect", help="print a model archive manifest")
    add_config(p)
    p.add_argument("--model", required=True)

    return parser


def _resolve_map_flags(parser: argparse.ArgumentParser, args) -> None:
    """Reject map-defining flags beside --map, else fill in their defaults."""
    given = [dest for dest in _MAP_FLAGS if getattr(args, dest) is not None]
    if args.map and given:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
        parser.error(f"embed --map reuses a saved map; {flags} cannot be "
                     f"given with it")
    for dest, default in _MAP_FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _apply_config(argv: list[str]) -> list[str]:
    """Prepend flags from a --config file; explicit flags still win."""
    config_path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif arg.startswith("--config="):
            config_path = arg.split("=", 1)[1]
    if config_path is None:
        return argv
    injected: list[str] = []
    for lineno, line in io._text_lines(config_path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise io.DataFormatError(
                f"{config_path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        flag = "--" + key.strip().replace("_", "-")
        if not any(a == flag or a.startswith(flag + "=") for a in argv):
            injected.extend([flag, value.strip()])
    # keep the subcommand first, inject after it
    return argv[:1] + injected + argv[1:]


def _workers(args) -> int | None:
    threads = _PATH_FLAGS["threads"] if args.threads is None else args.threads
    return None if threads == 0 else threads


def _open_views(images_path, captions_path, pairing_path, flag: str):
    """Images and captions, opened to be read a block of rows at a time,
    and their pairing, checked against the headers and named by ``flag``."""
    images, captions = map(io.open_matrix, (images_path, captions_path))
    pair_index = io.load_pairing(pairing_path) if pairing_path else None
    # a bad pairing fails here, before any row is read or SVD paid for
    return images, captions, retrieval._check_pairing(
        pair_index, images.rows, captions.rows, flag)


def _load_path(args, kind: str) -> dict:
    """The arguments of a ``kind`` path over the command's files.

    Opens the training pair and the validation views, checking their
    headers and the validation pairing before the pair is read and
    prepared; the axes are the --grid-x/--grid-y lists, or the default
    axes of the --grid size.
    """
    x, y = io.open_matrix(args.x), io.open_matrix(args.y)
    images, captions, pair_index = _open_views(
        args.val_x, args.val_y, args.val_pairing, "--val-pairing")
    problem = cca.prepare(x, y)
    grid_x, grid_y = selection.path_axes(problem, kind, args.grid_x,
                                         args.grid_y,
                                         args.grid or _PATH_FLAGS["grid"])
    return dict(problem=problem, val_images=images, val_captions=captions,
                grid_x=grid_x, grid_y=grid_y, pair_index=pair_index)


def _read_archive(path, convert):
    """Load an archive and convert it; a format error names the file."""
    archive = io.load_archive(path)
    try:
        return convert(archive)
    except io.DataFormatError as exc:
        raise io.DataFormatError(f"{path}: {exc}") from None


def _cmd_synth(args) -> int:
    # a refused configuration leaves no output directory behind
    cfg = synthetic.LatentModelConfig(
        n_train=args.n_train, n_val=args.n_val, n_test=args.n_test,
        latent_dim=args.latent, image_dim=args.mx, text_dim=args.my,
        noise_x=args.noise_x, noise_y=args.noise_y, seed=args.seed,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    c = args.captions
    # each split's rows of each view to their file, one file open at a
    # time; a training image once per caption, so the pair is row-paired
    for (view, split), items in itertools.groupby(
            synthetic.caption_like_blocks(cfg, c), key=lambda item: item[:2]):
        repeat = c if (view, split) == ("images", "train") else 1
        name = {"images": "x", "captions": "y"}[view] if split == "train" \
            else view
        rows = getattr(cfg, f"n_{split}") * (c if view == "captions" else repeat)
        with io.create_matrix(out / f"{split}_{name}.fmat", rows,
                              args.mx if view == "images" else args.my) as w:
            for _, _, block in items:
                w.write(block.repeat(repeat, axis=0) if repeat > 1 else block)
    for split in ("val", "test"):
        io.save_pairing([i for i in range(getattr(cfg, f"n_{split}"))
                         for _ in range(c)], out / f"{split}_pairing.txt")
    print(f"wrote synthetic data under {out}")
    return 0


def _table_rows(table, tokens) -> io.EmbeddingTable:
    """The rows of ``tokens``, which are in table order; the table itself
    if they are all of it."""
    if len(tokens) == table.vocab_size:
        return table
    vectors = table.vectors[[table.index[t] for t in tokens]]
    vectors.flags.writeable = False  # owned and read-only: kept, not copied
    return io.EmbeddingTable(tuple(tokens), vectors)


def _cmd_embed(args) -> int:
    # the corpus is read first, so that the table's values are parsed only
    # for the words it uses and the rows the bandwidth sample draws
    lines = list(io.corpus_lines(args.corpus))
    words = {token for _, tokens in lines for token in tokens}
    variants = [args.variant] + ([args.concat] if args.concat else [])
    # only an rbf word layer reads gamma; lin-word maps record 0.0
    median = (not args.map and args.gamma == "median"
              and any(word == "rbf" for word, _ in variants))
    sampled: list[str] = []  # the sample's tokens, in file order

    def keep(count):
        rows = set()
        if median:
            drawn = hkse.sample_rows(count, args.gamma_sample, args.seed)
            rows = range(count) if drawn is None else set(drawn.tolist())

        def wanted(row, token):
            if row in rows:
                sampled.append(token)
            return row in rows or token in words

        return wanted

    table = io.load_embedding_table(args.vectors, keep)
    corpus = io.load_corpus(args.corpus, table, args.oov, lines)
    del lines
    if args.map:
        maps = _read_archive(args.map, hkse.maps_from_archive)
    else:
        if median:
            try:
                gamma = hkse.bandwidth_heuristic(
                    _table_rows(table, sampled), args.gamma_sample,
                    seed=args.seed)
            except io.DataFormatError as exc:  # the table's values overflow
                raise io.DataFormatError(f"{args.vectors}: {exc}") from None
            # the rows only the sample used are freed before embedding
            table = _table_rows(table, [t for t in table.tokens
                                        if t in words])
        else:
            gamma = 0.0 if args.gamma == "median" else args.gamma
        maps = [
            hkse.build_map(word, sent, gamma, args.eta, args.m, args.mprime,
                           table.dim, args.seed, stream=idx)
            for idx, (word, sent) in enumerate(variants)
        ]
    blocks = hkse.embed_blocks(maps, corpus, table)  # checks every input
    cols = sum(m.output_dim for m in maps)
    with io.create_matrix(args.out, len(corpus), cols) as out:
        for block in blocks:  # each written as it is embedded
            out.write(block)
    if args.map_out:
        io.save_archive(hkse.maps_to_archive(maps), args.map_out)
    print(f"embedded {len(corpus)} sentences into {cols} dims -> {args.out}")
    return 0


def _guided_out_paths(out: str) -> tuple[Path, Path]:
    base = Path(out)
    return (base.with_name(base.stem + "_search" + base.suffix),
            base.with_name(base.stem + "_annotation" + base.suffix))


def _save_guided(result, args) -> None:
    """Write the guided fit's path TSV, if asked, and its archives."""
    sel = result.tsvd_selection

    def archive_for(model, spec):
        # gamma_x / gamma_y in the manifest already carry the mapped
        # penalties; the winning ranks are recorded alongside them
        arc = cca.model_to_archive(model)
        arc.manifest["guided_k_x"] = str(spec.k_x)
        arc.manifest["guided_k_y"] = str(spec.k_y)
        arc.manifest["metric"] = sel.metric
        return arc

    if sel.metric == "mean-r1":
        models = [(args.out, result.search_model, sel.best_search)]
    else:
        search_path, annotation_path = _guided_out_paths(args.out)
        models = [(search_path, result.search_model, sel.best_search),
                  (annotation_path, result.annotation_model,
                   sel.best_annotation)]
    if args.path_out:
        io.save_text(selection.grid_to_tsv(result.tsvd_grid), args.path_out)
    for path, model, spec in models:
        io.save_archive(archive_for(model, spec), path)
    print("wrote " + " and ".join(str(path) for path, _, _ in models))


def _cmd_fit(args) -> int:
    # flags, and the spec of a fit without a path, are checked before any read
    for dest, reg in _REG_FLAGS.items():
        if args.reg != reg and getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} needs --reg {reg}")
    if args.reg == "guided-tsvd":
        if not (args.val_x and args.val_y):
            raise ValueError("--reg guided-tsvd needs --val-x and --val-y")
        result = selection.guided_tikhonov(
            **_load_path(args, "tsvd"),
            metric=args.metric or _PATH_FLAGS["metric"],
            workers=_workers(args))
        _save_guided(result, args)
        return 0
    if args.reg == "none":
        spec = cca.RegularizationSpec.none()
    elif args.reg == "tikhonov":
        spec = cca.RegularizationSpec.tikhonov(args.gamma_x or 0.0,
                                               args.gamma_y or 0.0)
    elif args.kx is None or args.ky is None:
        raise ValueError("--reg tsvd needs --kx and --ky")
    else:
        spec = cca.RegularizationSpec.tsvd(args.kx, args.ky)
    problem = cca.prepare(io.open_matrix(args.x), io.open_matrix(args.y))
    model = cca.solve(problem, spec)
    io.save_archive(cca.model_to_archive(model), args.out)
    print(f"fit {model.reg.kind} model: k={model.k}, "
          f"top correlation {model.sigma[0]:.4f} -> {args.out}")
    return 0


def _cmd_path(args) -> int:
    runner = (selection.tsvd_path if args.reg == "tsvd"
              else selection.tikhonov_path)
    grid, sel = runner(**_load_path(args, args.reg), metric=args.metric,
                       workers=_workers(args))
    io.save_text(selection.grid_to_tsv(grid), args.out)

    def describe(spec):
        if spec.kind == "tsvd":
            return f"k_x={spec.k_x} k_y={spec.k_y}"
        return f"gamma_x={spec.gamma_x:.6g} gamma_y={spec.gamma_y:.6g}"

    print(f"best search: {describe(sel.best_search)} "
          f"(r@1 {sel.best_search_score:.4g})")
    print(f"best annotation: {describe(sel.best_annotation)} "
          f"(r@1 {sel.best_annotation_score:.4g})")
    return 0


def _cmd_timing(args) -> int:
    report = selection.measure_path_timing(**_load_path(args, "tsvd"),
                                           repeats=args.repeats)
    lines = [
        "quantity\tvalue",
        f"tsvd_median_seconds\t{report.tsvd_seconds:.6g}",
        f"tikhonov_median_seconds\t{report.tikhonov_seconds:.6g}",
        f"speedup_ratio\t{report.speedup:.6g}",
        f"cells\t{report.cells}",
        f"repeats\t{report.repeats}",
    ]
    io.save_text("\n".join(lines) + "\n", args.out)
    print(f"T-SVD {report.tsvd_seconds:.3f}s vs Tikhonov "
          f"{report.tikhonov_seconds:.3f}s ({report.speedup:.2f}x)")
    return 0


def _write_report(args, report) -> int:
    """Write to --out, and print, the TSV text ``report`` makes of the
    --model and the --images, --captions and --pairing views."""
    model = _read_archive(args.model, cca.model_from_archive)
    text = report(model, *_open_views(args.images, args.captions,
                                      args.pairing, "--pairing"))
    io.save_text(text, args.out)
    print(text, end="")
    return 0


def _cmd_eval(args) -> int:
    weighting, alpha = args.weighting
    return _write_report(args, lambda *views: retrieval.reports_to_tsv(
        retrieval.evaluate_blocks(*views, args.blocks, weighting, alpha,
                                  args.similarity)))


def _cmd_sweep(args) -> int:
    return _write_report(args, lambda model, images, captions, pairs:
                         retrieval.sweep_to_tsv(retrieval.alpha_sweep(
                             model, images, captions, args.alphas,
                             pair_index=pairs, k=args.k)))


def _cmd_inspect(args) -> int:
    archive = io.load_archive(args.model)
    for key, value in archive.manifest.items():
        print(f"{key}={value}")
    for name, blob in archive.blobs.items():
        print(f"[blob] {name}: {blob.rows}x{blob.cols}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "embed": _cmd_embed,
    "fit": _cmd_fit,
    "path": _cmd_path,
    "timing": _cmd_timing,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "inspect": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # a command that fails leaves none of its output files, and no output
    # may name an input, --config included
    try:
        with io.output_group():
            args = parser.parse_args(_apply_config(argv))
            if args.command == "embed":
                _resolve_map_flags(parser, args)
            return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"ccax: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
