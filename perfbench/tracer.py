"""Span recorder that times calls into ccax's public functions from outside.

Nothing under ``src/`` is touched: :meth:`Tracer.install` replaces each
public module-level function of the ccax modules (and ``numpy.linalg.svd``)
with a wrapper that records a span, and :meth:`Tracer.uninstall` puts the
originals back.  Names that one ccax module binds from another with
``from .cca import thin_svd`` are rebound too, because those calls never
look up the module attribute.

A span holds its name, start, end, parent span and a few attributes computed
from argument shapes.  Spans stay in memory; the caller writes them out once.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

#: ccax modules whose public functions are wrapped; a span's layer is the
#: first component of its name ("linalg" for numpy.linalg.svd).
MODULES = ("io", "cca", "selection", "retrieval", "hkse", "synthetic")


def _shape(value):
    values = getattr(value, "values", value)
    shape = getattr(values, "shape", None)
    return [int(d) for d in shape] if shape is not None else None


def _arg_shape(args, kwargs, result):
    value = args[0] if args else next(iter(kwargs.values()))
    return {"shape": _shape(value)}


def _result_shape(args, kwargs, result):
    return {"shape": _shape(result)}


def _tsvd_path_attrs(args, kwargs, result):
    grid = result[0]
    return {"cell_seconds": [float(v) for v in grid.cell_seconds.ravel()]}


def _embed_corpus_attrs(args, kwargs, result):
    corpus = args[1] if len(args) > 1 else kwargs["corpus"]
    maps = args[0] if args else kwargs["maps"]
    n_maps = len(maps) if isinstance(maps, (list, tuple)) else 1
    return {"tokens": n_maps * sum(len(s) for s in corpus.sentences)}


# attributes recorded for particular spans, computed after the call returns
_ATTRS = {
    "linalg.svd": _arg_shape,
    "cca.thin_svd": _arg_shape,
    "io.load_matrix": _result_shape,
    "retrieval.rank": _result_shape,
    "selection.tsvd_path": _tsvd_path_attrs,
    "hkse.embed_corpus": _embed_corpus_attrs,
}


class Tracer:
    """Collects spans of one process; wrappers record only while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        attrs = _ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = {"id": len(spans), "op": self.op,
                    "parent": parent["id"] if parent else None,
                    "name": name}
            if name == "linalg.svd":
                # thin SVDs of data matrices run inside cca.thin_svd; every
                # other SVD is of a block of the correlation operator
                inside = parent is not None and parent["name"] == "cca.thin_svd"
                span["kind"] = "thin" if inside else "block"
            spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every public function of the ccax modules, and the CLI entry."""
        import importlib

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"ccax.{name}")
                   for name in MODULES}
        wrappers: dict[int, object] = {}
        for name, module in modules.items():
            for attr, fn in vars(module).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(fn, f"{name}.{attr}")
                wrappers[id(fn)] = wrapper
                self._patch(module, attr, wrapper)
        # names bound by "from .x import f" bypass the module attribute
        for module in modules.values():
            for attr, value in vars(module).copy().items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None and getattr(module, attr) is not wrapper:
                    self._patch(module, attr, wrapper)
        retrieval = modules["retrieval"]
        for method in ("embed_images", "embed_texts"):
            fn = getattr(retrieval.TaskEmbedding, method)
            self._patch(retrieval.TaskEmbedding, method,
                        self._wrap(fn, f"retrieval.TaskEmbedding.{method}"))
        self._patch(np.linalg, "svd", self._wrap(np.linalg.svd, "linalg.svd"))
        cli = importlib.import_module("ccax.cli")
        self._patch(cli, "main", self._wrap(cli.main, "cli.main"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Calls run on one thread (path workers are pinned to 1), so children of
    a span never overlap and their durations can be summed.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
