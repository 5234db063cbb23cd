"""The exit contract as a property over damaged inputs.

Whatever one byte of one input file becomes, a command exits 0, 1 or 2,
raises no exception past ``main`` (no traceback), emits no numpy
``RuntimeWarning``, and a command that exits non-zero leaves none of its
output files.  Every input kind is damaged in turn: FMAT1 views, pairing
and config files, model and map archives, the word table (also at the
edge of its first window of lines) and the corpus.
"""

import contextlib
import io as stdio
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccax import io
from ccax.cli import main


def _fit(f, out):
    return ["fit", "--reg", "guided-tsvd", "--grid", "2x2",
            "--x", f["train_x.fmat"], "--y", f["train_y.fmat"],
            "--val-x", f["val_images.fmat"], "--val-y", f["val_captions.fmat"],
            "--val-pairing", f["val_pairing.txt"],
            "--path-out", out / "path.tsv", "--out", out / "model.arc"]


def _eval(f, out):
    return ["eval", "--config", f["config.txt"], "--model", f["model.arc"],
            "--images", f["test_images.fmat"],
            "--captions", f["test_captions.fmat"],
            "--pairing", f["test_pairing.txt"], "--out", out / "report.tsv"]


def _embed(f, out):
    return ["embed", "--corpus", f["caps.txt"], "--vectors", f["vectors.txt"],
            "--variant", "rbf,rbf", "--m", "4", "--mprime", "3",
            "--gamma-sample", "12", "--out", out / "e.fmat",
            "--map-out", out / "e.arc"]


def _embed_map(f, out):
    return ["embed", "--corpus", f["caps.txt"], "--vectors", f["vectors.txt"],
            "--map", f["map.arc"], "--out", out / "e.fmat"]


def _inspect(f, out):
    return ["inspect", "--model", f["model.arc"]]


#: (input file, the command that reads it), for every input kind.
CASES = [
    *[(name, _fit) for name in ("train_x.fmat", "train_y.fmat",
                                "val_images.fmat", "val_captions.fmat",
                                "val_pairing.txt")],
    *[(name, _eval) for name in ("test_images.fmat", "test_captions.fmat",
                                 "test_pairing.txt", "model.arc",
                                 "config.txt")],
    ("vectors.txt", _embed), ("caps.txt", _embed),
    ("map.arc", _embed_map), ("model.arc", _inspect),
]

#: Table rows: more than one window of lines.
VOCAB = io._TABLE_WINDOW_LINES + 8


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Directory of valid inputs, one file per kind."""
    d = tmp_path_factory.mktemp("inputs")
    assert main(["synth", "--out-dir", str(d), "--n-train", "30",
                 "--n-val", "8", "--n-test", "8", "--latent", "2",
                 "--mx", "4", "--my", "3", "--captions", "2",
                 "--seed", "1"]) == 0
    assert main(["fit", "--reg", "tikhonov", "--gamma-x", "0.1",
                 "--gamma-y", "0.1", "--x", str(d / "train_x.fmat"),
                 "--y", str(d / "train_y.fmat"),
                 "--out", str(d / "model.arc")]) == 0
    (d / "config.txt").write_text(
        "# eval defaults\nsimilarity=l2\nweighting=symmetric:0.5\nblocks=2\n")
    (d / "vectors.txt").write_text(f"{VOCAB} 3\n" + "".join(
        f"w{i} {i % 7 - 3:.4f} {i / VOCAB:.4f} -{i % 3}.25\n"
        for i in range(VOCAB)))
    (d / "caps.txt").write_text(
        f"w1 w2 w{VOCAB - 1}\nW3, w{VOCAB - 5}!\n\nw0 w0 w7 w{VOCAB // 2}\n")
    assert main(["embed", "--corpus", str(d / "caps.txt"),
                 "--vectors", str(d / "vectors.txt"), "--variant", "rbf,lin",
                 "--concat", "lin,rbf", "--m", "4", "--mprime", "3",
                 "--gamma", "0.5", "--out", str(d / "e.fmat"),
                 "--map-out", str(d / "map.arc")]) == 0
    return d


def _edges(name: str, data: bytes) -> list[int]:
    """Byte offsets where damage is likeliest to be misread: either side
    of the first window's last line for the table, every line boundary of
    other text, and the header fields of binary files."""
    if name.endswith((".fmat", ".arc")):
        return [0, 7, 8, 15, 16, 23, 24]
    starts = [0] + [i + 1 for i, b in enumerate(data) if b == ord("\n")]
    if name == "vectors.txt":  # file lines W + 1 and W + 2 end the window
        starts = starts[io._TABLE_WINDOW_LINES - 1:
                        io._TABLE_WINDOW_LINES + 3]
    return sorted({max(0, s + d) for s in starts for d in (-1, 0, 1)})


@st.composite
def damage(draw, name: str, data: bytes) -> bytes:
    """``data`` cut, or with one byte replaced, inserted or deleted."""
    kind = draw(st.sampled_from(("cut", "replace", "insert", "delete")))
    pos = min(len(data), draw(st.integers(0, len(data))
                              | st.sampled_from(_edges(name, data))))
    byte = bytes([draw(st.sampled_from(b"\n\r \t\xff0-.e9")
                       | st.integers(0, 255))])
    if kind == "cut":
        return data[:pos]
    if kind == "replace":
        return data[:pos] + byte + data[pos + 1:]
    if kind == "insert":
        return data[:pos] + byte + data[pos:]
    return data[:pos] + data[pos + 1:]


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_damaged_input_keeps_the_exit_contract(case, data, inputs,
                                               tmp_path_factory):
    name, command = case
    run = tmp_path_factory.mktemp("run")
    bad = run / name
    bad.write_bytes(data.draw(damage(name, (inputs / name).read_bytes())))
    out = run / "out"
    out.mkdir()
    files = {p.name: p for p in inputs.iterdir()}
    argv = [str(a) for a in command({**files, name: bad}, out)]
    err = stdio.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdio.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code:
        assert list(out.iterdir()) == [], err.getvalue()
