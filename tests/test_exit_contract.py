"""The exit contract as a property over damaged inputs.

Whatever one byte of one input file becomes, a command exits 0, 1 or 2,
raises no exception past ``main`` (no traceback), emits no numpy
``RuntimeWarning``, and a command that exits non-zero leaves none of its
output files.  Every input kind is damaged in turn: FMAT1 views, pairing
and config files, model and map archives, the word table (also at the
edge of its first window of lines) and the corpus.

The same holds when an output cannot be written: each writing command is
run in a child process under a file-size limit, when two outputs name one
file, and when an output names one of the command's inputs, which keeps
its bytes.
"""

import contextlib
import io as stdio
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccax
from ccax import cli, io
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


#: ``python -m ccax`` in a process whose files may grow to ``argv[1]``
#: bytes: RLIMIT_FSIZE binds this process only, and SIGXFSZ is ignored, so
#: a write past the limit fails with EFBIG instead of killing it.
_LIMITED = """import resource, runpy, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
runpy.run_module("ccax", run_name="__main__", alter_sys=True)
"""


def start_limited(argv, fsize: int) -> subprocess.Popen:
    """Start ``python -m ccax`` with ``argv`` in a child process whose
    files may not grow past ``fsize`` bytes."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(ccax.__file__).parents[1])}
    return subprocess.Popen(
        [sys.executable, "-c", _LIMITED, str(fsize), *map(str, argv)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)


def _path_flags(f):
    return ["--x", f["train_x.fmat"], "--y", f["train_y.fmat"],
            "--val-x", f["val_images.fmat"], "--val-y", f["val_captions.fmat"],
            "--val-pairing", f["val_pairing.txt"], "--grid", "2x2"]


def _test_flags(f):
    return ["--model", f["model.arc"], "--images", f["test_images.fmat"],
            "--captions", f["test_captions.fmat"],
            "--pairing", f["test_pairing.txt"]]


#: The argv of each writing command, given the inputs and the directory its
#: outputs go to.  Path and timing TSVs hold seconds, whose printed width
#: varies from run to run, so their cut is taken in the header line.
WRITE_CASES = {
    "synth": lambda f, out: [
        "synth", "--out-dir", out, "--n-train", "30", "--n-val", "8",
        "--n-test", "8", "--latent", "2", "--mx", "4", "--my", "3",
        "--captions", "2", "--seed", "1"],
    "embed": lambda f, out: _embed(f, out),
    "fit-tikhonov": lambda f, out: [
        "fit", "--reg", "tikhonov", "--gamma-x", "0.1", "--gamma-y", "0.1",
        "--x", f["train_x.fmat"], "--y", f["train_y.fmat"],
        "--out", out / "model.arc"],
    "fit-guided-r1": lambda f, out: _fit(f, out),
    "fit-guided-mean-r1": lambda f, out: _fit(f, out) + [
        "--metric", "mean-r1"],
    "path": lambda f, out: ["path", *_path_flags(f),
                            "--out", out / "path.tsv"],
    "timing": lambda f, out: ["timing", *_path_flags(f), "--repeats", "1",
                              "--out", out / "timing.tsv"],
    "eval": lambda f, out: ["eval", *_test_flags(f),
                            "--out", out / "report.tsv"],
    "eval-blocks": lambda f, out: ["eval", *_test_flags(f), "--blocks", "2",
                                   "--out", out / "report.tsv"],
    "sweep": lambda f, out: ["sweep", *_test_flags(f),
                             "--out", out / "sweep.tsv"],
}


def test_every_writing_command_has_a_write_failure_case(inputs):
    files = {p.name: p for p in inputs.iterdir()}
    assert ({argv(files, inputs)[0] for argv in WRITE_CASES.values()}
            == set(cli._COMMANDS) - {"inspect"})


@pytest.mark.parametrize("case", WRITE_CASES)
def test_failed_write_leaves_no_output(case, inputs, tmp_path, capsys):
    files = {p.name: p for p in inputs.iterdir()}
    ref = tmp_path / "ref"
    ref.mkdir()
    assert main([str(a) for a in WRITE_CASES[case](files, ref)]) == 0
    capsys.readouterr()
    outputs = [p.read_bytes() for p in ref.iterdir()]
    largest = max(len(data) for data in outputs)
    if case in ("path", "timing"):
        largest = outputs[0].index(b"\n") + 1
    runs = []
    for fsize in (0, largest - 1):
        out = tmp_path / f"out{fsize}"
        out.mkdir()
        runs.append((out, start_limited(WRITE_CASES[case](files, out),
                                        fsize)))
    for out, child in runs:
        err = child.communicate(timeout=60)[1]
        assert child.returncode == 1, err
        assert err.startswith("ccax: error: ") and "Traceback" not in err
        assert list(out.iterdir()) == [], err


@pytest.mark.parametrize("case", ["same name", "symlink", "guided"])
def test_two_outputs_naming_one_file_are_refused(case, inputs, tmp_path,
                                                 capsys):
    files = {p.name: p for p in inputs.iterdir()}
    if case == "guided":  # the path TSV where the search archive goes
        argv = _fit(files, tmp_path)
        argv[argv.index("--path-out") + 1] = tmp_path / "model_search.arc"
    else:
        argv = _embed(files, tmp_path)
        alias = tmp_path / "alias.fmat"
        if case == "symlink":
            alias.symlink_to(tmp_path / "e.fmat")
        argv[argv.index("--map-out") + 1] = (
            alias if case == "symlink" else tmp_path / "e.fmat")
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ccax: error: ") and "already opened" in err
    assert [p.name for p in tmp_path.iterdir() if p.exists()] == []


#: An output that names one of the command's inputs: (the writing case,
#: the input, the output flag given it, how the flag names it).
INPUT_AS_OUTPUT = {
    "eval --out images": ("eval", "test_images.fmat", "--out", "path"),
    "fit --out training view": ("fit-tikhonov", "train_x.fmat", "--out",
                                "path"),
    "guided --path-out captions": ("fit-guided-r1", "val_captions.fmat",
                                   "--path-out", "path"),
    "sweep --out pairing symlink": ("sweep", "test_pairing.txt", "--out",
                                    "symlink"),
    "embed --out corpus hard link": ("embed", "caps.txt", "--out",
                                     "hard link"),
    "embed --map-out table": ("embed", "vectors.txt", "--map-out", "path"),
    "eval --out config": ("eval-config", "config.txt", "--out", "path"),
}


@pytest.mark.parametrize("case", INPUT_AS_OUTPUT)
def test_an_output_naming_an_input_is_refused(case, inputs, tmp_path,
                                              capsys):
    # the input is refused before it is truncated, keeps its bytes, and is
    # not removed with the command's other outputs
    command, name, flag, by = INPUT_AS_OUTPUT[case]
    files = {p.name: p for p in inputs.iterdir()}
    files[name] = tmp_path / name
    files[name].write_bytes((inputs / name).read_bytes())
    alias = tmp_path / "alias"
    if by == "symlink":
        alias.symlink_to(files[name])
    elif by == "hard link":
        os.link(files[name], alias)
    out = tmp_path / "out"
    out.mkdir()
    argv = {**WRITE_CASES, "eval-config": _eval}[command](files, out)
    argv[argv.index(flag) + 1] = files[name] if by == "path" else alias
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ccax: error: ") and "Traceback" not in err
    assert f"already opened as input {files[name]}" in err
    assert files[name].read_bytes() == (inputs / name).read_bytes()
    assert list(out.iterdir()) == []
