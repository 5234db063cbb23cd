"""End-to-end CLI runs: contracts, exit codes, determinism."""

import argparse
import os
import struct
import threading
import warnings

import numpy as np
import pytest
from numpy.linalg import lapack_lite

from blas_threads import run_under_blas_threads
from ccax import cca, cli, hkse, io, selection, synthetic
from ccax.cli import main
from oracles import embed_corpus, matrix_to_bytes, save_embedding_table


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main([
        "synth", "--out-dir", str(out), "--n-train", "120", "--n-val", "40",
        "--n-test", "40", "--latent", "4", "--mx", "16", "--my", "12",
        "--captions", "3", "--seed", "5",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def word_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("words")
    rng = np.random.default_rng(1)
    vocab = ["red", "green", "blue", "dog", "cat", "runs", "sits"]
    table = io.EmbeddingTable(tuple(vocab), rng.standard_normal((7, 5)))
    save_embedding_table(table, path / "vectors.txt")
    (path / "caps.txt").write_text(
        "red dog runs\nblue cat sits\ngreen dog sits\nred cat runs\n"
    )
    (path / "pairing.txt").write_text("0\n1\n2\n3\n")
    return path


#: the files ``synth`` writes: the training pair and each held-out split
SYNTH_FILES = ["test_captions.fmat", "test_images.fmat", "test_pairing.txt",
               "train_x.fmat", "train_y.fmat", "val_captions.fmat",
               "val_images.fmat", "val_pairing.txt"]


class TestSynth:
    def test_expected_files(self, synth_dir):
        for name in SYNTH_FILES:
            assert (synth_dir / name).exists(), name
        assert sorted(p.name for p in synth_dir.iterdir()) == SYNTH_FILES

    def test_shapes(self, synth_dir):
        images = {split: io.load_matrix(synth_dir / f"{split}_images.fmat")
                  for split in ("val", "test")}
        captions = [io.load_matrix(synth_dir / f"{split}_captions.fmat")
                    for split in ("val", "test")]
        train_y = io.load_matrix(synth_dir / "train_y.fmat")
        # 120 training images, each once per caption, and 40 + 40 held out
        assert io.load_matrix(synth_dir / "train_x.fmat").rows // 3 + sum(
            m.rows for m in images.values()) == 200
        assert train_y.rows + sum(m.rows for m in captions) == 600
        assert io.load_matrix(synth_dir / "train_x.fmat").rows == 360
        assert images["val"].rows == 40

    def test_deterministic_rerun(self, synth_dir, tmp_path):
        code = main([
            "synth", "--out-dir", str(tmp_path), "--n-train", "120",
            "--n-val", "40", "--n-test", "40", "--latent", "4",
            "--mx", "16", "--my", "12", "--captions", "3", "--seed", "5",
        ])
        assert code == 0
        for name in SYNTH_FILES:
            assert (tmp_path / name).read_bytes() == \
                (synth_dir / name).read_bytes()

    def test_files_match_the_whole_draw(self, synth_dir):
        # each file holds its split's rows of generate_caption_like's draw,
        # the training images once per caption
        data = synthetic.generate_caption_like(synthetic.LatentModelConfig(
            120, 40, 40, 4, 16, 12, seed=5), 3)
        train_x, train_y = data.paired_training_views()
        for name, want in (("train_x", train_x.values),
                           ("train_y", train_y.values)):
            np.testing.assert_array_equal(
                io.load_matrix(synth_dir / f"{name}.fmat").values, want)
        for split in ("val", "test"):
            images, captions, pairs = data.split_views(split)
            for view, want in (("images", images), ("captions", captions)):
                np.testing.assert_array_equal(io.load_matrix(
                    synth_dir / f"{split}_{view}.fmat").values, want.values)
            np.testing.assert_array_equal(
                io.load_pairing(synth_dir / f"{split}_pairing.txt"), pairs)

    def test_each_row_written_once(self, tmp_path, monkeypatch):
        # blocks of 192 rows that span the splits (at 250 and 320 images,
        # 750 and 960 captions): every image row goes to train_x once per
        # caption or once to its split's file, every caption row once, and
        # each file is written whole before the next is opened
        received = []
        write = io.MatrixWriter.write

        def counting_write(writer, block):
            received.append((os.path.basename(writer._fh.name),
                             block.copy()))
            write(writer, block)

        monkeypatch.setattr(io.MatrixWriter, "write", counting_write)
        assert main([
            "synth", "--out-dir", str(tmp_path), "--n-train", "250",
            "--n-val", "70", "--n-test", "60", "--latent", "100",
            "--mx", "512", "--my", "128", "--captions", "3", "--seed", "8",
        ]) == 0
        names = [name for name, _ in received]
        order = [name for i, name in enumerate(names)
                 if i == 0 or names[i - 1] != name]
        # each file's rows of the draw, and the times each is written
        want = {"train_x.fmat": ("images", range(250), 3),
                "val_images.fmat": ("images", range(250, 320), 1),
                "test_images.fmat": ("images", range(320, 380), 1),
                "train_y.fmat": ("captions", range(750), 1),
                "val_captions.fmat": ("captions", range(750, 960), 1),
                "test_captions.fmat": ("captions", range(960, 1140), 1)}
        assert order == list(want)
        data = synthetic.generate_caption_like(synthetic.LatentModelConfig(
            250, 70, 60, 100, 512, 128, seed=8), 3)
        row_of = {view: {row.tobytes(): i for i, row in
                         enumerate(getattr(data, view).values)}
                  for view in ("images", "captions")}
        for name, (view, rows, times) in want.items():
            got = [row_of[view][row.tobytes()] for file, block in received
                   if file == name for row in block]
            assert sorted(got) == sorted(list(rows) * times), name

    # a latent dimension above a view's dimension is refused by the
    # configuration (exit 1); counts below 1 already fail while parsing
    @pytest.mark.parametrize("flags", [["--latent", "65"],
                                       ["--mx", "8", "--latent", "9"]])
    def test_refused_configuration_writes_nothing(self, flags, tmp_path,
                                                  capsys):
        assert main(["synth", "--out-dir", str(tmp_path / "s")] + flags) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestFit:
    def test_plain_fit_archive(self, synth_dir, tmp_path):
        out = tmp_path / "model.arc"
        code = main([
            "fit", "--x", str(synth_dir / "train_x.fmat"),
            "--y", str(synth_dir / "train_y.fmat"),
            "--reg", "none", "--out", str(out),
        ])
        assert code == 0
        model = cca.model_from_archive(io.load_archive(out))
        assert np.all(np.diff(model.sigma) <= 0)
        assert model.reg.kind == "none"

    def test_tsvd_flags(self, synth_dir, tmp_path):
        out = tmp_path / "model.arc"
        code = main([
            "fit", "--x", str(synth_dir / "train_x.fmat"),
            "--y", str(synth_dir / "train_y.fmat"),
            "--reg", "tsvd", "--kx", "3", "--ky", "3", "--out", str(out),
        ])
        assert code == 0
        model = cca.model_from_archive(io.load_archive(out))
        assert model.reg.k_x == 3 and model.reg.k_y == 3

    def test_conflicting_reg_flags_usage_error(self, synth_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "fit", "--x", str(synth_dir / "train_x.fmat"),
                "--y", str(synth_dir / "train_y.fmat"),
                "--reg", "tikhonov", "--reg", "tsvd",
                "--out", str(tmp_path / "m.arc"),
            ])
        assert exc.value.code == 2
        assert "more than once" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = main([
            "fit", "--x", str(tmp_path / "absent.fmat"),
            "--y", str(tmp_path / "absent.fmat"),
            "--out", str(tmp_path / "m.arc"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--reg", "tsvd", "--ky", "2"], "--reg tsvd needs --kx and --ky"),
        (["--reg", "tsvd", "--kx", "2"], "--reg tsvd needs --kx and --ky"),
        (["--reg", "guided-tsvd"],
         "--reg guided-tsvd needs --val-x and --val-y"),
        # only a guided fit walks a path, so --path-out would go unwritten
        *[(reg + ["--path-out", "p.tsv"], "--path-out needs --reg guided-tsvd")
          for reg in (["--reg", "none"], ["--reg", "tikhonov"],
                      ["--reg", "tsvd", "--kx", "2", "--ky", "2"])],
        # a flag another --reg reads would go unread
        *[(reg + [flag, "3"], f"{flag} needs --reg tikhonov")
          for flag in ("--gamma-x", "--gamma-y")
          for reg in (["--reg", "none"],
                      ["--reg", "tsvd", "--kx", "2", "--ky", "2"],
                      ["--reg", "guided-tsvd", "--val-x", "v", "--val-y", "v"])],
        *[(reg + [flag, "3"], f"{flag} needs --reg tsvd")
          for flag in ("--kx", "--ky")
          for reg in (["--reg", "none"], ["--reg", "tikhonov"],
                      ["--reg", "guided-tsvd", "--val-x", "v", "--val-y", "v"])],
        *[(reg + [flag, value], f"{flag} needs --reg guided-tsvd")
          for flag, value in (("--val-x", "v"), ("--val-y", "v"),
                              ("--val-pairing", "p"), ("--grid-x", "2"),
                              ("--grid-y", "2"), ("--grid", "3x3"),
                              ("--metric", "mean-r1"), ("--threads", "4"))
          for reg in (["--reg", "none"], ["--reg", "tikhonov"],
                      ["--reg", "tsvd", "--kx", "2", "--ky", "2"])],
    ])
    def test_spec_checked_before_any_file_is_read(self, flags, message,
                                                  tmp_path, capsys):
        code = main(["fit", "--x", str(tmp_path / "absent.fmat"),
                     "--y", str(tmp_path / "absent.fmat"),
                     "--out", str(tmp_path / "m.arc")] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_config_key_counts_as_given(self, tmp_path, capsys):
        config = tmp_path / "fit.cfg"
        config.write_text("reg=tikhonov\nkx=3\n")
        code = main(["fit", "--config", str(config),
                     "--x", str(tmp_path / "absent.fmat"),
                     "--y", str(tmp_path / "absent.fmat"),
                     "--out", str(tmp_path / "m.arc")])
        assert code == 1
        assert "--kx needs --reg tsvd" in capsys.readouterr().err

    def test_tikhonov_penalties_default_to_zero(self, synth_dir, tmp_path):
        out = tmp_path / "model.arc"
        assert main(["fit", "--x", str(synth_dir / "train_x.fmat"),
                     "--y", str(synth_dir / "train_y.fmat"),
                     "--reg", "tikhonov", "--gamma-y", "2",
                     "--out", str(out)]) == 0
        reg = cca.model_from_archive(io.load_archive(out)).reg
        assert (reg.gamma_x, reg.gamma_y) == (0.0, 2.0)

    def test_guided_tsvd_records_ranks_and_penalties(self, synth_dir, tmp_path):
        out = tmp_path / "model.arc"
        code = main([
            "fit", "--x", str(synth_dir / "train_x.fmat"),
            "--y", str(synth_dir / "train_y.fmat"),
            "--reg", "guided-tsvd", "--grid", "4x4",
            "--val-x", str(synth_dir / "val_images.fmat"),
            "--val-y", str(synth_dir / "val_captions.fmat"),
            "--val-pairing", str(synth_dir / "val_pairing.txt"),
            "--metric", "r1",
            "--path-out", str(tmp_path / "path.tsv"),
            "--out", str(out),
        ])
        assert code == 0
        for task in ("search", "annotation"):
            arc = io.load_archive(tmp_path / f"model_{task}.arc")
            assert arc.manifest["kind"] == "tikhonov"
            k_x = int(arc.manifest["guided_k_x"])
            k_y = int(arc.manifest["guided_k_y"])
            assert k_x >= 1 and k_y >= 1
            # the mapped penalty is the squared singular value at the rank
            s_x = cca.prepare(io.load_matrix(synth_dir / "train_x.fmat"),
                              io.load_matrix(synth_dir / "train_y.fmat")).s_x
            assert float(arc.manifest["gamma_x"]) == s_x[k_x - 1] ** 2
        assert (tmp_path / "path.tsv").exists()

    def test_guided_combined_metric_single_archive(self, synth_dir, tmp_path):
        out = tmp_path / "combined.arc"
        code = main([
            "fit", "--x", str(synth_dir / "train_x.fmat"),
            "--y", str(synth_dir / "train_y.fmat"),
            "--reg", "guided-tsvd", "--grid", "3x3",
            "--val-x", str(synth_dir / "val_images.fmat"),
            "--val-y", str(synth_dir / "val_captions.fmat"),
            "--val-pairing", str(synth_dir / "val_pairing.txt"),
            "--metric", "mean-r1", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("metric, out, blocked", [
        ("r1", "nodir/model.arc", None),
        ("mean-r1", "nodir/model.arc", None),
        ("r1", "model.arc", "model_annotation.arc"),
    ])
    def test_refused_guided_fit_leaves_no_output(self, metric, out, blocked,
                                                 synth_dir, tmp_path,
                                                 capsys):
        # an archive that cannot be written (no such directory, or a
        # directory where the annotation archive goes) refuses the fit,
        # and the path TSV and the archives written before it go too
        if blocked:
            (tmp_path / blocked).mkdir()
        code = main([
            "fit", "--x", str(synth_dir / "train_x.fmat"),
            "--y", str(synth_dir / "train_y.fmat"),
            "--reg", "guided-tsvd", "--grid", "3x3",
            "--val-x", str(synth_dir / "val_images.fmat"),
            "--val-y", str(synth_dir / "val_captions.fmat"),
            "--val-pairing", str(synth_dir / "val_pairing.txt"),
            "--metric", metric, "--path-out", str(tmp_path / "path.tsv"),
            "--out", str(tmp_path / out),
        ])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("ccax: error: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [blocked] if blocked else [])


class TestPath:
    def test_tsv_written_and_deterministic_modulo_timing(self, synth_dir,
                                                         tmp_path):
        outs = []
        for run in range(2):
            out = tmp_path / f"path{run}.tsv"
            code = main([
                "path", "--x", str(synth_dir / "train_x.fmat"),
                "--y", str(synth_dir / "train_y.fmat"),
                "--val-x", str(synth_dir / "val_images.fmat"),
                "--val-y", str(synth_dir / "val_captions.fmat"),
                "--val-pairing", str(synth_dir / "val_pairing.txt"),
                "--reg", "tsvd", "--grid", "3x3", "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_text())

        def strip_timing(text):
            return [line.rsplit("\t", 1)[0] for line in text.splitlines()]

        assert strip_timing(outs[0]) == strip_timing(outs[1])
        header = outs[0].splitlines()[0]
        assert header == "param_x\tparam_y\tr1_search\tr1_annotation\tcell_seconds"


class TestThreadsFlag:
    @pytest.mark.parametrize("command", ["fit", "path"])
    def test_one_worker_unless_asked(self, command):
        parser = cli._build_parser()
        argv = [command, "--x", "x", "--y", "y", "--val-x", "vx",
                "--val-y", "vy", "--out", "o"]
        assert cli._workers(parser.parse_args(argv)) == 1
        assert cli._workers(parser.parse_args(argv + ["--threads", "0"])) \
            is None
        assert cli._workers(parser.parse_args(argv + ["--threads", "3"])) == 3


class TestTiming:
    def test_small_grid_report(self, synth_dir, tmp_path):
        out = tmp_path / "timing.tsv"
        code = main([
            "timing", "--x", str(synth_dir / "train_x.fmat"),
            "--y", str(synth_dir / "train_y.fmat"),
            "--val-x", str(synth_dir / "val_images.fmat"),
            "--val-y", str(synth_dir / "val_captions.fmat"),
            "--val-pairing", str(synth_dir / "val_pairing.txt"),
            "--grid", "2x2", "--repeats", "1", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("quantity\tvalue\n")
        assert "speedup_ratio" in text


class TestEmbed:
    def test_lin_lin_is_token_means(self, word_data, tmp_path):
        out = tmp_path / "sent.fmat"
        code = main([
            "embed", "--corpus", str(word_data / "caps.txt"),
            "--vectors", str(word_data / "vectors.txt"),
            "--variant", "lin,lin", "--out", str(out),
        ])
        assert code == 0
        table = io.load_embedding_table(word_data / "vectors.txt")
        embedded = io.load_matrix(out)
        expected = np.mean(
            [table.vector("red"), table.vector("dog"), table.vector("runs")],
            axis=0,
        )
        np.testing.assert_array_equal(embedded.values[0], expected)

    def test_rbf_preset_and_map_reuse(self, word_data, tmp_path):
        out1 = tmp_path / "a.fmat"
        map_out = tmp_path / "map.arc"
        code = main([
            "embed", "--corpus", str(word_data / "caps.txt"),
            "--vectors", str(word_data / "vectors.txt"),
            "--variant", "rbf,rbf", "--m", "64", "--mprime", "48",
            "--eta", "0.01", "--gamma", "median", "--seed", "3",
            "--out", str(out1), "--map-out", str(map_out),
        ])
        assert code == 0
        assert io.load_matrix(out1).cols == 48
        maps = hkse.maps_from_archive(io.load_archive(map_out))
        assert maps[0].eta == 0.01
        # reuse the stored map: bitwise identical embedding
        out2 = tmp_path / "b.fmat"
        code = main([
            "embed", "--corpus", str(word_data / "caps.txt"),
            "--vectors", str(word_data / "vectors.txt"),
            "--map", str(map_out), "--out", str(out2),
        ])
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_concat_width(self, word_data, tmp_path):
        out = tmp_path / "c.fmat"
        code = main([
            "embed", "--corpus", str(word_data / "caps.txt"),
            "--vectors", str(word_data / "vectors.txt"),
            "--variant", "lin,rbf", "--concat", "rbf,rbf",
            "--m", "32", "--mprime", "16", "--gamma", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        assert io.load_matrix(out).cols == 32

    def test_pairing_flag_is_gone(self, word_data, tmp_path, capsys):
        argv = ["embed", "--corpus", str(word_data / "caps.txt"),
                "--vectors", str(word_data / "vectors.txt"),
                "--out", str(tmp_path / "e.fmat")]
        config = tmp_path / "embed.cfg"
        config.write_text(f"pairing={word_data / 'pairing.txt'}\n")
        for extra in (["--pairing", str(word_data / "pairing.txt")],
                      ["--config", str(config)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + extra)
            assert exc.value.code == 2
            assert "unrecognized arguments: --pairing" in \
                capsys.readouterr().err
        assert not (tmp_path / "e.fmat").exists()

    def test_equal_vectors_embed_with_default_flags(self, tmp_path):
        # the default lin,lin maps read no gamma, so no bandwidth median is
        # taken: a table whose sampled distances are all zero embeds, and
        # the map records gamma 0.0
        (tmp_path / "v.txt").write_text("3 2\na 1 2\nb 1 2\nc 1 2\n")
        (tmp_path / "c.txt").write_text("a b\nc\n")
        out, map_out = tmp_path / "e.fmat", tmp_path / "e.arc"
        assert main(["embed", "--corpus", str(tmp_path / "c.txt"),
                     "--vectors", str(tmp_path / "v.txt"), "--out", str(out),
                     "--map-out", str(map_out)]) == 0
        np.testing.assert_array_equal(io.load_matrix(out).values,
                                      [[1, 2], [1, 2]])
        saved, = hkse.maps_from_archive(io.load_archive(map_out))
        assert (saved.word_variant, saved.gamma) == ("lin", 0.0)

    def test_embed_deterministic(self, word_data, tmp_path):
        outs = []
        for run in range(2):
            out = tmp_path / f"d{run}.fmat"
            code = main([
                "embed", "--corpus", str(word_data / "caps.txt"),
                "--vectors", str(word_data / "vectors.txt"),
                "--variant", "rbf,rbf", "--m", "32", "--mprime", "16",
                "--gamma", "median", "--seed", "11", "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def fitted_model(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.arc"
    assert main([
        "fit", "--x", str(synth_dir / "train_x.fmat"),
        "--y", str(synth_dir / "train_y.fmat"),
        "--reg", "none", "--out", str(out),
    ]) == 0
    return out


class TestEval:
    def test_report_columns_and_weightings_differ(self, synth_dir,
                                                  fitted_model, tmp_path):
        out_a = tmp_path / "asym.tsv"
        out_s = tmp_path / "sym.tsv"
        base = [
            "eval", "--model", str(fitted_model),
            "--images", str(synth_dir / "test_images.fmat"),
            "--captions", str(synth_dir / "test_captions.fmat"),
            "--pairing", str(synth_dir / "test_pairing.txt"),
        ]
        assert main(base + ["--weighting", "asymmetric",
                            "--out", str(out_a)]) == 0
        assert main(base + ["--weighting", "symmetric:0",
                            "--out", str(out_s)]) == 0
        header = out_a.read_text().splitlines()[0]
        assert header == "task\tr1\tr5\tr10\tmedr\tn_queries\tn_items"
        assert out_a.read_text() != out_s.read_text()

    def test_blocks_mean_rows(self, synth_dir, fitted_model, tmp_path):
        out = tmp_path / "blocks.tsv"
        assert main([
            "eval", "--model", str(fitted_model),
            "--images", str(synth_dir / "test_images.fmat"),
            "--captions", str(synth_dir / "test_captions.fmat"),
            "--pairing", str(synth_dir / "test_pairing.txt"),
            "--blocks", "2", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        tasks = [line.split("\t")[0] for line in lines[1:]]
        assert tasks == ["search_block0", "annotation_block0",
                         "search_block1", "annotation_block1",
                         "search_mean", "annotation_mean"]

    def test_noiseless_pipeline_retrieves_nearly_everything(self, tmp_path):
        # the latent factors fill the caption view, so noiseless pairs are
        # fully determined and retrieval must be near-perfect
        data_dir = tmp_path / "clean"
        assert main([
            "synth", "--out-dir", str(data_dir), "--n-train", "300",
            "--n-val", "50", "--n-test", "100", "--latent", "16",
            "--mx", "24", "--my", "16", "--noise-x", "0.001",
            "--noise-y", "0.001", "--captions", "1", "--seed", "2",
        ]) == 0
        model = tmp_path / "model.arc"
        assert main([
            "fit", "--x", str(data_dir / "train_x.fmat"),
            "--y", str(data_dir / "train_y.fmat"),
            "--reg", "none", "--out", str(model),
        ]) == 0
        out = tmp_path / "report.tsv"
        assert main([
            "eval", "--model", str(model),
            "--images", str(data_dir / "test_images.fmat"),
            "--captions", str(data_dir / "test_captions.fmat"),
            "--pairing", str(data_dir / "test_pairing.txt"),
            "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        for line in lines[1:]:
            fields = line.split("\t")
            assert float(fields[1]) >= 95.0  # r@1 near 100 for both tasks

    def test_eval_deterministic(self, synth_dir, fitted_model, tmp_path):
        texts = []
        for run in range(2):
            out = tmp_path / f"r{run}.tsv"
            assert main([
                "eval", "--model", str(fitted_model),
                "--images", str(synth_dir / "test_images.fmat"),
                "--captions", str(synth_dir / "test_captions.fmat"),
                "--pairing", str(synth_dir / "test_pairing.txt"),
                "--out", str(out),
            ]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


@pytest.fixture(scope="module")
def five_caption_dir(tmp_path_factory):
    """200 images and 1000 captions, in the dims of ``fitted_model``, with
    the caption->image pairing over all of them."""
    out = tmp_path_factory.mktemp("five")
    data = synthetic.generate_caption_like(synthetic.LatentModelConfig(
        120, 40, 40, 4, 16, 12, seed=5), 5)
    io.save_matrix(data.images, out / "images.fmat")
    io.save_matrix(data.captions, out / "captions.fmat")
    io.save_pairing(data.pair_index, out / "pairing.txt")
    return out


class TestEvalBlocksErrors:
    """Bad ``--blocks`` inputs are data errors, checked before any block."""

    CASES = [
        # (--blocks, first pairing row: None = no --pairing, "" = as
        # written, else the replacement, message)
        ("2", None, "--pairing required when row counts differ "
                    "(200 images, 1000 captions)"),
        ("2", "4000", "--pairing row 0 names image 4000, out of range for "
                      "200 images"),
        ("2", "-3", "--pairing row 0 names image -3, out of range for "
                    "200 images"),
        ("500", "", "blocks must be between 1 and the 200 images, got 500"),
    ]

    @pytest.mark.parametrize("blocks,first,message", CASES)
    def test_exit_one_with_message(self, blocks, first, message,
                                   five_caption_dir, fitted_model, tmp_path,
                                   capsys):
        argv = ["eval", "--model", str(fitted_model),
                "--images", str(five_caption_dir / "images.fmat"),
                "--captions", str(five_caption_dir / "captions.fmat"),
                "--blocks", blocks, "--out", str(tmp_path / "r.tsv")]
        if first is not None:
            rows = (five_caption_dir / "pairing.txt").read_text().splitlines()
            rows[0] = first or rows[0]
            pairing = tmp_path / "pairing.txt"
            pairing.write_text("\n".join(rows) + "\n")
            argv += ["--pairing", str(pairing)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ccax: error: ")
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.tsv").exists()


class TestSweep:
    def test_sweep_tsv(self, synth_dir, fitted_model, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert main([
            "sweep", "--model", str(fitted_model),
            "--images", str(synth_dir / "val_images.fmat"),
            "--captions", str(synth_dir / "val_captions.fmat"),
            "--pairing", str(synth_dir / "val_pairing.txt"),
            "--alphas", "0,0.5,1", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha\tr10_search\tr10_annotation"
        assert len(lines) == 4


class TestInspect:
    def test_prints_manifest(self, fitted_model, capsys):
        assert main(["inspect", "--model", str(fitted_model)]) == 0
        out = capsys.readouterr().out
        assert "kind=none" in out
        assert "[blob] U:" in out


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, synth_dir, tmp_path):
        config = tmp_path / "fit.cfg"
        config.write_text("reg=tsvd\nkx=3\nky=2\n")
        out = tmp_path / "m.arc"
        assert main([
            "fit", "--config", str(config),
            "--x", str(synth_dir / "train_x.fmat"),
            "--y", str(synth_dir / "train_y.fmat"),
            "--ky", "4",  # flag beats the config value
            "--out", str(out),
        ]) == 0
        model = cca.model_from_archive(io.load_archive(out))
        assert model.reg.kind == "tsvd"
        assert model.reg.k_x == 3 and model.reg.k_y == 4


def _edited_archive(source, tmp_path, drop_key=None, drop_blob=None):
    archive = io.load_archive(source)
    archive.manifest.pop(drop_key, None)
    archive.blobs.pop(drop_blob, None)
    out = tmp_path / "edited.arc"
    io.save_archive(archive, out)
    return out


@pytest.fixture(scope="module")
def map_archive(word_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("map") / "map.arc"
    assert main([
        "embed", "--corpus", str(word_data / "caps.txt"),
        "--vectors", str(word_data / "vectors.txt"),
        "--variant", "rbf,rbf", "--m", "8", "--mprime", "6",
        "--gamma", "1.0", "--out", str(out.with_suffix(".fmat")),
        "--map-out", str(out),
    ]) == 0
    return out


class TestArchiveErrors:
    """An archive of the wrong kind or missing a field is a data error."""

    CASES = [
        # (command, archive source, dropped key, dropped blob, message)
        ("eval", "map", None, None, "not a CCA model archive (kind 'hkse')"),
        ("eval", "model", "gamma_x", None,
         "lacks manifest key 'gamma_x'"),
        ("eval", "model", None, "SIGMA", "lacks blob 'SIGMA'"),
        ("sweep", "map", None, None, "not a CCA model archive"),
        ("embed", "model", None, None, "not an HKSE map archive (kind 'none')"),
        ("embed", "map", "word_variant", None,
         "lacks manifest key 'word_variant'"),
        ("embed", "map", None, "B_SENT", "lacks blob 'B_SENT'"),
    ]

    @pytest.mark.parametrize("command,source,key,blob,message", CASES)
    def test_exit_one_with_message(self, command, source, key, blob, message,
                                   synth_dir, word_data, fitted_model,
                                   map_archive, tmp_path, capsys):
        archive = {"model": fitted_model, "map": map_archive}[source]
        if key or blob:
            archive = _edited_archive(archive, tmp_path, key, blob)
        if command == "embed":
            argv = ["embed", "--corpus", str(word_data / "caps.txt"),
                    "--vectors", str(word_data / "vectors.txt"),
                    "--map", str(archive), "--out", str(tmp_path / "e.fmat")]
        else:
            argv = [command, "--model", str(archive),
                    "--images", str(synth_dir / "test_images.fmat"),
                    "--captions", str(synth_dir / "test_captions.fmat"),
                    "--pairing", str(synth_dir / "test_pairing.txt"),
                    "--out", str(tmp_path / "r.tsv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ccax: error: {archive}: ")
        assert message in err
        assert "Traceback" not in err


class TestEmbedMapConflicts:
    """A saved --map fixes the map: a map-defining flag beside it is a usage
    error, never silently ignored."""

    CASES = [
        (["--variant", "lin,lin"], "--variant"),
        (["--concat", "rbf,rbf"], "--concat"),
        (["--m", "999"], "--m"),
        (["--mprime", "5"], "--mprime"),
        (["--gamma", "7"], "--gamma"),
        (["--eta", "0.5"], "--eta"),
        (["--gamma-sample", "10"], "--gamma-sample"),
        (["--seed", "9"], "--seed"),
        (["--variant", "lin,lin", "--m", "999", "--gamma", "7", "--seed", "9"],
         "--variant, --m, --gamma, --seed"),
    ]

    @pytest.mark.parametrize("flags,named", CASES)
    def test_usage_error(self, flags, named, word_data, map_archive,
                         tmp_path, capsys):
        out = tmp_path / "e.fmat"
        for order in (flags + ["--map", str(map_archive)],
                      ["--map", str(map_archive)] + flags):
            with pytest.raises(SystemExit) as exc:
                main(["embed", "--corpus", str(word_data / "caps.txt"),
                      "--vectors", str(word_data / "vectors.txt"),
                      *order, "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"{named} cannot be given with it" in err
            assert "Traceback" not in err
        assert not out.exists()

    def test_config_flag_conflicts_too(self, word_data, map_archive,
                                       tmp_path, capsys):
        config = tmp_path / "embed.cfg"
        config.write_text("m=64\n")
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--config", str(config),
                  "--corpus", str(word_data / "caps.txt"),
                  "--vectors", str(word_data / "vectors.txt"),
                  "--map", str(map_archive), "--out", str(tmp_path / "e.fmat")])
        assert exc.value.code == 2
        assert "--m cannot be given with it" in capsys.readouterr().err

    def test_non_finite_table_names_its_line(self, word_data, tmp_path,
                                             capsys):
        vectors = tmp_path / "vectors.txt"
        lines = (word_data / "vectors.txt").read_text().splitlines()
        fields = lines[3].split()
        fields[2] = "nan"
        lines[3] = " ".join(fields)
        vectors.write_text("\n".join(lines) + "\n")
        code = main(["embed", "--corpus", str(word_data / "caps.txt"),
                     "--vectors", str(vectors), "--variant", "rbf,rbf",
                     "--m", "8", "--mprime", "8", "--out",
                     str(tmp_path / "e.fmat")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ccax: error: {vectors}:4: value 2 is not "
                              f"finite: nan")
        assert "Traceback" not in err


class TestRefusedEmbedLeavesNoFile:
    """Every input is checked before --out is created, and a failure after
    it is opened removes it: a refused embed exits 1 and writes nothing."""

    def refused(self, tmp_path, capsys, corpus, vectors, *flags,
                map_out=None):
        """The error text of an embed that must exit 1 and leave neither
        --out nor --map-out."""
        out = tmp_path / "e.fmat"
        map_out = map_out or tmp_path / "e.arc"
        code = main(["embed", "--corpus", str(corpus), "--vectors",
                     str(vectors), *flags, "--out", str(out),
                     "--map-out", str(map_out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert not out.exists() and not map_out.exists()
        return err

    def test_map_of_another_word_dimension(self, word_data, tmp_path,
                                           capsys):
        archive = tmp_path / "d4.arc"
        io.save_archive(hkse.maps_to_archive(
            hkse.build_map("rbf", "rbf", 1.0, 1.0, 8, 6, 4, seed=0)), archive)
        err = self.refused(tmp_path, capsys, word_data / "caps.txt",
                           word_data / "vectors.txt", "--map", str(archive))
        assert err == "ccax: error: map expects 4-dim words, table has 5\n"

    def test_oov_error_on_an_unknown_token(self, word_data, tmp_path,
                                           capsys):
        corpus = tmp_path / "caps.txt"
        corpus.write_text("red dog runs\nblue zebra sits\n")
        err = self.refused(tmp_path, capsys, corpus,
                           word_data / "vectors.txt", "--oov", "error")
        assert err == (f"ccax: error: {corpus}:2: token 'zebra' not in "
                       f"table\n")

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_while_streaming(self, tmp_path, capsys):
        # the second 64-row block's last sentence averages two 1e308s to
        # inf: --out is open, with one block written, when it is refused
        vectors = tmp_path / "v.txt"
        save_embedding_table(io.EmbeddingTable(
            ("a", "b"), np.array([[1.0, 2.0], [1e308, 1e308]])), vectors)
        corpus = tmp_path / "c.txt"
        corpus.write_text("a\n" * 127 + "b b\n")
        err = self.refused(tmp_path, capsys, corpus, vectors,
                           "--variant", "lin,lin", "--gamma", "1.0")
        assert err == ("ccax: error: non-finite value at flat index 254 "
                       "(row 127, col 0)\n")

    @pytest.mark.parametrize("variant", ["rbf,lin", "rbf,rbf"])
    def test_overflowing_bandwidth_median(self, variant, tmp_path, capsys):
        # the 1e200 row's distance overflows, so the median is inf and
        # gamma = 1 / inf^2 read 0.0.  Any rbf word layer takes the median
        # (lin,lin takes none), and the refusal is all stderr holds
        vectors = tmp_path / "v.txt"
        save_embedding_table(io.EmbeddingTable(
            ("a", "b"), np.array([[1.0, 2.0], [1e200, 1e200]])), vectors)
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b\nb\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            err = self.refused(tmp_path, capsys, corpus, vectors,
                               "--variant", variant)
        assert err == (f"ccax: error: {vectors}: sampled pairwise distances "
                       "overflow: their median is not finite\n")

    def test_map_out_that_cannot_be_written(self, word_data, tmp_path,
                                            capsys):
        err = self.refused(tmp_path, capsys, word_data / "caps.txt",
                           word_data / "vectors.txt",
                           map_out=tmp_path / "no-such-dir" / "e.arc")
        assert "No such file or directory" in err


class TestStreamedTable:
    """embed parses the values of the rows the corpus uses and of the rows
    the bandwidth sample draws, and checks every other line's structure."""

    VOCAB, SAMPLE, SEED = 40, 8, 3
    CORPUS = "w0 w2 w5\nw9 w2\nw5 zebra w0 w9\n"
    USED = (0, 2, 5, 9)

    @pytest.fixture(scope="class")
    def words(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("streamed")
        table = io.EmbeddingTable(
            tuple(f"w{i}" for i in range(self.VOCAB)),
            np.random.default_rng(8).standard_normal((self.VOCAB, 4)))
        save_embedding_table(table, path / "vectors.txt")
        (path / "caps.txt").write_text(self.CORPUS)
        return path

    def rows(self):
        """(a row neither the corpus nor the sample uses, a sampled row
        the corpus does not use)."""
        sampled = set(hkse.sample_rows(self.VOCAB, self.SAMPLE,
                                       self.SEED).tolist())
        free = [r for r in range(self.VOCAB)
                if r not in sampled and r not in self.USED]
        return free[-1], min(sampled - set(self.USED))

    def embed(self, words, vectors, out, *flags):
        return main(["embed", "--corpus", str(words / "caps.txt"),
                     "--vectors", str(vectors), "--variant", "rbf,rbf",
                     "--m", "16", "--mprime", "12", "--seed",
                     str(self.SEED), *flags, "--out", str(out)])

    @staticmethod
    def second_value(value):
        """An edit that puts ``value`` in a line's second value field."""
        def edit(line):
            fields = line.split()
            fields[2] = value
            return b" ".join(fields)
        return edit

    def edited(self, words, tmp_path, row, edit):
        """The table with line ``row + 2`` passed through ``edit``."""
        lines = (words / "vectors.txt").read_bytes().split(b"\n")
        lines[row + 1] = edit(lines[row + 1])
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"\n".join(lines))
        return vectors

    FLAGS = {"median": ("--gamma", "median", "--gamma-sample", str(SAMPLE)),
             "fixed": ("--gamma", "0.4")}

    @pytest.mark.parametrize("flags", FLAGS)
    @pytest.mark.parametrize("value", [b"x", b"nan"])
    def test_bad_value_in_an_unused_row(self, flags, value, words, tmp_path):
        free, _ = self.rows()
        vectors = self.edited(words, tmp_path, free,
                              self.second_value(value))
        clean, bad = tmp_path / "clean.fmat", tmp_path / "bad.fmat"
        assert self.embed(words, words / "vectors.txt", clean,
                          *self.FLAGS[flags]) == 0
        assert self.embed(words, vectors, bad, *self.FLAGS[flags]) == 0
        assert bad.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("used", ["corpus", "sample"])
    @pytest.mark.parametrize("value, message", [
        (b"x", "value 2 is not a number: 'x'"),
        (b"nan", "value 2 is not finite: nan"),
    ])
    def test_bad_value_in_a_used_row(self, used, value, message, words,
                                     tmp_path, capsys):
        row = 5 if used == "corpus" else self.rows()[1]
        vectors = self.edited(words, tmp_path, row, self.second_value(value))
        out = tmp_path / "e.fmat"
        assert self.embed(words, vectors, out, *self.FLAGS["median"]) == 1
        assert capsys.readouterr().err == \
            f"ccax: error: {vectors}:{row + 2}: {message}\n"
        assert not out.exists()

    def test_lin_words_parse_no_sample_row(self, words, tmp_path):
        # only an rbf word layer reads gamma, so a lin,lin run under
        # --gamma median draws no sample and parses none of its rows
        _, sampled = self.rows()
        vectors = self.edited(words, tmp_path, sampled,
                              self.second_value(b"nan"))
        clean, bad = tmp_path / "clean.fmat", tmp_path / "bad.fmat"
        flags = ("--variant", "lin,lin", *self.FLAGS["median"])
        assert self.embed(words, words / "vectors.txt", clean, *flags) == 0
        assert self.embed(words, vectors, bad, *flags) == 0
        assert bad.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line + b" 1", "expected token + 4 values, got 6 "
                                    "fields"),
        (lambda line: b"w1" + line[line.index(b" "):],
         "duplicate token 'w1' (first on line 3)"),
        (lambda line: line + b"\xff", "not UTF-8 (invalid start byte)"),
    ])
    def test_unused_line_still_refused(self, edit, message, words, tmp_path,
                                       capsys):
        free, _ = self.rows()
        vectors = self.edited(words, tmp_path, free, edit)
        out = tmp_path / "e.fmat"
        assert self.embed(words, vectors, out, *self.FLAGS["fixed"]) == 1
        assert capsys.readouterr().err == \
            f"ccax: error: {vectors}:{free + 2}: {message}\n"
        assert not out.exists()

    def test_corpus_decode_error_comes_first(self, words, tmp_path, capsys):
        vectors = self.edited(words, tmp_path, 1, lambda line: b"")
        corpus = tmp_path / "caps.txt"
        corpus.write_bytes(b"w0\n\xff\n")
        code = main(["embed", "--corpus", str(corpus), "--vectors",
                     str(vectors), "--out", str(tmp_path / "e.fmat")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"ccax: error: {corpus}:2: not UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("sample", [SAMPLE, VOCAB])
    def test_equals_embed_corpus_on_the_whole_table(self, sample, words,
                                                    tmp_path):
        out, map_out = tmp_path / "e.fmat", tmp_path / "e.arc"
        assert self.embed(words, words / "vectors.txt", out, "--gamma",
                          "median", "--gamma-sample", str(sample),
                          "--map-out", str(map_out)) == 0
        table = io.load_embedding_table(words / "vectors.txt")
        corpus = io.load_corpus(words / "caps.txt", table)
        gamma = hkse.bandwidth_heuristic(table, sample, seed=self.SEED)
        hkse_map = hkse.build_map("rbf", "rbf", gamma, 0.01, 16, 12, 4,
                                  seed=self.SEED)
        want = embed_corpus(hkse_map, corpus, table)
        assert out.read_bytes() == matrix_to_bytes(want)
        saved, = hkse.maps_from_archive(io.load_archive(map_out))
        assert saved.gamma == gamma

    def test_vectors_from_a_pipe(self, words, tmp_path):
        fifo = tmp_path / "vectors.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=lambda: fifo.write_bytes(
                (words / "vectors.txt").read_bytes()), daemon=True)
        writer.start()
        piped, filed = tmp_path / "p.fmat", tmp_path / "f.fmat"
        assert self.embed(words, fifo, piped, *self.FLAGS["median"]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert self.embed(words, words / "vectors.txt", filed,
                          *self.FLAGS["median"]) == 0
        assert piped.read_bytes() == filed.read_bytes()


def _path_argv(command, synth_dir, tmp_path, y=None, pairing=None):
    """argv for a path-running command on the synthetic data set."""
    data = [
        "--x", str(synth_dir / "train_x.fmat"),
        "--y", str(y or synth_dir / "train_y.fmat"),
        "--val-x", str(synth_dir / "val_images.fmat"),
        "--val-y", str(synth_dir / "val_captions.fmat"),
        "--val-pairing", str(pairing or synth_dir / "val_pairing.txt"),
    ]
    if command == "fit":
        return (["fit", "--reg", "guided-tsvd"] + data
                + ["--out", str(tmp_path / "model.arc")])
    return [command] + data + ["--out", str(tmp_path / "out.tsv")]


class TestOverflowingValues:
    """Validation values whose squared norms overflow are a data error.

    Every squared item norm of a 1e200-scaled view is inf, so every cosine
    read 0 and the reports were silently wrong; now each route exits 1
    naming the view and row, and writes nothing.
    """

    @pytest.mark.parametrize("command", ["eval", "sweep", "path", "fit"])
    def test_exit_one_naming_the_row(self, command, synth_dir, fitted_model,
                                     tmp_path, capsys):
        split = "test" if command in ("eval", "sweep") else "val"
        images = tmp_path / "huge.fmat"
        values = io.load_matrix(synth_dir / f"{split}_images.fmat").values
        io.save_matrix(io.FeatureMatrix(1e200 * values), images)
        if command in ("eval", "sweep"):
            argv = _eval_argv(command, synth_dir, fitted_model, tmp_path,
                              images=images)
        else:
            argv = _path_argv(command, synth_dir, tmp_path)
            argv[argv.index("--val-x") + 1] = str(images)
        with np.errstate(over="ignore"):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert "image 0: squared norm is not finite" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.fmat"]

    @pytest.mark.parametrize("command,flags", [
        ("path", ["--reg", "tsvd"]), ("path", ["--reg", "tikhonov"]),
        ("fit", []),
    ])
    def test_path_cells_warn_nothing(self, command, flags, synth_dir,
                                     tmp_path, capsys):
        # squared norms overflow to inf without a RuntimeWarning; the rank
        # kernel's error is all stderr holds
        images = tmp_path / "huge.fmat"
        values = io.load_matrix(synth_dir / "val_images.fmat").values
        io.save_matrix(io.FeatureMatrix(1e200 * values), images)
        argv = _path_argv(command, synth_dir, tmp_path)
        argv[argv.index("--val-x") + 1] = str(images)
        argv += flags
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "ccax: error: image 0: squared norm is not finite"]


class TestThinSvdCount:
    """A command that runs a path factorises the training pair once.

    One ``cca.prepare`` runs per command, and its two thin SVDs are of the
    column blocks of the joint R factor, which has m_x + m_y rows (the x
    block's m_x-row nonzero top), never of an n-row view.
    """

    @pytest.mark.parametrize("command,flags", [
        ("fit", ["--grid", "3x3", "--metric", "r1"]),
        ("fit", ["--grid", "3x3", "--metric", "mean-r1"]),
        ("path", ["--reg", "tsvd", "--grid", "3x3"]),
        ("path", ["--reg", "tikhonov", "--grid", "3x3"]),
        ("timing", ["--grid", "3x3", "--repeats", "1"]),
    ])
    def test_two_thin_svds(self, command, flags, synth_dir, tmp_path,
                           monkeypatch):
        prepares, active = [], []
        original_prepare, original_svd = cca.prepare, np.linalg.svd

        def counting_prepare(*args, **kwargs):
            prepares.append([])
            active.append(True)
            try:
                return original_prepare(*args, **kwargs)
            finally:
                active.pop()

        def recording_svd(a, *args, **kwargs):
            if active:
                prepares[-1].append(a.shape)
            return original_svd(a, *args, **kwargs)

        monkeypatch.setattr(cca, "prepare", counting_prepare)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert main(_path_argv(command, synth_dir, tmp_path) + flags) == 0
        # train_x is 360 x 16 and train_y 360 x 12: R has 28 rows, and its
        # x block is zero below row 16
        assert prepares == [[(16, 16), (28, 12)]]


class TestPathSvdCount:
    """Path cells take no SVD: a command's SVDs are the two thin SVDs of
    ``cca.prepare`` plus one per model it fits."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        original_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return original_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    @pytest.mark.parametrize("reg", ["tsvd", "tikhonov"])
    def test_path_takes_only_the_prepare_svds(self, reg, svd_calls,
                                              synth_dir, tmp_path):
        argv = _path_argv("path", synth_dir, tmp_path)
        assert main(argv + ["--reg", reg, "--grid", "3x3"]) == 0
        assert len(svd_calls) == 2

    @pytest.mark.parametrize("metric", ["r1", "mean-r1"])
    def test_guided_fit_adds_one_per_distinct_refit(self, metric, svd_calls,
                                                    synth_dir, tmp_path):
        argv = _path_argv("fit", synth_dir, tmp_path)
        assert main(argv + ["--grid", "3x3", "--metric", metric]) == 0
        if metric == "mean-r1":
            refits = 1
        else:
            manifests = [io.load_archive(path).manifest for path in
                         cli._guided_out_paths(str(tmp_path / "model.arc"))]
            refits = len({(m["gamma_x"], m["gamma_y"]) for m in manifests})
        assert len(svd_calls) == 2 + refits


class TestGuidedGridFlags:
    """--grid sizes the axes that --grid-x / --grid-y leave to the default."""

    @pytest.mark.parametrize("flag,values", [("--grid-x", [2, 5]),
                                             ("--grid-y", [1, 2])])
    def test_each_list_on_its_own_axis(self, flag, values, synth_dir,
                                       tmp_path):
        path_out = tmp_path / "path.tsv"
        argv = _path_argv("fit", synth_dir, tmp_path) + [
            "--grid", "4x4", flag, ",".join(map(str, values)),
            "--path-out", str(path_out)]
        assert main(argv) == 0
        problem = cca.prepare(io.load_matrix(synth_dir / "train_x.fmat"),
                              io.load_matrix(synth_dir / "train_y.fmat"))
        axis_x = selection.default_rank_grid(problem.rank_x, 4).tolist()
        axis_y = selection.default_rank_grid(problem.rank_y, 4).tolist()
        if flag == "--grid-x":
            axis_x = values
        else:
            axis_y = values
        rows = [line.split("\t")[:2]
                for line in path_out.read_text().splitlines()[1:]]
        assert rows == [[str(kx), str(ky)] for kx in axis_x for ky in axis_y]


class TestPathInputErrors:
    """Bad path inputs exit 1 with a message and no traceback.

    Mismatched training rows and a validation pairing that does not fit
    the captions are caught before the joint QR (and so before any thin
    SVD) runs.
    """

    BEFORE_SVD = [
        ("path", "short_y", "row counts differ: 360 vs 300"),
        ("timing", "short_y", "row counts differ: 360 vs 300"),
        ("fit", "short_y", "row counts differ: 360 vs 300"),
        ("path", "pairs_short", "--val-pairing length must match caption "
                                "count (117 rows, 120 captions)"),
        ("path", "pairs_long", "--val-pairing length must match caption "
                               "count (123 rows, 120 captions)"),
        ("path", "captionless", "image 19 has no paired captions"),
        ("fit", "pairs_short", "--val-pairing length must match caption "
                               "count (117 rows, 120 captions)"),
        ("fit", "pairs_long", "--val-pairing length must match caption "
                              "count (123 rows, 120 captions)"),
        ("fit", "captionless", "image 19 has no paired captions"),
    ]

    @pytest.mark.parametrize("command,edit,message", BEFORE_SVD)
    def test_fails_before_any_thin_svd(self, command, edit, message,
                                       synth_dir, tmp_path, capsys,
                                       monkeypatch):
        y = pairing = None
        if edit == "short_y":
            y = tmp_path / "short_y.fmat"
            train_y = io.load_matrix(synth_dir / "train_y.fmat")
            io.save_matrix(io.FeatureMatrix(train_y.values[:300]), y)
        else:
            pairs = io.load_pairing(synth_dir / "val_pairing.txt")
            pairs = {"pairs_short": pairs[:-3],
                     "pairs_long": np.concatenate([pairs, pairs[:3]]),
                     "captionless": np.where(pairs == 19, 18, pairs)}[edit]
            pairing = tmp_path / "pairing.txt"
            io.save_pairing(pairs, pairing)

        def no_factorisation(*args, **kwargs):
            raise AssertionError("a factorisation ran before the input check")

        # cca.prepare's joint QR, dgeqrf in place, is the first
        # factorisation of a fit
        monkeypatch.setattr(lapack_lite, "dgeqrf", no_factorisation)
        monkeypatch.setattr(np.linalg, "qr", no_factorisation)
        monkeypatch.setattr(np.linalg, "svd", no_factorisation)
        argv = _path_argv(command, synth_dir, tmp_path, y, pairing)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestUnheldPenalty:
    """A mapped Tikhonov penalty s_k^2 that float64 cannot hold is refused.

    With the image views scaled by 1e200, s_x^2 overflowed to inf, and by
    1e-200 it underflowed to 0: a guided fit, the default Tikhonov grid
    and ``timing`` printed numpy warnings and failed far from the cause.
    Now each exits 1 naming the training view, before any warning; run in
    a child process, so that LAPACK's own prints would show too.
    """

    @pytest.mark.parametrize("command,flags", [
        ("fit", []), ("path", ["--reg", "tikhonov"]), ("timing", [])])
    @pytest.mark.parametrize("scale,fault", [(1e200, "overflows"),
                                             (1e-200, "underflows")])
    def test_exit_one_naming_the_view(self, command, flags, scale, fault,
                                      synth_dir, tmp_path):
        argv = _path_argv(command, synth_dir, tmp_path) + flags
        for flag, name in (("--x", "train_x"), ("--val-x", "val_images")):
            values = io.load_matrix(synth_dir / f"{name}.fmat").values
            io.save_matrix(io.FeatureMatrix(scale * values),
                           tmp_path / f"{name}.fmat")
            argv[argv.index(flag) + 1] = str(tmp_path / f"{name}.fmat")
        proc = run_under_blas_threads(1, ["-m", "ccax", *argv], tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("ccax: error: training view x: the penalty "
                               "of rank ")
        assert line.endswith(f"{fault} float64; rescale the view")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "train_x.fmat", "val_images.fmat"]


def test_tikhonov_path_past_the_squares_of_s(synth_dir, tmp_path):
    # with both image views scaled by 1e200, s_x^2 overflows, but penalties
    # of 1 and 2 are held; the cells' filters, formed in units of s_max,
    # hold too, so the path exits 0 and prints nothing to stderr
    argv = _path_argv("path", synth_dir, tmp_path) + [
        "--reg", "tikhonov", "--grid-x", "1,2", "--grid-y", "1,2"]
    for flag, name in (("--x", "train_x"), ("--val-x", "val_images")):
        values = io.load_matrix(synth_dir / f"{name}.fmat").values
        io.save_matrix(io.FeatureMatrix(1e200 * values),
                       tmp_path / f"{name}.fmat")
        argv[argv.index(flag) + 1] = str(tmp_path / f"{name}.fmat")
    proc = run_under_blas_threads(1, ["-m", "ccax", *argv], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len((tmp_path / "out.tsv").read_text().splitlines()) == 5


class TestNonFiniteTrainingValue:
    """The training pair is read once, block by block: a non-finite value,
    even in the last row of a one-chunk pair, exits 1 naming the file, row
    and column before any QR runs, and nothing is written."""

    FIT_FLAGS = {"none": [], "tikhonov": ["--gamma-x", "1", "--gamma-y", "1"],
                 "tsvd": ["--kx", "2", "--ky", "2"]}

    @pytest.mark.parametrize("command,reg", [
        ("fit", "none"), ("fit", "tikhonov"), ("fit", "tsvd"),
        ("fit", "guided-tsvd"), ("path", None), ("timing", None)])
    def test_exits_before_any_qr(self, command, reg, synth_dir, tmp_path,
                                 capsys, monkeypatch):
        values = io.load_matrix(synth_dir / "train_y.fmat").values.copy()
        values[-1, 5] = np.inf  # 360 x 12
        y = tmp_path / "train_y.fmat"
        with open(y, "wb") as fh:  # FeatureMatrix refuses it, so by hand
            fh.write(io.FMAT1_MAGIC + struct.pack("<QQ", *values.shape))
            fh.write(values.tobytes())

        def no_factorisation(*args, **kwargs):
            raise AssertionError("a factorisation ran before the input check")

        monkeypatch.setattr(lapack_lite, "dgeqrf", no_factorisation)
        monkeypatch.setattr(np.linalg, "qr", no_factorisation)
        if reg in self.FIT_FLAGS:
            argv = ["fit", "--reg", reg, *self.FIT_FLAGS[reg],
                    "--x", str(synth_dir / "train_x.fmat"), "--y", str(y),
                    "--out", str(tmp_path / "model.arc")]
        else:
            argv = _path_argv(command, synth_dir, tmp_path, y)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"ccax: error: {y}: non-finite value at flat index "
            f"{359 * 12 + 5} (row 359, col 5)"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train_y.fmat"]


class TestNonFiniteCaptionValue:
    """Eval, sweep and the path read the caption view a block of rows at a
    time, as they project it: a non-finite value in its last row exits 1
    naming the file, the value's flat index over the whole file, its row
    and column, and nothing is written.  The path finds it after the
    training pair is prepared."""

    @pytest.mark.parametrize("command", [
        ["eval"], ["eval", "--blocks", "2"], ["sweep"], ["fit"]])
    def test_exits_naming_the_value(self, command, synth_dir, fitted_model,
                                    tmp_path, capsys):
        split = "val" if command == ["fit"] else "test"
        values = io.load_matrix(
            synth_dir / f"{split}_captions.fmat").values.copy()
        values[-1, 7] = np.nan  # 120 x 12
        bad = tmp_path / "captions.fmat"
        with open(bad, "wb") as fh:  # FeatureMatrix refuses it, so by hand
            fh.write(io.FMAT1_MAGIC + struct.pack("<QQ", *values.shape))
            fh.write(values.tobytes())
        if command == ["fit"]:
            argv = _path_argv("fit", synth_dir, tmp_path)
            argv[argv.index("--val-y") + 1] = str(bad)
            argv += ["--path-out", str(tmp_path / "path.tsv")]
        else:
            argv = _eval_argv(command[0], synth_dir, fitted_model, tmp_path,
                              captions=bad) + command[1:]
        assert main(argv) == 1
        rows, cols = values.shape
        assert capsys.readouterr().err.splitlines() == [
            f"ccax: error: {bad}: non-finite value at flat index "
            f"{(rows - 1) * cols + 7} (row {rows - 1}, col 7)"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["captions.fmat"]


def test_training_view_from_a_pipe(synth_dir, tmp_path):
    # a pipe has no size to check, so it is read whole; the fit is the one
    # from the regular file
    x = tmp_path / "x.fifo"
    os.mkfifo(x)
    writer = threading.Thread(
        target=x.write_bytes, daemon=True,
        args=((synth_dir / "train_x.fmat").read_bytes(),))
    writer.start()
    for name, path in (("pipe", x), ("file", synth_dir / "train_x.fmat")):
        assert main(["fit", "--x", str(path),
                     "--y", str(synth_dir / "train_y.fmat"),
                     "--out", str(tmp_path / f"{name}.arc")]) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (tmp_path / "pipe.arc").read_bytes() == \
        (tmp_path / "file.arc").read_bytes()


def _eval_argv(command, synth_dir, fitted_model, tmp_path, **paths):
    """argv of ``eval``/``sweep`` on the test split; ``paths`` replace the
    model, images, captions or pairing file."""
    files = {"model": fitted_model,
             "images": synth_dir / "test_images.fmat",
             "captions": synth_dir / "test_captions.fmat",
             "pairing": synth_dir / "test_pairing.txt", **paths}
    argv = [command]
    for flag, path in files.items():
        argv += [f"--{flag}", str(path)]
    return argv + ["--out", str(tmp_path / "out.tsv")]


class TestFlagRanges:
    """A flag value outside its range is a usage error naming the flag.

    Each is refused while the command line is parsed, so no file is read
    and none is written.
    """

    CASES = [
        ("eval", ["--weighting", "symmetric:nan"], "--weighting"),
        ("eval", ["--weighting", "symmetric:inf"], "--weighting"),
        ("eval", ["--weighting", "symmetric:-1"], "--weighting"),
        ("eval", ["--weighting", "symmetric:x"], "--weighting"),
        ("eval", ["--weighting", "harmonic"], "--weighting"),
        ("sweep", ["--k", "0"], "--k"),
        ("timing", ["--repeats", "0"], "--repeats"),
        ("fit", ["--threads", "-1"], "--threads"),
        ("path", ["--threads", "-1"], "--threads"),
        # counts, lists and block counts
        ("path", ["--grid", "0x3"], "--grid"),
        ("fit", ["--grid-x", ","], "--grid-x"),
        ("path", ["--reg", "tikhonov", "--grid-y", ","], "--grid-y"),
        ("eval", ["--blocks", "0"], "--blocks"),
        ("fit", ["--grid", "axb"], "--grid"),
        ("timing", ["--grid", "3"], "--grid"),
        ("fit", ["--grid-x", "1,a"], "--grid-x"),
        ("path", ["--reg", "tikhonov", "--grid-x", "1,inf"], "--grid-x"),
        ("path", ["--reg", "tikhonov", "--grid-x", "1,nan"], "--grid-x"),
        ("sweep", ["--alphas", "0,a"], "--alphas"),
        ("sweep", ["--alphas", "0,nan"], "--alphas"),
        # penalties, bandwidths and noise scales: finite and >= 0
        ("fit-tikhonov", ["--gamma-x", "nan"], "--gamma-x"),
        ("fit-tikhonov", ["--gamma-x", "inf"], "--gamma-x"),
        ("fit-tikhonov", ["--gamma-y", "-1"], "--gamma-y"),
        ("embed", ["--eta", "nan"], "--eta"),
        ("embed", ["--gamma", "nan"], "--gamma"),
        ("embed", ["--gamma", "inf"], "--gamma"),
        ("embed", ["--gamma", "-0.5"], "--gamma"),
        ("synth", ["--noise-x", "nan"], "--noise-x"),
        ("synth", ["--noise-y", "inf"], "--noise-y"),
        # counts and ranks below 1 (--threads below 0)
        ("fit", ["--kx", "0"], "--kx"),
        ("fit", ["--kx", "-1"], "--kx"),
        ("fit", ["--ky", "0"], "--ky"),
        ("synth", ["--n-train", "0"], "--n-train"),
        ("synth", ["--n-val", "0"], "--n-val"),
        ("synth", ["--n-test", "-2"], "--n-test"),
        ("synth", ["--captions", "0"], "--captions"),
        ("synth", ["--latent", "0"], "--latent"),
        ("synth", ["--mx", "0"], "--mx"),
        ("synth", ["--my", "-1"], "--my"),
        ("embed", ["--m", "0"], "--m"),
        ("embed", ["--mprime", "0"], "--mprime"),
        ("sweep", ["--k", "2.5"], "--k"),
        # sweep alphas outside [0, 1]
        ("sweep", ["--alphas", "0,1.5"], "--alphas"),
        ("sweep", ["--alphas", "-0.1"], "--alphas"),
        # seeds below 0, median samples below 2, layer kinds not lin/rbf
        ("synth", ["--seed", "-1"], "--seed"),
        ("embed", ["--seed", "-1"], "--seed"),
        ("embed", ["--variant", "lin,lin", "--seed", "-1"], "--seed"),
        ("embed", ["--gamma-sample", "1"], "--gamma-sample"),
        ("embed", ["--gamma-sample", "-3"], "--gamma-sample"),
        ("embed", ["--gamma", "1", "--gamma-sample", "1"], "--gamma-sample"),
        ("embed", ["--variant", "foo,bar"], "--variant"),
        ("embed", ["--variant", "rbf"], "--variant"),
        ("embed", ["--concat", "rbf"], "--concat"),
        ("embed", ["--concat", "lin,rbf,rbf"], "--concat"),
    ]

    @pytest.mark.parametrize("command,flags,named", CASES)
    def test_usage_error(self, command, flags, named, synth_dir, fitted_model,
                         word_data, tmp_path, capsys):
        if command in ("eval", "sweep"):
            argv = _eval_argv(command, synth_dir, fitted_model, tmp_path)
        elif command == "fit-tikhonov":
            argv = ["fit", "--x", str(synth_dir / "train_x.fmat"),
                    "--y", str(synth_dir / "train_y.fmat"),
                    "--reg", "tikhonov", "--out", str(tmp_path / "m.arc")]
        elif command == "embed":
            argv = ["embed", "--corpus", str(word_data / "caps.txt"),
                    "--vectors", str(word_data / "vectors.txt"),
                    "--variant", "rbf,rbf", "--out", str(tmp_path / "e.fmat")]
        elif command == "synth":
            argv = ["synth", "--out-dir", str(tmp_path / "synth")]
        else:
            argv = _path_argv(command, synth_dir, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
        assert f"argument {named}: " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_config_value_checked_too(self, synth_dir, fitted_model,
                                      tmp_path, capsys):
        config = tmp_path / "eval.cfg"
        config.write_text("weighting=symmetric:nan\n")
        with pytest.raises(SystemExit) as exc:
            main(_eval_argv("eval", synth_dir, fitted_model, tmp_path)
                 + ["--config", str(config)])
        assert exc.value.code == 2
        assert "argument --weighting: " in capsys.readouterr().err

    #: subcommand -> its options that name a file; every other option's
    #: value is checked while the command line is parsed
    PATH_FLAGS = {
        "synth": {"--out-dir"},
        "embed": {"--corpus", "--vectors", "--out", "--map-out", "--map"},
        "fit": {"--x", "--y", "--val-x", "--val-y", "--val-pairing",
                "--path-out", "--out"},
        "path": {"--x", "--y", "--val-x", "--val-y", "--val-pairing",
                 "--out"},
        "timing": {"--x", "--y", "--val-x", "--val-y", "--val-pairing",
                   "--out"},
        "eval": {"--model", "--images", "--captions", "--pairing", "--out"},
        "sweep": {"--model", "--images", "--captions", "--pairing", "--out"},
        "inspect": {"--model"},
    }

    def test_every_option_is_checked(self):
        # an option has choices or a type of cli's, unless it names a file
        (commands,) = [a for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert set(commands.choices) == set(self.PATH_FLAGS)
        unchecked = []
        for name, parser in commands.choices.items():
            for action in parser._actions:
                flag = action.option_strings[-1]
                if (isinstance(action, argparse._HelpAction)
                        or flag in self.PATH_FLAGS[name] | {"--config"}):
                    continue
                if action.choices is None and getattr(
                        action.type, "__module__", None) != cli.__name__:
                    unchecked.append(f"{name} {flag}")
        assert unchecked == []


class TestInputErrorsNameTheFile:
    """A malformed input file is a data error naming the file and line."""

    MANIFEST_EDITS = {
        # kind: (archive, manifest edits, the message after '<file>: ')
        "model_int": ("model", {"k_x": "abc"},
                      "manifest key 'k_x': 'abc' is not a valid int"),
        "model_float": ("model", {"gamma_y": "1,5"},
                        "manifest key 'gamma_y': '1,5' is not a valid float"),
        "model_nan": ("model", {"gamma_x": "nan"},
                      "manifest key 'gamma_x': 'nan' is not finite"),
        "model_rank": ("model", {"kind": "tsvd", "k_x": "0"},
                       "tsvd ranks must be >= 1"),
        "map_int": ("map", {"m": "x"},
                    "manifest key 'm': 'x' is not a valid int"),
        "map_inf": ("map", {"eta": "inf"},
                    "manifest key 'eta': 'inf' is not finite"),
        "map_no_maps": ("map", {"n_maps": "0"}, "archive holds 0 maps"),
        "map_variant": ("map", {"sent_variant": "poly"},
                        "unknown map variant 'poly'"),
        "map_w_word": ("map", {"m": "9"},
                       "manifest dimensions disagree with W_WORD blob"),
        "map_w_sent_rows": ("map", {"m_prime": "7"},
                            "manifest dimensions disagree with W_SENT blob"),
    }
    BLOB_EDITS = {
        # kind: (archive, blob that loses its last column, the message)
        "model_mean_x": ("model", "MEAN_X",
                         "archive blob 'MEAN_X' has 15 entries, expected 16"),
        "model_mean_y": ("model", "MEAN_Y",
                         "archive blob 'MEAN_Y' has 11 entries, expected 12"),
        "map_b_word": ("map", "B_WORD",
                       "archive blob 'B_WORD' has 7 entries, expected 8"),
        "map_b_sent": ("map", "B_SENT",
                       "archive blob 'B_SENT' has 5 entries, expected 6"),
        "map_w_sent": ("map", "W_SENT",
                       "W_SENT has 7 columns, the pooled dimension is 8"),
        "model_u": ("model", "U", "U and V column counts disagree"),
    }

    @classmethod
    def _case(cls, kind, synth_dir, word_data, fitted_model, map_archive,
              tmp_path):
        """(argv, the bad file, the message after '<file>')."""
        bad = tmp_path / kind
        embed = ["embed", "--corpus", str(word_data / "caps.txt"),
                 "--vectors", str(word_data / "vectors.txt"),
                 "--out", str(tmp_path / "out.fmat")]
        if kind in cls.MANIFEST_EDITS or kind in cls.BLOB_EDITS:
            source, edit, message = {**cls.MANIFEST_EDITS,
                                     **cls.BLOB_EDITS}[kind]
            archive = io.load_archive({"model": fitted_model,
                                       "map": map_archive}[source])
            if isinstance(edit, dict):
                archive.manifest.update(edit)
            else:
                archive.blobs[edit] = io.FeatureMatrix(
                    archive.blobs[edit].values[:, :-1])
            io.save_archive(archive, bad)
            if source == "map":
                return embed + ["--map", str(bad)], bad, f": {message}"
            return (_eval_argv("eval", synth_dir, fitted_model, tmp_path,
                               model=bad), bad, f": {message}")
        if kind in ("sigma_rows", "duplicate_blob"):
            archive = io.load_archive(fitted_model)
            sigma = archive.blobs["SIGMA"]
            if kind == "sigma_rows":
                archive.blobs["SIGMA"] = io.FeatureMatrix(
                    np.vstack([sigma.values] * 2))
                io.save_archive(archive, bad)
            else:
                bad.write_bytes(fitted_model.read_bytes()
                                + struct.pack("<Q", 5) + b"SIGMA"
                                + matrix_to_bytes(sigma))
            return (_eval_argv("eval", synth_dir, fitted_model, tmp_path,
                               model=bad), bad,
                    ": archive blob 'SIGMA' has 2 rows, expected 1"
                    if kind == "sigma_rows" else ": duplicate blob 'SIGMA'")
        if kind in ("table_empty", "table_huge_dim"):
            # a header's dim is checked against the lines before any row
            # is allocated: 2 x 1e14 would be 1.42 PiB
            bad.write_text("0 5\n" if kind == "table_empty"
                           else "2 100000000000000\nred 1\ndog 2\n")
            embed[4] = str(bad)
            return embed, bad, (
                ":1: header declares 0 x 5" if kind == "table_empty"
                else ":2: expected token + 100000000000000 values, got 2 "
                "fields")
        if kind in ("table_overflow_dim", "table_empty_too_big",
                    "table_overflow_count"):
            # a header no numpy array could hold is refused as read: the
            # dim of an empty table's array, or a count the bandwidth
            # sample (an rbf word layer's) draws rows from
            header = {"table_overflow_dim": "2 1000000000000000000000",
                      "table_empty_too_big": f"2 {2**63 - 1}",
                      "table_overflow_count": f"{10**23} 1"}[kind]
            bad.write_text(header + "\nred 1\ndog 2\n")
            embed[4] = str(bad)
            if kind == "table_overflow_count":
                embed += ["--variant", "rbf,rbf", "--m", "4", "--mprime", "4"]
            count, dim = header.split()
            return embed, bad, f":1: header declares {count} x {dim}"
        if kind == "corpus_byte":
            bad.write_bytes(b"red dog\nblue \xffcat\n")
            embed[2] = str(bad)
            return embed, bad, ":2: not UTF-8 (invalid start byte)"
        if kind == "truncated_images":
            bad.write_bytes((synth_dir / "test_images.fmat").read_bytes()[:-8])
            return (_eval_argv("eval", synth_dir, fitted_model, tmp_path,
                               images=bad), bad,
                    ": FMAT1 payload truncated: header says 40x16")
        if kind == "truncated_model":
            bad.write_bytes(fitted_model.read_bytes()[:-8])
            return (_eval_argv("eval", synth_dir, fitted_model, tmp_path,
                               model=bad), bad,
                    ": blob 5: FMAT1 payload truncated")
        if kind == "manifest_byte":
            data = bytearray(fitted_model.read_bytes())
            data[16 + len(b"kind=none\n")] = 0xFF
            bad.write_bytes(bytes(data))
            return (_eval_argv("eval", synth_dir, fitted_model, tmp_path,
                               model=bad), bad,
                    ": manifest line 2 is not UTF-8 (invalid start byte)")
        if kind in ("pairing_byte", "pairing_huge"):
            rows = (synth_dir / "test_pairing.txt").read_bytes().split(b"\n")
            rows[2] = b"\xff" if kind == "pairing_byte" \
                else b"99999999999999999999999"
            bad.write_bytes(b"\n".join(rows))
            return (_eval_argv("sweep", synth_dir, fitted_model, tmp_path,
                               pairing=bad), bad,
                    ":3: not UTF-8 (invalid start byte)"
                    if kind == "pairing_byte"
                    else ":3: row index 99999999999999999999999 does not "
                    "fit in 64 bits")
        bad.write_bytes(b"similarity=l2\n# \xe9t\xe9\n")
        return (_eval_argv("eval", synth_dir, fitted_model, tmp_path)
                + (["--config", str(bad)] if kind == "config_byte"
                   else [f"--config={bad}"]), bad,
                ":2: not UTF-8 (invalid continuation byte)")

    @pytest.mark.parametrize("kind", [
        "truncated_images", "truncated_model", "manifest_byte",
        "pairing_byte", "pairing_huge", "config_byte", "config_equals",
        "corpus_byte", "sigma_rows", "duplicate_blob", "table_empty",
        "table_huge_dim", "table_overflow_dim", "table_empty_too_big",
        "table_overflow_count", *MANIFEST_EDITS, *BLOB_EDITS])
    def test_exit_one_naming_the_file(self, kind, synth_dir, word_data,
                                      fitted_model, map_archive, tmp_path,
                                      capsys):
        argv, bad, message = self._case(kind, synth_dir, word_data,
                                        fitted_model, map_archive, tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ccax: error: {bad}{message}")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out.*"))
