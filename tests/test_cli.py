"""End-to-end CLI runs: contracts, exit codes, determinism."""

import numpy as np
import pytest

from ccax import cca, cli, hkse, io, selection
from ccax.cli import main


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
    io.save_embedding_table(table, path / "vectors.txt")
    (path / "caps.txt").write_text(
        "red dog runs\nblue cat sits\ngreen dog sits\nred cat runs\n"
    )
    (path / "pairing.txt").write_text("0\n1\n2\n3\n")
    return path


class TestSynth:
    def test_expected_files(self, synth_dir):
        for name in ("images.fmat", "captions.fmat", "pairing.txt",
                     "splits.tsv", "train_x.fmat", "train_y.fmat",
                     "val_images.fmat", "val_captions.fmat",
                     "val_pairing.txt", "test_images.fmat",
                     "test_captions.fmat", "test_pairing.txt"):
            assert (synth_dir / name).exists(), name

    def test_shapes(self, synth_dir):
        assert io.load_matrix(synth_dir / "images.fmat").rows == 200
        assert io.load_matrix(synth_dir / "captions.fmat").rows == 600
        assert io.load_matrix(synth_dir / "train_x.fmat").rows == 360
        assert io.load_matrix(synth_dir / "val_images.fmat").rows == 40

    def test_deterministic_rerun(self, synth_dir, tmp_path):
        code = main([
            "synth", "--out-dir", str(tmp_path), "--n-train", "120",
            "--n-val", "40", "--n-test", "40", "--latent", "4",
            "--mx", "16", "--my", "12", "--captions", "3", "--seed", "5",
        ])
        assert code == 0
        for name in ("images.fmat", "captions.fmat", "train_y.fmat"):
            assert (tmp_path / name).read_bytes() == \
                (synth_dir / name).read_bytes()


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
            x = io.load_matrix(synth_dir / "train_x.fmat")
            xc, _ = cca.center_columns(x)
            s_x = cca.thin_svd(xc).s
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
    """200 images and 1000 captions, in the dims of ``fitted_model``."""
    out = tmp_path_factory.mktemp("five")
    assert main([
        "synth", "--out-dir", str(out), "--n-train", "120", "--n-val", "40",
        "--n-test", "40", "--latent", "4", "--mx", "16", "--my", "12",
        "--captions", "5", "--seed", "5",
    ]) == 0
    return out


class TestEvalBlocksErrors:
    """Bad ``--blocks`` inputs are data errors, checked before any block."""

    CASES = [
        # (--blocks, first pairing row: None = no --pairing, "" = as
        # written, else the replacement, message)
        ("2", None, "pair_index required when row counts differ"),
        ("2", "4000", "pair_index out of image range"),
        ("2", "-3", "pair_index out of image range"),
        ("500", "", "blocks must be between 1 and the 200 images, got 500"),
        ("0", "", "blocks must be between 1 and the 200 images, got 0"),
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


class TestThinSvdCount:
    """A command that runs a path factorises each training view once."""

    @pytest.mark.parametrize("command,flags", [
        ("fit", ["--grid", "3x3", "--metric", "r1"]),
        ("fit", ["--grid", "3x3", "--metric", "mean-r1"]),
        ("path", ["--reg", "tsvd", "--grid", "3x3"]),
        ("path", ["--reg", "tikhonov", "--grid", "3x3"]),
        ("timing", ["--grid", "3x3", "--repeats", "1"]),
    ])
    def test_two_thin_svds(self, command, flags, synth_dir, tmp_path,
                           monkeypatch):
        calls = []
        original = cca.thin_svd

        def counting(*args, **kwargs):
            calls.append(args[0].values.shape)
            return original(*args, **kwargs)

        # a "from .cca import thin_svd" binding bypasses the cca attribute
        for module in (cca, selection):
            if hasattr(module, "thin_svd"):
                monkeypatch.setattr(module, "thin_svd", counting)
        assert main(_path_argv(command, synth_dir, tmp_path) + flags) == 0
        assert len(calls) == 2


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
    the captions are caught before any thin SVD runs.
    """

    BEFORE_SVD = [
        ("path", "short_y", "row counts differ: 360 vs 300"),
        ("timing", "short_y", "row counts differ: 360 vs 300"),
        ("fit", "short_y", "row counts differ: 360 vs 300"),
        ("path", "pairs_short", "pair_index length must match caption count"),
        ("path", "pairs_long", "pair_index length must match caption count"),
        ("path", "captionless", "image 19 has no paired captions"),
        ("fit", "pairs_short", "pair_index length must match caption count"),
        ("fit", "pairs_long", "pair_index length must match caption count"),
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

        def no_svd(*args, **kwargs):
            raise AssertionError("thin SVD ran before the input check")

        monkeypatch.setattr(cca, "thin_svd", no_svd)
        argv = _path_argv(command, synth_dir, tmp_path, y, pairing)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flags,message", [
        ("path", ["--grid", "0x3"], "--grid counts must be >= 1"),
        ("fit", ["--grid-x", ","], "k_x grid is empty"),
        ("path", ["--reg", "tikhonov", "--grid-y", ","],
         "gamma_y grid is empty"),
    ])
    def test_empty_grid_rejected(self, command, flags, message, synth_dir,
                                 tmp_path, capsys):
        argv = _path_argv(command, synth_dir, tmp_path) + flags
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
