import argparse
import csv
import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from jam import cli, embed_io
from jam.cli import main
from jam.embed_io import SynthConfig, read_embeddings, write_embeddings
from jam.metrics import METRIC_NAMES, MetricConfig
from jam.nnet import AutoencoderConfig, load_checkpoint, save_checkpoint
from jam.numkit import RngStream
from jam.trainer import TrainConfig, TrainedJAM, save_jam


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run_cli(
        ["synth", "--n", 120, "--d-v", 16, "--d-l", 20, "--seed", 5, "--out-dir", out]
    )
    assert code == 0
    return out


def fast_train_args(synth_dir, out, objective="spread", seeds="5"):
    return [
        "train",
        "--manifest", synth_dir / "manifest.json",
        "--out-dir", out,
        "--objective", objective,
        "--seeds", seeds,
        "--epochs", 4,
        "--validate-every", 2,
        "--batch-size", 8,
        "--hidden-dims", "12",
        "--latent-dim", 8,
        "--dropout", "0.0",
    ]


class TestSynthCommand:
    def test_writes_five_files_and_manifest(self, synth_dir):
        for name in ("images", "positives", "negatives", "easy", "latents"):
            assert (synth_dir / f"{name}.jemb").exists()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["n"] == 120
        assert read_embeddings(synth_dir / "images.jemb").shape == (120, 16)

    def test_rerun_bit_identical(self, tmp_path):
        out = tmp_path / "synth"
        names = ("images.jemb", "positives.jemb", "negatives.jemb", "easy.jemb", "latents.jemb", "manifest.json", "run.json")
        assert run_cli(["synth", "--n", 40, "--seed", 7, "--out-dir", out]) == 0
        first = {name: (out / name).read_bytes() for name in names}
        assert run_cli(["synth", "--n", 40, "--seed", 7, "--out-dir", out]) == 0
        for name in names:
            assert (out / name).read_bytes() == first[name], name

    def test_run_config_echoed(self, synth_dir):
        run = json.loads((synth_dir / "run.json").read_text())
        assert run["config"]["n"] == 120
        assert run["seed"] == 5
        assert "format_version" in run

    @pytest.mark.parametrize("flag", ["--d-v", "--d-l"])
    def test_width_below_latent_dim_exits_3(self, tmp_path, capsys, flag):
        out = tmp_path / "synth"
        assert run_cli(["synth", flag, 8, "--latent-dim", 16, "--out-dir", out]) == 3
        assert "latent_dim" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--noise-std", "--hard-delta"])
    def test_nan_float_exits_3(self, tmp_path, capsys, flag):
        out = tmp_path / "synth"
        assert run_cli(["synth", flag, "nan", "--out-dir", out]) == 3
        assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestMetricsCommand:
    def test_full_grid(self, synth_dir, tmp_path):
        out = tmp_path / "metrics"
        code = run_cli(["metrics", "--manifest", synth_dir / "manifest.json", "--out-dir", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["scores"]) == {"match", "easy_nonmatch", "hard_nonmatch"}
        for setting in report["scores"].values():
            assert set(setting) == {"cca_linear", "cca_kernel", "cka", "svcca", "cknna"}
        with open(out / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["setting", "metric", "score", "error"]
        assert len(rows) == 1 + 3 * 5

    def test_missing_easy_omits_column(self, synth_dir, tmp_path, capsys):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest.pop("latents")
        manifest["easy"] = "does_not_exist.jemb"
        mpath = tmp_path / "manifest.json"
        for key in ("images", "positives", "negatives"):
            manifest[key] = str(synth_dir / manifest[key])
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "metrics"
        assert run_cli(["metrics", "--manifest", mpath, "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["scores"]) == {"match", "hard_nonmatch"}
        assert "warning" in capsys.readouterr().out

    def test_degenerate_text_view_records_errors(self, synth_dir, tmp_path, capsys):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        for key in ("images", "positives", "negatives"):
            manifest[key] = str(synth_dir / manifest[key])
        write_embeddings(tmp_path / "constant.jemb", np.ones((120, 20)))
        manifest["easy"] = str(tmp_path / "constant.jemb")
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "metrics"
        assert run_cli(["metrics", "--manifest", mpath, "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["errors"]) == {"easy_nonmatch"}
        assert set(report["errors"]["easy_nonmatch"]) == set(METRIC_NAMES)
        assert report["scores"]["easy_nonmatch"] == {}
        for setting in ("match", "hard_nonmatch"):
            assert set(report["scores"][setting]) == set(METRIC_NAMES)
        with open(out / "report.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 3 * 5
        for setting, _, score, error in rows:
            assert (score == "") == (setting == "easy_nonmatch") == (error != "")
        printed = capsys.readouterr().out
        assert printed.count("warning: easy_nonmatch/") == 5

    def test_flag_override_echoed(self, synth_dir, tmp_path):
        out = tmp_path / "metrics"
        assert run_cli(
            ["metrics", "--manifest", synth_dir / "manifest.json", "--out-dir", out, "--knn-k", 5]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["knn_k"] == 5
        assert report["metric_config"]["knn_k"] == 5

    def test_manifest_parsed_once(self, synth_dir, tmp_path, monkeypatch):
        paths = []
        read_manifest = embed_io.read_manifest
        monkeypatch.setattr(embed_io, "read_manifest", lambda path: paths.append(path) or read_manifest(path))
        assert run_cli(["metrics", "--manifest", synth_dir / "manifest.json", "--out-dir", tmp_path / "m"]) == 0
        assert len(paths) == 1

    def test_bad_manifest_exits_3(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert run_cli(["metrics", "--manifest", missing, "--out-dir", tmp_path / "m"]) == 3

    # the set has 120 rows, so int(120.7) would match it
    @pytest.mark.parametrize("key, value", [("n", "abc"), ("n", None), ("n", 120.7), ("images", 5)])
    def test_malformed_manifest_value_exits_3(self, synth_dir, tmp_path, capsys, key, value):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        for name in ("images", "positives", "negatives", "easy", "latents"):
            manifest[name] = str(synth_dir / manifest[name])
        manifest[key] = value
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "m"
        assert run_cli(["metrics", "--manifest", mpath, "--out-dir", out]) == 3
        assert repr(value) in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("where, code", [("manifest", 3), ("embeddings", 3), ("config", 2)])
    def test_directory_in_place_of_a_file(self, synth_dir, tmp_path, capsys, where, code):
        folder = tmp_path / "folder"
        folder.mkdir()
        manifest = synth_dir / "manifest.json"
        args = ["metrics", "--out-dir", tmp_path / "m"]
        if where == "manifest":
            manifest = folder
        elif where == "embeddings":
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"images": str(folder), "positives": str(synth_dir / "positives.jemb"),
                                            "negatives": str(synth_dir / "negatives.jemb")}))
        else:
            args += ["--config", folder]
        assert run_cli(args + ["--manifest", manifest]) == code
        assert str(folder) in capsys.readouterr().err

    @pytest.mark.parametrize("where, code", [("manifest", 3), ("config", 2)])
    def test_file_that_is_not_utf8(self, synth_dir, tmp_path, capsys, where, code):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        manifest = bad if where == "manifest" else synth_dir / "manifest.json"
        args = ["metrics", "--out-dir", tmp_path / "m", "--manifest", manifest]
        if where == "config":
            args += ["--config", bad]
        assert run_cli(args) == code
        err = capsys.readouterr().err
        assert str(bad) in err and "utf-8" in err

    @pytest.mark.parametrize("flag, value", [("--kernel", "rbff"), ("--knn-similarity", "cos")])
    def test_unknown_metric_option_exits_3(self, synth_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "m"
        args = ["metrics", "--manifest", synth_dir / "manifest.json", "--out-dir", out, flag, value]
        assert run_cli(args) == 3
        assert repr(value) in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--knn-k", "0"), ("--pca-r", "0"), ("--svcca-eta", "0"), ("--svcca-eta", "1.5"),
        ("--svcca-k", "0"), ("--rbf-gamma", "-1"), ("--rbf-gamma", "0"),
    ])
    def test_out_of_range_metric_option_exits_3(self, synth_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "m"
        args = ["metrics", "--manifest", synth_dir / "manifest.json", "--out-dir", out, flag, value]
        assert run_cli(args) == 3
        assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not (out / "report.json").exists()


def save_small_checkpoint(path):
    """A learnable-scale 16/20 -> [4] -> 3 model, saved at seed 5 with the default config."""
    cfg = TrainConfig(ae_cfg_vision=AutoencoderConfig(16, [4], 3),
                      ae_cfg_language=AutoencoderConfig(20, [4], 3))
    save_jam(path, TrainedJAM(cfg, RngStream(1), RngStream(2)), cfg, 5)


def with_retired_keys(meta):
    """Checkpoint metadata as written before the retired config fields went:
    each at the one value it held, as JSON stores it."""
    train_config = meta["train_config"]
    for section in ("ae_cfg_vision", "ae_cfg_language"):
        train_config[section]["layernorm_eps"] = 1e-05
    train_config["loss_cfg"]["alpha_schedule"] = None
    train_config["sim_cfg"].update(logit_scale_init=2.659260036932778, logit_scale_max=4.605170185988092)
    return meta


class TestTrainEvalCommands:
    def test_train_then_eval(self, synth_dir, tmp_path):
        out = tmp_path / "train"
        assert run_cli(fast_train_args(synth_dir, out)) == 0
        assert (out / "checkpoint_5.jckp").exists()
        assert (out / "history_5.json").exists()
        assert (out / "result_5.json").exists()
        assert (out / "aggregate.json").exists()
        assert (out / "results.csv").exists()

        eval_out = tmp_path / "eval"
        code = run_cli(
            [
                "eval",
                "--checkpoint", out / "checkpoint_5.jckp",
                "--manifest", synth_dir / "manifest.json",
                "--out-dir", eval_out,
            ]
        )
        assert code == 0
        result = json.loads((eval_out / "result.json").read_text())
        assert result["split"] == "test"
        assert 0.0 <= result["result"]["recall_binary"] <= 1.0
        # eval on the test split must match the train command's own test eval
        train_result = json.loads((out / "result_5.json").read_text())
        assert result["result"] == train_result["result"]

    def test_multi_seed_aggregate(self, synth_dir, tmp_path):
        out = tmp_path / "train"
        assert run_cli(fast_train_args(synth_dir, out, seeds="5,42")) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["aggregate"]["n_runs"] == 2
        assert agg["aggregate"]["seeds"] == [5, 42]
        with open(out / "results.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 + 2  # header, 2 seeds, mean + std

    def test_objective_flag_selects_loss(self, synth_dir, tmp_path):
        out = tmp_path / "train"
        assert run_cli(fast_train_args(synth_dir, out, objective="negcon")) == 0
        hist = json.loads((out / "history_5.json").read_text())
        assert hist["config"]["objective"] == "negcon"

    def test_train_reruns_bit_identical(self, synth_dir, tmp_path):
        out = tmp_path / "train"
        names = ("checkpoint_5.jckp", "history_5.json", "result_5.json", "aggregate.json", "results.csv")
        assert run_cli(fast_train_args(synth_dir, out)) == 0
        first = {name: (out / name).read_bytes() for name in names}
        assert run_cli(fast_train_args(synth_dir, out)) == 0
        for name in names:
            assert (out / name).read_bytes() == first[name], name

    def test_config_file_plus_override(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"epochs": 4, "validate_every": 2, "batch_size": 8,
                                        "hidden_dims": [12], "latent_dim": 8, "dropout": 0.0,
                                        "seeds": [5]}))
        out = tmp_path / "out"
        code = run_cli(
            ["train", "--config", cfg_path, "--manifest", synth_dir / "manifest.json",
             "--out-dir", out, "--epochs", 6]
        )
        assert code == 0
        hist = json.loads((out / "history_5.json").read_text())
        assert hist["config"]["epochs"] == 6  # flag overrides file
        assert hist["config"]["batch_size"] == 8  # file overrides default

    def test_unknown_config_key_exits_2(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"gibberish": True}))
        code = run_cli(
            ["train", "--config", cfg_path, "--manifest", synth_dir / "manifest.json",
             "--out-dir", tmp_path / "out"]
        )
        assert code == 2

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_empty_seeds_exit_3(self, synth_dir, tmp_path, source):
        out = tmp_path / "out"
        if source == "flag":
            args = fast_train_args(synth_dir, out, seeds="")
        else:
            cfg_path = tmp_path / "seeds.json"
            cfg_path.write_text(json.dumps({"seeds": []}))
            args = fast_train_args(synth_dir, out)
            args[args.index("--seeds") : args.index("--seeds") + 2] = ["--config", cfg_path]
        assert run_cli(args) == 3
        assert not out.exists() or not any(out.iterdir())

    def test_repeated_seeds_exit_3_before_training(self, synth_dir, tmp_path, capsys, monkeypatch):
        trained, train = [], cli.trainer.train
        monkeypatch.setattr(cli.trainer, "train", lambda *a, **kw: trained.append(kw) or train(*a, **kw))
        out = tmp_path / "out"
        assert run_cli(fast_train_args(synth_dir, out, seeds="5,5")) == 3
        assert "seeds must be distinct" in capsys.readouterr().err
        assert trained == []
        assert not any(out.iterdir())

    def test_bad_split_exits_2_before_reading_files(self, tmp_path, capsys):
        out = tmp_path / "eval"
        args = ["eval", "--checkpoint", tmp_path / "no.jckp", "--manifest", tmp_path / "no.json",
                "--out-dir", out, "--split", "bogus"]
        assert run_cli(args) == 2
        assert "split must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage",
        ["missing", "corrupt_json", "document_past_end", "truncated_tensor", "no_train_config",
         "no_seed", "text_seed", "text_train_config"],
    )
    def test_bad_checkpoint_exits_3(self, synth_dir, tmp_path, capsys, damage):
        path = tmp_path / "m.jckp"
        save_small_checkpoint(path)
        raw = bytearray(path.read_bytes())
        if damage == "missing":
            path.unlink()
        elif damage.startswith(("no_", "text_")):  # metadata without a key, or with a string for it
            tensors, meta = load_checkpoint(path)
            kind, key = damage.split("_", 1)
            if kind == "no":
                del meta[key]
            else:
                meta[key] = "x"
            save_checkpoint(path, tensors, meta)
        else:
            if damage == "corrupt_json":
                raw[16] = ord("!")  # the document's opening brace, after the 16-byte header
            elif damage == "document_past_end":
                raw[8:16] = len(raw).to_bytes(8, "little")
            else:
                del raw[-8:]  # the end of the last tensor
            path.write_bytes(raw)
        args = ["eval", "--checkpoint", path, "--manifest", synth_dir / "manifest.json",
                "--out-dir", tmp_path / "eval"]
        assert run_cli(args) == 3
        assert str(path) in capsys.readouterr().err

    def test_checkpoint_without_objective_evals_the_default(self, synth_dir, tmp_path):
        path = tmp_path / "m.jckp"
        save_small_checkpoint(path)
        tensors, meta = load_checkpoint(path)
        meta["train_config"]["loss_cfg"] = {}  # load_jam fills LossConfig's defaults
        save_checkpoint(path, tensors, meta)
        args = ["eval", "--checkpoint", path, "--manifest", synth_dir / "manifest.json",
                "--out-dir", tmp_path / "eval"]
        assert run_cli(args) == 0
        assert json.loads((tmp_path / "eval" / "result.json").read_text())["objective"] == "spread"

    def test_eval_parses_the_checkpoint_config_once(self, synth_dir, tmp_path, monkeypatch):
        path = tmp_path / "m.jckp"
        save_small_checkpoint(path)
        parsed = []
        from_dict = TrainConfig.from_dict
        monkeypatch.setattr(TrainConfig, "from_dict", classmethod(lambda cls, d: parsed.append(d) or from_dict(d)))
        args = ["eval", "--checkpoint", path, "--manifest", synth_dir / "manifest.json",
                "--out-dir", tmp_path / "eval"]
        assert run_cli(args) == 0
        assert len(parsed) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--patience", "0"), ("--patience", "-3"), ("--lr0", "-1"), ("--lr0", "nan"),
        ("--weight-decay", "-1"), ("--lr-min", "5"), ("--tau", "nan"), ("--tau", "inf"),
    ])
    def test_out_of_range_train_option_exits_3(self, synth_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "train"
        assert run_cli(fast_train_args(synth_dir, out) + [flag, value]) == 3
        assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not (out / "checkpoint_5.jckp").exists()

    def test_checkpoint_with_retired_keys_evals_the_same(self, synth_dir, tmp_path):
        """Checkpoints written before the never-set config fields were retired
        hold them at their one value; they load and score the same."""
        path = tmp_path / "m.jckp"
        save_small_checkpoint(path)
        args = ["eval", "--checkpoint", path, "--manifest", synth_dir / "manifest.json"]
        assert run_cli(args + ["--out-dir", tmp_path / "now"]) == 0
        tensors, meta = load_checkpoint(path)
        save_checkpoint(path, tensors, with_retired_keys(meta))
        assert run_cli(args + ["--out-dir", tmp_path / "old"]) == 0
        now, old = (json.loads((tmp_path / d / "result.json").read_text()) for d in ("now", "old"))
        assert old["result"] == now["result"]

    @pytest.mark.parametrize("section, key, value", [
        ("ae_cfg_vision", "layernorm_eps", 1e-3), ("loss_cfg", "alpha_schedule", ["linear", 0.25, 0.75]),
    ])
    def test_retired_key_at_another_value_exits_3(self, synth_dir, tmp_path, capsys, section, key, value):
        path = tmp_path / "m.jckp"
        save_small_checkpoint(path)
        tensors, meta = load_checkpoint(path)
        meta = with_retired_keys(meta)
        meta["train_config"][section][key] = value
        save_checkpoint(path, tensors, meta)
        args = ["eval", "--checkpoint", path, "--manifest", synth_dir / "manifest.json",
                "--out-dir", tmp_path / "eval"]
        assert run_cli(args) == 3
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_missing_manifest_exits_3(self, tmp_path):
        code = run_cli(["train", "--manifest", tmp_path / "no.json", "--out-dir", tmp_path / "o",
                        "--epochs", 4, "--validate-every", 2])
        assert code == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_nonfinite_abort_exits_4_with_partial_history(self, synth_dir, tmp_path):
        out = tmp_path / "boom"
        args = fast_train_args(synth_dir, out) + ["--lr0", "1e9"]
        assert run_cli(args) == 4
        partial = json.loads((out / "history_5.json").read_text())
        assert partial["partial"] is True
        assert partial["history"]["stop_reason"] == "aborted_nonfinite"


class TestSweepCommand:
    def test_sweep_structure(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            [
                "sweep-alpha",
                "--manifest", synth_dir / "manifest.json",
                "--out-dir", out,
                "--alphas", "0,0.5,1",
                "--seed", 5,
                "--epochs", 4,
                "--validate-every", 2,
                "--batch-size", 8,
                "--hidden-dims", "12",
                "--latent-dim", 8,
                "--dropout", "0.0",
            ]
        )
        assert code == 0
        report = json.loads((out / "sweep.json").read_text())
        alphas = [e["alpha"] for e in report["report"]["entries"]]
        assert alphas == [0.0, 0.5, 1.0]
        assert report["report"]["best_alpha"] in alphas

    def test_alpha_out_of_range_exits_3_before_training(self, synth_dir, tmp_path, capsys, monkeypatch):
        trained, train = [], cli.trainer.train
        monkeypatch.setattr(cli.trainer, "train", lambda *a, **kw: trained.append(kw) or train(*a, **kw))
        out = tmp_path / "sweep"
        args = ["sweep-alpha", "--manifest", synth_dir / "manifest.json", "--out-dir", out,
                "--alphas", "0.5,0.25,2", "--seed", 5, "--epochs", 4, "--validate-every", 2,
                "--batch-size", 8, "--hidden-dims", "12", "--latent-dim", 8, "--dropout", "0.0"]
        assert run_cli(args) == 3
        assert "alpha must be in [0, 1], got 2.0" in capsys.readouterr().err
        assert trained == []
        assert not (out / "sweep.json").exists()


class TestConfigFileTypes:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("train", {"epochs": "10"}),
            ("train", {"hidden_dims": "16,16"}),
            ("train", {"seeds": 5}),
            ("train", {"include_positive_in_denominator": 1}),
            ("synth", {"n": "60"}),
            ("metrics", {"pca_r": 5.5}),
            ("metrics", {"svcca_eta": True}),
        ],
    )
    def test_wrong_type_exits_2(self, synth_dir, tmp_path, capsys, command, doc):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        args = [command, "--config", cfg_path, "--out-dir", tmp_path / "out"]
        if command != "synth":
            args += ["--manifest", synth_dir / "manifest.json"]
        assert run_cli(args) == 2
        assert f"config key {next(iter(doc))!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_int_fits_float_and_null_fits_unset(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "ok.json"
        cfg_path.write_text(json.dumps({"svcca_eta": 1, "rbf_gamma": None, "pca_r": 5}))
        out = tmp_path / "metrics"
        assert run_cli(["metrics", "--config", cfg_path, "--manifest", synth_dir / "manifest.json",
                        "--out-dir", out]) == 0
        assert json.loads((out / "report.json").read_text())["metric_config"]["svcca_eta"] == 1


TRAIN_OPTIONS = [
    "--alpha", "--batch-size", "--config", "--dropout", "--epochs", "--help", "--hidden-dims",
    "--include-positive-in-denominator", "--lambda-end", "--lambda-start", "--latent-dim",
    "--logit-scale-mode", "--lr-min", "--lr0", "--manifest", "--no-include-positive-in-denominator",
    "--objective", "--out-dir", "--patience", "--seeds", "--tau", "--validate-every", "--weight-decay",
]
TRAIN_DEFAULTS = {
    "manifest": None, "out_dir": "train_out", "objective": "spread", "alpha": 0.5, "seeds": [5, 42, 55],
    "epochs": 100, "batch_size": 32, "lr0": 0.001, "lr_min": 1e-05, "weight_decay": 0.01,
    "validate_every": 5, "patience": 5, "hidden_dims": [512, 512, 512], "latent_dim": 256,
    "dropout": 0.1, "tau": 0.07, "logit_scale_mode": "learnable", "lambda_start": 1.0,
    "lambda_end": 0.1, "include_positive_in_denominator": False,
}
SURFACE = {
    "synth": (
        ["--config", "--context-dims", "--d-l", "--d-v", "--dtype", "--fine-dims", "--hard-delta",
         "--help", "--latent-dim", "--n", "--noise-std", "--out-dir", "--seed"],
        {"n": 500, "latent_dim": 16, "context_dims": 12, "fine_dims": 4, "d_v": 64, "d_l": 96,
         "noise_std": 0.05, "hard_delta": 1.0, "seed": 5, "dtype": "f64", "out_dir": "synth_out"},
    ),
    "metrics": (
        ["--config", "--easy", "--help", "--kernel", "--knn-k", "--knn-similarity", "--manifest",
         "--out-dir", "--pca-r", "--rbf-gamma", "--svcca-eta", "--svcca-k"],
        {"manifest": None, "out_dir": "metrics_out", "easy": None, "pca_r": 50, "svcca_k": 10,
         "svcca_eta": 0.99, "knn_k": 10, "kernel": "linear", "rbf_gamma": None, "knn_similarity": "inner"},
    ),
    "train": (TRAIN_OPTIONS, TRAIN_DEFAULTS),
    "eval": (
        ["--checkpoint", "--config", "--help", "--manifest", "--out-dir", "--seed", "--split"],
        {"checkpoint": None, "manifest": None, "out_dir": "eval_out", "split": "test", "seed": None},
    ),
    "sweep-alpha": (
        sorted(set(TRAIN_OPTIONS) - {"--seeds"} | {"--alphas", "--seed"}),
        {**{k: v for k, v in TRAIN_DEFAULTS.items() if k != "seeds"}, "out_dir": "sweep_out",
         "alphas": [0.0, 0.25, 0.5, 0.75, 1.0], "seed": 5},
    ),
}


class TestSurface:
    """Pins every option, every default and the checkpoint's config echo, so
    deriving them from the config dataclasses adds, drops or renames none."""

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_options_and_defaults(self, command):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = sorted(o for a in sub.choices[command]._actions for o in a.option_strings if o.startswith("--"))
        resolved = cli._resolve_config(command, parser.parse_args([command]))
        assert options == SURFACE[command][0]
        # artifacts echo the resolved config as JSON
        assert json.loads(json.dumps(resolved)) == SURFACE[command][1]

    def test_checkpoint_meta(self, tmp_path):
        cfg = TrainConfig(
            ae_cfg_vision=AutoencoderConfig(6, [4], 3),
            ae_cfg_language=AutoencoderConfig(5, [4], 3),
            epochs=2,
            validate_every=1,
            seeds=(7,),
        )
        save_jam(tmp_path / "m.jckp", TrainedJAM(cfg, RngStream(0), RngStream(1)), cfg, 7)
        ae = {"dropout": 0.1, "hidden_dims": [4], "latent_dim": 3}
        assert load_checkpoint(tmp_path / "m.jckp")[1] == {
            "format_version": 1,
            "seed": 7,
            "train_config": {
                "ae_cfg_language": {**ae, "input_dim": 5},
                "ae_cfg_vision": {**ae, "input_dim": 6},
                "batch_size": 32,
                "epochs": 2,
                "loss_cfg": {"alpha": 0.5, "include_positive_in_denominator": False, "lambda_end": 0.1,
                             "lambda_start": 1.0, "objective": "spread"},
                "lr0": 0.001,
                "lr_min": 1e-05,
                "patience": 5,
                "seeds": [7],
                "sim_cfg": {"logit_scale_mode": "learnable", "tau": 0.07},
                "validate_every": 1,
                "weight_decay": 0.01,
            },
        }

    def test_every_config_field_is_a_key(self):
        """A config field that no key reaches is a setting no caller can vary.
        Only the input widths, which come from the data, and sweep-alpha's
        seeds (it takes one ``seed``) are not keys."""

        def names(cls):
            hints = get_type_hints(cls)
            return {name for f in fields(cls)
                    for name in (names(hints[f.name]) if is_dataclass(hints[f.name]) else {f.name})}

        train = names(TrainConfig) - {"input_dim"}
        assert names(SynthConfig) <= set(cli._COMMAND_KEYS["synth"])
        assert names(MetricConfig) <= set(cli._COMMAND_KEYS["metrics"])
        assert train <= set(cli._COMMAND_KEYS["train"])
        assert train - {"seeds"} <= set(cli._COMMAND_KEYS["sweep-alpha"])
