import csv
import json
from pathlib import Path

import numpy as np
import pytest

from jam.cli import main
from jam.embed_io import read_embeddings, write_embeddings
from jam.metrics import METRIC_NAMES


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

    def test_bad_manifest_exits_3(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert run_cli(["metrics", "--manifest", missing, "--out-dir", tmp_path / "m"]) == 3


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

