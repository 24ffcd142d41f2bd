"""Command-line surface: synth -> metrics -> train -> eval -> sweep-alpha.

Every command takes an optional JSON config (``--config``) merged with flag
overrides (flags mirror config keys 1:1 in kebab-case, unknown config keys
are rejected) and embeds the resolved config, seed and format version into
each artifact it writes. Reruns with identical config produce bit-identical
files on one numpy/OpenBLAS build; another BLAS kernel changes the bits.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import embed_io, metrics, trainer
from .errors import (
    ConfigError,
    DegenerateInput,
    FormatError,
    InvalidInput,
    JamError,
    ManifestError,
    NonFiniteGradient,
    NonFiniteLoss,
)
from .evalkit import aggregate_seeds
from .losses import LossConfig, SimilarityConfig
from .nnet import AutoencoderConfig

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_DATA_ERRORS = (ManifestError, FormatError, InvalidInput, DegenerateInput)


def _int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _float_list(text):
    return [float(tok) for tok in str(text).split(",") if tok != ""]


# key -> (parser type, default); None defaults mean "required" or "unset"
_SYNTH_KEYS = {
    "n": (int, 500),
    "latent_dim": (int, 16),
    "context_dims": (int, 12),
    "fine_dims": (int, 4),
    "d_v": (int, 64),
    "d_l": (int, 96),
    "noise_std": (float, 0.05),
    "hard_delta": (float, 1.0),
    "seed": (int, 5),
    "dtype": (str, "f64"),
    "out_dir": (str, "synth_out"),
}

_METRICS_KEYS = {
    "manifest": (str, None),
    "out_dir": (str, "metrics_out"),
    "easy": (str, None),
    "pca_r": (int, 50),
    "svcca_k": (int, 10),
    "svcca_eta": (float, 0.99),
    "knn_k": (int, 10),
    "kernel": (str, "linear"),
    "rbf_gamma": (float, None),
    "knn_similarity": (str, "inner"),
}

_TRAIN_KEYS = {
    "manifest": (str, None),
    "out_dir": (str, "train_out"),
    "objective": (str, "spread"),
    "alpha": (float, 0.5),
    "seeds": (_int_list, [5, 42, 55]),
    "epochs": (int, 100),
    "batch_size": (int, 32),
    "lr0": (float, 1e-3),
    "lr_min": (float, 1e-5),
    "weight_decay": (float, 0.01),
    "validate_every": (int, 5),
    "patience": (int, 5),
    "hidden_dims": (_int_list, [512, 512, 512]),
    "latent_dim": (int, 256),
    "dropout": (float, 0.1),
    "tau": (float, 0.07),
    "logit_scale_mode": (str, "learnable"),
    "lambda_start": (float, 1.0),
    "lambda_end": (float, 0.1),
    "include_positive_in_denominator": (bool, False),
}

_EVAL_KEYS = {
    "checkpoint": (str, None),
    "manifest": (str, None),
    "out_dir": (str, "eval_out"),
    "split": (str, "test"),
    "seed": (int, None),
}

_SWEEP_KEYS = dict(_TRAIN_KEYS)
_SWEEP_KEYS.update(
    {
        "out_dir": (str, "sweep_out"),
        "alphas": (_float_list, [0.0, 0.25, 0.5, 0.75, 1.0]),
        "seed": (int, 5),
    }
)
_SWEEP_KEYS.pop("seeds")

_COMMAND_KEYS = {
    "synth": _SYNTH_KEYS,
    "metrics": _METRICS_KEYS,
    "train": _TRAIN_KEYS,
    "eval": _EVAL_KEYS,
    "sweep-alpha": _SWEEP_KEYS,
}


def _add_flags(parser, keys):
    parser.add_argument("--config", default=None, help="JSON config file")
    for key, (typ, _default) in keys.items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            parser.add_argument(flag, default=None, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, default=None, type=typ)


def _resolve_config(command: str, args) -> dict:
    keys = _COMMAND_KEYS[command]
    resolved = {k: default for k, (_t, default) in keys.items()}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(doc) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(doc)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    return resolved


def _write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_synth(config: dict) -> int:
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    synth_cfg = embed_io.SynthConfig(
        n=config["n"],
        latent_dim=config["latent_dim"],
        context_dims=config["context_dims"],
        fine_dims=config["fine_dims"],
        d_v=config["d_v"],
        d_l=config["d_l"],
        noise_std=config["noise_std"],
        hard_delta=config["hard_delta"],
        seed=config["seed"],
    )
    ds, easy, latents = embed_io.synth_generate(synth_cfg)
    dtype = config["dtype"]
    files = {
        "images": ds.images,
        "positives": ds.positives,
        "negatives": ds.negatives,
        "easy": easy,
        "latents": latents,
    }
    for name, mat in files.items():
        embed_io.write_embeddings(out_dir / f"{name}.jemb", mat, dtype)
    manifest = {
        "images": "images.jemb",
        "positives": "positives.jemb",
        "negatives": "negatives.jemb",
        "easy": "easy.jemb",
        "latents": "latents.jemb",
        "n": synth_cfg.n,
    }
    _write_json(out_dir / "manifest.json", manifest)
    _write_json(
        out_dir / "run.json",
        {"command": "synth", "config": config, "seed": config["seed"], "format_version": FORMAT_VERSION},
    )
    print(f"wrote {len(files)} embedding files + manifest to {out_dir}")
    return EXIT_OK


def cmd_metrics(config: dict) -> int:
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = embed_io.read_manifest(config["manifest"])
    ds = embed_io.load_paired_dataset(config["manifest"])
    easy = None
    easy_path = config["easy"] if config["easy"] is not None else manifest.get("easy")
    if easy_path is not None and Path(easy_path).exists():
        easy = embed_io.read_embeddings(easy_path)
        if easy.shape[0] != ds.n:
            raise InvalidInput("easy-negatives row count differs from dataset")
    elif easy_path is not None:
        print(f"warning: easy negatives file missing ({easy_path}); column omitted")

    mcfg = metrics.MetricConfig(
        pca_r=config["pca_r"],
        svcca_k=config["svcca_k"],
        svcca_eta=config["svcca_eta"],
        knn_k=config["knn_k"],
        kernel=config["kernel"],
        rbf_gamma=config["rbf_gamma"],
        knn_similarity=config["knn_similarity"],
    )
    report = metrics.alignment_report(ds.images, ds.positives, easy, ds.negatives, mcfg, tolerant=True)
    for setting, cells in report.errors.items():
        for metric_name, message in cells.items():
            print(f"warning: {setting}/{metric_name} failed: {message}")
    _write_json(
        out_dir / "report.json",
        {
            "command": "metrics",
            "config": config,
            "metric_config": report.config,
            "scores": report.scores,
            "errors": report.errors,
            "format_version": FORMAT_VERSION,
        },
    )
    rows = []
    for setting in sorted(report.scores):
        for metric_name in metrics.METRIC_NAMES:
            value = report.scores[setting].get(metric_name)
            err = report.errors.get(setting, {}).get(metric_name, "")
            rows.append(
                [setting, metric_name, "" if value is None else repr(value), err]
            )
    _write_csv(out_dir / "report.csv", ["setting", "metric", "score", "error"], rows)
    print(f"wrote metric report to {out_dir}")
    return EXIT_OK


def _train_config_from(config: dict, ds) -> trainer.TrainConfig:
    ae_v = AutoencoderConfig(
        input_dim=ds.images.shape[1],
        hidden_dims=list(config["hidden_dims"]),
        latent_dim=config["latent_dim"],
        dropout=config["dropout"],
    )
    ae_l = AutoencoderConfig(
        input_dim=ds.positives.shape[1],
        hidden_dims=list(config["hidden_dims"]),
        latent_dim=config["latent_dim"],
        dropout=config["dropout"],
    )
    loss_cfg = LossConfig(
        objective=config["objective"],
        alpha=config["alpha"],
        lambda_start=config["lambda_start"],
        lambda_end=config["lambda_end"],
        include_positive_in_denominator=config["include_positive_in_denominator"],
    )
    sim_cfg = SimilarityConfig(
        tau=config["tau"], logit_scale_mode=config["logit_scale_mode"]
    )
    return trainer.TrainConfig(
        ae_cfg_vision=ae_v,
        ae_cfg_language=ae_l,
        epochs=config["epochs"],
        batch_size=config["batch_size"],
        seeds=tuple(config.get("seeds", [config.get("seed", 5)])),
        lr0=config["lr0"],
        lr_min=config["lr_min"],
        weight_decay=config["weight_decay"],
        validate_every=config["validate_every"],
        patience=config["patience"],
        loss_cfg=loss_cfg,
        sim_cfg=sim_cfg,
    )


def cmd_train(config: dict) -> int:
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    full_ds = embed_io.load_paired_dataset(config["manifest"])
    cfg = _train_config_from(config, full_ds)
    task = Path(config["manifest"]).stem
    results = []
    status = EXIT_OK
    for seed in config["seeds"]:
        try:
            model, history, result, _ = trainer.train_on_split(full_ds, cfg, seed)
        except NonFiniteLoss as exc:
            print(f"seed {seed}: aborted on non-finite loss", file=sys.stderr)
            _write_json(
                out_dir / f"history_{seed}.json",
                {
                    "command": "train",
                    "config": config,
                    "seed": seed,
                    "partial": True,
                    "history": exc.history.to_dict() if exc.history else None,
                    "format_version": FORMAT_VERSION,
                },
            )
            status = EXIT_NUMERIC
            continue
        trainer.save_jam(out_dir / f"checkpoint_{seed}.jckp", model, cfg, seed)
        _write_json(
            out_dir / f"history_{seed}.json",
            {
                "command": "train",
                "config": config,
                "seed": seed,
                "history": history.to_dict(),
                "format_version": FORMAT_VERSION,
            },
        )
        _write_json(
            out_dir / f"result_{seed}.json",
            {
                "command": "train",
                "config": config,
                "task": task,
                "objective": config["objective"],
                "seed": seed,
                "result": result.to_dict(),
                "format_version": FORMAT_VERSION,
            },
        )
        results.append(result)
        print(
            f"seed {seed}: test recall_binary={result.recall_binary:.4f} "
            f"recall_5way={result.recall_5way:.4f} ({history.stop_reason})"
        )
    if results:
        agg = aggregate_seeds(results)
        _write_json(
            out_dir / "aggregate.json",
            {
                "command": "train",
                "config": config,
                "task": task,
                "objective": config["objective"],
                "aggregate": agg,
                "format_version": FORMAT_VERSION,
            },
        )
        rows = [
            [task, config["objective"], r.seed, repr(r.recall_binary), repr(r.recall_5way), r.n_queries]
            for r in results
        ]
        rows.append(
            [task, config["objective"], "mean", repr(agg["recall_binary"]["mean"]), repr(agg["recall_5way"]["mean"]), ""]
        )
        rows.append(
            [task, config["objective"], "std", repr(agg["recall_binary"]["std"]), repr(agg["recall_5way"]["std"]), ""]
        )
        _write_csv(
            out_dir / "results.csv",
            ["task", "objective", "seed", "recall_binary", "recall_5way", "n_queries"],
            rows,
        )
    return status


def cmd_eval(config: dict) -> int:
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    model, meta = trainer.load_jam(config["checkpoint"])
    full_ds = embed_io.load_paired_dataset(config["manifest"])
    seed = config["seed"] if config["seed"] is not None else int(meta["seed"])
    split = config["split"]
    if split == "all":
        ds = full_ds
    else:
        names = {"train": 0, "val": 1, "test": 2}
        if split not in names:
            raise ConfigError(f"split must be train|val|test|all, got {split!r}")
        ds = embed_io.split_dataset(full_ds, seed=int(meta["seed"]))[names[split]]
    result = trainer.evaluate(model, ds, seed=seed)
    task = Path(config["manifest"]).stem
    objective = meta["train_config"]["loss_cfg"]["objective"]
    payload = {
        "command": "eval",
        "config": config,
        "task": task,
        "objective": objective,
        "seed": seed,
        "split": split,
        "result": result.to_dict(),
        "format_version": FORMAT_VERSION,
    }
    _write_json(out_dir / "result.json", payload)
    _write_csv(
        out_dir / "result.csv",
        ["task", "objective", "seed", "recall_binary", "recall_5way", "n_queries"],
        [[task, objective, seed, repr(result.recall_binary), repr(result.recall_5way), result.n_queries]],
    )
    print(
        f"{split} recall_binary={result.recall_binary:.4f} recall_5way={result.recall_5way:.4f}"
    )
    return EXIT_OK


def cmd_sweep_alpha(config: dict) -> int:
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    full_ds = embed_io.load_paired_dataset(config["manifest"])
    seed = config["seed"]
    cfg = _train_config_from({**config, "seeds": [seed]}, full_ds)
    train_ds, val_ds, _ = embed_io.split_dataset(full_ds, seed=seed)
    report = trainer.sweep_alpha(train_ds, val_ds, cfg, config["alphas"], seed=seed)
    _write_json(
        out_dir / "sweep.json",
        {
            "command": "sweep-alpha",
            "config": config,
            "seed": seed,
            "report": report.to_dict(),
            "format_version": FORMAT_VERSION,
        },
    )
    for entry in report.entries:
        print(f"alpha={entry.alpha:.3f} best_val_recall={entry.best_val_recall:.4f}")
    print(f"best alpha: {report.best_alpha}")
    return EXIT_OK


_HANDLERS = {
    "synth": cmd_synth,
    "metrics": cmd_metrics,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep-alpha": cmd_sweep_alpha,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jam", description="Embedding alignment: data, metrics, training, retrieval eval"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        _add_flags(sub.add_parser(command), keys)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args.command, args)
        for key, (_t, default) in _COMMAND_KEYS[args.command].items():
            if default is None and config.get(key) is None and key not in ("easy", "rbf_gamma", "seed"):
                raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return _HANDLERS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteLoss, NonFiniteGradient) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except JamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
