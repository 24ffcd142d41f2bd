"""Command-line surface: synth -> metrics -> train -> eval -> sweep-alpha.

Every command takes an optional JSON config (``--config``) merged with flag
overrides (flags mirror config keys 1:1 in kebab-case; unknown keys and
values of the wrong type are config errors) and embeds the resolved config,
seed and format version into each artifact it writes. Reruns with identical
config produce bit-identical files on one numpy/OpenBLAS build; another BLAS
kernel changes the bits.

The keys, their types and their defaults come from the fields of the config
dataclasses (`embed_io.SynthConfig`, `metrics.MetricConfig`, and
`trainer.TrainConfig` with the configs it nests), less the input widths,
which come from the data, and sweep-alpha's ``seeds``; ``_COMMAND_KEYS`` adds
the few keys that are not config fields (paths, the dtype, the eval split,
seeds and the sweep's alphas).

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


class _Type(NamedTuple):
    """What a key's value is: how a flag's text is parsed, and whether a
    config-file value fits (an int fits a float; nothing is coerced)."""

    name: str
    parse: Callable
    fits: Callable


_INT = _Type("an integer", int, _is_int)
_FLOAT = _Type("a number", float, _is_number)
_STR = _Type("a string", str, lambda v: isinstance(v, str))
_BOOL = _Type("true or false", None, lambda v: isinstance(v, bool))  # flags --key / --no-key
_INTS = _Type("a list of integers", _int_list, lambda v: isinstance(v, list) and all(map(_is_int, v)))
_FLOATS = _Type("a list of numbers", _float_list, lambda v: isinstance(v, list) and all(map(_is_number, v)))

# config dataclass field annotation -> the type of its key
_FIELD_TYPES = {
    int: _INT,
    float: _FLOAT,
    float | None: _FLOAT,
    str: _STR,
    bool: _BOOL,
    list[int]: _INTS,
    tuple[int, ...]: _INTS,
}


class _Key(NamedTuple):
    type: _Type
    default: object  # None: unset, or missing when ``required``
    required: bool = False


def _field_keys(cls, hidden=()) -> dict:
    """A key for each field of config dataclass ``cls`` not named in
    ``hidden``, with the field's default; nested configs add their fields."""
    keys = {}
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            keys.update(_field_keys(hints[f.name], hidden))
        elif f.name not in hidden:
            default = f.default_factory() if f.default is MISSING else f.default
            keys[f.name] = _Key(_FIELD_TYPES[hints[f.name]], default)
    return keys


# set per job, not by the user: input widths come from the data
_TRAIN_HIDDEN = ("input_dim",)

_COMMAND_KEYS = {
    "synth": {
        **_field_keys(embed_io.SynthConfig),
        "dtype": _Key(_STR, "f64"),
        "out_dir": _Key(_STR, "synth_out"),
    },
    "metrics": {
        "manifest": _Key(_STR, None, required=True),
        "out_dir": _Key(_STR, "metrics_out"),
        "easy": _Key(_STR, None),
        **_field_keys(metrics.MetricConfig),
    },
    "train": {
        "manifest": _Key(_STR, None, required=True),
        "out_dir": _Key(_STR, "train_out"),
        **_field_keys(trainer.TrainConfig, hidden=_TRAIN_HIDDEN),
    },
    "eval": {
        "checkpoint": _Key(_STR, None, required=True),
        "manifest": _Key(_STR, None, required=True),
        "out_dir": _Key(_STR, "eval_out"),
        "split": _Key(_STR, "test"),
        "seed": _Key(_INT, None),
    },
    "sweep-alpha": {
        "manifest": _Key(_STR, None, required=True),
        "out_dir": _Key(_STR, "sweep_out"),
        **_field_keys(trainer.TrainConfig, hidden=_TRAIN_HIDDEN + ("seeds",)),
        "alphas": _Key(_FLOATS, [0.0, 0.25, 0.5, 0.75, 1.0]),
        "seed": _Key(_INT, 5),
    },
}


def _add_flags(parser, keys):
    parser.add_argument("--config", default=None, help="JSON config file")
    for key, spec in keys.items():
        flag = "--" + key.replace("_", "-")
        if spec.type is _BOOL:
            parser.add_argument(flag, default=None, action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(flag, default=None, type=spec.type.parse)


def _resolve_config(command: str, args) -> dict:
    keys = _COMMAND_KEYS[command]
    resolved = {k: spec.default for k, spec in keys.items()}
    if args.config is not None:
        doc = embed_io.read_json_object(args.config, "config file", ConfigError)
        unknown = set(doc) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            spec = keys[key]
            unset = value is None and spec.default is None
            if not (unset or spec.type.fits(value)):
                raise ConfigError(f"config key {key!r} must be {spec.type.name}, got {value!r}")
        resolved.update(doc)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    return resolved


def _build(cls, config: dict, **given):
    """Config dataclass ``cls`` from the resolved keys named after its fields,
    with ``given`` for the fields set otherwise."""
    names = {f.name for f in fields(cls)}
    kwargs = {k: v for k, v in config.items() if k in names}
    kwargs.update(given)
    return cls(**kwargs)


def _write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_record(path, command: str, config: dict, **fields) -> None:
    """An artifact: ``fields`` plus the command, its resolved config and the
    format version."""
    _write_json(path, {"command": command, "config": config, "format_version": FORMAT_VERSION, **fields})


# the columns of `jam train`'s results.csv and `jam eval`'s result.csv
_RESULTS_HEADER = ["task", "objective", "seed", "recall_binary", "recall_5way", "n_queries"]


def _results_row(task, objective, seed, recall_binary, recall_5way, n_queries="") -> list:
    return [task, objective, seed, repr(recall_binary), repr(recall_5way), n_queries]


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_synth(config: dict) -> int:
    synth_cfg = _build(embed_io.SynthConfig, config)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ds, easy, latents = embed_io.synth_generate(synth_cfg)
    dtype = config["dtype"]
    files = {
        "images": ds.images,
        "positives": ds.positives,
        "negatives": ds.negatives,
        "easy": easy,
        "latents": latents,
    }
    names = {name: f"{name}.jemb" for name in files}
    for name, mat in files.items():
        embed_io.write_embeddings(out_dir / names[name], mat, dtype)
    _write_json(out_dir / "manifest.json", {**names, "n": synth_cfg.n})
    _write_record(out_dir / "run.json", "synth", config, seed=config["seed"])
    print(f"wrote {len(files)} embedding files + manifest to {out_dir}")
    return EXIT_OK


def cmd_metrics(config: dict) -> int:
    mcfg = _build(metrics.MetricConfig, config)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = embed_io.read_manifest(config["manifest"])
    ds = embed_io.load_paired_dataset(manifest)
    easy = None
    easy_path = config["easy"] if config["easy"] is not None else manifest.get("easy")
    if easy_path is not None and Path(easy_path).exists():
        easy = embed_io.read_embeddings(easy_path)
        if easy.shape[0] != ds.n:
            raise InvalidInput("easy-negatives row count differs from dataset")
    elif easy_path is not None:
        print(f"warning: easy negatives file missing ({easy_path}); column omitted")

    report = metrics.alignment_report(ds.images, ds.positives, easy, ds.negatives, mcfg, tolerant=True)
    for setting, cells in report.errors.items():
        for metric_name, message in cells.items():
            print(f"warning: {setting}/{metric_name} failed: {message}")
    _write_record(
        out_dir / "report.json", "metrics", config,
        metric_config=report.config, scores=report.scores, errors=report.errors,
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


def _train_config_from(config: dict, ds, seeds) -> trainer.TrainConfig:
    return _build(
        trainer.TrainConfig,
        config,
        ae_cfg_vision=_build(AutoencoderConfig, config, input_dim=ds.images.shape[1]),
        ae_cfg_language=_build(AutoencoderConfig, config, input_dim=ds.positives.shape[1]),
        seeds=tuple(seeds),
        loss_cfg=_build(LossConfig, config),
        sim_cfg=_build(SimilarityConfig, config),
    )


def cmd_train(config: dict) -> int:
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    full_ds = embed_io.load_paired_dataset(config["manifest"])
    cfg = _train_config_from(config, full_ds, config["seeds"])
    task = Path(config["manifest"]).stem
    results = []
    status = EXIT_OK
    for seed in config["seeds"]:
        try:
            model, history, result, _ = trainer.train_on_split(full_ds, cfg, seed)
        except NonFiniteLoss as exc:
            print(f"seed {seed}: aborted on non-finite loss", file=sys.stderr)
            _write_record(
                out_dir / f"history_{seed}.json", "train", config,
                seed=seed, partial=True, history=asdict(exc.history) if exc.history else None,
            )
            status = EXIT_NUMERIC
            continue
        trainer.save_jam(out_dir / f"checkpoint_{seed}.jckp", model, cfg, seed)
        _write_record(out_dir / f"history_{seed}.json", "train", config, seed=seed, history=asdict(history))
        _write_record(
            out_dir / f"result_{seed}.json", "train", config,
            task=task, objective=config["objective"], seed=seed, result=asdict(result),
        )
        results.append(result)
        print(
            f"seed {seed}: test recall_binary={result.recall_binary:.4f} "
            f"recall_5way={result.recall_5way:.4f} ({history.stop_reason})"
        )
    if results:
        agg = aggregate_seeds(results)
        _write_record(
            out_dir / "aggregate.json", "train", config, task=task, objective=config["objective"], aggregate=agg,
        )
        objective = config["objective"]
        rows = [_results_row(task, objective, r.seed, r.recall_binary, r.recall_5way, r.n_queries)
                for r in results]
        rows += [_results_row(task, objective, stat, agg["recall_binary"][stat], agg["recall_5way"][stat])
                 for stat in ("mean", "std")]
        _write_csv(out_dir / "results.csv", _RESULTS_HEADER, rows)
    return status


def cmd_eval(config: dict) -> int:
    split = config["split"]
    splits = ("train", "val", "test")  # in split_dataset's order
    if split not in splits + ("all",):
        raise ConfigError(f"split must be train|val|test|all, got {split!r}")
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    model, meta = trainer.load_jam(config["checkpoint"])
    full_ds = embed_io.load_paired_dataset(config["manifest"])
    seed = config["seed"] if config["seed"] is not None else int(meta["seed"])
    if split == "all":
        ds = full_ds
    else:
        ds = embed_io.split_dataset(full_ds, seed=int(meta["seed"]))[splits.index(split)]
    result = trainer.evaluate(model, ds, seed=seed)
    task = Path(config["manifest"]).stem
    objective = model.cfg.loss_cfg.objective
    _write_record(
        out_dir / "result.json", "eval", config,
        task=task, objective=objective, seed=seed, split=split, result=asdict(result),
    )
    _write_csv(out_dir / "result.csv", _RESULTS_HEADER,
               [_results_row(task, objective, seed, result.recall_binary, result.recall_5way, result.n_queries)])
    print(
        f"{split} recall_binary={result.recall_binary:.4f} recall_5way={result.recall_5way:.4f}"
    )
    return EXIT_OK


def cmd_sweep_alpha(config: dict) -> int:
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    full_ds = embed_io.load_paired_dataset(config["manifest"])
    seed = config["seed"]
    cfg = _train_config_from(config, full_ds, [seed])
    train_ds, val_ds, _ = embed_io.split_dataset(full_ds, seed=seed)
    report = trainer.sweep_alpha(train_ds, val_ds, cfg, config["alphas"], seed=seed)
    _write_record(out_dir / "sweep.json", "sweep-alpha", config, seed=seed, report=asdict(report))
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
        for key, spec in _COMMAND_KEYS[args.command].items():
            if spec.required and config[key] is None:
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
