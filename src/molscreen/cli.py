"""Command-line surface for the screening pipeline.

Subcommands: ``ingest``, ``train``, ``active-learn``, ``transfer``,
``predict``, ``screen``, ``eval``, ``export-embeddings``, ``synth-gen``.

Configuration precedence is flags > JSON config file > defaults (the
defaults being :class:`molscreen.train.TrainConfig`, with ``transfer``
taking the pretrained checkpoint's encoder dimensions).  Every subcommand
that consumes or stores randomness prints the effective seed.

Each ``cmd_*`` returns its summary, and :func:`main` prints it as the last
line on stdout.  Failures, usage errors included, print no summary: they
exit nonzero with a single JSON error line on stderr.  Commands let library
exceptions propagate, and :data:`_FAILURES` maps each to a row of
``(exception type, category, exit code)``: 2 bad configuration (or out of
memory), 3 input/output, 4 feature-schema mismatch, 5 training failure.
Only the loaders catch, to add a path, key or task name.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from .active import ACQUISITIONS, ALConfig, al_run
from .atomic import atomic_write, check_writable
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    ForeignSchemaError,
    load_checkpoint,
    save_checkpoint,
)
from .data import HIT_DIRECTIONS, DatasetError, TaskDataset, _repeated, subsample_task_labels
from .dataset_io import (
    IngestError,
    IngestReport,
    ingest_csv,
    read_smiles_csv,
    write_csv,
    write_dataset_csv,
)
from .metrics import (
    MetricError,
    concordance_index,
    mse,
    pearson,
    rank_best_first,
    recall_at,
)
from .model import encode_graphs, predict_graphs
from .synth import SynthMeta, synth_dataset, task_oracle
from .train import TrainConfig, TrainingDiverged, summarize_log, train
from .transfer import transfer_train


class ConfigError(Exception):
    """An invalid flag, configuration value or task name (exit 2)."""


class InputError(Exception):
    """An unreadable or invalid input, or an unwritable output (exit 3)."""


# ----------------------------------------------------------------------
# configuration resolution
# ----------------------------------------------------------------------
_CONFIG_TYPES: dict[str, type] = typing.get_type_hints(TrainConfig)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "training configuration", "flags override --config entries, which override defaults"
    )
    group.add_argument("--config", metavar="JSON", help="JSON file of configuration keys")
    for name, typ in _CONFIG_TYPES.items():
        group.add_argument(
            "--" + name.replace("_", "-"),
            type=typ,
            default=None,
            help=f"override {name} (default {getattr(TrainConfig(), name)})",
        )


def _read_json(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return raw


def _config_value(key: str, value):
    """A ``--config`` entry as its field's type.  A JSON boolean, or a
    fraction for an integer key, is rejected rather than truncated."""
    typ = _CONFIG_TYPES[key]
    fractional = isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or (typ is int and fractional):
        raise ConfigError(
            f"configuration key {key!r}: expected {typ.__name__}, got {value!r}"
        )
    try:
        return typ(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"configuration key {key!r}: {exc}") from exc


def resolve_train_config(args, **base) -> TrainConfig:
    """Merge, in rising precedence, the defaults, the command's ``base``
    values, config-file entries and explicit flags."""
    merged = dataclasses.asdict(TrainConfig()) | base
    if getattr(args, "config", None):
        raw = _read_json(args.config)
        unknown = sorted(set(raw) - set(merged))
        if unknown:
            raise ConfigError(
                f"unknown configuration keys {unknown}; valid keys: {sorted(merged)}"
            )
        for key, value in raw.items():
            merged[key] = _config_value(key, value)
    for name in _CONFIG_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    return TrainConfig(**merged)


# ----------------------------------------------------------------------
# shared I/O helpers
# ----------------------------------------------------------------------
def _ingest(path) -> tuple[TaskDataset, IngestReport]:
    """``ingest_csv``, where a dataset check failing on what the file holds
    is an input failure (exit 3), not a configuration one."""
    try:
        return ingest_csv(path)
    except DatasetError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_dataset(path) -> TaskDataset:
    ds, report = _ingest(path)
    if report.n_rejected:
        _print_report(path, report)
    return ds


def _load_smiles(path, *, strict: bool) -> tuple[list[str], list]:
    """The smiles column of a CSV and its featurized graphs; with ``strict``
    any bad row is fatal."""
    smiles, graphs, report = read_smiles_csv(path)
    if report.n_rejected:
        if strict:
            worst = "; ".join(f"row {r}: {m}" for r, m in report.rejected[:5])
            raise InputError(
                f"{path}: {report.n_rejected} unusable rows ({worst})"
            )
        _print_report(path, report)
    if not smiles:
        raise InputError(f"{path}: no usable compounds")
    return smiles, graphs


def _print_report(path, report) -> None:
    print(
        json.dumps(
            {
                "file": str(path),
                "rows": report.n_rows,
                "accepted": report.n_accepted,
                "rejected": [
                    {"row": row, "error": message} for row, message in report.rejected
                ],
            }
        )
    )


def _load_ckpt(path) -> Checkpoint:
    """``load_checkpoint``, naming the file in an input failure.  A
    ``ForeignSchemaError`` names it already and goes to ``main`` as is."""
    try:
        return load_checkpoint(path)
    except ForeignSchemaError:
        raise
    except (OSError, CheckpointError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _scored_tasks(ck: Checkpoint, path) -> list[str]:
    """The checkpoint's task names; a model with no task heads can export
    embeddings or seed a transfer, but has nothing to score."""
    if not ck.params.task_names:
        raise ConfigError(f"{path}: checkpoint has no task heads to score")
    return ck.params.task_names


def _load_meta(path) -> SynthMeta:
    try:
        return SynthMeta.from_json(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError included
        raise InputError(f"{path}: not a benchmark metadata file ({exc})") from exc


def _task_index(name: str, tasks: list[str], where: str) -> int:
    if name not in tasks:
        raise ConfigError(f"task {name!r} not in {where} tasks {tasks}")
    return tasks.index(name)


def _write_matrix(path, smiles: list[str], columns: list[str], matrix) -> None:
    rows = ([s] + [repr(float(v)) for v in row] for s, row in zip(smiles, matrix))
    write_csv(path, ["smiles"] + columns, rows)


def _print_seed(seed: int) -> None:
    print(f"seed={seed}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_ingest(args) -> dict:
    ds, report = _ingest(args.input)
    write_dataset_csv(args.out, ds)
    _print_report(args.input, report)
    return {
        "out": str(args.out),
        "compounds": ds.n_compounds,
        "tasks": ds.task_names,
        "hit_directions": ds.hit_directions,
    }


def _apply_train_mode(ds: TaskDataset, args, seed: int) -> TaskDataset:
    """Select task columns and apply label caps.

    ``--target`` names the task of interest in both modes: the one task
    ``--mode single`` trains (by default the dataset's only task), and the
    task that ``--new-size`` caps.  ``--aux-size`` caps every other task, so
    it needs ``--mode mtl``.  Caps are drawn per ORIGINAL task column (stream
    ``(seed, 4, column)``), so single-task and multi-task runs on the same
    file keep the identical label subset for the target — the two modes
    differ only in the auxiliary columns.
    """
    if args.aux_size is not None and args.mode != "mtl":
        raise ConfigError("--aux-size caps auxiliary tasks, which only --mode mtl trains")
    if args.target is not None:
        target = _task_index(args.target, ds.task_names, "dataset")
    elif args.mode == "single":
        if ds.n_tasks != 1:
            raise ConfigError(
                "--mode single needs --target when the dataset has several tasks"
            )
        target = 0
    elif args.new_size is not None or args.aux_size is not None:
        raise ConfigError("--new-size/--aux-size require --target")
    limits: dict[int, int] = {}
    if args.new_size is not None:
        limits[target] = args.new_size
    if args.aux_size is not None:
        limits.update((t, args.aux_size) for t in range(ds.n_tasks) if t != target)
    if limits:
        ds = subsample_task_labels(ds, limits, seed)
    if args.mode == "single" and ds.n_tasks > 1:
        ds = ds.restrict_to_tasks([target])
    return ds


def cmd_train(args) -> dict:
    config = resolve_train_config(args)
    check_writable(args.out)
    _print_seed(config.seed)
    ds = _load_dataset(args.data)
    ds = _apply_train_mode(ds, args, config.seed)
    params, log = train(ds, config)
    save_checkpoint(args.out, params, ds.hit_directions, config.seed, summarize_log(log))
    return {"checkpoint": str(args.out), "tasks": ds.task_names, **summarize_log(log)}


def cmd_predict(args) -> dict:
    ck = _load_ckpt(args.checkpoint)
    _print_seed(ck.seed)
    tasks = _scored_tasks(ck, args.checkpoint)
    try:  # one CSV record: a name holding a comma is quoted as in the output header
        names = next(csv.reader([args.tasks or ""], skipinitialspace=True, strict=True))
    except csv.Error as exc:  # a line break outside quotes, or a stray quote
        raise ConfigError(f"--tasks is not one CSV record: {exc}") from exc
    names = [name.strip() for name in names] or list(tasks)
    repeated = sorted(_repeated(names))
    if repeated:  # the output header would repeat them, which ingest refuses
        raise ConfigError(f"--tasks names a task more than once: {repeated}")
    indices = [_task_index(name, tasks, "checkpoint") for name in names]
    smiles, graphs = _load_smiles(args.input, strict=True)
    _write_matrix(args.out, smiles, names, predict_graphs(graphs, ck.params, indices))
    return {"out": str(args.out), "compounds": len(smiles), "tasks": names}


def cmd_screen(args) -> dict:
    ck = _load_ckpt(args.checkpoint)
    _print_seed(ck.seed)
    if not 0.0 < args.top_frac < 1.0:
        raise ConfigError("--top-frac must be in (0, 1)")
    tasks = _scored_tasks(ck, args.checkpoint)
    name = args.task or tasks[0]
    index = _task_index(name, tasks, "checkpoint")
    direction = ck.hit_directions[index]
    smiles, graphs = _load_smiles(args.library, strict=True)
    scores = predict_graphs(graphs, ck.params, [index])[:, 0]
    order = rank_best_first(scores, direction)
    n_hits = math.ceil(args.top_frac * len(smiles))
    ranked = zip(order.tolist(), scores[order].tolist())
    rows = (
        [smiles[i], repr(score), str(rank), "true" if rank <= n_hits else "false"]
        for rank, (i, score) in enumerate(ranked, start=1)
    )
    write_csv(args.out, ["smiles", "predicted_score", "rank", "is_predicted_hit"], rows)
    return {
        "out": str(args.out),
        "task": name,
        "hit_direction": direction,
        "compounds": len(smiles),
        "predicted_hits": n_hits,
    }


def cmd_eval(args) -> dict:
    ck = _load_ckpt(args.checkpoint)
    _print_seed(ck.seed)
    ks = args.k or []
    fracs = args.top_frac or []
    if bool(ks) != bool(fracs):
        raise ConfigError("recall grid needs at least one --k and one --top-frac")
    ds = _load_dataset(args.data)
    shared = [name for name in ds.task_names if name in ck.params.task_names]
    if not shared:
        raise ConfigError(
            f"no dataset task {ds.task_names} matches a checkpoint task "
            f"{ck.params.task_names}"
        )
    columns = [ds.task_names.index(name) for name in shared]
    indices = [ck.params.task_names.index(name) for name in shared]
    # one pass over every compound labeled in a shared task, scored for all
    labeled = ds.label_mask[:, columns]
    rows = np.flatnonzero(labeled.any(axis=1))
    scores = predict_graphs([ds.graphs[i] for i in rows], ck.params, indices)
    table = []
    for j, (name, column, index) in enumerate(zip(shared, columns, indices)):
        mine = labeled[rows, j]
        if not mine.any():
            raise ConfigError(f"task {name!r} has no labels in {args.data}")
        truth = ds.labels[rows[mine], column]
        preds = scores[mine, j]
        try:
            table.append(["mse", name, repr(mse(truth, preds))])
            table.append(["pearson", name, repr(pearson(truth, preds))])
            table.append(["concordance_index", name, repr(concordance_index(truth, preds))])
            for k in ks:
                for frac in fracs:
                    value = recall_at(truth, preds, ck.hit_directions[index], k, frac)
                    table.append([f"recall@k={k};p={frac}", name, repr(value)])
        except MetricError as exc:
            raise ConfigError(f"task {name!r}: {exc}") from exc
    write_csv(args.out, ["metric", "task", "value"], table)
    return {"out": str(args.out), "tasks": shared}


def cmd_export_embeddings(args) -> dict:
    ck = _load_ckpt(args.checkpoint)
    _print_seed(ck.seed)
    smiles, graphs = _load_smiles(args.input, strict=True)
    matrix = encode_graphs(graphs, ck.params)
    dim = matrix.shape[1]
    _write_matrix(args.out, smiles, [f"e{j}" for j in range(dim)], matrix)
    return {"out": str(args.out), "compounds": len(smiles), "dim": dim}


def cmd_transfer(args) -> dict:
    ck = _load_ckpt(args.pretrained)
    # Encoder dimensions are fixed by the pretrained model; adopt them unless
    # the user pinned conflicting values (which transfer_train rejects).
    config = resolve_train_config(
        args,
        embed_dim=ck.params.embed_dim,
        n_layers=ck.params.n_layers,
        head_hidden=ck.params.head_hidden,
    )
    check_writable(args.out)
    _print_seed(config.seed)
    ds = _load_dataset(args.data)
    if args.target is not None:
        column = _task_index(args.target, ds.task_names, "dataset")
    elif ds.n_tasks > 1:
        raise ConfigError("--target is required when the dataset has several tasks")
    if ds.n_tasks > 1:
        ds = ds.restrict_to_tasks([column])
    result = transfer_train(ck.params, ds, config, head_epochs=args.head_epochs)
    save_checkpoint(
        args.out, result.params, ds.hit_directions, config.seed,
        summarize_log(result.phase2_log),
    )
    return {
        "checkpoint": str(args.out),
        "task": ds.task_names[0],
        "warmup": summarize_log(result.phase1_log) if result.phase1_log.epochs else None,
        "finetune": summarize_log(result.phase2_log),
    }


def cmd_active_learn(args) -> dict:
    config = resolve_train_config(args)
    _print_seed(config.seed)
    al_config = ALConfig(
        total_budget=args.budget,
        ensemble_size=args.ensemble_size,
        n_rounds=args.rounds,
        init_fraction=args.init_fraction,
        acquisition=args.acquisition,
        ucb_beta=args.ucb_beta,
    )
    check_writable(args.log_out, args.acquired_out, args.out)
    meta = _load_meta(args.meta)
    if not 0 <= args.oracle_task < meta.n_tasks:
        raise ConfigError(
            f"--oracle-task {args.oracle_task} out of range for {meta.n_tasks} tasks"
        )
    oracle = task_oracle(meta, args.oracle_task)
    pool, graphs = _load_smiles(args.pool, strict=False)
    result = al_run(
        pool,
        oracle,
        al_config,
        config,
        hit_direction=args.hit_direction,
        task_name=args.task_name,
        graphs=graphs,
    )
    header = ["round", "labeled_count", "pool_size", "mean_acquisition_score"]
    rows = (
        [str(r.round), str(r.labeled_count), str(r.pool_size),
         "" if math.isnan(r.mean_acquisition_score) else repr(r.mean_acquisition_score)]
        for r in result.log
    )
    write_csv(args.log_out, header, rows)
    if args.acquired_out:
        write_dataset_csv(args.acquired_out, result.labeled_dataset)
    if args.out:
        save_checkpoint(
            args.out, result.members[0], [args.hit_direction], config.seed, None
        )
    return {
        "log": str(args.log_out),
        "labeled": len(result.labeled_indices),
        "rounds": len(result.log) - 1,
        "acquisition": al_config.acquisition,
    }


def cmd_synth_gen(args) -> dict:
    check_writable(args.out, args.meta_out)
    _print_seed(args.seed)
    ds, meta = synth_dataset(
        n_tasks=args.n_tasks,
        n_per_task=args.n_per_task,
        seed=args.seed,
        noise_sigma=args.noise_sigma,
        min_atoms=args.min_atoms,
        max_atoms=args.max_atoms,
    )
    write_dataset_csv(args.out, ds)
    with atomic_write(args.meta_out) as handle:
        handle.write(meta.to_json())
    return {
        "out": str(args.out),
        "meta": str(args.meta_out),
        "compounds": ds.n_compounds,
        "tasks": ds.task_names,
    }


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
# The library states each default a flag shares with it; read once, at import
# (a dataclass's signature holds its fields' defaults).
_AL_CONFIG, _AL_RUN, _TRANSFER, _SYNTH = (
    {name: p.default for name, p in inspect.signature(fn).parameters.items()}
    for fn in (ALConfig, al_run, transfer_train, synth_dataset)
)


class _Parser(argparse.ArgumentParser):
    """Usage errors (unknown subcommand, bad flag value, missing flag) are
    ``bad-config`` failures like any other; ``--help`` still exits 0."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="molscreen",
        description="Train and apply graph-network surrogates for compound screening.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a raw CSV and write the cleaned dataset")
    p.add_argument("--input", required=True, help="raw dataset CSV")
    p.add_argument("--out", required=True, help="cleaned dataset CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a surrogate on a labeled dataset")
    p.add_argument("--data", required=True, help="labeled dataset CSV")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--mode", choices=["single", "mtl"], default="single")
    p.add_argument("--target", help="task of interest (the task --mode single trains)")
    p.add_argument("--new-size", type=int, help="cap on labels for --target")
    p.add_argument("--aux-size", type=int, help="cap on labels per other task (--mode mtl)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("active-learn", help="ensemble acquisition loop on a compound pool")
    p.add_argument("--pool", required=True, help="pool CSV with a smiles column")
    p.add_argument("--meta", required=True, help="benchmark metadata JSON (the labeler)")
    p.add_argument("--oracle-task", type=int, default=0, help="metadata task used as labeler")
    p.add_argument("--budget", type=int, required=True, help="total labels to spend")
    p.add_argument("--rounds", type=int, default=_AL_CONFIG["n_rounds"])
    p.add_argument("--ensemble-size", type=int, default=_AL_CONFIG["ensemble_size"])
    p.add_argument("--init-fraction", type=float, default=_AL_CONFIG["init_fraction"])
    p.add_argument("--acquisition", choices=list(ACQUISITIONS), default=_AL_CONFIG["acquisition"])
    p.add_argument("--ucb-beta", type=float, default=_AL_CONFIG["ucb_beta"])
    p.add_argument(
        "--hit-direction", choices=list(HIT_DIRECTIONS), default=_AL_RUN["hit_direction"]
    )
    p.add_argument("--task-name", default=_AL_RUN["task_name"], help="task name for outputs")
    p.add_argument("--log-out", required=True, help="per-round log CSV")
    p.add_argument("--acquired-out", help="labeled-set CSV (acquisition order)")
    p.add_argument("--out", help="checkpoint of final-ensemble member 0 only")
    _add_config_flags(p)
    p.set_defaults(func=cmd_active_learn)

    p = sub.add_parser("transfer", help="warm-start a new target from a pretrained encoder")
    p.add_argument("--pretrained", required=True, help="checkpoint to start from")
    p.add_argument("--data", required=True, help="new-target dataset CSV")
    p.add_argument("--target", help="task column (required when the dataset has several)")
    p.add_argument(
        "--head-epochs",
        type=int,
        default=_TRANSFER["head_epochs"],
        help="frozen-encoder warmup epochs",
    )
    p.add_argument("--out", required=True, help="checkpoint file to write")
    _add_config_flags(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("predict", help="predict scores for a list of compounds")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="CSV with a smiles column")
    p.add_argument("--tasks", help="comma-separated task names, CSV-quoted (default: all)")
    p.add_argument("--out", required=True, help="predictions CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("screen", help="rank a compound library by predicted score")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--library", required=True, help="CSV with a smiles column")
    p.add_argument("--task", help="task to screen on (default: first in checkpoint)")
    p.add_argument("--top-frac", type=float, default=0.02, help="fraction flagged as hits")
    p.add_argument("--out", required=True, help="ranked CSV")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("eval", help="metrics of a checkpoint against labeled data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="labeled dataset CSV")
    p.add_argument("--k", type=int, action="append", help="true-hit count (repeatable)")
    p.add_argument(
        "--top-frac", type=float, action="append", help="predicted-hit fraction (repeatable)"
    )
    p.add_argument("--out", required=True, help="metrics CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-embeddings", help="write encoder embeddings for compounds")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="CSV with a smiles column")
    p.add_argument("--out", required=True, help="embeddings CSV")
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("synth-gen", help="generate a synthetic benchmark dataset")
    p.add_argument("--n-tasks", type=int, required=True)
    p.add_argument("--n-per-task", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=_SYNTH["noise_sigma"])
    p.add_argument("--min-atoms", type=int, default=_SYNTH["min_atoms"])
    p.add_argument("--max-atoms", type=int, default=_SYNTH["max_atoms"])
    p.add_argument("--out", required=True, help="dataset CSV")
    p.add_argument("--meta-out", required=True, help="ground-truth metadata JSON")
    p.set_defaults(func=cmd_synth_gen)

    return parser


# The exit-code policy of every subcommand: the first row whose type matches
# wins, so IngestError (a ValueError) is an input failure.  ValueError also
# covers DatasetError, TransferError, MetricError and the config checks.
_FAILURES = (
    (ConfigError, "bad-config", 2),
    (InputError, "io-failure", 3),
    (TrainingDiverged, "training-failure", 5),
    (OSError, "io-failure", 3),
    (IngestError, "io-failure", 3),
    (ForeignSchemaError, "schema-mismatch", 4),
    (CheckpointError, "io-failure", 3),
    (ValueError, "bad-config", 2),
    (MemoryError, "bad-config", 2),  # a flag asked for more memory than there is
)
_CAUGHT = tuple(kind for kind, _, _ in _FAILURES)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # An overflow or NaN surfaces as a typed failure where it matters (the
        # loss, the gradients, the metric inputs), not as a NumPy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            summary = args.func(args)
    except _CAUGHT as exc:
        category, code = next((c, k) for kind, c, k in _FAILURES if isinstance(exc, kind))
        prefix = "out of memory: " if isinstance(exc, MemoryError) else ""
        error = {"error": category, "exit_code": code, "message": prefix + str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return code
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
