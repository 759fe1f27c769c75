"""The four benchmark workloads: inputs from a seed, the timed command, and
the checks on its output.

Every workload calls the package through module attributes
(``cli.main``, ``transfer.transfer_train``, ...) so that the tracer's
wrappers see the calls.  Molecule sizes are spread evenly over each size
range instead of drawn at random, so the seed changes structures and labels
but not the number of atoms a run processes; with random sizes the
throughput of a 128-molecule input moves by several percent between seeds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

cli = importlib.import_module("molscreen.cli")
checkpoint = importlib.import_module("molscreen.checkpoint")
data = importlib.import_module("molscreen.data")
dataset_io = importlib.import_module("molscreen.dataset_io")
featurize = importlib.import_module("molscreen.featurize")
model = importlib.import_module("molscreen.model")
rng = importlib.import_module("molscreen.engine.rng")
synth = importlib.import_module("molscreen.synth")
train = importlib.import_module("molscreen.train")
transfer = importlib.import_module("molscreen.transfer")

SMALL_CONFIG = {"embed_dim": 32, "n_layers": 3, "head_hidden": 32}
DEFAULT_CONFIG = {"embed_dim": 256, "n_layers": 8, "head_hidden": 256}
TOP_FRAC = 0.02
CHECKED_SCORES = 16


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.startswith("{")]
    return json.loads(lines[-1]) if lines else {}


def _call_cli(argv: list[str]) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


def even_size_dataset(n_tasks: int, n: int, seed: int, lo: int = 4, hi: int = 14, rings=None):
    """``n`` compounds of a ``synth_dataset`` whose atom counts cycle through
    ``lo..hi``, each with exactly ``rings`` ring closures if given, kept in
    generation order."""
    pool, _ = synth.synth_dataset(n_tasks, 8 * n, seed, min_atoms=lo, max_atoms=hi)
    by_size: dict[int, list[int]] = {}
    for i, graph in enumerate(pool.graphs):
        if rings is None or graph.n_bonds - graph.n_atoms + 1 == rings:
            by_size.setdefault(graph.n_atoms, []).append(i)
    sizes = range(lo, hi + 1)
    picked = [by_size[sizes[j % len(sizes)]].pop(0) for j in range(n)]
    return pool.subset(sorted(picked))


def even_size_library(n: int, seed: int, lo: int, hi: int) -> list[str]:
    """``n`` distinct random molecules whose atom counts cycle through
    ``lo..hi``."""
    stream = rng.rng_stream(seed, 5)
    seen: set[str] = set()
    library = []
    for j in range(n):
        size = lo + j % (hi - lo + 1)
        smiles = synth.random_molecule(stream, size, size)
        while smiles in seen:
            smiles = synth.random_molecule(stream, size, size)
        seen.add(smiles)
        library.append(smiles)
    return library


def n_train_rows(ds, seed: int) -> int:
    """Compounds with at least one training label under the split the
    training loop will draw."""
    masks = data.split_train_val(ds, seed, 0.2)
    return int(masks.train.any(axis=1).sum())


@dataclass
class Inputs:
    """Files a setup wrote, plus the facts the checks and rates need."""

    directory: Path
    seed: int
    n_input: int  # compounds in the input file the command reads
    units: int  # compounds completed per command, the numerator of mol_per_s
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    output: Path  # the file whose sha256 is reported
    code: int = 0
    stdout: str = ""
    result: object = None


class TrainMtl:
    name = "train_mtl"
    compounds = 128
    epochs = 1

    def setup(self, directory: Path, seed: int) -> Inputs:
        ds = even_size_dataset(3, self.compounds, seed)
        dataset_io.write_dataset_csv(directory / "train.csv", ds)
        return Inputs(directory, seed, ds.n_compounds, 0, {"dataset": ds})

    def finish_setup(self, inputs: Inputs) -> None:
        inputs.units = n_train_rows(inputs.extra.pop("dataset"), inputs.seed) * self.epochs

    def run(self, inputs: Inputs, out: Path) -> Outcome:
        ckpt = out / "model.ckpt"
        code, stdout = _call_cli(
            [
                "train", "--mode", "mtl",
                "--data", str(inputs.directory / "train.csv"),
                "--out", str(ckpt),
                "--min-epochs", str(self.epochs),
                "--max-epochs", str(self.epochs),
                "--seed", str(inputs.seed),
            ]
        )
        return Outcome(ckpt, code, stdout)

    def check(self, inputs: Inputs, outcome: Outcome) -> list[str]:
        if outcome.code != 0:
            return [f"train exited {outcome.code}"]
        summary = _last_json_line(outcome.stdout)
        problems = []
        if summary.get("stop_reason") != "max_epochs":
            problems.append(f"stop_reason {summary.get('stop_reason')!r}")
        if summary.get("n_epochs") != self.epochs:
            problems.append(f"ran {summary.get('n_epochs')} epochs")
        if not math.isfinite(summary.get("best_val_loss", math.nan)):
            problems.append("non-finite validation loss")
        try:
            ck = checkpoint.load_checkpoint(outcome.output)
        except checkpoint.CheckpointError as exc:
            return problems + [f"checkpoint does not reload: {exc}"]
        if ck.log_summary != {k: v for k, v in summary.items() if k not in ("checkpoint", "tasks")}:
            problems.append("reloaded log summary differs from the printed one")
        return problems


class TransferFrozen:
    name = "transfer_frozen"
    compounds = 16
    head_epochs = 16
    finetune_epochs = 1

    def setup(self, directory: Path, seed: int) -> Inputs:
        # one size and ring count, so the work does not depend on which
        # compounds the split sends to validation
        ds = even_size_dataset(2, self.compounds, seed, 9, 9, rings=1).restrict_to_tasks([0])
        dataset_io.write_dataset_csv(directory / "target.csv", ds)
        params = model.init_params(["task0", "task1", "task2"], seed=seed, **DEFAULT_CONFIG)
        checkpoint.save_checkpoint(
            directory / "pretrained.ckpt", params, ["lower_is_better"] * 3, seed
        )
        return Inputs(directory, seed, ds.n_compounds, 0, {"dataset": ds})

    def finish_setup(self, inputs: Inputs) -> None:
        rows = n_train_rows(inputs.extra.pop("dataset"), inputs.seed)
        inputs.units = rows * (self.head_epochs + self.finetune_epochs)
        pretrained = checkpoint.load_checkpoint(inputs.directory / "pretrained.ckpt")
        inputs.extra["backbone_hash"] = pretrained.params.backbone_hash()

    def run(self, inputs: Inputs, out: Path) -> Outcome:
        ds, _ = dataset_io.ingest_csv(inputs.directory / "target.csv")
        pretrained = checkpoint.load_checkpoint(inputs.directory / "pretrained.ckpt")
        config = train.TrainConfig(
            min_epochs=self.finetune_epochs,
            max_epochs=self.finetune_epochs,
            seed=inputs.seed,
        )
        result = transfer.transfer_train(
            pretrained.params, ds, config, head_epochs=self.head_epochs
        )
        ckpt = out / "transferred.ckpt"
        checkpoint.save_checkpoint(
            ckpt, result.params, ds.hit_directions, inputs.seed,
            train.summarize_log(result.phase2_log),
        )
        return Outcome(ckpt, result=result)

    def check(self, inputs: Inputs, outcome: Outcome) -> list[str]:
        result = outcome.result
        problems = []
        hashes = result.phase1_backbone_hashes
        if len(hashes) != self.head_epochs:
            problems.append(f"{len(hashes)} phase-1 hashes for {self.head_epochs} epochs")
        if any(h != inputs.extra["backbone_hash"] for h in hashes):
            problems.append("backbone changed during phase 1")
        if result.phase2_log.stop_reason != "max_epochs":
            problems.append(f"phase 2 stop_reason {result.phase2_log.stop_reason!r}")
        epochs = result.phase1_log.epochs + result.phase2_log.epochs
        if len(epochs) != self.head_epochs + self.finetune_epochs:
            problems.append(f"ran {len(epochs)} epochs")
        if not all(math.isfinite(e.train_loss) and math.isfinite(e.val_loss) for e in epochs):
            problems.append("non-finite loss")
        return problems


class Screen:
    """``molscreen screen`` over a synthetic library with an untrained
    checkpoint of the given size."""

    def __init__(self, name: str, config: dict, library: int, lo: int, hi: int):
        self.name = name
        self.config = config
        self.library = library
        self.lo, self.hi = lo, hi

    def setup(self, directory: Path, seed: int) -> Inputs:
        library = even_size_library(self.library, seed, self.lo, self.hi)
        (directory / "library.csv").write_text("smiles\n" + "\n".join(library) + "\n")
        params = model.init_params(["score"], seed=seed, **self.config)
        checkpoint.save_checkpoint(directory / "model.ckpt", params, ["lower_is_better"], seed)
        return Inputs(directory, seed, len(library), len(library), {"library": library})

    def finish_setup(self, inputs: Inputs) -> None:
        ck = checkpoint.load_checkpoint(inputs.directory / "model.ckpt")
        library = inputs.extra["library"]
        sample = np.sort(
            rng.rng_stream(inputs.seed, 6).choice(len(library), CHECKED_SCORES, replace=False)
        )
        batch = model.GraphBatch.from_graphs(
            [featurize.featurize_smiles(library[i]) for i in sample]
        )
        scores = model.predict(batch, ck.params, [0])[:, 0]
        inputs.extra["expected"] = {library[i]: float(s) for i, s in zip(sample, scores)}

    def run(self, inputs: Inputs, out: Path) -> Outcome:
        ranked = out / "ranked.csv"
        code, stdout = _call_cli(
            [
                "screen",
                "--checkpoint", str(inputs.directory / "model.ckpt"),
                "--library", str(inputs.directory / "library.csv"),
                "--top-frac", repr(TOP_FRAC),
                "--out", str(ranked),
            ]
        )
        return Outcome(ranked, code, stdout)

    def check(self, inputs: Inputs, outcome: Outcome) -> list[str]:
        if outcome.code != 0:
            return [f"screen exited {outcome.code}"]
        with open(outcome.output, newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != ["smiles", "predicted_score", "rank", "is_predicted_hit"]:
            return [f"unexpected header {rows[0]}"]
        rows = rows[1:]
        library = inputs.extra["library"]
        n_hits = math.ceil(TOP_FRAC * len(library))
        problems = []
        if sorted(r[0] for r in rows) != sorted(library):
            problems.append("ranked compounds differ from the library")
        scores = [float(r[1]) for r in rows]
        if any(a > b for a, b in zip(scores, scores[1:])):
            problems.append("scores not ordered best-first")
        if [r[2] for r in rows] != [str(i) for i in range(1, len(rows) + 1)]:
            problems.append("ranks are not 1..N")
        flags = [r[3] == "true" for r in rows]
        if flags != [i < n_hits for i in range(len(rows))]:
            problems.append(f"hit flags do not mark the top {n_hits}")
        if _last_json_line(outcome.stdout).get("predicted_hits") != n_hits:
            problems.append("reported hit count differs from ceil(top_frac * N)")
        written = {r[0]: float(r[1]) for r in rows}
        for smiles, score in inputs.extra["expected"].items():
            if written.get(smiles) != score:
                problems.append(f"score of {smiles} differs from model.predict")
                break
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        TrainMtl(),
        TransferFrozen(),
        Screen("screen_default", DEFAULT_CONFIG, 128, 15, 40),
        Screen("screen_small", SMALL_CONFIG, 2000, 4, 14),
    )
}

# spans each workload must record in every traced command; a missing one
# means a wrapper sits in the wrong namespace
ENGINE_FORWARD = [
    f"engine.ops.{op}.fwd"
    for op in ("segment_sum", "segment_mean", "embedding_lookup", "matmul", "add", "relu", "batch_norm")
]
ENGINE_TRAIN = (
    [f"engine.ops.{op}.bwd" for op in ("segment_sum", "segment_mean", "embedding_lookup",
                                       "matmul", "add", "relu", "dropout", "batch_norm")]
    + ["engine.ops.dropout.fwd", "engine.backward", "engine.adam",
       "model.forward_train", "model.forward_eval", "model.heads", "model.pack"]
)
EXPECTED_SPANS = {
    "train_mtl": ENGINE_FORWARD + ENGINE_TRAIN + [
        "cli.main", "dataset_io.read", "featurize", "smiles.parse",
        "train.train", "checkpoint.save",
    ],
    "transfer_frozen": ENGINE_FORWARD + ENGINE_TRAIN + [
        "dataset_io.read", "featurize", "smiles.parse", "checkpoint.load",
        "checkpoint.save", "transfer.phase1", "transfer.phase2",
        "transfer.backbone_hash",
    ],
    "screen_default": ENGINE_FORWARD + [
        "cli.main", "dataset_io.read", "featurize", "smiles.parse", "checkpoint.load",
        "model.pack", "model.predict", "model.forward_eval", "model.heads", "metrics.rank",
    ],
}
EXPECTED_SPANS["screen_small"] = EXPECTED_SPANS["screen_default"]
