"""Outside-in span tracer for the molscreen package.

The tracer wraps public functions of the modules under ``src/molscreen/``
from the outside: each wrapper is installed at every place the function is
bound (its defining module, re-exports and ``from x import f`` copies), so a
call is recorded whichever name the caller used.  Methods and classmethods
are replaced on their class.  Nothing inside the package changes, and
``uninstall`` puts every original back.

Each call becomes one span ``[name, start, end, parent, run]`` kept in memory;
``write_spans`` dumps them when the benchmark ends.  Backward time per op
comes from wrapping the closures that ops pass to the public ``Tape.record``:
the closure is tagged with the op whose forward span is open when it is
recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import Counter

# ops whose forward and backward time is reported per op
REPORTED_OPS = (
    "segment_sum",
    "segment_mean",
    "embedding_lookup",
    "matmul",
    "add",
    "relu",
    "dropout",
    "batch_norm",
)
# every differentiable op; the rest are traced so that backward self time
# excludes their closures too
ALL_OPS = REPORTED_OPS + ("scale", "mse_loss", "masked_sse", "concat_columns")

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._run = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # id(tape) -> ({id: input tensor}, {id of outputs}) for gradient coverage
        self._tape_io: dict[int, tuple[dict, set]] = {}

    # -- recording ------------------------------------------------------

    def begin(self, run: str) -> None:
        self._run = run
        self.active = True

    def end(self) -> None:
        self.active = False
        self._run = None
        self._stack.clear()
        self._tape_io.clear()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._run])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        """``fn`` recording a span while active; ``name`` may be a callable
        of ``(args, kwargs)``; ``after(args, kwargs, result)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _current_op(self) -> str:
        if self._stack:
            name = self.spans[self._stack[-1]][0]
            if name.startswith("engine.ops.") and name.endswith(".fwd"):
                return name[len("engine.ops.") : -len(".fwd")]
        return "other"

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name, after=None, only=None):
        """Wrap ``module.attr`` at every binding in the package, or only in
        the modules listed in ``only``."""
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(original, name, after)
        targets = only or [
            m for m in sys.modules if m == "molscreen" or m.startswith("molscreen.")
        ]
        for mod_name in targets:
            mod = sys.modules[mod_name]
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, cls, attr: str, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, name, after)))
        else:
            self._set(cls, attr, self.wrap(raw, name, after))

    def install(self) -> None:
        import molscreen  # noqa: F401  (loads every module before scanning)
        from molscreen.engine.tensor import Tape
        from molscreen.model import GraphBatch, ModelParams

        counts = self.counts

        def add_count(key, amount):
            def after(args, kwargs, result):
                counts[key] += amount(args, kwargs, result)

            return after

        def file_bytes(args, kwargs, result):
            return os.path.getsize(args[0])

        self.patch_function("molscreen.smiles", "parse_smiles", "smiles.parse")
        self.patch_function("molscreen.featurize", "featurize_smiles", "featurize")
        for attr in ("ingest_csv", "read_smiles_csv"):
            self.patch_function("molscreen.dataset_io", attr, "dataset_io.read")
        self.patch_function("molscreen.metrics", "rank_best_first", "metrics.rank")
        self.patch_method(
            GraphBatch,
            "from_graphs",
            "model.pack",
            add_count("model.pack_graphs", lambda a, k, r: len(a[1])),
        )
        self.patch_function(
            "molscreen.model",
            "gin_forward",
            lambda a, k: "model.forward_train" if k.get("train") else "model.forward_eval",
        )
        self.patch_function("molscreen.model", "predict_heads", "model.heads")
        self.patch_function("molscreen.model", "predict", "model.predict")
        for op in ALL_OPS:
            self.patch_function("molscreen.engine.ops", op, f"engine.ops.{op}.fwd")
        self.patch_function(
            "molscreen.engine.optim",
            "adam_step",
            "engine.adam",
            add_count("engine.adam_elements", lambda a, k, r: sum(p.data.size for p in a[0])),
        )
        self._patch_tape(Tape)
        self.patch_function("molscreen.train", "train", "train.train")
        self.patch_function(
            "molscreen.transfer",
            "train_with_split",
            lambda a, k: "transfer.phase1"
            if k.get("trainable_names") is not None
            else "transfer.phase2",
            only=["molscreen.transfer"],
        )
        self.patch_method(ModelParams, "backbone_hash", "transfer.backbone_hash")
        self.patch_function(
            "molscreen.checkpoint",
            "load_checkpoint",
            "checkpoint.load",
            add_count("checkpoint.bytes", file_bytes),
        )
        self.patch_function(
            "molscreen.checkpoint",
            "save_checkpoint",
            "checkpoint.save",
            add_count("checkpoint.bytes", file_bytes),
        )
        self.patch_function("molscreen.cli", "main", "cli.main", only=["molscreen.cli"])

    def _patch_tape(self, Tape) -> None:
        tracer = self
        record = Tape.__dict__["record"]

        def traced_record(tape, output, inputs, backward_fn):
            if tracer.active:
                name = f"engine.ops.{tracer._current_op()}.bwd"
                untimed = backward_fn

                def backward_fn(up):
                    index = tracer._open(name)
                    try:
                        return untimed(up)
                    finally:
                        tracer._close(index)

                seen, outputs = tracer._tape_io.setdefault(id(tape), ({}, set()))
                for tensor in inputs:
                    seen[id(tensor)] = tensor
                outputs.add(id(output))
            return record(tape, output, inputs, backward_fn)

        def count_gradients(args, kwargs, result):
            seen, outputs = tracer._tape_io.pop(id(args[0]), ({}, set()))
            tracer.counts["engine.grad_elements"] += sum(
                t.data.size
                for key, t in seen.items()
                if key not in outputs and t.requires_grad and t.grad is not None
            )

        self._set(Tape, "record", functools.wraps(record)(traced_record))
        self.patch_method(Tape, "backward", "engine.backward", count_gradients)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run}
                    )
                    + "\n"
                )


def percentile(sorted_values: list[float], level: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(level / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for any."""
    n = len(sorted_values)
    if n == 0:
        return 0.0, "none"
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= MIN_BEYOND:
            return percentile(sorted_values, level), f"p{level:g}"
    return sorted_values[-1], "max"


def span_stats(spans) -> dict[str, dict]:
    """Per-name total, self time, call count and sorted durations."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, run) in enumerate(spans):
        entry = stats.setdefault(
            name, {"total": 0.0, "self": 0.0, "calls": 0, "durations": []}
        )
        duration = end - start
        entry["total"] += duration
        entry["self"] += duration - covered[i]
        entry["calls"] += 1
        entry["durations"].append(duration)
    for entry in stats.values():
        entry["durations"].sort()
    return stats


# per-layer timings: metric name -> (span name, kind) where kind is "total"
# (inclusive time) or "self" (time not covered by child spans)
TIMINGS = {
    "smiles.parse_s": ("smiles.parse", "total"),
    "featurize.s": ("featurize", "total"),
    "dataset_io.read_s": ("dataset_io.read", "self"),
    "cli.self_s": ("cli.main", "self"),
    "metrics.rank_s": ("metrics.rank", "total"),
    "model.pack_s": ("model.pack", "total"),
    "model.forward_eval_s": ("model.forward_eval", "total"),
    "model.forward_train_s": ("model.forward_train", "total"),
    "model.heads_s": ("model.heads", "total"),
    "model.predict_s": ("model.predict", "total"),
    **{
        f"engine.ops.{op}.{d}_s": (f"engine.ops.{op}.{d}", "total")
        for op in REPORTED_OPS
        for d in ("fwd", "bwd")
    },
    "engine.backward_s": ("engine.backward", "total"),
    "engine.backward_accumulate_s": ("engine.backward", "self"),
    "engine.adam_s": ("engine.adam", "total"),
    "transfer.phase1_s": ("transfer.phase1", "total"),
    "transfer.phase2_s": ("transfer.phase2", "total"),
    "transfer.backbone_hash_s": ("transfer.backbone_hash", "total"),
    "checkpoint.load_s": ("checkpoint.load", "total"),
    "checkpoint.save_s": ("checkpoint.save", "total"),
}
# call counts per command: metric name -> span name
CALLS = {
    "smiles.parse.calls": "smiles.parse",
    "featurize.calls": "featurize",
    "dataset_io.read.calls": "dataset_io.read",
    "metrics.rank.calls": "metrics.rank",
    "model.pack_calls": "model.pack",
    "model.forward_eval.calls": "model.forward_eval",
    "model.forward_train.calls": "model.forward_train",
    "model.heads.calls": "model.heads",
    "model.predict.calls": "model.predict",
    **{
        f"engine.ops.{op}.calls": f"engine.ops.{op}.fwd"
        for op in REPORTED_OPS
    },
    "engine.backward.calls": "engine.backward",
    "engine.adam.calls": "engine.adam",
    "transfer.backbone_hash.calls": "transfer.backbone_hash",
    "checkpoint.load.calls": "checkpoint.load",
    "checkpoint.save.calls": "checkpoint.save",
}
# per-call median and tail, in ms, for the spans called often enough to matter
DISTRIBUTIONS = (
    "smiles.parse",
    "featurize",
    "model.pack",
    "model.forward_eval",
    "model.forward_train",
    "model.predict",
    "engine.backward",
    "engine.adam",
    "transfer.backbone_hash",
    "checkpoint.load",
    "engine.ops.segment_sum.fwd",
    "engine.ops.segment_sum.bwd",
    "engine.ops.embedding_lookup.fwd",
    "engine.ops.embedding_lookup.bwd",
    "engine.ops.matmul.fwd",
    "engine.ops.matmul.bwd",
)


def layer_metrics(tracer: Tracer, n_input: int, untraced_rate: float, traced_rate: float):
    """Per-layer metrics, per traced command, and a table of every span.

    ``n_input`` is the number of compounds in the command's input file; the
    two rates are the untraced and traced ``mol_per_s`` medians.
    """
    n = max(1, len({span[4] for span in tracer.spans}))
    stats = span_stats(tracer.spans)
    empty = {"total": 0.0, "self": 0.0, "calls": 0, "durations": []}

    def get(span):
        return stats.get(span, empty)

    metrics = {}
    for metric, (span, kind) in TIMINGS.items():
        metrics[metric] = {"value": get(span)[kind] / n, "unit": "s"}
    for metric, span in CALLS.items():
        metrics[metric] = {"value": get(span)["calls"] / n, "unit": "count"}
    for span in DISTRIBUTIONS:
        durations = get(span)["durations"]
        metrics[f"{span}.p50_ms"] = {
            "value": percentile(durations, 50.0) * 1e3 if durations else 0.0, "unit": "ms"}
        metrics[f"{span}.tail_ms"] = {"value": tail(durations)[0] * 1e3, "unit": "ms"}
    counts = tracer.counts
    pack_calls = get("model.pack")["calls"]
    metrics["featurize.calls_per_mol"] = {
        "value": get("featurize")["calls"] / (n * n_input), "unit": "calls/mol"}
    metrics["model.pack_graphs_per_call"] = {
        "value": counts["model.pack_graphs"] / pack_calls if pack_calls else 0.0,
        "unit": "graphs/call"}
    grads = counts["engine.grad_elements"]
    metrics["engine.trainable_frac"] = {
        "value": counts["engine.adam_elements"] / grads if grads else 0.0, "unit": "frac"}
    checkpoint_calls = get("checkpoint.load")["calls"] + get("checkpoint.save")["calls"]
    metrics["checkpoint.bytes"] = {
        "value": counts["checkpoint.bytes"] / checkpoint_calls if checkpoint_calls else 0.0,
        "unit": "B"}
    metrics["trace.spans"] = {"value": len(tracer.spans) / n, "unit": "count"}
    metrics["trace.mol_per_s_untraced"] = {"value": untraced_rate, "unit": "mol/s"}
    metrics["trace.mol_per_s_traced"] = {"value": traced_rate, "unit": "mol/s"}
    metrics["trace.overhead_frac"] = {"value": 1.0 - traced_rate / untraced_rate, "unit": "frac"}

    # every span, for reading; the metrics above are the stable names
    table = []
    for span, entry in sorted(stats.items(), key=lambda item: -item[1]["self"]):
        tail_s, level = tail(entry["durations"])
        table.append({"span": span, "calls": entry["calls"] / n, "total_s": entry["total"] / n,
                      "self_s": entry["self"] / n,
                      "p50_ms": percentile(entry["durations"], 50.0) * 1e3,
                      "tail": level, "tail_ms": tail_s * 1e3})
    return metrics, table
