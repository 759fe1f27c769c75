#!/usr/bin/env python3
"""Statements of ``src/molscreen/`` that no benchmark workload or README
example executes.

    PYTHONPATH=src python3 scripts/traffic_lines.py

Run it from the root of a checkout.  Under ``sys.settrace`` it runs:

* each ``perfbench`` workload once: set-up, one command and its checks, at
  seed 7;
* the README quickstart commands, in process through ``cli.main``, on a
  small synthetic set with a few epochs;
* the README library snippet, at small sizes.

It then prints ``path:line: source`` for every statement of the package
that none of these executed, and their count last.  A statement listed here
is reached only by tests, if at all: check this list before deleting code
as unused.  Input checks are listed too, since nothing here feeds bad
input.  Every file it writes goes to a temporary directory; nothing is
written under ``perfbench/``.  It exits 1 if a workload check fails.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads
os.environ["OMP_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/

import ast  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "molscreen"
SEED = 7


def statement_lines(path: Path) -> dict[int, tuple[int, ...]]:
    """``{first line: lines any of which runs it}`` for every statement
    that compiles to code: a simple statement's lines, or a compound
    statement's header (decorators included).  Docstrings, ``global`` and
    ``nonlocal`` compile to nothing, and a ``try`` is only its parts."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(
            node, (ast.Try, ast.Global, ast.Nonlocal)
        ):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        found[node.lineno] = tuple(range(start, max(end, node.lineno) + 1))
    return found


def trace_into(executed: dict[str, set[int]]):
    """A ``sys.settrace`` function recording each line of the package run."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    return global_trace


def run_workloads(work: Path) -> list[str]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    problems = []
    for name, workload in workloads.WORKLOADS.items():
        directory, out = work / name / "setup", work / name / "out"
        directory.mkdir(parents=True)
        out.mkdir()
        inputs = workload.setup(directory, SEED)
        workload.finish_setup(inputs)
        outcome = workload.run(inputs, out)
        problems += [f"{name}: {p}" for p in workload.check(inputs, outcome)]
    return problems


def run_quickstart(work: Path) -> list[str]:
    from molscreen import cli, synth_dataset, write_dataset_csv

    def f(name: str) -> str:
        return str(work / name)

    new_target, _ = synth_dataset(n_tasks=2, n_per_task=30, seed=SEED + 1)
    write_dataset_csv(f("new_target.csv"), new_target.restrict_to_tasks([0]))

    tiny = ["--embed-dim", "32", "--n-layers", "3", "--seed", str(SEED),
            "--min-epochs", "1", "--max-epochs", "2"]
    commands = [
        ["synth-gen", "--n-tasks", "3", "--n-per-task", "40", "--seed", str(SEED),
         "--out", f("bench.csv"), "--meta-out", f("bench_meta.json")],
        ["train", "--data", f("bench.csv"), "--out", f("model.ckpt"), "--mode", "mtl", *tiny],
        ["predict", "--checkpoint", f("model.ckpt"), "--input", f("bench.csv"),
         "--tasks", "task0", "--out", f("predictions.csv")],
        ["screen", "--checkpoint", f("model.ckpt"), "--library", f("bench.csv"),
         "--task", "task0", "--top-frac", "0.02", "--out", f("ranked.csv")],
        ["eval", "--checkpoint", f("model.ckpt"), "--data", f("bench.csv"),
         "--k", "20", "--top-frac", "0.1", "--out", f("metrics.csv")],
        ["export-embeddings", "--checkpoint", f("model.ckpt"), "--input", f("bench.csv"),
         "--out", f("embeddings.csv")],
        ["transfer", "--pretrained", f("model.ckpt"), "--data", f("new_target.csv"),
         "--head-epochs", "2", "--out", f("transferred.ckpt"),
         "--min-epochs", "1", "--max-epochs", "2"],
        ["active-learn", "--pool", f("bench.csv"), "--meta", f("bench_meta.json"),
         "--budget", "32", "--rounds", "2", "--ensemble-size", "2",
         "--acquisition", "greedy_mean", "--log-out", f("al_log.csv"),
         "--acquired-out", f("acquired.csv"), "--out", f("al.ckpt"), *tiny],
        ["ingest", "--input", f("bench.csv"), "--out", f("clean.csv")],
    ]
    problems = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            problems.append(f"molscreen {argv[0]} exited {code}")
    return problems


def run_library() -> None:
    from molscreen import TrainConfig, encode_graphs, predict_graphs, synth_dataset, train

    ds, _ = synth_dataset(n_tasks=2, n_per_task=40, seed=0)
    params, _ = train(ds, TrainConfig(embed_dim=16, n_layers=2, seed=0,
                                      min_epochs=1, max_epochs=2))
    predict_graphs(ds.graphs, params)
    predict_graphs(ds.graphs, params, [0])
    encode_graphs(ds.graphs, params)


def main() -> int:
    executed: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory(prefix="traffic-") as tmp:
        work = Path(tmp)
        sys.settrace(trace_into(executed))
        try:
            problems = run_workloads(work / "bench")
            problems += run_quickstart(work)
            run_library()
        finally:
            sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        hit = executed.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for line, lines in sorted(statement_lines(path).items()):
            if hit.isdisjoint(lines):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} statements never executed")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
