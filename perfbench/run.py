#!/usr/bin/env python3
"""Benchmark for molscreen: four seeded workloads through the public entry
points, with an optional outside-in traced run.

    python3 perfbench/run.py --workload screen_small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics (``mol_per_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it alternates untraced
and traced commands and prints the per-layer metrics, including the tracing
overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

import os
import sys

# Pinned before NumPy loads so that OpenBLAS reads them: one BLAS thread,
# and no featurize process pool.
THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = THREADS
os.environ["OMP_NUM_THREADS"] = THREADS
os.environ.pop("MOLSCREEN_WORKERS", None)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 5
MIN_COMMANDS = 4  # timed commands per run; two of each kind in trace mode
TIME_CAP_S = 150.0  # no command starts that would end later than this

WORKLOAD_NAMES = ("train_mtl", "transfer_frozen", "screen_default", "screen_small")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "MOLSCREEN_WORKERS": os.environ.get("MOLSCREEN_WORKERS"),
    }


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def emit(tag: str, payload) -> None:
    print(json.dumps({tag: payload}), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "molscreen" / "__init__.py").is_file():
        print(
            f"perfbench: no package sources at {ROOT / 'src' / 'molscreen'}; "
            "run from the root of a molscreen checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import calibrate
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    emit("environment", environment())
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        return measure(args, workload, workloads, tracing, calibrate, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def scaled_run(calibrate, fn):
    """Run ``fn`` and return ``(result, wall_s, cpu_s, slowdown, scaled_s)``.

    ``scaled_s`` is the CPU time of ``fn`` at the reference machine speed:
    CPU time leaves out the time other processes held the CPU, and dividing
    by the speed that calibration blocks run just before and just after
    removes the slowdown of the CPU itself (shared cores and caches).
    """
    before = calibrate.slowdown()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result = fn()
    finally:
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    after = calibrate.slowdown()
    slowdown = (before + after) / 2.0
    return result, wall, cpu, slowdown, cpu / slowdown


def measure(args, workload, workloads, tracing, calibrate, scratch: Path) -> int:
    attempted = failed = 0

    # set-up: several times, median reported, all copies must be identical
    setup_seconds, digests = [], []
    for k in range(SETUPS):
        directory = scratch / f"setup{k}"
        directory.mkdir()
        gc.collect()
        inputs, wall, cpu, slowdown, scaled = scaled_run(
            calibrate, lambda: workload.setup(directory, args.seed)
        )
        setup_seconds.append(scaled)
        digests.append(tree_digest(directory))
        emit("setup", {"index": k, "wall_s": wall, "cpu_s": cpu, "slowdown": slowdown,
                       "scaled_s": scaled})
    attempted += SETUPS
    failed += sum(d != digests[0] for d in digests)
    workload.finish_setup(inputs)
    emit("setup_digest", {"digest": digests[0], "identical": len(set(digests)) == 1})

    tracer = tracing.Tracer()
    shas = set()
    expected_spans = workloads.EXPECTED_SPANS[args.workload]

    def traced_run(out: Path, run_id: str, traced: bool):
        if traced:
            tracer.install()
            tracer.begin(run_id)
        try:
            return workload.run(inputs, out)
        finally:
            tracer.end()
            tracer.uninstall()

    def command(index: int, traced: bool) -> float:
        """Run, time and check one command; returns its mol_per_s."""
        nonlocal attempted, failed
        out = scratch / f"rep{index}"
        out.mkdir()
        run_id = f"{args.workload}-{args.seed}-rep{index}"
        gc.collect()
        outcome, wall, cpu, slowdown, scaled = scaled_run(
            calibrate, lambda: traced_run(out, run_id, traced)
        )
        problems = workload.check(inputs, outcome)
        if traced:
            seen = {span[0] for span in tracer.spans if span[4] == run_id}
            problems += [f"tracer recorded no {name} span" for name in expected_spans
                         if name not in seen]
        sha = workloads.sha256_file(outcome.output)
        shas.add(sha)
        if len(shas) > 1:
            problems.append("output differs from an earlier command of this run")
        attempted += 1
        failed += bool(problems)
        rate = inputs.units / scaled
        emit("command", {"run": run_id, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                         "slowdown": slowdown, "scaled_s": scaled, "mol_per_s": rate,
                         "wall_mol_per_s": inputs.units / wall, "sha256": sha,
                         "problems": problems})
        shutil.rmtree(out)
        return rate

    # The first command is checked but not timed: it pays first-touch page
    # faults (the training tape is about 1 GB) that later commands reuse.
    command(0, traced=False)
    # Timed commands: in trace mode they alternate untraced and traced, so
    # both halves see the same machine conditions.  A command starts only if
    # it should end within the window, after a minimum of MIN_COMMANDS.
    rates = {False: [], True: []}
    window_start = time.perf_counter()
    last = 0.0
    while True:
        done = len(rates[False]) + len(rates[True])
        now = time.perf_counter()
        if done >= MIN_COMMANDS and now + last > window_start + args.seconds:
            break
        measured = rates[False] and (rates[True] or not args.trace)
        if measured and now - STARTED + last > TIME_CAP_S:
            break
        traced = bool(args.trace) and done % 2 == 1
        rates[traced].append(command(done + 1, traced))
        last = time.perf_counter() - now
    untraced_rate = statistics.median(rates[False])
    if args.trace:
        traced_rate = statistics.median(rates[True])
        metrics, table = tracing.layer_metrics(tracer, inputs.n_input, untraced_rate, traced_rate)
        emit("spans_per_command", table)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "mol_per_s": {"value": untraced_rate, "unit": "mol/s"},
            "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    emit("output_sha256", sorted(shas))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
