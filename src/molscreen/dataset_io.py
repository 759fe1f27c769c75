"""CSV dataset files.

Grammar: a header row whose first column is ``smiles`` followed by one
column per task; an empty cell means "no label", and a row with a ``nan`` or
``inf`` cell is rejected (it is neither a label nor a blank).  A task column
named ``<target>:ic50_molar`` holds molar activity values that are converted
to their negative log10 on ingest (and the task ranks higher-is-better); a
column named ``<target>:higher_is_better`` holds already-converted values
that rank higher-is-better (this is how such tasks are written back).
Plain columns rank lower-is-better (docking-score convention).  The writer
refuses a task whose column would not read back as that task.  Duplicate
SMILES rows are averaged per task after conversion, and each distinct SMILES
is featurized once.  Every data row either contributes a compound or is
reported with its row number, in row order, so quoting is read strictly:
a quote left open or text after a closing quote is an ``IngestError``
naming the file and the line where its record starts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .data import DatasetError, TaskDataset
from .featurize import FeaturizedGraph, SchemaError, featurize_smiles
from .metrics import MetricError, pchembl
from .smiles import SmilesError

ACTIVITY_SUFFIX = ":ic50_molar"
DIRECTION_SUFFIX = ":higher_is_better"


class IngestError(ValueError):
    """The file as a whole cannot be ingested (rows may still fail softly)."""


@dataclass
class IngestReport:
    n_rows: int
    n_accepted: int
    rejected: list[tuple[int, str]]

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)


def _read_rows(path) -> list[list[str]]:
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    rows, line = [], 1  # line: where the record being read starts
    try:
        # utf-8-sig also drops a leading byte-order mark ("CSV UTF-8" files)
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle, strict=True)
            for row in reader:
                rows.append(row)
                line = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:  # malformed quoting, or a field over csv.field_size_limit()
        raise IngestError(f"{path}: unreadable CSV at line {line} ({exc})") from exc
    if not rows:
        raise IngestError(f"{path}: empty file (header required)")
    return rows


def _read_column(column: str) -> tuple[str, str, bool]:
    """A task column's header as (task name, hit direction, whether its
    values are molar activities): the column rule, which the writer uses too."""
    column = column.strip()
    for suffix in (ACTIVITY_SUFFIX, DIRECTION_SUFFIX):
        if column.endswith(suffix):
            return column[: -len(suffix)], "higher_is_better", suffix == ACTIVITY_SUFFIX
    return column, "lower_is_better", False


def dataset_column(name: str, hit_direction: str) -> str:
    """The header of the column that ``ingest_csv`` reads back as task
    ``name`` with ``hit_direction``; a ``ValueError`` naming the task when
    no column reads back so (a name with a reader's suffix, or with
    surrounding whitespace)."""
    column = name + DIRECTION_SUFFIX if hit_direction == "higher_is_better" else name
    if _read_column(column) != (name, hit_direction, False):
        raise ValueError(
            f"task {name!r} cannot be written to a dataset CSV: its column {column!r} "
            "would read back as another task"
        )
    return column


def ingest_csv(path) -> tuple[TaskDataset, IngestReport]:
    rows = _read_rows(path)
    header = [c.strip() for c in rows[0]]
    if not header or header[0] != "smiles":
        raise IngestError(f"{path}: first header column must be 'smiles'")
    if len(header) < 2:
        raise IngestError(f"{path}: need at least one task column")
    task_names, directions, is_activity = (list(v) for v in zip(*map(_read_column, header[1:])))
    n_tasks = len(task_names)

    rejected: list[tuple[int, str]] = []
    # per distinct SMILES that passed the label checks: its graph, or why
    # featurizing it failed
    outcomes: dict[str, FeaturizedGraph | str] = {}
    # per accepted SMILES in first-seen order, and per task: label sum in row
    # order from 0.0, and label count
    sums: dict[str, list[float]] = {}
    counts: dict[str, list[int]] = {}
    n_accepted = 0
    for row_number, row in enumerate(rows[1:], start=2):
        if len(row) != n_tasks + 1:
            rejected.append(
                (row_number, f"expected {n_tasks + 1} columns, got {len(row)}")
            )
            continue
        smiles = row[0].strip()
        labels: list[tuple[int, float]] = []
        bad = None
        for t, cell in enumerate(row[1:]):
            cell = cell.strip()
            if not cell:
                continue
            try:
                value = float(cell)
            except ValueError:
                bad = f"column {task_names[t]!r}: {cell!r} is not a number"
                break
            if not math.isfinite(value):
                bad = f"column {task_names[t]!r}: {cell!r} is not a finite number"
                break
            if is_activity[t]:
                try:
                    value = pchembl(value)
                except MetricError as exc:
                    bad = f"column {task_names[t]!r}: {exc}"
                    break
            labels.append((t, value))
        if bad is not None:
            rejected.append((row_number, bad))
            continue
        if not labels:
            rejected.append((row_number, "row has no labels"))
            continue
        if smiles not in outcomes:
            try:
                outcomes[smiles] = featurize_smiles(smiles)
            except (SmilesError, SchemaError) as exc:
                outcomes[smiles] = f"SMILES rejected: {exc}"
        if isinstance(outcomes[smiles], str):
            rejected.append((row_number, outcomes[smiles]))
            continue
        n_accepted += 1
        total = sums.setdefault(smiles, [0.0] * n_tasks)
        count = counts.setdefault(smiles, [0] * n_tasks)
        for t, value in labels:
            total[t] += value
            count[t] += 1
    n_rows = len(rows) - 1
    report = IngestReport(n_rows=n_rows, n_accepted=n_accepted, rejected=rejected)
    if not sums:
        raise IngestError(f"{path}: no valid rows")
    order = list(sums)
    label_matrix = np.array(
        [
            [s / c if c else math.nan for s, c in zip(sums[smi], counts[smi])]
            for smi in order
        ],
        dtype=np.float64,
    )
    try:
        ds = TaskDataset(
            smiles=order,
            graphs=[outcomes[smi] for smi in order],
            labels=label_matrix,
            task_names=task_names,
            hit_directions=directions,
        )
    except DatasetError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    return ds, report


def read_smiles_csv(path) -> tuple[list[str], list[FeaturizedGraph], IngestReport]:
    """Read just the ``smiles`` column (a screening library); other columns
    are ignored.  Returns the accepted SMILES, their featurized graphs (one
    per accepted row, same order) and the row report."""
    rows = _read_rows(path)
    header = [c.strip() for c in rows[0]]
    if "smiles" not in header:
        raise IngestError(f"{path}: no 'smiles' column in header")
    col = header.index("smiles")
    rejected: list[tuple[int, str]] = []
    accepted, graphs = [], []
    for row_number, row in enumerate(rows[1:], start=2):
        if len(row) <= col:
            rejected.append((row_number, "missing smiles cell"))
            continue
        smiles = row[col].strip()
        try:
            graphs.append(featurize_smiles(smiles))
        except (SmilesError, SchemaError) as exc:
            rejected.append((row_number, f"SMILES rejected: {exc}"))
            continue
        accepted.append(smiles)
    report = IngestReport(
        n_rows=len(rows) - 1, n_accepted=len(accepted), rejected=rejected
    )
    return accepted, graphs, report


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and then each row, every cell already a string, as
    CSV with ``\n`` line ends.  A cell holding a comma, a quote or a line
    break is quoted, so every row reads back at its width."""
    with atomic_write(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset_csv(path, ds: TaskDataset) -> None:
    columns = list(map(dataset_column, ds.task_names, ds.hit_directions))
    rows = (
        [smiles] + [repr(float(v)) if np.isfinite(v) else "" for v in ds.labels[i]]
        for i, smiles in enumerate(ds.smiles)
    )
    write_csv(path, ["smiles"] + columns, rows)
