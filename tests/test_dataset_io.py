"""CSV dataset ingestion: labels, activity conversion, error reporting."""

import numpy as np
import pytest

from molscreen.dataset_io import (
    IngestError,
    ingest_csv,
    read_smiles_csv,
    write_dataset_csv,
)
from molscreen.synth import synth_dataset

NAN = float("nan")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngestHappyPath:
    def test_basic(self, tmp_path):
        path = write(
            tmp_path,
            "smiles,T0,T1\n"
            "CCO,-7.1,\n"
            "c1ccccc1,-6.0,2.5\n"
            "CC(C)C,,3.0\n",
        )
        ds, report = ingest_csv(path)
        assert ds.n_compounds == 3
        assert ds.task_names == ["T0", "T1"]
        assert ds.hit_directions == ["lower_is_better", "lower_is_better"]
        np.testing.assert_array_equal(
            np.isfinite(ds.labels), [[True, False], [True, True], [False, True]]
        )
        assert ds.labels[0, 0] == -7.1
        assert report.n_rows == 3
        assert report.n_accepted == 3
        assert report.n_rejected == 0

    def test_ic50_column_converted(self, tmp_path):
        path = write(tmp_path, "smiles,EGFR:ic50_molar\nCCO,1e-5\nCCN,1e-7\n")
        ds, _ = ingest_csv(path)
        assert ds.task_names == ["EGFR"]
        assert ds.hit_directions == ["higher_is_better"]
        assert ds.labels[0, 0] == 5.0
        assert ds.labels[1, 0] == 7.0

    def test_duplicate_smiles_averaged(self, tmp_path):
        path = write(
            tmp_path,
            "smiles,T0,T1\nCCO,1.0,5.0\nCCN,2.0,\nCCO,3.0,\n",
        )
        ds, report = ingest_csv(path)
        assert ds.n_compounds == 2
        assert report.n_accepted == 3
        row = ds.smiles.index("CCO")
        assert ds.labels[row, 0] == 2.0  # mean of 1 and 3
        assert ds.labels[row, 1] == 5.0  # single measurement survives

    def test_duplicates_summed_in_row_order(self, tmp_path):
        # In row order 1e16 + 1.0 rounds back to 1e16, so the sum is 0.0;
        # any other order gives 1.0 or 2.0.  A rejected row adds nothing.
        path = write(
            tmp_path,
            "smiles,T0,T1\nCCO,1e16,\nCCO,1.0,0.1\nCCN,2.0,\n"
            "CCO,nan,\nCCO,-1e16,0.2\n",
        )
        ds, report = ingest_csv(path)
        assert report.n_accepted == 4
        row = ds.smiles.index("CCO")
        assert ds.labels[row, 0] == ((0.0 + 1e16) + 1.0 + -1e16) / 3 == 0.0
        assert ds.labels[row, 1] == (0.0 + 0.1 + 0.2) / 2
        assert ds.labels.dtype == np.float64
        assert ds.labels.shape == (2, 2)

    def test_whitespace_cells_are_unlabeled(self, tmp_path):
        path = write(tmp_path, "smiles,T0,T1\nCCO,  ,1.5\n")
        ds, _ = ingest_csv(path)
        assert not np.isfinite(ds.labels[0, 0])
        assert ds.labels[0, 1] == 1.5


class TestIngestErrors:
    def test_bad_smiles_reported_with_row_number(self, tmp_path):
        path = write(tmp_path, "smiles,T0\nCCO,1.0\nC(C,2.0\nCCN,3.0\n")
        ds, report = ingest_csv(path)
        assert ds.n_compounds == 2
        assert report.n_rejected == 1
        (row, message), = report.rejected
        assert row == 3  # header is row 1
        assert "(" in message or "paren" in message.lower()

    def test_non_numeric_label_rejected(self, tmp_path):
        path = write(tmp_path, "smiles,T0\nCCO,abc\nCCN,1.0\n")
        _, report = ingest_csv(path)
        assert report.n_rejected == 1
        assert report.rejected[0][0] == 2

    def test_unlabeled_row_rejected(self, tmp_path):
        path = write(tmp_path, "smiles,T0,T1\nCCO,,\nCCN,1.0,\n")
        ds, report = ingest_csv(path)
        assert ds.n_compounds == 1
        assert report.rejected[0][0] == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_only_label_rejected_by_name(self, tmp_path, cell):
        path = write(tmp_path, f"smiles,T0,T1\nCCO,,{cell}\nCCN,1.0,\n")
        ds, report = ingest_csv(path)
        assert ds.smiles == ["CCN"]
        ((row, message),) = report.rejected
        assert row == 2
        assert "'T1'" in message and "finite" in message

    def test_non_finite_beside_finite_label_rejected(self, tmp_path):
        # a finite label does not rescue a row whose other cell is nan
        path = write(tmp_path, "smiles,T0,T1:ic50_molar\nCCO,1.5,nan\nCCN,1.0,1e-6\n")
        ds, report = ingest_csv(path)
        assert ds.smiles == ["CCN"]
        ((row, message),) = report.rejected
        assert row == 2
        assert "'T1'" in message and "finite" in message

    def test_nonpositive_activity_rejected(self, tmp_path):
        path = write(tmp_path, "smiles,T:ic50_molar\nCCO,0.0\nCCN,1e-6\n")
        ds, report = ingest_csv(path)
        assert ds.n_compounds == 1
        assert report.n_rejected == 1

    def test_counts_total(self, tmp_path):
        path = write(
            tmp_path,
            "smiles,T0\nCCO,1.0\nbad(,1.0\nCCN,\nCCC,2.0\nCCCC,x\n",
        )
        _, report = ingest_csv(path)
        assert report.n_rows == 5
        assert report.n_accepted + report.n_rejected == 5
        assert report.n_accepted == 2

    def test_wrong_column_count_rejected_row(self, tmp_path):
        path = write(tmp_path, "smiles,T0\nCCO,1.0,9.9\nCCN,1.0\n")
        _, report = ingest_csv(path)
        assert report.n_rejected == 1
        assert report.rejected[0][0] == 2

    def test_missing_smiles_header(self, tmp_path):
        path = write(tmp_path, "mol,T0\nCCO,1.0\n")
        with pytest.raises(IngestError):
            ingest_csv(path)

    def test_no_task_columns(self, tmp_path):
        path = write(tmp_path, "smiles\nCCO\n")
        with pytest.raises(IngestError):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(IngestError):
            ingest_csv(path)

    def test_no_valid_rows(self, tmp_path):
        path = write(tmp_path, "smiles,T0\nbad(,1.0\n")
        with pytest.raises(IngestError):
            ingest_csv(path)

    @pytest.mark.parametrize("reader", [ingest_csv, read_smiles_csv])
    def test_non_utf8_bytes_name_the_file(self, tmp_path, reader):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"smiles,T0\n\xa3\xff,1.0\n")
        with pytest.raises(IngestError, match="latin1.csv.*UTF-8"):
            reader(path)

    @pytest.mark.parametrize("reader", [ingest_csv, read_smiles_csv])
    @pytest.mark.parametrize(
        "text",
        [
            # an unclosed quote would swallow every later row into one cell
            'smiles,T0\nCCO,1.0\n"CCN,2.0\nCCC,3.0\nCCCC,4.0\n',
            'smiles,T0\nCCO,1.0\n"CCN"x,2.0\nCCC,3.0\n',
        ],
        ids=["unclosed-quote", "text-after-closing-quote"],
    )
    def test_malformed_quoting_names_the_file_and_line(self, tmp_path, reader, text):
        path = write(tmp_path, text, name="stray.csv")
        with pytest.raises(IngestError, match=r"stray\.csv: unreadable CSV at line 3 \("):
            reader(path)

    def test_line_count_includes_quoted_line_breaks(self, tmp_path):
        # the record on lines 3-4 holds a line break in quotes; line 5 opens
        # a quote that never closes
        path = write(tmp_path, 'smiles,T0\n"CCO",1.0\n"C\nC",2.0\n"CCN\n')
        with pytest.raises(IngestError, match=r"unreadable CSV at line 5 \("):
            ingest_csv(path)


class TestRowOrder:
    def test_mixed_rejections_reported_in_row_order(self, tmp_path):
        path = write(
            tmp_path,
            "smiles,T0,T1:ic50_molar\n"
            "C(C,1.0,\n"
            "CCO,1.0,2.0,3.0\n"
            "CCN,abc,\n"
            "CCC,,\n"
            "CCO,1.0,\n"
            "C(C,2.0,1e-6\n"
            "CCCC,,0.0\n"
            "C(C,,1e-5\n"
            "CCO,,1e-6\n",
        )
        ds, report = ingest_csv(path)
        bad_smiles = "SMILES rejected: unclosed '(' (position 1)"
        assert report.rejected == [
            (2, bad_smiles),
            (3, "expected 3 columns, got 4"),
            (4, "column 'T0': 'abc' is not a number"),
            (5, "row has no labels"),
            (7, bad_smiles),
            (8, "column 'T1': activity values must be positive and finite"),
            (9, bad_smiles),
        ]
        assert (report.n_rows, report.n_accepted) == (9, 2)
        assert ds.smiles == ["CCO"]
        np.testing.assert_array_equal(ds.labels, [[1.0, 6.0]])

    def test_each_distinct_smiles_featurized_once(self, tmp_path, monkeypatch):
        import molscreen.dataset_io

        original = molscreen.dataset_io.featurize_smiles
        calls = []

        def counting(smiles):
            calls.append(smiles)
            return original(smiles)

        monkeypatch.setattr(molscreen.dataset_io, "featurize_smiles", counting)
        path = write(
            tmp_path,
            "smiles,T0\nCCO,1.0\nC(C,2.0\nCCO,3.0\nC(C,4.0\nCCN,5.0\nCCO,\n",
        )
        ds, report = ingest_csv(path)
        assert calls == ["CCO", "C(C", "CCN"]
        assert ds.smiles == ["CCO", "CCN"]
        assert [row for row, _ in report.rejected] == [3, 5, 7]
        assert report.rejected[0][1] == report.rejected[1][1]

class TestWriteRoundTrip:
    def test_synth_dataset_round_trips(self, tmp_path):
        ds, _ = synth_dataset(n_tasks=3, n_per_task=25, seed=0)
        path = tmp_path / "synth.csv"
        write_dataset_csv(path, ds)
        back, report = ingest_csv(path)
        assert report.n_rejected == 0
        assert back.smiles == ds.smiles
        assert back.task_names == ds.task_names
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_nan_cells_become_empty(self, tmp_path):
        ds, _ = synth_dataset(n_tasks=2, n_per_task=10, seed=1)
        labels = ds.labels.copy()
        labels[0, 1] = NAN
        ds.labels = labels
        path = tmp_path / "sparse.csv"
        write_dataset_csv(path, ds)
        text = path.read_text()
        first_data_line = text.split("\n")[1]
        assert first_data_line.endswith(",")
        back, _ = ingest_csv(path)
        assert not np.isfinite(back.labels[0, 1])


class TestSmilesOnlyCsv:
    def test_reads_smiles_column(self, tmp_path):
        path = write(tmp_path, "smiles,junk\nCCO,1\nc1ccccc1,2\n")
        smiles, graphs, report = read_smiles_csv(path)
        assert smiles == ["CCO", "c1ccccc1"]
        assert [g.n_atoms for g in graphs] == [3, 6]
        assert report.n_rejected == 0

    def test_bad_rows_reported(self, tmp_path):
        path = write(tmp_path, "smiles\nCCO\nnot_a_mol(\n")
        smiles, graphs, report = read_smiles_csv(path)
        assert smiles == ["CCO"]
        assert len(graphs) == 1
        assert report.rejected[0][0] == 3

    def test_plain_header_only_smiles(self, tmp_path):
        path = write(tmp_path, "smiles\nCCO\nCCN\n")
        smiles, graphs, _ = read_smiles_csv(path)
        assert smiles == ["CCO", "CCN"]
        assert len(graphs) == 2


class TestHitDirectionRoundTrip:
    def test_direction_suffix_read(self, tmp_path):
        path = write(tmp_path, "smiles,T0,T1:higher_is_better\nCCO,-7.0,5.5\n")
        ds, _ = ingest_csv(path)
        assert ds.task_names == ["T0", "T1"]
        assert ds.hit_directions == ["lower_is_better", "higher_is_better"]
        assert ds.labels[0, 1] == 5.5  # no value conversion, direction only

    def test_write_preserves_directions(self, tmp_path):
        path = write(
            tmp_path, "smiles,dock,act:ic50_molar\nCCO,-7.0,1e-05\nCCN,-6.0,1e-06\n"
        )
        ds, _ = ingest_csv(path)
        out = tmp_path / "out.csv"
        write_dataset_csv(out, ds)
        assert out.read_text().splitlines()[0] == "smiles,dock,act:higher_is_better"
        back, _ = ingest_csv(out)
        assert back.hit_directions == ds.hit_directions
        np.testing.assert_array_equal(back.labels, ds.labels)
