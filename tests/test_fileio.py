import csv
import io
import math

import numpy as np
import pytest

from survmix.errors import DataError
from survmix.fileio import atomic_write_text, csv_text, json_text, text_cells


class TestAtomicWriteText:
    def test_write_leaves_only_the_target(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "one\n")
        atomic_write_text(tmp_path / "a.txt", "two\n")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "two\n"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "artifact"
        target.mkdir()  # the rename onto a directory fails
        with pytest.raises(DataError, match="cannot write"):
            atomic_write_text(target, "text")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
        assert list(target.iterdir()) == []

    def test_missing_directory_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot write"):
            atomic_write_text(tmp_path / "no" / "a.txt", "text")


class TestCsvText:
    def test_plain_cells_unquoted(self):
        text = csv_text(("id", "p", "label"), [("r1", 7), (0.25, 1.0), ("negative", "x")], ",")
        assert text == "id,p,label\nr1,0.25,negative\n7,1.0,x\n"

    def test_none_and_nan_cells_empty(self):
        assert csv_text(("a", "b", "c"), [[None], [math.nan], [np.float64(0.5)]], ";") == \
            "a;b;c\n;;0.5\n"

    def test_floats_as_shortest_repr_whatever_their_type(self):
        values = [0.1, -0.0, math.inf, 1e16, 5e-324, np.float64(1e-5), np.float32(0.5), 3, True]
        assert text_cells(values) == ["0.1", "-0.0", "inf", "1e+16", "5e-324", "1e-05",
                                      "0.5", "3", "True"]

    def test_cells_with_delimiter_or_quote_round_trip(self):
        row = ['x,1', 'say "hi"', "line\nbreak"]
        text = csv_text(("a", "b", "c"), [[cell] for cell in row], ",")
        assert list(csv.reader(io.StringIO(text)))[1] == row


def test_json_text_converts_numpy_values():
    text = json_text({"b": np.int64(2), "a": np.array([0.5, 1.0]), "c": np.bool_(True)})
    assert text == '{\n  "a": [\n    0.5,\n    1.0\n  ],\n  "b": 2,\n  "c": true\n}\n'
