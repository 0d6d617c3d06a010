import csv
import io
import json
import math

import numpy as np
import pytest

from survmix import fileio
from survmix.dataset import SyntheticSpec, generate_synthetic, write_csv
from survmix.errors import DataError
from survmix.fileio import (CsvRows, atomic_write, atomic_write_text, csv_text, json_text,
                            open_text, read_text, text_cells)


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


class TestAtomicWrite:
    def test_str_and_bytes_chunks_in_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_WRITE_CHARS", 3)   # a str encoded in slices
        atomic_write(tmp_path / "a.txt", ("é1234", b"ab", memoryview(b"xcd")[1:], "", "\n"))
        assert (tmp_path / "a.txt").read_bytes() == "é1234abcd\n".encode()

    def test_chunks_that_raise_midway_leave_no_file(self, tmp_path):
        def chunks():
            yield "header\n"
            yield b"row\n"
            raise RuntimeError("rendering failed")
        with pytest.raises(RuntimeError, match="rendering failed"):
            atomic_write(tmp_path / "d.csv", chunks())
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "d.csv").write_text("old\n")
        with pytest.raises(RuntimeError, match="rendering failed"):
            atomic_write(tmp_path / "d.csv", chunks())
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
        assert (tmp_path / "d.csv").read_text() == "old\n"

    def test_a_dataset_write_that_fails_midway_keeps_the_old_file(self, tmp_path,
                                                                  monkeypatch):
        data = generate_synthetic(SyntheticSpec(n_rows=50, seed=1))
        write_csv(data.take_rows(range(10)), tmp_path / "d.csv")
        old = (tmp_path / "d.csv").read_bytes()
        chunks = CsvRows.chunks

        def fail_after_the_first(rows):
            yield next(chunks(rows))
            raise RuntimeError("write failed")
        monkeypatch.setattr(fileio, "_WRITE_CHARS", 64)   # the rows come in many pieces
        monkeypatch.setattr(CsvRows, "chunks", fail_after_the_first)
        for name in ("new.csv", "d.csv"):
            with pytest.raises(RuntimeError, match="write failed"):
                write_csv(data, tmp_path / name)
        assert not list(tmp_path.glob("*.tmp"))
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
        assert (tmp_path / "d.csv").read_bytes() == old


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


def jsonable(obj):
    # The recursive copy json_text made before it used json.dumps' `default`
    # hook, kept as the oracle.
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def copied_json_text(obj):
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"


class TestJsonText:
    DOCUMENTS = [
        {"b": np.float64(0.1), "a": [np.int64(-3), (np.bool_(False), np.bool_(True))]},
        {"grid": np.array([[0.5, np.nan], [np.inf, -np.inf]]),
         "ids": np.arange(4, dtype=np.int32), "flags": np.array([True, False]),
         "empty": np.array([]), "nested": ({"x": np.float32(0.1)}, [np.uint8(7)])},
        [float("nan"), math.inf, -math.inf, np.float64(np.nan), np.float64(-np.inf),
         np.float64(5e-324), np.float64(-0.0), 1e16, None, "text", True, 2],
        ({"deep": {"deeper": [np.float64(1) / 3, (np.int64(2 ** 62),)]}},),
        {},
    ]

    @pytest.mark.parametrize("document", DOCUMENTS)
    def test_equals_the_recursive_copy(self, document):
        assert json_text(document) == copied_json_text(document)

    def test_zero_dimensional_array_is_its_scalar(self):
        # The copy failed here: it iterated over the scalar that .tolist()
        # gives for a 0-d array.
        document = {"a": np.array(2.5), "b": [np.array(7), np.array(True)]}
        scalars = {"a": np.float64(2.5), "b": [np.int64(7), np.bool_(True)]}
        assert json_text(document) == copied_json_text(scalars)

    def test_other_objects_raise(self):
        with pytest.raises(TypeError):
            json_text({"a": {1, 2}})


class TestReadingText:
    def test_non_utf8_file_is_a_data_error(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes(b"x\n\xff\n")
        with pytest.raises(DataError, match="bad.txt: not UTF-8"):
            read_text(tmp_path / "bad.txt")

    def test_bad_bytes_met_while_streaming_are_a_data_error(self, tmp_path):
        # The byte lies far past the first chunk the reader decodes.
        (tmp_path / "late.txt").write_bytes(b"abc\n" * 100_000 + b"\xff\n")
        with open_text(tmp_path / "late.txt") as fh:
            assert fh.readline() == "abc\n"
        with pytest.raises(DataError, match="late.txt: not UTF-8"):
            with open_text(tmp_path / "late.txt") as fh:
                for _ in fh:
                    pass

    def test_missing_file_and_directory(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_text(tmp_path / "absent")
        with pytest.raises(DataError, match="cannot read"):
            read_text(tmp_path)
