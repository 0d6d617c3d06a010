import csv
import io

import numpy as np
import pytest

from survmix.dataset import (
    CATEGORY_VOCAB,
    MISSING_CODE,
    ColumnSpec,
    Dataset,
    SyntheticSpec,
    format_schema,
    generate_synthetic,
    load_csv,
    parse_schema,
    quartiles,
    write_csv,
    write_schema,
)
from survmix.errors import DomainError, ParseError


def small_dataset():
    specs = [
        ColumnSpec("id", "categorical", "id", ("u1", "u2", "u3", "u4")),
        ColumnSpec("x", "numeric", "feature"),
        ColumnSpec("sector", "categorical", "feature", ("mfg", "svc")),
        ColumnSpec("label", "numeric", "label"),
    ]
    cols = {
        "id": np.array([0, 1, 2, 3]),
        "x": np.array([1.0, np.nan, 3.5, -2.0]),
        "sector": np.array([0, 1, -1, 0]),
        "label": np.array([0.0, 1.0, 0.0, 1.0]),
    }
    return Dataset(specs, cols)


def random_dataset(rng, n=100, n_num=7, n_cat=3):
    specs = [ColumnSpec(f"n{j}", "numeric", "feature") for j in range(n_num)]
    cols = {}
    for j in range(n_num):
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.1] = np.nan
        cols[f"n{j}"] = v
    for j in range(n_cat):
        vocab = tuple(f"v{k}" for k in range(rng.integers(2, 6)))
        specs.append(ColumnSpec(f"c{j}", "categorical", "feature", vocab))
        codes = rng.integers(-1, len(vocab), size=n)
        cols[f"c{j}"] = codes
    return Dataset(specs, cols)


class TestQuartiles:
    def test_linear_interpolation_convention(self):
        assert quartiles(np.array([1.0, 2.0, 3.0, 4.0])) == (1.75, 2.5, 3.25)

    def test_single_value(self):
        assert quartiles(np.array([5.0])) == (5.0, 5.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            quartiles(np.array([]))


class TestDatasetModel:
    def test_structure_validation(self):
        with pytest.raises(DomainError):
            Dataset([ColumnSpec("a", "numeric"), ColumnSpec("a", "numeric")],
                    {"a": np.array([1.0])})
        with pytest.raises(DomainError):
            Dataset([ColumnSpec("a", "numeric", "label"),
                     ColumnSpec("b", "numeric", "label")],
                    {"a": np.array([0.0]), "b": np.array([1.0])})
        with pytest.raises(DomainError):
            Dataset([ColumnSpec("a", "numeric"), ColumnSpec("b", "numeric")],
                    {"a": np.array([1.0, 2.0]), "b": np.array([1.0])})

    def test_value_domains(self):
        with pytest.raises(DomainError):
            Dataset([ColumnSpec("y", "numeric", "label")], {"y": np.array([0.0, 2.0])})
        with pytest.raises(DomainError):
            Dataset([ColumnSpec("t", "numeric", "duration")], {"t": np.array([0.0])})
        with pytest.raises(DomainError):
            Dataset([ColumnSpec("e", "numeric", "event")], {"e": np.array([0.5])})
        with pytest.raises(DomainError):
            Dataset([ColumnSpec("c", "categorical", "feature", ("a",))],
                    {"c": np.array([1])})

    def test_accessors_and_missing_mask(self):
        d = small_dataset()
        assert d.n_rows == 4
        assert d.feature_names() == ("x", "sector")
        assert d.role_column("label") == "label"
        assert list(d.missing_mask("x")) == [False, True, False, False]
        assert list(d.missing_mask("sector")) == [False, False, True, False]
        assert list(d.strings("sector")) == ["mfg", "svc", None, "mfg"]
        assert list(d.label_values()) == [0, 1, 0, 1]

    def test_take_and_drop(self):
        d = small_dataset()
        top = d.take_rows([0, 2])
        assert top.n_rows == 2 and list(top.numeric("x")) == [1.0, 3.5]
        masked = d.take_rows(np.array([True, False, False, True]))
        assert list(masked.label_values()) == [0, 1]
        dropped = d.drop_columns(["x"])
        assert dropped.names == ("id", "sector", "label")
        with pytest.raises(DomainError):
            d.drop_columns(["nope"])

    def test_columns_read_only(self):
        d = small_dataset()
        with pytest.raises(ValueError):
            d.numeric("x")[0] = 99.0


class TestSchemaSidecar:
    def test_round_trip(self):
        specs = small_dataset().specs
        assert parse_schema(format_schema(specs)) == specs

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_schema("x kind,feature")
        with pytest.raises(ParseError):
            parse_schema("x = numeric")
        with pytest.raises(ParseError):
            parse_schema("x = numeric,feature,a|b")
        with pytest.raises(ParseError):
            parse_schema("x = complex,feature")
        with pytest.raises(ParseError):
            parse_schema("# only a comment\n")

    def test_comments_and_blanks_skipped(self):
        specs = parse_schema("# header\n\nx = numeric,feature\n")
        assert specs == (ColumnSpec("x", "numeric", "feature"),)


class TestCsvRoundTrip:
    def test_small_round_trip(self, tmp_path):
        d = small_dataset()
        write_csv(d, tmp_path / "d.csv")
        write_schema(d.specs, tmp_path / "d.schema")
        back = load_csv(tmp_path / "d.csv", tmp_path / "d.schema")
        assert back.equals(d)

    def test_random_round_trips_bit_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        d = random_dataset(rng, n=100, n_num=7, n_cat=3)
        write_csv(d, tmp_path / "r.csv")
        back = load_csv(tmp_path / "r.csv", d.specs)
        for name in d.names:
            a, b = d.column(name), back.column(name)
            if d.spec(name).kind == "numeric":
                assert np.array_equal(a, b, equal_nan=True)
            else:
                assert np.array_equal(a, b)

    def test_missing_cell_encodings(self, tmp_path):
        (tmp_path / "m.csv").write_text("x;c\n;\nNA;NA\n1.5;yes\n")
        specs = (ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical", "feature", ("yes",)))
        d = load_csv(tmp_path / "m.csv", specs)
        assert list(d.missing_mask("x")) == [True, True, False]
        assert list(d.missing_mask("c")) == [True, True, False]

    def test_header_only_file(self, tmp_path):
        (tmp_path / "e.csv").write_text("x\n")
        d = load_csv(tmp_path / "e.csv", (ColumnSpec("x", "numeric"),))
        assert d.n_rows == 0

    def test_parse_errors_carry_row_numbers(self, tmp_path):
        (tmp_path / "bad.csv").write_text("x\n1.0\noops\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            load_csv(tmp_path / "bad.csv", (ColumnSpec("x", "numeric"),))
        (tmp_path / "short.csv").write_text("x;y\n1.0\n")
        with pytest.raises(ParseError, match="expected 2 fields"):
            load_csv(tmp_path / "short.csv",
                     (ColumnSpec("x", "numeric"), ColumnSpec("y", "numeric")))

    def test_header_mismatch(self, tmp_path):
        (tmp_path / "h.csv").write_text("wrong\n1.0\n")
        with pytest.raises(ParseError, match="header"):
            load_csv(tmp_path / "h.csv", (ColumnSpec("x", "numeric"),))

    def test_out_of_vocabulary_value(self, tmp_path):
        (tmp_path / "v.csv").write_text("c\nz\n")
        with pytest.raises(DomainError, match="'z'"):
            load_csv(tmp_path / "v.csv", (ColumnSpec("c", "categorical", "feature", ("a",)),))

    def test_vocabulary_inferred_in_first_appearance_order(self, tmp_path):
        (tmp_path / "i.csv").write_text("c\nz\na\nz\nm\n")
        d = load_csv(tmp_path / "i.csv", (ColumnSpec("c", "categorical"),))
        assert d.spec("c").vocabulary == ("z", "a", "m")

    # str.splitlines, which reads the sidecar, also breaks at \x0c and \u2028
    @pytest.mark.parametrize("level", ["a|b", "x\ny", "x\x0cy", "x\u2028y"])
    def test_inferred_level_the_sidecar_cannot_store_rejected(self, tmp_path, level):
        with open(tmp_path / "s.csv", "w", newline="") as fh:
            csv.writer(fh, delimiter=";", lineterminator="\n").writerows(
                [["x", "c"], ["1.0", "ok"], ["2.0", level], ["3.0", level]])
        with pytest.raises(DomainError) as info:
            load_csv(tmp_path / "s.csv", (ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical")))
        message = str(info.value)
        assert message.startswith(f"{tmp_path / 's.csv'}:3: column 'c': value ")
        assert "sidecar" in message

    def test_first_bad_number_reported_after_missing_cells(self, tmp_path):
        (tmp_path / "b.csv").write_text("x;y\n1;NA\n;oops\n2;bad\n")
        with pytest.raises(ParseError, match=r"b.csv:3: column 'y': cannot parse 'oops'"):
            load_csv(tmp_path / "b.csv", (ColumnSpec("x", "numeric"), ColumnSpec("y", "numeric")))

    def test_first_ragged_row_reported(self, tmp_path):
        (tmp_path / "r.csv").write_text("x;y\n1;2\n3;4\n5\n6;7;8\n")
        with pytest.raises(ParseError, match=r"r.csv:4: expected 2 fields, got 1"):
            load_csv(tmp_path / "r.csv", (ColumnSpec("x", "numeric"), ColumnSpec("y", "numeric")))

    def test_first_undeclared_level_reported(self, tmp_path):
        (tmp_path / "u.csv").write_text("c\na\nNA\nz\nq\n")
        with pytest.raises(DomainError, match=r"u.csv:4: column 'c': value 'z' is not"):
            load_csv(tmp_path / "u.csv", (ColumnSpec("c", "categorical", "feature", ("a",)),))

    def test_missing_input_path(self, tmp_path):
        from survmix.errors import DataError
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "absent.csv", (ColumnSpec("x", "numeric"),))


# -- reference oracle: the row-by-row writer that `write_csv` replaced ---------

def reference_format_cell(spec, value) -> str:
    if spec.kind == "numeric":
        return "" if np.isnan(value) else repr(float(value))
    return "" if value == MISSING_CODE else spec.vocabulary[value]


def reference_csv_text(data) -> str:
    """One csv.writer row per dataset row, one formatted cell at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=";", lineterminator="\n")
    writer.writerow(data.names)
    cols = [data.column(n) for n in data.names]
    for i in range(data.n_rows):
        writer.writerow([reference_format_cell(s, col[i]) for s, col in zip(data.specs, cols)])
    return buf.getvalue()


AWKWARD_LEVELS = ("plain", "semi;colon", 'say "hi"', "com,ma", "ünïcødé €", "NAN",
                  " padded", "0.5", '"', ";")


def awkward_dataset(rng, n):
    """Numeric cells spanning NaN, -0.0, +-inf, subnormals and huge or tiny
    magnitudes; categorical cells holding delimiters, quotes and non-ASCII."""
    specs, cols = [], {}
    for j in range(4):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, size=n)
        pick = rng.random(n)
        v[pick < 0.1] = np.nan
        v[(pick >= 0.1) & (pick < 0.15)] = -0.0
        v[(pick >= 0.15) & (pick < 0.18)] = np.inf
        v[(pick >= 0.18) & (pick < 0.2)] = -np.inf
        v[(pick >= 0.2) & (pick < 0.25)] = np.round(v[(pick >= 0.2) & (pick < 0.25)])
        specs.append(ColumnSpec(f"n{j}", "numeric", "feature"))
        cols[f"n{j}"] = v
    for j in range(3):
        order = rng.permutation(len(AWKWARD_LEVELS))[:rng.integers(1, len(AWKWARD_LEVELS))]
        vocab = tuple(AWKWARD_LEVELS[k] for k in order)
        specs.append(ColumnSpec(f"c;{j}", "categorical", "feature", vocab))
        cols[f"c;{j}"] = rng.integers(-1, len(vocab), size=n)
    specs.append(ColumnSpec("label", "numeric", "label"))
    cols["label"] = rng.integers(0, 2, size=n).astype(float)
    return Dataset(specs, cols)


ORACLE_INPUTS = {
    "awkward": lambda: awkward_dataset(np.random.default_rng(17), 400),
    "awkward_zero_rows": lambda: awkward_dataset(np.random.default_rng(18), 0),
    "awkward_one_row": lambda: awkward_dataset(np.random.default_rng(19), 1),
    "small": small_dataset,
    "synthetic": lambda: generate_synthetic(SyntheticSpec(n_rows=300, seed=2)),
    "all_missing": lambda: Dataset(
        [ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical", "feature", ("a",))],
        {"x": np.full(5, np.nan), "c": np.full(5, MISSING_CODE)}),
}


class TestWriterMatchesReference:
    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_bytes_and_round_trip(self, tmp_path, name):
        d = ORACLE_INPUTS[name]()
        write_csv(d, tmp_path / "d.csv")
        write_schema(d.specs, tmp_path / "d.schema")
        written = (tmp_path / "d.csv").read_bytes()
        assert written == reference_csv_text(d).encode("utf-8")
        assert load_csv(tmp_path / "d.csv", d.specs).equals(d)
        assert load_csv(tmp_path / "d.csv", tmp_path / "d.schema").equals(d)

    def test_values_are_python_objects(self):
        d = awkward_dataset(np.random.default_rng(3), 50)
        for name in d.names:
            assert all(v is None or type(v) in (float, str) for v in d.values(name))
        assert list(d.strings("c;0")) == d.values("c;0")


class TestSyntheticGenerator:
    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(n_rows=200, seed=7)
        assert generate_synthetic(spec).equals(generate_synthetic(spec))

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticSpec(n_rows=200, seed=7))
        b = generate_synthetic(SyntheticSpec(n_rows=200, seed=8))
        assert not a.equals(b)

    def test_minority_fraction_within_two_points(self):
        for seed in range(5):
            d = generate_synthetic(SyntheticSpec(
                n_rows=5000, minority_fraction=0.05, seed=seed))
            frac = d.label_values().mean()
            assert abs(frac - 0.05) < 0.02

    def test_shape_and_roles(self):
        d = generate_synthetic(SyntheticSpec(
            n_rows=50, n_numeric=3, n_categorical=2, seed=1))
        assert d.n_rows == 50
        assert d.feature_names() == ("num_00", "num_01", "num_02", "cat_00", "cat_01")
        for role in ("id", "label", "duration", "event"):
            assert d.role_column(role) is not None
        assert d.spec("cat_00").vocabulary == CATEGORY_VOCAB

    def test_zero_separation_distributions_match(self):
        d = generate_synthetic(SyntheticSpec(
            n_rows=20000, minority_fraction=0.5, class_separation=0.0, seed=3))
        y = d.label_values()
        x = d.numeric("num_00")
        gap = abs(x[y == 1].mean() - x[y == 0].mean())
        assert gap < 0.05

    def test_separation_shifts_means(self):
        d = generate_synthetic(SyntheticSpec(
            n_rows=20000, minority_fraction=0.5, class_separation=1.0, seed=3))
        y = d.label_values()
        x = d.numeric("num_01")
        assert x[y == 1].mean() - x[y == 0].mean() == pytest.approx(1.0, abs=0.05)

    def test_censoring_at_horizon(self):
        d = generate_synthetic(SyntheticSpec(n_rows=2000, censoring_horizon=5.0, seed=9))
        t = d.numeric("duration")
        e = d.numeric("event")
        assert (t > 0).all() and (t <= 5.0).all()
        assert set(np.unique(e)) <= {0.0, 1.0}
        assert (t[e == 0.0] == 5.0).all()
        assert (e == 0.0).any() and (e == 1.0).any()

    def test_hazard_ratio_shortens_minority_lives(self):
        d = generate_synthetic(SyntheticSpec(
            n_rows=20000, minority_fraction=0.5, hazard_ratio_true=3.0, seed=11))
        y = d.label_values()
        t = d.numeric("duration")
        assert t[y == 1].mean() < t[y == 0].mean()

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SyntheticSpec(n_rows=0)
        with pytest.raises(DomainError):
            SyntheticSpec(n_rows=10, minority_fraction=1.5)
        with pytest.raises(DomainError):
            SyntheticSpec(n_rows=10, hazard_ratio_true=0.0)
        with pytest.raises(DomainError):
            SyntheticSpec(n_rows=10, class_separation=-1.0)
