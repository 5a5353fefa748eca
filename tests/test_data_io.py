"""CSV loading, column scaling, and the train/test partition."""

import os

import numpy as np
import pytest

from eppr import data_io
from eppr.data_io import (
    ColumnScaling,
    Dataset,
    load_csv,
    load_feature_matrix,
    partition,
)
from eppr.errors import DataError


def write_csv(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


CLEAN = "a,b,y\n1,2,3\n4,5,6\n7,8,9\n"


class TestLoadCsv:
    def test_clean_file(self, tmp_path) -> None:
        data = load_csv(write_csv(tmp_path / "d.csv", CLEAN), "y")
        np.testing.assert_array_equal(data.X, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(data.y, [3, 6, 9])
        assert data.column_names == ["a", "b", "y"]
        assert data.dropped_rows == 0

    def test_target_not_last_column(self, tmp_path) -> None:
        path = write_csv(tmp_path / "d.csv", "y,a,b\n3,1,2\n6,4,5\n")
        data = load_csv(path, "y")
        np.testing.assert_array_equal(data.X, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(data.y, [3, 6])
        assert data.column_names == ["a", "b", "y"]

    def test_bad_row_dropped_and_counted(self, tmp_path) -> None:
        path = write_csv(
            tmp_path / "d.csv", "a,b,y\n1,2,3\n4,oops,6\n7,8,9\n"
        )
        data = load_csv(path, "y")
        assert data.dropped_rows == 1
        assert data.X.shape == (2, 2)

    def test_non_finite_cell_dropped(self, tmp_path) -> None:
        path = write_csv(tmp_path / "d.csv", "a,y\n1,2\nnan,4\n5,inf\n7,8\n")
        data = load_csv(path, "y")
        assert data.dropped_rows == 2
        np.testing.assert_array_equal(data.y, [2, 8])

    def test_short_row_dropped(self, tmp_path) -> None:
        path = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5\n6,7,8\n")
        data = load_csv(path, "y")
        assert data.dropped_rows == 1 and data.X.shape[0] == 2

    def test_blank_lines_ignored(self, tmp_path) -> None:
        path = write_csv(tmp_path / "d.csv", "a,y\n1,2\n\n3,4\n\n")
        data = load_csv(path, "y")
        assert data.dropped_rows == 0 and data.X.shape[0] == 2

    def test_target_by_index_matches_by_name(self, tmp_path) -> None:
        path = write_csv(tmp_path / "d.csv", CLEAN)
        by_name = load_csv(path, "y")
        # "2" names no column, so it is read as a position too.
        for index in [2, "2"]:
            by_index = load_csv(path, index)
            np.testing.assert_array_equal(by_name.X, by_index.X)
            np.testing.assert_array_equal(by_name.y, by_index.y)
            assert by_name.column_names == by_index.column_names
        # A header name comes first: column "2" is position 1 here.
        named = load_csv(write_csv(tmp_path / "e.csv", "a,2,y\n1,2,3\n"), "2")
        np.testing.assert_array_equal(named.y, [2])

    def test_missing_file(self, tmp_path) -> None:
        path = str(tmp_path / "absent.csv")
        with pytest.raises(DataError) as excinfo:
            load_csv(path, "y")
        assert str(excinfo.value) == f"no such file: {path}"

    def test_missing_target(self, tmp_path) -> None:
        path = write_csv(tmp_path / "d.csv", CLEAN)
        with pytest.raises(DataError) as excinfo:
            load_csv(path, "z")
        assert str(excinfo.value) == "target column 'z' not in header"
        with pytest.raises(DataError) as excinfo:
            load_csv(path, 9)
        assert str(excinfo.value) == "target index 9 outside 0..2"
        # Only decimal digits after at most one minus read as a position.
        for target, text in [("3", "target index 3 outside 0..2"),
                             ("-1", "target index -1 outside 0..2"),
                             ("+1", "target column '+1' not in header"),
                             ("--1", "target column '--1' not in header"),
                             ("\u00b2", "target column '\u00b2' not in header")]:
            with pytest.raises(DataError) as excinfo:
                load_csv(path, target)
            assert str(excinfo.value) == text

    def test_empty_file(self, tmp_path) -> None:
        path = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(DataError) as excinfo:
            load_csv(path, "y")
        assert str(excinfo.value) == f"{path} is empty"

    def test_header_only(self, tmp_path) -> None:
        path = write_csv(tmp_path / "d.csv", "a,y\n")
        with pytest.raises(DataError) as excinfo:
            load_csv(path, "y")
        assert str(excinfo.value) == f"{path} has no usable data rows"

    def test_non_numeric_column(self, tmp_path) -> None:
        path = write_csv(
            tmp_path / "d.csv", "a,b,y\nred,1,2\nblue,3,4\ngreen,5,6\n"
        )
        with pytest.raises(DataError) as excinfo:
            load_csv(path, "y")
        assert str(excinfo.value) == "column(s) never numeric: a"
        # Lines ending in a comma add an unnamed column, named by position.
        path = write_csv(tmp_path / "e.csv", "a,b,y,\n1,2,3,\n4,5,6,\n")
        with pytest.raises(DataError) as excinfo:
            load_csv(path, "y")
        assert str(excinfo.value) == (
            "column(s) never numeric: column 4 (unnamed)"
        )


class TestScaling:
    def test_range_maps_to_unit_interval(self) -> None:
        train = Dataset(
            X=np.array([[0.0, -5.0], [10.0, 5.0], [5.0, 0.0]]),
            y=np.zeros(3),
            column_names=["a", "b", "y"],
        )
        out = ColumnScaling.fit(train.X).transform(train.X)
        np.testing.assert_allclose(out[0], [-1.0, -1.0])
        np.testing.assert_allclose(out[1], [1.0, 1.0])
        np.testing.assert_allclose(out[2], [0.0, 0.0], atol=1e-15)

    def test_constant_column_maps_to_zero(self) -> None:
        X = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
        scaling = ColumnScaling.fit(X)
        out = scaling.transform(X)
        np.testing.assert_array_equal(out[:, 0], np.zeros(3))

    def test_out_of_range_clamped(self) -> None:
        scaling = ColumnScaling.fit(np.array([[0.0], [10.0]]))
        out = scaling.transform(np.array([[-100.0], [100.0], [5.0]]))
        np.testing.assert_allclose(out.ravel(), [-1.0, 1.0, 0.0])

    def test_scaling_reused_across_splits(self) -> None:
        rng = np.random.default_rng(0)
        data = Dataset(
            X=rng.uniform(0, 1, (50, 2)),
            y=rng.standard_normal(50),
            column_names=["a", "b", "y"],
        )
        train, test = partition(data, np.random.default_rng(1))
        out = ColumnScaling.fit(train.X).transform(test.X)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


    def test_in_place_scaling_matches_the_formula_bit_for_bit(self) -> None:
        # Columns: a wide live one, two constant ones (one between signed
        # zeros), one so narrow that most values overflow, and one whose
        # range nearly fills float64.  Rows hold NaN, signed zeros,
        # infinities, the largest floats, each column's bounds and values
        # far outside them.
        lo = np.array([-3.0, 2.5, -0.0, 1e-300, -1e300])
        hi = np.array([7.0, 2.5, 0.0, 2e-300, 1e300])
        scaling = ColumnScaling(lo=lo, hi=hi)
        special = [np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf, 1e308,
                   -1e308, 5e-324, -5e-324]
        rng = np.random.default_rng(50)
        rows = [np.full(5, value) for value in special] + [lo, hi]
        rows += list(rng.normal(size=(200, 5)) * 10.0 ** rng.uniform(
            -3, 12, (200, 5)))
        X = np.array(rows)
        X[rng.integers(0, len(X), 40), rng.integers(0, 5, 40)] = np.nan
        cases = [(scaling, X), (scaling, np.asfortranarray(X)),
                 (scaling, X[::2]),
                 (ColumnScaling(lo=lo[1:], hi=hi[1:]), X[:, 1:])]
        for scaling, layout in cases:
            before = layout.copy()
            scaled = scaling.transform(layout)
            expected = reference_column_scaling(scaling, layout)
            assert scaled.tobytes() == expected.tobytes()
            assert layout.tobytes() == before.tobytes()


def reference_column_scaling(scaling: ColumnScaling, X) -> np.ndarray:
    """``ColumnScaling.transform`` as written before it scaled in place."""
    X = np.asarray(X, dtype=float)
    span = scaling.hi - scaling.lo
    out = np.zeros_like(X)
    live = span > 0.0
    with np.errstate(over="ignore"):
        scaled = 2.0 * (X[:, live] - scaling.lo[live]) / span[live] - 1.0
    out[:, live] = np.clip(scaled, -1.0, 1.0)
    return out


def make_dataset(N: int, p: int = 2, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        X=rng.standard_normal((N, p)),
        y=rng.standard_normal(N),
        column_names=[f"x{j}" for j in range(p)] + ["y"],
    )


class TestPartition:
    def test_two_thirds_rule(self) -> None:
        train, test = partition(make_dataset(506), np.random.default_rng(0))
        assert train.X.shape[0] == 337
        assert test.X.shape[0] == 169

    def test_training_rows_capped(self) -> None:
        train, test = partition(
            make_dataset(30000), np.random.default_rng(0)
        )
        assert train.X.shape[0] == 1000
        assert test.X.shape[0] == 29000

    def test_same_rng_same_split(self) -> None:
        data = make_dataset(100)
        a_train, a_test = partition(data, np.random.default_rng(5))
        b_train, b_test = partition(data, np.random.default_rng(5))
        np.testing.assert_array_equal(a_train.X, b_train.X)
        np.testing.assert_array_equal(a_test.y, b_test.y)

    def test_disjoint_union_of_rows(self) -> None:
        data = make_dataset(60, p=1, seed=3)
        data = Dataset(
            X=np.arange(60, dtype=float)[:, None],
            y=data.y,
            column_names=data.column_names,
        )
        train, test = partition(data, np.random.default_rng(2))
        seen = np.concatenate([train.X.ravel(), test.X.ravel()])
        np.testing.assert_array_equal(np.sort(seen), np.arange(60))

    def test_too_few_rows(self) -> None:
        with pytest.raises(DataError) as excinfo:
            partition(make_dataset(2), np.random.default_rng(0))
        assert str(excinfo.value) == "need at least 3 rows, got 2"


class TestLoadFeatureMatrix:
    def test_plain_matrix(self, tmp_path) -> None:
        path = write_csv(tmp_path / "q.csv", "a,b\n1,2\n3,4\n")
        np.testing.assert_array_equal(
            load_feature_matrix(path, 2), [[1, 2], [3, 4]]
        )

    def test_named_columns_reordered(self, tmp_path) -> None:
        path = write_csv(tmp_path / "q.csv", "b,a\n2,1\n4,3\n")
        out = load_feature_matrix(path, 2, feature_names=["a", "b"])
        np.testing.assert_array_equal(out, [[1, 2], [3, 4]])

    def test_extra_target_column_ignored(self, tmp_path) -> None:
        path = write_csv(tmp_path / "q.csv", "a,b,y\n1,2,9\n3,4,9\n")
        out = load_feature_matrix(path, 2, feature_names=["a", "b"])
        np.testing.assert_array_equal(out, [[1, 2], [3, 4]])

    def test_headerless_width_fallback(self, tmp_path) -> None:
        # Names absent but the width matches the stored feature count.
        path = write_csv(tmp_path / "q.csv", "c1,c2\n1,2\n3,4\n")
        out = load_feature_matrix(path, 2, feature_names=["a", "b"])
        np.testing.assert_array_equal(out, [[1, 2], [3, 4]])

    def test_wrong_columns_rejected(self, tmp_path) -> None:
        path = write_csv(tmp_path / "q.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            load_feature_matrix(path, 2, feature_names=["a", "z"])

    def test_unnamed_width_mismatch_rejected(self, tmp_path) -> None:
        path = write_csv(tmp_path / "q.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError) as excinfo:
            load_feature_matrix(path, 3)
        assert str(excinfo.value) == (
            "prediction file lacks the model's feature columns"
        )

    def test_bad_rows_dropped(self, tmp_path) -> None:
        path = write_csv(tmp_path / "q.csv", "a,b\n1,2\nbad,4\n5,6\n")
        out = load_feature_matrix(path, 2)
        np.testing.assert_array_equal(out, [[1, 2], [5, 6]])

    def test_missing_file(self, tmp_path) -> None:
        path = str(tmp_path / "nope.csv")
        with pytest.raises(DataError) as excinfo:
            load_feature_matrix(path, 2)
        assert str(excinfo.value) == f"no such file: {path}"


READERS = {
    "load_csv": lambda path: load_csv(path, "y").X,
    "load_feature_matrix": lambda path: load_feature_matrix(
        path, 2, feature_names=["a", "b"]
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
class TestSharedReaderRules:
    def test_ragged_row_dropped_and_counted(
        self, tmp_path, capsys, reader
    ) -> None:
        path = write_csv(
            tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5\n6,7,8,9\n10,11,12\n"
        )
        X = READERS[reader](path)
        np.testing.assert_array_equal(X, [[1, 2], [10, 11]])
        assert capsys.readouterr().err.splitlines() == [
            f"note: dropped 2 row(s) of {path} with missing or bad cells"
        ]

    def test_never_numeric_column_rejected(self, tmp_path, reader) -> None:
        path = write_csv(
            tmp_path / "d.csv", "a,b,y\n1,red,2\n3,blue,4\n5,green,6\n"
        )
        with pytest.raises(DataError) as excinfo:
            READERS[reader](path)
        assert str(excinfo.value) == "column(s) never numeric: b"

    def test_overflowing_column_is_numeric(self, tmp_path, reader) -> None:
        # float() reads each cell of a, as an infinity: every row is
        # dropped as non-finite, but the column is not "never numeric".
        path = write_csv(
            tmp_path / "d.csv", "a,b,y\n1e999,1,2\n-1e999,3,4\n1e999,5,6\n"
        )
        with pytest.raises(DataError) as excinfo:
            READERS[reader](path)
        assert str(excinfo.value) == f"{path} has no usable data rows"


# Each text runs through the public readers and through the per-row rules
# over the whole body (``_parse_piece`` made to reject every piece), which
# are the reference: the block parse must not change a matrix, a count, a
# note or an error.  Headers end in the target ``y``, so ``load_csv``'s X
# and y side by side are the reference matrix over every column.
READER_CORPUS = {
    "clean": "a,b,y\n1,2,3\n4,5,6\n7,8,9\n",
    "crlf": "a,b,y\r\n1,2,3\r\n4,5,6\r\n",
    "spaces_and_tabs": "a,b,y\n 1,2\t,3\n\t4 , 5,6 \n7,8,9\n",
    "quoted": 'a,b,y\n"1",2,3\n"2" ,5,6\n"7\n",8,9\n',
    "quoted_rejected": 'a,b,y\n1,2,3\n "2",5,6\n"1,5",8,9\n10,11,12\n',
    "nan_inf": "a,b,y\n1,2,3\nnan,5,6\n7,inf,9\n-inf,1,1\n10,11,12\n",
    "python_only_numbers": "a,b,y\n1_0,2,3\n\u0664,5,6\n7,8,9\n",
    "separator_char": "a,b,y\n1\x1c,2,3\n4,5,6\n",
    "ragged": "a,b,y\n1,2,3\n4,5\n6,7,8,9\n10,11,12\n",
    "blank_lines": "a,b,y\n1,2,3\n\n4,5,6\n\n",
    "whitespace_lines": "a,b,y\n1,2,3\n   \n\t\n4,5,6\n",
    "unselected_text": "a,b,note,y\n1,2,red,3\n4,5,blue,6\n",
    "all_nan_column": "a,b,y\n1,nan,3\n4,nan,6\n",
    "overflowing_column": "a,b,y\n1e999,2,3\n4,-1e999,6\n",
    "header_only": "a,b,y\n",
    "header_spans_lines": '"a\nx",b,y\n1,2,3\n',
    "early_bad_row": "a,b,y\n1,,3\n4,5,6\n7,8,9\n10,11,12\n13,14,15\n",
    "late_bad_row": "a,b,y\n1,2,3\n4,5,6\n7,8,9\n10,NA,12\n13,14,15\n",
    # A quote inside a cell, then a quoted cell: the quote count is even,
    # yet the quoted cell runs on over the next line.
    "inner_quote_then_quoted_cell":
        'a,b,y\n1,2,3\n4,x"y,"5\n6,7",8\n9,10,11\n12,13,14\n',
    "late_quoted_newline": 'a,b,y\n1,2,3\n4,5,6\n7,8,"9\n"\n10,11,12\n',
}


def _csv_block(path):
    data = load_csv(path, "y")
    return np.column_stack([data.X, data.y]), data.dropped_rows


def _feature_cols(header):
    if "a" in header and "b" in header:
        return [header.index("a"), header.index("b")]
    raise DataError("prediction file lacks the model's feature columns")


# reader name -> (public read giving (matrix, dropped count or None),
#                 the columns it chooses from a header)
CORPUS_READERS = {
    "load_csv": (_csv_block, lambda header: list(range(len(header)))),
    "load_feature_matrix": (
        lambda path: (load_feature_matrix(path, 2, ["a", "b"]), None),
        _feature_cols,
    ),
}


def _outcome(read, capsys):
    """(result, stderr notes, error text) of one read."""
    capsys.readouterr()
    try:
        result, error = read(), None
    except DataError as exc:
        result, error = None, str(exc)
    return result, capsys.readouterr().err.splitlines(), error


def _per_row(monkeypatch, path, choose):
    """The per-row rules over the whole body, read as one piece."""
    with monkeypatch.context() as patched:
        patched.setattr(data_io, "_parse_piece", lambda text, width: None)
        patched.setattr(data_io, "_PIECE_CHARS", os.path.getsize(path) + 1)
        return data_io._load_columns(path, choose)[1:]


# Small pieces put piece ends between most rows and inside quoted cells.
@pytest.mark.parametrize("piece_chars", [4, data_io._PIECE_CHARS])
@pytest.mark.parametrize("reader", sorted(CORPUS_READERS))
@pytest.mark.parametrize("case", sorted(READER_CORPUS))
def test_block_parse_matches_per_row_rules(
    tmp_path, capsys, monkeypatch, reader, case, piece_chars
) -> None:
    monkeypatch.setattr(data_io, "_PIECE_CHARS", piece_chars)
    path = write_csv(tmp_path / "d.csv", READER_CORPUS[case])
    read, choose = CORPUS_READERS[reader]
    got, got_notes, got_error = _outcome(lambda: read(path), capsys)
    ref, ref_notes, ref_error = _outcome(
        lambda: _per_row(monkeypatch, path, choose), capsys
    )
    assert got_error == ref_error
    assert got_notes == ref_notes
    if ref is not None:
        (matrix, dropped), (ref_matrix, ref_dropped) = got, ref
        assert matrix.dtype == ref_matrix.dtype
        assert np.array_equal(matrix, ref_matrix)
        assert dropped in (None, ref_dropped)


def _count_opens(monkeypatch) -> list[str]:
    """The paths ``data_io`` opens; rewinding a handle fails the test."""
    opened = []

    def rewind(*args):
        raise AssertionError("file read again from the start")

    def counting_open(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        handle.seek = rewind
        opened.append(path)
        return handle

    monkeypatch.setattr(data_io, "open", counting_open, raising=False)
    return opened


def test_clean_file_skips_per_row_rules(tmp_path, monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("per-row reader called on a clean file")

    monkeypatch.setattr(data_io, "_non_blank", refuse)
    monkeypatch.setattr(data_io, "_chosen_cells", refuse)
    opened = _count_opens(monkeypatch)
    path = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\nnan,5,6\n7,8,9\n")
    data = load_csv(path, "y")
    np.testing.assert_array_equal(data.X, [[1, 2], [7, 8]])
    assert data.dropped_rows == 1
    np.testing.assert_array_equal(
        load_feature_matrix(path, 2, ["b", "a"]), [[2, 1], [8, 7]]
    )
    assert opened == [path, path]


# Where the bad row sits among 41 rows "i,i,i", read in pieces of 16
# characters, about two rows a piece.  The "r_" cases lay the rows out as
# R's write.csv does, each led by its quoted row name: every piece then
# holds quotes, yet no cell keeps one.
BAD_ROW_AT = {"first": 0, "middle": 20, "last": 40,
              "r_first": 0, "r_middle": 20}


@pytest.mark.parametrize("bad_at", sorted(BAD_ROW_AT))
def test_bad_row_reparses_only_from_its_piece(
    tmp_path, monkeypatch, bad_at
) -> None:
    rows = [f"{i},{i},{i}" for i in range(40)] + ["5,6,7"]
    rows.insert(BAD_ROW_AT[bad_at], "1,NA,3")
    header = "a,b,y"
    if bad_at.startswith("r_"):
        header = '"","a","b","y"'
        rows = [f'"{name}",{row}' for name, row in enumerate(rows, 1)]
    path = write_csv(
        tmp_path / "d.csv", "".join(f"{line}\n" for line in [header, *rows])
    )
    width = header.count(",") + 1
    ref_matrix, ref_dropped = _per_row(
        monkeypatch, path, lambda header: list(range(width))
    )
    seen = []
    chosen_cells = data_io._chosen_cells

    def recording(header, body, cols):
        seen.append(body)
        return chosen_cells(header, body, cols)

    monkeypatch.setattr(data_io, "_PIECE_CHARS", 16)
    monkeypatch.setattr(data_io, "_chosen_cells", recording)
    opened = _count_opens(monkeypatch)
    data = load_csv(path, "y")
    assert opened == [path]
    # Only the bad row's own piece goes through the per-row rules.
    assert len(seen) == 1
    assert ["1", "NA", "3"] in [row[-3:] for row in seen[0]]
    assert len(seen[0]) <= 3
    assert np.array_equal(np.column_stack([data.X, data.y]), ref_matrix)
    assert data.dropped_rows == ref_dropped == 1


# Files with no finite row, longer than one default piece, so numpy parses
# the first piece at either piece size and the per-row rules read the last.
# In the first, column b is "nan" in the numpy-parsed rows and text in the
# last; in the second, every row has a bad cell but each column of a, b
# and y holds a finite number in some row.
_NAN_B_ROWS = "1.000000000000000000000000000000,nan,3\n" * 1800
NO_FINITE_ROW = {
    "b_nan_then_text": (
        "a,b,y\n" + _NAN_B_ROWS + "7,red,9\n",
        "column(s) never numeric: b",
    ),
    "every_row_dropped": (
        "a,b,y\n" + _NAN_B_ROWS + "x,2,z\n",
        "{path} has no usable data rows",
    ),
}


@pytest.mark.parametrize("piece_chars", [4, data_io._PIECE_CHARS])
@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case", sorted(NO_FINITE_ROW))
def test_no_finite_row_error_from_one_read(
    tmp_path, monkeypatch, case, reader, piece_chars
) -> None:
    text, message = NO_FINITE_ROW[case]
    assert len(text) > data_io._PIECE_CHARS
    monkeypatch.setattr(data_io, "_PIECE_CHARS", piece_chars)
    path = write_csv(tmp_path / "d.csv", text)
    opened = _count_opens(monkeypatch)
    with pytest.raises(DataError) as excinfo:
        READERS[reader](path)
    assert str(excinfo.value) == message.format(path=path)
    assert opened == [path]
