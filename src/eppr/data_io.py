"""CSV loading, per-column min-max scaling, and the train/test split."""

from __future__ import annotations

import collections
import csv
import io
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError

# Training rows are capped so large files keep a large held-out share.
_TRAIN_CAP = 1000

# Separators that numpy's parser strips around a number as whitespace and
# float() does not; a piece holding one goes to the per-row rules.
_FLOAT_REJECTS = "\x1c\x1d\x1e\x1f"

# numpy parses a body in pieces of about this many characters, so a bad
# row costs a second parse of its own piece only.
_PIECE_CHARS = 1 << 16


def _unit_scale(shifted, width):
    """clip(2 shifted / width - 1, -1, 1), in place when ``shifted`` is an
    array; ``width`` is a float or an array broadcasting against it."""
    shifted *= 2.0
    shifted /= width
    shifted -= 1.0
    # np.clip's bits by its two ufuncs, without its Python wrapper.
    out = shifted if shifted.ndim else None
    return np.minimum(np.maximum(shifted, -1.0, out=out), 1.0, out=out)


@dataclass
class ColumnScaling:
    """Per-column affine map of the training range onto [-1, 1].

    Columns that were constant in training map to 0; out-of-range values
    are clamped at apply time, also those so far out that they overflow.
    """

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "ColumnScaling":
        X = np.asarray(X, dtype=float)
        return cls(lo=X.min(axis=0), hi=X.max(axis=0))

    def transform(self, X: np.ndarray) -> np.ndarray:
        # clip(2 (X - lo) / span - 1, -1, 1) in one copy of X; the constant
        # columns, divided by 1 instead of 0, are zeroed afterwards.
        span = self.hi - self.lo
        dead = ~(span > 0.0)
        out = np.array(X, dtype=float)
        with np.errstate(over="ignore"):
            out -= self.lo
            _unit_scale(out, np.where(dead, 1.0, span))
        out[:, dead] = 0.0
        return out


@dataclass
class Dataset:
    """Numeric predictor matrix with its response column."""

    X: np.ndarray
    y: np.ndarray
    column_names: list[str] = field(default_factory=list)
    dropped_rows: int = 0


def _non_blank(rows) -> list[list[str]]:
    return [row for row in rows if any(cell.strip() for cell in row)]


def _csv_rows(text: str) -> list[list[str]]:
    return _non_blank(csv.reader(io.StringIO(text, newline="")))


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _chosen_cells(
    header: list[str], body: list[list[str]], cols: list[int]
) -> np.ndarray:
    """Cells ``cols`` of the body rows as wide as the header, as floats.

    Every row as wide as the header is kept, with NaN for a cell that
    ``float()`` does not read, so ``_no_finite_row`` sees its other cells.
    """
    width = len(header)
    kept: list[list[float]] = []
    for row in body:
        if len(row) == width:
            try:
                kept.append([float(row[j]) for j in cols])
            except ValueError:
                kept.append([_float_or_nan(row[j]) for j in cols])
    return np.asarray(kept, dtype=float).reshape(len(kept), len(cols))


def _no_finite_row(
    path: str, header: list[str], cols: list[int], matrix: np.ndarray
) -> DataError:
    """The error for a file whose chosen cells hold no finite row.

    ``matrix`` holds the chosen cells of every non-blank body row as wide
    as the header, NaN where ``float()`` refused a cell.  A chosen column
    that holds no number but NaN there is a load error rather than
    silently encoded, and an unnamed one is named by its 1-based
    position; otherwise, as when a column's numbers all overflow to an
    infinity, the file has no usable rows.
    """
    seen = (~np.isnan(matrix)).any(axis=0)
    never_numeric = [header[j] or f"column {j + 1} (unnamed)"
                     for j, ok in zip(cols, seen) if not ok]
    if matrix.shape[0] and never_numeric:
        return DataError(
            f"column(s) never numeric: {', '.join(never_numeric)}"
        )
    return DataError(f"{path} has no usable data rows")


def _pieces(handle):
    """Consecutive pieces of the rest of ``handle``.

    Each piece holds about ``_PIECE_CHARS`` characters and ends at a line
    end.  A piece holding an odd number of quotes may end inside a quoted
    cell, so it runs to the end of the file instead.
    """
    while text := handle.read(_PIECE_CHARS):
        if not text.endswith("\n"):
            text += handle.readline()
        if text.count('"') % 2:
            text += handle.read()
        yield text


def _parse_piece(text: str, width: int) -> np.ndarray | None:
    """Whole float block of ``text``, parsed by numpy in one pass.

    ``None`` when numpy rejects the text (a ragged row, a cell only
    ``float()`` accepts, a non-numeric cell, no data), the text holds a
    character of ``_FLOAT_REJECTS`` or its width differs from the
    header's.  Also ``None`` for a text longer than the ``csv`` module's
    field limit, which may hold a cell the per-row rules refuse as too
    long.  On every text numpy accepts, its values and row count equal
    those of the per-row rules.
    """
    if len(text) > csv.field_size_limit() or any(
        ch in text for ch in _FLOAT_REJECTS
    ):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "no data"
            block = np.loadtxt(io.StringIO(text), delimiter=",",
                               comments=None, quotechar='"', ndmin=2)
    except (ValueError, UserWarning):
        return None
    return block if block.shape[1] == width else None


def _load_columns(
    path: str, choose: Callable[[list[str]], list[int]]
) -> tuple[list[str], np.ndarray, int]:
    """Header, the float matrix of the chosen columns and the dropped count.

    ``choose`` maps the header to the column indices to keep; a kept
    column whose name the header repeats is refused.  A UTF-8 byte order
    mark before the header is not part of the first name.  Blank lines
    are skipped, and a row is dropped when its width differs from the
    header's or one of its chosen cells is not a finite number.  With
    rows left, a drop is noted on stderr; with none, the file is refused.
    numpy parses the body piece by piece; a piece it rejects goes through
    the per-row rules alone, and the next piece goes back to numpy.  A
    rejected piece runs on to the end of the file when one of its cells
    holds a quote: a piece holds an even number of quotes, so unless a
    cell kept one, each quote opened or closed a quoted cell and the
    piece ends outside one.  Every failure to read the file is a
    ``DataError``.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            header = next(csv.reader(handle), None)
            if header is None:
                raise DataError(f"{path} is empty")
            header = [name.strip() for name in header]
            cols, counts = choose(header), collections.Counter(header)
            for j in cols:
                if counts[header[j]] > 1:
                    raise DataError(f"{path} names column {header[j]!r} "
                                    "more than once")
            parts, n_rows = [np.empty((0, len(cols)))], 0
            for text in _pieces(handle):
                block = _parse_piece(text, len(header))
                if block is None:
                    rows = _csv_rows(text)
                    if any('"' in cell for row in rows for cell in row):
                        rows = _csv_rows(text + handle.read())
                    parts.append(_chosen_cells(header, rows, cols))
                    n_rows += len(rows)
                else:
                    parts.append(block[:, cols])
                    n_rows += block.shape[0]
            full = np.concatenate(parts)
            finite = np.isfinite(full).all(axis=1)
            matrix = full if finite.all() else full[finite]
            if not matrix.shape[0]:
                raise _no_finite_row(path, header, cols, full)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError:
        raise DataError(f"{path} is not UTF-8 text")
    except csv.Error as exc:
        raise DataError(f"cannot read {path} as CSV: {exc}")
    dropped = n_rows - matrix.shape[0]
    if dropped:
        print(f"note: dropped {dropped} row(s) of {path} with missing or "
              "bad cells", file=sys.stderr)
    return header, matrix, dropped


def load_csv(path: str, target: str | int) -> Dataset:
    """Read a headed CSV into a Dataset, dropping rows with bad cells.

    ``target`` selects the response column by name or by position in the
    header; a string that names no column but reads as an integer, such
    as ``"2"``, is a position.  The file is read once, and every column
    is parsed under the rules of ``_load_columns``.
    """

    def every_column(header: list[str]) -> list[int]:
        nonlocal target
        if target in header:
            target = header.index(target)
        elif not str(target).removeprefix("-").isdecimal():
            raise DataError(
                f"target column {target!r} not in header"
            )
        target = int(target)
        if not (0 <= target < len(header)):
            raise DataError(
                f"target index {target} outside 0..{len(header) - 1}"
            )
        return list(range(len(header)))

    header, matrix, dropped = _load_columns(path, every_column)
    feature_cols = [j for j in range(len(header)) if j != target]
    names = [header[j] for j in feature_cols] + [header[target]]
    return Dataset(
        X=matrix[:, feature_cols],
        y=matrix[:, target],
        column_names=names,
        dropped_rows=dropped,
    )


def partition(
    data: Dataset, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Random train/test split: min(floor(2N/3), 1000) training rows."""
    N = data.X.shape[0]
    if N < 3:
        raise DataError(f"need at least 3 rows, got {N}")
    n_train = min((2 * N) // 3, _TRAIN_CAP)
    order = rng.permutation(N)
    train, test = (
        Dataset(X=data.X[rows], y=data.y[rows],
                column_names=list(data.column_names))
        for rows in (np.sort(order[:n_train]), np.sort(order[n_train:]))
    )
    return train, test


def load_feature_matrix(
    path: str, width: int, feature_names: list[str] | None = None
) -> np.ndarray:
    """Read ``width`` predictor columns for prediction, without a response.

    When ``feature_names`` is non-empty and all appear in the header, those
    columns are taken in the stored order (extra columns such as the
    original target are ignored); otherwise the file must consist of
    exactly ``width`` columns, taken by position.  A header of another
    width is refused before any row is read.  Rows are dropped and counted
    under the same rules as in ``load_csv``.
    """

    def feature_columns(header: list[str]) -> list[int]:
        if feature_names and all(name in header for name in feature_names):
            return [header.index(name) for name in feature_names]
        if len(header) != width:
            raise DataError(
                "prediction file lacks the model's feature columns"
            )
        return list(range(len(header)))

    return _load_columns(path, feature_columns)[1]
