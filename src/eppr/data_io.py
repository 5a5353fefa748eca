"""CSV loading, per-column min-max scaling, and the train/test split."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

# Training rows are capped so large files keep a large held-out share.
_TRAIN_CAP = 1000


@dataclass
class ColumnScaling:
    """Per-column affine map of the training range onto [-1, 1].

    Columns that were constant in training map to 0; out-of-range values
    are clamped at apply time.
    """

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "ColumnScaling":
        X = np.asarray(X, dtype=float)
        return cls(lo=X.min(axis=0), hi=X.max(axis=0))

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        span = self.hi - self.lo
        out = np.zeros_like(X)
        live = span > 0.0
        out[:, live] = np.clip(
            2.0 * (X[:, live] - self.lo[live]) / span[live] - 1.0, -1.0, 1.0
        )
        return out


@dataclass
class Dataset:
    """Numeric predictor matrix with its response column."""

    X: np.ndarray
    y: np.ndarray
    column_names: list[str] = field(default_factory=list)
    dropped_rows: int = 0


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Stripped header and non-blank body rows of a headed CSV file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except FileNotFoundError:
        raise DataError("missing_file", f"no such file: {path}")
    except OSError as exc:
        raise DataError("missing_file", f"cannot read {path}: {exc}")
    if not rows:
        raise DataError("no_rows", f"{path} is empty")
    body = [row for row in rows[1:] if any(cell.strip() for cell in row)]
    return [name.strip() for name in rows[0]], body


def _is_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _parse_columns(
    path: str, header: list[str], body: list[list[str]], cols: list[int]
) -> tuple[np.ndarray, int]:
    """Float matrix of the columns ``cols`` and the count of dropped rows.

    A row is dropped and counted when its width differs from the header's
    or one of its selected cells is not a finite number.  A selected column
    that never holds a number is a load error rather than silently encoded.
    """
    width = len(header)
    kept: list[list[float]] = []
    for row in body:
        if len(row) == width:
            try:
                kept.append([float(row[j]) for j in cols])
            except ValueError:
                pass
    matrix = np.asarray(kept, dtype=float).reshape(len(kept), len(cols))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        matrix = matrix[finite]
    dropped = len(body) - matrix.shape[0]

    if matrix.shape[0] == 0:
        full = [row for row in body if len(row) == width]
        never_numeric = [
            header[j] for j in cols
            if full and not any(_is_number(row[j]) for row in full)
        ]
        if never_numeric:
            raise DataError(
                "non_numeric_column",
                f"column(s) never numeric: {', '.join(never_numeric)}",
            )
        raise DataError("no_rows", f"{path} has no usable data rows")
    if dropped:
        logger.info("dropped %d row(s) of %s with missing or bad cells",
                    dropped, path)
    return matrix, dropped


def load_csv(path: str, target: str | int) -> Dataset:
    """Read a headed CSV into a Dataset, dropping rows with bad cells.

    ``target`` selects the response column by name or by position in the
    header.  Every column is parsed under the rules of ``_parse_columns``.
    """
    header, body = _read_csv(path)
    if isinstance(target, int):
        if not (0 <= target < len(header)):
            raise DataError(
                "missing_target",
                f"target index {target} outside 0..{len(header) - 1}",
            )
        target_idx = target
    else:
        if target not in header:
            raise DataError(
                "missing_target", f"target column {target!r} not in header"
            )
        target_idx = header.index(target)

    n_cols = len(header)
    matrix, dropped = _parse_columns(path, header, body, list(range(n_cols)))
    feature_cols = [j for j in range(n_cols) if j != target_idx]
    names = [header[j] for j in feature_cols] + [header[target_idx]]
    return Dataset(
        X=matrix[:, feature_cols],
        y=matrix[:, target_idx],
        column_names=names,
        dropped_rows=dropped,
    )


def partition(
    data: Dataset, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Random train/test split: min(floor(2N/3), 1000) training rows."""
    N = data.X.shape[0]
    if N < 3:
        raise DataError("too_few_rows", f"need at least 3 rows, got {N}")
    n_train = min((2 * N) // 3, _TRAIN_CAP)
    order = rng.permutation(N)
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(order[n_train:])
    train = Dataset(
        X=data.X[train_idx],
        y=data.y[train_idx],
        column_names=list(data.column_names),
    )
    test = Dataset(
        X=data.X[test_idx],
        y=data.y[test_idx],
        column_names=list(data.column_names),
    )
    return train, test


def load_feature_matrix(
    path: str, feature_names: list[str] | None = None
) -> np.ndarray:
    """Read predictor columns for prediction, without a response.

    When ``feature_names`` is given and all appear in the header, those
    columns are taken in the stored order (extra columns such as the
    original target are ignored); otherwise the file must consist of
    exactly those predictors.  Rows are dropped and counted under the same
    rules as in ``load_csv``.
    """
    header, body = _read_csv(path)
    if feature_names and all(name in header for name in feature_names):
        cols = [header.index(name) for name in feature_names]
    elif feature_names and len(header) == len(feature_names):
        cols = list(range(len(header)))
    elif feature_names:
        raise DataError(
            "missing_target",
            "prediction file lacks the model's feature columns",
        )
    else:
        cols = list(range(len(header)))
    return _parse_columns(path, header, body, cols)[0]
