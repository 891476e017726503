"""CSV ingestion with the dry-day and heavy-tail filters of the rainfall workflow.

Rows pass through three stages: NA-token rows are dropped, then rows where
either value falls below the dry threshold, and finally only rows where BOTH
values exceed their marginal empirical quantile (computed on the post-dry
data) are retained.  The empirical quantile at level p is the order
statistic with (1-based) index ceil(n * p), a bit-exact contract.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import DataError
from .pseudo import BivariateSample

__all__ = ["IngestionSpec", "ingest", "empirical_quantile"]

DEFAULT_NA_TOKENS = ("", "NA", "NaN", "nan", "NULL", "null")


@dataclass(frozen=True)
class IngestionSpec:
    path: str
    x_col: str
    y_col: str
    date_col: str | None = None
    na_tokens: tuple = DEFAULT_NA_TOKENS
    dry_threshold: float = 1.0
    quantile_filter: float = 0.90
    month: int | None = None
    date_from: date | None = None
    date_to: date | None = None
    either: bool = False  # retain rows where either margin exceeds, not both

    def __post_init__(self):
        if not 0.0 <= self.quantile_filter < 1.0:
            raise ValueError(f"quantile_filter must lie in [0, 1), got {self.quantile_filter}")
        if self.dry_threshold < 0.0:
            raise ValueError(f"dry_threshold must be >= 0, got {self.dry_threshold}")
        if self.date_col is None:
            dated = [f for f in ("month", "date_from", "date_to") if getattr(self, f) is not None]
            if dated:
                raise DataError(f"{', '.join(dated)} filters dates, but no date column is set")
        if self.month is not None and not 1 <= self.month <= 12:
            raise DataError(f"month must lie in 1..12, got {self.month}")
        for attr in ("date_from", "date_to"):
            value = getattr(self, attr)
            if isinstance(value, str):
                try:
                    object.__setattr__(self, attr, date.fromisoformat(value))
                except ValueError as exc:
                    raise DataError(f"{attr} {value!r} is not an ISO date: {exc}") from None

    def _keeps_date(self, label: date) -> bool:
        if self.month is not None and label.month != self.month:
            return False
        if self.date_from is not None and label < self.date_from:
            return False
        if self.date_to is not None and label > self.date_to:
            return False
        return True


def empirical_quantile(values: np.ndarray, p: float) -> float:
    """Order statistic at 1-based index ceil(n * p); p = 0 gives -inf."""
    if p <= 0.0:
        return -math.inf
    n = len(values)
    idx = math.ceil(n * p)
    return float(np.sort(values)[idx - 1])


def _parse_rows(spec: IngestionSpec):
    """x, y, the date ordinals and (rows read, dropped as NA/NaN, dropped by date).

    One ``csv.reader`` pass that reads rows as ``csv.DictReader`` would:
    blank lines are skipped and not counted, a short row reads its missing
    cells as "" and a repeated column name means its last occurrence.  Each
    kept row is stored as 20 bytes, not as Python objects: x and y as float64
    and its date as an int32 ``date.toordinal()`` (at most 3,652,059); the
    ordinals are empty without a date column.
    """
    na = set(spec.na_tokens)
    filters_dates = spec.month is not None or spec.date_from is not None \
        or spec.date_to is not None
    xs, ys, ordinals = array("d"), array("d"), array("i")
    n_na = n_date = 0
    try:
        fh = open(spec.path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {spec.path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{spec.path}: empty file, no header row")
        index = {name: i for i, name in enumerate(header)}
        for col in (spec.x_col, spec.y_col):
            if col not in index:
                raise DataError(f"{spec.path}: missing column {col!r} "
                                f"(available: {', '.join(header)})")
        if spec.date_col is not None and spec.date_col not in index:
            raise DataError(f"{spec.path}: missing date column {spec.date_col!r}")
        ix, iy = index[spec.x_col], index[spec.y_col]
        idate = -1 if spec.date_col is None else index[spec.date_col]
        width = max(ix, iy, idate) + 1
        row_num = 1  # 1-based, after header
        for row in reader:
            if not row:
                continue
            row_num += 1
            if len(row) < width:
                row += [""] * (width - len(row))
            raw_x = row[ix].strip()
            raw_y = row[iy].strip()
            if raw_x in na or raw_y in na:
                n_na += 1
                continue
            try:
                x = float(raw_x)
                y = float(raw_y)
            except ValueError:
                raise DataError(
                    f"{spec.path}: non-numeric cell at row {row_num} "
                    f"({spec.x_col}={raw_x!r}, {spec.y_col}={raw_y!r})"
                ) from None
            if x != x or y != y:  # NaN
                n_na += 1
                continue
            if idate >= 0:
                token = row[idate].strip()
                try:
                    label = date.fromisoformat(token)
                except ValueError:
                    raise DataError(
                        f"{spec.path}: unparseable ISO date {token!r} at row {row_num}"
                    ) from None
                if filters_dates and not spec._keeps_date(label):
                    n_date += 1
                    continue
                ordinals.append(label.toordinal())
            xs.append(x)
            ys.append(y)
    return (np.frombuffer(xs), np.frombuffer(ys), np.frombuffer(ordinals, dtype=np.intc),
            (row_num - 1, n_na, n_date))


def ingest(spec: IngestionSpec) -> BivariateSample:
    """Read, filter and return the analysable sample.

    Raises ``DataError`` when fewer than 50 rows survive the filters; the
    message gives the rows read and the rows each stage dropped.
    """
    x, y, ordinals, (n_read, n_na, n_date) = _parse_rows(spec)

    keep = (x >= spec.dry_threshold) & (y >= spec.dry_threshold)
    n_wet = int(np.count_nonzero(keep))
    if n_wet and spec.quantile_filter > 0.0:
        qx = empirical_quantile(x[keep], spec.quantile_filter)
        qy = empirical_quantile(y[keep], spec.quantile_filter)
        keep &= ((x > qx) | (y > qy)) if spec.either else ((x > qx) & (y > qy))
    x, y = x[keep], y[keep]
    n_dry, n_quantile = len(keep) - n_wet, n_wet - len(x)

    if len(x) < 50:
        raise DataError(
            f"only {len(x)} rows retained after filtering (dry threshold "
            f"{spec.dry_threshold}, quantile {spec.quantile_filter}); need at least 50. "
            f"Read {n_read} rows, dropped {n_na} NA/NaN, {n_date} by date, "
            f"{n_dry} dry, {n_quantile} by quantile"
        )
    labels = None
    if spec.date_col is not None:
        labels = tuple(map(date.fromordinal, ordinals[keep].tolist()))
    return BivariateSample(x, y, labels=labels)
