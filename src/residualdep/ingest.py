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
    na = set(spec.na_tokens)
    xs, ys, labels = [], [], []
    try:
        fh = open(spec.path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {spec.path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{spec.path}: empty file, no header row")
        for col in (spec.x_col, spec.y_col):
            if col not in reader.fieldnames:
                raise DataError(f"{spec.path}: missing column {col!r} "
                                f"(available: {', '.join(reader.fieldnames)})")
        if spec.date_col is not None and spec.date_col not in reader.fieldnames:
            raise DataError(f"{spec.path}: missing date column {spec.date_col!r}")
        for row_num, row in enumerate(reader, start=2):  # 1-based, after header
            raw_x = (row[spec.x_col] or "").strip()
            raw_y = (row[spec.y_col] or "").strip()
            if raw_x in na or raw_y in na:
                continue
            try:
                x = float(raw_x)
                y = float(raw_y)
            except ValueError:
                raise DataError(
                    f"{spec.path}: non-numeric cell at row {row_num} "
                    f"({spec.x_col}={raw_x!r}, {spec.y_col}={raw_y!r})"
                ) from None
            if math.isnan(x) or math.isnan(y):
                continue
            label = None
            if spec.date_col is not None:
                token = (row[spec.date_col] or "").strip()
                try:
                    label = date.fromisoformat(token)
                except ValueError:
                    raise DataError(
                        f"{spec.path}: unparseable ISO date {token!r} at row {row_num}"
                    ) from None
                if not spec._keeps_date(label):
                    continue
            labels.append(label)
            xs.append(x)
            ys.append(y)
    return np.asarray(xs), np.asarray(ys), labels


def ingest(spec: IngestionSpec) -> BivariateSample:
    """Read, filter and return the analysable sample.

    Raises ``DataError`` when fewer than 50 rows survive the filters.
    """
    x, y, labels = _parse_rows(spec)

    wet = (x >= spec.dry_threshold) & (y >= spec.dry_threshold)
    x, y = x[wet], y[wet]
    labels = [lab for lab, keep in zip(labels, wet) if keep]

    if len(x) and spec.quantile_filter > 0.0:
        qx = empirical_quantile(x, spec.quantile_filter)
        qy = empirical_quantile(y, spec.quantile_filter)
        if spec.either:
            keep = (x > qx) | (y > qy)
        else:
            keep = (x > qx) & (y > qy)
        x, y = x[keep], y[keep]
        labels = [lab for lab, kept in zip(labels, keep) if kept]

    if len(x) < 50:
        raise DataError(
            f"only {len(x)} rows retained after filtering (dry threshold "
            f"{spec.dry_threshold}, quantile {spec.quantile_filter}); need at least 50"
        )
    have_labels = spec.date_col is not None
    return BivariateSample(x, y, labels=tuple(labels) if have_labels else None)
