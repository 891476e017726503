"""Parity of the single-pass ``csv.reader`` ingestion with a ``csv.DictReader`` reference."""
import csv
import importlib
import math
import pathlib
import sys
from datetime import date

import numpy as np
import pytest

from residualdep import BivariateSample, DataError, IngestionSpec, empirical_quantile, ingest

# the package exports the function ``ingest`` under the module's name
ingest_module = importlib.import_module("residualdep.ingest")

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import inputs as bench_inputs  # noqa: E402


def dictreader_parse_rows(spec: IngestionSpec):
    """The row loop over ``csv.DictReader`` that the single pass replaced."""
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


def dictreader_ingest(spec: IngestionSpec):
    """``ingest`` over the reference row loop."""
    x, y, labels = dictreader_parse_rows(spec)
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


def outcome(ingest_fn, spec):
    """What ``ingest_fn`` returns or raises, in comparable form.

    The "rows retained" message is cut before the per-stage counts, which
    the reference does not give.
    """
    try:
        sample = ingest_fn(spec)
    except DataError as exc:
        return "error", str(exc).split(". Read ")[0]
    return "ok", sample.x.tobytes(), sample.y.tobytes(), sample.labels


@pytest.fixture(scope="module")
def station_csvs(tmp_path_factory):
    root = tmp_path_factory.mktemp("stations")
    paths = {}
    for seed in (1, 2):
        path = root / f"stations_{seed}.csv"
        path.write_text("\n".join(bench_inputs.station_rows(seed)) + "\n")
        paths[seed] = str(path)
    return paths


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("filters", [{}, {"month": 6, "quantile_filter": 0.5},
                                     {"date_from": "1970-03-01", "date_to": "1991-10-31",
                                      "either": True}])
def test_station_pairs_match_dictreader(station_csvs, seed, filters):
    kinds = set()
    for x_col, y_col in bench_inputs.station_pairs():
        spec = IngestionSpec(path=station_csvs[seed], x_col=x_col, y_col=y_col,
                             date_col="date", **filters)
        new = outcome(ingest, spec)
        assert new == outcome(dictreader_ingest, spec)
        kinds.add(new[0])
    assert "ok" in kinds


EDGE_ROWS = [
    "date,a,b,a,note",
    "2001-01-01,9.0,1.0,2.5,plain",
    "",
    "2001-01-02,9.0,1.0,  3.5  ,padded",
    "2001-01-03,9.0,1.0,4.5",                      # long enough for the last a
    "2001-01-04,9.0,1.0",                          # short: the last a reads as NA
    "2001-01-05,9.0,1.0,nan,nan text",
    "2001-01-06,9.0,-nan,5.5,-nan text",
    "",
    "",
    '2001-01-07,9.0,"1,5",6.5,quoted comma',       # b is non-numeric
    '"2001-01-08",9.0,7.5,7.5,"quoted, cell",extra,cells',
    " 2001-01-09 ,9.0, 8.5 ,8.5,padded date",
]


@pytest.mark.parametrize("x_col,y_col,kw", [
    ("a", "note", {}),                             # non-numeric note at row 2
    ("a", "b", {}),                                # "1,5" at row 8, after blank lines
    ("a", "b", {"date_to": "2001-01-06"}),         # a row the date filter drops still raises
    ("b", "a", {"date_col": None}),
    ("a", "date", {}),                             # date cells are non-numeric
    ("a", "missing", {}),
    ("a", "b", {"date_col": "missing"}),
])
def test_edge_case_csv_matches_dictreader(tmp_path, x_col, y_col, kw):
    path = tmp_path / "edge.csv"
    path.write_text("\n".join(EDGE_ROWS) + "\n")
    opts = dict(date_col="date", dry_threshold=0.0, quantile_filter=0.0)
    opts.update(kw)
    spec = IngestionSpec(path=str(path), x_col=x_col, y_col=y_col, **opts)
    assert outcome(ingest, spec) == outcome(dictreader_ingest, spec)


def test_edge_case_rows_parse_as_dictreader(tmp_path):
    # the rows each parser keeps before the 50-row floor applies
    path = tmp_path / "edge.csv"
    path.write_text("\n".join(EDGE_ROWS[:10] + EDGE_ROWS[11:]) + "\n")
    spec = IngestionSpec(path=str(path), x_col="b", y_col="a", date_col="date")
    x, y, labels = ingest_module._parse_rows(spec)[:3]
    rx, ry, rlabels = dictreader_parse_rows(spec)
    labels = list(map(date.fromordinal, labels))
    assert (x.tobytes(), y.tobytes(), labels) == (rx.tobytes(), ry.tobytes(), rlabels)
    assert y.tolist() == [2.5, 3.5, 4.5, 7.5, 8.5]


@pytest.mark.parametrize("text", ["", "date,a,b\n", "\ndate,a,b\n2001-01-01,1,2\n",
                                  "date,a,b\n\n\n"])
def test_degenerate_files_match_dictreader(tmp_path, text):
    path = tmp_path / "degenerate.csv"
    path.write_text(text)
    spec = IngestionSpec(path=str(path), x_col="a", y_col="b", date_col="date")
    result = outcome(ingest, spec)
    assert result[0] == "error"
    assert result == outcome(dictreader_ingest, spec)


def test_filter_counts_in_retained_error(tmp_path):
    lines = ["date,a,b"]
    for i in range(200):
        day = date(2001, 1, 1).toordinal() + i
        a = "NA" if i < 10 else ("nan" if i < 15 else f"{2.0 + i % 37}")
        b = f"{0.5 if 15 <= i < 55 else 3.0 + i % 37}"
        lines.append(f"{date.fromordinal(day)},{a},{b}")
        if i % 50 == 0:
            lines.append("")
    path = tmp_path / "stages.csv"
    path.write_text("\n".join(lines) + "\n")
    # 10 NA + 5 NaN; 40 dry (b = 0.5); days from 2001-07-01 (index 181) on are cut
    spec = IngestionSpec(path=str(path), x_col="a", y_col="b", date_col="date",
                         date_to="2001-06-30")
    with pytest.raises(DataError) as exc:
        ingest(spec)
    message = str(exc.value)
    retained = int(message.split()[1])
    assert message.startswith(f"only {retained} rows retained after filtering "
                              "(dry threshold 1.0, quantile 0.9); need at least 50. ")
    assert message.endswith(f"Read 200 rows, dropped 15 NA/NaN, 19 by date, 40 dry, "
                            f"{200 - 15 - 19 - 40 - retained} by quantile")
    assert 0 < retained < 50
