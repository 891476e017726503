import math

import numpy as np
import pytest

from residualdep import DataError, IngestionSpec, empirical_quantile, ingest


def write_csv(path, rows, header="date,station_a,station_b"):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


@pytest.fixture
def rainfall_csv(tmp_path):
    # 1000 rows, 10% NA; positively dependent margins so the joint
    # above-quantile filter keeps a workable number of rows
    rng = np.random.default_rng(515)
    rows = []
    for i in range(1000):
        day = f"2001-06-{i % 28 + 1:02d}"
        base = rng.uniform(0, 36)
        a = base + rng.uniform(0, 4)
        b = base + rng.uniform(0, 4)
        if i % 10 == 0:
            rows.append(f"{day},NA,{b:.6f}")
        else:
            rows.append(f"{day},{a:.6f},{b:.6f}")
    return write_csv(tmp_path / "rain.csv", rows)


def spec_for(path, **kw):
    defaults = dict(path=path, x_col="station_a", y_col="station_b")
    defaults.update(kw)
    return IngestionSpec(**defaults)


class TestEmpiricalQuantile:
    def test_order_statistic_at_ceil_np(self):
        values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        assert empirical_quantile(values, 0.5) == 3.0  # ceil(2.5) = 3rd smallest
        assert empirical_quantile(values, 0.2) == 1.0
        assert empirical_quantile(values, 0.21) == 2.0
        assert empirical_quantile(values, 0.0) == -math.inf


class TestIngest:
    def test_recount_oracle(self, rainfall_csv):
        sample = ingest(spec_for(rainfall_csv, dry_threshold=1.0, quantile_filter=0.9))

        # independent recount, spreadsheet style
        import csv as csvmod
        xs, ys = [], []
        with open(rainfall_csv) as fh:
            for row in csvmod.DictReader(fh):
                if row["station_a"] == "NA" or row["station_b"] == "NA":
                    continue
                x, y = float(row["station_a"]), float(row["station_b"])
                if x >= 1.0 and y >= 1.0:
                    xs.append(x)
                    ys.append(y)
        m = len(xs)
        qx = sorted(xs)[math.ceil(m * 0.9) - 1]
        qy = sorted(ys)[math.ceil(m * 0.9) - 1]
        kept = [(x, y) for x, y in zip(xs, ys) if x > qx and y > qy]

        assert sample.n == len(kept)
        assert sample.n <= 0.1 * 900 + 1
        np.testing.assert_allclose(np.sort(sample.x), np.sort([x for x, _ in kept]))

    def test_quantile_zero_only_dry_filter(self, rainfall_csv):
        sample = ingest(spec_for(rainfall_csv, quantile_filter=0.0))
        import csv as csvmod
        count = 0
        with open(rainfall_csv) as fh:
            for row in csvmod.DictReader(fh):
                if row["station_a"] == "NA" or row["station_b"] == "NA":
                    continue
                if float(row["station_a"]) >= 1.0 and float(row["station_b"]) >= 1.0:
                    count += 1
        assert sample.n == count

    def test_all_dry_insufficient(self, tmp_path):
        rows = [f"2001-06-01,{0.1 * i:.3f},{0.05 * i:.3f}" for i in range(100)]
        path = write_csv(tmp_path / "dry.csv", rows)
        with pytest.raises(DataError, match="retained"):
            ingest(spec_for(path, dry_threshold=50.0))

    def test_non_numeric_cell_reports_row(self, tmp_path):
        rows = ["2001-06-01,1.0,2.0", "2001-06-02,oops,2.0"]
        path = write_csv(tmp_path / "bad.csv", rows)
        with pytest.raises(DataError, match="row 3"):
            ingest(spec_for(path))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "cols.csv", ["2001-06-01,1.0,2.0"])
        with pytest.raises(DataError, match="missing column"):
            ingest(IngestionSpec(path=path, x_col="nope", y_col="station_b"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest(spec_for(str(tmp_path / "absent.csv")))

    def test_month_filter(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = []
        for i in range(400):
            month = 6 if i % 2 == 0 else 7
            rows.append(f"2001-{month:02d}-05,{rng.uniform(2, 9):.4f},{rng.uniform(2, 9):.4f}")
        path = write_csv(tmp_path / "months.csv", rows)
        sample = ingest(spec_for(path, date_col="date", month=6, quantile_filter=0.0))
        assert sample.n == 200
        assert all(lab.month == 6 for lab in sample.labels)

    @pytest.mark.parametrize("flt", [{"month": 6}, {"date_from": "2001-06-01"},
                                     {"date_to": "2001-06-30"}])
    def test_date_filter_needs_date_column(self, rainfall_csv, flt):
        with pytest.raises(DataError, match="no date column"):
            spec_for(rainfall_csv, **flt)

    @pytest.mark.parametrize("flt, match", [
        ({"date_from": "2001-13-01"}, "date_from '2001-13-01'"),
        ({"date_to": "June 2001"}, "date_to 'June 2001'"),
        ({"month": 0}, "month must lie in 1..12"),
        ({"month": 13}, "month must lie in 1..12"),
    ])
    def test_malformed_date_filter_is_data_error(self, rainfall_csv, flt, match):
        with pytest.raises(DataError, match=match):
            spec_for(rainfall_csv, date_col="date", **flt)

    @pytest.mark.parametrize("flt, match", [
        ({"quantile_filter": 1.5}, r"quantile_filter must lie in \[0, 1\), got 1.5"),
        ({"dry_threshold": -1}, "dry_threshold must be >= 0, got -1"),
    ])
    def test_filter_outside_its_domain(self, rainfall_csv, flt, match):
        with pytest.raises(ValueError, match=match):
            spec_for(rainfall_csv, **flt)

    def test_date_range_filter(self, tmp_path):
        rows = [f"2001-06-{i % 30 + 1:02d},{2 + 0.01 * i:.3f},{3 + 0.01 * i:.3f}"
                for i in range(300)]
        path = write_csv(tmp_path / "june.csv", rows)
        sample = ingest(spec_for(path, date_col="date", date_from="2001-06-11",
                                 date_to="2001-06-20", quantile_filter=0.0))
        assert sample.n == 100
        assert {lab.day for lab in sample.labels} == set(range(11, 21))

    def test_either_variant_keeps_more(self, rainfall_csv):
        both = ingest(spec_for(rainfall_csv))
        either = ingest(spec_for(rainfall_csv, either=True))
        assert either.n > both.n

    def test_custom_na_tokens(self, tmp_path):
        rows = ["2001-06-01,-999,5.0"] + [
            f"2001-06-{i % 28 + 1:02d},{2 + 0.01 * i:.3f},{3 + 0.01 * i:.3f}"
            for i in range(60)
        ]
        path = write_csv(tmp_path / "na.csv", rows)
        sample = ingest(spec_for(path, na_tokens=("-999",), quantile_filter=0.0))
        assert sample.n == 60
