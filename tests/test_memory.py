"""Peak memory that does not grow with the input.

``ingest`` keeps each parsed row as 20 bytes of typed columns, not as Python
floats and dates, ``write_report`` turns one path of the report into
Python objects at a time, not the whole (4, paths, k) statistics table, and a
study's replicates sample, rank, estimate second order and run the kernel in buffers
that the study allocates once.  The guards measure the Python heap with ``tracemalloc``,
which counts the bytes each allocation asks for (numpy's arrays included), so
the figures repeat from run to run.
"""
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from residualdep import IngestionSpec, config_from_dict, ingest, run_study
from residualdep._workspace import Workspace
from residualdep.simulate import _evaluate_replicate, cell_grid, write_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import inputs as bench_inputs  # noqa: E402

# Ingestion stores 8 + 8 bytes of float64 (x, y) and 4 bytes of int32 date ordinal per
# row.  ``array`` over-allocates by at most 1/16 of its length, which makes 21.25 bytes.
# The filters then hold at most 18 bytes per row more: the wet-row copy that the
# quantile sorts and its sorted copy (8 + 8) and two boolean masks.  The file buffer and
# one live ``csv`` row are a constant below 1 byte per row at 20,000 rows.  So the peak
# is at most about 41 bytes per row; the bound is 3 x 20 = 60.  Python floats and
# dates for every row, as the lists the parse kept before, take about 109.
INGEST_BYTES_PER_ROW = 3 * (8 + 8 + 4)

# One path of the default grid has 150 rows.  Per row it holds four float statistics
# (24 bytes each) and six list slots (8 bytes each), and its CSV line (under 200
# characters, a str of 49 bytes of header plus one per character) twice: in the list
# that the path's join reads and in the joined text.  That makes
# 150 * (4 * 24 + 6 * 8 + 2 * (49 + 200)) = 96,300 bytes for one path.  The k fields
# that every path shares, the file buffer (8 KB) and the working memory of the
# interpreter come to less than that again, so the bound is four paths' worth.  The
# whole table as Python floats, 4 * 11,400 of them at 32 bytes with their list slots,
# needs 1.46 MB on its own.
ONE_PATH_BYTES = 150 * (4 * 24 + 6 * 8 + 2 * (49 + 200))
REPORT_PEAK_BYTES = 4 * ONE_PATH_BYTES

# A replicate in its study's workspace writes every length-n sample, rank, tail and
# temporary there.  What it may still allocate per row is argsort's indices (8 bytes;
# one margin's are freed before the other is sorted) and the boolean masks of the NaN
# checks on x and y (1 byte each), 10 bytes in all.  The kernel's arrays on a grid of
# 2 q and two small k, the estimates and the Python objects take a constant far below
# that at n = 20,000, so the bound is 2 x 10 = 20.  Sampling, ranking and second-order
# estimation in new arrays, as each replicate did before, take about 95.
REPLICATE_BYTES_PER_ROW = 2 * (8 + 1 + 1)

# The large-n benchmark grid: amh(-1), n = 20,000, four q and k/n of 0.01, 0.05 and
# 0.1 on three margins.  The kernel reads the top 2,001 values of each margin, and its
# stacked tails, excesses, (12 rows, 2,000) terms and two (12 rows, 3 k) arrays, 289 KB
# in all, are the study's workspace buffers too.  What a warm replicate may still
# allocate is argsort's indices and the two NaN-check masks, 10 bytes per row as above,
# and arrays of (rows, len(ks)) or (paths, len(ks)) entries (the kernel's result, the
# paths' estimates, the reduced-bias correction): at most 16 x 3 floats of 8 bytes,
# 384 bytes and a 112-byte header each, and fewer than 16 of them alive at once, so
# under 8 KB; the Python objects of the call take another few KB.  The bound is the 10
# bytes per row plus 16 KB.  The kernel's (rows, k) temporaries in new arrays, as each replicate had
# before, take about 19 bytes per row.
LARGE_N_GRID_BYTES = 20_000 * (8 + 1 + 1) + 16 * 1024


def _peak(call):
    call()  # warm caches and lazy imports outside the measurement
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("seed", [3, 29])
def test_ingest_peak_per_row_read(tmp_path, seed):
    path = tmp_path / "stations.csv"
    path.write_text("\n".join(bench_inputs.station_rows(seed)) + "\n")
    spec = IngestionSpec(path=str(path), x_col="accra", y_col="tema", date_col="date")
    peak = _peak(lambda: ingest(spec))
    assert peak / bench_inputs.N_DAYS < INGEST_BYTES_PER_ROW, peak


def test_report_peak_is_a_few_paths(tmp_path):
    config = config_from_dict({
        "model": {"family": "frank", "theta": 0.5}, "n": 500, "N": 2, "master_seed": 11,
        "margins": ["pareto_t", "frechet_shifted", "frechet_unshifted"]})
    report = run_study(config)
    assert report.n_ok.shape == (76, 150)  # the default 11,400-cell grid
    out = tmp_path / "cells.csv"
    peak = _peak(lambda: write_report(report, out))
    assert max(map(len, out.read_text().splitlines())) < 200
    assert peak < REPORT_PEAK_BYTES, peak


def test_replicate_peak_in_its_workspace():
    config = config_from_dict({
        "model": {"family": "amh", "theta": -1.0}, "n": 20_000, "N": 4, "master_seed": 5,
        "q_grid": [0.5, 1.0], "k_grid": [50, 200], "second_order": "per_replicate",
        "margins": ["pareto_t", "frechet_shifted", "frechet_unshifted"]})
    grid = cell_grid(config.margins, config.q_grid, config.k_grid, config.kstar_rule,
                     config.n, True)
    workspace = Workspace(config.n)
    _evaluate_replicate(config, grid, 0, workspace)  # warm: first-call costs are not per replicate
    for r in (1, 2):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            etas = _evaluate_replicate(config, grid, r, workspace)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert np.isfinite(etas).all()  # second order and every kernel call succeeded
        assert peak / config.n < REPLICATE_BYTES_PER_ROW, peak


def test_replicate_peak_on_the_large_n_grid():
    config = config_from_dict({
        "model": {"family": "amh", "theta": -1.0}, "n": 20_000, "N": 4, "master_seed": 5,
        "q_grid": [0.5, 1.0, 1.5, 1.9], "k_grid": [0.01, 0.05, 0.1],
        "second_order": "per_replicate",
        "margins": ["pareto_t", "frechet_shifted", "frechet_unshifted"]})
    grid = cell_grid(config.margins, config.q_grid, config.k_grid, config.kstar_rule,
                     config.n, True)
    assert grid.ks.tolist() == [200, 1000, 2000] and len(grid.kernel.a) == 12
    workspace = Workspace(config.n)
    _evaluate_replicate(config, grid, 0, workspace)  # warm: the workspace sizes its buffers
    for r in (1, 2):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            etas = _evaluate_replicate(config, grid, r, workspace)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert np.isfinite(etas).all()  # second order and every kernel row succeeded
        assert peak < LARGE_N_GRID_BYTES, peak


def test_package_import_loads_no_logging():
    # only the jitter tie policy logs, and it imports logging when it runs
    script = ("import sys, numpy; before = 'logging' in sys.modules; import residualdep.cli; "
              "assert ('logging' in sys.modules) == before, 'logging imported'")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
