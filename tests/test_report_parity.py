"""Parity of the columnar ``SimulationReport`` with the eager per-cell row reference.

The reference builds every ``CellResult`` row up front from the merged
moments, flags rows by their fail fraction and serialises them one value at
a time, as the report did before it kept its statistics as columns over the
path grid.
"""
import json
import math
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np
import pytest

from residualdep.cli import main
from residualdep.estimators import Margin
from residualdep.simulate import CSV_COLUMNS, _evaluate_replicate, _merge_stream, cell_grid, \
    config_from_dict, emit_report, run_study, write_report


class RefCell(NamedTuple):
    estimator: str
    margin: str
    q: float
    a: float
    b: float
    k: int
    k_over_n: float
    kstar: int | None
    mean: float
    bias: float
    variance: float
    mse: float
    n_ok: int
    n_fail: int

    @property
    def fail_fraction(self) -> float:
        total = self.n_ok + self.n_fail
        return self.n_fail / total if total else 0.0


def test_columns_match_reference():
    assert CSV_COLUMNS == RefCell._fields


def ref_grid_cells(grid):
    for estimator, spec, ks, kstars in grid:
        for k, kstar in zip(ks.tolist(), repeat(None) if kstars is None else kstars.tolist()):
            yield estimator, spec, k, kstar


def ref_cells(config) -> tuple:
    """The eager row loop: one RefCell per cell, from serially merged moments."""
    grid = cell_grid(config.margins, config.q_grid, config.k_grid, config.kstar_rule,
                     config.n, Margin.FRECHET_SHIFTED in config.margins)
    truth = config.model.true_eta if config.model.true_eta is not None else math.nan
    moments = _merge_stream(map(partial(_evaluate_replicate, config, grid), range(config.N)))
    ok = moments.count > 0
    scored = ok & math.isfinite(truth)
    mean = np.where(ok, moments.mean, math.nan)
    variance = np.where(ok, moments.m2 / np.maximum(moments.count, 1), math.nan)
    bias = np.where(scored, mean - truth, math.nan)
    mse = np.where(scored, variance + bias * bias, math.nan)
    stats = zip(mean.tolist(), bias.tolist(), variance.tolist(), mse.tolist())
    return tuple(
        RefCell(estimator, spec.margin.value, spec.q, spec.a, spec.b, k, k / config.n,
                kstar, *row, n_ok, config.N - n_ok)
        for (estimator, spec, k, kstar), row, n_ok in zip(ref_grid_cells(grid), stats,
                                                          moments.count.tolist())
    )


def ref_emit(cells, format):
    if format == "csv":
        lines = [",".join(RefCell._fields)]
        for cell in cells:
            lines.append(",".join("" if v is None else str(v) for v in cell))
        return "\n".join(lines) + "\n"
    return "\n".join(json.dumps(cell._asdict()) for cell in cells) + "\n"


def ref_warnings(cells) -> str:
    return "".join(f"warning: cell ({c.estimator}, {c.margin}, q={c.q}, k={c.k}) "
                   f"had {c.n_fail}/{c.n_fail + c.n_ok} failures\n"
                   for c in cells if c.fail_fraction > 0.1)


CONFIGS = {
    "frank_default_grid": {"model": {"family": "frank", "theta": 0.5}, "n": 500, "N": 2,
                           "master_seed": 41},
    "amh_oracle_all_reduced_fail": {
        "model": {"family": "amh", "theta": 0.3}, "n": 150, "N": 5,
        "q_grid": [0.5, 1.0, 1.5], "k_grid": [5, 0.1, 40], "second_order": "oracle",
        "master_seed": 42},
    "gaussian_overflow_fixed_kstar": {
        "model": {"family": "gaussian", "theta": 0.3}, "n": 200, "N": 3,
        "q_grid": [1e-6, 0.5, 1.0], "k_grid": [4, 9, 30, 59], "kstar_rule": "9",
        "second_order": "oracle", "master_seed": 43},
    "pareto_t_only": {
        "model": {"family": "frank", "theta": 2.0}, "n": 120, "N": 4,
        "q_grid": [0.7, 1.0, 1.3], "k_grid": [6, 12, 35], "margins": ["pareto_t"],
        "master_seed": 44},
    "empty_k_grid": {"model": {"family": "frank", "theta": 0.5}, "n": 120, "N": 2,
                     "k_grid": [], "second_order": "oracle", "master_seed": 45},
}

# the configs with cells where more than 10% of replicates fail
FLAGGED = {"amh_oracle_all_reduced_fail", "gaussian_overflow_fixed_kstar"}


def _same(a, b) -> bool:
    # repr compares NaN fields by their text, and ints apart from floats
    return repr([tuple(c) for c in a]) == repr([tuple(c) for c in b])


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def study(request):
    config = config_from_dict(CONFIGS[request.param])
    return request.param, run_study(config), ref_cells(config)


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_emitted_bytes(study, format, tmp_path):
    _, report, reference = study
    text = emit_report(report, format)
    assert text == ref_emit(reference, format)
    path = tmp_path / "cells.out"
    write_report(report, path, format)
    assert path.read_bytes() == text.encode()


def test_cells_and_flagged(study):
    _, report, reference = study
    assert _same(report.cells, reference)
    assert _same(report.flagged, [c for c in reference if c.fail_fraction > 0.1])
    for cell in report.flagged:
        assert any(cell is c for c in report.cells)


def test_rows_types(study):
    _, report, reference = study
    for row, cell in zip(report.rows(), reference):
        assert [type(v) for v in row] == [type(v) for v in cell]


def test_simulate_warnings(study, tmp_path, capsys):
    name, _, reference = study
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "cells.csv"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ref_warnings(reference)
    assert bool(captured.err) == (name in FLAGGED)  # the warnings are exercised
    assert out.read_text() == ref_emit(reference, "csv")
