"""Parity of the columnar ``SimulationReport`` with the eager per-cell row reference.

The reference builds every ``CellResult`` row up front from the merged
moments, flags rows by their fail fraction and serialises them one value at
a time, as the report did before it kept its statistics as columns over the
path grid.  It walks its own copy of the per-path cell order rather than the
``CellGrid`` under test, and writes JSONL by the strict rule: a statistic
that is not finite is null, and an empty grid is an empty file.
"""
import hashlib
import json
import math
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residualdep.cli import main
from residualdep.estimators import EstimatorSpec, Margin
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


def ref_grid_cells(config):
    """(estimator, spec, k, k*) per cell: raw paths per margin and q, then reduced-bias
    paths per q on the shifted-Frechet margin, each over every k of the config."""
    paths = [("raw", m, q) for m in config.margins for q in config.q_grid]
    if Margin.FRECHET_SHIFTED in config.margins:
        paths += [("reduced", Margin.FRECHET_SHIFTED, q) for q in config.q_grid]
    for estimator, margin, q in paths:
        spec = EstimatorSpec.conjugate(q, margin=margin)
        for k in config.k_grid:
            kstar = config.kstar_rule.resolve(config.n, k) if estimator == "reduced" else None
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
    cells = tuple(ref_grid_cells(config))
    assert moments.count.shape[1:] == (len(config.k_grid),)
    assert moments.count.size == len(cells)
    stats = zip(mean.ravel().tolist(), bias.ravel().tolist(), variance.ravel().tolist(),
                mse.ravel().tolist())
    return tuple(
        RefCell(estimator, spec.margin.value, spec.q, spec.a, spec.b, k, k / config.n,
                kstar, *row, n_ok, config.N - n_ok)
        for (estimator, spec, k, kstar), row, n_ok in zip(cells, stats,
                                                          moments.count.ravel().tolist(),
                                                          strict=True)
    )


def ref_emit(cells, format):
    if format == "csv":
        lines = [",".join(RefCell._fields)]
        for cell in cells:
            lines.append(",".join("" if v is None else str(v) for v in cell))
        return "\n".join(lines) + "\n"
    return "".join(json.dumps({key: None if isinstance(v, float) and not math.isfinite(v) else v
                               for key, v in cell._asdict().items()}) + "\n" for cell in cells)


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
    "empty_q_grid": {"model": {"family": "frank", "theta": 0.5}, "n": 120, "N": 2,
                     "q_grid": [], "k_grid": [5, 20], "second_order": "oracle",
                     "master_seed": 47},
    "unsorted_repeated_grids": {
        "model": {"family": "amh", "theta": -1.0}, "n": 150, "N": 4,
        "q_grid": [1.5, 0.5, 1.0, 0.5], "k_grid": [30, 5, 0.1],
        "margins": ["pareto_t", "frechet_shifted", "pareto_t"], "kstar_rule": "sqrtk",
        "second_order": "oracle", "master_seed": 48},
}

# the configs whose grids hold no cell: an empty JSONL file, a CSV of its header alone
EMPTY = {"empty_k_grid", "empty_q_grid"}

# the configs with cells where more than 10% of replicates fail
FLAGGED = {"amh_oracle_all_reduced_fail", "gaussian_overflow_fixed_kstar"}


# sha256 of each config's CSV and JSONL report, pinned so that a change of any byte
# shows, whatever the reference above does; taken with numpy 2.4.6 on x86-64 (another
# numpy or platform may round a libm function differently in the last bit)
PINNED = {
    "amh_oracle_all_reduced_fail": (
        "7f76bc1fcd46106ef2078c1a00354533fa799964461979704154ae478f40ac85",
        "55a1a414ea10e0a05520ced7a46d069f2938f2c2a138769315179131052e52c3"),
    "empty_k_grid": (
        "32404f69fcc666ab87ea2f742ff5df74b9b6298dcc847fb79a898fa82d542b09",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "empty_q_grid": (
        "32404f69fcc666ab87ea2f742ff5df74b9b6298dcc847fb79a898fa82d542b09",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "frank_default_grid": (
        "824e2a963f008f5bc7918f509807e0fde7109f273984203c7ab3bd62cefd866a",
        "0268ec16151c8fd8d755edd0df603e307e6a7e71bfeb578e34677ff67315047f"),
    "gaussian_overflow_fixed_kstar": (
        "412957676ecb4ffea19ea49d21b5a6f1270790433f6396026b8379757db2e668",
        "b6ab9e1e3fcf9e4ddba2672d0ddf17c7aa23d70e4ee3070e802f05ac46336e37"),
    "pareto_t_only": (
        "f1d78718b8a95bdefba871d46c8bc35e670ac702ae69522e5621d69f1fe2ff17",
        "17c6a3c35206b72a5ac318904f4e2d78cfa68baaa7008dd7a3ccfc3ccadca000"),
    "unsorted_repeated_grids": (
        "78bb475deb46cb08794602891a054e64d38c82f2f3034a158fa1fb212776959a",
        "af4f9619b00e057125f96297d827d4861fe316b8bf7187fa42ca21ad15e5e5a5"),
}


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


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_pinned_bytes(study, format):
    name, report, _ = study
    digest = hashlib.sha256(emit_report(report, format).encode()).hexdigest()
    assert digest == PINNED[name][format == "jsonl"]


def test_cells_and_flagged(study):
    _, report, reference = study
    assert _same(report.cells, reference)
    assert _same(report.flagged, [c for c in reference if c.fail_fraction > 0.1])


def test_flagged_leaves_cells_unbuilt(study):
    _, report, reference = study
    fresh = replace(report)  # the same report, its cached rows not yet built
    assert _same(fresh.flagged, [c for c in reference if c.fail_fraction > 0.1])
    assert "cells" not in vars(fresh)


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


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_jsonl_is_strict_json(study):
    name, report, reference = study
    text = emit_report(report, "jsonl")
    rows = [json.loads(line, parse_constant=_refuse) for line in text.splitlines()]
    assert len(rows) == len(reference)
    assert (text == "") == (name in EMPTY)  # an empty grid is an empty file
    if name == "amh_oracle_all_reduced_fail":  # no ground truth, every reduced cell fails
        at = {(r["estimator"], r["q"], r["k"]): r for r in rows}
        assert at["raw", 1.0, 5]["bias"] is None and at["raw", 1.0, 5]["mean"] is not None
        assert at["reduced", 1.0, 5]["mean"] is None


# floats whose text is easy to get wrong: the non-finite ones (null in JSON), a negative
# zero, the smallest subnormal, the repr switches to and from exponent notation, and a
# sum whose repr needs all 17 digits
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-05, 1e+16, 0.1 + 0.2]
EDGE_CONFIG = {"model": {"family": "frank", "theta": 0.5}, "n": 120, "N": 3,
               "q_grid": [0.5, 1.0], "k_grid": [5, 10, 20], "second_order": "oracle",
               "master_seed": 46}


def fstring_rows(cells) -> str:
    return "".join(f"{c.estimator},{c.margin},{c.q},{c.a},{c.b},{c.k},{c.k_over_n},"
                   f"{'' if c.kstar is None else c.kstar},{c.mean},{c.bias},{c.variance},"
                   f"{c.mse},{c.n_ok},{c.n_fail}\n" for c in cells)


def json_dumps_rows(cells) -> str:
    return "".join(json.dumps({key: None if isinstance(v, float) and not math.isfinite(v) else v
                               for key, v in cell._asdict().items()}, allow_nan=False) + "\n"
                   for cell in cells)


@pytest.fixture(scope="module")
def edge_study():
    config = config_from_dict(EDGE_CONFIG)
    return config, run_study(config)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_emitted_edge_floats(edge_study, data):
    config, report = edge_study
    drawn = data.draw(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(),
                               min_size=report.stats.size - len(EDGE_FLOATS),
                               max_size=report.stats.size - len(EDGE_FLOATS)))
    n_ok = data.draw(st.lists(st.integers(0, config.N), min_size=report.n_ok.size,
                              max_size=report.n_ok.size))
    edited = replace(report, stats=np.array(EDGE_FLOATS + drawn).reshape(report.stats.shape),
                     n_ok=np.array(n_ok, dtype=np.int64).reshape(report.n_ok.shape))
    stats = zip(*edited.stats.reshape(4, -1).tolist())
    cells = [RefCell(estimator, spec.margin.value, spec.q, spec.a, spec.b, k, k / config.n,
                     kstar, *row, ok, config.N - ok)
             for (estimator, spec, k, kstar), row, ok
             in zip(ref_grid_cells(config), stats, n_ok, strict=True)]
    assert emit_report(edited, "csv") == ",".join(RefCell._fields) + "\n" + fstring_rows(cells)
    assert emit_report(edited, "jsonl") == json_dumps_rows(cells)
