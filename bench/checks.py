"""Correctness checks of each workload's outputs.

They compare the program's outputs with computations made here, apart from
the program, and with properties of the method; none compares with a stored
copy of earlier output.  Each check returns a list of failure messages.

The simulate recomputation draws samples through the public
``replicate_generator``/``sample_copula`` (the sampler is not under test
here) and computes ranks, pseudo-observations, the M_{a,b} kernel, the
second-order estimates and the reduced-bias correction in its own numpy code.
"""
from __future__ import annotations

import csv
import math

import numpy as np
from scipy.stats import rankdata

import inputs

REL_MEAN = 1e-12   # recomputed cell means and Hill paths
REL_MSE = 1e-9     # mse = variance + bias^2
CSV_COLUMNS = ["estimator", "margin", "q", "a", "b", "k", "k_over_n", "kstar",
               "mean", "bias", "variance", "mse", "n_ok", "n_fail"]

# (estimator, margin, q, k) cells recomputed per workload: q = 1 and one
# q != 1 on each margin, plus reduced cells
RECOMPUTED = {
    "sim_dense_grid": [
        ("raw", "pareto_t", 1.0, 75), ("raw", "pareto_t", 0.3, 150),
        ("raw", "frechet_shifted", 1.0, 1), ("raw", "frechet_shifted", 1.6, 40),
        ("raw", "frechet_unshifted", 1.0, 150), ("raw", "frechet_unshifted", 0.1, 12),
        ("reduced", "frechet_shifted", 1.0, 150), ("reduced", "frechet_shifted", 0.5, 64),
        ("reduced", "frechet_shifted", 1.9, 9),
    ],
    "sim_large_n": [
        ("raw", "pareto_t", 1.0, 2000), ("raw", "pareto_t", 1.5, 200),
        ("raw", "frechet_shifted", 1.0, 1000), ("raw", "frechet_shifted", 0.5, 2000),
        ("raw", "frechet_unshifted", 1.0, 200), ("raw", "frechet_unshifted", 1.9, 1000),
        ("reduced", "frechet_shifted", 1.0, 2000), ("reduced", "frechet_shifted", 0.5, 200),
        ("reduced", "frechet_shifted", 1.9, 1000),
    ],
}


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def _read_rows(path: str) -> tuple[list, list]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


# --- independent computations ----------------------------------------------

def pseudo_sorted(x, y) -> dict:
    """Sorted T, V and V* from first-occurrence ordinal ranks."""
    n = len(x)
    rmin = np.minimum(rankdata(x, method="ordinal"), rankdata(y, method="ordinal"))
    t = (n + 1.0) / (n + 1.0 - rmin)
    v = -1.0 / np.log(rmin / (n + 1.0))
    return {"pareto_t": np.sort(t), "frechet_unshifted": np.sort(v),
            "frechet_shifted": np.sort(v) + 0.5}


def m_ab(z: np.ndarray, k: int, a: float, b: float) -> float:
    """M_{a,b} over the top k of ascending z, straight from its definition."""
    ratios = z[len(z) - k:] / z[len(z) - k - 1]
    log_a = np.mean(np.log(ratios)) if a == 0.0 else math.log(np.mean(ratios ** a)) / a
    return float(log_a) if b == 0.0 else math.expm1(b * log_a) / b


def second_order(t_sorted: np.ndarray) -> tuple[float, float]:
    """(tau, beta): statistics-ratio tau and scaled-log-spacings beta at
    k0 = [n^0.999] on the T order statistics."""
    n = len(t_sorted)
    k0 = min(int(n ** 0.999), n - 1)
    log_t = np.log(t_sorted)
    excess = log_t[n - k0:] - log_t[n - k0 - 1]
    m1, m2, m3 = (float(np.mean(excess ** p)) for p in (1, 2, 3))
    ratio = (math.log(m1) - 0.5 * math.log(m2 / 2.0)) / \
        (0.5 * math.log(m2 / 2.0) - math.log(m3 / 6.0) / 3.0)
    tau = abs(3.0 * (ratio - 1.0) / (ratio - 3.0))
    i = np.arange(1, k0 + 1)
    desc = log_t[::-1]
    spacings = i * (desc[:k0] - desc[1:k0 + 1])
    w = (i / k0) ** tau
    d_rho = float(np.mean(w))
    d0 = float(np.mean(spacings))
    dr = float(np.mean(w * spacings))
    d2r = float(np.mean(w * w * spacings))
    beta = (k0 / n) ** (-tau) * (d_rho * d0 - dr) / (d_rho * dr - d2r)
    return tau, beta


def reduced(seqs: dict, n: int, k: int, a: float, tau: float, beta: float) -> float:
    """The reduced-bias estimate on V*, k* = [n^0.3] (at least 10) capped at sqrt(k)."""
    kstar = max(1, min(max(int(n ** 0.3), 10), math.isqrt(k), n - 1))
    eta_s = m_ab(seqs["frechet_shifted"], k, a, -a)
    v_kstar = seqs["frechet_unshifted"][n - 1 - kstar]
    factor = (1.0 - a * eta_s) / (1.0 - a * eta_s + tau)
    return eta_s * (1.0 - (beta * (n / k) ** (-tau) + 1.0 / (1.0 + 2.0 * v_kstar)) * factor)


# --- simulate ----------------------------------------------------------------

def _grid(workload: str) -> tuple[list, list, int, int]:
    if workload == "sim_dense_grid":
        d = inputs.DENSE
        return list(d["q_grid"]), list(d["k_grid"]), d["n"], d["N"]
    d = inputs.LARGE
    ks = sorted({int(d["n"] * f) for f in d["k_fractions"]})
    return list(d["q_grid"]), ks, d["n"], d["N"]


def check_study(workload: str, seed: int, path: str) -> list[str]:
    errors = []
    header, rows = _read_rows(path)
    if header != CSV_COLUMNS:
        return [f"{path}: header {header} != {CSV_COLUMNS}"]
    q_grid, k_grid, n, big_n = _grid(workload)
    expected = {("raw", m, q, k) for m in inputs.MARGINS for q in q_grid for k in k_grid}
    expected |= {("reduced", "frechet_shifted", q, k) for q in q_grid for k in k_grid}
    cells = {}
    for row in rows:
        rec = dict(zip(CSV_COLUMNS, row))
        cells[(rec["estimator"], rec["margin"], float(rec["q"]), int(rec["k"]))] = rec
    if len(rows) != len(expected) or set(cells) != expected:
        errors.append(f"{path}: {len(rows)} rows, {len(cells)} distinct cells; "
                      f"the configured grid has {len(expected)}")
    for key, rec in cells.items():
        n_ok, n_fail = int(rec["n_ok"]), int(rec["n_fail"])
        if n_ok + n_fail != big_n:
            errors.append(f"{key}: n_ok + n_fail = {n_ok + n_fail} != N = {big_n}")
        if n_ok > 0:
            mse, var, bias = float(rec["mse"]), float(rec["variance"]), float(rec["bias"])
            if not _rel(mse, var + bias * bias) <= REL_MSE:
                errors.append(f"{key}: mse {mse!r} != variance + bias^2 {var + bias * bias!r}")
    errors += _recompute_means(workload, seed, cells, n, big_n)
    return errors


def _recompute_means(workload, seed, cells, n, big_n) -> list[str]:
    from residualdep.copulas import CopulaModel, replicate_generator, sample_copula

    config = inputs.study_config(workload, seed)
    model = CopulaModel(config["model"]["family"], config["model"]["theta"])
    targets = RECOMPUTED[workload]
    values = {cell: [] for cell in targets}
    for r in range(big_n):
        u, v = sample_copula(model, n, replicate_generator(config["master_seed"], r))
        seqs = pseudo_sorted(u, v)
        if workload == "sim_large_n":
            tau, beta = second_order(seqs["pareto_t"])
        else:  # oracle for frank: eta = tau = 1/2, so the effective tau is eta
            tau, beta = 0.5, 0.0
        for cell in targets:
            estimator, margin, q, k = cell
            a = 1.0 - 1.0 / q
            if estimator == "raw":
                values[cell].append(m_ab(seqs[margin], k, a, -a))
            else:
                values[cell].append(reduced(seqs, n, k, a, tau, beta))
    errors = []
    for cell, vals in values.items():
        vals = np.asarray(vals)
        ok = np.isfinite(vals)
        rec = cells.get(cell)
        if rec is None:
            continue  # already reported as a grid mismatch
        if int(rec["n_ok"]) != int(ok.sum()):
            errors.append(f"{cell}: n_ok {rec['n_ok']} != recomputed {int(ok.sum())}")
            continue
        mine = float(np.mean(vals[ok]))
        if not _rel(float(rec["mean"]), mine) <= REL_MEAN:
            errors.append(f"{cell}: mean {rec['mean']} != recomputed {mine!r}")
        if rec["estimator"] == "reduced":
            kstar = max(1, min(max(int(n ** 0.3), 10), math.isqrt(cell[3]), n - 1))
            if int(rec["kstar"]) != kstar:
                errors.append(f"{cell}: kstar {rec['kstar']} != {kstar}")
    return errors


# --- estimate ----------------------------------------------------------------

def retained(data_path: str, x_col: str, y_col: str, dry: float = 1.0,
             p_num: int = 9, p_den: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Rows kept by the NA, dry-day, ceil(n p)-quantile and both-exceed filters."""
    xs, ys = [], []
    with open(data_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ix, iy = header.index(x_col), header.index(y_col)
        for row in reader:
            tx, ty = row[ix].strip(), row[iy].strip()
            if tx in ("NA", "") or ty in ("NA", ""):
                continue
            x, y = float(tx), float(ty)
            if x >= dry and y >= dry:
                xs.append(x)
                ys.append(y)
    m = len(xs)
    idx = -(-m * p_num // p_den)  # ceil(m p), exactly
    qx, qy = sorted(xs)[idx - 1], sorted(ys)[idx - 1]
    keep = [(x, y) for x, y in zip(xs, ys) if x > qx and y > qy]
    return np.array([x for x, _ in keep]), np.array([y for _, y in keep])


def check_paths(data_path: str, x_col: str, y_col: str, path: str) -> list[str]:
    errors = []
    x, y = retained(data_path, x_col, y_col)
    n = len(x)
    k_max = min(max(1, 3 * n // 10), n - 1)
    hill = pseudo_sorted(x, y)["frechet_shifted"]
    header, rows = _read_rows(path)
    cols = ["q", "k", "k_over_n", "eta", "ci_low", "ci_high", "margin", "reduced"]
    if header != cols:
        return [f"{path}: header {header} != {cols}"]
    raw_ks = {}
    for row in rows:
        rec = dict(zip(cols, row))
        q, k, eta = float(rec["q"]), int(rec["k"]), float(rec["eta"])
        if not 1 <= k <= k_max or rec["k_over_n"] != f"{k / n:g}":
            errors.append(f"{path}: row k={k}, k/n={rec['k_over_n']} does not fit "
                          f"n = {n} retained rows")
        if rec["ci_low"] and rec["ci_high"] and \
                not float(rec["ci_low"]) <= eta <= float(rec["ci_high"]):
            errors.append(f"{path}: CI [{rec['ci_low']}, {rec['ci_high']}] misses eta {eta!r}")
        if rec["reduced"] == "false":
            raw_ks.setdefault(q, []).append(k)
            if q == 1.0 and 1 <= k <= k_max and \
                    not _rel(eta, m_ab(hill, k, 0.0, 0.0)) <= REL_MEAN:
                errors.append(f"{path}: Hill at k={k} is {eta!r}, "
                              f"recomputed {m_ab(hill, k, 0.0, 0.0)!r}")
    for q, ks in raw_ks.items():
        if ks != list(range(1, k_max + 1)):
            errors.append(f"{path}: q={q} path has k = {ks[0]}..{ks[-1]} ({len(ks)} rows), "
                          f"expected 1..{k_max}")
    if sorted(raw_ks) != [0.5, 1.0, 1.5]:
        errors.append(f"{path}: raw paths for q = {sorted(raw_ks)}, expected 0.5, 1, 1.5")
    return errors
