"""Seeded inputs for the benchmark workloads.

Every input the program receives is generated here from the workload seed
with numpy alone, so the same seed gives byte-identical study configs and
station CSVs, and no input depends on the code under test.
"""
from __future__ import annotations

import datetime
import json
import os
from statistics import NormalDist

import numpy as np

WORKLOADS = ("sim_dense_grid", "sim_large_n", "estimate_stations")

# sim_dense_grid: the default grid (19 q x 150 k on three margins, plus the
# 19 x 150 reduced cells) for frank(0.5) at n = 500, oracle second order.
DENSE = {"family": "frank", "theta": 0.5, "n": 500, "N": 2,
         "q_grid": tuple(round(0.1 * i, 1) for i in range(1, 20)),
         "k_grid": tuple(range(1, 151)), "second_order": {"mode": "oracle"}}

# sim_large_n: amh(-1) has known (eta, tau) = (1/3, 2/3); a sparse grid of
# 4 q x 3 k fractions (36 raw + 12 reduced cells) with per-replicate
# second-order estimation on long tails.
LARGE = {"family": "amh", "theta": -1.0, "n": 20_000, "N": 48,
         "q_grid": (0.5, 1.0, 1.5, 1.9), "k_fractions": (0.01, 0.05, 0.1),
         "second_order": "per_replicate"}

MARGINS = ("pareto_t", "frechet_shifted", "frechet_unshifted")

# estimate_stations: daily rainfall at four stations, every pair analysed.
STATIONS = ("accra", "tema", "kumasi", "koforidua")
N_DAYS = 20_000
FIRST_DAY = datetime.date(1960, 1, 1)
DRY_SHARE = 0.45       # per-station probability of a dry day
NA_SHARE = 0.05        # "NA" token
EMPTY_SHARE = 0.01     # empty cell
# loadings of each station's wet-day amount on a shared weather factor; the
# pairwise Gaussian correlations are the products of two loadings
AMOUNT_LOADINGS = (0.85, 0.8, 0.75, 0.7)
WET_LOADING = 0.8


def _rng(workload: str, seed: int) -> np.random.Generator:
    salt = WORKLOADS.index(workload)
    entropy = int(seed) & (2**64 - 1)  # SeedSequence takes no negative seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([entropy, salt])))


def master_seed(workload: str, seed: int) -> int:
    return int(_rng(workload, seed).integers(0, 2**31 - 1))


def study_config(workload: str, seed: int) -> dict:
    """The JSON study config of a simulate workload."""
    if workload == "sim_dense_grid":
        return {"model": {"family": DENSE["family"], "theta": DENSE["theta"]},
                "n": DENSE["n"], "N": DENSE["N"], "margins": list(MARGINS),
                "second_order": DENSE["second_order"],
                "master_seed": master_seed(workload, seed)}
    return {"model": {"family": LARGE["family"], "theta": LARGE["theta"]},
            "n": LARGE["n"], "N": LARGE["N"], "q_grid": list(LARGE["q_grid"]),
            "k_grid": list(LARGE["k_fractions"]), "margins": list(MARGINS),
            "second_order": LARGE["second_order"],
            "master_seed": master_seed(workload, seed)}


def small_config(workload: str, seed: int) -> dict:
    """A small study of the same kind, for the worker-count invariance check."""
    config = study_config(workload, seed)
    config.update(n=600, N=9, q_grid=[0.5, 1.0, 1.5], k_grid=[10, 40, 120])
    return config


def _cell(value: float, draw: float) -> str:
    if draw < NA_SHARE:
        return "NA"
    if draw < NA_SHARE + EMPTY_SHARE:
        return ""
    return f"{value:.1f}"


def station_rows(seed: int) -> list[str]:
    """Lines of the station CSV: ISO date, then one amount (mm) per station.

    Wet days follow a shared weather state, so dry days coincide across
    stations; wet-day amounts are lognormal with Gaussian dependence and are
    rounded to 0.1 mm, which leaves ties among the retained values.
    """
    rng = _rng("estimate_stations", seed)
    s = len(STATIONS)
    wet_state = rng.standard_normal(N_DAYS)
    wet_noise = rng.standard_normal((N_DAYS, s))
    wet_latent = WET_LOADING * wet_state[:, None] + np.sqrt(1 - WET_LOADING**2) * wet_noise
    wet = wet_latent > NormalDist().inv_cdf(DRY_SHARE)
    load = np.asarray(AMOUNT_LOADINGS)
    storm = rng.standard_normal(N_DAYS)
    local = rng.standard_normal((N_DAYS, s))
    latent = load * storm[:, None] + np.sqrt(1 - load**2) * local
    amounts = np.where(wet, 1.0 + np.exp(1.6 + latent), rng.uniform(0.0, 0.9, (N_DAYS, s)))
    missing = rng.random((N_DAYS, s))

    lines = ["date," + ",".join(STATIONS)]
    for i in range(N_DAYS):
        day = (FIRST_DAY + datetime.timedelta(days=i)).isoformat()
        lines.append(day + "," + ",".join(_cell(amounts[i, j], missing[i, j]) for j in range(s)))
    return lines


def station_pairs() -> list[tuple[str, str]]:
    return [(a, b) for i, a in enumerate(STATIONS) for b in STATIONS[i + 1:]]


def write_inputs(workload: str, seed: int, out_dir: str) -> list[dict]:
    """Write the workload's inputs under ``out_dir``; return its operations.

    One round of the workload is the returned list of operations, each the
    argument list of one ``residualdep`` command and the file it writes.
    """
    os.makedirs(out_dir, exist_ok=True)
    if workload in ("sim_dense_grid", "sim_large_n"):
        path = os.path.join(out_dir, "study.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(study_config(workload, seed), fh, indent=1)
        out = os.path.join(out_dir, "cells.csv")
        return [{"argv": ["simulate", "--config", path, "--out", out, "--workers", "1"],
                 "out": out}]
    if workload != "estimate_stations":
        raise ValueError(f"unknown workload {workload!r}")
    data = os.path.join(out_dir, "stations.csv")
    with open(data, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(station_rows(seed)) + "\n")
    ops = []
    for x, y in station_pairs():
        out = os.path.join(out_dir, f"paths_{x}_{y}.csv")
        ops.append({"argv": ["estimate", "--data", data, "--x", x, "--y", y,
                             "--date-col", "date", "--reduce-bias", "--out", out],
                    "out": out})
    return ops
