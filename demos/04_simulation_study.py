"""A desk-scale Monte Carlo study end to end, library and CLI routes.

Runs 200 replicates of the Frank model over a q x k grid, writes the cell
table, and prints the headline aggregates.  The same study is expressible
as a JSON config for the command-line tool; this script writes one next
to the CSV so you can rerun it with:

    residualdep simulate --config frank_study.json --out cells.csv --workers 4
"""
import json

import numpy as np

from residualdep import CopulaModel, SecondOrderSpec, StudyConfig, emit_report, \
    run_study, write_report

config = StudyConfig(
    model=CopulaModel("frank", 0.5),
    n=500,
    N=200,
    q_grid=(0.5, 0.9, 1.0, 1.1, 1.5),
    k_grid=(0.02, 0.05, 0.1, 0.2),       # fractions of n, floored
    kstar_rule="pow0.3",
    master_seed=2026,
    second_order=SecondOrderSpec(mode="oracle"),  # model truth tau, beta = 0
)

report = run_study(config, workers=1)
write_report(report, "frank_cells.csv")
print(f"study hash {report.config.config_hash()}, seed {report.config.master_seed}; "
      f"{len(report.cells)} cells -> frank_cells.csv")
if report.flagged:
    print(f"{len(report.flagged)} cells had >10% replicate failures")

truth = config.model.true_eta
print(f"\nHill rows (q = 1), truth eta = {truth}:")
print(f"{'margin':<20}{'k':>5}{'mean':>9}{'bias':>9}{'rmse':>9}")
for cell in report.cells:
    if cell.q == 1.0 and cell.estimator == "raw":
        print(f"{cell.margin:<20}{cell.k:>5}{cell.mean:>9.4f}"
              f"{cell.bias:>+9.4f}{np.sqrt(cell.mse):>9.4f}")

print("\nReduced-bias rows at q = 0.9:")
for cell in report.cells:
    if cell.q == 0.9 and cell.estimator == "reduced":
        print(f"  k={cell.k:<4} kstar={cell.kstar:<3} mean={cell.mean:.4f} "
              f"bias={cell.bias:+.4f}")

# the equivalent CLI study config
cli_config = {
    "model": {"family": "frank", "theta": 0.5},
    "n": 500,
    "N": 200,
    "q_grid": [0.5, 0.9, 1.0, 1.1, 1.5],
    "k_grid": [0.02, 0.05, 0.1, 0.2],
    "kstar_rule": "pow0.3",
    "master_seed": 2026,
    "second_order": {"mode": "oracle"},
}
with open("frank_study.json", "w", encoding="utf-8") as fh:
    json.dump(cli_config, fh, indent=2)
print("\nwrote frank_study.json (CLI twin of this study)")

# determinism: the CSV is byte-stable under any worker count
assert emit_report(run_study(config, workers=4)) == emit_report(report)
print("determinism check passed: workers=4 reproduces workers=1 byte for byte")
