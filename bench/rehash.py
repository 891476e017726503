"""Write bench/reference_hashes.json anew.

    python3 bench/rehash.py

Run from the root of a source checkout.  For each workload and each seed in
REFERENCE_SEEDS it generates the inputs, runs one round of the workload and
records the sha256 of its output (for estimate_stations, of the path files
concatenated in pair order).  ``run.py`` prints whether a run's output
matches these hashes, as information only: a change that keeps reports
byte-identical shows "same as reference"; one that moves a last digit shows
"differs", and its CHANGES.md entry gives the new hashes written here.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run  # sets one BLAS thread before numpy is imported
import inputs

REFERENCE_SEEDS = (1, 2, 3)


def main() -> int:
    run.require_source()
    from residualdep.cli import main as cli_main
    from runner import digest

    hashes = {}
    for workload in inputs.WORKLOADS:
        hashes[workload] = {}
        for seed in REFERENCE_SEEDS:
            run_dir = os.path.join(run.OUT_ROOT, f"rehash-{workload}")
            shutil.rmtree(run_dir, ignore_errors=True)
            ops = inputs.write_inputs(workload, seed, run_dir)
            for op in ops:
                if cli_main(op["argv"]) != 0:
                    sys.exit(f"error: {workload} seed {seed}: {op['argv']} failed")
            hashes[workload][str(seed)] = digest(op["out"] for op in ops)
            print(workload, seed, hashes[workload][str(seed)])
    with open(run.HASHES, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.HASHES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
