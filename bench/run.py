"""Benchmark of the residualdep command line: one workload, one run.

    python3 bench/run.py --workload sim_dense_grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run generates the workload's inputs from the seed under
``.bench_out/``, times set-up (a fresh interpreter importing
``residualdep.cli``), runs the workload in a fresh process with one worker
and one BLAS thread for the given seconds, checks the outputs, and prints
the metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS/OpenMP thread in this process and every process it starts
ONE_THREAD = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(ONE_THREAD)

# numpy must be loaded after the thread variables are set
import checks  # noqa: E402
import inputs  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_ROOT = ".bench_out"
# fresh interpreters timed before and after the workload; the median of all
# is reported, so one slow moment of a shared machine does not set it
SETUP_REPEATS = 5
CHILD_GRACE_S = 120        # a runner still alive this long after --seconds is killed
MAX_PRINTED_ERRORS = 20
HASHES = os.path.join(BENCH_DIR, "reference_hashes.json")


def child_env() -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH_DIR
    return env


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "residualdep", "cli.py")):
        sys.exit(f"error: no src/residualdep/cli.py under {ROOT}; "
                 "run from the root of a residualdep checkout")
    sys.path[:0] = [SRC, BENCH_DIR]
    import residualdep
    if not os.path.abspath(residualdep.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: residualdep imported from {residualdep.__file__}, not {SRC}")


def measure_setup(repeats: int) -> list[float]:
    """Wall seconds of fresh interpreters each importing residualdep.cli."""
    cmd = [sys.executable, "-c", "import residualdep.cli"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_rounds(plan: dict, run_dir: str) -> dict:
    plan_path = os.path.join(run_dir, "plan.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "runner.py"), plan_path,
                    result_path], env=child_env(), check=True,
                   timeout=plan["seconds"] + CHILD_GRACE_S)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def worker_invariance(workload: str, seed: int, run_dir: str) -> list[str]:
    """A small study of the workload's kind gives the same bytes on 1 and 2 workers."""
    config = os.path.join(run_dir, "small.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(inputs.small_config(workload, seed), fh)
    outs = []
    for workers in (1, 2):
        out = os.path.join(run_dir, f"small_w{workers}.csv")
        subprocess.run([sys.executable, "-m", "residualdep.cli", "simulate", "--config",
                        config, "--out", out, "--workers", str(workers)],
                       env=child_env(), check=True, timeout=CHILD_GRACE_S)
        with open(out, "rb") as fh:
            outs.append(fh.read())
    return [] if outs[0] == outs[1] else [
        f"{workload}: small study differs between --workers 1 and --workers 2"]


def check_outputs(workload: str, seed: int, ops: list, result: dict, run_dir: str):
    """Correctness errors of the run, and Sum n_fail over the study report."""
    errors = []
    digests = {r["sha256"] for r in result["rounds"]}
    if len(digests) != 1:
        errors.append(f"{workload}: rounds wrote {len(digests)} different outputs")
    # the checks speak of the operations that did not fail
    ok = [code == 0 for code in result["rounds"][-1]["codes"]]
    cells_failed = 0
    if workload == "estimate_stations":
        data = ops[0]["argv"][ops[0]["argv"].index("--data") + 1]
        for op, (x, y), good in zip(ops, inputs.station_pairs(), ok):
            if good:
                errors += checks.check_paths(data, x, y, op["out"])
    elif ok[0]:
        errors += checks.check_study(workload, seed, ops[0]["out"])
        errors += worker_invariance(workload, seed, run_dir)
        with open(ops[0]["out"], encoding="utf-8") as fh:
            next(fh)
            cells_failed = sum(int(line.rsplit(",", 1)[1]) for line in fh)
    return errors, cells_failed


def estimates_per_round(workload: str, ops: list) -> int:
    """eta estimates per round: cells x replicates, or path rows written."""
    if workload == "estimate_stations":
        rows = 0
        for op in ops:
            if os.path.exists(op["out"]):  # a failed operation writes nothing
                with open(op["out"], encoding="utf-8") as fh:
                    rows += sum(1 for _ in fh) - 1
        return rows
    with open(ops[0]["out"], encoding="utf-8") as fh:
        cells = sum(1 for _ in fh) - 1
    return cells * (inputs.DENSE if workload == "sim_dense_grid" else inputs.LARGE)["N"]


def end_to_end(workload, ops, result, setup) -> dict:
    rounds = [r for r in result["rounds"] if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in rounds)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "estimates_per_s": (estimates_per_round(workload, ops) / wall, "1/s"),
    }


def per_layer(workload, result, cells_failed) -> dict:
    traced = [r for r in result["rounds"] if r["traced"]]
    untraced = [r for r in result["rounds"] if not r["traced"]]

    def med(name, key="self_s"):
        return statistics.median(r["layers"][name][key] for r in traced)

    ingest_s = med("ingest.ingest")
    ingest_rows = med("ingest.ingest", "calls") * inputs.N_DAYS
    return {
        "copulas.sample_s": (med("copulas.sample"), "s"),
        "copulas.sample_calls": (med("copulas.sample", "calls"), "count"),
        "pseudo.from_sample_s": (med("pseudo.from_sample"), "s"),
        "pseudo.from_sample_calls": (med("pseudo.from_sample", "calls"), "count"),
        "estimators.eta_hat_s": (med("estimators.eta_hat"), "s"),
        "estimators.eta_hat_calls": (med("estimators.eta_hat", "calls"), "count"),
        "estimators.tail_values": (med("estimators.eta_hat", "work"), "count"),
        "bias.reduced_bias_s": (med("bias.reduced_bias"), "s"),
        "bias.reduced_bias_calls": (med("bias.reduced_bias", "calls"), "count"),
        "bias.reduced_bias_raised": (med("bias.reduced_bias", "raised"), "count"),
        "bias.second_order_s": (med("bias.second_order"), "s"),
        "simulate.run_study_self_s": (med("simulate.run_study"), "s"),
        "simulate.emit_s": (med("simulate.emit"), "s"),
        "simulate.cells_failed": (cells_failed, "count"),
        "ingest.ingest_s": (ingest_s, "s"),
        "ingest.rows_per_s": (ingest_rows / ingest_s if ingest_s else 0.0, "1/s"),
        "cli.self_s": (med("cli.main"), "s"),
        "trace.overhead_s": (statistics.median(r["wall_s"] for r in traced)
                             - statistics.median(r["wall_s"] for r in untraced), "s"),
    }


def reference_note(workload: str, seed: int, digest: str) -> str:
    try:
        with open(HASHES, encoding="utf-8") as fh:
            ref = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        ref = None
    if ref is None:
        return "no reference for this seed"
    return "same as reference" if ref == digest else f"differs from reference {ref}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()

    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ops = inputs.write_inputs(args.workload, args.seed, run_dir)
    setup = []
    if not args.trace:
        measure_setup(1)  # not timed: fills the file cache and writes the bytecode
        setup = measure_setup(SETUP_REPEATS)
    plan = {"ops": ops, "seconds": args.seconds, "trace": bool(args.trace), "dir": run_dir}
    result = run_rounds(plan, run_dir)
    if not args.trace:
        setup += measure_setup(SETUP_REPEATS)
    try:
        errors, cells_failed = check_outputs(args.workload, args.seed, ops, result, run_dir)
    except Exception as exc:  # a broken output must be reported, not end the run
        errors, cells_failed = [f"checks could not run: {exc!r}"], 0

    rounds = result["rounds"]
    codes = [code for r in rounds for code in r["codes"]]
    failed = sum(1 for code in codes if code != 0)
    digest = rounds[-1]["sha256"]
    metrics = per_layer(args.workload, result, cells_failed) if args.trace \
        else end_to_end(args.workload, ops, result, setup)

    print(f"workload {args.workload}  seed {args.seed}  {len(rounds)} rounds of "
          f"{len(ops)} operation(s)  trace {args.trace}")
    print(f"output sha256 {digest}  ({reference_note(args.workload, args.seed, digest)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for err in errors[:MAX_PRINTED_ERRORS]:
        print(f"CHECK FAILED: {err}")
    print("checks passed" if not errors else f"{len(errors)} check(s) failed")
    print(json.dumps({
        "correct": not errors, "attempted": len(codes), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
