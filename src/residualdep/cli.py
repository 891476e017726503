"""Command-line front end.

Subcommands:

* ``simulate``     run a study config file, write the cell CSV/JSONL
* ``estimate``     eta sample paths with confidence bands from a data CSV
* ``second-order`` standalone (tau, beta) estimation from a data CSV
* ``oracle``       brute-force identity checks on small random inputs

Exit codes: 0 ok, 2 usage, 3 data problem, 4 numeric-domain problem.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

import numpy as np

from .bias import estimate_second_order
from .copulas import replicate_generator
from .errors import DataError, ResidualDepError
from .estimators import m_ab, uncertainty
from .ingest import DEFAULT_NA_TOKENS, IngestionSpec, ingest
from .pseudo import BivariateSample, Margin, PseudoSample, TiePolicy, joint_exceedance_count
from .simulate import KstarRule, SecondOrderSpec, cell_grid, evaluate_cells, load_config, \
    run_study, write_report

# Not called here (``estimate`` reaches both through ``simulate``), but the
# benchmark's tracer, bench/runner.py, wraps them under these names.
from .bias import reduced_bias_eta  # noqa: F401
from .estimators import eta_hat  # noqa: F401

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4


def at_least(least: int):
    """An argparse type: an integer >= ``least``."""
    def integer(token: str) -> int:
        if (value := int(token)) < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return integer


def oracle_n(token: str) -> int:
    value = int(token)
    if not 2 <= value <= 1000:
        raise argparse.ArgumentTypeError(f"must lie in 2..1000 (O(n^2) recount), got {value}")
    return value


def kstar_rule(token: str) -> KstarRule:
    """An argparse type that keeps the rule's own message (a ValueError loses it)."""
    try:
        return KstarRule.parse(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def float_list(token: str) -> list[float]:
    return [float(tok) for tok in token.split(",")]


def _add_ingestion_flags(parser):
    parser.add_argument("--data", required=True, help="input CSV of paired observations")
    parser.add_argument("--x", required=True, help="column name of the first margin")
    parser.add_argument("--y", required=True, help="column name of the second margin")
    parser.add_argument("--date-col", default=None, help="optional ISO date column")
    parser.add_argument("--month", type=int, default=None,
                        help="keep only rows whose date falls in this month (1-12)")
    parser.add_argument("--date-from", default=None, help="earliest ISO date to keep")
    parser.add_argument("--date-to", default=None, help="latest ISO date to keep")
    parser.add_argument("--dry", type=float, default=1.0,
                        help="drop rows with either value below this (default 1.0)")
    parser.add_argument("--quantile", type=float, default=0.90,
                        help="marginal empirical quantile filter (default 0.90)")
    parser.add_argument("--either", action="store_true",
                        help="retain rows where either margin exceeds its quantile "
                             "(default: both must exceed)")
    parser.add_argument("--na", type=lambda token: tuple(token.split(",")),
                        default=DEFAULT_NA_TOKENS,
                        help="comma-separated NA tokens overriding the default set")
    parser.add_argument("--ties", default="first_occurrence",
                        choices=[p.value for p in TiePolicy], help="tie policy for ranks")


def _ingest_from_args(args) -> tuple[BivariateSample, PseudoSample]:
    spec = IngestionSpec(
        path=args.data, x_col=args.x, y_col=args.y, date_col=args.date_col,
        na_tokens=args.na, dry_threshold=args.dry, quantile_filter=args.quantile,
        month=args.month, date_from=args.date_from, date_to=args.date_to, either=args.either,
    )
    sample = ingest(spec)
    return sample, PseudoSample.from_sample(sample, TiePolicy(args.ties))


def _out_stream(path):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def cmd_simulate(args) -> int:
    config = load_config(args.config, master_seed=args.seed)
    report = run_study(config, workers=args.workers)
    write_report(report, args.out, args.format)
    for cell in report.flagged:
        print(f"warning: cell ({cell.estimator}, {cell.margin}, q={cell.q}, k={cell.k}) "
              f"had {cell.n_fail}/{cell.n_fail + cell.n_ok} failures", file=sys.stderr)
    return EXIT_OK


def _fmt(x) -> str:
    return "" if x is None or (isinstance(x, float) and math.isnan(x)) else repr(float(x))


def cmd_estimate(args) -> int:
    sample, pseudo = _ingest_from_args(args)
    n = sample.n
    q_grid = sorted({*args.q, 1.0})  # Hill is always reported
    k_max = max(1, int(n * args.k_max))  # k_max < n, since main checks --k-max < 1
    grid = cell_grid([Margin(args.margin)], q_grid, range(1, k_max + 1),
                     args.kstar or KstarRule(), n, args.reduce_bias)
    so = None
    if args.reduce_bias:
        mode = "per_replicate" if args.tau is None and args.beta is None else "user"
        so = SecondOrderSpec(mode, args.tau, args.beta, args.k0).resolve(None, pseudo)
    etas = evaluate_cells(pseudo, grid, so)
    _, lows, highs = uncertainty(etas, grid.ks, grid.a[:, None], args.level)
    k_fields = [f"{k},{k / n:g}" for k in grid.ks.tolist()]  # every path shares the grid's k
    with _out_stream(args.out) as stream:
        stream.write("q,k,k_over_n,eta,ci_low,ci_high,margin,reduced\n")
        for estimator, margin, q, *path in zip(grid.estimator.tolist(), grid.margin.tolist(),
                                               grid.q.tolist(), etas, lows, highs):
            q, end = f"{q:g}", f",{margin},{str(estimator == 'reduced').lower()}\n"
            path = [column.tolist() for column in path]  # Python floats of this path only
            stream.write("".join(f"{q},{kn},{_fmt(eta)},{_fmt(low)},{_fmt(high)}{end}"
                                 for kn, eta, low, high in zip(k_fields, *path)))
    failed = int(np.isnan(etas).sum())
    if failed:
        print(f"warning: {failed} of {etas.size} cells hit a domain error; "
              "their eta and CI fields are empty", file=sys.stderr)
    return EXIT_OK


def cmd_second_order(args) -> int:
    sample, pseudo = _ingest_from_args(args)
    so = estimate_second_order(pseudo, args.k0)
    with _out_stream(args.out) as stream:
        print("tau_hat,beta_hat,k0,n", file=stream)
        print(f"{_fmt(so.tau_hat)},{_fmt(so.beta_hat)},{so.k0},{sample.n}", file=stream)
    return EXIT_OK


def _naive_m_ab(tail, k, a, b) -> float:
    # deliberate straight-line re-implementation used as the oracle
    thr = tail[0]
    total = 0.0
    for z in tail[1:]:
        ratio = z / thr
        total += math.log(ratio) if a == 0.0 else ratio ** a
    mean = total / k
    log_a = mean if a == 0.0 else math.log(mean) / a
    if b == 0.0:
        return log_a
    return (math.exp(b * log_a) - 1.0) / b


def cmd_oracle(args) -> int:
    n = args.n
    rng = replicate_generator(args.seed)
    sample = BivariateSample(rng.random(n), rng.random(n))
    t = PseudoSample.from_sample(sample).top(Margin.PARETO_T)

    failures = 0
    for m in range(1, n + 1):
        brute = joint_exceedance_count(sample, m, 1.0)
        via_t = int(np.count_nonzero(t >= (n + 1) / m))
        if brute != via_t:
            print(f"FAIL joint-exceedance identity at m={m}: {brute} != {via_t}")
            failures += 1
    if not failures:
        print(f"ok joint-exceedance identity (all m in 1..{n})")

    grid = [(0.0, 0.0), (0.5, -0.5), (-0.5, 0.5), (1.0, -1.0), (-2.0, 2.0), (0.25, 0.75)]
    worst = 0.0
    for k in sorted({k for k in (2, n // 4, n // 2, n - 1) if 1 <= k < n}):
        tail = t[n - k - 1:]
        for a, b in grid:
            worst = max(worst, abs(m_ab(tail, k, a, b) - _naive_m_ab(tail, k, a, b)))
    if worst <= 1e-12:
        print(f"ok power-mean kernel vs naive loop (max |diff| = {worst:.3e})")
    else:
        print(f"FAIL power-mean kernel vs naive loop: max |diff| = {worst:.3e}")
        failures += 1
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="residualdep",
        description="Residual dependence index estimation for bivariate extremes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a Monte Carlo study from a config file")
    p.add_argument("--config", required=True, help="JSON study config")
    p.add_argument("--out", required=True, help="output path for the cell table")
    p.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p.add_argument("--workers", type=at_least(1), default=1,
                   help="worker processes (default 1)")
    p.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="eta sample paths with CIs from a data CSV")
    _add_ingestion_flags(p)
    p.add_argument("--q", type=float_list, default="0.5,1,1.5", help="comma-separated q values")
    p.add_argument("--k-max", type=float, default=0.3, dest="k_max",
                   help="largest top fraction k/n (default 0.3)")
    p.add_argument("--margin", default=Margin.FRECHET_SHIFTED.value,
                   choices=[m.value for m in Margin])
    p.add_argument("--reduce-bias", action="store_true", dest="reduce_bias")
    p.add_argument("--kstar", type=kstar_rule, default=None,
                   help="k* rule: powP, sqrtk, or an integer (default pow0.3)")
    p.add_argument("--tau", type=float, default=None, help="user-supplied tau")
    p.add_argument("--beta", type=float, default=None, help="user-supplied beta")
    p.add_argument("--k0", type=int, default=None,
                   help="threshold for second-order estimation (default [n^0.999])")
    p.add_argument("--level", type=float, default=0.95, help="CI level (default 0.95)")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("second-order", help="standalone tau/beta estimation")
    _add_ingestion_flags(p)
    p.add_argument("--k0", type=int, default=None,
                   help="threshold for second-order estimation (default [n^0.999])")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_second_order)

    p = sub.add_parser("oracle", help="exact identity checks on a random sample")
    p.add_argument("--n", type=oracle_n, required=True)
    p.add_argument("--seed", type=at_least(0), required=True)
    p.set_defaults(func=cmd_oracle)

    return parser


# estimate flags that only act on the reduced-bias rows
_REDUCE_BIAS_FLAGS = ("tau", "beta", "kstar", "k0")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_estimate:
        for flag, value in (("--k-max", args.k_max), ("--level", args.level)):
            if not 0.0 < value < 1.0:
                parser.error(f"estimate: {flag} must lie in (0, 1), got {value}")
        unused = [f"--{name}" for name in _REDUCE_BIAS_FLAGS if getattr(args, name) is not None]
        if unused and not args.reduce_bias:
            parser.error(f"estimate: {', '.join(unused)}: no effect without --reduce-bias")
        if args.k0 is not None and (args.tau is not None or args.beta is not None):
            parser.error("estimate: --k0: no effect with --tau or --beta")
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ResidualDepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
