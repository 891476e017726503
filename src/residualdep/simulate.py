"""Seeded, parallel Monte Carlo harness for estimator performance studies.

A study draws N replicate samples from a copula model, builds the
pseudo-observation sequences once per replicate, evaluates every
(estimator, margin, q, k) cell on them, and aggregates mean, bias,
variance and MSE per cell against the model's ground-truth eta.

Determinism contract: replicate r draws its sample from the stream
derived from (master_seed, r) alone, and aggregation merges replicate
accumulators along a fixed index-order tree, so results are byte-stable
under any worker count.
"""
from __future__ import annotations

import bisect
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .bias import SecondOrderParams, SecondOrderSource, effective_tau, \
    estimate_second_order, reduced_bias_path
from .copulas import CopulaModel, Family, replicate_generator, sample_copula
from .errors import ParameterDomainError, ResidualDepError
from .estimators import EstimatorSpec, Margin, m_ab_path, sorted_margin
from .pseudo import BivariateSample, PseudoSample

# Not called here (``evaluate_cells`` runs whole paths through ``m_ab_path``
# and ``reduced_bias_path``), but the benchmark's tracer, bench/runner.py,
# wraps them under these names.
from .bias import reduced_bias_eta  # noqa: F401
from .estimators import eta_hat  # noqa: F401

__all__ = [
    "KstarRule",
    "SecondOrderSpec",
    "StudyConfig",
    "CellResult",
    "SimulationReport",
    "CellPath",
    "cell_grid",
    "grid_cells",
    "evaluate_cells",
    "run_study",
    "emit_report",
    "write_report",
    "load_config",
    "config_from_dict",
]

ALL_MARGINS = (Margin.PARETO_T, Margin.FRECHET_SHIFTED, Margin.FRECHET_UNSHIFTED)
DEFAULT_Q_GRID = tuple(round(0.1 * i, 1) for i in range(1, 20))


@dataclass(frozen=True)
class KstarRule:
    """How the auxiliary order-statistic count k* is chosen per cell.

    Whatever the rule yields is capped at isqrt(k) cell by cell, keeping
    every cell inside the k* <= sqrt(k) validity region of the correction.
    """

    kind: str  # "pow_n" | "sqrt_k" | "fixed"
    value: float = 0.3

    @classmethod
    def pow_n(cls, power: float = 0.3) -> "KstarRule":
        return cls(kind="pow_n", value=float(power))

    @classmethod
    def sqrt_k(cls) -> "KstarRule":
        return cls(kind="sqrt_k", value=0.0)

    @classmethod
    def fixed(cls, count: int) -> "KstarRule":
        if count < 1:
            raise ValueError(f"fixed k* must be >= 1, got {count}")
        return cls(kind="fixed", value=int(count))

    @classmethod
    def parse(cls, token) -> "KstarRule":
        """Accept 'powP' (e.g. pow0.3), 'sqrtk', or a plain integer."""
        if isinstance(token, KstarRule):
            return token
        if isinstance(token, int):
            return cls.fixed(token)
        token = str(token).strip().lower()
        if token == "sqrtk":
            return cls.sqrt_k()
        if token.startswith("pow"):
            return cls.pow_n(float(token[3:]))
        return cls.fixed(int(token))

    def token(self) -> str:
        if self.kind == "sqrt_k":
            return "sqrtk"
        if self.kind == "pow_n":
            return f"pow{self.value:g}"
        return str(int(self.value))

    def resolve(self, n: int, k: int) -> int:
        if self.kind == "pow_n":
            raw = max(int(n ** self.value), 10)
        elif self.kind == "sqrt_k":
            raw = math.isqrt(k)
        else:
            raw = int(self.value)
        return max(1, min(raw, math.isqrt(k), n - 1))


@dataclass(frozen=True)
class SecondOrderSpec:
    """Where the (tau, beta) pair for bias correction comes from.

    mode 'per_replicate': estimated from each replicate's T sequence at
    threshold k0 (default [n^0.999]).  mode 'oracle': tau defaults to the
    model's effective second-order parameter and beta to 0, either
    overridable.  mode 'user': both values must be given.
    """

    mode: str = "per_replicate"
    tau: float | None = None
    beta: float | None = None
    k0: int | None = None

    def __post_init__(self):
        if self.mode not in ("per_replicate", "oracle", "user"):
            raise ValueError(f"unknown second-order mode {self.mode!r}")
        if self.mode == "user" and (self.tau is None or self.beta is None):
            raise ValueError("second-order mode 'user' needs tau and beta given together")

    def resolve(self, model: CopulaModel, pseudo: PseudoSample) -> SecondOrderParams:
        if self.mode == "per_replicate":
            return estimate_second_order(pseudo, self.k0)
        if self.mode == "oracle":
            if self.tau is not None:
                tau = self.tau
            else:
                if model.true_eta is None or model.true_tau is None:
                    raise ParameterDomainError(
                        f"{model.family.value} theta={model.theta} has no ground truth; "
                        "oracle second-order mode needs an explicit tau"
                    )
                tau = effective_tau(model.true_eta, model.true_tau) if model.true_tau > 0 \
                    else model.true_eta
            beta = 0.0 if self.beta is None else self.beta
        else:
            tau, beta = self.tau, self.beta
        return SecondOrderParams(tau_hat=float(tau), beta_hat=float(beta), k0=0,
                                 source=SecondOrderSource.USER_SUPPLIED)


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one simulation study.

    ``k_grid`` entries may be integers (absolute k) or fractions in (0, 1),
    floored via [n * f]; ``None`` selects every integer k up to [0.3 n].
    ``q_grid`` defaults to 0.1, 0.2, ..., 1.9 and ``margins`` to all three
    pseudo-observation scales.  All three grids are resolved sorted and
    de-duplicated, which makes the study grid the report's row order.
    """

    model: CopulaModel
    n: int = 500
    N: int = 1000
    q_grid: tuple = DEFAULT_Q_GRID
    k_grid: tuple | None = None
    margins: tuple = ALL_MARGINS
    kstar_rule: KstarRule = field(default_factory=lambda: KstarRule.pow_n(0.3))
    master_seed: int = 0
    second_order: SecondOrderSpec = field(default_factory=SecondOrderSpec)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        object.__setattr__(self, "q_grid", tuple(sorted({float(q) for q in self.q_grid})))
        if any(q <= 0.0 for q in self.q_grid):
            raise ValueError("q_grid values must be positive")
        object.__setattr__(self, "margins", tuple(sorted({Margin(m) for m in self.margins})))
        object.__setattr__(self, "kstar_rule", KstarRule.parse(self.kstar_rule))
        object.__setattr__(self, "k_grid", self._resolve_k_grid(self.k_grid))

    def _resolve_k_grid(self, raw) -> tuple:
        if raw is None:
            return tuple(range(1, int(0.3 * self.n) + 1))
        ks = []
        for entry in raw:
            k = int(self.n * entry) if 0 < entry < 1 else int(entry)
            if not 1 <= k < self.n:
                raise ValueError(f"k_grid entry {entry!r} resolves to k={k}, need 1 <= k < n")
            ks.append(k)
        return tuple(sorted(set(ks)))

    def canonical_dict(self) -> dict:
        return {
            "model": {"family": self.model.family.value, "theta": self.model.theta},
            "n": self.n,
            "N": self.N,
            "q_grid": list(self.q_grid),
            "k_grid": list(self.k_grid),
            "margins": [m.value for m in self.margins],
            "kstar_rule": self.kstar_rule.token(),
            "master_seed": self.master_seed,
            "second_order": {
                "mode": self.second_order.mode,
                "tau": self.second_order.tau,
                "beta": self.second_order.beta,
                "k0": self.second_order.k0,
            },
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def config_from_dict(d: dict) -> StudyConfig:
    """Build a StudyConfig from the documented key-value (JSON) format."""
    d = dict(d)
    model_d = d.pop("model")
    model = CopulaModel(Family(model_d["family"]), float(model_d["theta"]))
    so_raw = d.pop("second_order", "per_replicate")
    if isinstance(so_raw, str):
        so = SecondOrderSpec(mode=so_raw)
    else:
        so = SecondOrderSpec(
            mode=so_raw.get("mode", "user"),
            tau=so_raw.get("tau"),
            beta=so_raw.get("beta"),
            k0=so_raw.get("k0"),
        )
    kwargs = {}
    for key in ("n", "N", "master_seed"):
        if key in d:
            kwargs[key] = int(d.pop(key))
    for key in ("q_grid", "k_grid", "margins", "kstar_rule"):
        if key in d:
            kwargs[key] = d.pop(key)
    if d:
        raise ValueError(f"unknown study-config keys: {sorted(d)}")
    return StudyConfig(model=model, second_order=so, **kwargs)


def load_config(path, master_seed: int | None = None) -> StudyConfig:
    with open(path, "r", encoding="utf-8") as fh:
        config = config_from_dict(json.load(fh))
    if master_seed is not None:
        config = replace(config, master_seed=int(master_seed))
    return config


# --- the study grid ---------------------------------------------------------

class CellPath(NamedTuple):
    """The cells of one (estimator, spec) pair, one per entry of ``ks``.

    ``kstars`` holds each reduced-bias cell's k*, and is None on raw paths.
    """

    estimator: str
    spec: EstimatorSpec
    ks: np.ndarray
    kstars: np.ndarray | None


def cell_grid(margins, q_grid, k_grid, kstar_rule: KstarRule, n: int,
              reduced: bool) -> list[CellPath]:
    """One path per (estimator, spec) over ``k_grid``; sorted grids give report row order.

    Raw paths on each margin come first, then, if ``reduced``, the reduced-bias
    paths, which are on the shifted-Frechet margin whatever ``margins`` holds.
    """
    ks = np.asarray(k_grid, dtype=np.intp)
    grid = [CellPath("raw", EstimatorSpec.conjugate(q, margin=m), ks, None)
            for m in margins for q in q_grid]
    if reduced:
        kstars = np.array([kstar_rule.resolve(n, k) for k in ks.tolist()], dtype=np.intp)
        grid += [CellPath("reduced", EstimatorSpec.conjugate(q, margin=Margin.FRECHET_SHIFTED),
                          ks, kstars) for q in q_grid]
    return grid


def grid_cells(grid: list[CellPath]):
    """(estimator, spec, k, kstar) for every cell, path after path."""
    for estimator, spec, ks, kstars in grid:
        for k, kstar in zip(ks.tolist(), repeat(None) if kstars is None else kstars.tolist()):
            yield estimator, spec, k, kstar


def evaluate_cells(pseudo: PseudoSample, grid: list[CellPath],
                   so: SecondOrderParams | None) -> np.ndarray:
    """Estimates of one sample on every cell, in ``grid_cells`` order: one kernel
    call per path, NaN where an estimate is undefined, and on every reduced-bias
    cell when ``so`` is None."""
    paths = []
    for estimator, spec, ks, kstars in grid:
        if estimator == "raw":
            paths.append(m_ab_path(sorted_margin(pseudo, spec.margin), ks, spec.a, spec.b))
        elif so is None:
            paths.append(np.full(len(ks), math.nan))
        else:
            paths.append(reduced_bias_path(pseudo, ks, kstars, spec.a, so))
    return np.concatenate(paths) if paths else np.empty(0)


def _evaluate_replicate(config: StudyConfig, grid: list[CellPath], r: int) -> np.ndarray:
    """Estimates of replicate r on every cell of ``grid``."""
    rng = replicate_generator(config.master_seed, r)
    u, v = sample_copula(config.model, config.n, rng)
    pseudo = PseudoSample.from_sample(BivariateSample(u, v))
    so = None
    if any(path.estimator == "reduced" for path in grid):
        try:
            so = config.second_order.resolve(config.model, pseudo)
        except ResidualDepError:
            pass
    return evaluate_cells(pseudo, grid, so)


# --- order-insensitive moment merging ---------------------------------------

class _Moments:
    """Per-cell count, mean and M2 (sum of squared deviations from the mean)."""

    __slots__ = ("rank", "count", "mean", "m2")

    def __init__(self, rank, count, mean, m2):
        self.rank = rank
        self.count = count
        self.mean = mean
        self.m2 = m2

    @classmethod
    def leaf(cls, values: np.ndarray) -> "_Moments":
        ok = np.isfinite(values)
        mean = np.where(ok, values, 0.0)
        return cls(1, ok.astype(np.int64), mean, np.zeros_like(mean))

    def merge(self, other: "_Moments") -> "_Moments":
        count = self.count + other.count
        safe = np.maximum(count, 1)
        w_other = other.count / safe
        delta = other.mean - self.mean
        mean = self.mean + delta * w_other
        m2 = self.m2 + other.m2 + delta * delta * self.count * w_other
        return _Moments(self.rank + other.rank, count, mean, m2)


def _merge_stream(chunks) -> _Moments:
    """Fold replicate vectors (in index order) along a fixed binary tree."""
    stack: list[_Moments] = []
    for values in chunks:
        node = _Moments.leaf(values)
        while stack and stack[-1].rank == node.rank:
            node = stack.pop().merge(node)
        stack.append(node)
    node = stack.pop()
    while stack:
        node = stack.pop().merge(node)
    return node


# --- report -----------------------------------------------------------------

class CellResult(NamedTuple):
    """One report row; the fields are the CSV columns, in order."""

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


CSV_COLUMNS = CellResult._fields


def _cell_key(cell: CellResult) -> tuple:
    return cell.estimator, cell.margin, cell.q, cell.k


@dataclass(frozen=True)
class SimulationReport:
    """The study's rows, sorted by (estimator, margin, q, k), plus provenance."""

    cells: tuple
    master_seed: int
    config_hash: str
    n: int
    n_replicates: int
    true_eta: float | None

    @property
    def flagged(self) -> tuple:
        """Cells where more than 10% of replicates failed."""
        return tuple(c for c in self.cells if c.fail_fraction > 0.1)

    def cell(self, estimator: str, margin, q: float, k: int) -> CellResult:
        key = (estimator, Margin(margin).value, q, k)
        i = bisect.bisect_left(self.cells, key, key=_cell_key)
        if i < len(self.cells) and _cell_key(self.cells[i]) == key:
            return self.cells[i]
        raise KeyError(f"no cell ({estimator}, {key[1]}, q={q}, k={k})")


def run_study(config: StudyConfig, *, workers: int = 1) -> SimulationReport:
    """Execute the study; results are independent of ``workers``.

    Replicates are distributed over worker processes when ``workers`` > 1;
    the per-replicate streams and the fixed-order aggregation tree make the
    report bit-identical for any worker count.
    """
    grid = cell_grid(config.margins, config.q_grid, config.k_grid, config.kstar_rule,
                     config.n, Margin.FRECHET_SHIFTED in config.margins)
    truth = config.model.true_eta if config.model.true_eta is not None else math.nan
    evaluate = partial(_evaluate_replicate, config, grid)
    if workers <= 1 or config.N == 1:
        moments = _merge_stream(map(evaluate, range(config.N)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, config.N // (workers * 4))
            moments = _merge_stream(pool.map(evaluate, range(config.N), chunksize=chunk))

    ok = moments.count > 0
    scored = ok & math.isfinite(truth)
    mean = np.where(ok, moments.mean, math.nan)
    variance = np.where(ok, moments.m2 / np.maximum(moments.count, 1), math.nan)
    bias = np.where(scored, mean - truth, math.nan)
    mse = np.where(scored, variance + bias * bias, math.nan)
    # .tolist() yields Python floats, whose str (their repr) the CSV writes
    stats = zip(mean.tolist(), bias.tolist(), variance.tolist(), mse.tolist())
    cells = tuple(
        CellResult(estimator, spec.margin.value, spec.q, spec.a, spec.b, k, k / config.n,
                   kstar, *row, n_ok, config.N - n_ok)
        for (estimator, spec, k, kstar), row, n_ok in zip(grid_cells(grid), stats,
                                                          moments.count.tolist())
    )
    return SimulationReport(
        cells=cells, master_seed=config.master_seed,
        config_hash=config.config_hash(), n=config.n, n_replicates=config.N,
        true_eta=config.model.true_eta,
    )


def emit_report(report: SimulationReport, format: str = "csv") -> str:
    """Serialise the report rows in their order; 'csv' or 'jsonl'."""
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for cell in report.cells:
            lines.append(",".join("" if v is None else str(v) for v in cell))
        return "\n".join(lines) + "\n"
    if format == "jsonl":
        return "\n".join(json.dumps(cell._asdict()) for cell in report.cells) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def write_report(report: SimulationReport, path, format: str = "csv") -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(emit_report(report, format))
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
