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
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property, partial, reduce
from itertools import chain, compress, repeat, starmap
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ._workspace import Workspace, kernel
from .bias import SecondOrderParams, effective_tau, estimate_second_order, reduced_bias_path
from .copulas import CopulaModel, replicate_generator, sample_copula
from .errors import ParameterDomainError, ResidualDepError, _integral, _real
from .estimators import EstimatorSpec, m_ab_path
from .pseudo import BivariateSample, Margin, PseudoSample

# Not called here (``evaluate_cells`` makes one ``m_ab_path`` call per sample
# and corrects the reduced-bias rows with ``reduced_bias_path``), but the
# benchmark's tracer, bench/runner.py, wraps them under these names.
from .bias import reduced_bias_eta  # noqa: F401
from .estimators import eta_hat  # noqa: F401

__all__ = [
    "KstarRule",
    "SecondOrderSpec",
    "StudyConfig",
    "CellResult",
    "SimulationReport",
    "CellGrid",
    "KernelRows",
    "cell_grid",
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
    """How the auxiliary order-statistic count k* is chosen per cell: ``pow_n`` takes
    max([n^value], 10) for a finite power value > 0, ``sqrt_k`` takes isqrt(k) and no
    value (it is stored as 0), ``fixed`` takes the integer count value >= 1.  Whatever
    the rule yields is capped at isqrt(k) cell by cell, keeping every cell inside the
    k* <= sqrt(k) validity region of the correction.
    """

    kind: str = "pow_n"  # "pow_n" | "sqrt_k" | "fixed"
    value: float = 0.3

    def __post_init__(self):
        if self.kind == "pow_n":
            value = float(_real("kstar_rule", self.value, "a power"))
            if not 0.0 < value < math.inf:
                raise ValueError(f"k* rule 'pow{_power_text(value)}' needs a finite power > 0")
        elif self.kind == "fixed":
            if (value := _integral("kstar_rule", self.value)) < 1:
                raise ValueError(f"fixed k* must be >= 1, got {value}")
        elif self.kind == "sqrt_k":
            value = 0.0
        else:
            raise ValueError(f"unknown k* rule kind {self.kind!r}")
        object.__setattr__(self, "value", value)

    @classmethod
    def parse(cls, token) -> "KstarRule":
        """Accept 'powP' (e.g. pow0.3), 'sqrtk', or an integer (3.0 counts, 2.5 does not)."""
        if isinstance(token, KstarRule):
            return token
        if not isinstance(token, str):
            return cls("fixed", _real("kstar_rule", token, "a k* rule"))
        token = token.strip().lower()
        if token == "sqrtk":
            return cls("sqrt_k")
        power = token.startswith("pow")
        try:
            value = float(token[3:]) if power else int(token)
        except ValueError:
            raise ValueError(f"kstar_rule {token!r} is not a k* rule") from None
        if not power:
            return cls("fixed", value)
        try:
            return cls("pow_n", value)
        except ValueError:  # named by its token: 'pow1e400' reads as inf once parsed
            raise ValueError(f"k* rule {token!r} needs a finite power > 0") from None

    def token(self) -> str:
        if self.kind == "sqrt_k":
            return "sqrtk"
        if self.kind == "pow_n":
            return f"pow{_power_text(self.value)}"
        return str(int(self.value))

    def resolve(self, n: int, k: int) -> int:
        if self.kind == "pow_n":
            try:
                raw = max(int(n ** self.value), 10)
            except OverflowError:  # n^value past the float range: the isqrt(k) cap below
                raw = k
        elif self.kind == "sqrt_k":
            raw = math.isqrt(k)
        else:
            raw = int(self.value)
        return max(1, min(raw, math.isqrt(k), n - 1))


@dataclass(frozen=True)
class SecondOrderSpec:
    """Where the (tau, beta) pair for bias correction comes from.

    mode 'per_replicate': estimated from each replicate's T sequence at
    threshold k0 (default [n^0.999]); tau and beta are not taken, and k0
    is taken by no other mode.  Modes 'oracle' and 'user' take the given
    tau (> 0) and beta (0 if not given); 'user' needs both, and 'oracle'
    defaults tau to the model's effective second-order parameter.
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
        if self.k0 is not None and self.mode != "per_replicate":
            raise ValueError(f"second-order k0 acts only in mode 'per_replicate', "
                             f"not {self.mode!r}")
        if self.k0 is not None:
            object.__setattr__(self, "k0", _integral("second-order k0", self.k0))
        for name, value in (("tau", self.tau), ("beta", self.beta)):
            if value is not None and not math.isfinite(_real(f"second-order {name}", value)):
                raise ValueError(f"second-order {name} must be finite, got {value}")
        if self.tau is not None and not self.tau > 0.0:
            raise ValueError(f"second-order tau must be > 0, got {self.tau}")
        given = [name for name in ("tau", "beta") if getattr(self, name) is not None]
        if self.mode == "per_replicate" and given:
            raise ValueError(f"second-order {given[0]} acts only in modes 'oracle' and 'user', "
                             "not 'per_replicate'")

    def resolve(self, model: CopulaModel, pseudo: PseudoSample, *,
                workspace: Workspace | None = None) -> SecondOrderParams:
        if self.mode == "per_replicate":
            return estimate_second_order(pseudo, self.k0, workspace=workspace)
        tau = self.tau
        if tau is None:  # mode 'oracle' without a given tau
            if model.true_eta is None:
                raise ParameterDomainError(
                    f"{model.family.value} theta={model.theta} has no ground truth; "
                    "oracle second-order mode needs an explicit tau"
                )
            tau = effective_tau(model.true_eta, model.true_tau) if model.true_tau > 0 \
                else model.true_eta
        beta = 0.0 if self.beta is None else self.beta
        return SecondOrderParams(tau_hat=float(tau), beta_hat=float(beta), k0=0)


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one simulation study.

    ``k_grid`` entries may be integers (absolute k; an integral float such as
    25.0 counts) or fractions in (0, 1), floored via [n * f]; ``None`` selects
    every integer k up to [0.3 n].  A study with reduced-bias paths in
    second-order mode 'per_replicate' needs n >= 50; a given k0 must lie in
    2..n-1, and is rejected when the study has no reduced-bias paths.  A
    boolean is not a count, a k, a q or a k* rule.
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
    kstar_rule: KstarRule = KstarRule()
    master_seed: int = 0
    second_order: SecondOrderSpec = field(default_factory=SecondOrderSpec)

    def __post_init__(self):
        for name, least in (("n", 2), ("N", 1), ("master_seed", 0)):
            object.__setattr__(self, name, value := _integral(name, getattr(self, name)))
            if value < least:
                raise ValueError(f"need {name} >= {least}, got {value}")
        if any(isinstance(q, bool) for q in _listed("q_grid", self.q_grid)):
            raise ValueError(f"q_grid values must not be booleans, got {list(self.q_grid)}")
        q_grid = {float(_real("q_grid value", q)) for q in self.q_grid}
        if not all(0.0 < q < math.inf for q in q_grid):  # NaN would also leave no sort order
            raise ValueError(f"q_grid values must lie in (0, inf), got {list(self.q_grid)}")
        object.__setattr__(self, "q_grid", tuple(sorted(q_grid)))
        margins = {Margin(m) for m in _listed("margins", self.margins)}
        object.__setattr__(self, "margins", tuple(sorted(margins)))
        object.__setattr__(self, "kstar_rule", KstarRule.parse(self.kstar_rule))
        object.__setattr__(self, "k_grid", self._resolve_k_grid(self.k_grid))
        k0 = self.second_order.k0
        if k0 is not None and Margin.FRECHET_SHIFTED not in self.margins:
            raise ValueError("second-order k0: no effect without reduced-bias paths "
                             "(margins lack 'frechet_shifted')")
        if k0 is not None and not 2 <= k0 <= self.n - 1:
            raise ValueError(f"second-order k0 must lie in 2..n-1 = {self.n - 1}, got {k0}")
        if self.second_order.mode == "per_replicate" and self.n < 50 \
                and Margin.FRECHET_SHIFTED in self.margins:
            raise ValueError(f"second-order mode 'per_replicate' needs n >= 50, got {self.n}")

    def _resolve_k_grid(self, raw) -> tuple:
        if raw is None:
            return tuple(range(1, int(0.3 * self.n) + 1))
        ks = []
        for entry in _listed("k_grid", raw):
            _real("k_grid entry", entry, "an integer")
            k = int(self.n * entry) if 0 < entry < 1 else _integral("k_grid entry", entry)
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
            "second_order": asdict(self.second_order),
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _power_text(value: float) -> str:
    """A k* power as a rule token spells it: :g unless that rounds it (0.1234567)."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _listed(name: str, value):
    """``value``, unless it is not a list or a tuple (a string is not one)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _init_kwargs(cls, d: dict, where: str) -> dict:
    """``d``, checked as keyword arguments of dataclass ``cls``: its keys must be init
    fields of ``cls``, and every init field without a default must be among them."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    init = [f for f in fields(cls) if f.init]
    if unknown := sorted(set(d) - {f.name for f in init}):
        raise ValueError(f"{where}: unknown keys {unknown}")
    for f in init:
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{where}: missing key {f.name!r}")
    return d


def config_from_dict(d: dict) -> StudyConfig:
    """Build a StudyConfig from the documented key-value (JSON) format: the keys at each
    level are the init fields of the dataclass built there, which checks the values."""
    d = dict(_init_kwargs(StudyConfig, d, "study config"))
    d["model"] = CopulaModel(**_init_kwargs(CopulaModel, d["model"], "model"))
    so = d.get("second_order", "per_replicate")
    so = {"mode": so} if isinstance(so, str) else \
        {"mode": "user", **_init_kwargs(SecondOrderSpec, so, "second_order")}
    d["second_order"] = SecondOrderSpec(**so)
    return StudyConfig(**d)


def load_config(path, master_seed: int | None = None) -> StudyConfig:
    with open(path, "r", encoding="utf-8") as fh:
        config = config_from_dict(json.load(fh))
    if master_seed is not None:
        config = replace(config, master_seed=master_seed)
    return config


# --- the study grid ---------------------------------------------------------

class KernelRows(NamedTuple):
    """The distinct (margin, a, b) kernel rows of a grid: row r runs (a[r], b[r]) on the
    tail of ``margins[tail[r]]``, and path p of the grid reads row ``path_row[p]``."""

    margins: tuple  # the tails' margins, in order of first use
    tail: np.ndarray
    a: np.ndarray
    b: np.ndarray
    path_row: np.ndarray


class CellGrid(NamedTuple):
    """The study grid as a product: a table of paths, a column per field, each path over
    every k of ``ks``; ``kstars`` holds the reduced-bias k* of each k (None when no path
    is reduced-bias).  Path p runs the conjugate pair (a[p], b[p]) of q[p] on margin[p];
    ``kernel`` holds the distinct rows that the kernel evaluates for the paths."""

    estimator: np.ndarray  # 'raw' or 'reduced'
    margin: np.ndarray  # the Margin value
    q: np.ndarray
    a: np.ndarray
    b: np.ndarray
    ks: np.ndarray
    kstars: np.ndarray | None
    kernel: KernelRows


def cell_grid(margins, q_grid, k_grid, kstar_rule: KstarRule, n: int,
              reduced: bool) -> CellGrid:
    """The path table over ``k_grid``; sorted grids give report row order.

    Raw paths on each margin come first, then, if ``reduced``, the reduced-bias
    paths, which are on the shifted-Frechet margin whatever ``margins`` holds.  A
    reduced-bias path's base estimate is the raw shifted-Frechet path of its q, one
    kernel row for both, where the grid has that path.
    """
    ks = np.asarray(k_grid, dtype=np.intp)
    paths = [("raw", EstimatorSpec.conjugate(q, margin=m)) for m in margins for q in q_grid]
    kstars = None
    if reduced and q_grid:
        kstars = np.array([kstar_rule.resolve(n, k) for k in ks.tolist()], dtype=np.intp)
        paths += [("reduced", EstimatorSpec.conjugate(q, margin=Margin.FRECHET_SHIFTED))
                  for q in q_grid]
    rows = [(estimator, spec.margin.value, spec.q, spec.a, spec.b) for estimator, spec in paths]
    columns = zip(*rows) if rows else [()] * 5
    kernel_rows = {}  # (margin, a, b) -> its row, in order of first use
    path_row = [kernel_rows.setdefault((spec.margin, spec.a, spec.b), len(kernel_rows))
                for _, spec in paths]
    tails = {}  # margin -> its tail, in order of first use
    tail = [tails.setdefault(margin, len(tails)) for margin, _, _ in kernel_rows]
    _, a, b = zip(*kernel_rows) if kernel_rows else ((), (), ())
    kernel = KernelRows(tuple(tails), np.array(tail, dtype=np.intp), np.array(a, dtype=float),
                        np.array(b, dtype=float), np.array(path_row, dtype=np.intp))
    return CellGrid(*map(np.array, columns, (str, str, float, float, float)), ks, kstars, kernel)


def evaluate_cells(pseudo: PseudoSample, grid: CellGrid, so: SecondOrderParams | None, *,
                   workspace: Workspace | None = None) -> np.ndarray:
    """Estimates of one sample on every cell, a (paths, k) array, from one kernel call on
    the grid's distinct rows, each margin's tail a row of the stacked tails: NaN where an
    estimate is undefined, and on every reduced-bias path when ``so`` is None.  Given a
    study's ``workspace``, the stacked tails and the kernel's arrays are its buffers."""
    rows = grid.kernel
    top = int(grid.ks.max(initial=0))  # a path reads top + 1 values at its largest k
    tails, *_ = kernel(workspace, len(rows.margins), len(rows.a), top, len(grid.ks))
    for margin, out in zip(rows.margins, tails):
        pseudo.top(margin, top + 1, out=out)
    etas = m_ab_path(tails, grid.ks, rows.a, rows.b, rows.tail,
                     workspace=workspace)[rows.path_row]
    if grid.kstars is not None:
        reduced = grid.estimator == "reduced"
        etas[reduced] = math.nan if so is None else \
            reduced_bias_path(pseudo, grid.ks, grid.kstars, grid.a[reduced], so, etas[reduced])
    return etas


def _evaluate_replicate(config: StudyConfig, grid: CellGrid, r: int,
                        workspace: Workspace | None = None) -> np.ndarray:
    """Estimates of replicate r on every cell of ``grid``, a new array; sampling, ranking,
    second-order estimation and the kernel run in ``workspace`` if one is given."""
    rng = replicate_generator(config.master_seed, r)
    u, v = sample_copula(config.model, config.n, rng, workspace=workspace)
    pseudo = PseudoSample.from_sample(BivariateSample(u, v), workspace=workspace)
    so = None
    if grid.kstars is not None:
        try:
            so = config.second_order.resolve(config.model, pseudo, workspace=workspace)
        except ResidualDepError:
            pass
    return evaluate_cells(pseudo, grid, so, workspace=workspace)


def _evaluate_block(config: StudyConfig, grid: CellGrid, replicates: range) -> list:
    """The merge stack of ``replicates``, evaluated in order through one workspace.  It
    holds the nodes that the whole study's tree builds from them only if the block starts
    at a multiple of a power of two B and holds at most B replicates."""
    evaluate = partial(_evaluate_replicate, config, grid, workspace=Workspace(config.n))
    return _fold(map(_Moments.leaf, map(evaluate, replicates)))


# --- order-insensitive moment merging ---------------------------------------

class _Moments(NamedTuple):
    """Per-cell count, mean and M2 (sum of squared deviations from the mean)."""

    rank: int
    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray

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


def _fold(nodes) -> list:
    """Push ``nodes`` in order on a binary counter; j leaves leave a node per set bit of j."""
    stack: list[_Moments] = []
    for node in nodes:
        while stack and stack[-1].rank == node.rank:
            node = stack.pop().merge(node)
        stack.append(node)
    return stack


def _root(nodes) -> _Moments:
    """The root of the fixed tree over ``nodes``: their stack, merged from the top."""
    return reduce(lambda above, node: node.merge(above), reversed(_fold(nodes)))


def _merge_stream(chunks) -> _Moments:
    """Fold replicate vectors (in index order) along a fixed binary tree."""
    return _root(map(_Moments.leaf, chunks))


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


CSV_COLUMNS = CellResult._fields
_cell_key = itemgetter(0, 1, 2, 5)  # estimator, margin, q, k


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """A study's results as arrays over its (paths, k) grid.

    ``stats[:, p, j]`` (mean, bias, variance, mse) and ``n_ok[p, j]`` belong
    to path p of ``grid`` at its j-th k.  Path after path, k after k, is the
    report's row order, sorted by (estimator, margin, q, k); ``_paths`` walks it.
    """

    config: StudyConfig
    grid: CellGrid
    stats: np.ndarray  # (4, paths, k)
    n_ok: np.ndarray  # (paths, k)

    def _paths(self, k_fields, paths=None):
        """Per path in row order, or per path of the ascending indices ``paths``: its
        head fields (estimator..b), its k fields, made by ``k_fields(ks, k_over_n,
        kstars)`` once for all raw and once for all reduced-bias paths, and its statistic
        columns (mean..mse, n_ok, n_fail), as Python values.  Only one path's statistics
        are Python objects at a time."""
        grid = self.grid
        ks, k_over_n = grid.ks.tolist(), (grid.ks / self.config.n).tolist()
        shared = {"raw": k_fields(ks, k_over_n, [None] * len(ks))}
        if grid.kstars is not None:
            shared["reduced"] = k_fields(ks, k_over_n, grid.kstars.tolist())
        heads = list(zip(*(column.tolist() for column in grid[:5])))  # estimator..b
        for p in range(len(heads)) if paths is None else paths:
            n_ok = self.n_ok[p]
            yield heads[p], shared[heads[p][0]], (*self.stats[:, p].tolist(), n_ok.tolist(),
                                                  (self.config.N - n_ok).tolist())

    def rows(self, paths=None):
        """Each cell's CSV fields as Python values, in row order; only the cells of the
        ascending path indices ``paths`` if given."""
        for head, k_columns, stats in self._paths(lambda *k_columns: k_columns, paths):
            yield from zip(*map(repeat, head), *k_columns, *stats)

    @cached_property
    def cells(self) -> tuple:
        """Every row as a CellResult, built on first use."""
        return tuple(starmap(CellResult, self.rows()))

    @property
    def flagged(self) -> tuple:
        """Cells where more than 10% of replicates failed."""
        failed = (self.config.N - self.n_ok) / self.config.N > 0.1
        paths = np.flatnonzero(failed.any(axis=1)).tolist()  # only these are walked
        rows = compress(self.rows(paths), failed[paths].ravel().tolist())
        return tuple(starmap(CellResult, rows))

    def cell(self, estimator: str, margin, q: float, k: int) -> CellResult:
        key = (estimator, Margin(margin).value, q, k)
        i = bisect.bisect_left(self.cells, key, key=_cell_key)
        if i < len(self.cells) and _cell_key(self.cells[i]) == key:
            return self.cells[i]
        raise KeyError(f"no cell ({estimator}, {key[1]}, q={q}, k={k})")


def run_study(config: StudyConfig, *, workers: int = 1) -> SimulationReport:
    """Execute the study; results are independent of ``workers``.

    ``_evaluate_block`` evaluates and folds contiguous blocks, one workspace each: one
    block at one worker, else blocks of B, the largest power of two at most
    N // (4 * workers), on a pool of at most one process per block.  A block that
    starts at a multiple of B and holds at most B replicates folds into the nodes that
    the fixed index-order tree builds from them, so with the per-replicate streams the
    report is bit-identical for any worker count; a B not a power of two breaks this.
    """
    grid = cell_grid(config.margins, config.q_grid, config.k_grid, config.kstar_rule,
                     config.n, Margin.FRECHET_SHIFTED in config.margins)
    truth = config.model.true_eta if config.model.true_eta is not None else math.nan
    size = config.N if workers <= 1 else 1 << (max(1, config.N // (4 * workers)).bit_length() - 1)
    blocks = [range(start, min(start + size, config.N)) for start in range(0, config.N, size)]
    evaluate = partial(_evaluate_block, config, grid)
    if len(blocks) == 1:
        stacks = map(evaluate, blocks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled study needs it
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            stacks = list(pool.map(evaluate, blocks))
    moments = _root(chain.from_iterable(stacks))

    ok = moments.count > 0
    scored = ok & math.isfinite(truth)
    mean = np.where(ok, moments.mean, math.nan)
    variance = np.where(ok, moments.m2 / np.maximum(moments.count, 1), math.nan)
    bias = np.where(scored, mean - truth, math.nan)
    mse = np.where(scored, variance + bias * bias, math.nan)
    return SimulationReport(config, grid, np.stack([mean, bias, variance, mse]), moments.count)


def _csv_fields(columns, values) -> str:
    """The CSV fields of ``values``, each followed by its comma (None is empty)."""
    return "".join(f"{'' if v is None else v}," for v in values)


def _json_fields(columns, values) -> str:
    """``"column": value, `` pairs as ``json.dumps`` writes them; a non-finite float is null."""
    return json.dumps({c: None if isinstance(v, float) and not math.isfinite(v) else v
                       for c, v in zip(columns, values)}, allow_nan=False)[1:-1] + ", "


# strict JSON has no NaN or infinity: a statistic whose repr is one of these is null
_JSON_NULL = {"nan": "null", "inf": "null", "-inf": "null"}


def _json_numbers(values):
    strs = list(map(repr, values))
    return map(_JSON_NULL.get, strs, strs)


# a row from its head fields, its k fields and the six statistic columns; a ``{}``
# field of a Python float or int is its repr
_CSV_LINE = "{}{}{},{},{},{},{},{}\n".format
_JSONL_LINE = ('{{{}{}"mean": {}, "bias": {}, "variance": {}, "mse": {}, '
               '"n_ok": {}, "n_fail": {}}}\n').format


def _lines(report: SimulationReport, format: str):
    """The report's text, one string per path.  Fields that paths share are formatted
    once per path (estimator..b) or once per grid (k, k_over_n, kstar), and each row
    by one ``str.format`` mapped over the path's columns."""
    if format == "csv":
        yield ",".join(CSV_COLUMNS) + "\n"
        fields, line, numbers = _csv_fields, _CSV_LINE, iter  # statistics as they are
    elif format == "jsonl":
        fields, line, numbers = _json_fields, _JSONL_LINE, _json_numbers
    else:
        raise ValueError(f"unknown report format {format!r}")

    def k_fields(*k_columns):
        return [fields(CSV_COLUMNS[5:8], row) for row in zip(*k_columns)]

    for head, k_rows, (*stats, n_ok, n_fail) in report._paths(k_fields):
        yield "".join(map(line, repeat(fields(CSV_COLUMNS[:5], head)), k_rows,
                          *map(numbers, stats), n_ok, n_fail))


def emit_report(report: SimulationReport, format: str = "csv") -> str:
    """Serialise the report rows in their order; 'csv' or 'jsonl'."""
    return "".join(_lines(report, format))


def write_report(report: SimulationReport, path, format: str = "csv") -> None:
    lines = _lines(report, format)
    first = next(lines, "")  # an unknown format raises here, before the file is truncated
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(first)
            fh.writelines(lines)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
