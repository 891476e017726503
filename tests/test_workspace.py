"""A study's workspace changes no result.

Given a workspace that earlier replicates have used, in any order, ``sample_copula``,
``PseudoSample.from_sample``, ``estimate_second_order`` and the kernel return the bytes
they return without one, the kernel also after grids of other shapes; without one they
return new arrays; and a study's report is the same at any worker count, with each
block of replicates in a workspace of its own.
"""
from functools import partial

import numpy as np
import pytest

from residualdep import BivariateSample, CopulaModel, Margin, PseudoSample, ResidualDepError, \
    TieError, compute_ranks, config_from_dict, emit_report, estimate_second_order, \
    replicate_generator, run_study, sample_copula
from residualdep._workspace import Workspace
from residualdep.estimators import m_ab_path
from residualdep.simulate import ALL_MARGINS, _evaluate_replicate, _merge_stream, cell_grid, \
    evaluate_cells

N_ROWS = 2_000
FAMILIES = [("gaussian", 0.3), ("frank", 0.5), ("fgm", 0.7), ("amh", -1.0)]
REPLICATES = range(4)


def study(family, theta, N, n=N_ROWS):
    return config_from_dict({
        "model": {"family": family, "theta": theta}, "n": n, "N": N, "master_seed": 17,
        "q_grid": [0.5, 1.0], "k_grid": [20, 100, 400], "second_order": "per_replicate",
        "margins": ["pareto_t", "frechet_shifted", "frechet_unshifted"]})


def replicate_bytes(config, r, workspace=None):
    """Every stage's result for replicate r, as bytes: u, v, rmin, (tau, beta) or the
    error second order raised, and the estimates on every cell."""
    model, grid = config.model, cell_grid(config.margins, config.q_grid, config.k_grid,
                                          config.kstar_rule, config.n, True)
    u, v = sample_copula(model, config.n, replicate_generator(config.master_seed, r),
                         workspace=workspace)
    stages = [u.tobytes(), v.tobytes()]  # copied now: ranking reuses the workspace
    pseudo = PseudoSample.from_sample(BivariateSample(u, v), workspace=workspace)
    stages.append(pseudo.rmin.tobytes())
    try:
        so = estimate_second_order(pseudo, workspace=workspace)
        stages.append((so.tau_hat.hex(), so.beta_hat.hex(), so.k0))
    except ResidualDepError as exc:
        stages.append(repr(exc))
    stages.append(_evaluate_replicate(config, grid, r, workspace).tobytes())
    return stages


@pytest.mark.parametrize("family,theta", FAMILIES)
def test_reused_workspace_gives_the_bytes_of_none(family, theta):
    config = study(family, theta, len(REPLICATES))
    want = {r: replicate_bytes(config, r) for r in REPLICATES}
    workspace = Workspace(config.n)
    for order in (REPLICATES, reversed(REPLICATES)):
        for r in order:
            assert replicate_bytes(config, r, workspace) == want[r], (family, r)


def tied_samples():
    rng = np.random.default_rng(23)
    return [BivariateSample(*np.round(rng.random((2, N_ROWS)), 2)) for _ in range(3)]


def rank_bytes(sample, policy, workspace=None):
    try:
        rx, ry = compute_ranks(sample, policy, workspace=workspace)
        ranks = rx.tobytes() + ry.tobytes()
        return ranks, PseudoSample.from_sample(sample, policy, workspace=workspace).rmin.tobytes()
    except TieError as exc:
        return repr(exc)


@pytest.mark.parametrize("policy", ["first_occurrence", "strict"])
def test_tied_samples_rank_alike_in_a_workspace(policy):
    untied = BivariateSample(*np.random.default_rng(29).random((2, N_ROWS)))
    samples = tied_samples() + [untied]
    want = [rank_bytes(sample, policy) for sample in samples]
    assert isinstance(want[0], str if policy == "strict" else tuple)
    assert isinstance(want[-1], tuple)  # an untied sample ranks under either policy
    workspace = Workspace(N_ROWS)
    for order in (range(len(samples)), reversed(range(len(samples)))):
        for i in order:
            assert rank_bytes(samples[i], policy, workspace) == want[i], i


@pytest.mark.parametrize("family,theta", FAMILIES)
def test_calls_without_workspace_return_new_arrays(family, theta):
    model, arrays = CopulaModel(family, theta), []
    for r in REPLICATES:
        u, v = sample_copula(model, N_ROWS, r)
        sample = BivariateSample(u, v)
        pseudo = PseudoSample.from_sample(sample)
        arrays += [u, v, *compute_ranks(sample), pseudo.rmin, pseudo.top(Margin.PARETO_T)]
    for i, later in enumerate(arrays):
        assert not any(np.shares_memory(later, earlier) for earlier in arrays[:i]), i


def test_workspace_of_another_size_refused():
    message = "workspace holds samples of n = 300, not 200"
    with pytest.raises(ValueError, match=message):
        sample_copula(CopulaModel("frank", 0.5), 200, 1, workspace=Workspace(300))
    sample = BivariateSample(*np.random.default_rng(2).random((2, 200)))
    for policy in ("first_occurrence", "strict", "jitter"):
        with pytest.raises(ValueError, match=message):
            PseudoSample.from_sample(sample, policy, workspace=Workspace(300))
    with pytest.raises(ValueError, match=message):
        estimate_second_order(PseudoSample.from_sample(sample), workspace=Workspace(300))


# (margins, q grid, k grid): each grid's kernel shape (tails, rows, k_max) differs from
# the one before it, and the last is the first again
GRIDS = [
    (ALL_MARGINS, (0.5, 1.0), (20, 100, 400)),  # 3 tails, 6 rows, k_max 400
    (ALL_MARGINS, (1e-3, 0.3, 0.5, 1.0, 1.7), (20, 100, 400)),  # 15 rows, log-space sums
    (ALL_MARGINS, (0.5, 1.0), (20, 1_000)),  # k_max 1,000
    ((Margin.PARETO_T,), (0.5, 1.0, 1.5), (20, 100, 400)),  # 2 tails: reduced rows of their own
    (ALL_MARGINS, (0.5, 1.0), (20, 100, 400)),
]


def test_kernel_buffers_reused_across_grids():
    config = study("amh", -1.0, 3)
    samples = []
    for r in range(config.N):
        u, v = sample_copula(config.model, config.n, replicate_generator(config.master_seed, r))
        pseudo = PseudoSample.from_sample(BivariateSample(u, v))
        samples.append((pseudo, estimate_second_order(pseudo)))
    grids = [cell_grid(margins, q_grid, k_grid, config.kstar_rule, config.n, True)
             for margins, q_grid, k_grid in GRIDS]
    shapes = [(len(g.kernel.margins), len(g.kernel.a), int(g.ks.max())) for g in grids]
    assert all(before != after for before, after in zip(shapes, shapes[1:]))
    workspace = Workspace(config.n)
    for grid in grids + grids[::-1]:
        for pseudo, so in samples:
            want = evaluate_cells(pseudo, grid, so)
            assert evaluate_cells(pseudo, grid, so, workspace=workspace).tobytes() == \
                want.tobytes()
        # a one-tail call in between, as ``estimate`` would make it
        tail = pseudo.top(Margin.FRECHET_SHIFTED)
        assert m_ab_path(tail, grid.ks, grid.a, grid.b, workspace=workspace).tobytes() == \
            m_ab_path(tail, grid.ks, grid.a, grid.b).tobytes()


@pytest.mark.parametrize("N", [1, 7, 65])
def test_reports_alike_at_any_worker_count(N):
    config = study("amh", -1.0, N)
    # reduced-bias paths, whose base rows are kernel rows of the raw frechet_shifted
    # paths, and a k_max of 0.2 n
    assert Margin.FRECHET_SHIFTED in config.margins and max(config.k_grid) >= 0.1 * config.n
    reports = {workers: emit_report(run_study(config, workers=workers)) for workers in (1, 2, 3)}
    assert reports[1] == reports[2] == reports[3]
    # the moments of replicates evaluated without a workspace, merged in index order
    grid = cell_grid(config.margins, config.q_grid, config.k_grid, config.kstar_rule,
                     config.n, True)
    moments = _merge_stream(map(partial(_evaluate_replicate, config, grid), range(N)))
    report = run_study(config)
    assert report.n_ok.tobytes() == moments.count.tobytes()
    assert report.stats[0].tobytes() == np.where(moments.count > 0, moments.mean,
                                                 np.nan).tobytes()
