"""A study's workspace changes no result.

Given a workspace that earlier replicates have used, in any order, ``sample_copula``,
``PseudoSample.from_sample``, ``estimate_second_order`` and the kernel return the bytes
they return without one, the kernel also after grids of other shapes; without one they
return new arrays; and a study's report is the same at any worker count, with each
block of replicates in a workspace of its own, folded into the stack of merge nodes
that the whole study's tree builds from it, on a pool of at most one process a block.
"""
import concurrent.futures
from functools import partial

import numpy as np
import pytest

from residualdep import BivariateSample, CopulaModel, Margin, PseudoSample, ResidualDepError, \
    TieError, compute_ranks, config_from_dict, emit_report, estimate_second_order, \
    replicate_generator, run_study, sample_copula
from residualdep._workspace import Workspace
from residualdep.estimators import m_ab_path
from residualdep.simulate import ALL_MARGINS, _evaluate_block, _evaluate_replicate, _merge_stream, \
    cell_grid, evaluate_cells

N_ROWS = 2_000
FAMILIES = [("gaussian", 0.3), ("frank", 0.5), ("fgm", 0.7), ("amh", -1.0)]
REPLICATES = range(4)


def study(family, theta, N, n=N_ROWS, q_grid=(0.5, 1.0), k_grid=(20, 100, 400)):
    return config_from_dict({
        "model": {"family": family, "theta": theta}, "n": n, "N": N, "master_seed": 17,
        "q_grid": q_grid, "k_grid": k_grid, "second_order": "per_replicate",
        "margins": ["pareto_t", "frechet_shifted", "frechet_unshifted"]})


def cheap_study(N):
    """amh(-1) at n = 300 on 3 q and 3 k: about a millisecond a replicate."""
    return study("amh", -1.0, N, n=300, q_grid=(0.5, 1.0, 1.5), k_grid=(5, 20, 60))


def study_grid(config):
    return cell_grid(config.margins, config.q_grid, config.k_grid, config.kstar_rule,
                     config.n, True)


def replicate_bytes(config, r, workspace=None):
    """Every stage's result for replicate r, as bytes: u, v, rmin, (tau, beta) or the
    error second order raised, and the estimates on every cell."""
    model, grid = config.model, study_grid(config)
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


def assert_alike_at_any_worker_count(config):
    # reduced-bias paths, whose base rows are kernel rows of the raw frechet_shifted
    # paths, and a k_max of 0.2 n
    assert Margin.FRECHET_SHIFTED in config.margins and max(config.k_grid) >= 0.1 * config.n
    reports = {workers: emit_report(run_study(config, workers=workers)) for workers in (1, 2, 3)}
    assert reports[1] == reports[2] == reports[3]
    # the moments of replicates evaluated without a workspace, merged in index order
    grid = study_grid(config)
    moments = _merge_stream(map(partial(_evaluate_replicate, config, grid), range(config.N)))
    report = run_study(config)
    assert report.n_ok.tobytes() == moments.count.tobytes()
    assert report.stats[0].tobytes() == np.where(moments.count > 0, moments.mean,
                                                 np.nan).tobytes()


@pytest.mark.parametrize("N", [1, 7, 65])
def test_reports_alike_at_any_worker_count(N):
    assert_alike_at_any_worker_count(study("amh", -1.0, N))


@pytest.mark.parametrize("N", [100, 1000])
def test_reports_alike_where_a_quarter_share_is_no_power_of_two(N):
    # N // (4 * workers) is 12 (N = 100) and 125 (N = 1000) at 2 workers, 83 (N = 1000)
    # at 3: blocks of that many would not fold into the nodes of the whole study's tree
    assert_alike_at_any_worker_count(cheap_study(N))


@pytest.mark.parametrize("length", [1, 5, 8, 13])
def test_block_folds_into_the_nodes_of_the_whole_tree(length):
    config = cheap_study(32)
    grid, replicates = study_grid(config), range(16, 16 + length)  # 16: aligned for 13
    stack = _evaluate_block(config, grid, replicates)
    ranks = [node.rank for node in stack]  # one node per set bit of the length
    assert all(rank & (rank - 1) == 0 for rank in ranks)
    assert ranks == sorted(set(ranks), reverse=True) and sum(ranks) == length
    if length == 8:
        want = _merge_stream(_evaluate_replicate(config, grid, r) for r in replicates)
        (node,) = stack
        for got, expected in zip(node[1:], want[1:]):  # count, mean, m2
            assert got.tobytes() == expected.tobytes()


def test_pool_has_at_most_one_process_a_block(monkeypatch):
    asked = []

    class InProcessPool:
        """Records ``max_workers`` and maps in this process; starts no process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = cheap_study(3)
    assert emit_report(run_study(config, workers=64)) == emit_report(run_study(config))
    assert asked and max(asked) <= 3
    run_study(cheap_study(1), workers=64)  # one block: no pool
    assert len(asked) == 1
