"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Monte Carlo criteria use fixed master seeds, so outcomes
are reproducible.
"""
import math
import time

import numpy as np
import pytest

from residualdep import BivariateSample, CopulaModel, EstimatorSpec, Margin, \
    PseudoSample, SecondOrderParams, SecondOrderSpec, StudyConfig, asymptotic_bias, \
    asymptotic_variance, effective_tau, eta_hat, joint_exceedance_count, \
    m_ab, reduced_bias_eta, replicate_generator, run_study, sample_copula


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {status} — {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


def _pseudo_from(model, n, master, r):
    u, v = sample_copula(model, n, replicate_generator(master, r))
    return PseudoSample.from_sample(BivariateSample(u, v))


def test_criterion_1_exact_identities():
    t0 = time.time()
    ok = True
    notes = []

    # q = 1 resolves to Hill bit-for-bit, both parametrisations
    pseudo = _pseudo_from(CopulaModel("frank", 1.0), 400, 11, 0)
    hill = m_ab(pseudo.top(Margin.PARETO_T)[400 - 41:], 40, 0.0, 0.0)
    ok &= eta_hat(pseudo, 40, EstimatorSpec.conjugate(1.0)) == hill
    ok &= eta_hat(pseudo, 40, EstimatorSpec.mean_of_order_p(1.0)) == hill

    # scale invariance and constant-tail zero
    rng = np.random.default_rng(13)
    tail = np.sort(1.0 + rng.pareto(2.0, size=33))
    for c in (1e-9, 0.25, 7.0, 1e9):
        ok &= abs(m_ab(c * tail, 32, 0.7, -0.7) - m_ab(tail, 32, 0.7, -0.7)) <= 1e-12
    ok &= m_ab(np.full(11, 4.2), 10, 0.3, -0.8) == 0.0

    # joint-exceedance indicator identity vs O(n^2) brute force,
    # 500 random tie-free samples with n <= 100, every m checked
    rng = np.random.default_rng(4040)
    worst = 0
    for _ in range(500):
        n = int(rng.integers(2, 101))
        x, y = rng.random(n), rng.random(n)
        sample = BivariateSample(x, y)
        p = PseudoSample.from_sample(sample)
        ms = np.arange(1, n + 1)
        xs, ys = np.sort(x), np.sort(y)
        brute = ((x[None, :] >= xs[n - ms][:, None])
                 & (y[None, :] >= ys[n - ms][:, None])).sum(axis=1)
        via_t = (p.top(Margin.PARETO_T)[None, :] >= (n + 1) / ms[:, None]).sum(axis=1)
        worst = max(worst, int(np.abs(brute - via_t).max()))
        ok &= np.array_equal(brute, via_t)
        m_spot = int(ms[-1]) // 2 + 1
        ok &= joint_exceedance_count(sample, m_spot, 1.0) == brute[m_spot - 1]
    notes.append(f"max count mismatch {worst}")

    elapsed = time.time() - t0
    notes.append(f"{elapsed:.2f}s")
    ok &= elapsed < 1.0
    _report(1, "exact-identity suite", bool(ok), "; ".join(notes))


def test_criterion_2_closed_form_plug_ins():
    ok = True
    etas = (0.1, 0.25, 0.5, 0.8, 1.0)
    taus = (0.1, 0.5, 1.0, 2.0)
    for eta in etas:
        ok &= abs(asymptotic_variance(0.0, eta) - eta * eta) <= 1e-12
        for tau in taus:
            ok &= abs(asymptotic_bias(0.0, eta, tau) - 1.0 / (1.0 + tau)) <= 1e-12
        for a in np.linspace(-3.0, 0.49 / eta, 25):
            var = asymptotic_variance(float(a), eta)
            if a == 0.0:
                ok &= var == eta * eta
            else:
                ok &= var > eta * eta * (1.0 - 1e-12)
    _report(2, "closed-form variance and bias plug-ins", bool(ok))


def test_criterion_3_synthetic_pareto_tail():
    t0 = time.time()
    n, k, n_rep = 10_000, 500, 200
    results = {}
    ok = True
    for eta in (0.25, 0.5, 0.8):
        hits = 0
        for r in range(n_rep):
            rng = replicate_generator(303, r)
            t = np.sort(rng.random(n) ** (-eta))
            hill = m_ab(t[n - k - 1:], k, 0.0, 0.0)
            hits += abs(hill - eta) <= 3.0 * eta / math.sqrt(k)
        results[eta] = hits / n_rep
        ok &= hits >= 0.95 * n_rep
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    detail = ", ".join(f"eta={e}: {f:.1%}" for e, f in results.items()) + f"; {elapsed:.1f}s"
    _report(3, "Hill on exact Pareto tails within 3*eta/sqrt(k)", bool(ok), detail)


def _hill_study(model, master_seed):
    config = StudyConfig(
        model=model, n=500, N=200, q_grid=(1.0,), k_grid=(0.05,),
        margins=(Margin.PARETO_T,), master_seed=master_seed,
        second_order=SecondOrderSpec(mode="oracle", tau=1.0, beta=0.0),
    )
    report = run_study(config)
    return report.cell("raw", Margin.PARETO_T, 1.0, 25)


def test_criterion_4_copula_ground_truth():
    t0 = time.time()
    cases = [
        (CopulaModel("frank", 0.5), 0.5, 801),
        (CopulaModel("amh", -1.0), 1.0 / 3.0, 802),
        (CopulaModel("fgm", -0.25), 0.5, 803),
    ]
    ok = True
    details = []
    for model, truth, seed in cases:
        cell = _hill_study(model, seed)
        dev = abs(cell.mean - truth)
        ok &= dev < 0.08 and cell.n_fail == 0
        details.append(f"{model.family.value}: |mean-truth|={dev:.4f}")
    details.append(f"{time.time() - t0:.1f}s")
    _report(4, "Hill mean within ±0.08 of copula ground truth at k/n=0.05",
            bool(ok), ", ".join(details))


def test_criterion_5_bias_reduction():
    # AMH theta=-1, q=0.9, k* = [n^0.3] = 6 capped at sqrt(k) per the
    # correction's validity constraint; (tau, beta) = (effective tau, 0)
    # supplied externally, mirroring the study protocol
    model = CopulaModel("amh", -1.0)
    truth = 1.0 / 3.0
    n, n_rep, q = 500, 200, 0.9
    a = 1.0 - 1.0 / q
    so = SecondOrderParams(tau_hat=effective_tau(1 / 3, 2 / 3), beta_hat=0.0, k0=0)
    kstar_nominal = int(n ** 0.3)
    ks = range(25, 51)  # k/n in [0.05, 0.10]
    spec = EstimatorSpec.from_ab(a, -a, Margin.FRECHET_SHIFTED)

    raw_sum = {k: 0.0 for k in ks}
    red_sum = {k: 0.0 for k in ks}
    direction_ok = True
    for r in range(n_rep):
        pseudo = _pseudo_from(model, n, 805, r)
        for k in ks:
            kstar = min(kstar_nominal, math.isqrt(k))
            raw = eta_hat(pseudo, k, spec)
            red = reduced_bias_eta(pseudo, k, kstar, a, so).eta
            direction_ok &= red <= raw  # beta_hat = 0 >= 0
            raw_sum[k] += raw
            red_sum[k] += red
    raw_mab = np.mean([abs(raw_sum[k] / n_rep - truth) for k in ks])
    red_mab = np.mean([abs(red_sum[k] / n_rep - truth) for k in ks])
    ok = (red_mab < raw_mab) and direction_ok
    _report(5, "reduced-bias estimator beats raw on AMH",
            bool(ok), f"raw MAB {raw_mab:.4f} vs reduced {red_mab:.4f}; "
                      f"direction invariant {'held' if direction_ok else 'VIOLATED'}")


def test_criterion_6_margin_equivalence_trend():
    model = CopulaModel("frank", 0.5)
    n_rep = 200
    ok = True
    details = []
    for a in (-0.5, 0.0, 0.5):
        stat = {}
        for idx, n in enumerate((125, 500)):
            k = int(n ** 0.4)
            total = 0.0
            for r in range(n_rep):
                pseudo = _pseudo_from(model, n, 806 + idx, r)
                diff = abs(
                    eta_hat(pseudo, k, EstimatorSpec.from_ab(a, -a, Margin.FRECHET_SHIFTED))
                    - eta_hat(pseudo, k, EstimatorSpec.from_ab(a, -a, Margin.PARETO_T))
                )
                total += math.sqrt(k) * diff
            stat[n] = total / n_rep
        ok &= stat[500] < stat[125]
        details.append(f"a={a}: {stat[125]:.4f} -> {stat[500]:.4f}")
    _report(6, "sqrt(k)-scaled margin gap shrinks from n=125 to n=500",
            bool(ok), "; ".join(details))


def test_criterion_7_determinism_across_workers(tmp_path):
    import json

    from residualdep.cli import main as cli_main

    doc = {
        "model": {"family": "frank", "theta": 2.0},
        "n": 200, "N": 24, "q_grid": [0.9, 1.0], "k_grid": [10, 20],
        "kstar_rule": "pow0.3", "master_seed": 807,
        "second_order": "per_replicate",
    }
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(doc))
    outputs = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}.csv"
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)])
        assert code == 0
        outputs[workers] = out.read_bytes()
    ok = outputs[1] == outputs[4] == outputs[8]
    _report(7, "simulate CSV byte-identical under 1/4/8 workers",
            ok, f"{len(outputs[1].splitlines()) - 1} cells")


def test_criterion_8_gaussian_robustness_smoke():
    # tau = 0 lies outside the bias theory; wide-band smoke test only
    cell = _hill_study(CopulaModel("gaussian", 0.6), 808)
    ok = 0.65 <= cell.mean <= 0.95
    _report(8, "Gaussian theta=0.6 Hill mean in [0.65, 0.95] (truth 0.8)",
            ok, f"mean {cell.mean:.4f}")
