"""Reduced-bias estimation on the copula with the strongest bias problem.

The AMH copula at theta = -1 has eta = 1/3 and tau = 2/3; with the
shift by 1/2 its effective second-order parameter is min(tau, eta) = 1/3.
The correction multiplies the shifted-Frechet estimate by a factor built
from (tau, beta) and one V order statistic, and is worth the most here:
the raw estimator's positive bias grows steadily with k while the
corrected path stays near the truth.
"""
import numpy as np

from residualdep import BivariateSample, CopulaModel, EstimatorSpec, KstarRule, Margin, \
    PseudoSample, SecondOrderSpec, eta_hat, reduced_bias_eta, replicate_generator, \
    sample_copula

model = CopulaModel("amh", -1.0)
truth = model.true_eta
n, n_rep, q = 500, 300, 0.9
a = 1.0 - 1.0 / q

# study protocol: second-order parameters supplied externally; here the
# oracle ones, the model's effective tau with no Hall-Welsh amplitude (beta = 0)
so = SecondOrderSpec("oracle").resolve(model, None)
spec = EstimatorSpec.from_ab(a, -a, Margin.FRECHET_SHIFTED)
kstar_rule = KstarRule()  # k* = max([n^0.3], 10), capped at sqrt(k)

ks = np.arange(15, 76, 5)
raw_mean = np.zeros(len(ks))
red_mean = np.zeros(len(ks))
for r in range(n_rep):
    u, v = sample_copula(model, n, replicate_generator(42, r))
    pseudo = PseudoSample.from_sample(BivariateSample(u, v))
    for i, k in enumerate(ks):
        kstar = kstar_rule.resolve(n, int(k))
        raw_mean[i] += eta_hat(pseudo, int(k), spec) / n_rep
        red_mean[i] += reduced_bias_eta(pseudo, int(k), kstar, a, so).eta / n_rep

print(f"AMH(theta=-1), truth eta = {truth:.4f}, q = {q}, N = {n_rep}")
print(f"{'k/n':>6} {'raw mean':>10} {'raw bias':>10} {'reduced mean':>13} {'reduced bias':>13}")
for i, k in enumerate(ks):
    print(f"{k / n:>6.2f} {raw_mean[i]:>10.4f} {raw_mean[i] - truth:>+10.4f} "
          f"{red_mean[i]:>13.4f} {red_mean[i] - truth:>+13.4f}")

print()
print("The raw bias is positive and grows with k (more non-tail order")
print("statistics enter the average); the corrected path removes most of it")
print("without inflating the variance, so a wider k range becomes usable.")
