"""A fresh interpreter runs the numpy-only commands, confidence intervals
included, without importing scipy or a process pool, and imports scipy where
the Gaussian copula family needs it: only that family imports scipy."""
import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent

NUMPY_ONLY = """
import json, sys
import numpy as np
import residualdep
import residualdep.cli as cli

def lazy_modules():
    return sorted(m for m in ("scipy", "concurrent.futures.process") if m in sys.modules)

assert lazy_modules() == [], lazy_modules()
with open("cfg.json", "w") as fh:
    json.dump({"model": {"family": "frank", "theta": 0.5}, "n": 100, "N": 3,
               "q_grid": [0.5, 1.0], "k_grid": [5, 10],
               "second_order": {"mode": "oracle"}, "master_seed": 1}, fh)
rng = np.random.default_rng(5)
with open("pairs.csv", "w") as fh:
    fh.write("a,b\\n" + "".join(f"{x!r},{y!r}\\n" for x, y in rng.random((300, 2)).tolist()))
codes = [
    cli.main(["simulate", "--config", "cfg.json", "--out", "cells.csv", "--workers", "1"]),
    cli.main(["second-order", "--data", "pairs.csv", "--x", "a", "--y", "b", "--dry", "0",
              "--quantile", "0", "--out", "so.csv"]),
    cli.main(["oracle", "--n", "50", "--seed", "1"]),
    cli.main(["estimate", "--data", "pairs.csv", "--x", "a", "--y", "b", "--dry", "0",
              "--quantile", "0", "--reduce-bias", "--out", "eta.csv"]),
]
assert codes == [0, 0, 0, 0], codes
# sigma_a^2, the bias factor and the intervals are numpy-only; only the Gaussian
# copula family imports scipy
assert residualdep.asymptotic_variance(0.5, 0.5) == 0.28125
assert residualdep.asymptotic_variance(-499.0, 1e153) == float("inf")
assert residualdep.asymptotic_bias(0.0, 0.5, 0.5) == 0.5 / 0.75
low, high = residualdep.estimators.uncertainty(0.5, 100, 0.5)[1:]
assert low < 0.5 < high, (low, high)
pseudo = residualdep.PseudoSample.from_sample(residualdep.BivariateSample(*rng.random((2, 300))))
spec = residualdep.EstimatorSpec.conjugate(2.0, "frechet_shifted")
assert residualdep.point_estimate(pseudo, 50, spec).ci_low < residualdep.eta_hat(pseudo, 50, spec)
so = residualdep.SecondOrderParams(tau_hat=0.5, beta_hat=1.0, k0=299)
assert residualdep.reduced_bias_eta(pseudo, 100, 10, 0.5, so).ci_high > 0.0
assert lazy_modules() == [], lazy_modules()
"""

SCIPY_USERS = """
import sys
import numpy as np
from residualdep import CopulaModel, copula_cdf, sample_copula
from residualdep.estimators import uncertainty

assert "scipy" not in sys.modules
u, v = sample_copula(CopulaModel("gaussian", 0.5), 200, 3)
assert "scipy" in sys.modules
assert np.all((0.0 < u) & (u < 1.0)) and np.all((0.0 < v) & (v < 1.0))
print(repr(copula_cdf(CopulaModel("gaussian", 0.5), 0.3, 0.6)))
print(repr(uncertainty(0.5, 100, 0.5)[1:]))
print(u.tobytes().hex()[:64], v.tobytes().hex()[:64])
"""


def run_fresh(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_numpy_only_commands_import_no_scipy_and_no_pool(tmp_path):
    proc = run_fresh(NUMPY_ONLY, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cells.csv").stat().st_size > 0
    assert (tmp_path / "so.csv").read_text().startswith("tau_hat,beta_hat,k0,n\n")
    assert (tmp_path / "eta.csv").read_text().startswith("q,k,k_over_n,eta,ci_low,ci_high,")


def test_scipy_users_work_in_a_fresh_interpreter(tmp_path):
    from residualdep import CopulaModel, copula_cdf, sample_copula
    from residualdep.estimators import uncertainty

    proc = run_fresh(SCIPY_USERS, tmp_path)
    assert proc.returncode == 0, proc.stderr
    u, v = sample_copula(CopulaModel("gaussian", 0.5), 200, 3)
    assert proc.stdout.splitlines() == [
        repr(copula_cdf(CopulaModel("gaussian", 0.5), 0.3, 0.6)),
        repr(uncertainty(0.5, 100, 0.5)[1:]),
        f"{u.tobytes().hex()[:64]} {v.tobytes().hex()[:64]}",
    ]
