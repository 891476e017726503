import csv
import hashlib
import importlib
import io
import json
import math
import pathlib

import numpy as np
import pytest

from residualdep import cli
from residualdep.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pairs(path, x, y, header="a,b"):
    lines = [header] + [f"{float(xi)!r},{float(yi)!r}" for xi, yi in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def uniform_csv(tmp_path):
    rng = np.random.default_rng(1001)
    return write_pairs(tmp_path / "u.csv", rng.random(2000), rng.random(2000))


def parse_estimate_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestSimulateCommand:
    def test_end_to_end_and_flagging(self, tmp_path, capsys):
        config = {
            "model": {"family": "frank", "theta": 0.5},
            "n": 100, "N": 5, "q_grid": [1.0], "k_grid": [10],
            "margins": ["pareto_t", "frechet_shifted"],
            "second_order": {"mode": "oracle"},
            "master_seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "cells.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--out", str(out))
        assert code == 0 and err == ""
        rows = parse_estimate_csv(out.read_text())
        assert {r["estimator"] for r in rows} == {"raw", "reduced"}

    def test_seed_override_changes_output(self, tmp_path, capsys):
        config = {
            "model": {"family": "frank", "theta": 0.5},
            "n": 100, "N": 3, "q_grid": [1.0], "k_grid": [10],
            "margins": ["pareto_t"], "master_seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(a))
        run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(b))
        run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(c),
                "--seed", "999")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("update,message", [
        ({"k_grid": [1.5, 2.9, 10]}, "k_grid entry 1.5 is not an integer"),
        ({"n": 100.9}, "n 100.9 is not an integer"),
        ({"N": 2.5}, "N 2.5 is not an integer"),
        ({"second_order": {"mode": "per_replicate", "k0": 500}},
         "k0 must lie in 2..n-1 = 99, got 500"),
        ({"n": 40, "k_grid": [5]}, "'per_replicate' needs n >= 50, got 40"),
    ])
    def test_bad_config_values_exit_4(self, tmp_path, capsys, update, message):
        config = {"model": {"family": "frank", "theta": 0.5}, "n": 100, "N": 3,
                  "q_grid": [1.0], "k_grid": [10], "master_seed": 3, **update}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "cells.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--out", str(out))
        assert code == 4 and message in err
        assert not out.exists()


    @pytest.mark.parametrize("update,message", [
        ({"N": True, "q_grid": [True, 0.5], "k_grid": [True, 20], "master_seed": False},
         "N True is not an integer"),
        ({"q_grid": [True, 0.5]}, "q_grid values must not be booleans"),
        ({"k_grid": [True, 20]}, "k_grid entry True is not an integer"),
        ({"margins": ["pareto_t"], "second_order": {"mode": "per_replicate", "k0": 60}},
         "second-order k0: no effect without reduced-bias paths"),
        ({"kstar_rule": "powabc"}, "kstar_rule 'powabc' is not a k* rule"),
        ({"master_seed": -5}, "need master_seed >= 0, got -5"),
    ])
    def test_silent_config_values_exit_4(self, tmp_path, capsys, update, message):
        config = {"model": {"family": "frank", "theta": 0.5}, "n": 100, "N": 3,
                  "q_grid": [1.0], "k_grid": [10], "master_seed": 3, **update}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "cells.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--out", str(out))
        assert code == 4 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("update,message", [
        ({"q_grid": 5}, "q_grid must be a list, got 5"),
        ({"k_grid": 10}, "k_grid must be a list, got 10"),
        ({"margins": "pareto_t"}, "margins must be a list, got 'pareto_t'"),
        ({"q_grid": "0.5"}, "q_grid must be a list, got '0.5'"),
    ], ids=["q_number", "k_number", "margins_string", "q_string"])
    def test_grid_that_is_not_a_list_exits_4(self, tmp_path, capsys, update, message):
        config = {"model": {"family": "frank", "theta": 0.5}, "n": 100, "N": 3,
                  "q_grid": [1.0], "k_grid": [10], "master_seed": 3, **update}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "cells.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--out", str(out))
        assert code == 4 and message in err
        assert not out.exists()

    def test_negative_seed_override_exit_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"family": "frank", "theta": 0.5}, "n": 100,
                                        "N": 2, "q_grid": [1.0], "k_grid": [10]}))
        out = tmp_path / "cells.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--out", str(out), "--seed", "-3")
        assert code == 4 and "need master_seed >= 0, got -3" in err
        assert not out.exists()

    def test_boolean_numbers_exit_4(self, tmp_path, capsys):
        config = {"model": {"family": "frank", "theta": True}, "n": 100, "N": 3,
                  "q_grid": [1.0], "k_grid": [10], "kstar_rule": True,
                  "second_order": {"mode": "oracle", "tau": True, "beta": False},
                  "master_seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "cells.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--out", str(out))
        assert code == 4 and "is not a number" in err
        assert not out.exists()

    @pytest.mark.parametrize("update,message", [
        ({"model": None}, "study config: missing key 'model'"),
        ({"second_order": {"mode": "oracle", "tua": 0.3}}, "second_order: unknown keys ['tua']"),
        ({"n": "200"}, "n '200' is not an integer"),
        ({"k_grid": ["25"]}, "k_grid entry '25' is not an integer"),
        ({"second_order": {"mode": "user", "tau": "0.3", "beta": 0}},
         "second-order tau '0.3' is not a number"),
        ({"kstar_rule": "abc"}, "kstar_rule 'abc' is not a k* rule"),
        ({"second_order": {"mode": "user", "tau": -0.5, "beta": 0}},
         "second-order tau must be > 0, got -0.5"),
        ({"second_order": {"mode": "oracle", "tau": 0}}, "second-order tau must be > 0, got 0"),
        ({"second_order": {"mode": "per_replicate", "tau": 0.5}},
         "second-order tau acts only in modes 'oracle' and 'user', not 'per_replicate'"),
    ], ids=["no_model", "unknown_second_order_key", "n_string", "k_string", "tau_string",
            "kstar_rule_string", "user_negative_tau", "oracle_zero_tau", "per_replicate_tau"])
    def test_config_key_and_type_errors_exit_4(self, tmp_path, capsys, update, message):
        config = {"model": {"family": "amh", "theta": 0.3}, "n": 100, "N": 3,
                  "q_grid": [1.0], "k_grid": [10], "master_seed": 3, **update}
        config = {key: value for key, value in config.items() if value is not None}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "cells.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--out", str(out))
        assert code == 4 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"family": "frank", "theta": 0.5}, "n": 100,
                                        "N": 2, "q_grid": [1.0], "k_grid": [10]}))
        out = tmp_path / "cells.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path), "--out", str(out),
                  "--workers", workers])
        assert exc.value.code == 2
        assert f"--workers: must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"family": "frank", "theta": 0.5}, "n": 100,
                                        "N": 2, "q_grid": [1.0], "k_grid": [10]}))
        out = tmp_path / "missing" / "cells.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(out))
        assert code == 3 and f"cannot write report to {out}" in err

    def test_overflowing_kstar_power_takes_the_sqrt_k_cap(self, tmp_path, capsys):
        # 200^400 is past the float range; every k* is capped at isqrt(k), as under sqrtk
        reports = []
        for rule in ("pow400", "sqrtk"):
            cfg_path = tmp_path / f"{rule}.json"
            cfg_path.write_text(json.dumps({
                "model": {"family": "frank", "theta": 0.5}, "n": 200, "N": 2,
                "q_grid": [0.5, 1.0], "k_grid": [10, 50], "margins": ["frechet_shifted"],
                "second_order": {"mode": "oracle"}, "kstar_rule": rule, "master_seed": 3}))
            out = tmp_path / f"{rule}.csv"
            code, _, err = run_cli(capsys, "simulate", "--config", str(cfg_path),
                                   "--out", str(out))
            assert code == 0 and err == ""
            reports.append(out.read_text())
        rows = parse_estimate_csv(reports[0])
        assert [(r["k"], r["kstar"]) for r in rows if r["estimator"] == "reduced"] == \
            [("10", "3"), ("50", "7")] * 2
        assert reports[0] == reports[1]


class TestEstimateCommand:
    def test_comonotone_eta_near_one(self, tmp_path, capsys):
        x = np.linspace(1.0, 100.0, 1000)
        path = write_pairs(tmp_path / "co.csv", x, 2 * x + 1)
        code, out, _ = run_cli(
            capsys, "estimate", "--data", path, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "1", "--k-max", "0.06",
        )
        assert code == 0
        rows = parse_estimate_csv(out)
        at_small_k = [float(r["eta"]) for r in rows if int(r["k"]) == 50]
        assert 0.85 <= at_small_k[0] <= 1.1

    def test_independent_uniforms_near_half(self, uniform_csv, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "1", "--k-max", "0.05",
        )
        assert code == 0
        rows = parse_estimate_csv(out)
        hill_k100 = [float(r["eta"]) for r in rows
                     if int(r["k"]) == 100 and r["q"] == "1"]
        assert 0.35 <= hill_k100[0] <= 0.65

    def test_hill_always_included(self, uniform_csv, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "0.5,1.5", "--k-max", "0.02",
        )
        rows = parse_estimate_csv(out)
        assert {r["q"] for r in rows} == {"0.5", "1", "1.5"}
        assert all(r["margin"] == "frechet_shifted" for r in rows)
        assert all(r["reduced"] == "false" for r in rows)

    def test_ci_fields_empty_when_unavailable(self, uniform_csv, capsys):
        # q = 1.9 -> a ~ 0.47; with eta ~ 1 at tiny k the variance domain
        # a*eta < 1/2 can fail; such rows keep empty CI fields
        code, out, _ = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "1.9", "--k-max", "0.01",
        )
        assert code == 0
        rows = parse_estimate_csv(out)
        assert rows, "rows expected"
        for r in rows:
            assert (r["ci_low"] == "") == (r["ci_high"] == "")
            if r["ci_low"]:
                assert float(r["ci_low"]) <= float(r["eta"]) <= float(r["ci_high"])

    def test_reduce_bias_rows(self, uniform_csv, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "1", "--k-max", "0.05",
            "--reduce-bias", "--tau", "0.5", "--beta", "0.0", "--kstar", "sqrtk",
        )
        assert code == 0
        rows = parse_estimate_csv(out)
        reduced = [r for r in rows if r["reduced"] == "true"]
        raw = [r for r in rows if r["reduced"] == "false"]
        assert reduced and raw
        for rr, rw in zip(reduced, raw):
            assert float(rr["eta"]) <= float(rw["eta"])  # beta >= 0 direction

    def test_estimated_second_order_used_when_no_tau(self, uniform_csv, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "1", "--k-max", "0.02",
            "--reduce-bias",
        )
        assert code == 0
        assert any(r["reduced"] == "true" for r in parse_estimate_csv(out))

    def test_byte_identical_runs(self, uniform_csv, tmp_path, capsys):
        args = ("estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                "--dry", "0", "--quantile", "0", "--q", "0.8,1", "--k-max", "0.03")
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        run_cli(capsys, *args, "--out", str(out1))
        run_cli(capsys, *args, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--data", "/no/such.csv",
                               "--x", "a", "--y", "b")
        assert code == 3 and "error" in err

    def test_tau_without_beta_exit_4(self, uniform_csv, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--reduce-bias", "--tau", "0.5",
        )
        assert code == 4 and "together" in err

    def test_repeated_q_printed_once(self, uniform_csv, capsys):
        args = ("estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                "--dry", "0", "--quantile", "0", "--k-max", "0.01")
        _, twice, _ = run_cli(capsys, *args, "--q", "0.5,0.5")
        _, once, _ = run_cli(capsys, *args, "--q", "0.5")
        assert twice == once
        rows = parse_estimate_csv(twice)
        assert len({(r["q"], r["k"]) for r in rows}) == len(rows) == 2 * 20

    def test_failed_cells_written_empty(self, uniform_csv, capsys):
        # q = 1e-6 makes M_(a,b) overflow on every k; the q = 1 path is unaffected
        args = ("estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                "--dry", "0", "--quantile", "0", "--k-max", "0.01")
        code, out, err = run_cli(capsys, *args, "--q", "1e-6,1")
        assert code == 0
        rows = parse_estimate_csv(out)
        failed = [r for r in rows if r["q"] == "1e-06"]
        assert len(failed) == 20
        assert all(r["eta"] == r["ci_low"] == r["ci_high"] == "" for r in failed)
        assert "20 of 40 cells" in err
        _, hill_only, hill_err = run_cli(capsys, *args, "--q", "1")
        assert [r for r in rows if r["q"] == "1"] == parse_estimate_csv(hill_only)
        assert hill_err == ""

    def test_variance_overflow_gives_unbounded_interval(self, uniform_csv, capsys):
        # q = 0.002 (a = -499): at k = 1, 2 the estimate is so large that (1 - a*eta)^2
        # overflows a float; the interval is (-inf, inf) instead of a traceback
        code, out, err = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--margin", "pareto_t", "--q", "0.002",
        )
        assert code == 0 and err == ""
        rows = [r for r in parse_estimate_csv(out) if r["q"] == "0.002"]
        assert len(rows) == 600
        unbounded = [r["k"] for r in rows if (r["ci_low"], r["ci_high"]) == ("-inf", "inf")]
        assert unbounded == ["1", "2"]

    def test_one_kernel_call_on_distinct_rows(self, uniform_csv, capsys, monkeypatch):
        # one call: the raw paths run on pareto_t, and the reduced-bias base rows on
        # frechet_shifted, which has no raw path of its own here, so 3 + 3 rows
        from residualdep import estimators, simulate
        calls = []

        def counting(tail, ks, a, b, tail_index=None, *, workspace=None):
            calls.append((len(tail), len(a)))
            return estimators.m_ab_path(tail, ks, a, b, tail_index, workspace=workspace)

        monkeypatch.setattr(simulate, "m_ab_path", counting)
        code, _, _ = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "0.5,1.5", "--k-max", "0.02",
            "--margin", "pareto_t", "--reduce-bias",
        )
        assert code == 0 and calls == [(2, 6)]

    def test_pinned_bytes(self, uniform_csv, capsys):
        # sha256 of a reduced-bias run with log-space rows (q = 0.001) and four failed
        # cells, pinned so that a change of any byte shows; taken with numpy 2.4.6 on x86-64
        code, out, err = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "0.001,0.5,1.5",
            "--margin", "pareto_t", "--reduce-bias",
        )
        assert code == 0 and "4 of 4800 cells" in err
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "a110ed6b3f06f6582cbe342165fcb9b9069597c25d313ef768bfb404c0a074ee"

    def test_reduced_rows_on_shifted_frechet_whatever_margin(self, uniform_csv, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "1", "--k-max", "0.02",
            "--margin", "pareto_t", "--reduce-bias", "--tau", "0.5", "--beta", "0",
        )
        assert code == 0
        rows = parse_estimate_csv(out)
        assert {r["margin"] for r in rows if r["reduced"] == "false"} == {"pareto_t"}
        assert {r["margin"] for r in rows if r["reduced"] == "true"} == {"frechet_shifted"}
        assert sum(r["reduced"] == "true" for r in rows) == 40

    @pytest.mark.parametrize("flag,value", [("--tau", "0.5"), ("--beta", "0"),
                                            ("--kstar", "sqrtk"), ("--k0", "100")])
    def test_flags_without_reduce_bias_exit_2(self, uniform_csv, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                  "--dry", "0", "--quantile", "0", flag, value])
        assert exc.value.code == 2
        assert f"{flag}: no effect without --reduce-bias" in capsys.readouterr().err

    @pytest.mark.parametrize("given", [("--tau", "0.5", "--beta", "0"), ("--tau", "0.5"),
                                       ("--beta", "0")])
    def test_k0_with_user_second_order_exit_2(self, uniform_csv, capsys, given):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                  "--dry", "0", "--quantile", "0", "--reduce-bias", *given, "--k0", "99999"])
        assert exc.value.code == 2
        assert "--k0: no effect with --tau or --beta" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["nan", "inf", "1e309", "0.5,nan", "0"])
    def test_non_finite_q_exit_4(self, uniform_csv, capsys, q):
        code, out, err = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--k-max", "0.01", "--q", q,
        )
        assert code == 4 and out == ""
        assert "needs 0 < q < inf" in err

    @pytest.mark.parametrize("q", ["abc", "0.5,,1", "0.5,x"])
    def test_q_not_numbers_exit_2(self, uniform_csv, capsys, q):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                  "--dry", "0", "--quantile", "0", "--q", q])
        assert exc.value.code == 2
        assert f"argument --q: invalid float_list value: '{q}'" in capsys.readouterr().err

    @pytest.mark.parametrize("tau,beta,name", [("0.5", "nan", "beta"), ("0.5", "inf", "beta"),
                                               ("inf", "0", "tau")])
    def test_non_finite_user_second_order_exit_4(self, uniform_csv, capsys, tau, beta, name):
        code, out, err = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--k-max", "0.01", "--q", "1",
            "--reduce-bias", "--tau", tau, "--beta", beta,
        )
        assert code == 4 and out == ""
        assert f"second-order {name} must be finite" in err

    @pytest.mark.parametrize("tau", ["0", "-0.5"])
    def test_non_positive_user_tau_exit_4(self, uniform_csv, capsys, tau):
        code, out, err = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--k-max", "0.01", "--q", "1",
            "--reduce-bias", "--tau", tau, "--beta", "0",
        )
        assert code == 4 and out == ""
        assert f"second-order tau must be > 0, got {float(tau)}" in err

    @pytest.mark.parametrize("token", ["pow-1", "pownan", "powinf", "pow1e400", "abc"])
    def test_bad_kstar_power_exit_2(self, uniform_csv, capsys, token):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                  "--dry", "0", "--quantile", "0", "--reduce-bias", "--kstar", token])
        assert exc.value.code == 2
        message = ("kstar_rule 'abc' is not a k* rule" if token == "abc"
                   else f"k* rule '{token}' needs a finite power > 0")
        assert f"argument --kstar: {message}" in capsys.readouterr().err

    def test_overflowing_kstar_power_takes_the_sqrt_k_cap(self, uniform_csv, capsys):
        # 2000^400 is past the float range; every k* is capped at isqrt(k), as under sqrtk
        args = ("estimate", "--data", uniform_csv, "--x", "a", "--y", "b", "--dry", "0",
                "--quantile", "0", "--q", "0.5", "--k-max", "0.05", "--reduce-bias")
        code, out, err = run_cli(capsys, *args, "--kstar", "pow400")
        assert code == 0 and err == ""
        assert out == run_cli(capsys, *args, "--kstar", "sqrtk")[1]
        assert [row["reduced"] for row in parse_estimate_csv(out)].count("true") == 2 * 100

    @pytest.mark.parametrize("k_max", ["0", "-1", "1", "7", "nan"])
    def test_k_max_outside_unit_interval_exit_2(self, uniform_csv, capsys, k_max):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                  "--dry", "0", "--quantile", "0", "--q", "1", "--k-max", k_max])
        assert exc.value.code == 2
        assert "--k-max must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["0", "1", "1.5", "nan"])
    def test_level_outside_unit_interval_exit_2(self, uniform_csv, capsys, level):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                  "--dry", "0", "--quantile", "0", "--q", "1", "--level", level])
        assert exc.value.code == 2
        assert f"--level must lie in (0, 1), got {float(level)}" in capsys.readouterr().err

    def test_lower_level_gives_narrower_intervals(self, uniform_csv, capsys):
        args = ("estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
                "--dry", "0", "--quantile", "0", "--q", "0.5,1.5", "--k-max", "0.05")
        _, wide, _ = run_cli(capsys, *args)
        _, narrow, _ = run_cli(capsys, *args, "--level", "0.5")
        pairs = [(w, n) for w, n in zip(parse_estimate_csv(wide), parse_estimate_csv(narrow))
                 if w["ci_low"]]
        assert len(pairs) > 200
        for w, n in pairs:
            assert (w["q"], w["k"], w["eta"]) == (n["q"], n["k"], n["eta"])
            low, high, eta = float(n["ci_low"]), float(n["ci_high"]), float(n["eta"])
            assert float(w["ci_low"]) < low <= eta <= high < float(w["ci_high"])

    def test_rows_are_the_single_cell_views(self, uniform_csv, capsys):
        # every written (eta, ci_low, ci_high) is point_estimate's (raw rows) or
        # reduced_bias_eta's (reduced rows) at the run's (tau_hat, beta_hat) and k*
        from residualdep import EstimatorSpec, IngestionSpec, KstarRule, PseudoSample, \
            estimate_second_order, ingest, point_estimate, reduced_bias_eta
        code, out, _ = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "0.5,1.5", "--k-max", "0.05",
            "--reduce-bias", "--level", "0.9",
        )
        assert code == 0
        pseudo = PseudoSample.from_sample(ingest(IngestionSpec(
            path=uniform_csv, x_col="a", y_col="b", dry_threshold=0.0, quantile_filter=0.0)))
        so = estimate_second_order(pseudo)
        checked = {"false": 0, "true": 0}
        for row in parse_estimate_csv(out):
            if not row["eta"]:
                continue
            q, k = float(row["q"]), int(row["k"])
            spec = EstimatorSpec.conjugate(q, row["margin"])
            if row["reduced"] == "true":
                kstar = KstarRule().resolve(pseudo.n, k)
                want = reduced_bias_eta(pseudo, k, kstar, spec.a, so, 0.9)
            else:
                want = point_estimate(pseudo, k, spec, 0.9)
            fields = ["" if math.isnan(x) else repr(x)
                      for x in (want.eta, want.ci_low, want.ci_high)]
            assert [row["eta"], row["ci_low"], row["ci_high"]] == fields, row
            checked[row["reduced"]] += 1
        assert checked["false"] >= 250 and checked["true"] >= 250, checked

    def test_k_max_below_one_over_n_gives_k_1(self, uniform_csv, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "1", "--k-max", "0.0001",
        )
        assert code == 0
        assert [r["k"] for r in parse_estimate_csv(out)] == ["1"]

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data"])
        assert exc.value.code == 2

    def test_unwritable_out_exit_3(self, uniform_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "eta.csv"
        code, stdout, err = run_cli(
            capsys, "estimate", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--q", "1", "--k-max", "0.01", "--out", str(out),
        )
        assert code == 3 and stdout == "" and str(out) in err

    def test_na_tokens_drop_their_rows(self, tmp_path, capsys):
        # --na replaces the NA set: rows holding -999 go as NA, not as dry, and the
        # estimate is the one of the file without them
        rng = np.random.default_rng(7)
        clean = write_pairs(tmp_path / "clean.csv", rng.random(100), rng.random(100))
        rows = pathlib.Path(clean).read_text().splitlines()
        marked = tmp_path / "marked.csv"
        marked.write_text("\n".join(rows[:50] + ["-999,0.5", "0.5,-999"] * 10 + rows[50:]) + "\n")
        args = ("estimate", "--x", "a", "--y", "b", "--dry", "0", "--q", "1", "--k-max", "0.2")
        code, out, err = run_cli(capsys, *args, "--quantile", "0", "--data", str(marked),
                                 "--na", "-999")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args, "--quantile", "0", "--data", clean)[1]
        code, _, err = run_cli(capsys, *args, "--quantile", "0.5", "--data", str(marked),
                               "--na", "-999")
        assert code == 3 and "Read 120 rows, dropped 20 NA/NaN, 0 by date, 0 dry" in err
        code, _, err = run_cli(capsys, *args, "--quantile", "0.5", "--data", str(marked))
        assert code == 3 and "Read 120 rows, dropped 0 NA/NaN, 0 by date, 20 dry" in err


class TestSecondOrderCommand:
    def test_reports_tau_beta(self, uniform_csv, capsys):
        code, out, _ = run_cli(
            capsys, "second-order", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "tau_hat,beta_hat,k0,n"
        tau, beta, k0, n = row.split(",")
        assert float(tau) > 0 and int(n) == 2000
        assert int(k0) == int(2000 ** 0.999)

    def test_k0_flag(self, uniform_csv, capsys):
        code, out, _ = run_cli(
            capsys, "second-order", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "0", "--k0", "500",
        )
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[2] == "500"

    def test_quantile_outside_unit_interval_exit_4(self, uniform_csv, capsys):
        code, out, err = run_cli(
            capsys, "second-order", "--data", uniform_csv, "--x", "a", "--y", "b",
            "--dry", "0", "--quantile", "1.5",
        )
        assert code == 4 and out == ""
        assert "quantile_filter must lie in [0, 1), got 1.5" in err


@pytest.fixture
def dated_csv(tmp_path):
    # 2,000 consecutive days from 2000-01-01 to 2005-06-22
    rng = np.random.default_rng(1002)
    days = np.datetime64("2000-01-01") + np.arange(2000)
    lines = ["date,a,b"] + [f"{d},{x!r},{y!r}" for d, x, y in
                             zip(days.astype(str), rng.random(2000).tolist(),
                                 rng.random(2000).tolist())]
    path = tmp_path / "dated.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestDateFilters:
    ARGS = ("second-order", "--x", "a", "--y", "b", "--dry", "0", "--quantile", "0")

    def test_range_outside_data_exit_3(self, dated_csv, capsys):
        code, _, err = run_cli(capsys, *self.ARGS, "--data", dated_csv, "--date-col", "date",
                               "--date-from", "2030-01-01", "--date-to", "2030-12-31")
        assert code == 3
        assert "only 0 rows" in err

    def test_one_year_range(self, dated_csv, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--data", dated_csv, "--date-col", "date",
                               "--date-from", "2001-01-01", "--date-to", "2001-12-31")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[3] == "365"

    @pytest.mark.parametrize("flt", [("--month", "6"), ("--date-from", "2001-01-01"),
                                     ("--date-to", "2001-12-31")])
    def test_date_filter_without_date_col_exit_3(self, dated_csv, capsys, flt):
        code, _, err = run_cli(capsys, *self.ARGS, "--data", dated_csv, *flt)
        assert code == 3
        assert "no date column" in err

    @pytest.mark.parametrize("flt", [("--date-from", "2001-13-01"), ("--date-to", "2001-02-30"),
                                     ("--month", "13")])
    def test_malformed_date_filter_exit_3(self, dated_csv, capsys, flt):
        code, _, err = run_cli(capsys, *self.ARGS, "--data", dated_csv, "--date-col", "date",
                               *flt)
        assert code == 3
        assert flt[1] in err

    def test_unparseable_row_date_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad_date.csv"
        path.write_text("date,a,b\n2001-06-01,1.0,2.0\n2001-13-40,1.5,2.5\n")
        code, _, err = run_cli(capsys, *self.ARGS, "--data", str(path), "--date-col", "date")
        assert code == 3
        assert f"{path}: unparseable ISO date '2001-13-40' at row 3" in err


class TestOracleCommand:
    def test_identities_hold(self, capsys):
        # n = 2 and 3 are the smallest samples: the kernel check's k set stays in 1..n-1
        for n, seed in ((2, 1), (3, 1), (20, 1), (77, 12345), (100, 9)):
            code, out, _ = run_cli(capsys, "oracle", "--n", str(n), "--seed", str(seed))
            assert code == 0
            assert "ok joint-exceedance identity" in out
            assert "ok power-mean kernel vs naive loop" in out
            assert "FAIL" not in out

    @pytest.mark.parametrize("n", [0, 1, 1001, 5000])
    def test_n_outside_2_to_1000_exit_2(self, capsys, n):
        # n = 2, the smallest accepted, runs in test_identities_hold
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--n", str(n), "--seed", "1"])
        assert exc.value.code == 2
        assert f"argument --n: must lie in 2..1000 (O(n^2) recount), got {n}" \
            in capsys.readouterr().err

    def test_negative_seed_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--n", "10", "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_seed_zero_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "10", "--seed", "0")
        assert code == 0 and "FAIL" not in out


def test_main_calls_share_one_parser(uniform_csv, capsys):
    # main reuses one parser per process; a run of calls must give what each
    # call gives with a parser of its own
    ingestion = ("--data", uniform_csv, "--x", "a", "--y", "b", "--dry", "0",
                 "--quantile", "0.8")
    calls = [["estimate", *ingestion, "--reduce-bias"], ["second-order", *ingestion],
             ["estimate", "--data"], ["estimate", *ingestion, "--reduce-bias"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    own_parser = []
    for argv in calls:
        cli.build_parser.cache_clear()
        own_parser.append(run(argv))
    cli.build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert shared == own_parser
    assert shared[3] == shared[0]
    assert cli.build_parser() is cli.build_parser()


def test_benchmark_traced_names_exist(monkeypatch):
    # bench/runner.py wraps these functions by name; a refactor that drops
    # one would otherwise only surface in a traced benchmark run
    bench_dir = pathlib.Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench_dir))
    runner = importlib.import_module("runner")
    for _, places in runner.TRACED:
        for module, attr in places:
            assert hasattr(module, attr), f"{module.__name__}.{attr}"
