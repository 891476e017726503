import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from residualdep import BivariateSample, CopulaModel, EstimatorSpec, KstarRule, Margin, \
    ParameterDomainError, PseudoSample, SecondOrderParams, SecondOrderSpec, StudyConfig, \
    config_from_dict, emit_report, eta_hat, load_config, replicate_generator, run_study, \
    sample_copula, write_report
from residualdep.simulate import CSV_COLUMNS, DEFAULT_Q_GRID


def small_config(**overrides):
    base = dict(
        model=CopulaModel("frank", 0.5), n=120, N=6,
        q_grid=(0.9, 1.0), k_grid=(6, 12), margins=("pareto_t", "frechet_shifted"),
        kstar_rule="pow0.3", master_seed=99,
        second_order=SecondOrderSpec(mode="oracle"),
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestStudyConfig:
    def test_defaults_mirror_protocol(self):
        cfg = StudyConfig(model=CopulaModel("frank", 0.5))
        assert cfg.N == 1000 and cfg.n == 500
        assert cfg.q_grid == DEFAULT_Q_GRID
        assert cfg.q_grid[0] == 0.1 and cfg.q_grid[-1] == 1.9 and len(cfg.q_grid) == 19
        assert cfg.k_grid[-1] == 150  # [0.3 n]
        assert set(cfg.margins) == set(Margin)

    def test_fraction_k_entries_floored(self):
        cfg = small_config(k_grid=(0.05, 0.1, 30))
        assert cfg.k_grid == (6, 12, 30)

    def test_bad_k_entry(self):
        with pytest.raises(ValueError):
            small_config(k_grid=(0,))
        with pytest.raises(ValueError):
            small_config(k_grid=(120,))

    @pytest.mark.parametrize("k_grid", [(1.5, 10), (10, 2.9), (math.inf,), (math.nan,)])
    def test_k_entry_must_be_integral(self, k_grid):
        with pytest.raises(ValueError, match="k_grid entry .* is not an integer"):
            small_config(k_grid=k_grid)

    def test_integral_float_entries_accepted(self):
        assert small_config(k_grid=(25.0, 0.5, 3)).k_grid == (3, 25, 60)

    def test_bad_q(self):
        with pytest.raises(ValueError):
            small_config(q_grid=(0.0, 1.0))

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_q(self, q):
        with pytest.raises(ValueError, match=r"must lie in \(0, inf\)"):
            small_config(q_grid=(1.0, q))

    def test_hash_stable_and_sensitive(self):
        a, b = small_config(), small_config()
        assert a.config_hash() == b.config_hash()
        c = small_config(master_seed=100)
        assert a.config_hash() != c.config_hash()

    def test_hash_tells_apart_powers_that_round_alike(self):
        # both powers print as 0.123457 under :g; the token keeps every digit
        a, b = small_config(kstar_rule="pow0.1234567"), small_config(kstar_rule="pow0.1234568")
        assert a.config_hash() != b.config_hash()
        for cfg in (a, b):
            assert KstarRule.parse(cfg.kstar_rule.token()) == cfg.kstar_rule

    def test_kstar_rule_parsing(self):
        assert KstarRule.parse("sqrtk").resolve(500, 49) == 7
        assert KstarRule.parse("pow0.3").resolve(500, 400) == 10  # floor of 10
        assert KstarRule.parse("6").resolve(500, 25) == 5  # capped at isqrt(k)
        assert KstarRule.parse(6).resolve(500, 100) == 6

    @pytest.mark.parametrize("token", ["pow-1", "pow0", "pownan", "powinf", "pow1e400"])
    def test_kstar_power_must_be_finite_positive(self, token):
        with pytest.raises(ValueError, match=f"k\\* rule '{token}' needs a finite power > 0"):
            KstarRule.parse(token)
        with pytest.raises(ValueError, match="needs a finite power > 0"):
            small_config(kstar_rule=token)

    @pytest.mark.parametrize("kind,value,token,message", [
        ("bogus", 7, None, r"unknown k\* rule kind 'bogus'"),
        ("pow_n", -1.0, "pow-1", r"k\* rule 'pow-1' needs a finite power > 0"),
        ("fixed", 0, "0", r"fixed k\* must be >= 1, got 0"),
        ("pow_n", True, None, "kstar_rule True is not a power"),
        ("pow_n", "0.3", None, "kstar_rule '0.3' is not a power"),
        ("pow_n", -0.1234567, "pow-0.1234567",
         r"k\* rule 'pow-0\.1234567' needs a finite power > 0"),
    ], ids=["kind", "power", "count", "boolean", "string", "unrounded_power"])
    def test_kstar_rule_checks_itself(self, kind, value, token, message):
        # built directly, a rule gets the checks parse makes, and the message parse gives
        with pytest.raises(ValueError, match=message):
            KstarRule(kind, value)
        if token is not None:
            with pytest.raises(ValueError, match=message):
                KstarRule.parse(token)

    def test_kstar_rule_has_one_representation(self):
        default = StudyConfig(CopulaModel("frank", 0.5)).kstar_rule
        assert KstarRule() == KstarRule.parse("pow0.3") == default
        assert KstarRule("sqrt_k") == KstarRule.parse("sqrtk")
        assert KstarRule("fixed", 3.0) == KstarRule.parse(3) == KstarRule.parse("3")
        rules = (KstarRule(), KstarRule("sqrt_k"), KstarRule("fixed", 3.0))
        assert [rule.token() for rule in rules] == ["pow0.3", "sqrtk", "3"]
        for name in ("pow_n", "sqrt_k", "fixed"):
            assert not hasattr(KstarRule, name), name

    def test_unknown_second_order_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown second-order mode 'bogus'"):
            SecondOrderSpec("bogus")
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 100, "k_grid": [10],
               "second_order": "bogus"}
        with pytest.raises(ValueError, match="unknown second-order mode 'bogus'"):
            config_from_dict(doc)

    @pytest.mark.parametrize("mode", ["per_replicate", "oracle", "user"])
    @pytest.mark.parametrize("name", ["tau", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_second_order_values_must_be_finite(self, mode, name, value):
        values = {"tau": 0.5, "beta": 0.0, name: value}
        with pytest.raises(ValueError, match=f"second-order {name} must be finite"):
            SecondOrderSpec(mode, **values)

    @pytest.mark.parametrize("mode,values,message", [
        ("user", {"tau": -0.5, "beta": 0}, "second-order tau must be > 0, got -0.5"),
        ("oracle", {"tau": 0}, "second-order tau must be > 0, got 0"),
        ("per_replicate", {"tau": 0.5}, "second-order tau acts only in modes 'oracle' and 'user'"),
        ("per_replicate", {"beta": 3}, "second-order beta acts only in modes 'oracle' and 'user'"),
    ], ids=["user_negative_tau", "oracle_zero_tau", "per_replicate_tau", "per_replicate_beta"])
    def test_given_second_order_values_checked(self, mode, values, message):
        with pytest.raises(ValueError, match=message):
            SecondOrderSpec(mode, **values)
        with pytest.raises(ValueError, match=message):
            config_from_dict({"model": {"family": "frank", "theta": 1.0}, "n": 100,
                              "k_grid": [10], "second_order": {"mode": mode, **values}})

    def test_oracle_and_user_resolve_alike(self):
        # given values pass through either mode; oracle fills in only what is not given
        given = SecondOrderParams(0.4, -0.2, k0=0)
        for mode in ("oracle", "user"):
            assert SecondOrderSpec(mode, 0.4, -0.2).resolve(None, None) == given
        model = CopulaModel("amh", -1.0)  # effective tau min(2/3, 1/3)
        assert SecondOrderSpec("oracle").resolve(model, None) == SecondOrderParams(1 / 3, 0.0, 0)
        assert SecondOrderSpec("oracle", beta=-0.2).resolve(model, None).beta_hat == -0.2
        gaussian = CopulaModel("gaussian", 0.2)  # tau 0: the effective tau is eta
        assert SecondOrderSpec("oracle").resolve(gaussian, None).tau_hat == 0.6

    def test_config_file_round_trip(self, tmp_path):
        doc = {
            "model": {"family": "amh", "theta": -1.0},
            "n": 100, "N": 4, "q_grid": [1.0], "k_grid": [0.1],
            "margins": ["frechet_shifted"], "kstar_rule": "sqrtk",
            "master_seed": 5,
            "second_order": {"mode": "user", "tau": 0.5, "beta": 0.0},
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.model.family.value == "amh" and cfg.k_grid == (10,)
        assert cfg.second_order.tau == 0.5
        cfg2 = load_config(path, master_seed=77)
        assert cfg2.master_seed == 77

    @pytest.mark.parametrize("seed,message", [(True, "master_seed True is not an integer"),
                                              (2.5, "master_seed 2.5 is not an integer"),
                                              ("7", "master_seed '7' is not an integer"),
                                              (-3, "need master_seed >= 0, got -3")])
    def test_seed_override_checked_like_the_file(self, tmp_path, seed, message):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"model": {"family": "frank", "theta": 1.0}, "n": 100,
                                    "k_grid": [10]}))
        with pytest.raises(ValueError, match=message):
            load_config(path, master_seed=seed)
        assert load_config(path, master_seed=7.0).master_seed == 7

    @pytest.mark.parametrize("token,message", [
        ("abc", r"kstar_rule 'abc' is not a k\* rule"),
        (2.5, "kstar_rule 2.5 is not an integer"),
        (None, r"kstar_rule None is not a k\* rule"),
        ("powabc", r"kstar_rule 'powabc' is not a k\* rule"),
    ], ids=["string", "fraction", "null", "power_string"])
    def test_kstar_rule_errors_name_the_key(self, token, message):
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 100, "k_grid": [10],
               "kstar_rule": token}
        with pytest.raises(ValueError, match=message):
            config_from_dict(doc)

    def test_integral_float_kstar_rule_is_fixed(self):
        rule = config_from_dict({"model": {"family": "frank", "theta": 1.0}, "n": 100,
                                 "k_grid": [10], "kstar_rule": 3.0}).kstar_rule
        assert rule == KstarRule("fixed", 3) == KstarRule.parse("3")
        assert rule.token() == "3"

    @pytest.mark.parametrize("count,message", [(2.5, "kstar_rule 2.5 is not an integer"),
                                               (True, "kstar_rule True is not an integer")])
    def test_fixed_kstar_count_must_be_integral(self, count, message):
        with pytest.raises(ValueError, match=message):
            KstarRule("fixed", count)
        assert KstarRule("fixed", 3.0) == KstarRule("fixed", 3)

    @pytest.mark.parametrize("key,value", [("n", 100.9), ("N", 2.5), ("master_seed", 7.5),
                                           ("n", math.inf)])
    def test_non_integral_counts_rejected(self, key, value):
        doc = {"model": {"family": "frank", "theta": 1.0}, "k_grid": [10], key: value}
        with pytest.raises(ValueError, match=f"{key} {value!r} is not an integer"):
            config_from_dict(doc)

    def test_integral_float_counts_accepted(self):
        cfg = config_from_dict({"model": {"family": "frank", "theta": 1.0}, "n": 100.0,
                                "N": 4.0, "master_seed": 7.0, "k_grid": [10.0]})
        assert (cfg.n, cfg.N, cfg.master_seed, cfg.k_grid) == (100, 4, 7, (10,))
        assert all(type(v) is int for v in (cfg.n, cfg.N, cfg.master_seed, *cfg.k_grid))

    @pytest.mark.parametrize("mode,extra", [("oracle", {}), ("user", {"tau": 0.5, "beta": 0.0})])
    def test_k0_only_per_replicate(self, mode, extra):
        with pytest.raises(ValueError, match="k0 acts only in mode 'per_replicate'"):
            SecondOrderSpec(mode, k0=50, **extra)
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 100, "k_grid": [10],
               "second_order": {"mode": mode, "k0": 50, **extra}}
        with pytest.raises(ValueError, match="k0 acts only"):
            config_from_dict(doc)

    @pytest.mark.parametrize("k0", [1, 100, 500])
    def test_k0_outside_sample_rejected(self, k0):
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 100, "k_grid": [10],
               "second_order": {"mode": "per_replicate", "k0": k0}}
        with pytest.raises(ValueError, match=r"k0 must lie in 2\.\.n-1 = 99"):
            config_from_dict(doc)
        doc["second_order"]["k0"] = 99
        assert config_from_dict(doc).second_order.k0 == 99

    def test_per_replicate_needs_50_rows(self):
        with pytest.raises(ValueError, match="'per_replicate' needs n >= 50, got 49"):
            small_config(n=49, k_grid=(6,), second_order=SecondOrderSpec())
        # no reduced-bias paths: the second-order spec is never used
        small_config(n=49, k_grid=(6,), margins=("pareto_t",), second_order=SecondOrderSpec())

    @pytest.mark.parametrize("key,value,message", [
        ("n", True, "n True is not an integer"),
        ("N", True, "N True is not an integer"),
        ("master_seed", False, "master_seed False is not an integer"),
        ("k_grid", [True, 20], "k_grid entry True is not an integer"),
        ("k_grid", [10, False], "k_grid entry False is not an integer"),
        ("q_grid", [True, 0.5], r"q_grid values must not be booleans, got \[True, 0\.5\]"),
    ])
    def test_booleans_rejected(self, key, value, message):
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 100, "k_grid": [10], key: value}
        with pytest.raises(ValueError, match=message):
            config_from_dict(doc)

    @pytest.mark.parametrize("update,message", [
        ({"model": {"family": "frank", "theta": True}}, "model theta True is not a number"),
        ({"kstar_rule": True}, "kstar_rule True is not a k\\* rule"),
        ({"second_order": {"mode": "oracle", "tau": True}}, "second-order tau True is not a number"),
        ({"second_order": {"mode": "oracle", "beta": False}},
         "second-order beta False is not a number"),
    ], ids=["theta", "kstar_rule", "tau", "beta"])
    def test_boolean_numbers_rejected(self, update, message):
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 100, "k_grid": [10], **update}
        with pytest.raises(ValueError, match=message):
            config_from_dict(doc)

    def test_boolean_kstar_and_second_order_rejected_directly(self):
        with pytest.raises(ValueError, match="kstar_rule False"):
            KstarRule.parse(False)
        with pytest.raises(ValueError, match="second-order beta True"):
            SecondOrderSpec(mode="user", tau=0.5, beta=True)

    def test_empty_q_grid_accepted(self):
        cfg = config_from_dict({"model": {"family": "frank", "theta": 1.0}, "n": 100,
                                "k_grid": [10], "q_grid": []})
        assert cfg.q_grid == ()

    def test_grids_as_json_list_or_tuple(self):
        doc = json.loads('{"model": {"family": "frank", "theta": 1.0}, "n": 100, '
                         '"q_grid": [1.5, 0.5], "k_grid": [20, 0.1], "margins": ["pareto_t"]}')
        from_json = config_from_dict(doc)
        from_tuples = StudyConfig(model=CopulaModel("frank", 1.0), n=100, q_grid=(1.5, 0.5),
                                  k_grid=(20, 0.1), margins=("pareto_t",))
        assert from_json == from_tuples
        assert (from_json.q_grid, from_json.k_grid, from_json.margins) == \
            ((0.5, 1.5), (10, 20), (Margin.PARETO_T,))

    def test_empty_grids_resolve_empty(self):
        cfg = config_from_dict({"model": {"family": "frank", "theta": 1.0}, "n": 100,
                                "q_grid": [], "k_grid": [], "margins": []})
        assert (cfg.q_grid, cfg.k_grid, cfg.margins) == ((), (), ())
        assert emit_report(run_study(replace(cfg, N=2))) == ",".join(CSV_COLUMNS) + "\n"

    def test_k0_needs_reduced_bias_paths(self):
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 100, "k_grid": [10],
               "margins": ["pareto_t", "frechet_unshifted"],
               "second_order": {"mode": "per_replicate", "k0": 60}}
        with pytest.raises(ValueError, match="k0: no effect without reduced-bias paths"):
            config_from_dict(doc)
        doc["margins"].append("frechet_shifted")
        assert config_from_dict(doc).second_order.k0 == 60

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"model": {"family": "frank", "theta": 1.0}, "bogus": 1})

    @pytest.mark.parametrize("update,message", [
        ({"model": {"family": "frank", "theta": 1.0, "rho": 0.5}}, r"model: unknown keys \['rho'\]"),
        ({"second_order": {"mode": "oracle", "tua": 0.3}},
         r"second_order: unknown keys \['tua'\]"),
    ], ids=["model", "second_order"])
    def test_unknown_nested_keys_rejected(self, update, message):
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 100, "k_grid": [10], **update}
        with pytest.raises(ValueError, match=message):
            config_from_dict(doc)

    @pytest.mark.parametrize("key", ["family", "theta"])
    def test_missing_model_key_rejected(self, key):
        model = {"family": "frank", "theta": 1.0}
        del model[key]
        with pytest.raises(ValueError, match=f"model: missing key '{key}'"):
            config_from_dict({"model": model, "n": 100, "k_grid": [10]})

    @pytest.mark.parametrize("doc,message", [
        ([1, 2], r"study config must be a JSON object, got \[1, 2\]"),
        ({"model": "frank"}, "model must be a JSON object, got 'frank'"),
        ({"model": {"family": "frank", "theta": 1.0}, "second_order": None},
         "second_order must be a JSON object, got None"),
    ], ids=["top", "model", "second_order"])
    def test_non_object_levels_rejected(self, doc, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict(doc)

    @pytest.mark.parametrize("key,value", [("n", 200.5), ("N", 2.5), ("master_seed", 1.5)])
    def test_library_counts_must_be_integral(self, key, value):
        with pytest.raises(ValueError, match=f"{key} {value!r} is not an integer"):
            small_config(**{key: value})

    def test_library_integral_float_counts_become_ints(self):
        cfg = small_config(n=120.0, N=6.0, master_seed=99.0)
        assert cfg == small_config()
        assert all(type(v) is int for v in (cfg.n, cfg.N, cfg.master_seed))

    def test_k0_integral_float_accepted(self):
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 200, "k_grid": [10],
               "second_order": {"mode": "per_replicate", "k0": 150.0}}
        k0 = config_from_dict(doc).second_order.k0
        assert k0 == 150 and type(k0) is int

    def test_k0_non_integral_rejected(self):
        with pytest.raises(ValueError, match="second-order k0 2.5 is not an integer"):
            SecondOrderSpec(k0=2.5)
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 200, "k_grid": [10],
               "second_order": {"mode": "per_replicate", "k0": 2.5}}
        with pytest.raises(ValueError, match="second-order k0 2.5 is not an integer"):
            config_from_dict(doc)

    @pytest.mark.parametrize("update,message", [
        ({"n": "200"}, "n '200' is not an integer"),
        ({"k_grid": ["25"]}, "k_grid entry '25' is not an integer"),
        ({"k_grid": ["0.1"]}, "k_grid entry '0.1' is not an integer"),
        ({"q_grid": ["0.5"]}, "q_grid value '0.5' is not a number"),
        ({"model": {"family": "frank", "theta": "0.5"}}, "model theta '0.5' is not a number"),
        ({"second_order": {"mode": "user", "tau": "0.3", "beta": 0}},
         "second-order tau '0.3' is not a number"),
        ({"second_order": {"mode": "user", "tau": 0.3, "beta": "0"}},
         "second-order beta '0' is not a number"),
    ], ids=["n", "k_grid", "k_grid_fraction", "q_grid", "theta", "tau", "beta"])
    def test_strings_are_not_numbers(self, update, message):
        doc = {"model": {"family": "frank", "theta": 1.0}, "n": 100, "k_grid": [10], **update}
        with pytest.raises(ValueError, match=message):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"model": {"family": "frank", "theta": 0.5}, "n": 120, "N": 3, "k_grid": [6, 0.1],
         "second_order": {"mode": "per_replicate", "k0": 100}},
        {"model": {"family": "amh", "theta": -1.0}, "n": 80, "q_grid": [0.5, 1.5],
         "margins": ["frechet_shifted"], "kstar_rule": "sqrtk", "second_order": "oracle"},
        {"model": {"family": "gaussian", "theta": -0.4}, "master_seed": 11, "kstar_rule": 7,
         "second_order": {"tau": 0.4, "beta": -0.2}},
    ], ids=["per_replicate", "oracle", "user"])
    def test_canonical_dict_round_trip(self, doc):
        cfg = config_from_dict(doc)
        assert config_from_dict(cfg.canonical_dict()) == cfg
        assert config_from_dict(json.loads(json.dumps(cfg.canonical_dict()))) == cfg


class TestRunStudy:
    def test_single_replicate_equals_direct_evaluation(self):
        cfg = small_config(N=1)
        report = run_study(cfg)
        u, v = sample_copula(cfg.model, cfg.n, replicate_generator(cfg.master_seed, 0))
        pseudo = PseudoSample.from_sample(BivariateSample(u, v))
        for cell in report.cells:
            if cell.estimator != "raw":
                continue
            spec = EstimatorSpec.conjugate(cell.q, margin=cell.margin)
            assert cell.mean == eta_hat(pseudo, cell.k, spec)
            assert cell.variance == 0.0
            assert cell.n_ok == 1 and cell.n_fail == 0

    def test_seed_derivation_per_replicate(self):
        # replicate r depends only on (master_seed, r): a 3-replicate study
        # aggregates exactly the three directly-derived samples
        cfg = small_config(N=3, margins=("pareto_t",), q_grid=(1.0,), k_grid=(12,))
        report = run_study(cfg)
        vals = []
        for r in range(3):
            u, v = sample_copula(cfg.model, cfg.n, replicate_generator(cfg.master_seed, r))
            pseudo = PseudoSample.from_sample(BivariateSample(u, v))
            vals.append(eta_hat(pseudo, 12, EstimatorSpec.conjugate(1.0)))
        cell = report.cell("raw", "pareto_t", 1.0, 12)
        assert cell.mean == pytest.approx(np.mean(vals), abs=1e-14)
        assert cell.variance == pytest.approx(np.var(vals), abs=1e-14)

    def test_cell_lookup(self):
        report = run_study(small_config(N=2, q_grid=(0.5, 0.9, 1.0, 1.5), k_grid=(6, 12, 30)))
        for cell in report.cells:
            assert report.cell(cell.estimator, Margin(cell.margin), cell.q, cell.k) is cell
        with pytest.raises(KeyError):
            report.cell("raw", "pareto_t", 0.95, 12)  # q not in the grid
        with pytest.raises(KeyError):
            report.cell("reduced", "pareto_t", 1.0, 12)  # reduced runs on frechet_shifted only
        with pytest.raises(KeyError):
            report.cell("reduced", "frechet_shifted", 1.5, 31)

    def test_repeated_grid_entries_give_one_row_per_cell(self):
        messy = small_config(N=3, q_grid=(1.5, 0.9, 1.0, 0.9, 1.5),
                             margins=("pareto_t", "frechet_shifted", "pareto_t"))
        clean = small_config(N=3, q_grid=(0.9, 1.0, 1.5),
                             margins=("frechet_shifted", "pareto_t"))
        assert messy.q_grid == clean.q_grid and messy.margins == clean.margins
        report = run_study(messy)
        assert len(report.cells) == 3 * 2 * 2 + 3 * 2  # raw on two margins, then reduced
        keys = [(c.estimator, c.margin, c.q, c.k) for c in report.cells]
        assert len(set(keys)) == len(keys)
        assert emit_report(report) == emit_report(run_study(clean))

    def test_worker_counts_agree(self):
        cfg = small_config(N=8)
        r1 = run_study(cfg, workers=1)
        r3 = run_study(cfg, workers=3)
        assert emit_report(r1) == emit_report(r3)

    def test_mse_identity(self):
        report = run_study(small_config(N=16))
        for cell in report.cells:
            assert cell.mse == pytest.approx(cell.bias ** 2 + cell.variance, abs=1e-10)

    def test_replicate_independence_streaming_vs_direct(self):
        # dropping any replicate: direct nan-aggregation of the remaining
        # values matches the streaming accumulators
        from residualdep.simulate import _evaluate_replicate, _merge_stream, cell_grid
        cfg = small_config(N=7)
        grid = cell_grid(cfg.margins, cfg.q_grid, cfg.k_grid, cfg.kstar_rule, cfg.n, True)
        values = [_evaluate_replicate(cfg, grid, r) for r in range(cfg.N)]
        for drop in range(cfg.N):
            kept = [v for r, v in enumerate(values) if r != drop]
            merged = _merge_stream(iter(kept))
            stacked = np.stack(kept)
            np.testing.assert_allclose(merged.mean, np.nanmean(stacked, axis=0), atol=1e-10)
            np.testing.assert_allclose(merged.m2 / merged.count,
                                       np.nanvar(stacked, axis=0), atol=1e-10)

    @pytest.mark.parametrize("reduced,k_grid", [(True, (1, 6, 12, 34)), (False, (1, 6, 12, 34)),
                                                (True, ())])
    def test_grid_rows_are_direct_path_calls(self, reduced, k_grid):
        # row p of the (paths, k) estimates is the kernel called on path p's columns alone,
        # bit for bit, on a q grid with the Hill row (q = 1), rows whose prefix sums leave
        # the float range and are taken in log space (q = 1e-3) and rows that overflow
        # everywhere (q = 1e-6)
        from residualdep import effective_tau
        from residualdep.bias import reduced_bias_path
        from residualdep.estimators import m_ab_path
        from residualdep.simulate import ALL_MARGINS, cell_grid, evaluate_cells
        grid = cell_grid(ALL_MARGINS, (1e-6, 1e-3, 0.5, 1.0, 1.5), k_grid, KstarRule(),
                         120, reduced)
        assert [len(column) for column in grid[:5]] == [20 if reduced else 15] * 5
        assert (grid.kstars is None) == (not reduced)
        u, v = sample_copula(CopulaModel("amh", -1.0), 120, replicate_generator(7, 0))
        pseudo = PseudoSample.from_sample(BivariateSample(u, v))
        so = SecondOrderParams(effective_tau(1 / 3, 2 / 3), 0.0, k0=0)
        etas = evaluate_cells(pseudo, grid, so)
        assert etas.shape == (len(grid.a), len(k_grid))
        log_space = overflowed = 0
        for row, (estimator, margin, _, a, b) in zip(etas, zip(*grid[:5])):
            tail = pseudo.top(margin)
            want = m_ab_path(tail, grid.ks, a, b)
            if estimator == "reduced":
                want = reduced_bias_path(pseudo, grid.ks, grid.kstars, a, so, want)
            assert row.tobytes() == want.tobytes()
            logs = np.log(tail[::-1])
            with np.errstate(over="ignore"):
                sums = np.cumsum(np.expm1(a * (logs[:-1] - logs[0])))[grid.ks - 1]
            log_space += np.count_nonzero(np.isinf(sums) & np.isfinite(row))
            overflowed += len(k_grid) > 0 and np.isnan(row).all()
        assert (log_space > 0) == (overflowed > 0) == (len(k_grid) > 0)
        # without second-order parameters every reduced-bias row is NaN, the raw rows stay
        unresolved = evaluate_cells(pseudo, grid, None)
        raw = grid.estimator == "raw"
        assert unresolved[raw].tobytes() == etas[raw].tobytes()
        assert np.isnan(unresolved[~raw]).all()

    @pytest.mark.parametrize("study,q_grid", [("default", DEFAULT_Q_GRID),
                                              ("estimate", (0.5, 1.0, 1.5)),
                                              ("empty_q_grid", ())])
    def test_path_columns_are_conjugate_specs(self, study, q_grid):
        # path p's columns are EstimatorSpec.conjugate of its (q, margin), in row order:
        # raw paths per margin, then reduced-bias paths, which run on frechet_shifted
        # even where the grid's margins (here an estimate's one margin) lack it
        from residualdep.simulate import cell_grid, evaluate_cells
        cfg = StudyConfig(model=CopulaModel("amh", -1.0), q_grid=q_grid)
        margins = (Margin.PARETO_T,) if study == "estimate" else cfg.margins
        grid = cell_grid(margins, cfg.q_grid, cfg.k_grid, cfg.kstar_rule, cfg.n, True)
        paths = [("raw", m, q) for m in margins for q in q_grid] + \
            [("reduced", Margin.FRECHET_SHIFTED, q) for q in q_grid]
        specs = [(estimator, EstimatorSpec.conjugate(q, margin)) for estimator, margin, q in paths]
        want = [(e, spec.margin.value, spec.q, spec.a, spec.b) for e, spec in specs]
        assert repr(list(zip(*(column.tolist() for column in grid[:5])))) == repr(want)
        assert len(want) == {"default": 4 * 19, "estimate": 2 * 3, "empty_q_grid": 0}[study]
        assert (grid.kstars is None) == (not q_grid)
        u, v = sample_copula(cfg.model, cfg.n, replicate_generator(7, 0))
        pseudo = PseudoSample.from_sample(BivariateSample(u, v))
        so = SecondOrderParams(0.5, 0.0, k0=0)
        assert evaluate_cells(pseudo, grid, so).shape == (len(want), len(cfg.k_grid))

    def test_failures_counted_not_fatal(self):
        # oracle mode without ground truth: every reduced cell fails, raw fine
        cfg = small_config(model=CopulaModel("amh", 0.3), N=5)
        report = run_study(cfg)
        flagged = [repr(cell) for cell in report.flagged]  # NaN fields compare by text
        for cell in report.cells:
            if cell.estimator == "reduced":
                assert cell.n_fail == 5 and math.isnan(cell.mean)
                assert repr(cell) in flagged
            else:
                assert cell.n_ok == 5
                assert math.isnan(cell.bias)  # no ground truth to compare against
        u, v = sample_copula(cfg.model, cfg.n, replicate_generator(cfg.master_seed, 0))
        pseudo = PseudoSample.from_sample(BivariateSample(u, v))
        with pytest.raises(ParameterDomainError, match="no ground truth"):
            cfg.second_order.resolve(cfg.model, pseudo)

    @pytest.mark.parametrize("exc", [ValueError, ZeroDivisionError])
    def test_programming_errors_propagate(self, monkeypatch, exc):
        # only package domain errors become n_fail; anything else is a bug
        def broken(tail, ks, a, b, tail_index=None, *, workspace=None):
            raise exc("broken kernel")

        monkeypatch.setattr("residualdep.simulate.m_ab_path", broken)
        with pytest.raises(exc, match="broken kernel"):
            run_study(small_config(N=2))

    def test_one_kernel_call_per_replicate(self, monkeypatch):
        # each replicate calls the kernel once, on the stacked tails of its three
        # margins; the reduced-bias base rows are the raw frechet_shifted rows of the
        # same q, so 3 margins x 2 q = 6 distinct rows serve all 8 paths
        from residualdep import estimators
        calls = []

        def counting(tail, ks, a, b, tail_index=None, *, workspace=None):
            calls.append((len(tail), len(a)))
            return estimators.m_ab_path(tail, ks, a, b, tail_index, workspace=workspace)

        monkeypatch.setattr("residualdep.simulate.m_ab_path", counting)
        cfg = small_config(N=4, margins=("pareto_t", "frechet_shifted", "frechet_unshifted"))
        run_study(cfg)
        assert calls == [(3, 6)] * 4

    def test_kernel_overflow_counted_as_failure(self):
        # q = 1e-6 gives b = 999999, where M_{a,b} overflows: a domain error
        report = run_study(small_config(N=2, q_grid=(1e-6,), margins=("pareto_t",)))
        assert all(cell.n_fail == 2 and math.isnan(cell.mean) for cell in report.cells)

    def test_reduced_cells_obey_kstar_cap(self):
        cfg = small_config(kstar_rule="9")
        report = run_study(cfg)
        for cell in report.cells:
            if cell.estimator == "reduced":
                assert cell.kstar <= math.isqrt(cell.k)


class TestEmitReport:
    def test_csv_columns_and_order(self):
        report = run_study(small_config(N=2))
        text = emit_report(report)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        keys = []
        for line in lines[1:]:
            row = line.split(",")
            keys.append((row[0], row[1], float(row[2]), float(row[3]), float(row[4]),
                         int(row[5])))
        assert keys == sorted(keys)
        assert keys == [(c.estimator, c.margin, c.q, c.a, c.b, c.k) for c in report.cells]

    def test_empty_grid_header_only(self):
        cfg = small_config(k_grid=())
        text = emit_report(run_study(cfg))
        assert text == ",".join(CSV_COLUMNS) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_round_trip(self, fmt):
        report = run_study(small_config(N=4))
        text = emit_report(report, fmt)
        rows = _parse(text, fmt)
        assert len(rows) == len(report.cells)
        for row, cell in zip(rows, report.cells):
            assert row["estimator"] == cell.estimator and row["margin"] == cell.margin
            assert row["k"] == cell.k and row["n_ok"] == cell.n_ok
            assert row["kstar"] == (cell.kstar if cell.kstar is not None else None)
            for field in ("q", "a", "b", "k_over_n", "mean", "bias", "variance", "mse"):
                got, want = row[field], getattr(cell, field)
                if isinstance(want, float) and math.isnan(want):
                    assert got is None if fmt == "jsonl" else math.isnan(got)
                else:
                    assert got == pytest.approx(want, abs=1e-12)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(run_study(small_config(N=2)), "xml")

    def test_write_unknown_format_leaves_file(self, tmp_path):
        report = run_study(small_config(N=2))
        path = tmp_path / "cells.csv"
        write_report(report, path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            write_report(report, path, "xml")
        assert path.read_bytes() == before
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(report, tmp_path / "new.csv", "xml")
        assert not (tmp_path / "new.csv").exists()


def _parse(text, fmt):
    rows = []
    if fmt == "csv":
        for rec in csv.DictReader(io.StringIO(text)):
            row = dict(rec)
            for key in ("q", "a", "b", "k_over_n", "mean", "bias", "variance", "mse"):
                row[key] = float(row[key])
            for key in ("k", "n_ok", "n_fail"):
                row[key] = int(row[key])
            row["kstar"] = int(row["kstar"]) if row["kstar"] else None
            rows.append(row)
    else:
        for line in text.strip().split("\n"):
            rows.append(json.loads(line))
    return rows


@pytest.fixture(scope="module")
def frank_means():
    model = CopulaModel("frank", 0.5)
    n_rep = 200
    sums = {0.9: 0.0, 1.0: 0.0, 1.1: 0.0}
    for r in range(n_rep):
        u, v = sample_copula(model, 500, replicate_generator(424242, r))
        pseudo = PseudoSample.from_sample(BivariateSample(u, v))
        for q in sums:
            sums[q] += eta_hat(pseudo, 25, EstimatorSpec.conjugate(q))
    return {q: s / n_rep for q, s in sums.items()}


class TestQualitativeFindings:
    """Desk-scale forms of the simulation study's documented findings."""

    def test_bias_monotone_in_q_near_confluence(self, frank_means):
        # dominant bias factor (1 - a eta)/(1 - a eta + tau) decreases in a,
        # so the mean bias at eta = tau = 1/2 decreases across q = 0.9, 1, 1.1
        b09 = abs(frank_means[0.9] - 0.5)
        b10 = abs(frank_means[1.0] - 0.5)
        b11 = abs(frank_means[1.1] - 0.5)
        assert b11 <= b10 <= b09

    def test_amh_reduced_below_one_beats_raw_hill(self):
        # q slightly below 1 with the correction: mean absolute bias over
        # k/n in [0.05, 0.1] stays below the raw Hill estimator's
        import math

        from residualdep import SecondOrderParams, effective_tau, reduced_bias_eta

        model = CopulaModel("amh", -1.0)
        truth = 1 / 3
        n, n_rep = 500, 200
        ks = range(25, 51)
        so = SecondOrderParams(effective_tau(1 / 3, 2 / 3), 0.0, k0=0)
        hill_spec = EstimatorSpec.conjugate(1.0, Margin.FRECHET_SHIFTED)
        sums = {"hill": {k: 0.0 for k in ks},
                0.8: {k: 0.0 for k in ks}, 0.9: {k: 0.0 for k in ks}}
        for r in range(n_rep):
            u, v = sample_copula(model, n, replicate_generator(515151, r))
            pseudo = PseudoSample.from_sample(BivariateSample(u, v))
            for k in ks:
                kstar = min(int(n ** 0.3), math.isqrt(k))
                sums["hill"][k] += eta_hat(pseudo, k, hill_spec)
                for q in (0.8, 0.9):
                    a = EstimatorSpec.conjugate(q).a
                    sums[q][k] += reduced_bias_eta(pseudo, k, kstar, a, so).eta
        mab = {key: np.mean([abs(col[k] / n_rep - truth) for k in ks])
               for key, col in sums.items()}
        assert mab[0.8] <= mab["hill"]
        assert mab[0.9] <= mab["hill"]
