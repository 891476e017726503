import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import ndtr, ndtri, owens_t
from scipy.stats import kendalltau, kstest, pearsonr

from residualdep import CopulaModel, Family, ParameterDomainError, copula_cdf, \
    replicate_generator, sample_copula

MODELS = [
    CopulaModel(Family.FGM, -0.25),
    CopulaModel(Family.FGM, 0.8),
    CopulaModel(Family.FRANK, 0.5),
    CopulaModel(Family.FRANK, 4.0),
    CopulaModel(Family.AMH, -1.0),
    CopulaModel(Family.AMH, 0.6),
    CopulaModel(Family.GAUSSIAN, 0.6),
    CopulaModel(Family.GAUSSIAN, -0.4),
]


class TestModelConstruction:
    def test_ground_truth_table(self):
        assert CopulaModel("fgm", -0.25).true_eta == 0.5
        assert CopulaModel("fgm", -0.25).true_tau == 0.5
        assert CopulaModel("frank", 0.5).true_eta == 0.5
        amh = CopulaModel("amh", -1.0)
        assert amh.true_eta == pytest.approx(1 / 3, abs=1e-15)
        assert amh.true_tau == pytest.approx(2 / 3, abs=1e-15)
        gauss = CopulaModel("gaussian", 0.6)
        assert gauss.true_eta == pytest.approx(0.8, abs=1e-15)
        assert gauss.true_tau == 0.0

    def test_amh_off_corner_has_no_ground_truth(self):
        m = CopulaModel("amh", 0.3)
        assert m.true_eta is None and m.true_tau is None

    @pytest.mark.parametrize("family,theta", [
        ("fgm", 1.5), ("fgm", -1.01), ("frank", 0.0), ("frank", -2.0), ("frank", 20.5),
        ("frank", np.inf), ("amh", 1.2), ("gaussian", 1.0), ("gaussian", -1.0),
    ])
    def test_invalid_theta_rejected(self, family, theta):
        with pytest.raises(ParameterDomainError):
            CopulaModel(family, theta)

    @pytest.mark.parametrize("theta", [True, "0.5", None])
    def test_theta_must_be_a_number(self, theta):
        with pytest.raises(ValueError, match=f"model theta {theta!r} is not a number"):
            CopulaModel("frank", theta)


class TestCdf:
    def test_fgm_hand_value(self):
        # 0.25 * (1 + (-0.25) * 0.25)
        m = CopulaModel("fgm", -0.25)
        assert copula_cdf(m, 0.5, 0.5) == pytest.approx(0.234375, abs=1e-15)

    def test_amh_hand_value(self):
        # 0.25 / (1 + 0.25)
        m = CopulaModel("amh", -1.0)
        assert copula_cdf(m, 0.5, 0.5) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.family.value}_{m.theta}")
    def test_uniform_margin_boundary(self, model):
        for v in (0.1, 0.5, 0.93):
            assert copula_cdf(model, 1.0, v) == pytest.approx(v, abs=1e-12)
            assert copula_cdf(model, v, 1.0) == pytest.approx(v, abs=1e-12)
            assert copula_cdf(model, 0.0, v) == 0.0

    def test_gaussian_against_quadrature(self):
        # independent numerical integration of the bivariate normal density
        def quad_cdf(u, v, rho):
            h, k = ndtri(u), ndtri(v)

            def dens(y, x):
                z = (x * x - 2 * rho * x * y + y * y) / (1 - rho * rho)
                return np.exp(-z / 2) / (2 * np.pi * np.sqrt(1 - rho * rho))

            val, _ = integrate.dblquad(dens, -8.5, h, -8.5, k, epsabs=1e-11)
            return val

        for rho in (-0.7, 0.3, 0.9):
            m = CopulaModel("gaussian", rho)
            for u, v in [(0.2, 0.8), (0.5, 0.5), (0.5, 0.35), (0.9, 0.95)]:
                assert copula_cdf(m, u, v) == pytest.approx(quad_cdf(u, v, rho), abs=1e-8)

    def test_gaussian_zero_rho_is_independence(self):
        # theta ~ 0 not admissible exactly 0? it is: (-1,1) includes 0
        m = CopulaModel("gaussian", 0.0)
        assert copula_cdf(m, 0.3, 0.7) == pytest.approx(0.21, abs=1e-14)

    @pytest.mark.parametrize("rho", [-0.999, -0.5, -0.1, 0.0, 0.3, 0.9, 0.999])
    def test_gaussian_matches_per_point_reference(self, rho):
        """Bit for bit the per-point Owen's T evaluation that the array code replaced, with
        the interior value clipped to the Frechet-Hoeffding bounds."""
        def owen(u, v):
            h, k = ndtri(u), ndtri(v)
            if rho == 0.0:
                return float(ndtr(h) * ndtr(k))
            s = np.sqrt(1.0 - rho * rho)
            if h == 0.0:
                return float(0.5 * ndtr(k) - owens_t(k, -rho / s))
            if k == 0.0:
                return float(0.5 * ndtr(h) - owens_t(h, -rho / s))
            t1 = owens_t(h, (k - rho * h) / (h * s))
            t2 = owens_t(k, (h - rho * k) / (k * s))
            delta = 0.5 if h * k < 0.0 else 0.0
            return float(0.5 * (ndtr(h) + ndtr(k)) - t1 - t2 - delta)

        def reference(u, v):
            if u == 0.0 or v == 0.0:
                return 0.0
            if u == 1.0:
                return float(v)
            if v == 1.0:
                return float(u)
            return min(max(owen(u, v), max(u + v - 1.0, 0.0)), min(u, v))

        m = CopulaModel("gaussian", rho)
        grid = np.concatenate([[0.0, 1e-300, 1e-12, 0.5, 1 - 1e-12, 1.0],
                               np.linspace(0.0, 1.0, 41)])
        u, v = np.meshgrid(grid, grid)
        want = np.array([reference(a, b) for a, b in zip(u.ravel().tolist(), v.ravel().tolist())])
        got = copula_cdf(m, u, v)
        assert got.shape == u.shape
        assert got.ravel().view(np.int64).tolist() == want.view(np.int64).tolist()
        for a, b in [(0.3, 0.7), (0.5, 0.5), (0.0, 0.2), (1.0, 0.4), (0.5, 1e-300)]:
            value = copula_cdf(m, a, b)
            assert type(value) is float and repr(value) == repr(reference(a, b))
        row = copula_cdf(m, grid[:, None], 0.25)  # broadcasts against a scalar
        assert row.shape == (len(grid), 1)
        assert row.ravel().tolist() == [reference(a, 0.25) for a in grid.tolist()]

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.5, 0.9])
    def test_gaussian_within_frechet_hoeffding_bounds(self, rho):
        # the Owen's T sum cancels near the bounds and left them by a few ulps
        m = CopulaModel("gaussian", rho)
        u, v = replicate_generator(18).random((2, 300, 300))
        c = copula_cdf(m, u, v)
        assert np.all(c >= np.maximum(u + v - 1.0, 0.0)) and np.all(c <= np.minimum(u, v))
        assert copula_cdf(CopulaModel("gaussian", -0.5), 0.5, 1e-300) >= 0.0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.family.value}_{m.theta}")
    def test_two_increasing_on_grid(self, model):
        grid = np.linspace(0.02, 0.98, 9)
        c = copula_cdf(model, grid[:, None], grid[None, :])
        # rectangle mass C(u2,v2)-C(u1,v2)-C(u2,v1)+C(u1,v1) >= 0
        mass = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
        assert mass.min() >= -1e-12

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_two_increasing_random_rectangles(self, u1, u2, v1, v2):
        u1, u2 = sorted((u1, u2))
        v1, v2 = sorted((v1, v2))
        for model in (CopulaModel("frank", 2.0), CopulaModel("amh", -1.0)):
            mass = (copula_cdf(model, u2, v2) - copula_cdf(model, u1, v2)
                    - copula_cdf(model, u2, v1) + copula_cdf(model, u1, v1))
            assert mass >= -1e-12


class TestSampler:
    def test_determinism_bit_identical(self):
        m = CopulaModel("frank", 0.5)
        u1, v1 = sample_copula(m, 500, 123)
        u2, v2 = sample_copula(m, 500, 123)
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        u3, _ = sample_copula(m, 500, 124)
        assert not np.array_equal(u1, u3)

    def test_replicate_streams_differ(self):
        m = CopulaModel("frank", 0.5)
        a, _ = sample_copula(m, 100, replicate_generator(9, 0))
        b, _ = sample_copula(m, 100, replicate_generator(9, 1))
        assert not np.array_equal(a, b)

    def test_fgm_theta_zero_independent(self):
        u, v = sample_copula(CopulaModel("fgm", 0.0), 100_000, 7)
        tau, _ = kendalltau(u, v)
        assert abs(tau) < 0.01

    @pytest.mark.parametrize("family", ["fgm", "amh"])
    @pytest.mark.parametrize("theta", [0.0, -0.0])
    def test_theta_zero_returns_the_second_draw_bitwise(self, family, theta):
        # at theta = 0 the conditional inverse is the identity: disc = 1 and v = 2w/2
        for seed in range(4):
            rng = replicate_generator(seed)
            u_draw, w = rng.random(5000), rng.random(5000)
            u, v = sample_copula(CopulaModel(family, theta), 5000, seed)
            assert u.tobytes() == u_draw.tobytes() and v.tobytes() == w.tobytes()

    def test_frank_inverse_accurate_at_theta_bound(self):
        # the sampler's conditional inverse against the same inverse in log space,
        # v = -(log((1-w) e^(-theta u) + w e^(-theta)) - log((1-w) e^(-theta u) + w)) / theta,
        # at the largest theta the model accepts
        theta, n = 20.0, 200_000
        rng = replicate_generator(2020)
        u, w = rng.random(n), rng.random(n)
        _, v = sample_copula(CopulaModel("frank", theta), n, 2020)
        log_both = np.log1p(-w) - theta * u
        exact = -(np.logaddexp(log_both, np.log(w) - theta)
                  - np.logaddexp(log_both, np.log(w))) / theta
        assert np.all((v > 0.0) & (v < 1.0))
        assert np.max(np.abs(v - exact)) <= 1e-8

    def test_gaussian_correlation_recovered(self):
        u, v = sample_copula(CopulaModel("gaussian", 0.6), 100_000, 11)
        r, _ = pearsonr(ndtri(u), ndtri(v))
        assert abs(r - 0.6) < 0.02

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.family.value}_{m.theta}")
    def test_marginals_uniform(self, model):
        u, v = sample_copula(model, 100_000, 5)
        assert kstest(u, "uniform").statistic < 0.01
        assert kstest(v, "uniform").statistic < 0.01

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.family.value}_{m.theta}")
    def test_sampler_matches_cdf_on_grid(self, model):
        n = 100_000
        u, v = sample_copula(model, n, 31)
        grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        for gu in grid:
            for gv in grid:
                p = copula_cdf(model, gu, gv)
                emp = np.mean((u <= gu) & (v <= gv))
                se = np.sqrt(p * (1 - p) / n)
                assert abs(emp - p) < 3 * se + 1e-12, (gu, gv, emp, p)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            sample_copula(CopulaModel("frank", 1.0), 1, 0)
