import json
import warnings

import numpy as np
import pytest

import mpmath as mp
from scipy.special import logsumexp

import sparsevmf.em
from sparsevmf import special
from sparsevmf.dataset import SimulationConfig, simulate_mixture
from sparsevmf.em import (
    FitOptions,
    FitStatus,
    MixtureParams,
    _logsumexp_cols,
    _penalized,
    e_step,
    fit_em,
    fit_result_from_dict,
    fit_result_to_dict,
    hard_assign,
    init_random,
    load_model,
    m_step,
    soft_threshold_mu,
)
from sparsevmf.errors import InitFailureError, ZeroMeanError
from sparsevmf.metrics import adjusted_rand_index
from sparsevmf.vmf import KAPPA_CAP, sample

from oracles import closed_form_vmf_fit, plain_movmf_em, proximal_mu_maximizer


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_params(rng, K, d, kappa_lo=2.0, kappa_hi=30.0):
    means = rng.standard_normal((K, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    alpha = rng.dirichlet(np.ones(K))
    kappas = rng.uniform(kappa_lo, kappa_hi, size=K)
    return MixtureParams(alpha=alpha, means=means, kappas=kappas)


class TestInitRandom:
    def test_pure_clusters(self):
        X = np.repeat(np.eye(3, 6), 10, axis=0)
        rng = np.random.default_rng(0)
        params = None
        for _ in range(20):  # duplicate draws land in one cluster; retry
            try:
                params = init_random(X, 3, rng)
                break
            except InitFailureError:
                continue
        assert params is not None
        assert np.allclose(np.sort(params.alpha), 1 / 3)
        assert np.all(params.kappas == KAPPA_CAP)

    def test_singletons_capped(self):
        X = np.eye(4, 8)
        rng = np.random.default_rng(1)
        params = init_random(X, 4, rng)
        assert np.all(params.kappas == KAPPA_CAP)
        assert np.allclose(params.alpha, 0.25)

    def test_some_restart_succeeds(self):
        cfg = SimulationConfig(K=4, d=10, N=500, base_kappa=5.37, seed=3)
        X, _ = simulate_mixture(cfg)
        ok = 0
        for s in range(10):
            try:
                init_random(X, 4, np.random.default_rng(s))
                ok += 1
            except InitFailureError:
                pass
        assert ok >= 1

    def test_resultants_equal_add_at(self, monkeypatch):
        # Each crisp cluster's rows add in row order, as np.add.at adds them,
        # so the resultants are bitwise equal.
        seen = []

        def record(means, r, *args, **kwargs):
            seen.append(r)
            return np.ones(means.shape[0])

        monkeypatch.setattr(sparsevmf.em, "_kappas_from_resultants", record)
        rng = np.random.default_rng(2)
        for K, n, d in ((2, 30, 4), (3, 2000, 200), (5, 300, 17)):
            X = rng.standard_normal((n, d))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            params = init_random(X, K, rng)
            labels = np.argmax(X @ params.means.T, axis=1)
            ref = np.zeros((K, d))
            np.add.at(ref, labels, X)
            assert seen[-1].tobytes() == ref.tobytes()

    def test_nonpositive_resultant_fails(self):
        # Means at rows 0 and 1: rows 2 and 3 join cluster 0, whose resultant
        # (-0.2, -1.6) has <mu_0, r_0> = -0.2 < 0.
        class FirstTwo:
            def choice(self, n, size, replace):
                return np.arange(size)

        X = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8], [-0.6, -0.8]])
        with pytest.raises(InitFailureError):
            init_random(X, 2, FirstTwo())


class TestEStep:
    def test_single_component(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 1, 5)
        X = sample(params.means[0], 5.0, 20, rng)
        resp = e_step(X, params)
        assert np.allclose(resp.tau, 1.0)

    def test_symmetric_split(self):
        means = np.eye(2, 4)
        params = MixtureParams(np.array([0.5, 0.5]), means, np.array([3.0, 3.0]))
        x = unit([1, 1, 0, 0])  # equidistant from both means
        resp = e_step(x[None, :], params)
        assert np.allclose(resp.tau, 0.5, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 4, 7)
        X = rng.standard_normal((30, 7))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        resp = e_step(X, params)
        assert np.allclose(resp.tau.sum(axis=1), 1.0, atol=1e-10)
        assert np.all((resp.tau >= 0) & (resp.tau <= 1))

    def test_against_arbitrary_precision(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 3, 4)
        X = rng.standard_normal((5, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        resp = e_step(X, params)
        mp.mp.dps = 50
        d = 4
        for i in range(5):
            joint = []
            for k in range(3):
                kap = mp.mpf(params.kappas[k])
                s = mp.mpf(d) / 2 - 1
                cd = kap**s / ((2 * mp.pi) ** (s + 1) * mp.besseli(s, kap))
                f = cd * mp.exp(kap * mp.mpf(float(params.means[k] @ X[i])))
                joint.append(mp.mpf(params.alpha[k]) * f)
            total = sum(joint)
            for k in range(3):
                assert abs(resp.tau[i, k] - float(joint[k] / total)) < 1e-12
            assert abs(resp.log_marginals[i] - float(mp.log(total))) < 1e-12

    def test_logsumexp_matches_scipy(self):
        # Offset entries keep results away from 0, where SciPy < 1.15's
        # log(sum(...)) form and log1p part ways by more than rtol.
        rng = np.random.default_rng(5)
        for trial in range(200):
            n, K = int(rng.integers(1, 40)), int(rng.integers(2, 7))
            a = rng.normal(-5.0, (1.0, 100.0, 1e4)[trial % 3], size=(K, n))
            if trial % 4 == 0:
                a[1] = a[0]  # tied maxima
            if trial % 5 == 0:
                a = np.round(a)  # more ties
            if trial % 3 == 0:
                a[-1] = -np.inf  # a component with alpha = 0
            np.testing.assert_allclose(_logsumexp_cols(a), logsumexp(a, axis=0),
                                       rtol=1e-15, atol=0)

    def test_resultants_weight_x_by_tau(self):
        rng = np.random.default_rng(6)
        for K, n, d in ((1, 20, 5), (3, 200, 7), (6, 500, 40)):
            params = random_params(rng, K, d)
            X = rng.standard_normal((n, d))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            resp = e_step(X, params)
            ref = resp.tau.T @ X
            assert resp.resultants.shape == (K, d)
            # Relative to the largest entry: BLAS may round single entries near 0 apart.
            assert np.abs(resp.resultants - ref).max() <= 1e-14 * np.abs(ref).max()


class TestSoftThreshold:
    def test_beta_zero_normalizes_resultant(self):
        rng = np.random.default_rng(5)
        r = rng.standard_normal(8)
        for kappa in (0.5, 5.0, 500.0):
            mu = soft_threshold_mu(r, kappa, 0.0)
            assert np.allclose(mu, r / np.linalg.norm(r), atol=1e-14)

    def test_single_survivor(self):
        c = 2.5
        r = np.array([3.0, 1.0]) / np.sqrt(10.0) * c
        kappa = 4.0
        beta = 0.5 * (kappa * r[1] + kappa * r[0])  # between the two scores
        mu = soft_threshold_mu(r, kappa, beta)
        assert np.allclose(mu, [1.0, 0.0])

    def test_zero_mean_error(self):
        # beta above kappa * max|r|: the maximiser keeps the largest coordinate
        mu = soft_threshold_mu(np.array([0.1, -0.2]), 1.0, 10.0)
        assert mu.tolist() == [0.0, -1.0]
        # only a zero resultant leaves the mean undefined
        for beta in (0.0, 10.0):
            with pytest.raises(ZeroMeanError):
                soft_threshold_mu(np.zeros(3), 1.0, beta)

    def test_over_penalized_tie_takes_lowest_index(self):
        mu = soft_threshold_mu(np.array([0.1, -0.5, 0.5, -0.5]), 2.0, 1.0)
        assert mu.tolist() == [0.0, -1.0, 0.0, 0.0]

    def test_over_penalized_matches_constrained_maximizer(self):
        # beta in [kappa max|r|, 3 kappa max|r|]: every coordinate is
        # thresholded away, and no unit vector scores above kappa max|r| - beta
        rng = np.random.default_rng(16)
        for checked in range(25):
            d = int(rng.integers(3, 9))
            r = rng.standard_normal(d)
            kappa = float(rng.uniform(0.5, 20.0))
            top = kappa * float(np.max(np.abs(r)))
            beta = float(rng.uniform(top, 3.0 * top))
            mu = soft_threshold_mu(r, kappa, beta)
            _, oracle_val = proximal_mu_maximizer(r, kappa, beta, seed=checked)
            val = kappa * float(mu @ r) - beta * float(np.abs(mu).sum())
            assert np.count_nonzero(mu) == 1
            assert val == pytest.approx(top - beta, rel=1e-12, abs=1e-12)
            assert val >= oracle_val - 1e-9 * max(1.0, abs(oracle_val))

    def test_matches_constrained_maximizer(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 25:
            d = int(rng.integers(3, 9))
            r = rng.standard_normal(d)
            kappa = float(rng.uniform(0.5, 20.0))
            beta = float(rng.uniform(0.0, 0.8 * kappa * np.max(np.abs(r))))
            mu = soft_threshold_mu(r, kappa, beta)
            oracle_mu, oracle_val = proximal_mu_maximizer(r, kappa, beta, seed=checked)
            val = kappa * float(mu @ r) - beta * float(np.abs(mu).sum())
            assert val >= oracle_val - 1e-6
            assert abs(val - oracle_val) < 1e-6
            assert np.allclose(mu, oracle_mu, atol=1e-4)
            checked += 1

    def test_survivors_shrink_with_beta(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal(12)
        kappa = 3.0
        prev_support = None
        for beta in np.linspace(0.0, 0.95 * kappa * np.max(np.abs(r)), 20):
            mu = soft_threshold_mu(r, kappa, beta)
            support = set(np.nonzero(mu)[0].tolist())
            if prev_support is not None:
                assert support <= prev_support
            prev_support = support


class TestMStep:
    def _resp(self, X, params):
        return e_step(X, params)

    def test_beta_zero_closed_form(self):
        rng = np.random.default_rng(8)
        cfg = SimulationConfig(K=2, d=5, N=100, base_kappa=8.0, seed=20)
        X, _ = simulate_mixture(cfg)
        opts = FitOptions(beta=0.0)
        fit = fit_em(X, 2, opts, rng=rng)
        assert fit.status is FitStatus.CONVERGED
        resp = e_step(X, fit.params)
        out = m_step(resp, fit.params, opts)
        # Closed-form uncoupled case: mean equals the normalized resultant.
        r = resp.tau.T @ X
        for k in range(2):
            assert np.allclose(out.means[k], r[k] / np.linalg.norm(r[k]), atol=1e-12)

    def test_single_component_reduces_to_mle(self):
        rng = np.random.default_rng(9)
        X = sample(unit([1, 2, 0, 0, 1]), 12.0, 200, rng)
        params = MixtureParams(np.ones(1), unit([1, 0, 0, 0, 0])[None, :], np.array([1.0]))
        resp = e_step(X, params)
        out = m_step(resp, params, FitOptions())
        ref_mu, ref_kappa = closed_form_vmf_fit(X)
        assert np.allclose(out.means[0], ref_mu, atol=1e-10)
        # kappa solves the exact ratio equation A_d(kappa) = rbar
        from sparsevmf.special import bessel_ratio

        rbar = np.linalg.norm(X.sum(axis=0)) / X.shape[0]
        assert bessel_ratio(X.shape[1], out.kappas[0]) == pytest.approx(rbar, rel=1e-8)
        # ... and stays close to the closed-form single-vMF estimate
        assert out.kappas[0] == pytest.approx(ref_kappa, rel=0.05)

    def test_stationarity_residuals(self):
        rng = np.random.default_rng(10)
        cfg = SimulationConfig(K=2, d=5, N=20, base_kappa=8.0, seed=21)
        X, _ = simulate_mixture(cfg)
        params = fit_em(X, 2, FitOptions(beta=0.0), rng=rng).params
        resp = e_step(X, params)
        beta = 0.5
        opts = FitOptions(beta=beta, inner_tol=1e-12, inner_max_iters=500)
        out = m_step(resp, params, opts)
        r = resp.tau.T @ X
        sums = resp.tau.sum(axis=0)
        from sparsevmf.special import bessel_ratio

        for k in range(2):
            # mu stationarity: soft-threshold equation at the final kappa
            shrunk = np.maximum(out.kappas[k] * np.abs(r[k]) - beta, 0.0)
            mu_expected = np.sign(r[k]) * shrunk / np.linalg.norm(shrunk)
            assert np.max(np.abs(out.means[k] - mu_expected)) < 1e-6
            # kappa stationarity: A_d(kappa) = rho at the final mean
            rho = float(out.means[k] @ r[k]) / sums[k]
            d = X.shape[1]
            assert bessel_ratio(d, out.kappas[k]) == pytest.approx(rho, rel=1e-6)

    def test_shared_mode_single_kappa(self):
        rng = np.random.default_rng(11)
        cfg = SimulationConfig(K=3, d=8, N=150, base_kappa=10.0, seed=22)
        X, _ = simulate_mixture(cfg)
        fit = fit_em(X, 3, FitOptions(beta=0.0, kappa_mode="shared"), rng=rng)
        assert fit.params.kappa_mode == "shared"
        assert len(set(fit.params.kappas.tolist())) == 1

    def test_invariants_after_m_step(self):
        rng = np.random.default_rng(12)
        cfg = SimulationConfig(K=3, d=6, N=100, base_kappa=9.0, seed=23)
        X, _ = simulate_mixture(cfg)
        params = random_params(rng, 3, 6)
        resp = e_step(X, params)
        out = m_step(resp, params, FitOptions(beta=0.3))
        assert out.alpha.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(np.linalg.norm(out.means, axis=1), 1.0, atol=1e-10)


class TestFitEm:
    def test_failed_statuses(self):
        # best_of_restarts and follow_path both read this one definition.
        assert {s for s in FitStatus if s.failed} == {
            FitStatus.ZERO_MEAN, FitStatus.DEGENERATE_UNIFORM, FitStatus.EMPTY_COMPONENT,
        }

    def test_separable_perfect_recovery(self):
        rng = np.random.default_rng(13)
        mus = np.eye(2, 5)
        X = np.vstack([
            sample(mus[0], 80.0, 60, rng),
            sample(mus[1], 80.0, 60, rng),
        ])
        truth = np.repeat([0, 1], 60)
        fit = fit_em(X, 2, FitOptions(beta=0.0), rng=rng)
        pred = hard_assign(e_step(X, fit.params))
        assert adjusted_rand_index(truth, pred) == 1.0

    def test_matches_plain_movmf_oracle(self):
        cfg = SimulationConfig(K=3, d=6, N=300, base_kappa=10.0, seed=30)
        X, _ = simulate_mixture(cfg)
        init = init_random(X, 3, np.random.default_rng(31))
        fit = fit_em(X, 3, FitOptions(beta=0.0, em_tol=1e-9), init=init.copy())
        oa, om, ok, oll, _ = plain_movmf_em(
            X, init.alpha, init.means, init.kappas, tol=1e-9
        )
        assert np.allclose(fit.params.alpha, oa, atol=1e-6)
        assert np.allclose(fit.params.means, om, atol=1e-6)
        assert np.allclose(fit.params.kappas, ok, rtol=1e-6)
        assert abs(fit.log_likelihood - oll) <= 1e-8 * abs(oll)

    def test_trace_non_decreasing(self):
        cfg = SimulationConfig(K=4, d=10, N=500, base_kappa=5.37, seed=32)
        X, _ = simulate_mixture(cfg)
        fit = fit_em(X, 4, FitOptions(beta=0.0), rng=33)
        if fit.status is FitStatus.CONVERGED:
            t = np.array(fit.trace)
            slack = 1e-8 * np.maximum(np.abs(t[:-1]), 1.0)
            assert np.all(np.diff(t) >= -slack)

    def test_penalized_log_likelihood_values(self):
        rng = np.random.default_rng(14)
        params = random_params(rng, 2, 6)
        X = rng.standard_normal((40, 6))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        base = e_step(X, params).log_likelihood
        assert _penalized(base, params, 0.0) == pytest.approx(base)
        beta = 0.7
        pen = beta * float(np.abs(params.means).sum())
        assert _penalized(base, params, beta) == pytest.approx(base - pen)
        # l1 norm of each unit-norm mean lies in [1, sqrt(d)]
        k, d = params.means.shape
        assert beta * k <= pen <= beta * k * np.sqrt(d)

    def test_no_op_at_optimum(self):
        rng = np.random.default_rng(15)
        X = sample(unit([1, 1, 1, 0]), 20.0, 500, rng)
        from sparsevmf.special import invert_bessel_ratio

        r = X.sum(axis=0)
        rbar = float(np.linalg.norm(r)) / X.shape[0]
        kappa_star = invert_bessel_ratio(4, rbar, refine=True)
        params = MixtureParams(np.ones(1), (r / np.linalg.norm(r))[None, :],
                               np.array([kappa_star]))
        out = m_step(e_step(X, params), params, FitOptions())
        assert np.allclose(out.means[0], params.means[0], atol=1e-10)
        assert out.kappas[0] == pytest.approx(params.kappas[0], rel=1e-8)

    def test_m_step_takes_resp_by_keyword(self, monkeypatch):
        # perfbench's tracer reads m_step's resp by name (else at position 1)
        cfg = SimulationConfig(K=2, d=5, N=80, base_kappa=8.0, seed=34)
        X, _ = simulate_mixture(cfg)
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return m_step(*args, **kwargs)

        monkeypatch.setattr(sparsevmf.em, "m_step", recording)
        fit = fit_em(X, 2, FitOptions(beta=0.3), rng=35)
        assert len(calls) == fit.n_iters - 1 > 0
        for args, kwargs in calls:
            assert args == ()
            assert kwargs["resp"].tau.shape == (80, 2)

    def test_over_penalized_keeps_largest_coordinate(self):
        cfg = SimulationConfig(K=2, d=5, N=80, base_kappa=8.0, seed=34)
        X, _ = simulate_mixture(cfg)
        dense = fit_em(X, 2, FitOptions(beta=0.0), rng=35)
        fit = fit_em(X, 2, FitOptions(beta=1e9), init=dense.params.copy())
        assert fit.status is FitStatus.CONVERGED
        assert np.all(np.diff(fit.trace) >= -1e-9 * np.abs(fit.trace[:-1]))
        r = fit.resp.resultants
        for k in range(2):
            j = int(np.argmax(np.abs(r[k])))
            expected = np.zeros(5)
            expected[j] = np.sign(r[k, j])
            assert np.array_equal(fit.params.means[k], expected)


class TestFitResultResp:
    """fit_em hands on the E-step at its result's params, and takes the
    E-step at a warm start's init without changing the result."""

    @pytest.fixture(scope="class")
    def problem(self):
        cfg = SimulationConfig(K=2, d=5, N=80, base_kappa=8.0, seed=34)
        X, _ = simulate_mixture(cfg)
        dense = fit_em(X, 2, FitOptions(beta=0.0), rng=35)
        return X, dense

    @staticmethod
    def assert_resp_equal(a, b):
        assert np.array_equal(a.tau, b.tau)
        assert np.array_equal(a.log_marginals, b.log_marginals)
        assert np.array_equal(a.resultants, b.resultants)

    @pytest.mark.parametrize("opts, status", [
        (FitOptions(beta=0.3), FitStatus.CONVERGED),
        (FitOptions(beta=0.3, max_em_iters=1), FitStatus.MAX_ITERS),
        (FitOptions(beta=0.3, max_em_iters=0), FitStatus.MAX_ITERS),
        (FitOptions(beta=1e9), FitStatus.CONVERGED),
    ])
    def test_resp_is_e_step_at_params(self, problem, opts, status):
        X, dense = problem
        fit = fit_em(X, 2, opts, init=dense.params.copy())
        assert fit.status is status
        self.assert_resp_equal(fit.resp, e_step(X, fit.params))

    def test_random_start_carries_resp(self, problem):
        X, dense = problem
        self.assert_resp_equal(dense.resp, e_step(X, dense.params))

    @pytest.mark.parametrize("beta, max_em_iters", [(0.3, 500), (0.3, 1), (0.3, 0), (1e9, 500)])
    def test_given_resp_is_result_neutral(self, problem, beta, max_em_iters):
        X, dense = problem
        opts = FitOptions(beta=beta, max_em_iters=max_em_iters)
        p = dense.params
        plain = fit_em(X, 2, opts, init=p.copy())
        warm = fit_em(X, 2, opts, init=p.copy(), resp=e_step(X, p))
        for name in ("alpha", "means", "kappas"):
            assert np.array_equal(getattr(warm.params, name), getattr(plain.params, name))
        assert warm.trace == plain.trace
        assert warm.n_iters == plain.n_iters
        assert warm.status is plain.status
        assert warm.log_likelihood == plain.log_likelihood
        assert warm.penalized_log_likelihood == plain.penalized_log_likelihood
        self.assert_resp_equal(warm.resp, plain.resp)

    def test_resp_without_init_raises(self, problem):
        X, dense = problem
        with pytest.raises(ValueError, match="init"):
            fit_em(X, 2, FitOptions(), rng=1, resp=dense.resp)


class TestSeedArgument:
    def test_seed_equals_generator(self):
        X, _ = simulate_mixture(SimulationConfig(K=3, d=6, N=120, base_kappa=9.0, seed=36))
        opts = FitOptions(beta=0.2)
        by_seed = fit_em(X, 3, opts, rng=7)
        by_generator = fit_em(X, 3, opts, rng=np.random.default_rng(7))
        for name in ("alpha", "means", "kappas"):
            assert np.array_equal(getattr(by_seed.params, name), getattr(by_generator.params, name))
        assert by_seed.trace == by_generator.trace
        assert by_seed.n_iters == by_generator.n_iters
        assert by_seed.status is by_generator.status
        assert by_seed.penalized_log_likelihood == by_generator.penalized_log_likelihood


class TestInvalidValuesRejected:
    @pytest.mark.parametrize("field", ["alpha", "means", "kappas"])
    def test_mixture_params(self, field):
        values = {"alpha": np.array([1.0]), "means": np.array([[1.0, 0.0]]),
                  "kappas": np.array([2.0])}
        values[field] = np.full_like(values[field], np.nan)
        with pytest.raises(ValueError, match=field):
            MixtureParams(**values)

    @pytest.mark.parametrize("name", ["beta", "em_tol", "inner_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_fit_options(self, name, value):
        with pytest.raises(ValueError, match=name):
            FitOptions(**{name: value})

    def test_negative_max_em_iters(self):
        with pytest.raises(ValueError, match="max_em_iters"):
            FitOptions(max_em_iters=-1)


class TestConcentrationRange:
    def test_high_dimension_fit(self):
        # ive underflows at d=5000, kappa=4000: the E-step must stay finite.
        rng = np.random.default_rng(0)
        d = 5000
        means = np.zeros((2, d))
        means[0, :50] = 1.0
        means[1, 50:100] = 1.0
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        X = np.vstack([sample(mu, 4000.0, 100, rng) for mu in means])
        resp = e_step(X, MixtureParams(np.array([0.5, 0.5]), means, np.array([4000.0, 4000.0])))
        assert np.isfinite(resp.log_likelihood)
        assert np.all(np.isfinite(resp.tau))
        fit = fit_em(X, 2, FitOptions(), rng=0)
        assert isinstance(fit.status, FitStatus)
        assert np.isfinite(fit.log_likelihood)

    def test_tight_clusters_stay_at_cap(self, monkeypatch):
        # Two clusters of spread 1e-5 at d=5: every rho lies above A_d(KAPPA_CAP),
        # and the kappa solve must not probe above the cap on its way there.
        seen = []
        original = special.bessel_ratio

        def recording(d, kappa):
            seen.append(kappa)
            return original(d, kappa)

        monkeypatch.setattr(special, "bessel_ratio", recording)
        rng = np.random.default_rng(0)
        X = np.repeat(np.eye(2, 5), 20, axis=0) + 1e-5 * rng.standard_normal((40, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_em(X, 2, FitOptions(), rng=0)
        assert np.all(fit.params.kappas == KAPPA_CAP)
        assert seen and max(seen) <= KAPPA_CAP


class TestHardAssign:
    def test_argmax(self):
        assert hard_assign(np.array([[0.2, 0.7, 0.1]]))[0] == 1

    def test_tie_lowest_index(self):
        assert hard_assign(np.array([[0.5, 0.5]]))[0] == 0

    def test_single_component(self):
        assert np.all(hard_assign(np.ones((4, 1))) == 0)


class TestPersistence:
    def test_bit_for_bit_round_trip(self, tmp_path):
        cfg = SimulationConfig(K=3, d=7, N=120, base_kappa=9.0, sparsity=0.2, seed=40)
        X, _ = simulate_mixture(cfg)
        fit = fit_em(X, 3, FitOptions(beta=0.0), rng=41)
        p = tmp_path / "model.json"
        p.write_text(json.dumps(fit_result_to_dict(fit, seed=41), indent=1))
        loaded = load_model(p)
        assert np.array_equal(loaded.params.alpha, fit.params.alpha)
        assert np.array_equal(loaded.params.means, fit.params.means)
        assert np.array_equal(loaded.params.kappas, fit.params.kappas)
        assert loaded.log_likelihood == fit.log_likelihood
        assert loaded.status == fit.status

    def test_shared_kappa_scalar_in_json(self):
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2, 4),
                               np.array([7.0, 7.0]), kappa_mode="shared")
        from sparsevmf.em import FitResult

        doc = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
        assert doc["kappa"] == 7.0
        back = fit_result_from_dict(doc)
        assert np.array_equal(back.params.kappas, params.kappas)
