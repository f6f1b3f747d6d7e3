import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from sparsevmf.em import FitOptions, FitStatus, MixtureParams, Responsibilities, m_step
from sparsevmf.errors import DegenerateFitError
from sparsevmf.special import bessel_ratio
from sparsevmf.vmf import KAPPA_CAP, _sample_tangent_weights, sample

from oracles import closed_form_vmf_fit


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestParams:
    """sample checks its own inputs."""

    def test_rejects_non_unit_mu(self):
        with pytest.raises(ValueError, match="unit-norm"):
            sample(np.array([1.0, 1.0]), 1.0, 5, np.random.default_rng(0))

    def test_rejects_kappa_above_cap(self):
        with pytest.raises(ValueError, match="kappa"):
            sample(np.array([1.0, 0.0]), 2 * KAPPA_CAP, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("mu", [np.eye(3), np.array(1.0)])
    def test_rejects_non_vector_mu(self, mu):
        with pytest.raises(ValueError, match="vector"):
            sample(mu, 1.0, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [0, 2.5, np.nan, np.float64(3.0)])
    def test_rejects_n_that_is_not_a_count(self, n):
        with pytest.raises(ValueError) as err:
            sample(np.array([1.0, 0.0]), 1.0, n, np.random.default_rng(0))
        assert str(err.value) == f"n must be an integer >= 1, got {n!r}"

    @pytest.mark.parametrize("d", [1, 100_001])
    def test_rejects_length_outside_domain(self, d):
        with pytest.raises(ValueError, match=f"^sample requires 2 <= d <= 100000, got {d}$"):
            sample(np.eye(1, d)[0], 1.0, 5, np.random.default_rng(0))


def m_step_estimate(X, tau=None):
    """The package's vMF maximum-likelihood estimate: the beta = 0 M step,
    here with responsibilities tau (N x K; all ones, K = 1, by default)."""
    n, d = X.shape
    tau = np.ones((n, 1)) if tau is None else tau
    K = tau.shape[1]
    resp = Responsibilities(tau=tau, log_marginals=np.zeros(n), resultants=tau.T @ X)
    prev = MixtureParams(np.full(K, 1.0 / K), np.eye(K, d), np.ones(K))
    return m_step(resp, prev, FitOptions())


class TestMleFit:
    """Single-vMF maximum likelihood, as the mixture computes it: the M step."""

    def test_identical_points_cap_kappa(self):
        x = unit([1, 2, 3])
        p = m_step_estimate(np.tile(x, (5, 1)))
        assert np.allclose(p.means[0], x)
        assert p.kappas[0] == KAPPA_CAP

    def test_antipodal_zero_resultant(self):
        x = unit([1, 1, 0])
        with pytest.raises(DegenerateFitError) as err:
            m_step_estimate(np.stack([x, -x]))
        assert err.value.status is FitStatus.ZERO_MEAN

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(11)
        mu = unit(rng.standard_normal(10))
        X = sample(mu, 50.0, 10_000, rng)
        est = m_step_estimate(X)
        assert abs(est.kappas[0] - 50.0) / 50.0 < 0.05
        assert float(est.means[0] @ mu) > 0.99

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(4)
        X = sample(unit(rng.standard_normal(5)), 8.0, 200, rng)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = m_step_estimate(X)
        b = m_step_estimate(X @ q.T)
        assert np.allclose(b.means[0], q @ a.means[0], atol=1e-10)
        assert b.kappas[0] == pytest.approx(a.kappas[0], rel=1e-10)

    def test_weighted_selects_subpopulation(self):
        rng = np.random.default_rng(5)
        mu1, mu2 = np.eye(4)[0], np.eye(4)[1]
        X = np.vstack([
            sample(mu1, 100.0, 50, rng),
            sample(mu2, 100.0, 50, rng),
        ])
        w = np.concatenate([np.ones(50), np.zeros(50)])
        est = m_step_estimate(X, tau=np.stack([w, 1.0 - w], axis=1))
        assert float(est.means[0] @ mu1) > 0.99


class TestSample:
    def test_uniform_has_small_resultant(self):
        rng = np.random.default_rng(6)
        X = sample(np.eye(3)[0], 0.0, 100_000, rng)
        assert np.linalg.norm(X.mean(axis=0)) < 0.01

    @pytest.mark.parametrize("d", [2, 3, 10, 200])
    def test_uniform_cosine_matches_normalized_gaussians(self, d):
        # At kappa = 0 Wood's scheme accepts every proposal; <mu, x> must
        # have the marginal of a uniform point, drawn here independently as
        # a normalized Gaussian.
        rng = np.random.default_rng(60 + d)
        mu = unit(rng.standard_normal(d))
        t = sample(mu, 0.0, 20_000, rng) @ mu
        g = rng.standard_normal((20_000, d))
        assert ks_2samp(t, g[:, 0] / np.linalg.norm(g, axis=1)).pvalue > 1e-3

    def test_mean_cosine_matches_ratio(self):
        rng = np.random.default_rng(7)
        mu = unit(np.arange(1, 11))
        X = sample(mu, 50.0, 100_000, rng)
        assert (X @ mu).mean() == pytest.approx(bessel_ratio(10, 50.0), abs=0.005)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(8)
        X = sample(unit([2, 1, -1, 3]), 3.0, 7, rng)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("kappa", [5.0, 50.0, 500.0])
    @pytest.mark.parametrize("d", [3, 10, 100])
    def test_sampler_mle_closure(self, kappa, d):
        n = 100_000
        rng = np.random.default_rng(1000 + d)
        mu = unit(rng.standard_normal(d))
        X = sample(mu, kappa, n, rng)
        est_mu, est_kappa = closed_form_vmf_fit(X)
        # The closed-form estimator carries a small deterministic bias (up to
        # ~5% at low d); check the Monte Carlo part against its population
        # target and the bias separately.
        a = bessel_ratio(d, kappa)
        population_kappa = a * (d - a * a) / (1.0 - a * a)
        assert abs(est_kappa - population_kappa) / kappa < 0.02
        assert abs(population_kappa - kappa) / kappa < 0.055
        # Angle accuracy is limited by the Fisher information of mu.
        angle_floor = 4.0 * math.sqrt((d - 1) / (n * kappa * a))
        assert math.acos(min(1.0, float(est_mu @ mu))) < max(0.02, angle_floor)


def wood_loop_before_split(kappa, d, n, rng):
    """Wood's rejection loop as it stood before its acceptance step moved
    into vmf._wood_accept."""
    m = d - 1
    b = m / (math.sqrt(4.0 * kappa * kappa + m * m) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + m * math.log(1.0 - x0 * x0)
    out = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        z = rng.beta(0.5 * m, 0.5 * m, size=todo)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=todo)
        accept = kappa * w + m * np.log1p(-x0 * w) - c >= np.log(u)
        nacc = int(accept.sum())
        out[filled : filled + nacc] = w[accept]
        filled += nacc
    return out


@pytest.mark.parametrize("d, kappa", [(2, 0.5), (3, 50.0), (200, 1e5), (2000, 60.0)])
def test_tangent_weights_match_the_loop_before_the_split(d, kappa):
    rng_a, rng_b = np.random.default_rng(41), np.random.default_rng(41)
    got = _sample_tangent_weights(kappa, d, 5_000, rng_a)
    want = wood_loop_before_split(kappa, d, 5_000, rng_b)
    assert got.tobytes() == want.tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
