import math

import numpy as np
import pytest

from sparsevmf.errors import ZeroMeanError
from sparsevmf.special import bessel_ratio, log_vmf_normalizer
from sparsevmf.vmf import KAPPA_CAP, VmfParams, log_density, mle_fit, sample

from oracles import mp_log_bessel_i


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestParams:
    def test_rejects_non_unit_mu(self):
        with pytest.raises(ValueError):
            VmfParams(mu=np.array([1.0, 1.0]), kappa=1.0)

    def test_rejects_kappa_above_cap(self):
        with pytest.raises(ValueError):
            VmfParams(mu=np.array([1.0, 0.0]), kappa=2 * KAPPA_CAP)


class TestLogDensity:
    def test_uniform_independent_of_x(self):
        p = VmfParams(mu=unit([1, 2, 2]), kappa=0.0)
        vals = {log_density(unit(x), p) for x in ([1, 0, 0], [0, 1, 0], [3, -1, 2])}
        assert len({round(v, 12) for v in vals}) == 1
        assert vals.pop() == pytest.approx(log_vmf_normalizer(3, 0.0))

    def test_orthogonal_gives_normalizer(self):
        p = VmfParams(mu=np.array([1.0, 0.0]), kappa=3.5)
        assert log_density(np.array([0.0, 1.0]), p) == pytest.approx(
            log_vmf_normalizer(2, 3.5)
        )

    def test_circle_value_against_series(self):
        p = VmfParams(mu=np.array([1.0, 0.0]), kappa=1.0)
        got = log_density(np.array([0.0, 1.0]), p)
        ref = -math.log(2 * math.pi) - mp_log_bessel_i(0, 1.0)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_differences_are_exact(self):
        rng = np.random.default_rng(3)
        p = VmfParams(mu=unit(rng.standard_normal(6)), kappa=250.0)
        x1 = unit(rng.standard_normal(6))
        x2 = unit(rng.standard_normal(6))
        diff = log_density(x1, p) - log_density(x2, p)
        expected = p.kappa * (float(p.mu @ x1) - float(p.mu @ x2))
        assert diff == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch(self):
        p = VmfParams(mu=np.array([1.0, 0.0]), kappa=1.0)
        with pytest.raises(ValueError):
            log_density(np.array([1.0, 0.0, 0.0]), p)


class TestMleFit:
    def test_identical_points_cap_kappa(self):
        x = unit([1, 2, 3])
        X = np.tile(x, (5, 1))
        with pytest.warns(UserWarning):
            p = mle_fit(X)
        assert np.allclose(p.mu, x)
        assert p.kappa == KAPPA_CAP

    def test_antipodal_zero_resultant(self):
        x = unit([1, 1, 0])
        with pytest.raises(ZeroMeanError):
            mle_fit(np.stack([x, -x]))

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(11)
        mu = unit(rng.standard_normal(10))
        p = VmfParams(mu=mu, kappa=50.0)
        X = sample(p, 10_000, rng)
        est = mle_fit(X)
        assert abs(est.kappa - 50.0) / 50.0 < 0.05
        assert float(est.mu @ mu) > 0.99

    def test_orthogonal_equivariance(self):
        rng = np.random.default_rng(4)
        X = sample(VmfParams(mu=unit(rng.standard_normal(5)), kappa=8.0), 200, rng)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = mle_fit(X)
        b = mle_fit(X @ q.T)
        assert np.allclose(b.mu, q @ a.mu, atol=1e-10)
        assert b.kappa == pytest.approx(a.kappa, rel=1e-10)

    def test_weighted_selects_subpopulation(self):
        rng = np.random.default_rng(5)
        mu1, mu2 = np.eye(4)[0], np.eye(4)[1]
        X = np.vstack([
            sample(VmfParams(mu=mu1, kappa=100.0), 50, rng),
            sample(VmfParams(mu=mu2, kappa=100.0), 50, rng),
        ])
        w = np.concatenate([np.ones(50), np.zeros(50)])
        est = mle_fit(X, weights=w)
        assert float(est.mu @ mu1) > 0.99


class TestSample:
    def test_uniform_has_small_resultant(self):
        rng = np.random.default_rng(6)
        X = sample(VmfParams(mu=np.eye(3)[0], kappa=0.0), 100_000, rng)
        assert np.linalg.norm(X.mean(axis=0)) < 0.01

    def test_mean_cosine_matches_ratio(self):
        rng = np.random.default_rng(7)
        mu = unit(np.arange(1, 11))
        X = sample(VmfParams(mu=mu, kappa=50.0), 100_000, rng)
        assert (X @ mu).mean() == pytest.approx(bessel_ratio(10, 50.0), abs=0.005)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(8)
        X = sample(VmfParams(mu=unit([2, 1, -1, 3]), kappa=3.0), 7, rng)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("kappa", [5.0, 50.0, 500.0])
    @pytest.mark.parametrize("d", [3, 10, 100])
    def test_sampler_mle_closure(self, kappa, d):
        from sparsevmf.special import invert_bessel_ratio

        n = 100_000
        rng = np.random.default_rng(1000 + d)
        mu = unit(rng.standard_normal(d))
        X = sample(VmfParams(mu=mu, kappa=kappa), n, rng)
        est = mle_fit(X)
        # The closed-form estimator carries a small deterministic bias (up to
        # ~5% at low d); check the Monte Carlo part against its population
        # target and the bias separately.
        a = bessel_ratio(d, kappa)
        population_kappa = invert_bessel_ratio(d, a)
        assert abs(est.kappa - population_kappa) / kappa < 0.02
        assert abs(population_kappa - kappa) / kappa < 0.055
        # Angle accuracy is limited by the Fisher information of mu.
        angle_floor = 4.0 * math.sqrt((d - 1) / (n * kappa * a))
        assert math.acos(min(1.0, float(est.mu @ mu))) < max(0.02, angle_floor)
