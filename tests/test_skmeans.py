import numpy as np
import pytest

from sparsevmf.em import soft_threshold_mu
from sparsevmf.metrics import adjusted_rand_index
from sparsevmf.skmeans import skmeans_fit
from sparsevmf.vmf import sample


class TestSkmeans:
    def test_orthogonal_recovery(self):
        rng = np.random.default_rng(0)
        mus = np.eye(3, 8)
        X = np.vstack([sample(m, 60.0, 50, rng) for m in mus])
        truth = np.repeat(np.arange(3), 50)
        res = skmeans_fit(X, 3, rng=np.random.default_rng(1))
        assert res.converged
        assert adjusted_rand_index(truth, res.labels) == 1.0
        aligned = np.abs(res.prototypes @ mus.T)
        assert np.all(aligned.max(axis=1) > 0.98)

    def test_k1_is_normalized_resultant(self):
        rng = np.random.default_rng(2)
        X = sample(np.eye(1, 5)[0], 4.0, 100, rng)
        res = skmeans_fit(X, 1, rng=np.random.default_rng(3))
        r = X.sum(axis=0)
        assert np.allclose(res.prototypes[0], r / np.linalg.norm(r), atol=1e-12)
        assert res.coherence == pytest.approx(float((X @ res.prototypes[0]).sum()))

    def test_coherence_non_decreasing_over_runs(self):
        # Each Lloyd iteration cannot decrease coherence: runs from the same
        # seeded start, each allowed one iteration more, never lower it.
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 6))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        runs = [skmeans_fit(X, 4, max_iters=m, rng=np.random.default_rng(5))
                for m in range(1, 30)]
        assert runs[-1].converged
        coherence = np.array([r.coherence for r in runs])
        assert np.all(np.diff(coherence) >= -1e-10)

    def test_prototypes_are_crisp_mu_update_fixed_points(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        res = skmeans_fit(X, 3, rng=np.random.default_rng(7))
        assert res.converged
        for k in range(3):
            members = res.labels == k
            r = X[members].sum(axis=0)
            # the unpenalized mean update on a crisp assignment is exactly the
            # normalized resultant, i.e. the skmeans prototype
            mu = soft_threshold_mu(r, kappa=2.0, beta=0.0)
            assert np.allclose(mu, res.prototypes[k], atol=1e-12)

    def test_unit_norm_prototypes(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 7))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        res = skmeans_fit(X, 5, rng=np.random.default_rng(9))
        assert np.allclose(np.linalg.norm(res.prototypes, axis=1), 1.0, atol=1e-12)

    def test_deterministic_given_init(self):
        # The initial prototypes are drawn from rng: one seed, one result.
        rng = np.random.default_rng(10)
        X = rng.standard_normal((50, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        a = skmeans_fit(X, 3, rng=np.random.default_rng(11))
        b = skmeans_fit(X, 3, rng=np.random.default_rng(11))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.prototypes, b.prototypes)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            skmeans_fit(np.eye(2), 3)
