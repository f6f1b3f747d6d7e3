import numpy as np
import pytest

from sparsevmf.dataset import SimulationConfig, simulate_mixture
from sparsevmf.em import soft_threshold_mu
from sparsevmf.metrics import adjusted_rand_index
from sparsevmf.skmeans import skmeans_fit
from sparsevmf.vmf import sample


def fit(X, K, **kwargs):
    """skmeans_fit, checking that a converged run is at its fixed point: each
    prototype is the normalized resultant of the rows its final labels give it."""
    res = skmeans_fit(X, K, **kwargs)
    if res.converged:
        X = np.asarray(X, dtype=float)
        for k in range(K):
            r = X[res.labels == k].sum(axis=0)
            assert np.allclose(res.prototypes[k], r / np.linalg.norm(r), rtol=0, atol=1e-12)
    return res


class TestSkmeans:
    def test_orthogonal_recovery(self):
        rng = np.random.default_rng(0)
        mus = np.eye(3, 8)
        X = np.vstack([sample(m, 60.0, 50, rng) for m in mus])
        truth = np.repeat(np.arange(3), 50)
        res = fit(X, 3, rng=np.random.default_rng(1))
        assert res.converged
        assert adjusted_rand_index(truth, res.labels) == 1.0
        aligned = np.abs(res.prototypes @ mus.T)
        assert np.all(aligned.max(axis=1) > 0.98)

    def test_k1_is_normalized_resultant(self):
        rng = np.random.default_rng(2)
        X = sample(np.eye(1, 5)[0], 4.0, 100, rng)
        res = fit(X, 1, rng=np.random.default_rng(3))
        r = X.sum(axis=0)
        assert np.allclose(res.prototypes[0], r / np.linalg.norm(r), atol=1e-12)
        assert res.coherence == pytest.approx(float((X @ res.prototypes[0]).sum()))

    def test_coherence_non_decreasing_over_runs(self):
        # Each Lloyd iteration cannot decrease coherence: runs from the same
        # seeded start, each allowed one iteration more, never lower it.
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 6))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        runs = [fit(X, 4, max_iters=m, rng=np.random.default_rng(5))
                for m in range(1, 30)]
        assert runs[-1].converged
        coherence = np.array([r.coherence for r in runs])
        assert np.all(np.diff(coherence) >= -1e-10)

    def test_prototypes_are_crisp_mu_update_fixed_points(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        res = fit(X, 3, rng=np.random.default_rng(7))
        assert res.converged
        for k in range(3):
            members = res.labels == k
            r = X[members].sum(axis=0)
            # the unpenalized mean update on a crisp assignment is exactly the
            # normalized resultant, i.e. the skmeans prototype
            mu = soft_threshold_mu(r, kappa=2.0, beta=0.0)
            assert np.allclose(mu, res.prototypes[k], atol=1e-12)

    def test_cap_at_the_update_count(self):
        # n_iters counts prototype updates and the repeat test comes before
        # the cap: capped at n_iters, a run converges the same way, while one
        # update fewer stops short of the final prototypes.
        X, _ = simulate_mixture(SimulationConfig(K=3, d=20, N=500, overlap_target=0.025,
                                                 sparsity=0.25, seed=0))
        res = fit(X, 3, rng=np.random.default_rng(1))
        capped = fit(X, 3, max_iters=res.n_iters, rng=np.random.default_rng(1))
        assert res.converged and capped.converged
        assert capped.n_iters == res.n_iters
        assert np.array_equal(capped.labels, res.labels)
        assert np.array_equal(capped.prototypes, res.prototypes)
        short = fit(X, 3, max_iters=res.n_iters - 1, rng=np.random.default_rng(1))
        assert not short.converged
        assert not np.array_equal(short.prototypes, res.prototypes)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_empty_cluster_reseeded_from_worst_served_row(self, seed):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        # The start: duplicate rows tie to the lowest index, leaving one
        # cluster empty at the first assignment.
        start = X[np.random.default_rng(seed).choice(4, size=3, replace=False)]
        sims = X @ start.T
        labels = np.argmax(sims, axis=1)
        (empty,) = np.setdiff1d(np.arange(3), labels)
        worst = int(np.argmin(sims[np.arange(4), labels]))
        res = fit(X, 3, rng=np.random.default_rng(seed))
        assert res.converged
        assert np.bincount(res.labels, minlength=3).min() >= 1
        assert np.array_equal(res.prototypes[empty], X[worst])
        assert res.labels[worst] == empty

    def test_reseed_ends_at_fixed_point(self):
        # The first assignment gives rows 2 and 3 to cluster 1 and leaves
        # cluster 2 empty; row 2 is reseeded into it. Every prototype is then
        # updated from those final labels, so prototype 1 is row 3 alone and
        # the coherence is 4.
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        res = fit(X, 3, rng=np.random.default_rng(2))
        assert res.converged
        assert np.array_equal(res.labels, [0, 0, 2, 1])
        assert np.array_equal(res.prototypes[1], [0.6, 0.8])
        assert res.coherence == 4.0

    def test_unit_norm_prototypes(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 7))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        res = fit(X, 5, rng=np.random.default_rng(9))
        assert np.allclose(np.linalg.norm(res.prototypes, axis=1), 1.0, atol=1e-12)

    def test_deterministic_given_init(self):
        # The initial prototypes are drawn from rng: one seed, one result.
        rng = np.random.default_rng(10)
        X = rng.standard_normal((50, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        a = fit(X, 3, rng=np.random.default_rng(11))
        b = fit(X, 3, rng=np.random.default_rng(11))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.prototypes, b.prototypes)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            skmeans_fit(np.eye(2), 3)

    def test_negative_max_iters(self):
        with pytest.raises(ValueError, match="^max_iters must be an integer >= 0, got -2$"):
            skmeans_fit(np.eye(2), 2, max_iters=-2)

    @pytest.mark.parametrize("max_iters", [1.5, float("nan")])
    def test_non_integer_max_iters(self, max_iters):
        # The update count never equals such a cap, so a run would ignore it.
        with pytest.raises(ValueError) as err:
            skmeans_fit(np.eye(2), 2, max_iters=max_iters)
        assert str(err.value) == f"max_iters must be an integer >= 0, got {max_iters!r}"

    def test_zero_max_iters_keeps_initial_prototypes(self):
        X = np.eye(3)
        res = fit(X, 2, max_iters=0, rng=np.random.default_rng(0))
        assert res.n_iters == 0 and not res.converged
        assert np.array_equal(res.labels, np.argmax(X @ res.prototypes.T, axis=1))
