import json

import numpy as np
import pytest

import sparsevmf.em
import sparsevmf.path
from sparsevmf.dataset import SimulationConfig, simulate_mixture
from sparsevmf.em import (FitOptions, FitStatus, MixtureParams, e_step, fit_em,
                          fit_result_to_dict, load_model, soft_threshold_mu)
from sparsevmf.errors import NoIncrementAvailableError
from sparsevmf.path import PathOptions, follow_path, next_beta, path_to_dict, save_path
from sparsevmf.selection import best_of_restarts


def dense_fit(X, K, seed):
    return fit_em(X, K, FitOptions(beta=0.0), rng=seed)


@pytest.fixture(scope="module")
def small_problem():
    cfg = SimulationConfig(K=2, d=6, N=150, base_kappa=10.0, sparsity=0.2, seed=50)
    X, _ = simulate_mixture(cfg)
    fit = dense_fit(X, 2, seed=51)
    return X, fit


class TestNextBeta:
    def test_hand_example(self):
        params = MixtureParams(np.array([1.0]), np.array([[0.6, 0.8]]),
                               np.array([2.0]))
        r = np.array([[0.3, 0.1]])
        # scores: 0.6, 0.2 -> smallest positive margin above 0 is 0.2
        assert next_beta(params, r, 0.0) == pytest.approx(0.2)
        # from beta = 0.2 the only remaining margin is 0.6 - 0.2 = 0.4
        assert next_beta(params, r, 0.2) == pytest.approx(0.6)

    def test_zeroed_coordinates_ignored(self):
        # the zeroed third coordinate has margin 0.3 - 0.1 but nothing left to zero
        params = MixtureParams(np.array([1.0]), np.array([[0.6, 0.8, 0.0]]), np.array([1.0]))
        r = np.array([[0.9, 1.2, 0.3]])
        assert next_beta(params, r, 0.1) == 0.9

    def test_last_coordinate_of_one_sparse_mean_ignored(self):
        # the M step keeps a 1-sparse mean's coordinate at any beta
        params = MixtureParams(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.6, 0.8]]),
                               np.array([1.0, 1.0]))
        r = np.array([[0.3, 0.1], [0.5, 0.7]])
        assert next_beta(params, r, 0.1) == pytest.approx(0.5)
        one_sparse = MixtureParams(np.array([1.0]), np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(NoIncrementAvailableError):
            next_beta(one_sparse, np.array([[0.9, 0.3]]), 0.1)

    def test_no_increment(self):
        params = MixtureParams(np.array([1.0]), np.array([[1.0, 0.0]]),
                               np.array([1.0]))
        r = np.array([[0.4, 0.2]])
        with pytest.raises(NoIncrementAvailableError):
            next_beta(params, r, 0.5)

    def test_min_rel_increase_floor(self):
        params = MixtureParams(np.array([1.0]), np.array([[0.6, 0.8, 0.0]]),
                               np.array([1.0]))
        r = np.array([[1.0, 1.2, 0.9999]])
        raw = next_beta(params, r, 0.9999)
        floored = next_beta(params, r, 0.9999, min_rel_increase=0.05)
        assert raw == pytest.approx(1.0)
        assert floored == pytest.approx(0.9999 * 1.05)
        assert floored > raw

    def test_guarantees_immediate_sparsification(self, small_problem):
        X, fit = small_problem
        resp = e_step(X, fit.params)
        r = resp.tau.T @ X
        beta1 = next_beta(fit.params, r, 0.0)
        for k in range(2):
            at = soft_threshold_mu(r[k], fit.params.kappas[k], beta1)
            below = soft_threshold_mu(r[k], fit.params.kappas[k], 0.99 * beta1)
            # strictly below beta1 nothing new is zeroed; at beta1 the
            # minimizing coordinate goes to exactly zero for at least one k
            assert np.count_nonzero(below) == X.shape[1]
        zeroed = sum(
            X.shape[1] - np.count_nonzero(
                soft_threshold_mu(r[k], fit.params.kappas[k], beta1))
            for k in range(2)
        )
        assert zeroed >= 1


class TestFollowPath:
    def test_requires_dense_start(self, small_problem):
        X, fit = small_problem
        sparse_start = fit_em(X, 2, FitOptions(beta=0.5), init=fit.params.copy())
        with pytest.raises(ValueError):
            follow_path(X, 2, PathOptions(), sparse_start)

    def test_step_zero_is_initial_fit(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=3), fit)
        step0 = res.steps[0]
        assert step0.beta == 0.0
        assert np.array_equal(step0.fit.params.means, fit.params.means)
        assert step0.fit.log_likelihood == fit.log_likelihood

    def test_betas_strictly_increasing(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=50), fit)
        betas = [s.beta for s in res.steps]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))

    def test_termination_reason_valid(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=200), fit)
        assert res.termination_reason in ("MaxSteps", "EmFailure", "NoIncrementAvailable")
        assert len(res.steps) <= 200

    def test_max_steps_reason(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=2), fit)
        assert len(res.steps) == 2
        assert res.termination_reason == "MaxSteps"

    def test_truncation_leaves_no_tiny_coords(self, small_problem):
        X, fit = small_problem
        eps = 1e-3
        res = follow_path(X, 2, PathOptions(max_steps=100, epsilon=eps), fit)
        for step in res.steps[1:]:
            m = step.fit.params.means
            assert not np.any((np.abs(m) < eps) & (m != 0.0))
            assert np.allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-10)

    def test_warm_equals_cold_at_each_beta(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=5), fit)
        for prev, step in zip(res.steps, res.steps[1:]):
            cold = fit_em(
                X, 2, FitOptions(beta=step.beta), init=prev.fit.params.copy()
            )
            # cold restart from the same predecessor model reproduces the
            # pre-truncation fit; compare supports and likelihood
            assert abs(cold.log_likelihood - step.fit.log_likelihood) < 1e-6 * max(
                1.0, abs(step.fit.log_likelihood)
            )

    def test_deterministic(self, small_problem):
        X, fit = small_problem
        r1 = follow_path(X, 2, PathOptions(max_steps=20), fit)
        r2 = follow_path(X, 2, PathOptions(max_steps=20), fit)
        assert len(r1.steps) == len(r2.steps)
        for a, b in zip(r1.steps, r2.steps):
            assert a.beta == b.beta
            assert np.array_equal(a.fit.params.means, b.fit.params.means)

    def test_ic_fn_recorded(self, small_problem):
        X, fit = small_problem
        res = follow_path(
            X, 2, PathOptions(max_steps=3), fit,
            ic_fn=lambda f: {"BIC": 1.23},
        )
        assert all(s.ic_values == {"BIC": 1.23} for s in res.steps)


class TestOneEStepPerPoint:
    """The path hands each E-step on instead of recomputing it."""

    def test_e_steps_per_path(self, small_problem, monkeypatch):
        X, fit = small_problem
        calls = []

        def counting(X, params):
            calls.append(1)
            return e_step(X, params)

        monkeypatch.setattr(sparsevmf.em, "e_step", counting)
        monkeypatch.setattr(sparsevmf.path, "e_step", counting)
        # an epsilon this small truncates nothing, so no step re-evaluates
        res = follow_path(X, 2, PathOptions(max_steps=4, epsilon=1e-300), fit)
        assert res.termination_reason == "MaxSteps"
        assert all(s.fit.status is FitStatus.CONVERGED for s in res.steps)
        # the first E-step of each warm start comes from the previous step
        assert len(calls) == sum(s.fit.n_iters - 1 for s in res.steps[1:])

    def test_recorded_steps_hold_no_resp(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=5, epsilon=1e-3), fit)
        assert fit.resp is not None
        assert all(s.fit.resp is None for s in res.steps)

    @pytest.mark.parametrize("epsilon", [1e-8, 1e-3])
    def test_loaded_start_matches_fresh(self, small_problem, tmp_path, epsilon):
        X, fit = small_problem
        (tmp_path / "m.json").write_text(json.dumps(fit_result_to_dict(fit), indent=1))
        loaded = load_model(tmp_path / "m.json")
        assert loaded.resp is None
        opts = PathOptions(max_steps=6, epsilon=epsilon)
        fresh = follow_path(X, 2, opts, fit)
        again = follow_path(X, 2, opts, loaded)
        assert again.termination_reason == fresh.termination_reason
        assert len(again.steps) == len(fresh.steps)
        for a, b in zip(again.steps, fresh.steps):
            assert a.beta == b.beta
            assert np.array_equal(a.fit.params.means, b.fit.params.means)
            assert np.array_equal(a.fit.params.kappas, b.fit.params.kappas)
            assert a.fit.log_likelihood == b.fit.log_likelihood
            assert a.fit.penalized_log_likelihood == b.fit.penalized_log_likelihood


class TestLargeEpsilon:
    def test_truncation_emptying_a_mean_ends_path(self, small_problem):
        X, fit = small_problem
        # every coordinate of a unit mean in d=6 lies below 0.9
        assert np.all(np.abs(fit.params.means) < 0.9)
        res = follow_path(X, 2, PathOptions(max_steps=4, epsilon=0.9), fit)
        assert res.termination_reason == "EmFailure"
        assert len(res.steps) == 1
        for step in res.steps:
            assert np.all(np.isfinite(step.fit.params.means))
            assert np.isfinite(step.fit.log_likelihood)

    @pytest.mark.parametrize("name", ["epsilon", "min_rel_increase"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_options_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            PathOptions(**{name: value})


class TestSavePath:
    def test_json_and_csv(self, small_problem, tmp_path):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=4), fit)
        cp = tmp_path / "p.csv"
        save_path(res, cp)
        import csv as csvmod

        doc = path_to_dict(res)
        assert doc["termination_reason"] == res.termination_reason
        assert len(doc["steps"]) == len(res.steps)
        assert doc["steps"][0]["beta"] == 0.0
        with open(cp) as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == len(res.steps)
        assert float(rows[1]["beta"]) == res.steps[1].beta


class TestNoCreep:
    def test_every_step_moves_beta_or_zeroes(self):
        # Epsilon-truncated coordinates used to bound next_beta, so runs of
        # steps zeroed nothing while beta crept up by ~1e-13 relative.
        cfg = SimulationConfig(K=3, d=20, N=400, base_kappa=15.0, sparsity=0.5, seed=3)
        X, _ = simulate_mixture(cfg)
        res = follow_path(X, 3, PathOptions(), best_of_restarts(X, 3, 10, FitOptions(), seed=1))
        assert len(res.steps) > 20
        for prev, step in zip(res.steps, res.steps[1:]):
            crept = step.beta - prev.beta <= 1e-6 * prev.beta
            zeroed = np.count_nonzero(step.fit.params.means) < np.count_nonzero(prev.fit.params.means)
            assert zeroed or not crept

    def test_natural_end_leaves_one_sparse_means(self):
        # Once a mean is 1-sparse the M step keeps its last coordinate, so an
        # increment bounded by that coordinate zeroed nothing and beta crept
        # towards it for dozens of steps.
        cfg = SimulationConfig(K=2, d=8, N=200, base_kappa=12.0, sparsity=0.25, seed=5)
        X, _ = simulate_mixture(cfg)
        res = follow_path(X, 2, PathOptions(), best_of_restarts(X, 2, 10, FitOptions(), seed=1))
        assert res.termination_reason == "NoIncrementAvailable"
        assert np.count_nonzero(res.steps[-1].fit.params.means, axis=1).tolist() == [1, 1]
        assert len(res.steps) <= 1 + 2 * (8 - 1)
