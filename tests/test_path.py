import json

import numpy as np
import pytest

import sparsevmf.em
import sparsevmf.path
from sparsevmf.cli import _write_csv
from sparsevmf.dataset import SimulationConfig, fit_result_to_dict, load_model, simulate_mixture
from sparsevmf.em import FitOptions, FitStatus, MixtureParams, e_step, fit_em, soft_threshold_mu
from sparsevmf.path import PathOptions, follow_path, next_beta, path_to_dict
from sparsevmf.selection import best_of_restarts


def dense_fit(X, K, seed):
    return fit_em(X, K, FitOptions(beta=0.0), rng=seed)


def assert_same_fit(a, b):
    for name in ("alpha", "means", "kappas"):
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))
    assert a.trace == b.trace
    assert a.log_likelihood == b.log_likelihood
    assert a.penalized_log_likelihood == b.penalized_log_likelihood


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
        assert next_beta(one_sparse, np.array([[0.9, 0.3]]), 0.1) is None

    def test_no_increment(self):
        params = MixtureParams(np.array([1.0]), np.array([[1.0, 0.0]]),
                               np.array([1.0]))
        r = np.array([[0.4, 0.2]])
        assert next_beta(params, r, 0.5) is None

    def test_returns_beta_prev_plus_min_margin(self):
        # No floor on the step: the increment is the smallest margin, bit for
        # bit, even when it is tiny next to beta_prev.
        params = MixtureParams(np.array([0.5, 0.5]),
                               np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]]),
                               np.array([1.5, 3.0]))
        r = np.array([[1.0, 1.2, 0.9999], [5.0, 0.7, 0.52]])
        beta_prev = 1.4999
        margins = [1.5 * 1.0 - beta_prev, 1.5 * 1.2 - beta_prev,
                   3.0 * 0.7 - beta_prev, 3.0 * 0.52 - beta_prev]
        assert next_beta(params, r, beta_prev) == beta_prev + min(margins)
        assert min(margins) < 1e-3 * beta_prev

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
        sparse_start = fit_em(X, 2, FitOptions(beta=0.5), init=fit.params)
        with pytest.raises(ValueError):
            follow_path(X, 2, PathOptions(), sparse_start)

    def test_start_with_another_k_raises(self, small_problem):
        X, fit = small_problem
        scored = []

        def ic_fn(f):
            scored.append(f)
            return {}

        with pytest.raises(ValueError, match="K = 3, but the initial fit holds 2"):
            follow_path(X, 3, PathOptions(max_steps=3), fit, ic_fn=ic_fn)
        assert scored == []  # raised before step 0 was recorded

    @pytest.mark.parametrize("start_mode, path_mode", [("shared", "free"), ("free", "shared")])
    def test_start_of_another_kappa_mode_raises(self, start_mode, path_mode):
        # m_step reads the mode from the options, so such a path would switch
        # mode after step 0.
        cfg = SimulationConfig(K=3, d=20, N=400, base_kappa=15.0, sparsity=0.5, seed=3)
        X, _ = simulate_mixture(cfg)
        start = fit_em(X, 3, FitOptions(kappa_mode=start_mode), rng=1)
        opts = PathOptions(max_steps=3, fit_options=FitOptions(kappa_mode=path_mode))
        with pytest.raises(ValueError, match=f"^kappa_mode = '{path_mode}', but the "
                                             f"initial fit is in '{start_mode}' mode$"):
            follow_path(X, 3, opts, start)

    def test_step_zero_is_initial_fit(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=3), fit)
        step0 = res.steps[0]
        assert step0.fit.beta == 0.0
        assert np.array_equal(step0.fit.params.means, fit.params.means)
        assert step0.fit.log_likelihood == fit.log_likelihood

    def test_betas_strictly_increasing(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=50), fit)
        betas = [s.fit.beta for s in res.steps]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))

    def test_termination_reason_valid(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=200), fit)
        assert res.termination_reason in ("MaxSteps", "EmFailure", "NoIncrementAvailable")
        assert len(res.steps) <= 200

    def test_default_runs_to_the_end(self, small_problem):
        X, fit = small_problem
        assert PathOptions().max_steps is None
        res = follow_path(X, 2, PathOptions(), fit)
        assert res.termination_reason == "NoIncrementAvailable"

    def test_max_steps_reason(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=2), fit)
        assert len(res.steps) == 2
        assert res.termination_reason == "MaxSteps"

    def test_warm_equals_cold_at_each_beta(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=5), fit)
        for prev, step in zip(res.steps, res.steps[1:]):
            cold = fit_em(X, 2, FitOptions(beta=step.fit.beta), init=prev.fit.params)
            # a path step is the cold restart from its predecessor, bit for bit
            assert_same_fit(step.fit, cold)

    def test_every_step_is_the_cold_fit_em_to_its_end(self):
        # Tight clusters at d = 100, followed from 200 nonzeros down to two
        # 1-sparse means: step 4 holds coordinates small enough that any
        # zeroing rule applied after fit_em would change it.
        cfg = SimulationConfig(K=2, d=100, N=600, base_kappa=1e4, sparsity=0.5, seed=1)
        X, _ = simulate_mixture(cfg)
        dense = best_of_restarts(X, 2, 3, FitOptions(), seed=1)
        res = follow_path(X, 2, PathOptions(), dense)
        assert res.termination_reason == "NoIncrementAvailable"
        assert len(res.steps) == 107
        for prev, step in zip(res.steps, res.steps[1:]):
            assert step.fit.trace[-1] == step.fit.penalized_log_likelihood
            cold = fit_em(X, 2, FitOptions(beta=step.fit.beta), init=prev.fit.params)
            assert_same_fit(step.fit, cold)

    def test_deterministic(self, small_problem):
        X, fit = small_problem
        r1 = follow_path(X, 2, PathOptions(max_steps=20), fit)
        r2 = follow_path(X, 2, PathOptions(max_steps=20), fit)
        assert len(r1.steps) == len(r2.steps)
        for a, b in zip(r1.steps, r2.steps):
            assert a.fit.beta == b.fit.beta
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

        def counting(X, params, prev=None):
            calls.append(1)
            return e_step(X, params, prev=prev)

        monkeypatch.setattr(sparsevmf.em, "e_step", counting)
        monkeypatch.setattr(sparsevmf.path, "e_step", counting)
        res = follow_path(X, 2, PathOptions(max_steps=4), fit)
        assert res.termination_reason == "MaxSteps"
        assert all(s.fit.status is FitStatus.CONVERGED for s in res.steps)
        # the first E-step of each warm start comes from the previous step
        assert len(calls) == sum(s.fit.n_iters - 1 for s in res.steps[1:])

    def test_recorded_steps_hold_no_resp(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=5), fit)
        assert fit.resp is not None
        assert all(s.fit.resp is None for s in res.steps)

    # A tight and a loose EM tolerance: the path must not depend on the
    # start's E-step being held, however many iterations each step takes.
    @pytest.mark.parametrize("em_tol", [1e-8, 1e-3])
    def test_loaded_start_matches_fresh(self, small_problem, tmp_path, em_tol):
        X, fit = small_problem
        (tmp_path / "m.json").write_text(json.dumps(fit_result_to_dict(fit), indent=1))
        loaded = load_model(tmp_path / "m.json")
        assert loaded.resp is None
        opts = PathOptions(max_steps=6, fit_options=FitOptions(em_tol=em_tol))
        fresh = follow_path(X, 2, opts, fit)
        again = follow_path(X, 2, opts, loaded)
        assert again.termination_reason == fresh.termination_reason
        assert len(again.steps) == len(fresh.steps)
        for a, b in zip(again.steps, fresh.steps):
            assert a.fit.beta == b.fit.beta
            assert np.array_equal(a.fit.params.means, b.fit.params.means)
            assert np.array_equal(a.fit.params.kappas, b.fit.params.kappas)
            assert a.fit.log_likelihood == b.fit.log_likelihood
            assert a.fit.penalized_log_likelihood == b.fit.penalized_log_likelihood


class TestResultantReuse:
    """Sharing the previous E-step's resultants when tau repeats bitwise, as
    it does on tight clusters, changes no bit of a fit or a path."""

    def test_tight_mixture_matches_recomputing(self, monkeypatch):
        cfg = SimulationConfig(K=3, d=20, N=300, base_kappa=2e4, sparsity=0.5, seed=60)
        X, truth = simulate_mixture(cfg)
        assert truth.params.kappas.min() >= 1e4
        shared = []

        def run(e_step_fn):
            monkeypatch.setattr(sparsevmf.em, "e_step", e_step_fn)
            monkeypatch.setattr(sparsevmf.path, "e_step", e_step_fn)
            dense = best_of_restarts(X, 3, 3, FitOptions(), seed=61)
            return dense, follow_path(X, 3, PathOptions(max_steps=8), dense)

        def recording(X, params, prev=None):
            resp = e_step(X, params, prev=prev)
            shared.append(prev is not None and resp.resultants is prev.resultants)
            return resp

        def ignoring_prev(X, params, prev=None):
            return e_step(X, params)

        reused_dense, reused = run(recording)
        fresh_dense, fresh = run(ignoring_prev)
        assert any(shared)
        assert np.array_equal(reused_dense.resp.resultants, fresh_dense.resp.resultants)
        assert reused.termination_reason == fresh.termination_reason
        assert len(reused.steps) == len(fresh.steps) > 1
        pairs = [(reused_dense, fresh_dense)]
        pairs += [(a.fit, b.fit) for a, b in zip(reused.steps, fresh.steps)]
        for a, b in pairs:
            assert_same_fit(a, b)
            assert a.beta == b.beta
            assert a.status is b.status


class TestLargeEpsilon:
    # max_steps is a count: len(steps) == max_steps must be able to hold.
    @pytest.mark.parametrize("name", ["max_steps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5])
    def test_non_finite_options_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
            PathOptions(**{name: value})
        assert PathOptions(**{name: np.int64(3)}).max_steps == 3

    def test_nonzero_fit_options_beta_rejected(self):
        # follow_path sets beta at every step and needs a dense start, so the
        # options refuse a nonzero beta before any fit runs.
        with pytest.raises(ValueError, match="beta"):
            PathOptions(fit_options=FitOptions(beta=0.5))
        assert PathOptions(fit_options=FitOptions(beta=0.0)).fit_options.beta == 0.0


class TestPathToDict:
    def test_one_record_per_step(self, small_problem):
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=4), fit,
                          ic_fn=lambda f: {"AIC": 1.0, "BIC": 2.0})
        doc = path_to_dict(res)
        assert doc["termination_reason"] == res.termination_reason
        assert len(doc["steps"]) == len(res.steps)
        assert doc["steps"][0]["beta"] == 0.0
        for i, (rec, step) in enumerate(zip(doc["steps"], res.steps)):
            assert list(rec) == ["step", "beta", "sparsity", "log_likelihood",
                                 "penalized_log_likelihood", "status", "n_iters", "AIC", "BIC"]
            assert rec["step"] == i
            assert rec["beta"] == step.fit.beta
            assert rec["status"] == step.fit.status.value
            assert (rec["AIC"], rec["BIC"]) == (1.0, 2.0)


class TestSavePath:
    def test_json_and_csv(self, small_problem, tmp_path):
        # path --csv-out writes the path_to_dict step records through the CLI's
        # one CSV writer.
        X, fit = small_problem
        res = follow_path(X, 2, PathOptions(max_steps=4), fit)
        cp = tmp_path / "p.csv"
        doc = path_to_dict(res)
        _write_csv(cp, doc["steps"])
        import csv as csvmod

        assert doc["termination_reason"] == res.termination_reason
        assert len(doc["steps"]) == len(res.steps)
        assert doc["steps"][0]["beta"] == 0.0
        with open(cp, newline="") as fh:
            text = fh.read()
        assert "\r" not in text
        rows = list(csvmod.DictReader(text.splitlines()))
        assert len(rows) == len(res.steps)
        assert float(rows[1]["beta"]) == res.steps[1].fit.beta


class TestNoCreep:
    def test_every_step_moves_beta_or_zeroes(self):
        # Coordinates already zero used to bound next_beta, so runs of
        # steps zeroed nothing while beta crept up by ~1e-13 relative.
        cfg = SimulationConfig(K=3, d=20, N=400, base_kappa=15.0, sparsity=0.5, seed=3)
        X, _ = simulate_mixture(cfg)
        res = follow_path(X, 3, PathOptions(), best_of_restarts(X, 3, 10, FitOptions(), seed=1))
        assert len(res.steps) > 20
        for prev, step in zip(res.steps, res.steps[1:]):
            crept = step.fit.beta - prev.fit.beta <= 1e-6 * prev.fit.beta
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
