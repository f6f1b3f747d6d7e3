import math
from dataclasses import replace

import numpy as np
import pytest

import sparsevmf.selection
from sparsevmf.dataset import SimulationConfig, simulate_mixture
from sparsevmf.em import FitOptions, FitResult, FitStatus, MixtureParams, fit_em
from sparsevmf.errors import InitFailureError
from sparsevmf.path import PathOptions, follow_path
from sparsevmf.selection import (
    CRITERIA,
    Criterion,
    best_of_restarts,
    count_free_params,
    information_criterion,
    make_ic_fn,
    select_model,
)
from sparsevmf.special import KAPPA_CAP


def params_with_means(means, kappa_mode="free"):
    means = np.asarray(means, dtype=float)
    means = means / np.linalg.norm(means, axis=1, keepdims=True)
    K = means.shape[0]
    return MixtureParams(np.full(K, 1.0 / K), means,
                         np.full(K, 5.0), kappa_mode=kappa_mode)


class TestCountFreeParams:
    def test_dense_general_formula(self):
        rng = np.random.default_rng(0)
        for K, d in [(2, 3), (3, 10), (5, 50)]:
            m = rng.standard_normal((K, d))
            p = params_with_means(m)
            assert count_free_params(p) == (2 * K - 1) + K * (d - 1)

    def test_single_nonzero_counts_one(self):
        p = params_with_means(np.eye(1, 8))
        # K=1: alpha 0, kappa 1, mean max(1, 1-1) = 1
        assert count_free_params(p) == 2

    def test_mixed_supports(self):
        m = np.array([[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]])
        p = params_with_means(m)
        # alpha 1, kappa 2, means (2-1) + max(1, 0) = 2 -> 5
        assert count_free_params(p) == 5

    def test_nnz_3_and_2_in_d3(self):
        m = np.array([[0.5, 0.5, 1.0 / np.sqrt(2.0)], [0.6, 0.8, 0.0]])
        p = params_with_means(m)
        # alpha 1, kappa 2, means 2 + 1 = 3 -> total 6
        assert count_free_params(p) == 6

    def test_shared_kappa_counts_one(self):
        m = np.array([[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]])
        p = params_with_means(m, kappa_mode="shared")
        assert count_free_params(p) == 4


class TestCriterion:
    def test_phi_values(self):
        n, d = 100, 100
        assert Criterion("AIC").phi(n, d) == 2.0
        assert Criterion("BIC").phi(n, d) == pytest.approx(math.log(100))
        assert Criterion("RIC").phi(n, d) == pytest.approx(2 * math.log(100))
        assert Criterion("RICc").phi(n, d) == pytest.approx(
            2 * (math.log(100) + math.log(math.log(100)))
        )
        assert Criterion("EBIC").phi(n, d) == pytest.approx(2 * math.log(100))

    def test_bic_matches_aic_at_n_e_squared(self):
        # log n crosses the AIC constant 2 exactly at n = e^2 ~ 7.389, so the
        # two integer sample sizes around it bracket the AIC penalty.
        assert Criterion("BIC").phi(7, 5) < 2.0 < Criterion("BIC").phi(8, 5)

    def test_invalid_kind_and_gamma(self):
        with pytest.raises(ValueError):
            Criterion("AICc")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            Criterion("RIC").phi(10, 1)
        with pytest.raises(ValueError):
            Criterion("RICc").phi(10, 1)
        # 2 (log d + log log d) is defined and positive from d = 2 on
        assert Criterion("RICc").phi(10, 2) == pytest.approx(
            2 * (math.log(2) + math.log(math.log(2))))
        assert Criterion("RICc").phi(10, 2) > 0


class TestInformationCriterion:
    def _fit(self, means, ll):
        p = params_with_means(means)
        return FitResult(params=p, beta=0.0, log_likelihood=ll,
                         penalized_log_likelihood=ll)

    def test_arithmetic(self):
        fit = self._fit(np.eye(2, 4), -123.4)
        c = count_free_params(fit.params)
        for kind in CRITERIA:
            crit = Criterion(kind)
            got = information_criterion(fit, 200, 4, crit)
            assert got == pytest.approx(crit.phi(200, 4) * c + 2 * 123.4)

    def test_affine_in_count(self):
        rng = np.random.default_rng(1)
        crit = Criterion("BIC")
        n, d, ll = 500, 12, -50.0
        vals = []
        counts = []
        for K in (1, 2, 3):
            fit = self._fit(rng.standard_normal((K, d)), ll)
            counts.append(count_free_params(fit.params))
            vals.append(information_criterion(fit, n, d, crit))
        slopes = np.diff(vals) / np.diff(counts)
        assert np.allclose(slopes, math.log(n))

    def test_ic_fn_counts_once_per_fit(self, monkeypatch):
        # make_ic_fn gives information_criterion's values, bitwise, from one
        # count of the free parameters per fit.
        calls = []
        count = sparsevmf.selection.count_free_params

        def record(params):
            calls.append(params)
            return count(params)

        rng = np.random.default_rng(2)
        means = rng.standard_normal((3, 30))
        means[:, ::3] = 0.0
        fit = self._fit(means, -4321.5)
        want = {kind: information_criterion(fit, 700, 30, Criterion(kind)) for kind in CRITERIA}
        monkeypatch.setattr(sparsevmf.selection, "count_free_params", record)
        got = make_ic_fn(700, 30)(fit)
        assert len(calls) == 1
        assert list(got) == list(CRITERIA)
        assert all(got[kind] == want[kind] for kind in CRITERIA)

    def test_lower_ll_raises_ic(self):
        a = self._fit(np.eye(2, 5), -100.0)
        b = self._fit(np.eye(2, 5), -110.0)
        for kind in CRITERIA:
            c = Criterion(kind)
            assert information_criterion(b, 50, 5, c) > information_criterion(a, 50, 5, c)


class TestBestOfRestarts:
    def test_deterministic_and_best(self):
        cfg = SimulationConfig(K=3, d=8, N=200, base_kappa=12.0, seed=60)
        X, _ = simulate_mixture(cfg)
        a = best_of_restarts(X, 3, 5, FitOptions(beta=0.0), seed=7)
        b = best_of_restarts(X, 3, 5, FitOptions(beta=0.0), seed=7)
        assert np.array_equal(a.params.means, b.params.means)
        single = best_of_restarts(X, 3, 1, FitOptions(beta=0.0), seed=7)
        assert a.penalized_log_likelihood >= single.penalized_log_likelihood

    def test_each_restart_returns_through_fit_em(self, monkeypatch):
        # perfbench's tracer sees a restart only when it returns through fit_em
        cfg = SimulationConfig(K=3, d=8, N=200, base_kappa=12.0, seed=60)
        X, _ = simulate_mixture(cfg)
        fits = []

        def recording(*args, **kwargs):
            fits.append(fit_em(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(sparsevmf.selection, "fit_em", recording)
        best = best_of_restarts(X, 3, 4, FitOptions(beta=0.0), seed=7)
        assert len(fits) == 4
        assert any(fit is best for fit in fits)

    @staticmethod
    def failing(monkeypatch, fail):
        """Stand in for fit_em so that restart r (0-based) fails as fail(r, fit)
        says: None keeps the fit, an exception is raised, a status is set.
        Returns the fits that came back."""
        fits = []

        def stand_in(*args, **kwargs):
            r = len(fits)
            fits.append(fit_em(*args, **kwargs))
            outcome = fail(r, fits[-1])
            if isinstance(outcome, Exception):
                raise outcome
            if outcome is not None:
                # a failed fit with the best pll must still be dropped
                fits[-1] = replace(fits[-1], status=outcome, penalized_log_likelihood=math.inf)
            return fits[-1]

        monkeypatch.setattr(sparsevmf.selection, "fit_em", stand_in)
        return fits

    @pytest.mark.parametrize("outcome", [InitFailureError("no start"), FitStatus.ZERO_MEAN])
    def test_failed_restart_is_skipped(self, monkeypatch, outcome):
        cfg = SimulationConfig(K=3, d=8, N=200, base_kappa=12.0, seed=60)
        X, _ = simulate_mixture(cfg)
        fits = self.failing(monkeypatch, lambda r, fit: outcome if r == 1 else None)
        best = best_of_restarts(X, 3, 4, FitOptions(beta=0.0), seed=7)
        kept = [fit for r, fit in enumerate(fits) if r != 1]
        assert len(fits) == 4
        assert best is max(kept, key=lambda fit: fit.penalized_log_likelihood)

    def test_all_restarts_failing_raises(self, monkeypatch):
        cfg = SimulationConfig(K=3, d=8, N=200, base_kappa=12.0, seed=60)
        X, _ = simulate_mixture(cfg)
        outcomes = [InitFailureError("no start"), FitStatus.EMPTY_COMPONENT]
        self.failing(monkeypatch, lambda r, fit: outcomes[r])
        with pytest.raises(InitFailureError) as err:
            best_of_restarts(X, 3, 2, FitOptions(beta=0.0), seed=7)
        assert str(err.value) == "all 2 restarts failed: ['no start', 'EmptyComponent']"

    @pytest.mark.parametrize("n_restarts", [0, -1, 2.5, float("nan")])
    def test_no_restart_rejected(self, n_restarts):
        message = f"^n_restarts must be an integer >= 1, got {n_restarts!r}$"
        with pytest.raises(ValueError, match=message):
            best_of_restarts(np.eye(3, 4), 2, n_restarts, FitOptions())
        with pytest.raises(ValueError, match=message):
            select_model(np.eye(3, 4), [2], n_restarts)


@pytest.fixture(scope="module")
def data():
    cfg = SimulationConfig(K=3, d=10, N=400, base_kappa=15.0,
                           sparsity=0.2, seed=61)
    X, truth = simulate_mixture(cfg)
    return X, truth


class TestSelectModel:

    def test_singleton_candidate(self, data):
        X, _ = data
        rep = select_model(X, [3], n_restarts=3,
                          path_opts=PathOptions(max_steps=10), seed=62)
        assert set(rep.chosen_K.values()) == {3}
        assert rep.final_model is rep.paths[3].steps[rep.best_steps[3]["BIC"]].fit

    def test_chosen_k_is_argmin(self, data):
        X, _ = data
        rep = select_model(X, [2, 3, 4], n_restarts=3,
                          path_opts=PathOptions(max_steps=8), seed=63)
        for kind, kstar in rep.chosen_K.items():
            vals = {K: rep.dense_ic[K][kind] for K in rep.dense_ic}
            assert vals[kstar] == min(vals.values())
        assert set(rep.paths) == set(rep.best_steps) == {rep.chosen_K["BIC"]}

    def test_only_k_criterion_choice_has_a_path(self, data):
        X, _ = data
        opts = PathOptions(max_steps=8)
        rep = select_model(X, [2, 3, 4], n_restarts=3, path_opts=opts,
                           k_criterion="AIC", seed=63)
        kstar = rep.chosen_K["AIC"]
        assert set(rep.paths) == set(rep.best_steps) == {kstar}
        # K*'s path is the one follow_path gives from K*'s dense fit
        path = follow_path(X, kstar, opts, rep.dense_fits[kstar], ic_fn=make_ic_fn(*X.shape))
        bic = [s.ic_values["BIC"] for s in path.steps]
        expected = path.steps[bic.index(min(bic))].fit.params
        for name in ("alpha", "means", "kappas"):
            assert np.array_equal(getattr(rep.final_model.params, name),
                                  getattr(expected, name))

    def test_best_step_is_argmin_on_path(self, data):
        X, _ = data
        rep = select_model(X, [3], n_restarts=3,
                          path_opts=PathOptions(max_steps=12), seed=64)
        path = rep.paths[3]
        for kind, idx in rep.best_steps[3].items():
            vals = [s.ic_values[kind] for s in path.steps]
            assert vals[idx] == min(vals)

    def test_final_model_matches_best_step(self, data):
        X, _ = data
        rep = select_model(X, [3], n_restarts=3,
                          path_opts=PathOptions(max_steps=12), seed=65)
        kstar = rep.chosen_K["BIC"]
        idx = rep.best_steps[kstar]["BIC"]
        assert rep.final_model is rep.paths[kstar].steps[idx].fit

    def test_final_model_follows_beta_criterion(self, data):
        X, _ = data
        rep = select_model(X, [2, 3], n_restarts=3, beta_criterion="AIC",
                           path_opts=PathOptions(max_steps=12), seed=65)
        kstar = rep.chosen_K["BIC"]
        steps = rep.paths[kstar].steps
        aic = [s.ic_values["AIC"] for s in steps]
        assert rep.final_model is steps[aic.index(min(aic))].fit
        # AIC penalises each parameter less than BIC here, so it keeps a
        # denser step: the report holds the AIC choice, not the BIC one.
        assert rep.best_steps[kstar]["AIC"] != rep.best_steps[kstar]["BIC"]

    def test_failed_k_is_skipped(self, data, monkeypatch):
        X, _ = data

        def no_start_at_four(X, K, *args, **kwargs):
            if K == 4:
                raise InitFailureError("no start")
            return fit_em(X, K, *args, **kwargs)

        monkeypatch.setattr(sparsevmf.selection, "fit_em", no_start_at_four)
        rep = select_model(X, [2, 3, 4], n_restarts=2,
                           path_opts=PathOptions(max_steps=3), seed=63)
        assert rep.skipped == {4: "all 2 restarts failed: ['no start', 'no start']"}
        assert set(rep.dense_fits) == set(rep.dense_ic) == {2, 3}
        assert set(rep.chosen_K.values()) <= {2, 3}

    def test_every_k_failing_raises(self, data, monkeypatch):
        X, _ = data

        def no_start(*args, **kwargs):
            raise InitFailureError("no start")

        monkeypatch.setattr(sparsevmf.selection, "fit_em", no_start)
        with pytest.raises(InitFailureError, match="every candidate K failed"):
            select_model(X, [2, 3], n_restarts=1, seed=63)

    def test_empty_candidates(self, data):
        X, _ = data
        with pytest.raises(ValueError):
            select_model(X, [], seed=0)

    @pytest.mark.parametrize("seed", [0, 3, 4, 5])
    def test_collapsed_restart_does_not_pick_k(self, seed):
        # On these datasets the best K = 4 restart puts one component on a
        # single observation at kappa = KAPPA_CAP, an unbounded likelihood
        # that BIC would pick. It is a failed fit, so K = 3 wins.
        X, _ = simulate_mixture(SimulationConfig(K=3, d=500, N=400, base_kappa=300,
                                                 sparsity=0.95, seed=seed))
        rep = select_model(X, [2, 3, 4], seed=0)
        assert rep.chosen_K["BIC"] == 3
        assert all(f.params.kappas.max() < KAPPA_CAP for f in rep.dense_fits.values())
        # The default path runs to its end (about 1,460 steps here), past
        # BIC's minimum, so BIC's model is near the 75 planted nonzeros.
        assert rep.paths[3].termination_reason == "NoIncrementAvailable"
        assert np.count_nonzero(rep.final_model.params.means) <= 100
