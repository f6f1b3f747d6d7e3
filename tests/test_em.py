import json
import warnings

import numpy as np
import pytest

import mpmath as mp
from scipy.special import logsumexp

import sparsevmf.em
from sparsevmf import special
from sparsevmf.dataset import (
    SimulationConfig,
    fit_result_from_dict,
    fit_result_to_dict,
    load_model,
    simulate_mixture,
)
from sparsevmf.em import (
    MAX_INIT_RETRIES,
    FitOptions,
    FitStatus,
    MixtureParams,
    Responsibilities,
    _inner_products,
    _kappas_from_resultants,
    _log_joint,
    _logsumexp_shifted,
    _penalized,
    _resultants,
    _row_blocks,
    e_step,
    fit_em,
    hard_assign,
    init_random,
    m_step,
    soft_threshold_mu,
)
from sparsevmf.errors import DegenerateFitError, InitFailureError, ParseError
from sparsevmf.metrics import adjusted_rand_index
from sparsevmf.vmf import KAPPA_CAP, sample

from oracles import closed_form_vmf_fit, plain_movmf_em, proximal_mu_maximizer


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_params(rng, K, d, kappa_lo=2.0, kappa_hi=30.0, kappa_mode="free"):
    means = rng.standard_normal((K, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    alpha = rng.dirichlet(np.ones(K))
    kappas = rng.uniform(kappa_lo, kappa_hi, size=K)
    if kappa_mode == "shared":
        kappas = np.full(K, kappas[0])
    return MixtureParams(alpha=alpha, means=means, kappas=kappas, kappa_mode=kappa_mode)


class TestInitRandom:
    def test_pure_clusters(self):
        X = np.repeat(np.eye(3, 6), 10, axis=0)
        rng = np.random.default_rng(0)
        params = None
        for _ in range(20):  # duplicate draws land in one cluster; retry
            try:
                params = init_random(X, 3, rng)
                break
            except DegenerateFitError as err:
                assert err.status is FitStatus.EMPTY_COMPONENT
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
            except DegenerateFitError as err:
                assert err.status in (FitStatus.EMPTY_COMPONENT, FitStatus.DEGENERATE_UNIFORM)
        assert ok >= 1

    def test_resultants_are_blocked_onehot_products(self, monkeypatch):
        # The crisp resultants are _resultants of the one-hot weights, bit for
        # bit, and so are e_step's resultants when its tau is that one-hot.
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
            labels = np.argmax(_inner_products(params.means, X), axis=0)
            onehot = (labels == np.arange(K)[:, None]).astype(float)
            assert seen[-1].tobytes() == _resultants(onehot, X).tobytes()
            with monkeypatch.context() as m:
                # A log joint 1000 below the maximum off the labels: e_step's
                # tau is then exactly the one-hot.
                m.setattr(sparsevmf.em, "_log_joint",
                          lambda inner, params: np.where(onehot == 1.0, 0.0, -1000.0))
                resp = e_step(X, params)
            assert np.array_equal(resp.tau.T, onehot)
            assert seen[-1].tobytes() == resp.resultants.tobytes()

    def test_labels_from_blocked_inner_products(self, monkeypatch):
        # The crisp labels are the argmax of the e_step's blocked <mu_k, x_i>.
        seen = []

        def record(means, X):
            seen.append(_inner_products(means, X))
            return seen[-1]

        monkeypatch.setattr(sparsevmf.em, "_inner_products", record)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((1000, 200))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        params = init_random(X, 3, rng)
        assert len(seen) == 1 and seen[0].shape == (3, 1000)
        counts = np.bincount(np.argmax(seen[0], axis=0), minlength=3)
        assert np.array_equal(params.alpha, counts / 1000)

    @pytest.mark.parametrize("kappa_mode", ["free", "shared"])
    def test_kappas_solve_crisp_rho(self, kappa_mode):
        # A random start's kappas solve A_d(kappa) = rho to the M step's
        # accuracy; the closed form alone is off by about 1e-3 relative.
        cfg = SimulationConfig(K=3, d=20, N=600, base_kappa=15.0, seed=5)
        X, _ = simulate_mixture(cfg)
        d = X.shape[1]
        for s in range(5):
            params = init_random(X, 3, np.random.default_rng(s), kappa_mode)
            labels = np.argmax(_inner_products(params.means, X), axis=0)
            dots = np.array([params.means[k] @ X[labels == k].sum(axis=0) for k in range(3)])
            if kappa_mode == "shared":
                rhos = np.full(3, dots.sum() / X.shape[0])
            else:
                rhos = dots / np.bincount(labels, minlength=3)
            for kappa, rho in zip(params.kappas, rhos):
                assert abs(special.bessel_ratio(d, kappa) - rho) <= 1e-10 * rho

    def test_nonpositive_resultant_fails(self):
        # Means at rows 0 and 1: rows 2 and 3 join cluster 0, whose resultant
        # (-0.2, -1.6) has <mu_0, r_0> = -0.2 < 0.
        class FirstTwo:
            def choice(self, n, size, replace):
                return np.arange(size)

        X = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8], [-0.6, -0.8]])
        with pytest.raises(DegenerateFitError) as err:
            init_random(X, 2, FirstTwo())
        assert err.value.status is FitStatus.DEGENERATE_UNIFORM

    def test_fit_em_raises_when_every_start_fails(self):
        # Equal rows tie every inner product, so every start leaves cluster 1
        # empty.
        X = np.tile([0.6, 0.8], (4, 1))
        with pytest.raises(InitFailureError, match=f"failed {MAX_INIT_RETRIES} times"):
            fit_em(X, 2, FitOptions(), rng=0)


class TestEStep:
    def test_single_component(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 1, 5)
        X = sample(params.means[0], 5.0, 20, rng)
        resp = e_step(X, params)
        assert np.allclose(resp.tau, 1.0)

    def test_zero_weight_component(self):
        # log 0 = -inf in the log joint: no RuntimeWarning, and tau is 0 there.
        means = np.eye(3, 4)
        params = MixtureParams(np.array([0.5, 0.5, 0.0]), means, np.array([3.0, 3.0, 3.0]))
        X = np.vstack([means, unit([1, 1, 1, 1])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = e_step(X, params)
        assert resp.tau[:, 2].tobytes() == np.zeros(4).tobytes()
        assert np.allclose(resp.tau.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(resp.log_marginals).all()
        assert np.array_equal(resp.resultants[2], np.zeros(4))

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
            a_max = a.max(axis=0)
            got = _logsumexp_shifted(a, a_max, np.exp(a - a_max))
            np.testing.assert_allclose(got, logsumexp(a, axis=0), rtol=1e-15, atol=0)

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


def tie_aware_e_step(a):
    """The E-step's last part written out from a K x N log joint a: the
    log-sum-exp takes the m terms tied at each column maximum out of the sum
    and adds the rest through log1p; tau is exp(a - log marginals)."""
    a_max = a.max(axis=0)
    at_max = a == a_max
    m = at_max.sum(axis=0)
    rest = np.where(at_max, -np.inf, a) - a_max
    s = np.exp(rest).sum(axis=0) / m
    log_marginals = np.log1p(s) + np.log(m) + a_max
    return np.exp(a - log_marginals), log_marginals


def one_call_e_step(X, params):
    """The E-step with each product of X as one BLAS call: tau, the log
    marginals, the resultants, and the largest |log joint| entry."""
    log_joint = _log_joint(params.means @ X.T, params)
    tau, log_marginals = tie_aware_e_step(log_joint)
    return tau.T, log_marginals, tau @ X, np.abs(log_joint).max()


class TestEStepRowBlocks:
    """e_step forms <mu_k, x_i> and the resultants over row blocks of X that
    hold at most 256 KiB each: 163 rows at d = 200."""

    @staticmethod
    def problem(n, d=200, K=3, seed=9):
        rng = np.random.default_rng(seed)
        params = random_params(rng, K, d)
        X = rng.standard_normal((n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        return X, params

    @pytest.mark.parametrize("n, sizes", [
        (100, [100]),
        (163, [163]),
        (326, [163, 163]),
        (1000, [163] * 6 + [22]),
        (0, [0]),
    ])
    def test_blocks_cover_rows_in_order(self, n, sizes):
        X = np.zeros((n, 200))
        blocks = _row_blocks(X)
        assert [len(range(n)[b]) for b in blocks] == sizes
        assert np.concatenate([np.arange(n)[b] for b in blocks]).tolist() == list(range(n))
        # Rows wider than the block still go one at a time.
        assert _row_blocks(np.zeros((3, 40_000))) == [slice(i, i + 1) for i in range(3)]

    @pytest.mark.parametrize("n", [100, 326, 1000])
    def test_agrees_with_one_call_products(self, n):
        X, params = self.problem(n)
        resp = e_step(X, params)
        tau, log_marginals, resultants, log_joint_max = one_call_e_step(X, params)
        for got, ref in ((resp.log_marginals, log_marginals), (resp.resultants, resultants)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        # tau is exp of log joint entries near 245 at d = 200, whose last bit
        # is 2.8e-14, so it is compared relative to them.
        assert resp.tau.shape == tau.shape
        assert np.abs(resp.tau - tau).max() <= 1e-14 * log_joint_max

    @pytest.mark.parametrize("n", [326, 1000])
    def test_blocks_add_in_order(self, n):
        X, params = self.problem(n)
        resp = e_step(X, params)
        tau = resp.tau.T
        first, *rest = _row_blocks(X)
        ref = tau[:, first] @ X[first]
        for b in rest:
            ref += tau[:, b] @ X[b]
        assert resp.resultants.tobytes() == ref.tobytes()
        inner = np.concatenate([params.means @ X[b].T for b in _row_blocks(X)], axis=1)
        assert _inner_products(params.means, X).tobytes() == inner.tobytes()

    @pytest.mark.parametrize("n", [100, 163])
    def test_one_block_is_one_call(self, n):
        X, params = self.problem(n)
        resp = e_step(X, params)
        assert resp.resultants.tobytes() == (resp.tau.T @ X).tobytes()
        for got, ref in zip((resp.tau, resp.log_marginals), one_call_e_step(X, params)[:2]):
            assert got.tobytes() == ref.tobytes()

    def test_multi_block_prev_shares_resultants(self):
        X, params = self.problem(1000)
        first = e_step(X, params)
        again = e_step(X, params, prev=first)
        assert again.resultants is first.resultants
        assert np.array_equal(again.tau, first.tau)
        assert np.array_equal(again.resultants, e_step(X, params).resultants)


class TestEStepMatchesTieAwareFormula:
    """e_step gives the bits of the tie-aware formula, whether it takes the
    one-exp branch (one nonzero term per column) or not."""

    @staticmethod
    def check(X, params, one_hot):
        resp = e_step(X, params)
        a = _log_joint(_inner_products(params.means, X), params)
        tau, log_marginals = tie_aware_e_step(a)
        assert resp.tau.tobytes() == tau.T.tobytes()
        assert resp.log_marginals.tobytes() == log_marginals.tobytes()
        assert (np.count_nonzero(tau) == X.shape[0]) == one_hot

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("kappa, one_hot", [(1e5, True), (30.0, False)])
    def test_one_hot_and_moderate(self, n, kappa, one_hot):
        # Three planted clusters at d = 200: 1000 rows are 7 row blocks.
        rng = np.random.default_rng(12)
        means = np.eye(3, 200)
        X = np.concatenate([sample(mu, 5e4, n // 3 + 1, rng) for mu in means])[:n]
        params = MixtureParams(np.array([0.3, 0.3, 0.4]), means, np.full(3, kappa))
        self.check(X, params, one_hot)

    @pytest.mark.parametrize("kappa", [1e5, 30.0])
    def test_tied_components(self, kappa):
        # Components 0 and 1 are equal, so every column ties at its maximum
        # or has both tied entries below it.
        rng = np.random.default_rng(13)
        means = np.eye(3, 200)[[0, 0, 1]]
        X = np.concatenate([sample(mu, 5e4, 400, rng) for mu in np.eye(2, 200)])
        params = MixtureParams(np.array([0.25, 0.25, 0.5]), means, np.full(3, kappa))
        self.check(X, params, one_hot=False)

    @staticmethod
    def crafted_e_step(monkeypatch, case):
        """The log joint of a crafted case and e_step's last part on it,
        through a stand-in _log_joint. Every other term of a column is at
        least 799 below its maximum, and column 0's maximum is -0.0."""
        a = np.array([[-0.0, -1e5, 3.0, -800.0],
                      [-2e5, -0.5, -1e4, -1.0],
                      [-1e3, -1e5, -2e3, -1e6]])
        if case == "zero-alpha-row":
            a[2] = -np.inf
        elif case == "one-component":
            a = a[:1]
        elif case == "close-terms":
            a[1, 2] = 2.0
        elif case == "subnormal-terms":
            a[1] = a[0] - np.array([744.0, 745.1, 745.0, 1e4])
        elif case == "tie":
            a[1, 2] = a[0, 2]
        elif case == "infinite-max":
            # inf - inf is NaN at the maximum: tau is NaN there, not 1.
            a[0, 3] = np.inf
        monkeypatch.setattr(sparsevmf.em, "_log_joint", lambda inner, params: a.copy())
        params = MixtureParams(np.ones(len(a)) / len(a), np.eye(len(a), 4), np.ones(len(a)))
        return a, e_step(np.eye(4), params)

    @pytest.mark.parametrize("case, one_hot", [
        ("negative-zero-max", True), ("zero-alpha-row", True), ("one-component", True),
        ("close-terms", False), ("subnormal-terms", False), ("tie", False),
        ("infinite-max", True),
    ])
    def test_crafted_log_joint(self, monkeypatch, case, one_hot):
        with np.errstate(invalid="ignore" if case == "infinite-max" else "raise"):
            a, resp = self.crafted_e_step(monkeypatch, case)
            tau, log_marginals = tie_aware_e_step(a)
        assert resp.tau.tobytes() == tau.T.tobytes()
        assert resp.log_marginals.tobytes() == log_marginals.tobytes()
        assert (np.count_nonzero(tau) == 4) == one_hot

    def test_underflow_never_raises(self, monkeypatch):
        # The subnormal-terms exps underflow to subnormals and to 0, as
        # intended: a caller's strict error state changes no bit.
        _, ref = self.crafted_e_step(monkeypatch, "subnormal-terms")
        with np.errstate(all="raise"):
            _, resp = self.crafted_e_step(monkeypatch, "subnormal-terms")
        for name in ("tau", "log_marginals", "resultants"):
            assert getattr(resp, name).tobytes() == getattr(ref, name).tobytes()


class TestEStepReusesResultants:
    """Given the previous E-step on the same X, e_step shares its resultants
    when tau comes back bitwise equal, and recomputes them otherwise."""

    @pytest.fixture()
    def problem(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 3, 6)
        X = rng.standard_normal((50, 6))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        return X, params

    def test_equal_tau_shares_resultants(self, problem):
        X, params = problem
        first = e_step(X, params)
        again = e_step(X, params, prev=first)
        assert again.resultants is first.resultants
        assert np.array_equal(again.tau, first.tau)
        assert np.array_equal(again.resultants, np.ascontiguousarray(again.tau.T) @ X)

    def test_other_tau_is_recomputed(self, problem):
        X, params = problem
        first = e_step(X, params)
        # Sentinel resultants show whether prev's were taken.
        sentinel = np.zeros_like(first.resultants)
        bumped = first.tau.copy()
        bumped[7, 1] = np.nextafter(bumped[7, 1], 2.0)
        shorter = e_step(X[:-1], params)
        for tau in (bumped, shorter.tau):
            prev = Responsibilities(tau=tau, log_marginals=first.log_marginals,
                                    resultants=sentinel)
            resp = e_step(X, params, prev=prev)
            assert resp.resultants is not sentinel
            assert np.array_equal(resp.resultants, first.resultants)


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
            with pytest.raises(DegenerateFitError) as err:
                soft_threshold_mu(np.zeros(3), 1.0, beta)
            assert err.value.status is FitStatus.ZERO_MEAN

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


def one_row_soft_threshold(r_k, kappa, beta):
    """The soft-threshold of one resultant, written out with np.linalg.norm."""
    abs_r = np.abs(r_k)
    shrunk = np.maximum(kappa * abs_r - beta, 0.0)
    norm = np.linalg.norm(shrunk)
    if norm == 0.0:
        j = int(np.argmax(abs_r))
        if abs_r[j] == 0.0:
            raise DegenerateFitError(FitStatus.ZERO_MEAN, "zero resultant")
        mu = np.zeros_like(abs_r)
        mu[j] = np.sign(r_k[j])
        return mu
    return np.sign(r_k) * shrunk / norm


class TestSoftThresholdRows:
    """soft_threshold_mu over K x d resultants at K kappas equals the one-row
    form on each row, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_equal_one_row_form(self, seed):
        rng = np.random.default_rng(seed)
        K, d = int(rng.integers(1, 7)), int(rng.integers(2, 300))
        r = rng.standard_normal((K, d)) * rng.uniform(0.1, 1e3)
        kappas = rng.uniform(0.5, 1e5, size=K)
        top = kappas * np.abs(r).max(axis=1)
        for beta in (0.0, 0.5 * top.min(), 0.99 * top.max(), 2.0 * top.max()):
            got = soft_threshold_mu(r, kappas, beta)
            for k in range(K):
                ref = one_row_soft_threshold(r[k], kappas[k], beta)
                assert got[k].tobytes() == ref.tobytes()
                assert soft_threshold_mu(r[k], kappas[k], beta).tobytes() == ref.tobytes()

    def test_fallback_row_among_others(self):
        # Row 1 is thresholded away entirely and keeps its largest |r_j|,
        # with +0 elsewhere; rows 0 and 2 keep their signed zeros.
        r = np.array([[3.0, -0.1, 1.0], [0.1, -0.2, 0.05], [-2.0, 0.0, -1e-3]])
        kappas = np.array([2.0, 1.0, 4.0])
        got = soft_threshold_mu(r, kappas, 1.0)
        assert got[1].tolist() == [0.0, -1.0, 0.0]
        assert got[1].tobytes() == one_row_soft_threshold(r[1], 1.0, 1.0).tobytes()
        for k in (0, 2):
            assert got[k].tobytes() == one_row_soft_threshold(r[k], kappas[k], 1.0).tobytes()

    def test_zero_row_raises(self):
        r = np.array([[1.0, 2.0], [0.0, 0.0], [0.5, 0.0]])
        for beta in (0.0, 10.0):
            with pytest.raises(DegenerateFitError) as err:
                soft_threshold_mu(r, np.ones(3), beta)
            assert err.value.status is FitStatus.ZERO_MEAN


class TestMStep:
    def _resp(self, X, params):
        return e_step(X, params)

    def test_empty_component_raises(self):
        # Component 1 holds no responsibility at all.
        X = np.eye(3, 4)
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2, 4), np.array([5.0, 5.0]))
        tau = np.array([[1.0, 0.0]] * 3)
        resp = Responsibilities(tau, np.zeros(3), tau.T @ X)
        with pytest.raises(DegenerateFitError) as err:
            m_step(resp, params, FitOptions())
        assert err.value.status is FitStatus.EMPTY_COMPONENT

    @pytest.mark.parametrize("kappa_mode", ["free", "shared"])
    def test_resultant_against_mean_raises(self, kappa_mode):
        # <mu_1, r_1> < 0 gives rho_1 < 0, and so does the pooled
        # sum_k <mu_k, r_k> < 0: the component drifts to uniform.
        means = np.eye(2, 3)
        r = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0]])
        with pytest.raises(DegenerateFitError) as err:
            _kappas_from_resultants(means, r, np.array([2.0, 2.0]), 4, kappa_mode)
        assert err.value.status is FitStatus.DEGENERATE_UNIFORM

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
        opts = FitOptions(beta=beta)
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

    def test_converged_fit_is_stationary(self):
        # One m_step is one ECM cycle; the joint stationarity equations hold at
        # EM's fixed point.
        rng = np.random.default_rng(10)
        cfg = SimulationConfig(K=2, d=5, N=20, base_kappa=8.0, seed=21)
        X, _ = simulate_mixture(cfg)
        dense = fit_em(X, 2, FitOptions(beta=0.0), rng=rng).params
        beta = 0.5
        fit = fit_em(X, 2, FitOptions(beta=beta, em_tol=1e-13, max_em_iters=5000), init=dense)
        assert fit.status is FitStatus.CONVERGED
        r = fit.resp.resultants
        sums = fit.resp.tau.sum(axis=0)
        for k in range(2):
            shrunk = np.maximum(fit.params.kappas[k] * np.abs(r[k]) - beta, 0.0)
            mu_expected = np.sign(r[k]) * shrunk / np.linalg.norm(shrunk)
            assert np.max(np.abs(fit.params.means[k] - mu_expected)) < 1e-6
            rho = float(fit.params.means[k] @ r[k]) / sums[k]
            assert special.bessel_ratio(X.shape[1], fit.params.kappas[k]) == pytest.approx(
                rho, rel=1e-6)

    @pytest.mark.parametrize("kappa_mode", ["free", "shared"])
    def test_one_cycle_means_then_kappas(self, kappa_mode):
        # The means are soft-thresholded at the previous kappas, and the kappas
        # solved at those means, once.
        rng = np.random.default_rng(15)
        cfg = SimulationConfig(K=3, d=6, N=100, base_kappa=9.0, seed=24)
        X, _ = simulate_mixture(cfg)
        params = random_params(rng, 3, 6, kappa_mode=kappa_mode)
        resp = e_step(X, params)
        r = resp.resultants
        out = m_step(resp, params, FitOptions(beta=0.7, kappa_mode=kappa_mode))
        for k in range(3):
            assert np.array_equal(out.means[k], soft_threshold_mu(r[k], params.kappas[k], 0.7))
        expected = _kappas_from_resultants(out.means, r, resp.tau.sum(axis=0), X.shape[0],
                                           kappa_mode)
        assert np.array_equal(out.kappas, expected)

    @pytest.mark.parametrize("kappa_mode", ["free", "shared"])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_block_update_ascends_q(self, seed, beta, kappa_mode):
        # Q_k = w_k log c_d(kappa_k) + kappa_k <mu_k, r_k> - beta ||mu_k||_1 per
        # component; the shared kappa maximises the sum over k, not each term.
        rng = np.random.default_rng(seed)
        cfg = SimulationConfig(K=3, d=8, N=200, base_kappa=10.0, seed=40 + seed)
        X, _ = simulate_mixture(cfg)
        params = random_params(rng, 3, 8, kappa_mode=kappa_mode)
        resp = e_step(X, params)
        r, w = resp.resultants, resp.tau.sum(axis=0)

        def q(means, kappas):
            per_k = np.array([
                w[k] * special.log_vmf_normalizer(8, kappas[k]) + kappas[k] * (means[k] @ r[k])
                - beta * np.abs(means[k]).sum() for k in range(3)])
            return per_k if kappa_mode == "free" else per_k.sum()

        out = m_step(resp, params, FitOptions(beta=beta, kappa_mode=kappa_mode))
        before = q(params.means, params.kappas)
        means_only = q(out.means, params.kappas)
        after = q(out.means, out.kappas)
        slack = 1e-12 * np.maximum(np.abs(before), 1.0)
        assert np.all(means_only >= before - slack)
        assert np.all(after >= means_only - slack)

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
            FitStatus.COLLAPSED,
        }

    def test_singleton_component_collapses(self):
        # This start sends one component onto a single observation, where
        # the likelihood is unbounded and kappa runs to the cap.
        X, _ = simulate_mixture(SimulationConfig(K=3, d=200, N=2000, base_kappa=500, seed=0))
        fit = fit_em(X, 3, FitOptions(), rng=10)
        assert fit.status is FitStatus.COLLAPSED
        assert fit.params.kappas.max() == KAPPA_CAP
        assert np.bincount(hard_assign(fit.resp), minlength=3).min() == 1

    @pytest.mark.parametrize("kappa_mode", ["free", "shared"])
    @pytest.mark.parametrize("sizes, status", [((1, 2), FitStatus.COLLAPSED),
                                               ((2, 2), FitStatus.CONVERGED)],
                             ids=["one-point", "two-points"])
    def test_component_at_cap_collapses_on_one_point(self, kappa_mode, sizes, status):
        # Each component holds copies of one point, so every rho, and the
        # pooled one, is 1 and EM stays at the cap. Only a component on a
        # single observation is collapsed.
        X = np.repeat(np.eye(2, 3), sizes, axis=0)
        init = MixtureParams(np.array(sizes) / sum(sizes), np.eye(2, 3),
                             np.full(2, KAPPA_CAP), kappa_mode=kappa_mode)
        fit = fit_em(X, 2, FitOptions(kappa_mode=kappa_mode), init=init)
        assert fit.status is status
        assert np.all(fit.params.kappas == KAPPA_CAP)

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
        fit = fit_em(X, 3, FitOptions(beta=0.0, em_tol=1e-9), init=init)
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
        kappa_star = invert_bessel_ratio(4, rbar)
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
        assert len(calls) == fit.n_iters == len(fit.trace) - 1 > 0
        for args, kwargs in calls:
            assert args == ()
            assert kwargs["resp"].tau.shape == (80, 2)

    def test_over_penalized_keeps_largest_coordinate(self):
        cfg = SimulationConfig(K=2, d=5, N=80, base_kappa=8.0, seed=34)
        X, _ = simulate_mixture(cfg)
        dense = fit_em(X, 2, FitOptions(beta=0.0), rng=35)
        fit = fit_em(X, 2, FitOptions(beta=1e9), init=dense.params)
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
        fit = fit_em(X, 2, opts, init=dense.params)
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
        before = {name: getattr(p, name).copy() for name in ("alpha", "means", "kappas")}
        plain = fit_em(X, 2, opts, init=p)
        warm = fit_em(X, 2, opts, init=p, resp=e_step(X, p))
        for name, value in before.items():
            assert np.array_equal(getattr(p, name), value)
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

    @pytest.mark.parametrize("with_resp", [False, True])
    def test_init_with_another_k_raises(self, problem, with_resp):
        X, dense = problem
        resp = dense.resp if with_resp else None
        with pytest.raises(ValueError, match="K = 3, but init holds 2 components"):
            fit_em(X, 3, FitOptions(), init=dense.params, resp=resp)

    @pytest.mark.parametrize("init_mode, opts_mode", [("shared", "free"), ("free", "shared")])
    def test_init_of_another_kappa_mode_raises(self, init_mode, opts_mode):
        # m_step reads the mode from opts, so such a start would return a fit
        # of the other mode.
        X, _ = simulate_mixture(SimulationConfig(K=3, d=20, N=400, base_kappa=15.0,
                                                 sparsity=0.5, seed=3))
        start = fit_em(X, 3, FitOptions(kappa_mode=init_mode), rng=1)
        with pytest.raises(ValueError, match=f"^kappa_mode = '{opts_mode}', but init is in "
                                             f"'{init_mode}' mode$"):
            fit_em(X, 3, FitOptions(kappa_mode=opts_mode), init=start.params, resp=start.resp)


class TestFitEmExits:
    """Every way fit_em stops, pinned by status, n_iters, the trace, and the
    likelihoods of the params it returns."""

    @pytest.fixture(scope="class")
    def problem(self):
        X, _ = simulate_mixture(SimulationConfig(K=3, d=8, N=200, base_kappa=6.0, seed=37))
        return X, init_random(X, 3, np.random.default_rng(38))

    @staticmethod
    def fit_recording(monkeypatch, X, init, opts, fail_at=None, status=None):
        """fit_em from init, recording what each M step returned; with
        fail_at, the M step raises DegenerateFitError(status) at that call
        (1-based)."""
        returned = []

        def recording(**kwargs):
            if len(returned) + 1 == fail_at:
                returned.append(None)
                raise DegenerateFitError(status, f"raised at call {fail_at}")
            returned.append(m_step(**kwargs))
            return returned[-1]

        monkeypatch.setattr(sparsevmf.em, "m_step", recording)
        return fit_em(X, 3, opts, init=init), returned

    @staticmethod
    def assert_evaluated_at_params(X, fit, beta):
        ll = e_step(X, fit.params).log_likelihood
        assert fit.log_likelihood == ll
        assert fit.trace[-1] == fit.penalized_log_likelihood == _penalized(ll, fit.params, beta)

    def test_converged(self, problem, monkeypatch):
        X, init = problem
        opts = FitOptions(beta=0.2)
        fit, returned = self.fit_recording(monkeypatch, X, init, opts)
        assert fit.status is FitStatus.CONVERGED
        assert fit.n_iters == len(fit.trace) - 1 == len(returned) > 2
        assert fit.params is returned[-1]
        t = fit.trace
        assert abs(t[-1] - t[-2]) <= opts.em_tol * (abs(t[-2]) + 1e-12)
        assert all(abs(b - a) > opts.em_tol * (abs(a) + 1e-12) for a, b in zip(t[:-2], t[1:-1]))
        self.assert_evaluated_at_params(X, fit, 0.2)

    @pytest.mark.parametrize("max_em_iters", [0, 1, 3])
    def test_max_iters(self, problem, monkeypatch, max_em_iters):
        X, init = problem
        opts = FitOptions(beta=0.2, max_em_iters=max_em_iters, em_tol=1e-14)
        fit, returned = self.fit_recording(monkeypatch, X, init, opts)
        assert fit.status is FitStatus.MAX_ITERS
        assert fit.n_iters == len(returned) == max_em_iters
        assert len(fit.trace) == max_em_iters + 1
        assert fit.params is (returned[-1] if returned else init)
        self.assert_evaluated_at_params(X, fit, 0.2)

    def test_cap_at_the_converged_count(self):
        # The tolerance is tested before the cap, so a fit capped at the M
        # steps it converged in stops the same way.
        X, _ = simulate_mixture(SimulationConfig(K=3, d=20, N=500, overlap_target=0.025,
                                                 sparsity=0.25, seed=0))
        free = fit_em(X, 3, FitOptions(), rng=1)
        capped = fit_em(X, 3, FitOptions(max_em_iters=len(free.trace) - 1), rng=1)
        assert free.status is capped.status is FitStatus.CONVERGED
        assert capped.n_iters == free.n_iters == len(free.trace) - 1 > 1
        assert capped.trace == free.trace
        for name in ("alpha", "means", "kappas"):
            assert np.array_equal(getattr(capped.params, name), getattr(free.params, name))

    @pytest.mark.parametrize("status", [s for s in FitStatus if s.failed])
    @pytest.mark.parametrize("fail_at", [1, 3])
    def test_failed_m_step(self, problem, monkeypatch, status, fail_at):
        X, init = problem
        fit, returned = self.fit_recording(monkeypatch, X, init, FitOptions(beta=0.2),
                                           fail_at=fail_at, status=status)
        assert fit.status is status
        assert fit.n_iters == len(fit.trace) - 1 == len(returned) - 1 == fail_at - 1
        # The last valid params: those of the M step before the failed one.
        assert fit.params is (returned[-2] if fail_at > 1 else init)
        self.assert_evaluated_at_params(X, fit, 0.2)


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

    @pytest.mark.parametrize("means", [np.array([0.6, 0.8]), np.eye(3, 2)])
    def test_mixture_params_means_not_k_by_d(self, means):
        with pytest.raises(ValueError, match="K x d"):
            MixtureParams(np.array([0.5, 0.5]), means, np.array([1.0]))

    @pytest.mark.parametrize("mode", ["free", "shared"])
    def test_mixture_params_one_kappa_for_two_components(self, mode):
        # Only the model reader broadcasts a shared-mode file's one kappa.
        with pytest.raises(ValueError, match="^kappas must hold K values$"):
            MixtureParams(np.array([0.5, 0.5]), np.eye(2), np.array([7.0]), kappa_mode=mode)

    @pytest.mark.parametrize("d", [1, 100_001])
    def test_mixture_params_d_outside_domain(self, d):
        with pytest.raises(ValueError, match=f"^MixtureParams requires 2 <= d <= 100000, got {d}$"):
            MixtureParams(np.array([1.0]), np.eye(1, d), np.array([2.0]))

    @pytest.mark.parametrize("name", ["beta", "em_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_fit_options(self, name, value):
        with pytest.raises(ValueError, match=name):
            FitOptions(**{name: value})

    def test_negative_max_em_iters(self):
        with pytest.raises(ValueError, match="max_em_iters"):
            FitOptions(max_em_iters=-1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5])
    def test_non_integer_max_em_iters(self, value):
        # a count: len(trace) > max_em_iters is the MaxIters test
        with pytest.raises(ValueError,
                           match=f"^max_em_iters must be an integer >= 0, got {value!r}$"):
            FitOptions(max_em_iters=value)
        assert FitOptions(max_em_iters=np.int64(3)).max_em_iters == 3

    def test_unknown_kappa_mode(self):
        # Rejected when the options are built, not at the first MixtureParams
        # a fit makes.
        with pytest.raises(ValueError, match="^unknown kappa_mode 'Shared'$"):
            FitOptions(kappa_mode="Shared")


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
        # Twenty points per component: tight, not collapsed.
        assert fit.status is FitStatus.CONVERGED
        assert seen and max(seen) <= KAPPA_CAP


def resp_of(tau):
    """A Responsibilities holding tau (N x K); hard_assign reads tau alone."""
    n, k = tau.shape
    return Responsibilities(tau=tau, log_marginals=np.zeros(n), resultants=np.zeros((k, 1)))


class TestHardAssign:
    def test_argmax(self):
        assert hard_assign(resp_of(np.array([[0.2, 0.7, 0.1]])))[0] == 1

    def test_tie_lowest_index(self):
        assert hard_assign(resp_of(np.array([[0.5, 0.5]])))[0] == 0

    def test_single_component(self):
        assert np.all(hard_assign(resp_of(np.ones((4, 1)))) == 0)


class TestPersistence:
    def test_bit_for_bit_round_trip(self, tmp_path):
        cfg = SimulationConfig(K=3, d=7, N=120, base_kappa=9.0, sparsity=0.2, seed=40)
        X, _ = simulate_mixture(cfg)
        fit = fit_em(X, 3, FitOptions(beta=0.0), rng=41)
        p = tmp_path / "model.json"
        p.write_text(json.dumps(fit_result_to_dict(fit), indent=1))
        loaded = load_model(p)
        assert np.array_equal(loaded.params.alpha, fit.params.alpha)
        assert np.array_equal(loaded.params.means, fit.params.means)
        assert np.array_equal(loaded.params.kappas, fit.params.kappas)
        assert loaded.log_likelihood == fit.log_likelihood
        assert loaded.status == fit.status

    def test_model_file_with_seed_key_loads(self, tmp_path):
        # Older model files hold a top-level "seed" next to run.seed; they
        # still load, and a new file has no such key.
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2, 4), np.array([7.0, 9.0]))
        from sparsevmf.em import FitResult

        doc = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
        assert "seed" not in doc
        p = tmp_path / "old.json"
        p.write_text(json.dumps({**doc, "seed": 41}))
        loaded = load_model(p)
        assert np.array_equal(loaded.params.kappas, params.kappas)
        assert np.array_equal(loaded.params.means, params.means)

    def test_d_outside_domain_raises_parse_error(self, tmp_path):
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2), np.array([7.0, 9.0]))
        from sparsevmf.em import FitResult

        doc = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
        bad = tmp_path / "bad.json"
        # Two unit means at d = 1.
        bad.write_text(json.dumps({**doc, "d": 1, "means": [[[0, 1.0]], [[0, -1.0]]]}))
        with pytest.raises(ParseError, match="^not a model file: means_from_sparse requires "
                                             "2 <= d <= 100000, got 1$"):
            load_model(bad)

    @pytest.mark.parametrize("change", [
        # K says 5, while alpha, kappa and means hold 2 components.
        {"K": 5},
        # NumPy would wrap -1 to the last coordinate.
        {"means": [[[0, 1.0]], [[-1, 1.0]]]},
        # The second pair would overwrite the first.
        {"means": [[[0, 1.0], [0, 1.0]], [[1, 1.0]]]},
    ], ids=["K-disagrees", "negative-index", "repeated-index"])
    def test_malformed_means_or_K_raise_parse_error(self, tmp_path, change):
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2), np.array([7.0, 9.0]))
        from sparsevmf.em import FitResult

        doc = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        assert load_model(good).params.K == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, **change}))
        with pytest.raises(ParseError, match="not a model file"):
            load_model(bad)

    @pytest.mark.parametrize("change", [
        {"beta": "abc"}, {"beta": -1.0}, {"beta": None}, {"beta": True}, {"beta": float("inf")},
        {"n_iters": "x"}, {"n_iters": -1}, {"n_iters": 2.0}, {"n_iters": False},
        {"log_likelihood": None}, {"log_likelihood": float("nan")},
        {"penalized_log_likelihood": "nan"}, {"penalized_log_likelihood": float("-inf")},
    ], ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()))
    def test_malformed_scalar_raises_parse_error(self, tmp_path, change):
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2), np.array([7.0, 9.0]))
        from sparsevmf.em import FitResult

        doc = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0, n_iters=3))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, **change}))
        key = next(iter(change))
        with pytest.raises(ParseError, match=f"not a model file: {key} must be"):
            load_model(bad)

    @pytest.mark.parametrize("change, message", [
        ({"means": [[[0, 1.0]], [[0, 0.6], [1, "0.8"]]]},
         "means[1][1][1] must be a finite number, got '0.8'"),
        ({"means": [[[0, 1.0]], [[True, 1.0]]]}, "means[1][0][0] must be an integer, got True"),
        ({"means": [[[0, 1.0]], [[1]]]}, "means[1][0] must be an [index, value] pair, got [1]"),
        ({"kappa": 7.0}, "kappa must be a list, got 7.0"),
        ({"kappa_mode": "shared", "kappa": [7.0, 7.0]},
         "kappa must be a finite number, got [7.0, 7.0]"),
        ({"d": 10**12}, "means_from_sparse requires 2 <= d <= 100000, got 1000000000000"),
        ({"status": "Done"}, "status must be one of ['Collapsed', 'Converged', "
                             "'DegenerateUniform', 'EmptyComponent', 'MaxIters', 'ZeroMean'], "
                             "got 'Done'"),
    ], ids=["value-string", "index-bool", "short-pair", "free-scalar-kappa",
            "shared-list-kappa", "huge-d", "unknown-status"])
    def test_wrong_type_names_its_path(self, tmp_path, change, message):
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2), np.array([7.0, 9.0]))
        from sparsevmf.em import FitResult

        doc = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, **change}))
        with pytest.raises(ParseError) as err:
            load_model(bad)
        assert str(err.value) == f"not a model file: {message}"

    def test_integer_scalars_load(self, tmp_path):
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2), np.array([7.0, 9.0]))
        from sparsevmf.em import FitResult

        doc = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
        p = tmp_path / "ints.json"
        p.write_text(json.dumps({**doc, "beta": 2, "log_likelihood": -3,
                                 "penalized_log_likelihood": -7, "n_iters": 0}))
        loaded = load_model(p)
        assert (loaded.beta, loaded.log_likelihood, loaded.n_iters) == (2, -3, 0)

    def test_shared_kappa_scalar_in_json(self):
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2, 4),
                               np.array([7.0, 7.0]), kappa_mode="shared")
        from sparsevmf.em import FitResult

        doc = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
        assert doc["kappa"] == 7.0
        back = fit_result_from_dict(doc)
        assert np.array_equal(back.params.kappas, params.kappas)

    def test_shared_kappa_scalar_with_another_k(self):
        # The model reader broadcasts the scalar to the arrays' K; the file's
        # K is then checked against it.
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2, 4),
                               np.array([7.0, 7.0]), kappa_mode="shared")
        from sparsevmf.em import FitResult

        doc = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
        with pytest.raises(ValueError, match=r"^K = 3, but the arrays hold 2 components$"):
            fit_result_from_dict({**doc, "K": 3})
