"""Metamorphic tests: a fit from a fixed start is equivariant under relabelling
the rows, the columns (with sign flips) and the components of the problem.

They guard the index bookkeeping of sparse means and the masks of next_beta.
Rows and columns change the order of floating-point sums, so those fits agree
to rounding; relabelling components only reorders independent per-component
work, so those fits agree bitwise."""

import numpy as np
import pytest

from sparsevmf.dataset import SimulationConfig, simulate_mixture
from sparsevmf.em import FitOptions, MixtureParams, fit_em, init_random
from sparsevmf.path import PathOptions, follow_path

# A few times the rounding differences seen on this problem (4.4e-16 in
# means, 2.0e-15 relative in kappas, 7.2e-14 relative in betas), so that
# another BLAS summation order still passes; an index or sign error in the
# bookkeeping moves a fit by orders of magnitude more.
MEANS_ATOL = 1e-15
KAPPAS_RTOL = 1e-14
BETAS_RTOL = 2e-13


@pytest.fixture(scope="module")
def problem():
    X, _ = simulate_mixture(SimulationConfig(K=3, d=20, N=400, base_kappa=15.0,
                                             sparsity=0.5, seed=3))
    init = init_random(X, 3, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    rows = rng.permutation(X.shape[0])
    cols = rng.permutation(X.shape[1])
    signs = rng.choice([-1.0, 1.0], X.shape[1])
    return X, init, rows, cols, signs


def move_columns(params, cols, signs):
    return MixtureParams(params.alpha, params.means[:, cols] * signs, params.kappas)


def assert_close(fit, means, kappas):
    assert np.max(np.abs(fit.params.means - means)) <= MEANS_ATOL
    assert np.max(np.abs(fit.params.kappas / kappas - 1.0)) <= KAPPAS_RTOL


@pytest.mark.parametrize("beta", [0.0, 3.0])
def test_rows_permuted(problem, beta):
    X, init, rows, _, _ = problem
    ref = fit_em(X, 3, FitOptions(beta=beta), init=init)
    fit = fit_em(X[rows], 3, FitOptions(beta=beta), init=init)
    assert_close(fit, ref.params.means, ref.params.kappas)


@pytest.mark.parametrize("beta", [0.0, 3.0])
def test_columns_permuted_and_signs_flipped(problem, beta):
    X, init, _, cols, signs = problem
    ref = fit_em(X, 3, FitOptions(beta=beta), init=init)
    fit = fit_em(X[:, cols] * signs, 3, FitOptions(beta=beta),
                 init=move_columns(init, cols, signs))
    expected = ref.params.means[:, cols] * signs
    assert_close(fit, expected, ref.params.kappas)
    assert np.array_equal(fit.params.means == 0, expected == 0)
    if beta > 0:
        assert np.any(expected == 0)


@pytest.mark.parametrize("beta", [0.0, 3.0])
def test_components_relabelled(problem, beta):
    X, init, _, _, _ = problem
    comps = np.array([2, 0, 1])
    ref = fit_em(X, 3, FitOptions(beta=beta), init=init)
    fit = fit_em(X, 3, FitOptions(beta=beta),
                 init=MixtureParams(init.alpha[comps], init.means[comps], init.kappas[comps]))
    for name in ("alpha", "means", "kappas"):
        assert np.array_equal(getattr(fit.params, name), getattr(ref.params, name)[comps])
    assert fit.trace == ref.trace


def test_path_columns_permuted_and_signs_flipped(problem):
    X, init, _, cols, signs = problem
    opts = PathOptions(max_steps=30)
    ref = follow_path(X, 3, opts, fit_em(X, 3, FitOptions(), init=init))
    Y = X[:, cols] * signs
    path = follow_path(Y, 3, opts, fit_em(Y, 3, FitOptions(), init=move_columns(init, cols, signs)))
    assert len(path.steps) == len(ref.steps) == 30
    for step, ref_step in zip(path.steps[1:], ref.steps[1:]):
        assert abs(step.fit.beta / ref_step.fit.beta - 1.0) <= BETAS_RTOL
        expected_zeros = ref_step.fit.params.means[:, cols] == 0
        assert np.array_equal(step.fit.params.means == 0, expected_zeros)
    assert np.count_nonzero(path.steps[-1].fit.params.means) < np.count_nonzero(
        path.steps[0].fit.params.means)
