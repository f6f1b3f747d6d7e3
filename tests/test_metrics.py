import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from sparsevmf.dataset import estimate_overlap
from sparsevmf.em import MixtureParams
from sparsevmf.metrics import (
    _min_cost_assignment,
    adjusted_rand_index,
    match_components,
    sparsity,
    support_precision_recall,
)

from oracles import pair_counting_ari


def mk_params(means, kappa=10.0):
    means = np.asarray(means, dtype=float)
    means = means / np.linalg.norm(means, axis=1, keepdims=True)
    K = means.shape[0]
    return MixtureParams(np.full(K, 1.0 / K), means, np.full(K, kappa))


class TestAdjustedRandIndex:
    def test_identical(self):
        assert adjusted_rand_index([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_relabelled_is_one(self):
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0

    def test_all_one_cluster_vs_split(self):
        # one side constant: max_index == expected -> degenerate, defined as 1
        # only when both are constant; here index should be 0
        got = adjusted_rand_index([0, 0, 0, 0], [0, 0, 1, 1])
        assert got == pytest.approx(0.0)

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=5_000)
        b = rng.integers(0, 4, size=5_000)
        assert abs(adjusted_rand_index(a, b)) < 0.01

    def test_against_pair_counting_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            assert adjusted_rand_index(a, b) == pytest.approx(
                pair_counting_ari(a, b), abs=1e-12
            )

    def test_against_pair_counting_exhaustive(self):
        # every labelling pair of 5 items into up to 2 groups
        for a in itertools.product([0, 1], repeat=5):
            for b in itertools.product([0, 1], repeat=5):
                assert adjusted_rand_index(list(a), list(b)) == pytest.approx(
                    pair_counting_ari(list(a), list(b)), abs=1e-12
                )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            adjusted_rand_index([], [])


class TestSparsity:
    def test_dense_zero(self):
        assert sparsity(mk_params(np.eye(2, 2) + 0.1)) == 0.0

    def test_counts_exact_zeros(self):
        p = mk_params([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        assert sparsity(p) == pytest.approx(3 / 6)


class TestMatchComponents:
    def test_permuted_identity(self):
        truth = mk_params(np.eye(3, 5))
        est = mk_params(np.eye(3, 5)[[2, 0, 1]])
        perm = match_components(est, truth)
        assert perm.tolist() == [2, 0, 1]

    def test_k_mismatch(self):
        with pytest.raises(ValueError):
            match_components(mk_params(np.eye(2, 4)), mk_params(np.eye(3, 4)))

    def test_matches_scipy_assignment(self):
        # SciPy's solver is the oracle: the same permutation, ties included
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(8)

        def gain_matrices(K):
            yield rng.standard_normal((K, K))
            est = rng.standard_normal((K, 7))
            true = rng.standard_normal((K, 7))
            yield (est / np.linalg.norm(est, axis=1, keepdims=True)) @ (
                true / np.linalg.norm(true, axis=1, keepdims=True)).T
            yield rng.integers(-2, 3, size=(K, K)).astype(float)
            yield np.full((K, K), float(rng.integers(-2, 3)))
            dup = rng.standard_normal((K, K))
            dup[rng.integers(0, K, size=K)] = dup[rng.integers(0, K)]
            yield dup

        checked = 0
        for K in [*range(1, 13), 20, 50]:
            for _ in range(40 if K == 50 else 200):
                for gains in gain_matrices(K):
                    _, cols = linear_sum_assignment(-gains)
                    assert np.array_equal(_min_cost_assignment(-gains), cols)
                    checked += 1
        assert checked == 13 * 200 * 5 + 40 * 5

        est = mk_params(rng.standard_normal((6, 9)))
        truth = mk_params(rng.standard_normal((6, 9)))
        _, cols = linear_sum_assignment(est.means @ truth.means.T, maximize=True)
        assert match_components(est, truth).tolist() == cols.tolist()


class TestSupportPrecisionRecall:
    def test_perfect(self):
        truth = mk_params([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        prec, rec, meta = support_precision_recall(truth, truth)
        assert prec == 1.0 and rec == 1.0
        assert meta["empty_prediction"] is False

    def test_alignment_applied(self):
        truth = mk_params([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        est = mk_params([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])  # swapped order
        prec, rec, meta = support_precision_recall(est, truth)
        assert prec == 1.0 and rec == 1.0
        assert sorted(meta["matching"]) == [0, 1]

    def test_partial_overlap(self):
        truth = mk_params([[0.0, 0.0, 0.6, 0.8]])
        est = mk_params([[0.0, 0.5, 0.5, np.sqrt(0.5)]])
        prec, rec, _ = support_precision_recall(est, truth)
        # est zeros {0}; truth zeros {0,1}: precision 1/1, recall 1/2
        assert prec == 1.0
        assert rec == pytest.approx(0.5)

    def test_empty_prediction_convention(self):
        truth = mk_params([[0.0, 0.6, 0.8]])
        est = mk_params([[0.3, 0.4, 0.5]])
        prec, rec, meta = support_precision_recall(est, truth)
        assert meta["empty_prediction"] is True
        assert prec == 1.0
        assert rec == 0.0

    def test_dense_truth_recall_one(self):
        truth = mk_params([[0.6, 0.8, 0.1]])
        est = mk_params([[1.0, 0.0, 0.0]])
        prec, rec, _ = support_precision_recall(est, truth)
        assert rec == 1.0
        assert prec == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            support_precision_recall(mk_params(np.eye(2, 4)), mk_params(np.eye(2, 5)))


class TestEstimateOverlap:
    def test_well_separated_near_zero(self):
        rng = np.random.default_rng(2)
        p = mk_params(np.eye(3, 10), kappa=200.0)
        assert estimate_overlap(p, 20_000, rng) < 0.001

    def test_identical_components_near_chance(self):
        rng = np.random.default_rng(3)
        m = np.tile(np.eye(1, 6), (2, 1))
        p = MixtureParams(np.array([0.5, 0.5]), m, np.array([5.0, 5.0]))
        err = estimate_overlap(p, 20_000, rng)
        assert abs(err - 0.5) < 0.02

    def test_invalid_n(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            estimate_overlap(mk_params(np.eye(2, 4)), 0, rng)


def test_import_leaves_scipy_optimize_unloaded():
    import sparsevmf

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sparsevmf.__file__)))
    code = "import sys, sparsevmf; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_metrics_and_cli_leave_scipy_optimize_unloaded(tmp_path):
    import sparsevmf

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sparsevmf.__file__)))
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import sparsevmf
        from sparsevmf import cli
        from sparsevmf.em import MixtureParams
        from sparsevmf.metrics import support_precision_recall

        loaded = []

        def check(what):
            if "scipy.optimize" in sys.modules and not loaded:
                loaded.append(what)

        check("import sparsevmf")
        p = MixtureParams(np.full(3, 1 / 3), np.eye(3, 5), np.full(3, 10.0))
        support_precision_recall(p, p)
        check("support_precision_recall")
        data = ["--input", "data.csv"]
        for argv in (
            ["simulate", "--d", "6", "--k", "2", "--n", "60", "--overlap", "0.05",
             "--sparsity", "0.25", "--out", "data.csv", "--truth-out", "truth.json"],
            ["fit", *data, "--k", "2", "--restarts", "2", "--out", "model.json"],
            ["path", *data, "--k", "2", "--restarts", "2", "--max-steps", "3",
             "--out", "path.json"],
            ["select", *data, "--k-min", "2", "--k-max", "2", "--restarts", "2",
             "--max-steps", "3", "--out", "select.json"],
            ["skmeans", *data, "--k", "2", "--out", "skmeans.json"],
            ["viz", "--model", "model.json", "--out", "means.ppm"],
            ["metrics", "--truth", "truth.json", "--model", "model.json",
             "--out", "metrics.json"],
            ["metrics", "--truth", "truth.json", "--model", "model.json", *data,
             "--out", "metrics_data.json"],
        ):
            assert cli.main(argv) == 0, argv
            check(" ".join(argv[:2]))
        print(loaded)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
