import hashlib
import json

import numpy as np
import pytest
from oracles import scan_dense_csv

import sparsevmf.vmf
from sparsevmf.dataset import (
    SimulationConfig,
    _build_truth_params,
    _reduced_overlap,
    calibrate_overlap,
    estimate_overlap,
    greedy_max_separation,
    load_matrix,
    sample_mixture,
    save_matrix,
    simulate_mixture,
    sparsify_means,
    ground_truth_to_dict,
    load_ground_truth,
)
from sparsevmf.em import MixtureParams
from sparsevmf.errors import (
    CannotSparsifyError,
    NotBracketedError,
    ParseError,
    ZeroRowError,
)


class TestLoadMatrix:
    def test_dense_csv_normalized(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0,1\n1,1\n")
        X = load_matrix(p, format="dense-csv", normalize=True)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(X, [[1, 0], [0, 1], [s, s]])
        assert X.shape == (3, 2)

    def test_header_detected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,0\n0,1\n")
        X = load_matrix(p, normalize=False)
        assert X.shape[0] == 2

    def test_sparse_triplet(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("0 0 2.0\n1 1 3.0\n")
        X = load_matrix(p, format="sparse-triplet", normalize=True)
        assert np.allclose(X, np.eye(2))

    def test_triplet_shape_comment(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("#shape 3 4\n0 0 1.0\n1 3 1.0\n2 2 5.0\n")
        X = load_matrix(p, format="sparse-triplet", normalize=False)
        assert X.shape == (3, 4)

    def test_zero_row_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0,0\n0,1\n")
        with pytest.raises(ZeroRowError) as err:
            load_matrix(p, normalize=True)
        assert err.value.rows == [1]

    def test_parse_error_has_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n1,x\n")
        with pytest.raises(ParseError) as err:
            load_matrix(p)
        assert err.value.line == 2

    def test_column_count_error_has_file_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b,c\n1,0,0\n0,1\n")
        with pytest.raises(ParseError) as err:
            load_matrix(p)
        assert err.value.line == 3

    @pytest.mark.parametrize("bad", ["-1 1 1.0", "3 0 1.0", "0 4 1.0"])
    def test_triplet_index_outside_shape(self, tmp_path, bad):
        p = tmp_path / "m.txt"
        p.write_text(f"#shape 3 4\n0 0 1.0\n{bad}\n")
        with pytest.raises(ParseError) as err:
            load_matrix(p, format="sparse-triplet")
        assert err.value.line == 3

    def test_malformed_shape_comment(self, tmp_path):
        p = tmp_path / "m.txt"
        for comment in ("#shape 3", "#shape -2 3", "#shape 3 -1"):
            p.write_text(f"{comment}\n0 0 1.0\n")
            with pytest.raises(ParseError) as err:
                load_matrix(p, format="sparse-triplet")
            assert err.value.line == 1
            assert "malformed shape comment" in str(err.value)

    @pytest.mark.parametrize("fmt", ["dense-csv", "sparse-triplet"])
    def test_non_utf8_line_rejected(self, tmp_path, fmt):
        p = tmp_path / "m.txt"
        lines = {"dense-csv": b"1,2\n3,\xff4\n", "sparse-triplet": b"0 0 1.0\n1 1 \xff4\n"}
        p.write_bytes(lines[fmt])
        with pytest.raises(ParseError) as err:
            load_matrix(p, format=fmt)
        assert err.value.line == 2
        assert "not UTF-8" in str(err.value)

    @pytest.mark.parametrize("fmt,text,line", [
        ("dense-csv", "1,0\n0,1\nnan,1\n", 3),
        ("dense-csv", "a,b\n1,inf\n", 2),
        ("sparse-triplet", "0 0 1.0\n1 1 nan\n", 2),
        ("sparse-triplet", "0 0 -inf\n1 1 1.0\n", 1),
    ])
    def test_non_finite_rejected(self, tmp_path, fmt, text, line):
        p = tmp_path / "m.txt"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            load_matrix(p, format=fmt)
        assert err.value.line == line

    @pytest.mark.parametrize("text", [
        "1,2\n\n3,4\n\n",            # blank lines
        "1,2\n \t \n3,4\n",          # a line of only whitespace
        "1,2\r\n3,4\r\n",            # CRLF line endings
        "1,2\r3,4\r",                # CR line endings
        " 1 , 2 \n3 ,\t4\n",          # spaces around fields
        "a,b\n1,2\n3,4\n",            # header
        "a,b\n",                      # only a header
        "",                            # empty file
        "\na,b\n1,2\n",               # blank line 1, header on line 2
        "1,2,\n3,4,\n",                # trailing comma on every line
        "1,2\n3,4,\n",                 # trailing comma after the first row
        "1,2\n3\n4,5\n",              # ragged row
        "1,2\nnan,4\n",
        "1,2\n3,inf\n",
        "1,2\n-Infinity,4\n",
        "1,2\n1e400,4\n",
        "1_0,2\n3,4\n",
        "\u0661,2\n3,4\n",             # a non-ASCII digit
        "1,2\n#3,4\n",                 # a line starting with '#'
        "#x,y\n1,2\n",
        "5\n\n-6e-3\n",                # one column
        b"1,2\n3,\xff4\n",              # not UTF-8
    ])
    def test_dense_csv_agrees_with_line_scan(self, tmp_path, text):
        p = tmp_path / "m.csv"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        try:
            expected = scan_dense_csv(p)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                load_matrix(p, normalize=False)
            assert (str(got.value), got.value.line) == (str(err), err.line)
        else:
            X = load_matrix(p, normalize=False)
            assert X.shape == expected.shape
            assert np.array_equal(X, expected)

    def test_dense_csv_writer_bytes(self, tmp_path):
        X = np.array([[-0.0, 5e-324, 1e-5], [1e16, 1 / 3, 1e-300]])
        p = tmp_path / "m.csv"
        save_matrix(X, p)
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in X)
        assert p.read_text() == expected
        Y = load_matrix(p, normalize=False)
        assert Y.dtype == X.dtype and Y.shape == X.shape
        assert Y.tobytes() == X.tobytes()

    def test_round_trip_both_formats(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 4))
        X[X < 0.3] = 0.0
        X[:, 0] = 1.0  # keep rows nonzero
        for fmt in ("dense-csv", "sparse-triplet"):
            p = tmp_path / f"m-{fmt}"
            save_matrix(X, p, format=fmt)
            assert np.array_equal(load_matrix(p, format=fmt, normalize=False), X)


class TestGreedySeparation:
    def test_orthogonal_set_dominates(self):
        e = np.eye(3)
        mix = (e[0] + e[1]) / np.sqrt(2.0)
        candidates = np.vstack([e, mix])
        chosen = greedy_max_separation(candidates, 3)
        assert sorted(map(tuple, chosen)) == sorted(map(tuple, e))

    def test_k_equals_m(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((4, 5))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        assert np.array_equal(greedy_max_separation(c, 4), c)

    def test_too_few_candidates(self):
        with pytest.raises(ValueError):
            greedy_max_separation(np.eye(3), 4)

    def test_beats_random_subsets(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((80, 100))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        chosen = greedy_max_separation(c, 4)
        gram = chosen @ chosen.T
        np.fill_diagonal(gram, -np.inf)
        greedy_worst = gram.max()
        worsts = []
        for _ in range(1000):
            idx = rng.choice(80, size=4, replace=False)
            g = c[idx] @ c[idx].T
            np.fill_diagonal(g, -np.inf)
            worsts.append(g.max())
        assert greedy_worst <= np.quantile(worsts, 0.05)


class TestSparsify:
    def test_zero_sparsity_is_identity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((2, 6))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        assert np.allclose(sparsify_means(m, 0.0, rng), m)

    def test_half_sparsity_counts(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((3, 4))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        out = sparsify_means(m, 0.5, rng)
        assert np.all(np.count_nonzero(out, axis=1) == 2)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_paper_sparsity_level(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 100))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        out = sparsify_means(m, 0.15, rng)
        assert np.all(np.count_nonzero(out, axis=1) == 85)

    def test_cannot_sparsify_when_distinctness_impossible(self):
        rng = np.random.default_rng(6)
        # 3 components in d=2 at maximal sparsity can only become +-e_j with
        # matching signs here, so pairwise distinctness is unreachable.
        m = np.tile(np.array([[0.6, 0.8]]), (3, 1))
        with pytest.raises(CannotSparsifyError):
            sparsify_means(m, 0.5, rng)


class TestSimulate:
    def test_rescaling_orthogonal_doubles_kappa(self):
        # Two orthogonal means: kappa' = 2 kappa / (1 - 0).
        from sparsevmf.dataset import _rescale_for_separability

        means = np.eye(2)
        out = _rescale_for_separability(means, np.array([7.0, 7.0]))
        assert np.allclose(out, [14.0, 14.0])

    def test_outputs_consistent(self):
        cfg = SimulationConfig(K=4, d=30, N=10_000, base_kappa=17.34,
                               sparsity=0.1, seed=42)
        X, truth = simulate_mixture(cfg)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-10)
        # kappa'_k = 2 kappa_k / (1 - c_k), recomputed independently
        means = truth.params.means
        for k in range(4):
            cross = max(float(means[k] @ means[l]) for l in range(4) if l != k)
            assert truth.params.kappas[k] > 0
            assert 1.0 - cross > 0
        # balanced labels within 4 sigma multinomial bounds
        counts = np.bincount(truth.labels, minlength=4)
        sigma = np.sqrt(10_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 2500) < 4 * sigma)

    def test_determinism(self):
        cfg = SimulationConfig(K=3, d=10, N=50, base_kappa=10.0, sparsity=0.2, seed=9)
        X1, t1 = simulate_mixture(cfg)
        X2, t2 = simulate_mixture(cfg)
        assert np.array_equal(X1, X2)
        assert np.array_equal(t1.labels, t2.labels)
        assert np.array_equal(t1.params.means, t2.params.means)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(K=2, d=5, N=10)  # neither knob
        with pytest.raises(ValueError):
            SimulationConfig(K=2, d=5, N=10, base_kappa=1.0, overlap_target=0.1)

    def test_ground_truth_round_trip(self, tmp_path):
        cfg = SimulationConfig(K=3, d=10, N=40, base_kappa=8.0, sparsity=0.2, seed=13)
        _, truth = simulate_mixture(cfg)
        p = tmp_path / "gt.json"
        p.write_text(json.dumps(ground_truth_to_dict(truth)))
        loaded = load_ground_truth(p)
        assert np.array_equal(loaded.params.means, truth.params.means)
        assert np.array_equal(loaded.labels, truth.labels)

    def test_loads_truth_with_seed_and_config_keys(self, tmp_path):
        # Earlier versions also wrote the simulation seed and config; the
        # loader ignores them.
        doc = {
            "alpha": [0.25, 0.75], "kappa": [8.5, 7.5],
            "mu": [[[0, 0.6], [2, 0.8]], [[1, -1.0]]], "d": 3, "labels": [1, 0, 1],
            "seed": 1,
            "config": {"K": 2, "d": 3, "N": 3, "overlap_target": None, "base_kappa": 8.0,
                       "sparsity": 0.0, "alpha": None, "kappa_jitter_sd_frac": 0.025,
                       "candidate_multiplier": 20, "seed": 1},
        }
        p = tmp_path / "gt.json"
        p.write_text(json.dumps(doc))
        loaded = load_ground_truth(p)
        assert np.array_equal(loaded.params.means, [[0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
        assert np.array_equal(loaded.params.kappas, [8.5, 7.5])
        assert np.array_equal(loaded.params.alpha, [0.25, 0.75])
        assert np.array_equal(loaded.labels, [1, 0, 1])


class TestCalibrateOverlap:
    def test_monotone_in_kappa(self):
        rng = np.random.default_rng(21)
        means = np.eye(4, 20)
        alpha = np.full(4, 0.25)
        errs = []
        for kappa in (2.0, 4.0, 8.0):
            params = MixtureParams(alpha, means, np.full(4, kappa))
            errs.append(estimate_overlap(params, 20_000, rng))
        assert errs[0] > errs[1] > errs[2]

    def test_near_uniform_limit_gives_small_kappa(self):
        rng = np.random.default_rng(22)
        means = np.stack([np.eye(6)[0], -np.eye(6)[0]])
        alpha = np.array([0.5, 0.5])
        kappa = calibrate_overlap(means, 0.45, alpha, rng, n_samples=20_000)
        assert kappa < 1.0

    def test_calibrated_error_near_target(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((40, 25))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        means = greedy_max_separation(g, 3)
        alpha = np.full(3, 1.0 / 3.0)
        target = 0.05
        kappa = calibrate_overlap(means, target, alpha, rng, n_samples=20_000)
        from sparsevmf.dataset import _build_truth_params

        params = _build_truth_params(means, kappa, alpha, rng, jitter_sd_frac=0.0)
        err = estimate_overlap(params, 50_000, rng)
        assert abs(err - target) < 0.5 * target

    def test_not_bracketed(self):
        rng = np.random.default_rng(24)
        means = np.eye(2, 5)
        with pytest.raises(NotBracketedError):
            # Nearly all mass on one of two orthogonal means: even the
            # smallest kappa of the bracket misassigns at most the other
            # component's 1e-6 share, far below the 49.9% target.
            calibrate_overlap(means, 0.499, np.array([0.999999, 1e-6]), rng,
                              n_samples=5_000)


class TestReducedOverlap:
    """The estimator calibrate_overlap bisects on, against the full-d oracle."""

    @pytest.mark.parametrize("d, K, base_kappa, sparsity", [
        (2, 3, 3.0, 0.0),      # d < K: no chi-square part
        (3, 3, 3.0, 0.0),      # d = K: no chi-square part
        (5, 2, 3.0, 0.0),
        (20, 3, 4.0, 0.5),     # sparse means
        (20, 4, 0.3, 0.0),     # near-uniform
        (200, 3, 18.0, 0.5),
        (2000, 3, 60.0, 0.0),
    ])
    def test_agrees_with_full_dimension_oracle(self, d, K, base_kappa, sparsity):
        rng = np.random.default_rng([31, d, K])
        g = rng.standard_normal((20 * K, d))
        means = greedy_max_separation(g / np.linalg.norm(g, axis=1, keepdims=True), K)
        means = sparsify_means(means, sparsity, rng)
        alpha = np.arange(1, K + 1) / (K * (K + 1) / 2)
        params = _build_truth_params(means, base_kappa, alpha, rng, jitter_sd_frac=0.0)
        n_red, n_full = 100_000, (4_000 if d > 200 else 20_000)
        reduced = _reduced_overlap(means, alpha, n_red, rng)(params)
        full = estimate_overlap(params, n_full, rng)
        assert 0.01 < full < 0.7
        p = 0.5 * (reduced + full)
        se = np.sqrt(p * (1 - p) * (1 / n_red + 1 / n_full))
        assert abs(reduced - full) < 4 * se

    def test_same_params_same_estimate(self):
        # Every call reuses the same draws, so an estimate is a function of
        # the parameters alone, whatever was evaluated in between.
        rng = np.random.default_rng(32)
        means = np.eye(3, 10)
        alpha = np.full(3, 1.0 / 3.0)
        error = _reduced_overlap(means, alpha, 20_000, rng)
        first = error(MixtureParams(alpha, means, np.full(3, 4.0)))
        error(MixtureParams(alpha, means, np.full(3, 0.02)))  # grows the pools
        assert error(MixtureParams(alpha, means, np.full(3, 4.0))) == first

    def test_twin_means_tie_to_the_lower_index(self):
        # Components 0 and 1 share mean, kappa and weight, so every draw of
        # either ties between them and goes to 0: all of twin 1's draws are
        # errors. Component 2 is far off, so it adds almost nothing.
        means = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        alpha = np.array([0.3, 0.3, 0.4])
        n = 20_000
        n_twin = np.count_nonzero(np.random.default_rng(33).choice(3, size=n, p=alpha) == 1)
        error = _reduced_overlap(means, alpha, n, np.random.default_rng(33))
        est = error(MixtureParams(alpha, means, np.full(3, 50.0)))
        assert n_twin / n <= est < n_twin / n + 0.01

    def test_seeded_overlap_run_reproducible(self):
        cfg = SimulationConfig(K=3, d=20, N=200, overlap_target=0.05, sparsity=0.25, seed=3)
        X1, t1 = simulate_mixture(cfg)
        X2, t2 = simulate_mixture(cfg)
        assert np.array_equal(X1, X2)
        assert np.array_equal(t1.labels, t2.labels)
        assert np.array_equal(t1.params.kappas, t2.params.kappas)

    def test_base_kappa_run_unchanged(self):
        # A base_kappa run never calibrates, so this digest must not depend
        # on how calibrate_overlap draws. Rounding to 1e-10 keeps it
        # independent of last-ulp differences between platforms' exp and log.
        cfg = SimulationConfig(K=3, d=20, N=300, base_kappa=5.0, sparsity=0.25, seed=11)
        X, truth = simulate_mixture(cfg)
        h = hashlib.sha256()
        for a in (np.round(X, 10), truth.labels.astype(np.int64),
                  np.round(truth.params.kappas, 10), np.round(truth.params.means, 10)):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == "10bfea13bdaf4114a3a7e68901306043ef8f95452bc61133c3752e08cc4633f5"


class TestSampleMixture:
    def test_labels_follow_alpha(self):
        rng = np.random.default_rng(30)
        params = MixtureParams(np.array([0.8, 0.2]), np.eye(2, 6), np.array([50.0, 50.0]))
        _, labels = sample_mixture(params, 5_000, rng)
        assert abs(np.mean(labels == 0) - 0.8) < 0.03

    def test_sample_mixture_passes_n_by_keyword(self, monkeypatch):
        # perfbench's tracer reads vmf.sample's n by name (else at position 1)
        params = MixtureParams(np.array([0.5, 0.5]), np.eye(2, 6), np.array([50.0, 50.0]))
        sample = sparsevmf.vmf.sample
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return sample(*args, **kwargs)

        monkeypatch.setattr(sparsevmf.vmf, "sample", recording)
        _, labels = sample_mixture(params, 40, np.random.default_rng(31))
        assert len(calls) == 2
        for k, (args, kwargs) in enumerate(calls):
            assert len(args) == 2
            assert kwargs["n"] == np.count_nonzero(labels == k)
