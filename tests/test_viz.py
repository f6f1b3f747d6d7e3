import json

import numpy as np
import pytest

from sparsevmf.cli import main
from sparsevmf.dataset import fit_result_to_dict
from sparsevmf.em import FitResult, MixtureParams
from sparsevmf.viz import (
    PALETTE,
    DimensionOrdering,
    data_row_order,
    order_dimensions,
    order_rows,
    render_pixel_map,
)

from oracles import comparator_dimension_order


def mk_params(means, alpha=None):
    means = np.asarray(means, dtype=float)
    means = means / np.linalg.norm(means, axis=1, keepdims=True)
    K = means.shape[0]
    if alpha is None:
        alpha = np.full(K, 1.0 / K)
    return MixtureParams(np.asarray(alpha, dtype=float), means, np.full(K, 5.0))


def random_sparse_params(rng, K, d):
    means = rng.standard_normal((K, d))
    mask = rng.random((K, d)) < 0.5
    # keep at least one surviving coordinate per row
    for k in range(K):
        if mask[k].all():
            mask[k, rng.integers(d)] = False
    means[mask] = 0.0
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    alpha = rng.dirichlet(np.ones(K))
    return MixtureParams(alpha, means, np.full(K, 5.0))


class TestOrderRows:
    def test_alpha_descending(self):
        p = mk_params(np.eye(3, 4), alpha=[0.2, 0.5, 0.3])
        assert order_rows(p).tolist() == [1, 2, 0]

    def test_ties_by_index(self):
        p = mk_params(np.eye(3, 4), alpha=[0.25, 0.5, 0.25])
        assert order_rows(p).tolist() == [1, 0, 2]

    def test_data_rows_grouped_by_cluster(self):
        labels = np.array([0, 1, 0, 2, 1])
        order = data_row_order(labels, np.array([1, 2, 0]))
        # cluster order 1, 2, 0; original index order within cluster
        assert order.tolist() == [1, 4, 3, 0, 2]


class TestOrderDimensions:
    def test_support_count_dominates(self):
        m = np.array([
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.0],
        ])
        out = order_dimensions(mk_params(m))
        assert out.perm[0] == 0        # support count 3 first
        assert out.n.tolist() == [3, 1, 1]
        assert out.group_of.tolist() == [0, 1, 1]

    def test_pattern_breaks_count_ties(self):
        # dims 1 and 2 both have count 1; dim used by the heavier-alpha
        # component sorts first
        m = np.array([
            [0.6, 0.8, 0.0],
            [0.6, 0.0, 0.8],
        ])
        out = order_dimensions(mk_params(m, alpha=[0.3, 0.7]))
        # alpha order is component 1 then 0, so dim 2 (used by comp 1) wins
        assert out.perm.tolist() == [0, 2, 1]

    def test_weight_breaks_pattern_ties(self):
        m = np.array([[0.3, 0.4, np.sqrt(1 - 0.09 - 0.16)]])
        out = order_dimensions(mk_params(m))
        # identical support patterns: heaviest |value| first
        weights = np.abs(mk_params(m).means[0])
        assert out.perm.tolist() == np.argsort(-weights).tolist()

    def test_index_breaks_full_ties(self):
        m = np.array([[0.5, 0.5, 0.5, 0.5]])
        out = order_dimensions(mk_params(m))
        assert out.perm.tolist() == [0, 1, 2, 3]

    def test_tiny_coordinate_is_in_support(self):
        # Support is the exact nonzeros, as in the model file and the metrics.
        m = np.array([[1.0, 1e-9, 0.0]])
        out = order_dimensions(mk_params(m))
        assert out.n.tolist() == [1, 1, 0]

    def test_matches_comparator_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            K = int(rng.integers(2, 6))
            d = int(rng.integers(3, 15))
            params = random_sparse_params(rng, K, d)
            out = order_dimensions(params)
            oracle = comparator_dimension_order(params.means, params.alpha)
            assert out.perm.tolist() == oracle, f"trial {trial}"

    def test_idempotent_on_reordered_matrix(self):
        rng = np.random.default_rng(1)
        params = random_sparse_params(rng, 3, 10)
        out = order_dimensions(params)
        re_means = params.means[:, out.perm]
        re_params = MixtureParams(params.alpha, re_means /
                                  np.linalg.norm(re_means, axis=1, keepdims=True),
                                  params.kappas)
        again = order_dimensions(re_params)
        assert again.perm.tolist() == list(range(10))


def read_ppm(path):
    data = path.read_bytes()
    assert data.startswith(b"P6\n")
    rest = data[3:]
    comment, rest = rest.split(b"\n", 1)
    assert comment.startswith(b"# sparsevmf palette v1 ")
    dims, rest = rest.split(b"\n", 1)
    w, h = map(int, dims.split())
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)
    return img, comment.decode()


class TestRenderPixelMap:
    def test_all_zero_matrix_is_white(self, tmp_path):
        params = mk_params(np.eye(2, 3))
        out = order_dimensions(params)
        p = tmp_path / "z.ppm"
        render_pixel_map(np.zeros((2, 3)), out, np.arange(2), p)
        img, _ = read_ppm(p)
        assert np.all(img == 255)

    def test_single_pixel_max_is_palette_hue(self, tmp_path):
        # One dimension in group 0; a model cannot have d = 1, so no params.
        out = DimensionOrdering(perm=np.array([0]), group_of=np.array([0]), n=np.array([1]))
        p = tmp_path / "one.ppm"
        render_pixel_map(np.array([[1.0]]), out, np.arange(1), p)
        img, comment = read_ppm(p)
        assert img.shape == (1, 1, 3)
        assert tuple(img[0, 0]) == PALETTE[0]
        assert "maxabs=1.0" in comment

    def test_intensity_interpolates_to_white(self, tmp_path):
        params = mk_params(np.ones((1, 2)))
        out = order_dimensions(params)
        p = tmp_path / "i.ppm"
        render_pixel_map(np.array([[1.0, 0.5]]), out, np.arange(1), p)
        img, _ = read_ppm(p)
        full = np.array(PALETTE[0], dtype=float)
        half = np.clip(np.rint(0.5 * 255 + 0.5 * full), 0, 255)
        assert np.array_equal(img[0, 1], half.astype(np.uint8))

    def test_scale_repeats_pixels(self, tmp_path):
        params = mk_params(np.eye(2, 2) + 0.1)
        out = order_dimensions(params)
        p = tmp_path / "s.ppm"
        render_pixel_map(params.means, out, np.arange(2), p, scale=3)
        img, _ = read_ppm(p)
        assert img.shape == (6, 6, 3)
        assert np.array_equal(img[0:3, 0:3], np.broadcast_to(img[0, 0], (3, 3, 3)))

    def test_byte_identical_across_calls(self, tmp_path):
        rng = np.random.default_rng(2)
        params = random_sparse_params(rng, 3, 8)
        out = order_dimensions(params)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        render_pixel_map(params.means, out, order_rows(params), p1)
        render_pixel_map(params.means, out, order_rows(params), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_mode(self, tmp_path):
        params = mk_params(np.eye(2, 2) + 0.1)
        out = order_dimensions(params)
        with pytest.raises(ValueError):
            render_pixel_map(params.means, out, np.arange(2),
                             tmp_path / "x.ppm", mode="heat")

    @pytest.mark.parametrize("scale", [0, -4])
    def test_scale_below_one(self, tmp_path, scale):
        params = mk_params(np.eye(2, 2) + 0.1)
        out = order_dimensions(params)
        p = tmp_path / "x.ppm"
        with pytest.raises(ValueError, match=f"^scale must be an integer >= 1, got {scale}$"):
            render_pixel_map(params.means, out, np.arange(2), p, scale=scale)
        assert not p.exists()


class TestSaveOrderingCsv:
    def test_round_trip_fields(self, tmp_path):
        # viz --csv-out writes one row per dimension in ordered position.
        params = mk_params(np.array([[0.6, 0.0, 0.8], [0.6, 0.8, 0.0]]))
        out = order_dimensions(params)
        m = tmp_path / "m.json"
        m.write_text(json.dumps(fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))))
        p = tmp_path / "o.csv"
        assert main(["viz", "--model", str(m), "--out", str(tmp_path / "o.ppm"),
                     "--csv-out", str(p)]) == 0
        import csv

        with open(p) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [int(r["original_dim"]) for r in rows] == out.perm.tolist()
        assert [int(r["n_j"]) for r in rows] == out.n.tolist()
