import json

import numpy as np
import pytest

from sparsevmf.cli import main
from sparsevmf.dataset import GroundTruth, fit_result_to_dict, ground_truth_to_dict, load_model
from sparsevmf.em import FitResult, MixtureParams
from sparsevmf.selection import CRITERIA
from sparsevmf.viz import order_dimensions


def run(argv):
    return main(argv)


@pytest.fixture()
def sim_files(tmp_path):
    data = tmp_path / "data.csv"
    truth = tmp_path / "truth.json"
    rc = run([
        "simulate", "--d", "8", "--k", "3", "--n", "150",
        "--base-kappa", "12", "--sparsity", "0.25",
        "--out", str(data), "--truth-out", str(truth), "--seed", "5",
    ])
    assert rc == 0
    return data, truth


class TestSimulate:
    def test_outputs_exist_and_deterministic(self, tmp_path, monkeypatch):
        outs = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            monkeypatch.chdir(d)
            rc = run([
                "simulate", "--d", "6", "--k", "2", "--n", "40",
                "--base-kappa", "8", "--out", "data.csv",
                "--truth-out", "truth.json", "--seed", "3",
            ])
            assert rc == 0
            outs.append(((d / "data.csv").read_bytes(), (d / "truth.json").read_text()))
        assert outs[0][0] == outs[1][0]
        a = json.loads(outs[0][1])
        b = json.loads(outs[1][1])
        assert a == b
        assert a["run"]["config_hash"] == b["run"]["config_hash"]

    def test_one_component(self, tmp_path):
        data, truth = tmp_path / "data.csv", tmp_path / "truth.json"
        assert run(["simulate", "--d", "6", "--k", "1", "--n", "40", "--base-kappa", "10",
                    "--out", str(data), "--truth-out", str(truth), "--seed", "2"]) == 0
        # No other component: the rescaling 2 / (1 - (-1)) keeps the base
        # kappa, up to its 2.5% jitter.
        [kappa] = json.loads(truth.read_text())["kappa"]
        assert kappa == pytest.approx(10.0, rel=0.15)
        assert run(["fit", "--input", str(data), "--k", "1",
                    "--out", str(tmp_path / "m.json")]) == 0

    def test_one_component_overlap_is_not_bracketed(self, tmp_path, capsys):
        # One component is never misassigned: the reachable range is [0, 0].
        rc = run(["simulate", "--d", "6", "--k", "1", "--n", "40", "--overlap", "0.1",
                  "--out", str(tmp_path / "x.csv"), "--truth-out", str(tmp_path / "x.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NotBracketedError"

    def test_generation_failure_exits_one(self, tmp_path):
        # identical repeated means make pairwise-distinct sparsification
        # impossible, so the generator gives up after its retries
        rc = run([
            "simulate", "--d", "2", "--k", "5", "--n", "10",
            "--base-kappa", "5", "--sparsity", "0.5",
            "--out", str(tmp_path / "x.csv"),
            "--truth-out", str(tmp_path / "x.json"), "--seed", "0",
        ])
        # d=2 admits only four distinct one-hot directions; five components
        # cannot all be pairwise distinct after sparsification
        assert rc == 1


class TestFit:
    def test_fit_writes_model(self, sim_files, tmp_path):
        data, _ = sim_files
        model = tmp_path / "model.json"
        trace = tmp_path / "trace.csv"
        rc = run([
            "fit", "--input", str(data), "--k", "3", "--out", str(model),
            "--trace-out", str(trace), "--seed", "6", "--restarts", "3",
        ])
        assert rc == 0
        doc = json.loads(model.read_text())
        assert doc["K"] == 3
        assert doc["status"] in ("Converged", "MaxIters")
        assert doc["run"]["command"] == "fit"
        assert "seed" not in doc  # run.seed is the one seed a model file holds
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,penalized_log_likelihood"
        assert len(lines) >= 2

    def test_fit_deterministic(self, sim_files, tmp_path, monkeypatch):
        data, _ = sim_files
        docs = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            monkeypatch.chdir(d)
            rc = run(["fit", "--input", str(data), "--k", "3",
                      "--out", "model.json", "--seed", "6", "--restarts", "3"])
            assert rc == 0
            docs.append((d / "model.json").read_bytes())
        assert docs[0] == docs[1]

    def test_over_penalized_keeps_one_coordinate(self, sim_files, tmp_path):
        # every coordinate is thresholded away: each mean keeps its largest
        data, _ = sim_files
        rc = run(["fit", "--input", str(data), "--k", "2", "--beta", "1e9",
                  "--out", str(tmp_path / "m.json"), "--seed", "1"])
        assert rc == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["status"] == "Converged"
        assert [[abs(v) for _, v in row] for row in doc["means"]] == [[1.0], [1.0]]

    def test_malformed_input_exits_one(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_text("#shape 2 2\n0 0 1.0\n2 1 1.0\n")
        rc = run(["fit", "--input", str(data), "--format", "sparse-triplet",
                  "--k", "2", "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    @pytest.mark.parametrize("fmt,data", [
        ("dense-csv", b"1,2\n3,\xff4\n"),
        ("sparse-triplet", b"0 0 1.0\n1 1 \xff4\n"),
    ])
    def test_non_utf8_input_exits_one(self, tmp_path, capsys, fmt, data):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        rc = run(["fit", "--input", str(path), "--format", fmt, "--k", "1",
                  "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith("line 2: ")

    def test_missing_input_exits_one(self, tmp_path):
        rc = run(["fit", "--input", str(tmp_path / "nope.csv"), "--k", "2",
                  "--out", str(tmp_path / "m.json")])
        assert rc == 1


# Triplet files the reader rejects, with the message that names the line.
BAD_TRIPLETS = {
    "shape-without-rows": ("#shape 0 20\n", "line 1: malformed shape comment '#shape 0 20'"),
    "repeated-entry": ("0 0 1.0\n1 1 2.0\n0 0 5.0\n",
                       "line 3: index (0, 0) repeated or outside shape (2, 2)"),
    "negative-index-without-shape": ("-5 0 1.0\n", "line 1: negative index (-5, 0)"),
    "two-fields": ("0 0 1.0\n1 1\n", "line 2: expected 'row col value', got '1 1'"),
    "non-numeric-index": ("0 0 1.0\n1 x 2.0\n", "line 2: malformed triplet '1 x 2.0'"),
    "comments-only": ("# no entries\n# at all\n", "empty file"),
    # 4 EiB, past the address space, and a size NumPy cannot address: both
    # fail without allocating, whatever the overcommit setting.
    "shape-past-address-space": (
        "#shape 549755813888 1048576\n0 0 1.0\n",
        "a matrix of shape (549755813888, 1048576) does not fit in memory"),
    "shape-past-numpy": (
        "#shape 1000000000000 1000000000000\n0 0 1.0\n",
        "a matrix of shape (1000000000000, 1000000000000) does not fit in memory"),
}


class TestBadTriplet:
    @pytest.mark.parametrize("case", BAD_TRIPLETS)
    @pytest.mark.parametrize("command", ["fit", "path", "skmeans", "viz"])
    def test_exits_one_writing_nothing(self, tmp_path, capsys, command, case):
        text, message = BAD_TRIPLETS[case]
        data = tmp_path / "d.txt"
        data.write_text(text)
        files = {"d.txt"}
        if command == "viz":
            model = tmp_path / "model.json"
            params = MixtureParams(np.array([1.0]), np.eye(1, 20), np.array([5.0]))
            model.write_text(json.dumps(fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))))
            files.add("model.json")
            argv = ["viz", "--model", str(model), "--data-out", str(tmp_path / "data.ppm")]
        else:
            argv = [command, "--k", "2"]
        argv += ["--input", str(data), "--format", "sparse-triplet",
                 "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in err] == [{"error": "ParseError", "message": message}]
        assert {p.name for p in tmp_path.iterdir()} == files


class TestPathSelectSkmeans:
    def test_path_flow(self, sim_files, tmp_path):
        data, _ = sim_files
        out = tmp_path / "path.json"
        csv_out = tmp_path / "path.csv"
        rc = run(["path", "--input", str(data), "--k", "3",
                  "--max-steps", "10", "--out", str(out),
                  "--csv-out", str(csv_out), "--seed", "6", "--restarts", "3"])
        assert rc == 0
        doc = json.loads(out.read_text())
        betas = [s["beta"] for s in doc["steps"]]
        assert betas[0] == 0.0
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
        assert "BIC" in doc["steps"][0]
        assert csv_out.read_text().startswith("step,beta,sparsity")

    def test_select_flow(self, sim_files, tmp_path):
        data, _ = sim_files
        out = tmp_path / "sel.json"
        ic_csv = tmp_path / "ic.csv"
        rc = run(["select", "--input", str(data), "--k-min", "2", "--k-max", "4",
                  "--max-steps", "6", "--restarts", "2",
                  "--out", str(out), "--ic-csv", str(ic_csv), "--seed", "6"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc["chosen_K"]) == {"AIC", "BIC", "RIC", "RICc", "EBIC"}
        assert doc["final_model"]["K"] == doc["chosen_K"]["BIC"]
        # K*'s path step that each criterion picks
        assert list(doc["best_steps"]) == list(CRITERIA)
        assert all(type(i) is int and i >= 0 for i in doc["best_steps"].values())
        assert "seed" not in doc["final_model"]
        assert ic_csv.read_text().startswith("K,AIC,BIC,RIC,RICc,EBIC")

    def test_two_dimensional_data(self, tmp_path):
        # RICc's log log d is negative at d = 2 but its coefficient
        # 2 (log d + log log d) is positive, so every criterion scores a step.
        data = tmp_path / "d2.csv"
        assert run(["simulate", "--d", "2", "--k", "2", "--n", "200", "--base-kappa", "20",
                    "--seed", "1", "--out", str(data),
                    "--truth-out", str(tmp_path / "t.json")]) == 0
        assert run(["path", "--input", str(data), "--k", "2",
                    "--out", str(tmp_path / "p.json")]) == 0
        # With no --max-steps the path runs to its end.
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["run"]["config"]["max_steps"] is None
        assert doc["termination_reason"] == "NoIncrementAvailable"
        sel = tmp_path / "s.json"
        assert run(["select", "--input", str(data), "--k-min", "1", "--k-max", "3",
                    "--out", str(sel)]) == 0
        assert json.loads(sel.read_text())["chosen_K"]["BIC"] == 2

    def test_skmeans_flow(self, sim_files, tmp_path):
        data, _ = sim_files
        out = tmp_path / "sk.json"
        rc = run(["skmeans", "--input", str(data), "--k", "3",
                  "--out", str(out), "--seed", "7"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["labels"]) == 150
        assert doc["coherence"] > 0


class TestVizMetrics:
    def _fit_model(self, data, tmp_path):
        model = tmp_path / "model.json"
        assert run(["fit", "--input", str(data), "--k", "3",
                    "--out", str(model), "--seed", "6", "--restarts", "3"]) == 0
        return model

    def test_viz_flow(self, sim_files, tmp_path):
        data, _ = sim_files
        model = self._fit_model(data, tmp_path)
        img = tmp_path / "means.ppm"
        data_img = tmp_path / "data.ppm"
        ord_csv = tmp_path / "ord.csv"
        rc = run(["viz", "--model", str(model), "--out", str(img),
                  "--csv-out", str(ord_csv), "--input", str(data),
                  "--data-out", str(data_img)])
        assert rc == 0
        assert img.read_bytes().startswith(b"P6\n# sparsevmf palette v1 ")
        assert data_img.exists()
        assert ord_csv.read_text().startswith("original_dim,position,group_id,n_j")

    def test_viz_deterministic(self, sim_files, tmp_path):
        data, _ = sim_files
        model = self._fit_model(data, tmp_path)
        imgs = []
        for tag in ("a", "b"):
            img = tmp_path / f"{tag}.ppm"
            assert run(["viz", "--model", str(model), "--out", str(img)]) == 0
            imgs.append(img.read_bytes())
        assert imgs[0] == imgs[1]

    def test_metrics_flow(self, sim_files, tmp_path):
        data, truth = sim_files
        model = self._fit_model(data, tmp_path)
        out = tmp_path / "metrics.json"
        rc = run(["metrics", "--truth", str(truth), "--model", str(model),
                  "--input", str(data), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["sparsity"] <= 1.0
        assert -1.0 <= doc["ari"] <= 1.0
        assert "support_precision" in doc

    @pytest.mark.parametrize("command", ["metrics", "viz"])
    def test_input_column_count_differs_from_model(self, sim_files, tmp_path, capsys,
                                                   command):
        data, truth = sim_files
        model = self._fit_model(data, tmp_path)
        # Same rows as the model's data, so metrics' label check passes.
        wide = tmp_path / "wide.csv"
        X = np.loadtxt(data, delimiter=",")
        np.savetxt(wide, np.hstack([X, X[:, :1]]), delimiter=",")
        argv = [command, "--model", str(model), "--input", str(wide),
                "--out", str(tmp_path / "out")]
        argv += ["--truth", str(truth)] if command == "metrics" else [
            "--data-out", str(tmp_path / "data.ppm")]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ParseError",
                                      "message": "--input has 9 columns, --model has d = 8"}
        # every input is checked before any output is written
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "data.ppm").exists()

    @pytest.mark.parametrize("d", [1, 100_001])
    @pytest.mark.parametrize("command", ["fit", "metrics"])
    def test_input_outside_vmf_domain_exits_one(self, tmp_path, capsys, command, d):
        # The vMF density needs 2 <= d <= 1e5. metrics gets a model and a
        # truth of d = 2: the --input domain is checked before the model's d.
        data = tmp_path / "data.csv"
        data.write_text(",".join(["1"] * d) + "\n")
        argv = [command, "--input", str(data), "--out", str(tmp_path / "out")]
        if command == "fit":
            argv += ["--k", "1"]
        else:
            params = MixtureParams(np.ones(1), np.eye(1, 2), np.array([5.0]))
            model, truth = tmp_path / "model.json", tmp_path / "truth.json"
            model.write_text(json.dumps(fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))))
            truth.write_text(json.dumps(ground_truth_to_dict(
                GroundTruth(params, labels=np.array([0])))))
            argv += ["--model", str(model), "--truth", str(truth)]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "ParseError", "message": f"--input requires 2 <= d <= 100000, got {d}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", [3, 2])
    def test_truth_of_another_d_exits_one(self, sim_files, tmp_path, capsys, k):
        # The model has d = 8; the truth has d = 9, with the model's K or not.
        data, _ = sim_files
        model = self._fit_model(data, tmp_path)
        params = MixtureParams(np.full(k, 1.0 / k), np.eye(k, 9), np.full(k, 5.0))
        truth = tmp_path / "truth9.json"
        truth.write_text(json.dumps(ground_truth_to_dict(
            GroundTruth(params, labels=np.zeros(150, dtype=int)))))
        out = tmp_path / "m.json"
        for extra in ([], ["--input", str(data)]):
            capsys.readouterr()
            assert run(["metrics", "--truth", str(truth), "--model", str(model),
                        "--out", str(out), *extra]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert json.loads(err[0]) == {"error": "ParseError",
                                          "message": "--truth has d = 9, --model has d = 8"}
            assert not out.exists()

    @pytest.mark.parametrize("scale", ["0", "-4"])
    def test_viz_scale_below_one_exits_two(self, sim_files, tmp_path, capsys, scale):
        data, _ = sim_files
        model = self._fit_model(data, tmp_path)
        out = tmp_path / "means.ppm"
        capsys.readouterr()
        assert run(["viz", "--model", str(model), "--out", str(out),
                    "--scale", scale]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ConfigError",
                                      "message": f"scale must be an integer >= 1, got {scale}"}
        assert not out.exists()

    def test_unwritable_out_exits_one_like_fit(self, sim_files, tmp_path, capsys):
        # An output that cannot be written exits 1, named by its OSError
        # subclass, in viz as in fit.
        data, _ = sim_files
        model = self._fit_model(data, tmp_path)
        missing = tmp_path / "nodir"
        capsys.readouterr()
        kinds = []
        for argv in (["fit", "--input", str(data), "--k", "3", "--out", str(missing / "m.json")],
                     ["viz", "--model", str(model), "--out", str(missing / "m.ppm")]):
            assert run(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            kinds.append(json.loads(err[0])["error"])
        assert kinds == ["FileNotFoundError"] * 2
        assert not missing.exists()

    def test_skmeans_takes_one_column(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1\n2\n-3\n4\n")
        out = tmp_path / "out.json"
        assert run(["skmeans", "--input", str(data), "--k", "2", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["labels"]) == 4

    @pytest.mark.parametrize("half", [["--input", "data.csv"], ["--data-out", "data.ppm"]])
    def test_viz_input_and_data_out_go_together(self, tmp_path, capsys, half):
        # Neither the model nor the data file exists: the pair rule is checked
        # before any file is read or written.
        out = tmp_path / "means.ppm"
        argv = ["viz", "--model", str(tmp_path / "model.json"), "--out", str(out),
                half[0], str(tmp_path / half[1])]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "ConfigError",
            "message": "viz: --input and --data-out must be given together"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "viz"])
    def test_non_model_file_exits_one(self, sim_files, tmp_path, capsys, command):
        data, truth = sim_files
        model = tmp_path / "not_a_model.json"
        model.write_text("{}")
        argv = [command, "--model", str(model), "--out", str(tmp_path / "out")]
        if command == "metrics":
            argv += ["--truth", str(truth)]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        doc = json.loads(err[0])
        assert doc["error"] == "ParseError"
        assert "'d'" in doc["message"]

    def test_non_truth_file_exits_one(self, sim_files, tmp_path, capsys):
        data, _ = sim_files
        model = self._fit_model(data, tmp_path)
        truth = tmp_path / "not_truth.json"
        truth.write_text(json.dumps({"alpha": [1.0]}))
        capsys.readouterr()
        assert run(["metrics", "--truth", str(truth), "--model", str(model),
                    "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        doc = json.loads(err[0])
        assert doc["error"] == "ParseError"
        assert "'mu'" in doc["message"]


def _csv_rows(path, header):
    """The data rows of a CSV table, once its bytes have no CR and its first
    line is header."""
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == header
    return [line.split(",") for line in lines[1:]]


def _same_value(cell, value):
    """A float cell parses back to value bit for bit; any other cell is str(value)."""
    if isinstance(value, float):
        return float(cell).hex() == value.hex()
    return cell == str(value)


class TestCsvTables:
    def test_every_table_has_one_format(self, sim_files, tmp_path):
        data, _ = sim_files
        t = {name: tmp_path / name for name in (
            "model.json", "trace.csv", "path.json", "path.csv", "sel.json", "ic.csv",
            "means.ppm", "order.csv")}
        common = ["--input", str(data), "--k", "3", "--seed", "6", "--restarts", "3"]
        assert run(["fit", *common, "--out", str(t["model.json"]),
                    "--trace-out", str(t["trace.csv"])]) == 0
        assert run(["path", *common, "--max-steps", "10", "--out", str(t["path.json"]),
                    "--csv-out", str(t["path.csv"])]) == 0
        assert run(["select", "--input", str(data), "--k-min", "2", "--k-max", "4",
                    "--max-steps", "6", "--restarts", "2", "--seed", "6",
                    "--out", str(t["sel.json"]), "--ic-csv", str(t["ic.csv"])]) == 0
        assert run(["viz", "--model", str(t["model.json"]), "--out", str(t["means.ppm"]),
                    "--csv-out", str(t["order.csv"])]) == 0

        model = json.loads(t["model.json"].read_text())
        assert model["status"] == "Converged"  # so the trace holds n_iters + 1 values
        rows = _csv_rows(t["trace.csv"], "iteration,penalized_log_likelihood")
        assert [int(r[0]) for r in rows] == list(range(model["n_iters"] + 1))
        assert _same_value(rows[-1][1], model["penalized_log_likelihood"])

        steps = json.loads(t["path.json"].read_text())["steps"]
        rows = _csv_rows(t["path.csv"], "step,beta,sparsity,log_likelihood,"
                         "penalized_log_likelihood,status,n_iters,AIC,BIC,RIC,RICc,EBIC")
        assert len(rows) == len(steps) > 1
        for row, step in zip(rows, steps):
            assert all(_same_value(c, v) for c, v in zip(row, step.values(), strict=True))

        dense_ic = json.loads(t["sel.json"].read_text())["dense_ic"]
        rows = _csv_rows(t["ic.csv"], "K,AIC,BIC,RIC,RICc,EBIC")
        assert [r[0] for r in rows] == list(dense_ic) == ["2", "3", "4"]
        for row, ic in zip(rows, dense_ic.values()):
            assert all(_same_value(c, v) for c, v in zip(row[1:], ic.values(), strict=True))

        ordering = order_dimensions(load_model(t["model.json"]).params)
        rows = _csv_rows(t["order.csv"], "original_dim,position,group_id,n_j")
        assert [[int(c) for c in r] for r in rows] == [
            [dim, pos, group, n] for pos, (dim, group, n) in enumerate(zip(
                ordering.perm.tolist(), ordering.group_of.tolist(), ordering.n.tolist()))]


def _good_docs():
    """A valid model and a valid truth document at K = 3, d = 5."""
    params = MixtureParams(np.array([0.5, 0.3, 0.2]), np.eye(3, 5), np.array([5.0, 6.0, 7.0]))
    model = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
    truth = ground_truth_to_dict(GroundTruth(params, labels=np.array([0, 1, 2])))
    return {"model": model, "truth": truth}


# Per malformed case: the file's text, or the keys to overwrite in a good
# model / truth document (None: the case has no model form).
MALFORMED = {
    "not-an-object": "[]",
    "csv": "1,2\n3,4\n",
    "alpha-sums-to-0.6": ({"alpha": [0.3, 0.2, 0.1]}, {"alpha": [0.3, 0.2, 0.1]}),
    "mean-index-99": ({"means": [[[99, 1.0]], [[1, 1.0]], [[2, 1.0]]]},
                      {"mu": [[[99, 1.0]], [[1, 1.0]], [[2, 1.0]]]}),
    # NumPy would wrap -1 to the last coordinate, a unit mean.
    "mean-index-negative": ({"means": [[[0, 1.0]], [[-1, 1.0]], [[2, 1.0]]]},
                            {"mu": [[[0, 1.0]], [[-1, 1.0]], [[2, 1.0]]]}),
    # The second pair would overwrite the first, a unit mean.
    "mean-index-repeated": ({"means": [[[0, 1.0], [0, 1.0]], [[1, 1.0]], [[2, 1.0]]]},
                            {"mu": [[[0, 1.0], [0, 1.0]], [[1, 1.0]], [[2, 1.0]]]}),
    # alpha, kappa (a list) and means hold 3 components.
    "K-disagrees": ({"K": 5}, None),
    "bad-status-or-d": ({"status": "Bogus"}, {"d": "five"}),
    "kappa-string": ({"kappa": "abc"}, {"kappa": "abc"}),
    "means-null": ({"means": None}, {"mu": None}),
    "labels-string": (None, {"labels": "abc"}),
    # A model's scalar fields: beta a finite number >= 0, both likelihoods
    # finite numbers, n_iters an integer >= 0.
    "beta-string": ({"beta": "abc"}, None),
    "beta-negative": ({"beta": -1.0}, None),
    "n-iters-string": ({"n_iters": "x"}, None),
    "n-iters-float": ({"n_iters": 2.5}, None),
    "log-likelihood-null": ({"log_likelihood": None}, None),
    "pll-string-nan": ({"penalized_log_likelihood": "nan"}, None),
    "pll-nan": ({"penalized_log_likelihood": float("nan")}, None),
    "labels-out-of-range": (None, {"labels": [0, 1, 3]}),
    # Valid labels, one more than the rows of --input.
    "labels-count": (None, {"labels": [0, 1, 2, 0]}),
    # Unit means at d = 1, outside the vMF domain 2 <= d <= 1e5.
    "d-1": ({"d": 1, "means": [[[0, 1.0]]] * 3}, {"d": 1, "mu": [[[0, 1.0]]] * 3}),
    # Rejected before the K x d matrix is allocated.
    "d-1e12": ({"d": 10**12}, {"d": 10**12}),
    # Values that NumPy would convert to valid numbers. A good document's
    # kappas are [5, 6, 7].
    "kappa-true": ({"kappa": True}, {"kappa": True}),
    "kappa-nested": ({"kappa": [[5.0]]}, {"kappa": [[5.0]]}),
    "kappa-numeric-string": ({"kappa": "5"}, {"kappa": ["5", "6", "7"]}),
    "kappa-element-true": ({"kappa": [True, 6.0, 7.0]}, {"kappa": [True, 6.0, 7.0]}),
    "kappa-element-string": ({"kappa": ["69.1", 6.0, 7.0]}, {"kappa": ["69.1", 6.0, 7.0]}),
    "alpha-strings": ({"alpha": ["0.5", "0.3", "0.2"]}, {"alpha": ["0.5", "0.3", "0.2"]}),
    "mean-value-string": ({"means": [[[0, "1.0"]], [[1, 1.0]], [[2, 1.0]]]},
                          {"mu": [[[0, "1.0"]], [[1, 1.0]], [[2, 1.0]]]}),
    "labels-element-true": (None, {"labels": [0, True, 2]}),
    # Free-mode kappa is a list of K numbers: neither one number nor one
    # element stands for all K.
    "kappa-one-number": ({"kappa": 5.0}, {"kappa": 2.0}),
    "kappa-one-element": ({"kappa": [5.0]}, {"kappa": [5.0]}),
    # json.loads raises RecursionError, not JSONDecodeError, on such nesting.
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    # A million means at d = 1e5 would take 745 GiB: counted before allocating.
    "million-means": ({"d": 100_000, "means": [[]] * 10**6},
                      {"d": 100_000, "mu": [[]] * 10**6}),
}

MALFORMED_CASES = [
    pytest.param(case, command, kind, id=f"{command}-{kind}-{case}")
    for command, kind in [("metrics", "model"), ("viz", "model"), ("metrics", "truth")]
    for case, spec in MALFORMED.items()
    if isinstance(spec, str) or spec[kind == "truth"] is not None
]


def _parse_error_of(command, files, tmp_path, capsys):
    """The one JSON error line of command (metrics or viz) on the model and
    truth files, which must exit 1 with a ParseError and write no --out file."""
    out = tmp_path / "out"
    argv = [command, "--model", str(files["model"]), "--out", str(out)]
    if command == "metrics":
        # Three rows, one per label of the good truth document.
        data = tmp_path / "data.csv"
        data.write_text("1,0,0,0,0\n0,1,0,0,0\n0,0,1,0,0\n")
        argv += ["--truth", str(files["truth"]), "--input", str(data)]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "ParseError"
    assert not out.exists()
    return doc


class TestMalformedJson:
    @pytest.mark.parametrize("case, command, kind", MALFORMED_CASES)
    def test_exits_one_with_parse_error(self, tmp_path, capsys, case, command, kind):
        docs = _good_docs()
        files = {}
        for name, doc in docs.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(doc))
        spec = MALFORMED[case]
        if isinstance(spec, str):
            files[kind].write_text(spec)
        else:
            files[kind].write_text(json.dumps({**docs[kind], **spec[kind == "truth"]}))
        doc = _parse_error_of(command, files, tmp_path, capsys)
        if case == "csv":
            assert doc["message"].startswith("line 1: not JSON")
        if case == "labels-count":
            assert doc["message"] == "--truth has 4 labels, --input has 3 rows"
        if case == "d-1":
            assert doc["message"] == (f"not a {kind} file: "
                                      "means_from_sparse requires 2 <= d <= 100000, got 1")
        if case == "deep-nesting":
            assert doc["message"] == "not JSON: nested too deeply"
        if case == "million-means":
            assert doc["message"] == {
                "model": "not a model file: K = 3, but the arrays hold 1000000 components",
                "truth": "not a truth file: alpha holds 3 weights, but mu 1000000 means",
            }[kind]

    def test_good_documents_load(self, tmp_path):
        docs = _good_docs()
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert run(["metrics", "--model", str(tmp_path / "model.json"),
                    "--truth", str(tmp_path / "truth.json"),
                    "--out", str(tmp_path / "m.json")]) == 0

    def test_non_utf8_model_names_the_line(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b'{\n "K": 1,\n "d": "\xff"\n}\n')
        capsys.readouterr()
        assert run(["viz", "--model", str(model), "--out", str(tmp_path / "x.ppm")]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc == {"error": "ParseError", "message": "line 3: not UTF-8 text"}


# Every field of a good model and truth document (see _good_docs), as a path
# of keys and list indices down to the first element of each list, with
# whether it holds an integer. A copy kept apart from the readers' own field
# tables, so that a wrong table cannot pass its own test.
FIELDS = {
    "model": {
        ("K",): True, ("d",): True, ("kappa_mode",): False,
        ("alpha",): False, ("alpha", 0): False, ("kappa",): False, ("kappa", 0): False,
        ("means",): False, ("means", 0): False, ("means", 0, 0): False,
        ("means", 0, 0, 0): True, ("means", 0, 0, 1): False,
        ("beta",): False, ("log_likelihood",): False, ("penalized_log_likelihood",): False,
        ("status",): False, ("n_iters",): True,
    },
    "truth": {
        ("alpha",): False, ("alpha", 0): False, ("kappa",): False, ("kappa", 0): False,
        ("mu",): False, ("mu", 0): False, ("mu", 0, 0): False,
        ("mu", 0, 0, 0): True, ("mu", 0, 0, 1): False,
        ("d",): True, ("labels",): False, ("labels", 0): True,
    },
}

# Values of the wrong JSON type for any field; 1.5 is one for an integer field.
BAD_VALUES = [True, "x", None, [], [[1]], {}]

# Changes that a reader accepts: an unknown key is ignored, and n_iters has no
# upper bound.
ACCEPTED = {
    "model-extra-key": ("model", ("extra",), [True, None]),
    "truth-extra-key": ("truth", ("extra",), {"x": 1}),
    "model-huge-n-iters": ("model", ("n_iters",), 10**30),
}


def _write_mutated(tmp_path, kind, path, value):
    """The model and truth files of _good_docs, with the field at path in
    the document of this kind set to value."""
    docs = _good_docs()
    *parents, last = path
    node = docs[kind]
    for step in parents:
        node = node[step]
    node[last] = value
    files = {}
    for name, doc in docs.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    return files


class TestFieldMutations:
    @pytest.mark.parametrize("kind, path", [(kind, path) for kind in FIELDS for path in FIELDS[kind]],
                             ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)))
    def test_wrong_type_exits_one(self, tmp_path, capsys, kind, path):
        for value in BAD_VALUES + [1.5] * FIELDS[kind][path]:
            files = _write_mutated(tmp_path, kind, path, value)
            _parse_error_of("metrics", files, tmp_path, capsys)

    @pytest.mark.parametrize("case", ACCEPTED)
    def test_accepted_change_loads(self, tmp_path, capsys, case):
        files = _write_mutated(tmp_path, *ACCEPTED[case])
        out = tmp_path / "out"
        assert run(["metrics", "--model", str(files["model"]), "--truth", str(files["truth"]),
                    "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.exists()


class TestConfigFile:
    def test_json_config_applies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "sparsity": 0.25}))
        data = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        rc = run(["simulate", "--d", "6", "--k", "2", "--n", "30",
                  "--base-kappa", "8", "--out", str(data),
                  "--truth-out", str(truth), "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(truth.read_text())
        assert doc["run"]["seed"] == 9
        assert doc["run"]["config"]["sparsity"] == 0.25

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        data = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        rc = run(["simulate", "--d", "6", "--k", "2", "--n", "30",
                  "--base-kappa", "8", "--out", str(data),
                  "--truth-out", str(truth), "--config", str(cfg),
                  "--seed", "4"])
        assert rc == 0
        assert json.loads(truth.read_text())["run"]["seed"] == 4

    def test_key_value_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\nseed = 11\nsparsity = 0.5\n")
        data = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        rc = run(["simulate", "--d", "8", "--k", "2", "--n", "30",
                  "--base-kappa", "8", "--out", str(data),
                  "--truth-out", str(truth), "--config", str(cfg)])
        assert rc == 0
        assert json.loads(truth.read_text())["run"]["seed"] == 11

    def test_abbreviated_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        truth = tmp_path / "t.json"
        rc = run(["simulate", "--d", "6", "--k", "2", "--n", "30",
                  "--base-kappa", "8", "--out", str(tmp_path / "d.csv"),
                  "--truth-out", str(truth), "--config", str(cfg), "--se", "4"])
        assert rc == 0
        assert json.loads(truth.read_text())["run"]["seed"] == 4

    def test_typed_values(self, sim_files, tmp_path):
        data, _ = sim_files
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_steps = 2\nem_tol = 1e-5\n")
        out = tmp_path / "p.json"
        rc = run(["path", "--input", str(data), "--k", "3", "--restarts", "1",
                  "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        config = json.loads(out.read_text())["run"]["config"]
        assert config["max_steps"] == 2
        assert config["em_tol"] == 1e-5

    def test_removed_switch_is_unknown_key(self, sim_files, tmp_path, capsys):
        # The path ends on its own once every mean is 1-sparse, so there is
        # no max-sparsity switch to set.
        data, _ = sim_files
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("stop_at_max_sparsity = true\n")
        rc = run(["path", "--input", str(data), "--k", "3", "--restarts", "1",
                  "--out", str(tmp_path / "p.json"), "--config", str(cfg)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "unknown key 'stop_at_max_sparsity'" in err["message"]

    def test_min_rel_increase_is_unknown_key(self, sim_files, tmp_path, capsys):
        # Neither a floor on the step nor a zeroing threshold of its own: each
        # path step is fit_em's fit at the smallest-margin beta.
        data, _ = sim_files
        cfg = tmp_path / "cfg.txt"
        for key in ("min_rel_increase", "epsilon"):
            cfg.write_text(f"{key} = 0.1\n")
            rc = run(["path", "--input", str(data), "--k", "3", "--restarts", "1",
                      "--out", str(tmp_path / "p.json"), "--config", str(cfg)])
            assert rc == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert f"unknown key '{key}'" in err["message"]
            assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("text, flag", [
        ("beta=abc\n", "--beta"),
        (json.dumps({"k": "two"}), "--k"),
        (json.dumps({"kappa_mode": "bogus"}), "--kappa-mode"),
        (json.dumps({"max_em_iters": 2.5}), "--max-em-iters"),
    ])
    def test_bad_value_exits_two(self, sim_files, tmp_path, capsys, text, flag):
        data, _ = sim_files
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        rc = run(["fit", "--input", str(data), "--k", "3", "--out", str(tmp_path / "m.json"),
                  "--config", str(cfg)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("config file: ")
        assert flag in err["message"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}))
        rc = run(["simulate", "--d", "6", "--k", "2", "--n", "30",
                  "--base-kappa", "8", "--out", str(tmp_path / "d.csv"),
                  "--truth-out", str(tmp_path / "t.json"),
                  "--config", str(cfg)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "unknown key 'bogus_knob'" in err["message"]

    def test_line_without_equals_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 3\nsparsity 0.5\n")
        rc = run(["simulate", "--d", "6", "--k", "2", "--n", "30",
                  "--base-kappa", "8", "--out", str(tmp_path / "d.csv"),
                  "--truth-out", str(tmp_path / "t.json"),
                  "--config", str(cfg)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "expected key=value, got 'sparsity 0.5'" in err["message"]

    def test_missing_config_exits_one(self, tmp_path, capsys):
        rc = run(["fit", "--input", str(tmp_path / "d.csv"), "--k", "2",
                  "--out", str(tmp_path / "m.json"),
                  "--config", str(tmp_path / "missing.json")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    def test_non_object_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc = run(["fit", "--input", str(tmp_path / "d.csv"), "--k", "2",
                  "--out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError", "message": "config file: must hold a JSON object"}

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"seed = 3\n\xff\n")
        rc = run(["fit", "--input", str(tmp_path / "d.csv"), "--k", "2",
                  "--out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError", "message": "config file: not UTF-8 text"}


SIMULATE = ["simulate", "--d", "5", "--k", "2", "--n", "20",
            "--out", "x.csv", "--truth-out", "x.json"]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        pytest.param(["fit", "--k", "2", "--out", "x.json"], id="missing-flag"),
        pytest.param(["fit", "--input", "d.csv", "--k", "abc", "--out", "x.json"],
                     id="ill-typed-flag"),
        pytest.param(["fit", "--input", "d.csv", "--k", "2", "--kappa-mode", "bogus",
                      "--out", "x.json"], id="bad-choice"),
        pytest.param(["transmogrify"], id="unknown-subcommand"),
        pytest.param(SIMULATE, id="neither-knob"),
        pytest.param([*SIMULATE, "--overlap", "0.05", "--base-kappa", "3"], id="both-knobs"),
        # The path steps by the smallest margin alone: there is no floor to set.
        pytest.param(["path", "--input", "d.csv", "--k", "2", "--min-rel-increase", "0.1",
                      "--out", "x.json"], id="min-rel-increase"),
        # Nor a threshold that zeroes small coordinates after each fit.
        pytest.param(["path", "--input", "d.csv", "--k", "2", "--epsilon", "0.05",
                      "--out", "x.json"], id="path-epsilon"),
        pytest.param(["select", "--input", "d.csv", "--k-min", "2", "--k-max", "3",
                      "--epsilon", "0.05", "--out", "x.json"], id="select-epsilon"),
        # viz's support is the exact nonzeros: it has no threshold either.
        pytest.param(["viz", "--model", "m.json", "--out", "x.ppm", "--epsilon", "0.05"],
                     id="viz-epsilon"),
        # --threads bounds the workers, so it needs at least one.
        pytest.param(["fit", "--input", "d.csv", "--k", "3", "--threads", "0",
                      "--out", "x.json"], id="threads-zero"),
        pytest.param(["fit", "--input", "d.csv", "--k", "3", "--threads", "-5",
                      "--out", "x.json"], id="threads-negative"),
        # A path step with no EM iteration would record its start unmoved.
        pytest.param(["path", "--input", "d.csv", "--k", "3", "--max-em-iters", "0",
                      "--out", "x.json"], id="path-max-em-iters-zero"),
    ])
    def test_usage_error_is_one_json_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as ex:
            run([flag])
        assert ex.value.code == 0
        out, err = capsys.readouterr()
        assert out and not err

    def test_bad_value_exits_two(self, sim_files, tmp_path, capsys):
        data, _ = sim_files
        rc = run(["fit", "--input", str(data), "--k", "0",
                  "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "K must be an integer >= 1, got 0"}

    # Simulations SimulationConfig rejects: no component or observation, an
    # overlap target outside (0, 0.5), or every coordinate of a mean zeroed.
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--k", "0", "--n", "10", "--d", "5", "--base-kappa", "5"],
         "K must be an integer >= 1, got 0"),
        (["simulate", "--k", "2", "--n", "0", "--d", "5", "--base-kappa", "5"],
         "N must be an integer >= 1, got 0"),
        (["simulate", "--k", "2", "--n", "20", "--d", "10", "--overlap", "0.5"],
         "overlap_target must be in (0, 0.5)"),
        (["simulate", "--k", "2", "--n", "10", "--d", "5", "--base-kappa", "5",
          "--sparsity", "1"], "sparsity must be in [0, 1)"),
    ])
    def test_impossible_simulation_size_exits_two(self, tmp_path, capsys, argv, message):
        rc = run([*argv, "--out", str(tmp_path / "x.csv"),
                  "--truth-out", str(tmp_path / "x.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_base_kappa_exits_two(self, tmp_path, capsys):
        rc = run(["simulate", "--k", "2", "--n", "4", "--d", "5", "--base-kappa", "inf",
                  "--out", str(tmp_path / "x.csv"), "--truth-out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ConfigError",
                                      "message": "base_kappa must be finite and > 0, got inf"}
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("d", [1, 100_001])
    def test_simulate_d_outside_domain_exits_two(self, tmp_path, capsys, d):
        rc = run(["simulate", "--k", "2", "--n", "4", "--d", str(d), "--base-kappa", "5",
                  "--out", str(tmp_path / "x.csv"), "--truth-out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "ConfigError",
            "message": f"SimulationConfig requires 2 <= d <= 100000, got {d}"}
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("knob", [["--base-kappa", "20"], ["--overlap", "0.05"]])
    def test_alpha_of_another_length_exits_two(self, tmp_path, capsys, knob):
        rc = run(["simulate", "--d", "10", "--k", "3", "--n", "100", *knob,
                  "--alpha", "0.5", "0.5", "--out", str(tmp_path / "d.csv"),
                  "--truth-out", str(tmp_path / "t.json")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ConfigError",
                                      "message": "alpha must hold K = 3 weights, got shape (2,)"}
        assert not any(tmp_path.iterdir())

    def test_skmeans_zero_components_exits_two(self, sim_files, tmp_path, capsys):
        data, _ = sim_files
        rc = run(["skmeans", "--input", str(data), "--k", "0",
                  "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "K must be an integer >= 1, got 0"}

    def test_skmeans_negative_max_iters_exits_two(self, sim_files, tmp_path, capsys):
        data, _ = sim_files
        out = tmp_path / "o.json"
        capsys.readouterr()
        rc = run(["skmeans", "--input", str(data), "--k", "2", "--max-iters", "-2",
                  "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ConfigError",
                                      "message": "max_iters must be an integer >= 0, got -2"}
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["fit", "--k", "3"],
        ["path", "--k", "3"],
        ["select", "--k-min", "2", "--k-max", "3"],
    ])
    def test_zero_restarts_exits_two(self, sim_files, tmp_path, capsys, command):
        data, _ = sim_files
        rc = run([*command, "--input", str(data), "--restarts", "0",
                  "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "n_restarts" in err["message"]

    @pytest.mark.parametrize("flag, name", [("--beta", "beta"), ("--em-tol", "em_tol")])
    def test_non_finite_option_exits_two(self, sim_files, tmp_path, capsys, flag, name):
        data, _ = sim_files
        rc = run(["fit", "--input", str(data), "--k", "2", flag, "nan",
                  "--max-em-iters", "7", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert name in err["message"]
