import json

import numpy as np
import pytest

from sparsevmf.cli import main
from sparsevmf.dataset import GroundTruth, ground_truth_to_dict
from sparsevmf.em import FitResult, MixtureParams, fit_result_to_dict


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

    def test_requires_exactly_one_knob(self, tmp_path, capsys):
        base = ["simulate", "--d", "5", "--k", "2", "--n", "20",
                "--out", str(tmp_path / "x.csv"),
                "--truth-out", str(tmp_path / "x.json")]
        with pytest.raises(SystemExit) as ex:
            run(base)
        assert ex.value.code == 2
        with pytest.raises(SystemExit) as ex:
            run(base + ["--overlap", "0.05", "--base-kappa", "3"])
        assert ex.value.code == 2

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

    def test_path_large_epsilon_ends_with_em_failure(self, tmp_path):
        data, truth = tmp_path / "data.csv", tmp_path / "truth.json"
        assert run(["simulate", "--d", "6", "--k", "2", "--n", "150",
                    "--base-kappa", "10", "--out", str(data),
                    "--truth-out", str(truth), "--seed", "50"]) == 0
        out = tmp_path / "path.json"
        rc = run(["path", "--input", str(data), "--k", "2", "--epsilon", "0.9",
                  "--max-steps", "4", "--restarts", "2", "--out", str(out)])
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-finite JSON number {token}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["termination_reason"] == "EmFailure"
        assert [s["step"] for s in doc["steps"]] == [0]

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
        assert ic_csv.read_text().startswith("K,AIC,BIC,RIC,RICc,EBIC")

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


def _good_docs():
    """A valid model and a valid truth document at K = 3, d = 5."""
    params = MixtureParams(np.array([0.5, 0.3, 0.2]), np.eye(3, 5), np.array([5.0, 6.0, 7.0]))
    model = fit_result_to_dict(FitResult(params, 0.0, -1.0, -1.0))
    truth = ground_truth_to_dict(GroundTruth(params, labels=np.array([0, 1, 2])))
    return {"model": model, "truth": truth}


# Per malformed case: the file's text, or the keys to overwrite in a good
# model / truth document.
MALFORMED = {
    "not-an-object": "[]",
    "csv": "1,2\n3,4\n",
    "alpha-sums-to-0.6": ({"alpha": [0.3, 0.2, 0.1]}, {"alpha": [0.3, 0.2, 0.1]}),
    "mean-index-99": ({"means": [[[99, 1.0]], [[1, 1.0]], [[2, 1.0]]]},
                      {"mu": [[[99, 1.0]], [[1, 1.0]], [[2, 1.0]]]}),
    "bad-status-or-d": ({"status": "Bogus"}, {"d": "five"}),
    "kappa-string": ({"kappa": "abc"}, {"kappa": "abc"}),
    "means-null": ({"means": None}, {"mu": None}),
}


class TestMalformedJson:
    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("command, kind", [
        ("metrics", "model"), ("viz", "model"), ("metrics", "truth"),
    ])
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
        argv = [command, "--model", str(files["model"]), "--out", str(tmp_path / "out")]
        if command == "metrics":
            argv += ["--truth", str(files["truth"])]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        doc = json.loads(err[0])
        assert doc["error"] == "ParseError"
        if case == "csv":
            assert doc["message"].startswith("line 1: not JSON")

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
        cfg.write_text("max_steps = 2\nepsilon = 1e-6\n")
        out = tmp_path / "p.json"
        rc = run(["path", "--input", str(data), "--k", "3", "--restarts", "1",
                  "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        config = json.loads(out.read_text())["run"]["config"]
        assert config["max_steps"] == 2
        assert config["epsilon"] == 1e-6

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
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestUsageErrors:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as ex:
            run(["fit", "--k", "2", "--out", "x.json"])
        assert ex.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as ex:
            run(["transmogrify"])
        assert ex.value.code == 2

    def test_bad_value_exits_two(self, sim_files, tmp_path, capsys):
        data, _ = sim_files
        rc = run(["fit", "--input", str(data), "--k", "0",
                  "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "K must be >= 1, got 0"}

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--k", "0", "--n", "10", "--d", "5"], "K must be >= 1, got 0"),
        (["simulate", "--k", "2", "--n", "0", "--d", "5"], "N must be >= 1, got 0"),
        (["simulate", "--k", "2", "--n", "10", "--d", "1"], "d must be >= 2, got 1"),
    ])
    def test_impossible_simulation_size_exits_two(self, tmp_path, capsys, argv, message):
        rc = run([*argv, "--base-kappa", "5", "--out", str(tmp_path / "x.csv"),
                  "--truth-out", str(tmp_path / "x.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": message}
        assert not (tmp_path / "x.csv").exists()

    def test_skmeans_zero_components_exits_two(self, sim_files, tmp_path, capsys):
        data, _ = sim_files
        rc = run(["skmeans", "--input", str(data), "--k", "0",
                  "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "K must be >= 1, got 0"}

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
