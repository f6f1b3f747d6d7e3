import json

import numpy as np
import pytest

from sparsevmf.cli import main


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
        with pytest.raises(SystemExit) as ex:
            run(["path", "--input", str(data), "--k", "3", "--restarts", "1",
                 "--out", str(tmp_path / "p.json"), "--config", str(cfg)])
        assert ex.value.code == 2
        assert "unknown key 'stop_at_max_sparsity'" in capsys.readouterr().err

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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}))
        with pytest.raises(SystemExit) as ex:
            run(["simulate", "--d", "6", "--k", "2", "--n", "30",
                 "--base-kappa", "8", "--out", str(tmp_path / "d.csv"),
                 "--truth-out", str(tmp_path / "t.json"),
                 "--config", str(cfg)])
        assert ex.value.code == 2

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

    def test_bad_value_exits_two(self, sim_files, tmp_path):
        data, _ = sim_files
        rc = run(["fit", "--input", str(data), "--k", "0",
                  "--out", str(tmp_path / "m.json")])
        assert rc == 2

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
