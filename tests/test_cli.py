import json
import time
import warnings

import pytest

import kallele.cli
from kallele.cli import main
from kallele.sampler import RejectionStarvedError


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_basic_run(self, tmp_path, capsys):
        out = tmp_path / "samples.jsonl"
        code = run_cli(
            "simulate", "--k", "4", "--theta", "4.8", "--sigma", "35.1",
            "--n", "200", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 200
        record = json.loads((tmp_path / "samples.jsonl.run.json").read_text())
        assert record["flags"]["seed"] == 7
        assert record["outputs"]["sampler"]["method"] == "rejection"
        assert "method=rejection" in capsys.readouterr().out

    def test_neutral_when_sigma_zero(self, tmp_path):
        out = tmp_path / "n.jsonl"
        code = run_cli("simulate", "--k", "3", "--theta", "2.0", "--n", "50", "--seed", "1", "--out", str(out))
        assert code == 0
        record = json.loads((tmp_path / "n.jsonl.run.json").read_text())
        assert record["outputs"]["sampler"]["method"] == "neutral"

    def test_zero_n_is_usage_error(self, tmp_path, capsys):
        code = run_cli("simulate", "--k", "4", "--theta", "4.8", "--n", "0", "--seed", "1",
                       "--out", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_seed_drawn_and_recorded_when_omitted(self, tmp_path):
        out = tmp_path / "s.jsonl"
        code = run_cli("simulate", "--k", "3", "--theta", "2.0", "--n", "10", "--out", str(out))
        assert code == 0
        record = json.loads((tmp_path / "s.jsonl.run.json").read_text())
        assert isinstance(record["flags"]["seed"], int)

    @pytest.mark.parametrize("k, sigma, n", [(4, -5000, 10), (4, 0, 1000)])
    def test_tiny_theta_draws_interior_points(self, tmp_path, k, sigma, n):
        out = tmp_path / "t.jsonl"
        code = run_cli("simulate", "--k", str(k), "--theta", "0.01", "--sigma", str(sigma),
                       "--n", str(n), "--seed", "1", "--out", str(out))
        assert code == 0
        rows = [json.loads(line)["frequencies"] for line in out.read_text().splitlines()]
        assert len(rows) == n and all(v > 0 for row in rows for v in row)

    def test_uninteriorizable_theta_is_one_line_exit_2(self, tmp_path, capsys):
        started = time.perf_counter()
        code = run_cli("simulate", "--k", "20", "--theta", "0.01", "--sigma", "50", "--n", "100",
                       "--seed", "1", "--out", str(tmp_path / "t.jsonl"))
        assert time.perf_counter() - started < 10.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Dirichlet concentration") and err.count("\n") == 1

    def test_replay_reproduces_samples(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("simulate", "--k", "4", "--theta", "4.8", "--sigma", "12", "--n", "50", "--seed", "3", "--out", str(a))
        run_cli("simulate", "--k", "4", "--theta", "4.8", "--sigma", "12", "--n", "50", "--seed", "3", "--out", str(b))
        assert a.read_text() == b.read_text()


class TestAnalyze:
    def test_mle_on_lyme(self, tmp_path, capsys):
        record_path = tmp_path / "run.json"
        code = run_cli(
            "analyze", "--data", "lyme", "--method", "mle",
            "--pool-size", "30000", "--seed", "5", "--out", str(record_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "theta_hat" in out and "sigma_hat" in out
        record = json.loads(record_path.read_text())
        assert record["inputs"]["label"] == "lyme"
        assert record["outputs"]["mle"]["status"] == "converged"
        assert abs(record["outputs"]["mle"]["sigma_hat"] - 35.1) < 10

    def test_instability_status_is_success(self, tmp_path, capsys):
        data = tmp_path / "uniform.txt"
        data.write_text("0.25, 0.25, 0.25, 0.25\n")
        code = run_cli("analyze", "--data", str(data), "--method", "mle",
                       "--pool-size", "5000", "--seed", "1")
        assert code == 0
        assert "unbounded_above" in capsys.readouterr().out

    def test_monotone_ci_with_fixed_theta(self, tmp_path, capsys):
        code = run_cli(
            "analyze", "--data", "lyme", "--method", "monotone-ci", "--alpha", "0.05",
            "--fix-theta", "4.8", "--pool-size", "50000", "--seed", "5",
            "--out", str(tmp_path / "ci.json"),
        )
        assert code == 0
        record = json.loads((tmp_path / "ci.json").read_text())
        iv = record["outputs"]["interval"]
        assert iv["lower"] < 0 < iv["upper"]
        assert iv["level"] == pytest.approx(0.95)

    def test_bootstrap_explicit_params(self, tmp_path):
        code = run_cli(
            "analyze", "--data", "lyme", "--method", "bootstrap", "--m", "120",
            "--fix-theta", "4.8", "--sigma", "35.1", "--pool-size", "10000",
            "--seed", "5", "--out", str(tmp_path / "b.json"),
        )
        assert code == 0
        record = json.loads((tmp_path / "b.json").read_text())
        assert record["outputs"]["bootstrap"]["m"] == 120

    def test_posterior_fixed_theta(self, tmp_path, capsys):
        code = run_cli(
            "analyze", "--data", "kir", "--method", "posterior", "--fix-theta", "6.2",
            "--chain-length", "4000", "--pool-size", "15000", "--seed", "5",
            "--chain-csv", str(tmp_path / "chain.csv"), "--out", str(tmp_path / "p.json"),
        )
        assert code == 0
        record = json.loads((tmp_path / "p.json").read_text())
        assert record["outputs"]["posterior"]["chain"]["theta_fixed"] == 6.2
        # one pass at the start, then at least one per accepted move
        passes = record["outputs"]["posterior"]["pool_passes"]
        assert "pool_passes" not in record["outputs"]["posterior"]["chain"]
        assert 1 + round(record["outputs"]["posterior"]["chain"]["acceptance_rate"] * 4000) <= passes < 4000
        assert (tmp_path / "chain.csv").exists()

    def test_fixed_theta_outside_prior_box_is_usage_error(self, capsys):
        started = time.perf_counter()
        code = run_cli("analyze", "--data", "kir", "--method", "posterior", "--fix-theta", "60", "--seed", "1")
        elapsed = time.perf_counter() - started
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "prior box" in err
        assert elapsed < 1.0

    def test_bad_data_file_rejected(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("0.5, 0.6\n")
        code = run_cli("analyze", "--data", str(data), "--method", "mle")
        assert code == 2
        assert "deviating" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"frequencies": 5}, "must be a list"),
            ({"k": None, "frequencies": [0.5, 0.5]}, "must be an integer"),
            ({"k": "2", "frequencies": [0.5, 0.5]}, "must be an integer"),
            ({"frequencies": [0.5, None]}, "not a number"),
        ],
    )
    def test_malformed_json_dataset_is_usage_error(self, tmp_path, capsys, payload, message):
        data = tmp_path / "bad.json"
        data.write_text(json.dumps(payload))
        code = run_cli("analyze", "--data", str(data), "--method", "mle")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_reversed_prior_box_is_usage_error(self, capsys):
        code = run_cli("analyze", "--data", "lyme", "--method", "posterior",
                       "--prior-sigma", "10", "0", "--seed", "1")
        assert code == 2
        assert "lower < upper" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--method", "mle", "--pool-size", "-5"),
            ("--method", "mle", "--pool-size", "0"),
            ("--method", "bootstrap", "--fix-theta", "4.8", "--sigma", "35.1", "--m", "100",
             "--pool-size", "2000", "--level", "1.5"),
            ("--method", "bootstrap", "--fix-theta", "4.8", "--sigma", "35.1", "--m", "100",
             "--pool-size", "2000", "--level", "0"),
            ("--method", "bootstrap", "--fix-theta", "4.8", "--sigma", "35.1", "--m", "100",
             "--pool-size", "2000", "--threads", "-3"),
            ("--method", "bootstrap", "--fix-theta", "4.8", "--sigma", "35.1", "--m", "100",
             "--pool-size", "2000", "--threads", "0"),
        ],
    )
    def test_bad_value_is_one_line_exit_2(self, capsys, argv):
        code = run_cli("analyze", "--data", "lyme", "--seed", "1", *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_posterior_level_rejected_before_sampling(self, capsys):
        # At the default chain length and pool size, sampling first would take minutes.
        started = time.perf_counter()
        code = run_cli("analyze", "--data", "lyme", "--method", "posterior", "--level", "1.5", "--seed", "1")
        elapsed = time.perf_counter() - started
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert elapsed < 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit) as err:
            run_cli("analyze", "--data", "lyme", "--method", "magic")
        assert err.value.code == 2


class TestStudyCommand:
    def test_runs_spec(self, tmp_path, capsys):
        spec = {
            "kind": "mle_curve",
            "parameters": {"k": 4, "theta": 4.8, "h_grid": [0.28, 0.3], "pool_n": 10000},
            "seed": 3,
            "out": str(tmp_path / "study_out"),
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli("study", str(spec_path), "--out", str(tmp_path / "record.json"))
        assert code == 0
        assert (tmp_path / "study_out" / "mle_curve.csv").exists()
        assert (tmp_path / "record.json").exists()

    def test_record_closes_spec_file(self, tmp_path):
        spec = {"kind": "instability_prob",
                "parameters": {"k": 4, "theta": 5.0, "sigma_grid": [2.0], "epsilon": 0.2, "n_per_sigma": 50},
                "seed": 1, "out": str(tmp_path / "out")}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = run_cli("study", str(spec_path), "--out", str(tmp_path / "record.json"))
        assert code == 0
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_malformed_spec_lists_fields(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"kind": "mle_curve", "parameters": {}, "seed": 1}))
        code = run_cli("study", str(spec_path))
        assert code == 2
        assert "out" in capsys.readouterr().err

    def test_mistyped_field_is_schema_error(self, tmp_path, capsys):
        spec = {"kind": "instability_prob",
                "parameters": {"k": 10, "theta": 5.0, "sigma_grid": 5, "epsilon": 0.09},
                "seed": 1, "out": str(tmp_path / "out")}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli("study", str(spec_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "sigma_grid" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, name, params",
        [
            ("mle_curve", "k", {"k": [1], "theta": 4.8}),
            ("posterior_hist", "prior_theta",
             {"data": "lyme", "chain_length": 3000, "prior_theta": 5, "prior_sigma": [0, 100]}),
        ],
    )
    def test_mistyped_scalar_is_schema_error(self, tmp_path, capsys, kind, name, params):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": kind, "parameters": params, "seed": 1,
                                         "out": str(tmp_path / "out")}))
        code = run_cli("study", str(spec_path))
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    def test_missing_file(self, capsys):
        code = run_cli("study", "/nonexistent/spec.json")
        assert code == 2


class TestErrorMapping:
    def test_rejection_starved_is_one_line_exit_2(self, tmp_path, monkeypatch, capsys):
        def starved(*args, **kwargs):
            raise RejectionStarvedError("rejection acceptance rate 1.0e-07 after 10000000 proposals")

        monkeypatch.setattr(kallele.cli, "sample_selection", starved)
        code = run_cli("simulate", "--k", "4", "--theta", "4.8", "--sigma", "40", "--n", "10",
                       "--seed", "1", "--out", str(tmp_path / "x.jsonl"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rejection acceptance rate") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--k", "4", "--theta", "4.8", "--n", "10", "--seed", "1", "--out", "{dir}"),
            ("study", "{dir}"),
            ("analyze", "--data", "lyme", "--method", "monotone-ci", "--fix-theta", "4.8",
             "--pool-size", "2000", "--seed", "1", "--out", "{dir}"),
        ],
    )
    def test_directory_path_is_one_line_exit_2(self, tmp_path, capsys, argv):
        code = run_cli(*(a.format(dir=tmp_path) for a in argv))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err


class TestEnvOverrides:
    def test_pool_size_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KALLELE_POOL_SIZE", "8000")
        code = run_cli("analyze", "--data", "lyme", "--method", "monotone-ci",
                       "--fix-theta", "4.8", "--seed", "2", "--out", str(tmp_path / "r.json"))
        assert code == 0
        record = json.loads((tmp_path / "r.json").read_text())
        assert record["flags"]["pool_size"] == 8000
