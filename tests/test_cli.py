import json
import time
import warnings

import pytest

import kallele.cli
from kallele import MutationParams, SimplexPoint
from kallele.cli import main
from kallele.sampler import RejectionStarvedError, sample_neutral, sample_selection, write_samples_jsonl

# The four routes of `kallele simulate` at k = 4, theta = 4.8: neutral,
# rejection, MH with a symmetric Dirichlet proposal, MH with the vertex mixture.
ROUTE_SIGMAS = ["0", "35.1", "-10", "200", "-200"]


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

    @pytest.mark.parametrize("sigma", ROUTE_SIGMAS)
    def test_builds_no_simplex_point(self, tmp_path, monkeypatch, sigma):
        built = []
        init = SimplexPoint.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SimplexPoint, "__init__", counting)
        code = run_cli("simulate", "--k", "4", "--theta", "4.8", f"--sigma={sigma}", "--n", "300",
                       "--seed", "2", "--out", str(tmp_path / "s.jsonl"))
        assert code == 0
        assert built == []

    @pytest.mark.parametrize("sigma", ROUTE_SIGMAS)
    def test_file_equals_public_sampler_output(self, tmp_path, sigma):
        # At sigma = 200, n = 12 000 takes about 72k MH steps, so the chain's
        # state is carried across the 2^16-proposal block.
        theta = MutationParams.symmetric(4.8, 4)
        if float(sigma) == 0.0:
            points = sample_neutral(theta, 12_000, 9)
        else:
            points = sample_selection(theta, float(sigma), 12_000, 9)[0]
        ref, out = tmp_path / "ref.jsonl", tmp_path / "cli.jsonl"
        write_samples_jsonl(points, str(ref))
        code = run_cli("simulate", "--k", "4", "--theta", "4.8", f"--sigma={sigma}", "--n", "12000",
                       "--seed", "9", "--out", str(out))
        assert code == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_run_records_share_sampler_keys(self, tmp_path):
        keys, kinds = [], []
        for sigma in ROUTE_SIGMAS:
            out = tmp_path / "r.jsonl"
            assert run_cli("simulate", "--k", "4", "--theta", "4.8", f"--sigma={sigma}", "--n", "50",
                           "--seed", "4", "--out", str(out)) == 0
            record = json.loads((tmp_path / "r.jsonl.run.json").read_text())["outputs"]["sampler"]
            keys.append(sorted(record))
            kinds.append(record["proposal_kind"])
        assert "flags" in keys[0] and "proposal_kind" in keys[0]
        assert keys == [keys[0]] * len(ROUTE_SIGMAS)
        assert kinds == [None, None, "vertex-mixture", "symmetric-dirichlet", "vertex-mixture"]

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
            "analyze", "--data", "lyme", "--method", "monotone-ci", "--level", "0.95",
            "--fix-theta", "4.8", "--pool-size", "50000", "--seed", "5",
            "--out", str(tmp_path / "ci.json"),
        )
        assert code == 0
        record = json.loads((tmp_path / "ci.json").read_text())
        iv = record["outputs"]["interval"]
        assert iv["lower"] < 0 < iv["upper"]
        assert iv["level"] == pytest.approx(0.95)
        assert record["flags"]["level"] == 0.95

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

    def test_theta_box_below_zero_is_one_line_exit_2(self, capsys):
        # Its proposals below 0 would all land on one atom near theta = 0.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("analyze", "--data", "lyme", "--method", "posterior",
                           "--prior-theta", "-2", "-1", "--seed", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "theta >= 0" in err
        assert not caught

    @pytest.mark.parametrize(
        "argv",
        [
            ("--method", "mle", "--pool-size", "-5"),
            ("--method", "mle", "--pool-size", "0"),
            ("--method", "bootstrap", "--fix-theta", "4.8", "--sigma", "35.1", "--m", "100",
             "--pool-size", "2000", "--level", "1.5"),
            ("--method", "bootstrap", "--fix-theta", "4.8", "--sigma", "35.1", "--m", "100",
             "--pool-size", "2000", "--level", "0"),
            pytest.param(("--method", "posterior", "--fix-theta", "4.8", "--chain-length", "1500"),
                         id="chain-length-below-retained"),
        ],
    )
    def test_bad_value_is_one_line_exit_2(self, monkeypatch, capsys, argv):
        def not_reached(*args, **kwargs):
            raise AssertionError("a pool was built before the bad value was checked")

        monkeypatch.setattr(kallele.inference, "pool_for_sigma_range", not_reached)
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

    @pytest.mark.parametrize("argv", [
        ["--method", "monotone-ci", "--level", "1.5"],
        ["--method", "monotone-ci", "--level", "1"],
        ["--method", "bootstrap", "--m", "50"],
    ])
    def test_bad_alpha_or_m_rejected_before_the_pilot(self, monkeypatch, capsys, argv):
        # the pilot joint MLE and the pool after it would only be thrown away
        calls = []
        monkeypatch.setattr(kallele.cli, "mle_joint", lambda *args, **kwargs: calls.append(args))
        code = run_cli("analyze", "--data", "lyme", "--seed", "1", *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []

    def test_bad_chain_csv_rejected_before_the_chain(self, tmp_path, monkeypatch, capsys):
        def not_reached(*args, **kwargs):
            raise AssertionError("the chain ran before --chain-csv was checked")

        monkeypatch.setattr(kallele.cli, "posterior_sample", not_reached)
        code = run_cli("analyze", "--data", "lyme", "--method", "posterior", "--chain-length", "2000",
                       "--pool-size", "20000", "--seed", "1", "--chain-csv", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err

    @pytest.mark.parametrize("method", ["mle", "monotone-ci", "bootstrap"])
    def test_chain_csv_needs_posterior(self, tmp_path, monkeypatch, capsys, method):
        def not_reached(*args, **kwargs):
            raise AssertionError("work started before --chain-csv was checked")

        for name in ("mle_joint", "monotone_ci", "bootstrap", "pool_for_sigma_range"):
            monkeypatch.setattr(kallele.cli, name, not_reached)
        csv = tmp_path / "x.csv"
        code = run_cli("analyze", "--data", "lyme", "--method", method, "--fix-theta", "4.8", "--sigma", "35.1",
                       "--pool-size", "5000", "--seed", "1", "--chain-csv", str(csv))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--chain-csv" in err
        assert not csv.exists()

    def test_alpha_flag_is_gone(self):
        # monotone-ci takes its level from --level, as bootstrap and posterior do
        with pytest.raises(SystemExit) as err:
            run_cli("analyze", "--data", "lyme", "--method", "monotone-ci", "--alpha", "0.05")
        assert err.value.code == 2

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
            ("mle_curve", "k", {"k": 4.5, "theta": 4.8, "h_grid": [0.3]}),
            ("cdf_panel", "bins", {"k": 4, "theta": 4.8, "h": 0.3, "sigma_values": [0.0], "bins": 0}),
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
    @pytest.mark.parametrize("argv", [
        ["simulate", "--k", "4", "--theta", "4.8", "--n", "10"],
        ["analyze", "--data", "lyme", "--method", "mle"],
    ])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, argv):
        code = run_cli(*argv, "--seed", "-1", "--out", str(tmp_path / "o.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed") and err.count("\n") == 1

    def test_rejection_starved_is_one_line_exit_2(self, tmp_path, monkeypatch, capsys):
        def starved(*args, **kwargs):
            raise RejectionStarvedError("rejection acceptance rate 1.0e-07 after 10000000 proposals")

        monkeypatch.setattr(kallele.cli, "_selection_arrays", starved)
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


    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--k", "4", "--theta", "4.8", "--sigma", "35.1", "--n", "10", "--seed", "1",
             "--out", "{out}"),
            ("analyze", "--data", "lyme", "--method", "bootstrap", "--fix-theta", "4.8", "--sigma", "35.1",
             "--m", "200", "--pool-size", "2000", "--seed", "1", "--out", "{out}"),
            ("study", "{spec}", "--out", "{out}"),
        ],
    )
    def test_missing_out_parent_fails_before_the_work(self, tmp_path, monkeypatch, capsys, argv):
        def not_reached(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        for name in ("bootstrap", "_selection_arrays", "_neutral_arrays", "run_study"):
            monkeypatch.setattr(kallele.cli, name, not_reached)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "mle_curve", "parameters": {"k": 4, "theta": 4.8},
                                    "seed": 1, "out": str(tmp_path / "study")}))
        out = tmp_path / "missing" / "out.json"
        code = run_cli(*(a.format(out=out, spec=spec) for a in argv))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file or directory" in err and str(out.parent) in err
