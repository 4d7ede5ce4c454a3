import json
import math

import numpy as np
import pytest

from kallele import (
    Homozygosity,
    MutationParams,
    StudySchemaError,
    StudySpec,
    cdf_panel,
    homozygosity,
    instability_probability,
    mle_curve,
    mle_sigma,
    monotone_ci,
    parse_frequencies,
    run_study,
)
from kallele import density, inference, study
from kallele.density import cdf_homozygosity, pool_for_sigma_range


@pytest.fixture(scope="module")
def curve_pool():
    theta = MutationParams.symmetric(4.8, 4)
    return pool_for_sigma_range(theta, 100_000, 5, sigma_lo=-1e5, sigma_hi=1e5)


class TestMleCurve:
    def test_monotone_nonincreasing(self, curve_pool):
        grid = np.linspace(0.26, 0.5, 40).tolist()
        rows = mle_curve(grid, curve_pool)
        finite = [r["sigma_hat"] for r in rows if r["status"] == "converged"]
        sigmas = [r["sigma_hat"] for r in rows]
        assert len(finite) == len(rows)
        assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))

    def test_sweep_matches_cold_solves(self, curve_pool):
        grid = np.linspace(0.26, 0.5, 40).tolist()
        for row, hv in zip(mle_curve(grid, curve_pool), grid):
            cold = mle_sigma(Homozygosity(hv, 4), curve_pool)
            assert row["status"] == cold.status
            assert abs(row["sigma_hat"] - cold.sigma_hat) <= 2 * inference.BRACKET_TOL

    def test_statuses_preserved_near_floor(self, curve_pool):
        rows = mle_curve([0.2500001, 0.3], curve_pool)
        assert rows[0]["status"] == "unbounded_above"
        assert rows[0]["sigma_hat"] == math.inf
        assert rows[1]["status"] == "converged"

    def test_rejects_grid_below_floor(self, curve_pool):
        with pytest.raises(ValueError, match="1/k"):
            mle_curve([0.2, 0.3], curve_pool)

    def test_rejects_unsorted(self, curve_pool):
        with pytest.raises(ValueError, match="sorted"):
            mle_curve([0.4, 0.3], curve_pool)


class TestSamplingDistribution:
    def test_null_centered(self, tmp_path):
        spec = StudySpec(
            kind="sampling_dist",
            parameters={"k": 4, "theta": 5.0, "sigma": 0.0, "n_datasets": 200, "pool_n": 30_000},
            seed=8,
            out=str(tmp_path),
        )
        with open(run_study(spec)["table"]) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert len(rows) == 200
        sigmas = np.asarray([float(sigma) for _, sigma, status in rows if status == "converged"])
        assert len(sigmas) >= 195
        assert abs(np.median(sigmas)) < 3.0 * sigmas.std() / math.sqrt(len(sigmas))


class TestInstabilityProbability:
    def test_region_definitions_k10(self):
        # epsilon = 0.09 at k = 10: hetero region (0.1, 0.19), homo (0.91, 1)
        rows = instability_probability(10, 5.0, [5.0], 0.09, 400, seed=3)
        assert rows[0]["sigma"] == 5.0
        assert 0.0 <= rows[0]["hetero_hit_fraction"] <= 1.0
        assert rows[0]["hetero_method"] == "rejection"

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            instability_probability(10, 5.0, [5.0], 0.95, 100, seed=1)
        with pytest.raises(ValueError, match="epsilon"):
            instability_probability(10, 5.0, [5.0], 0.0, 100, seed=1)

    def test_neutral_limits_match_pool_probabilities(self):
        rows = instability_probability(10, 5.0, [0.0], 0.09, 3000, seed=4)
        pool = pool_for_sigma_range(MutationParams.symmetric(5.0, 10), 200_000, 6)
        het = cdf_homozygosity(pool, 0.0, Homozygosity(0.19, 10)) - cdf_homozygosity(
            pool, 0.0, Homozygosity(0.1 + 1e-12, 10)
        )
        hom = cdf_homozygosity(pool, 0.0, Homozygosity(1.0, 10)) - cdf_homozygosity(
            pool, 0.0, Homozygosity(0.91, 10)
        )
        assert rows[0]["hetero_hit_fraction"] == pytest.approx(het, abs=0.03)
        assert rows[0]["homo_hit_fraction"] == pytest.approx(hom, abs=0.01)
        assert rows[0]["hetero_hit_fraction"] > rows[0]["homo_hit_fraction"]


class TestCdfPanel:
    def test_summary_matches_ci_endpoints(self):
        theta = MutationParams.symmetric(4.8, 4)
        pool = pool_for_sigma_range(theta, 150_000, 7, sigma_lo=-500.0, sigma_hi=2000.0)
        h = homozygosity(parse_frequencies("lyme"))
        iv = monotone_ci(h, pool, 0.025, 0.025)
        hist, summary = cdf_panel(h, pool, [iv.lower, iv.upper])
        assert summary[0]["F_at_h"] == pytest.approx(0.025, abs=1e-4)
        assert summary[1]["F_at_h"] == pytest.approx(0.975, abs=1e-4)

    def test_homozygosity_of_another_k_raises(self, curve_pool):
        with pytest.raises(ValueError, match="k=5"):
            cdf_panel(Homozygosity(0.22, 5), curve_pool, [0.0])

    def test_histogram_mass_sums_to_one(self, curve_pool):
        h = Homozygosity(0.3, 4)
        hist, _ = cdf_panel(h, curve_pool, [0.0, 40.0], bins=30)
        by_sigma = {}
        for row in hist:
            by_sigma.setdefault(row["sigma"], 0.0)
            by_sigma[row["sigma"]] += row["mass"]
        for total in by_sigma.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_neutral_panel_equals_pool_histogram(self, curve_pool):
        h = Homozygosity(0.3, 4)
        hist, _ = cdf_panel(h, curve_pool, [0.0], bins=25)
        edges = np.linspace(0.25, 1.0, 26)
        w = np.exp(curve_pool.b - curve_pool.b.max())
        w /= w.sum()
        ref, _ = np.histogram(curve_pool.h, bins=edges, weights=w)
        got = np.asarray([r["mass"] for r in hist])
        assert np.allclose(got, ref, atol=1e-12)


    def test_one_weight_pass_per_sigma(self, curve_pool, monkeypatch):
        # F at h comes from the weights the panel histograms, with
        # cdf_homozygosity's bits, not from a second pass.
        calls = []
        real = density._weights

        def counting(base, stat, sigma):
            calls.append(sigma)
            return real(base, stat, sigma)

        monkeypatch.setattr(density, "_weights", counting)
        monkeypatch.setattr(study, "_weights", counting)
        h = Homozygosity(0.3, 4)
        sigmas = [-20.0, 0.0, 35.1, 300.0]
        _, summary = cdf_panel(h, curve_pool, sigmas)
        assert calls == sigmas
        monkeypatch.undo()
        assert [r["F_at_h"] for r in summary] == [cdf_homozygosity(curve_pool, s, h) for s in sigmas]

class TestRunStudy:
    def test_mle_curve_study(self, tmp_path):
        spec = StudySpec(
            kind="mle_curve",
            parameters={"k": 4, "theta": 4.8, "h_grid": [0.27, 0.3, 0.35], "pool_n": 20_000},
            seed=11,
            out=str(tmp_path / "out"),
        )
        outputs = run_study(spec)
        table = (tmp_path / "out" / "mle_curve.csv").read_text()
        assert table.splitlines()[0] == "h,sigma_hat,status"
        assert len(table.splitlines()) == 4
        sidecar = json.loads((tmp_path / "out" / "mle_curve_spec.json").read_text())
        assert sidecar["seed"] == 11
        assert "table" in outputs

    def test_byte_identical_replay(self, tmp_path):
        def run(where):
            spec = StudySpec(
                kind="instability_prob",
                parameters={"k": 4, "theta": 5.0, "sigma_grid": [2.0, 6.0], "epsilon": 0.2, "n_per_sigma": 300},
                seed=13,
                out=str(where),
            )
            run_study(spec)
            return (where / "instability_prob.csv").read_bytes()

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(StudySchemaError, match="kind"):
            StudySpec(kind="nope", parameters={}, seed=1, out=str(tmp_path))

    def test_missing_parameters_listed(self, tmp_path):
        spec = StudySpec(kind="mle_curve", parameters={"k": 4}, seed=1, out=str(tmp_path / "x"))
        with pytest.raises(StudySchemaError) as err:
            run_study(spec)
        assert "theta" in err.value.fields

    def test_empty_grid_rejected(self, tmp_path):
        spec = StudySpec(
            kind="instability_prob",
            parameters={"k": 4, "theta": 5.0, "sigma_grid": [], "epsilon": 0.2},
            seed=1,
            out=str(tmp_path / "y"),
        )
        with pytest.raises(StudySchemaError, match="empty"):
            run_study(spec)

    def test_default_grid_at_k2_names_h_grid(self, tmp_path):
        # From 1/k + 0.002 to 0.5 leaves no default grid at k = 2.
        spec = StudySpec(kind="mle_curve", parameters={"k": 2, "theta": 1.0}, seed=1, out=str(tmp_path))
        with pytest.raises(StudySchemaError, match="h_grid") as err:
            run_study(spec)
        assert err.value.fields == ["h_grid"]

    def test_short_posterior_chain_rejected_before_the_pool(self, tmp_path, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("the pool was built before the chain length was checked")

        monkeypatch.setattr(inference, "pool_for_sigma_range", not_reached)
        spec = StudySpec(
            kind="posterior_hist",
            parameters={"data": "lyme", "chain_length": 1500, "fix_theta": 4.8},
            seed=1,
            out=str(tmp_path),
        )
        with pytest.raises(ValueError, match="1000 retained draws"):
            run_study(spec)

    @pytest.mark.parametrize(
        "kind, unknown, params",
        [
            ("mle_curve", ["pool_size"], {"k": 4, "theta": 4.8, "pool_size": 1000}),
            ("bootstrap_hist", ["bins"], {"k": 4, "theta": 4.8, "sigma": 1.0, "m": 100, "bins": 0}),
            ("instability_prob", ["n_datasets", "sigma"],
             {"k": 4, "theta": 5.0, "sigma_grid": [1.0], "epsilon": 0.2, "sigma": 1.0, "n_datasets": 5}),
            ("posterior_hist", ["k"], {"data": "lyme", "chain_length": 3000, "k": 4}),
        ],
    )
    def test_unknown_parameters_rejected_before_anything_runs(self, tmp_path, kind, unknown, params):
        spec = StudySpec(kind=kind, parameters=params, seed=1, out=str(tmp_path / "u"))
        with pytest.raises(StudySchemaError, match="unknown parameters") as err:
            run_study(spec)
        assert err.value.fields == unknown
        assert not (tmp_path / "u").exists()

    def test_grid_points_next_to_h_grid_rejected(self, tmp_path):
        spec = StudySpec(kind="mle_curve", parameters={"k": 4, "theta": 4.8, "h_grid": [0.3], "grid_points": 5},
                         seed=1, out=str(tmp_path))
        with pytest.raises(StudySchemaError, match="not both") as err:
            run_study(spec)
        assert err.value.fields == ["grid_points"]

    def test_short_chain_message_names_chain_length_and_burn_in(self, tmp_path):
        spec = StudySpec(kind="posterior_hist", parameters={"data": "lyme", "chain_length": 100}, seed=1, out=str(tmp_path))
        with pytest.raises(StudySchemaError, match="chain_length must exceed the burn-in of 1000") as err:
            run_study(spec)
        assert err.value.fields == ["chain_length"] and "-900" not in str(err.value)

    @pytest.mark.parametrize("kind, name", [("sampling_dist", "n_datasets"), ("bootstrap_hist", "m")])
    def test_too_few_replicates_names_the_field(self, tmp_path, kind, name):
        spec = StudySpec(kind=kind, parameters={"k": 4, "theta": 4.8, "sigma": 1.0, name: 99}, seed=1, out=str(tmp_path))
        with pytest.raises(StudySchemaError, match=f"{name} must be at least 100") as err:
            run_study(spec)
        assert err.value.fields == [name]

    def test_unsorted_grid_rejected(self, tmp_path):
        spec = StudySpec(
            kind="instability_prob",
            parameters={"k": 4, "theta": 5.0, "sigma_grid": [6.0, 2.0], "epsilon": 0.2},
            seed=1,
            out=str(tmp_path / "z"),
        )
        with pytest.raises(StudySchemaError, match="sorted"):
            run_study(spec)

    @pytest.mark.parametrize(
        "kind, name, params",
        [
            ("instability_prob", "sigma_grid", {"k": 4, "theta": 5.0, "sigma_grid": 5, "epsilon": 0.2}),
            ("mle_curve", "h_grid", {"k": 4, "theta": 5.0, "h_grid": ["0.3"]}),
            ("cdf_panel", "sigma_values", {"k": 4, "theta": 5.0, "h": 0.3, "sigma_values": {"a": 1}}),
            ("mle_curve", "k", {"k": [1], "theta": 5.0}),
            ("mle_curve", "k", {"k": math.inf, "theta": 5.0}),
            ("mle_curve", "theta", {"k": 4, "theta": "5"}),
            ("mle_curve", "pool_n", {"k": 4, "theta": 5.0, "pool_n": None}),
            ("sampling_dist", "sigma", {"k": 4, "theta": 5.0, "sigma": [1.0]}),
            ("bootstrap_hist", "m", {"k": 4, "theta": 5.0, "sigma": 1.0, "m": True}),
            ("cdf_panel", "h", {"k": 4, "theta": 5.0, "h": [0.3], "sigma_values": [0.0]}),
            ("instability_prob", "epsilon", {"k": 4, "theta": 5.0, "sigma_grid": [1.0], "epsilon": {}}),
            ("posterior_hist", "chain_length", {"data": "lyme", "chain_length": "3000"}),
            ("posterior_hist", "prior_theta",
             {"data": "lyme", "chain_length": 3000, "prior_theta": 5, "prior_sigma": [0, 100]}),
            ("posterior_hist", "prior_sigma",
             {"data": "lyme", "chain_length": 3000, "prior_theta": [0, 5], "prior_sigma": [0, 1, 2]}),
            ("posterior_hist", "data", {"data": 5, "chain_length": 3000}),
            # int() would truncate a count, or run an empty grid or histogram.
            ("mle_curve", "k", {"k": 4.5, "theta": 4.8, "h_grid": [0.3]}),
            ("mle_curve", "pool_n", {"k": 4, "theta": 4.8, "h_grid": [0.3], "pool_n": 20_000.5}),
            ("mle_curve", "grid_points", {"k": 4, "theta": 4.8, "grid_points": 2.5}),
            ("mle_curve", "grid_points", {"k": 4, "theta": 4.8, "grid_points": 0}),
            ("sampling_dist", "n_datasets", {"k": 4, "theta": 4.8, "sigma": 1.0, "n_datasets": 100.5}),
            ("bootstrap_hist", "m", {"k": 4, "theta": 4.8, "sigma": 1.0, "m": 150.5}),
            ("cdf_panel", "bins", {"k": 4, "theta": 4.8, "h": 0.3, "sigma_values": [0.0], "bins": 2.5}),
            ("cdf_panel", "bins", {"k": 4, "theta": 4.8, "h": 0.3, "sigma_values": [0.0], "bins": 0}),
            ("posterior_hist", "chain_length", {"data": "lyme", "chain_length": 3000.5}),
            ("instability_prob", "n_per_sigma",
             {"k": 4, "theta": 5.0, "sigma_grid": [1.0], "epsilon": 0.2, "n_per_sigma": 10.5}),
        ],
    )
    def test_mistyped_list_is_schema_error(self, tmp_path, kind, name, params):
        spec = StudySpec(kind=kind, parameters=params, seed=1, out=str(tmp_path / "t"))
        with pytest.raises(StudySchemaError, match=name) as err:
            run_study(spec)
        assert err.value.fields == [name]

    def test_mistyped_seed_is_schema_error(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "mle_curve", "parameters": {"k": 4, "theta": 2.0},
                                    "seed": [3], "out": str(tmp_path / "o")}))
        with pytest.raises(StudySchemaError, match="seed") as err:
            StudySpec.from_json(str(path))
        assert err.value.fields == ["seed"]

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_fractional_or_negative_seed_is_schema_error(self, tmp_path, seed):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "mle_curve", "parameters": {"k": 4, "theta": 2.0},
                                    "seed": seed, "out": str(tmp_path / "o")}))
        with pytest.raises(StudySchemaError, match="seed") as err:
            StudySpec.from_json(str(path))
        assert err.value.fields == ["seed"]

    def test_spec_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "mle_curve", "parameters": {"k": 4, "theta": 2.0}, "seed": 3, "out": str(tmp_path / "o")}))
        spec = StudySpec.from_json(str(path))
        assert spec.kind == "mle_curve"

    def test_spec_from_json_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mle_curve"}))
        with pytest.raises(StudySchemaError) as err:
            StudySpec.from_json(str(path))
        assert set(err.value.fields) == {"parameters", "seed", "out"}

    def test_cdf_panel_study(self, tmp_path):
        spec = StudySpec(
            kind="cdf_panel",
            parameters={"k": 4, "theta": 4.8, "h": 0.288, "sigma_values": [0.0, 17.25], "pool_n": 20_000},
            seed=21,
            out=str(tmp_path / "panel"),
        )
        outputs = run_study(spec)
        summary = (tmp_path / "panel" / "cdf_panel_summary.csv").read_text().splitlines()
        assert summary[0] == "sigma,q025,q975,F_at_h"
        assert len(summary) == 3

    def test_posterior_hist_study(self, tmp_path):
        spec = StudySpec(
            kind="posterior_hist",
            parameters={
                "data": "lyme",
                "chain_length": 3000,
                "fix_theta": 4.8,
                "pool_n": 15_000,
            },
            seed=41,
            out=str(tmp_path / "post"),
        )
        outputs = run_study(spec)
        chain_csv = (tmp_path / "post" / "posterior_chain.csv").read_text().splitlines()
        assert chain_csv[0] == "iteration,theta,sigma,log_posterior,accepted"
        assert len(chain_csv) == 3000 - 1000 + 1  # burn-in discarded, plus header
        summary = json.loads((tmp_path / "post" / "posterior_summary.json").read_text())
        assert summary["chain"]["theta_fixed"] == 4.8
        assert summary["credible_interval"]["level"] == 0.95

    @pytest.mark.parametrize(
        "side, expected",
        [
            ({"prior_sigma": [-200, 1000]}, [[0.0, 50.0], [-200, 1000]]),
            ({"prior_theta": [1, 10]}, [[1, 10], [0.0, 1000.0]]),
        ],
    )
    def test_posterior_hist_keeps_a_lone_prior_side(self, tmp_path, side, expected):
        # the side left out takes its default, as the CLI's flags do
        spec = StudySpec(
            kind="posterior_hist",
            parameters={"data": "lyme", "chain_length": 2100, "fix_theta": 4.8, "pool_n": 5000, **side},
            seed=3,
            out=str(tmp_path / "post"),
        )
        run_study(spec)
        summary = json.loads((tmp_path / "post" / "posterior_summary.json").read_text())
        assert summary["chain"]["prior_bounds"] == expected
        assert summary["chain"]["proposal_spec"]["sigma"]["truncated_to"] == expected[1]

    def test_bootstrap_hist_study(self, tmp_path):
        spec = StudySpec(
            kind="bootstrap_hist",
            parameters={"k": 4, "theta": 4.8, "sigma": 20.0, "m": 120, "pool_n": 15_000},
            seed=31,
            out=str(tmp_path / "boot"),
        )
        outputs = run_study(spec)
        summary = json.loads((tmp_path / "boot" / "bootstrap_summary.json").read_text())
        assert summary["m"] == 120
        assert "percentile_interval" in summary
