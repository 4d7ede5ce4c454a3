import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from kallele import (
    MutationParams,
    RejectionStarvedError,
    SamplerConfig,
    SelectionModel,
    sample_neutral,
    sample_selection,
)
from kallele import sampler
from kallele.density import g_sigma, g_sigma_se, pool_for_sigma_range
from kallele.sampler import _selection_arrays, write_samples_jsonl

import oracles


def h_of(points) -> np.ndarray:
    arr = np.asarray([p.values for p in points])
    return np.einsum("ij,ij->i", arr, arr)


class TestSampleNeutral:
    def test_coordinate_means(self):
        theta = MutationParams.symmetric(5.0, 4)
        pts = sample_neutral(theta, 20_000, seed=3)
        arr = np.asarray([p.values for p in pts])
        se = arr.std(axis=0) / math.sqrt(len(pts))
        assert np.all(np.abs(arr.mean(axis=0) - 0.25) < 3.5 * se)

    def test_second_moment_theta22(self):
        theta = MutationParams.general([2.0, 2.0])
        pts = sample_neutral(theta, 50_000, seed=4)
        x1sq = np.asarray([p.values[0] ** 2 for p in pts])
        expected = oracles.dirichlet_second_moment(2.0, 4.0)
        assert expected == pytest.approx(0.3)
        assert x1sq.mean() == pytest.approx(expected, abs=4 * x1sq.std() / math.sqrt(len(pts)))

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            sample_neutral(MutationParams.symmetric(2.0, 2), 0, seed=1)

    def test_deterministic(self):
        theta = MutationParams.symmetric(5.0, 4)
        a = sample_neutral(theta, 50, seed=9)
        b = sample_neutral(theta, 50, seed=9)
        assert a == b


class TestSampleSelection:
    def test_sigma_zero_accepts_everything(self):
        theta = MutationParams.symmetric(4.8, 4)
        pts, report = sample_selection(theta, 0.0, 2000, seed=5)
        assert report.method == "rejection"
        assert report.acceptance_rate == 1.0
        neutral = sample_neutral(theta, 2000, seed=6)
        stat = ks_2samp(h_of(pts), h_of(neutral))
        assert stat.pvalue > 0.001

    def test_rejection_and_mh_agree(self):
        # same target, two routes; homozygosity distributions must match
        theta = MutationParams.symmetric(4.8, 4)
        rej, r1 = sample_selection(theta, 20.0, 5000, seed=7)
        mh, r2 = sample_selection(
            theta, 20.0, 5000, seed=8, config=SamplerConfig(force_method="independence-mh")
        )
        assert r1.method == "rejection"
        assert r2.method == "independence-mh"
        stat = ks_2samp(h_of(rej), h_of(mh))
        assert stat.pvalue > 0.001

    def test_mean_h_matches_pool_estimate(self):
        theta = MutationParams.symmetric(4.8, 4)
        pts, _ = sample_selection(theta, 20.0, 20_000, seed=11)
        h = h_of(pts)
        pool = pool_for_sigma_range(theta, 200_000, 12, sigma_lo=0.0, sigma_hi=30.0)
        g = g_sigma(pool, 20.0)
        se = math.hypot(h.std() / math.sqrt(h.size), g_sigma_se(pool, 20.0))
        assert abs(h.mean() - g) < 4 * se

    def test_concentration_increases_with_sigma(self):
        # mean |H - 1/k| falls as intensity rises through decades
        theta = MutationParams.symmetric(4.8, 4)
        devs = []
        for sigma in (10.0, 100.0, 1000.0):
            pts, _ = sample_selection(theta, sigma, 3000, seed=7)
            devs.append(float(np.abs(h_of(pts) - 0.25).mean()))
        assert devs[0] > devs[1] > devs[2]

    def test_extreme_sigma_concentrates_at_centroid(self):
        theta = MutationParams.symmetric(4.8, 4)
        pts, report = sample_selection(theta, 1000.0, 2000, seed=42)
        arr = np.asarray([p.values for p in pts])
        frac = (np.abs(arr - 0.25).max(axis=1) < 0.05).mean()
        assert report.method == "independence-mh"
        assert frac >= 0.95

    def test_negative_sigma_raises_homozygosity(self):
        theta = MutationParams.symmetric(4.8, 4)
        neutral_mean = h_of(sample_neutral(theta, 3000, seed=7)).mean()
        for sigma in (-5.0, -60.0):
            pts, _ = sample_selection(theta, sigma, 3000, seed=7)
            assert h_of(pts).mean() > neutral_mean

    def test_method_switch_thresholds(self):
        theta = MutationParams.symmetric(5.0, 4)
        _, r1 = sample_selection(theta, 50.0, 200, seed=1)
        assert r1.method == "rejection"
        _, r2 = sample_selection(theta, 50.1, 200, seed=1)
        assert r2.method == "independence-mh"
        _, r3 = sample_selection(theta, -10.0, 200, seed=1)
        assert r3.method == "rejection"
        _, r4 = sample_selection(theta, -10.1, 200, seed=1)
        assert r4.method == "independence-mh"

    def test_rejection_starvation_aborts(self, monkeypatch):
        monkeypatch.setattr(sampler, "MAX_REJECTION_PROPOSALS", 200_000)
        monkeypatch.setattr(sampler, "MIN_ACCEPTANCE", 1e-3)
        theta = MutationParams.symmetric(5.0, 10)
        cfg = SamplerConfig(force_method="rejection")
        with pytest.raises(RejectionStarvedError, match="acceptance rate"):
            sample_selection(theta, -40.0, 100, seed=3, config=cfg)

    def test_rejection_that_cannot_finish_stops_early(self, monkeypatch):
        # acceptance about 0.10, far above MIN_ACCEPTANCE: after the first
        # batch (40k proposals, past the 10k budget) the 16k draws still
        # missing need some 160k more proposals
        monkeypatch.setattr(sampler, "MAX_REJECTION_PROPOSALS", 10_000)
        theta = MutationParams.symmetric(4.8, 4)
        cfg = SamplerConfig(force_method="rejection")
        with pytest.raises(RejectionStarvedError, match="acceptance rate .* would need about"):
            sample_selection(theta, 35.1, 20_000, seed=3, config=cfg)

    def test_deterministic_given_seed(self):
        theta = MutationParams.symmetric(4.8, 4)
        a, ra = sample_selection(theta, 80.0, 500, seed=21)
        b, rb = sample_selection(theta, 80.0, 500, seed=21)
        assert a == b
        assert ra == rb

    def test_general_matrix_via_mh(self):
        theta = MutationParams.symmetric(4.8, 4)
        model = SelectionModel.from_matrix(20.0 * np.eye(4))
        pts, report = sample_selection(theta, model, 4000, seed=13)
        assert report.method == "independence-mh"
        scalar, _ = sample_selection(theta, 20.0, 4000, seed=14)
        stat = ks_2samp(h_of(pts), h_of(scalar))
        assert stat.pvalue > 0.001

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            sample_selection(MutationParams.symmetric(2.0, 2), 1.0, 0, seed=1)

    def test_report_counts(self):
        theta = MutationParams.symmetric(4.8, 4)
        pts, report = sample_selection(theta, 30.0, 500, seed=2)
        assert len(pts) == 500
        assert report.n_requested == 500
        assert report.n_proposals >= 500
        assert 0.0 < report.acceptance_rate <= 1.0


class TestSamplesJsonl:
    def test_write(self, tmp_path):
        import json

        theta = MutationParams.symmetric(3.0, 3)
        pts = sample_neutral(theta, 20, seed=1)
        path = tmp_path / "samples.jsonl"
        write_samples_jsonl(pts, str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 20
        row = json.loads(lines[7])
        assert row["index"] == 7
        assert row["frequencies"] == list(pts[7].values)
