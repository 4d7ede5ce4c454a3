import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp
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
from kallele.core import _dirichlet, derive_rng
from kallele.density import _logsumexp_rows, g_sigma, pool_for_sigma_range
from kallele.inference import _subseed
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
            theta, 20.0, 5000, seed=8, config=SamplerConfig(sigma_switch=10.0)
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
        se = math.hypot(h.std() / math.sqrt(h.size), oracles.tilted_mean_h_se(pool.b, pool.h, 20.0))
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
        # The neutral envelope at sigma = 150, k = 10 accepts about 1.4e-4.
        monkeypatch.setattr(sampler, "MAX_REJECTION_PROPOSALS", 200_000)
        monkeypatch.setattr(sampler, "MIN_ACCEPTANCE", 1e-3)
        theta = MutationParams.symmetric(5.0, 10)
        with pytest.raises(RejectionStarvedError, match="acceptance rate"):
            sampler._rejection_arrays(theta, 150.0, 100, 3)

    def test_rejection_that_cannot_finish_stops_early(self, monkeypatch):
        # acceptance about 0.10, far above MIN_ACCEPTANCE: after the first
        # batch (40k proposals, past the 10k budget) the 16k draws still
        # missing need some 160k more proposals
        monkeypatch.setattr(sampler, "MAX_REJECTION_PROPOSALS", 10_000)
        theta = MutationParams.symmetric(4.8, 4)
        with pytest.raises(RejectionStarvedError, match="acceptance rate .* would need about"):
            sample_selection(theta, 35.1, 20_000, seed=3)

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


def _mean_h_by_component(alphas: np.ndarray, boost: float) -> float:
    """E[sum X_i^2] under (1/k) sum_j Dir(alphas + boost e_j), one component at a time."""
    total = alphas.sum() + boost
    means = []
    for j in range(alphas.size):
        a = alphas.copy()
        a[j] += boost
        means.append((a * (a + 1.0)).sum() / (total * (total + 1.0)))
    return float(np.mean(means))


class TestVertexBoost:
    # theta/k from 0.125 to 5: below and above 1
    @pytest.mark.parametrize("theta, k", [(0.5, 4), (4.8, 4), (5.0, 10), (20.0, 4)])
    def test_closed_form_hits_the_target_mean(self, theta, k):
        alphas = MutationParams.symmetric(theta, k).alphas()
        neutral = _mean_h_by_component(alphas, 0.0)
        for g in np.linspace(neutral, 0.995, 9)[1:]:
            boost = sampler._matched_vertex_boost(alphas, float(g))
            assert boost > 0.0
            assert _mean_h_by_component(alphas, boost) == pytest.approx(g, rel=1e-12)
            # The mean falls, then rises through g once: bisect in log A for the crossing.
            lo, hi = 1e-9, 1e15
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if _mean_h_by_component(alphas, mid) < g:
                    lo = mid
                else:
                    hi = mid
            assert boost == pytest.approx(math.sqrt(lo * hi), rel=1e-9)

    @pytest.mark.parametrize("theta, k", [(0.005, 4), (0.005, 3)])
    def test_neutral_mean_above_the_cap(self, theta, k):
        # The 0.995 cap puts g below the neutral mean: the mean never falls
        # to g from above within the bisection's bracket, so both give 1e-9.
        alphas = MutationParams.symmetric(theta, k).alphas()
        assert _mean_h_by_component(alphas, 0.0) > 0.995
        assert sampler._matched_vertex_boost(alphas, 0.999) == pytest.approx(1e-9, rel=1e-9)

    def test_homozygote_study_leg_does_not_stick(self):
        # The README study's sigma = -50 leg (k = 10, theta = 5) at a seed
        # where a boost tuned on a 20k importance pool of ESS about 3 came
        # out near 458: acceptance 0.022, 121 distinct rows, and every row
        # in the homozygote region h > 0.91.  The target puts about half
        # its mass there.
        seed = _subseed(205018, 11, 3)
        draws, report = _selection_arrays(MutationParams.symmetric(5.0, 10), -50.0, 1000, seed)
        h = np.einsum("ij,ij->i", draws, draws)
        assert report.method == "independence-mh"
        assert report.n_distinct >= 900
        assert ((h > 0.91) & (h < 1.0)).mean() < 0.8

    def test_tiny_theta_vertex_route_samples(self):
        draws, report = _selection_arrays(MutationParams.symmetric(0.005, 4), -100.0, 50, seed=2)
        assert report.proposal_kind == "vertex-mixture"
        assert np.all(np.isfinite(draws)) and np.allclose(draws.sum(axis=1), 1.0)


def _neutral_envelope_draws(alphas: np.ndarray, sigma: float, n: int, seed: int) -> tuple[np.ndarray, int]:
    """Rejection from Dir(alphas) with envelope exp(-sigma (h - 1)), written out; and its proposal count.

    Proposals, uniforms and the accept test come in the order and from the
    streams that the sampler's neutral envelope uses at sigma < 0.
    """
    batch = max(4096, min(2 * n, 1 << 18))
    kept, block = [], 0
    while sum(len(b) for b in kept) < n:
        rng = derive_rng(seed, 21, block)
        x = _dirichlet(alphas, batch, rng)
        kept.append(x[np.log(rng.random(batch)) < -sigma * (np.einsum("ij,ij->i", x, x) - 1.0)])
        block += 1
    return np.concatenate(kept)[:n], block * batch


def _vertex_gain(alphas: np.ndarray, boost: float) -> float:
    """F = 1 / sum_j c_j^-1, c_j = Gamma(T + A) Gamma(alpha_j) / (Gamma(T) Gamma(alpha_j + A))."""
    t = alphas.sum()
    log_c = gammaln(t + boost) - gammaln(t) + gammaln(alphas) - gammaln(alphas + boost)
    return float(1.0 / np.exp(-log_c).sum())


class TestVertexEnvelope:
    @given(
        st.integers(2, 20),
        st.floats(0.05, 20.0),
        st.booleans(),
        st.floats(-10.0, 0.0, exclude_max=True),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_log_accept_is_never_positive(self, k, a, symmetric, sigma, seed):
        rng = np.random.default_rng(seed)
        alphas = np.full(k, a) if symmetric else a * rng.uniform(0.25, 2.0, k)
        draw, log_accept, kind, boost = sampler._rejection_envelope(alphas, sigma)
        if kind is not None:
            assert boost == pytest.approx(-sigma * (1.0 - 1.0 / k) / math.log(k), rel=1e-15)
        x = draw(2000, rng)
        assert np.all(log_accept(x) <= 0.0)

    @pytest.mark.parametrize("k", range(2, 21))
    def test_log_total_matches_scipy(self, k):
        # The envelope's total weight log sum_j exp(-consts[j]), as
        # _rejection_envelope takes it; equal alphas tie every entry.
        rng = np.random.default_rng(k)
        for alphas in (np.full(k, 5.0 / k), rng.uniform(0.05, 3.0, k)):
            for sigma in (-0.5, -2.6, -10.0, -200.0):
                _, consts = sampler._vertex_rows(alphas, -sigma * (1.0 - 1.0 / k) / math.log(k))
                assert _logsumexp_rows((-consts)[:, None])[0] == logsumexp(-consts)

    @pytest.mark.parametrize("theta, k, sigma, h_cut", [(5.0, 10, -10.0, 0.37), (4.8, 4, -5.0, 0.41)])
    def test_mean_and_cdf_match_qmc(self, theta, k, sigma, h_cut):
        draws, report = _selection_arrays(MutationParams.symmetric(theta, k), sigma, 20_000, seed=19)
        assert report.method == "rejection" and report.proposal_kind == "vertex-mixture"
        h = np.einsum("ij,ij->i", draws, draws)
        mean, mean_se, cdf, cdf_se = oracles.selection_h_qmc(theta, k, sigma, h_cut)
        below = (h <= h_cut).mean()
        assert abs(h.mean() - mean) < 4 * math.hypot(h.std() / math.sqrt(h.size), mean_se)
        assert abs(below - cdf) < 4 * math.hypot(math.sqrt(below * (1.0 - below) / h.size), cdf_se)

    # The uniform-simplex oracle is used at theta/k near 1: at k = 10,
    # theta = 5 its weights x^(theta/k - 1) are unbounded and it reads r0 low.
    @pytest.mark.parametrize("theta, k", [(4.8, 4), (6.24, 8)])
    def test_acceptance_is_neutral_rate_times_gain(self, theta, k):
        sigma = -10.0
        params = MutationParams.symmetric(theta, k)
        _, report = sampler._rejection_arrays(params, sigma, 20_000, 23)
        gain = _vertex_gain(params.alphas(), report.proposal_concentration)
        expected = math.exp(oracles.log_normalizer_qmc(theta, k, sigma) + sigma) * gain
        assert gain > 20.0
        se = math.sqrt(expected * (1.0 - expected) / report.n_proposals)
        assert abs(report.acceptance_rate - expected) < 4 * se

    def test_neutral_envelope_where_gain_is_at_most_one(self):
        # F is 0.57 at sigma = -1 and 1.10 at sigma = -2 (k = 4, theta = 4.8).
        params = MutationParams.symmetric(4.8, 4)
        alphas = params.alphas()
        assert _vertex_gain(alphas, 1.0 * 0.75 / math.log(4)) < 1.0 < _vertex_gain(alphas, 2.0 * 0.75 / math.log(4))
        _, report = sampler._rejection_arrays(params, -2.0, 100, 5)
        assert report.proposal_kind == "vertex-mixture"
        draws, report = sampler._rejection_arrays(params, -1.0, 5000, 5)
        assert report.proposal_kind is None and report.proposal_concentration is None
        expected, n_prop = _neutral_envelope_draws(alphas, -1.0, 5000, 5)
        assert np.array_equal(draws, expected)
        assert report.n_proposals == n_prop

    def test_general_alphas_match_neutral_envelope(self):
        # Unequal alphas give unequal mixture weights w_j.
        alphas = np.array([0.3, 0.8, 1.5, 2.4])
        draws, report = sampler._rejection_arrays(MutationParams.general(alphas), -6.0, 4000, 8)
        assert report.proposal_kind == "vertex-mixture"
        reference, _ = _neutral_envelope_draws(alphas, -6.0, 4000, 9)
        for stat in (lambda x: np.einsum("ij,ij->i", x, x), lambda x: x[:, 0], lambda x: x[:, 3]):
            assert ks_2samp(stat(draws), stat(reference)).pvalue > 0.001


class TestSamplesJsonl:
    def test_write(self, tmp_path):
        theta = MutationParams.symmetric(3.0, 3)
        pts = sample_neutral(theta, 20, seed=1)
        path = tmp_path / "samples.jsonl"
        write_samples_jsonl(pts, str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 20
        row = json.loads(lines[7])
        assert row["index"] == 7
        assert row["frequencies"] == list(pts[7].values)

    def test_bytes_are_json_dumps(self, tmp_path, monkeypatch):
        # Exponent-form and 17-digit values, as in vertex draws at sigma = -1e4;
        # three rows per chunk, so lines also cross chunk boundaries.
        monkeypatch.setattr(sampler, "JSONL_CHUNK_ROWS", 3)
        head = np.array([5.5843795620352384e-05, 0.12345678901234568, 1e-300])
        rows = [np.append(head, 1.0 - head.sum())]
        rows += [row for row in sampler._neutral_arrays(MutationParams.symmetric(0.5, 4), 7, seed=3)]
        path = tmp_path / "samples.jsonl"
        write_samples_jsonl(np.asarray(rows), str(path))
        expected = "".join(json.dumps({"index": i, "frequencies": row}) + "\n"
                           for i, row in enumerate(np.asarray(rows).tolist()))
        assert "5.5843795620352384e-05" in expected
        assert path.read_text() == expected

    def test_points_and_array_give_same_file(self, tmp_path):
        pts, _ = sample_selection(MutationParams.symmetric(4.8, 4), -200.0, 100, seed=5)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_samples_jsonl(pts, str(a))
        write_samples_jsonl(np.asarray([p.values for p in pts]), str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([0.0, 0.5, 0.5], "non-positive"),
            ([math.nan, 0.5, 0.5], "not finite"),
            ([-0.1, 0.6, 0.5], "non-positive"),
            ([0.25, 0.25, 0.5 + 1e-6], "sum to"),
        ],
    )
    def test_bad_row_raises_and_leaves_file(self, tmp_path, bad, message):
        path = tmp_path / "samples.jsonl"
        path.write_text("earlier contents\n")
        rows = np.array([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], bad, [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=f"draw 2: .*{message}"):
            write_samples_jsonl(rows, str(path))
        assert path.read_text() == "earlier contents\n"
