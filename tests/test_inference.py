import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from kallele import (
    Homozygosity,
    IntervalEstimate,
    JointMleConfig,
    MonotoneCiConfig,
    MutationParams,
    PosteriorConfig,
    SimplexPoint,
    bootstrap,
    homozygosity,
    mle_joint,
    mle_sigma,
    monotone_ci,
    parse_frequencies,
    posterior_sample,
    posterior_summary,
)
from kallele import density, inference
from kallele.density import build_mixture_pool, cdf_homozygosity, g_sigma, pool_for_sigma_range
from kallele.inference import (
    BootstrapConfig,
    _quantile_with_inf,
    _selection_arrays,
)
from kallele.sampler import SamplerConfig


class TestMleSigma:
    def test_root_at_pool_mean(self, pool_k4):
        h = Homozygosity(value=float(pool_k4.h.mean()), k=4)
        res = mle_sigma(h, pool_k4)
        assert res.converged
        assert abs(res.sigma_hat) < 1e-5

    def test_bracket_sign_change(self, mixture_pool_k4):
        for hv in (0.27, 0.3, 0.36, 0.5, 0.75):
            res = mle_sigma(Homozygosity(hv, 4), mixture_pool_k4)
            assert res.converged
            lo, hi = res.bracket
            assert lo <= res.sigma_hat <= hi
            s_lo = g_sigma(mixture_pool_k4, lo) - hv
            s_hi = g_sigma(mixture_pool_k4, hi) - hv
            assert s_lo >= 0.0 >= s_hi

    def test_homozygosity_of_another_k_raises(self, pool_k4):
        with pytest.raises(ValueError, match="k=5"):
            mle_sigma(Homozygosity(0.22, 5), pool_k4)

    def test_convergence_criteria(self, mixture_pool_k4):
        res = mle_sigma(Homozygosity(0.3, 4), mixture_pool_k4)
        lo, hi = res.bracket
        assert abs(res.score_at_solution) < 1e-8 or hi - lo < 1e-6
        assert res.ess_at_solution > 1.0

    def test_unbounded_above_at_pool_floor(self, pool_k4):
        h = Homozygosity(value=pool_k4.h_min, k=4)
        res = mle_sigma(h, pool_k4)
        assert res.status == "unbounded_above"
        assert res.sigma_hat == math.inf
        assert res.notes

    def test_unbounded_below_at_pool_ceiling(self, pool_k4):
        h = Homozygosity(value=pool_k4.h_max, k=4)
        res = mle_sigma(h, pool_k4)
        assert res.status == "unbounded_below"
        assert res.sigma_hat == -math.inf

    def test_uniform_h_is_unbounded(self, pool_k4):
        res = mle_sigma(Homozygosity(0.25, 4), pool_k4)
        assert res.status == "unbounded_above"

    def test_outside_pool_range_with_tiny_cap(self, mixture_pool_k4, monkeypatch):
        monkeypatch.setattr(inference, "SIGMA_CAP", 10.0)
        monkeypatch.setattr(inference, "BRACKET_INIT", 4.0)
        res = mle_sigma(Homozygosity(0.27, 4), mixture_pool_k4)
        assert res.status == "outside_pool_range"
        assert "above-cap" in res.notes

    def test_warm_table_matches_cold(self, mixture_pool_k4):
        # Solves through one table reuse the passes of the solves before
        # them and keep each cold solve's status and root.
        table = inference.GSigmaTable(mixture_pool_k4)
        cold_passes = 0
        for hv in (0.28, 0.33, 0.45):
            h = Homozygosity(hv, 4)
            fresh = inference.GSigmaTable(mixture_pool_k4)
            cold = mle_sigma(h, mixture_pool_k4, sweep=fresh)
            cold_passes += len(fresh.passes)
            assert cold == mle_sigma(h, mixture_pool_k4)
            warm = mle_sigma(h, mixture_pool_k4, sweep=table)
            assert warm.status == cold.status == "converged"
            assert abs(warm.sigma_hat - cold.sigma_hat) <= 2 * inference.BRACKET_TOL
        assert table.sigmas == sorted(table.passes)
        assert len(table.passes) < cold_passes

    def test_table_of_another_pool_raises(self, pool_k4, mixture_pool_k4):
        table = inference.GSigmaTable(mixture_pool_k4)
        with pytest.raises(ValueError, match="another pool"):
            mle_sigma(Homozygosity(0.3, 4), pool_k4, sweep=table)
        # a copy of a pool is another pool
        with pytest.raises(ValueError, match="another pool"):
            mle_sigma(Homozygosity(0.3, 4), dataclasses.replace(mixture_pool_k4), sweep=table)
        assert not table.passes

    def test_matches_brentq_root(self):
        # The bootstrap's Lyme setting, where the far replicates sit at
        # sigma_hat > 1000 on a nearly flat g (|g'| ~ 5e-7): the estimate
        # must be the pool's own root to the stated tolerance.
        theta = MutationParams.symmetric(4.8, 4)
        pool = pool_for_sigma_range(theta, 100_000, 11, sigma_lo=-1e5, sigma_hi=1e5)
        draws, _ = _selection_arrays(theta, 35.1, 400, 5, SamplerConfig())
        hs = np.sort(np.einsum("ij,ij->i", draws, draws))
        cap = inference.SIGMA_CAP
        far = 0
        for hv in np.concatenate([hs[:6], hs[6::20]]):
            res = mle_sigma(Homozygosity(float(hv), 4), pool)
            if not res.converged:
                continue
            root = brentq(lambda s: g_sigma(pool, s) - hv, -cap, cap, xtol=1e-10)
            assert abs(res.sigma_hat - root) <= 2 * inference.BRACKET_TOL, (hv, res.sigma_hat, root)
            far += res.sigma_hat > 1000.0
        assert far >= 1

    @pytest.mark.parametrize("s", [-0.5, 0.5, 3000.0])
    def test_cold_bracket_takes_few_passes(self, s):
        # The bracket is one bisection over the 35 points 0 and +/-64 * 2^j
        # (j >= -6) within the cap: a cold solve passes at no more than 6
        # of them, near 0 and far out alike.
        pool = pool_for_sigma_range(MutationParams.symmetric(4.8, 4), 100_000, 3, sigma_lo=-1e5, sigma_hi=1e5)
        table = inference.GSigmaTable(pool)
        res = mle_sigma(Homozygosity(g_sigma(pool, s), 4), pool, sweep=table)
        assert res.converged
        assert abs(res.sigma_hat - s) <= 2 * inference.BRACKET_TOL
        ladder = {0.0} | {sign * 64.0 * 2.0**j for j in range(-6, 11) for sign in (-1.0, 1.0)}
        assert len(ladder & set(table.sigmas)) <= 6

    def test_sweep_matches_cold_solves(self):
        # 200 replicates at the Lyme generator, solved in order through one
        # sweep: each keeps its cold status, root and a certified bracket.
        theta = MutationParams.symmetric(4.8, 4)
        pool = pool_for_sigma_range(theta, 100_000, 13, sigma_lo=-1e5, sigma_hi=1e5)
        draws, _ = _selection_arrays(theta, 35.1, 200, 17, SamplerConfig())
        sweep = inference.GSigmaTable(pool)
        for hv in np.einsum("ij,ij->i", draws, draws):
            h = Homozygosity(float(hv), 4)
            swept = mle_sigma(h, pool, sweep=sweep)
            cold = mle_sigma(h, pool)
            assert swept.status == cold.status
            if swept.converged:
                assert abs(swept.sigma_hat - cold.sigma_hat) <= 2 * inference.BRACKET_TOL
                lo, hi = swept.bracket
                assert density.tilt(pool, lo).g >= hv > density.tilt(pool, hi).g
        assert sweep.passes

    @pytest.mark.parametrize("pool_name", ["pool_k4", "mixture_pool_k4"])
    def test_certified_root_and_score(self, request, pool_name):
        # Cold solves from near the floor to near the ceiling: the estimate
        # lies within BRACKET_TOL of the pool's own root, and the residual
        # there within the certified remainder of the reported score, which
        # |g'| grows by at most e^{R |u|} over a distance u.
        pool = request.getfixturevalue(pool_name)
        spread = pool.h_max - pool.h_min
        tol = inference.BRACKET_TOL
        solved = 0
        for hv in np.quantile(pool.h, np.linspace(0.002, 0.998, 40)):
            res = mle_sigma(Homozygosity(float(hv), 4), pool)
            if not res.converged:
                continue
            solved += 1
            root = brentq(lambda s: g_sigma(pool, s) - hv, *res.bracket, xtol=1e-12)
            assert abs(res.sigma_hat - root) <= tol, (hv, res.sigma_hat, root)
            t = density.tilt(pool, res.sigma_hat)
            bound = abs(t.dg) * tol * math.exp(spread * tol)
            assert abs(t.g - hv - res.score_at_solution) <= bound + 1e-15, (hv, t.g - hv, res.score_at_solution)
        assert solved >= 30

    def test_monotone_in_data(self, mixture_pool_k4):
        hs = np.linspace(0.265, 0.6, 20)
        sigmas = [mle_sigma(Homozygosity(float(hv), 4), mixture_pool_k4).sigma_hat for hv in hs]
        assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))


class TestMleJoint:
    def test_lyme_desk_scale(self):
        res = mle_joint(parse_frequencies("lyme"), seed=3, config=JointMleConfig(pool_n=60_000))
        assert res.converged
        assert res.theta_hat == pytest.approx(4.8, abs=0.8)
        assert res.sigma_hat == pytest.approx(35.1, abs=6.0)

    def test_two_pool_builds(self, monkeypatch):
        # one pilot ladder pool and one final pool, whatever theta-hat is
        builds = []

        def counting_build(*args, **kwargs):
            builds.append(args)
            return pool_for_sigma_range(*args, **kwargs)

        monkeypatch.setattr(inference, "pool_for_sigma_range", counting_build)
        res = mle_joint(parse_frequencies("lyme"), seed=31, config=JointMleConfig(pool_n=6000))
        assert res.converged
        assert len(builds) == 2

    def test_lyme_theta_hat_does_not_follow_pool_seed(self):
        # The profile log-likelihood changes by only 0.005 over theta in
        # [3.5, 6.8], so a pool per profiled theta let pool noise place
        # theta-hat anywhere from 4.43 to 5.91 over these seeds.
        fits = [mle_joint(parse_frequencies("lyme"), seed=s, config=JointMleConfig(pool_n=200_000))
                for s in range(1, 11)]
        thetas = np.array([r.theta_hat for r in fits])
        sigmas = np.array([r.sigma_hat for r in fits])
        assert all(r.converged for r in fits)
        assert np.ptp(thetas) < 0.2, thetas
        assert np.ptp(sigmas) < 1.0, sigmas
        assert np.all(np.abs(thetas - 4.8) <= 0.5), thetas

    def test_surface_optimum_is_the_sigma_root(self):
        # the sigma-score is self-normalized on the surface and in mle_sigma,
        # so the 2-D optimum's sigma is mle_sigma's root at its theta
        x = parse_frequencies("kir")
        pool = pool_for_sigma_range(MutationParams.symmetric(6.2, 8), 100_000, 7, sigma_hi=inference.SIGMA_CAP)
        theta, sigma = inference._maximize_surface(pool, x, (5.0, 0.0), (0.1, 50.0), (-1e5, 1e5))
        res = mle_sigma(homozygosity(x), pool.reweighted(MutationParams.symmetric(theta, 8)))
        assert res.converged
        assert abs(sigma - res.sigma_hat) <= inference.BRACKET_TOL
        assert 5.0 < theta < 7.5

    def test_fixed_coordinate_stays_fixed(self):
        x = parse_frequencies("lyme")
        pool = pool_for_sigma_range(MutationParams.symmetric(4.8, 4), 20_000, 7, sigma_hi=inference.SIGMA_CAP)
        theta, sigma = inference._maximize_surface(pool, x, (4.8, 0.0), (4.8, 4.8), (0.0, 20.0))
        assert theta == 4.8
        assert sigma == 20.0  # sigma-hat (about 34) lies beyond the box

    def test_final_pool_covers_homozygote_advantage(self):
        # The pilot's sigma is about -40 here, so the final pool reaches down
        # to twice that and mixes in the vertex component.  A final pool that
        # stops at sigma = 0 puts the root on an ESS under the floor, and the
        # fit reads unbounded_below.
        draws, _ = _selection_arrays(MutationParams.symmetric(4.8, 4), -40.0, 5, 3, SamplerConfig())
        res = mle_joint(SimplexPoint(draws[0]), seed=7, config=JointMleConfig(pool_n=100_000))
        assert res.converged
        assert res.ess_at_solution >= 2 * density.DEFAULT_ESS_FLOOR
        assert -60.0 < res.sigma_hat < -30.0

    def test_theta_box_is_not_a_setting(self):
        with pytest.raises(TypeError):
            JointMleConfig(theta_bounds=(0.1, 10.0))

    def test_uniform_unbounded_at_every_theta(self):
        res = mle_joint(SimplexPoint((0.25,) * 4), seed=3, config=JointMleConfig(pool_n=10_000))
        assert res.status == "unbounded_above"
        assert any("every theta" in n for n in res.notes)

    def test_null_generator_self_consistency(self):
        # data simulated with no selection: joint estimates center on zero
        theta = MutationParams.symmetric(5.0, 4)
        draws, _ = _selection_arrays(theta, 0.0, 50, 12345, SamplerConfig())
        cfg = JointMleConfig(pool_n=10_000)
        sigmas = []
        for j, row in enumerate(draws):
            res = mle_joint(SimplexPoint(row), seed=j, config=cfg)
            if res.converged:
                sigmas.append(res.sigma_hat)
        sigmas = np.asarray(sigmas)
        assert len(sigmas) >= 40
        assert np.median(np.abs(sigmas)) <= 3.0 * sigmas.std()


class TestBootstrap:
    def test_requires_minimum_replicates(self):
        with pytest.raises(ValueError, match="m >= 100"):
            bootstrap(5.0, 0.0, 4, 50, seed=1)

    def test_null_interval_contains_zero(self):
        cfg = BootstrapConfig(pool_n=30_000)
        res = bootstrap(5.0, 0.0, 4, 300, seed=2, config=cfg)
        iv = res.percentile_interval
        assert iv.lower < 0.0 < iv.upper
        assert iv.method == "bootstrap_percentile"
        assert not res.heavy_tail

    def test_deterministic(self):
        cfg = BootstrapConfig(pool_n=20_000)
        r1 = bootstrap(4.8, 35.1, 4, 150, seed=5, config=cfg)
        r2 = bootstrap(4.8, 35.1, 4, 150, seed=5, config=cfg)
        assert r1.standard_error == r2.standard_error
        assert r1.percentile_interval.lower == r2.percentile_interval.lower

    def test_one_table_keeps_cold_statuses(self, monkeypatch):
        # 1100 replicates solved through one table: each keeps its cold
        # status, and its root moves within the bracket tolerance.
        solves = []
        solve = inference.mle_sigma

        def recording(h, pool, sweep=None):
            solves.append((h, pool))
            return solve(h, pool, sweep)

        monkeypatch.setattr(inference, "mle_sigma", recording)
        res = bootstrap(4.8, 35.1, 4, 1100, seed=5, config=BootstrapConfig(pool_n=20_000))
        assert len(solves) == 1100
        for (h, pool), swept in zip(solves, res.estimates):
            cold = solve(h, pool)
            assert swept.status == cold.status
            if cold.converged:
                assert abs(swept.sigma_hat - cold.sigma_hat) <= 2 * inference.BRACKET_TOL

    def test_sweep_saves_passes(self, monkeypatch):
        # Solved cold, a replicate takes about 8 passes here.  Through the
        # table and with no pass at a certified Newton point it takes 1.3.
        calls = []
        passes = density._pass

        def counted(*args):
            calls.append(args[2])
            return passes(*args)

        monkeypatch.setattr(density, "_pass", counted)
        bootstrap(4.8, 35.1, 4, 200, seed=7001, config=BootstrapConfig(pool_n=100_000))
        assert len(calls) / 200 <= 1.5

    def test_heavy_right_tail_under_strong_selection(self):
        # strong heterozygote advantage at high allele count: the sampling
        # distribution's far tail dwarfs its median
        cfg = BootstrapConfig(pool_n=60_000)
        res = bootstrap(5.0, 100.0, 10, 400, seed=3, config=cfg)
        conv = np.asarray([e.sigma_hat for e in res.estimates if e.converged])
        assert np.percentile(conv, 99) > 3.0 * np.median(conv)

    def test_unbounded_replicates_counted_not_hidden(self):
        cfg = BootstrapConfig(pool_n=5_000)
        res = bootstrap(5.0, 200.0, 10, 150, seed=4, config=cfg)
        statuses = {e.status for e in res.estimates}
        assert res.n_unbounded == sum(
            e.status in ("unbounded_above", "unbounded_below") for e in res.estimates
        )
        assert statuses  # at least ran

    def test_joint_refit_smoke(self, monkeypatch):
        monkeypatch.setattr(inference, "JOINT_REFIT_POOL_N", 5_000)
        cfg = BootstrapConfig(pool_n=10_000, joint_refit=True)
        res = bootstrap(4.8, 35.1, 4, 100, seed=6, config=cfg)
        assert all(e.theta_hat is not None for e in res.estimates if e.converged)


class TestQuantileWithInf:
    def test_plain(self):
        v = np.sort(np.array([1.0, 2.0, 3.0, 4.0]))
        assert _quantile_with_inf(v, 0.5) == pytest.approx(2.5)

    def test_upper_inf(self):
        v = np.sort(np.array([1.0, 2.0, 3.0, math.inf]))
        assert _quantile_with_inf(v, 0.9) == math.inf
        assert _quantile_with_inf(v, 0.5) == pytest.approx(2.5)

    def test_lower_neg_inf(self):
        v = np.sort(np.array([-math.inf, 2.0, 3.0, 4.0]))
        assert _quantile_with_inf(v, 0.1) == -math.inf


@pytest.fixture(scope="module")
def mixture_pool_k8():
    return build_mixture_pool(MutationParams.symmetric(6.2, 8), (0.775, 0.4, 2.0, 8.0), n=100_000, seed=808)


class TestMonotoneCi:
    def test_alpha_validation(self, pool_k4):
        h = Homozygosity(0.3, 4)
        with pytest.raises(ValueError):
            monotone_ci(h, pool_k4, 0.0, 0.025)
        with pytest.raises(ValueError):
            monotone_ci(h, pool_k4, 0.6, 0.6)

    def test_homozygosity_of_another_k_raises(self, pool_k4):
        with pytest.raises(ValueError, match="k=5"):
            monotone_ci(Homozygosity(0.22, 5), pool_k4, 0.025, 0.025)

    def test_degenerate_alphas_collapse_to_median_match(self, mixture_pool_k4, monkeypatch):
        monkeypatch.setattr(inference, "CI_TOL", 1e-8)
        h = Homozygosity(0.3, 4)
        iv = monotone_ci(h, mixture_pool_k4, 0.5, 0.5)
        assert iv.upper - iv.lower < 1e-6
        assert iv.level == pytest.approx(0.0)

    def test_interval_ordering_and_level(self, mixture_pool_k4):
        h = homozygosity(parse_frequencies("lyme"))
        iv = monotone_ci(h, mixture_pool_k4, 0.025, 0.025)
        assert iv.lower < iv.upper
        assert iv.level == pytest.approx(0.95)
        assert iv.method == "monotone_exact"

    def test_range_bound_advisory(self, mixture_pool_k4):
        h = homozygosity(parse_frequencies("lyme"))
        iv = monotone_ci(h, mixture_pool_k4, 0.025, 0.025, MonotoneCiConfig(sigma_range=(-1.0, 5.0)))
        assert iv.lower == -1.0
        assert iv.upper == 5.0
        assert any("widen" in n for n in iv.notes)

    def test_narrower_alpha_nests(self, mixture_pool_k4):
        h = homozygosity(parse_frequencies("lyme"))
        wide = monotone_ci(h, mixture_pool_k4, 0.025, 0.025)
        narrow = monotone_ci(h, mixture_pool_k4, 0.25, 0.25)
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    @pytest.mark.parametrize("alphas", [(0.025, 0.025), (0.1, 0.05), (0.25, 0.25)])
    @pytest.mark.parametrize("pool_name", ["mixture_pool_k4", "mixture_pool_k8"])
    def test_endpoints_match_bisection(self, request, pool_name, alphas):
        pool = request.getfixturevalue(pool_name)
        h = homozygosity(parse_frequencies("lyme" if pool.k == 4 else "kir"))
        cfg = MonotoneCiConfig()
        iv = monotone_ci(h, pool, *alphas, cfg)
        assert not iv.notes

        def bisect(target):
            lo, hi = cfg.sigma_range
            while hi - lo > inference.CI_TOL:
                mid = 0.5 * (lo + hi)
                if cdf_homozygosity(pool, mid, h) < target:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        assert abs(iv.lower - bisect(alphas[0])) <= 2 * inference.CI_TOL
        assert abs(iv.upper - bisect(1.0 - alphas[1])) <= 2 * inference.CI_TOL

    def test_few_passes_per_interval(self, monkeypatch):
        # Bisection from (-500, 2000) to tol = 1e-6 makes 2 + 2 x 32 = 66 passes.
        x = parse_frequencies("lyme")
        pool = pool_for_sigma_range(MutationParams.symmetric(4.95, 4), 500_000, 7, sigma_lo=-500.0, sigma_hi=2000.0)
        calls = []
        weights = density._weights

        def counted(*args):
            calls.append(args[2])
            return weights(*args)

        monkeypatch.setattr(density, "_weights", counted)
        iv = monotone_ci(homozygosity(x), pool, 0.025, 0.025)
        assert iv.lower < 0.0 < iv.upper and not iv.notes
        assert len(calls) <= 20

    @pytest.mark.parametrize("pool_name", ["mixture_pool_k4", "mixture_pool_k8"])
    def test_certificate_keeps_every_endpoint_bit(self, request, monkeypatch, pool_name):
        # With the curvature bound switched off, Newton takes its
        # confirming pass at the point the certificate stops on.
        pool = request.getfixturevalue(pool_name)
        h = homozygosity(parse_frequencies("lyme" if pool.k == 4 else "kir"))
        s_lo, s_hi = MonotoneCiConfig().sigma_range
        calls = []
        weights = density._weights

        def counted(*args):
            calls.append(args[2])
            return weights(*args)

        monkeypatch.setattr(density, "_weights", counted)
        at = functools.partial(inference._cdf_logit, pool, masks=inference._cdf_masks(pool, h.value))
        off = []
        for target, start in ((0.025, s_lo), (0.975, s_hi)):
            goal = math.log(target / (1.0 - target))
            sigma = inference._newton(
                at, lambda p: (goal - p[1], -p[2]), start, at(start), s_lo, s_hi, inference.CI_TOL,
                lambda slope, step: math.inf,
            )[0]
            off.append(sigma)
        off_passes = len(calls)
        del calls[:]
        iv = monotone_ci(h, pool, 0.025, 0.025)
        assert (iv.lower, iv.upper) == tuple(off)
        assert not iv.notes and len(calls) < off_passes

    def test_solver_reads_the_cdf(self, monkeypatch, mixture_pool_k4):
        h = homozygosity(parse_frequencies("lyme"))
        seen = []
        cdf_logit = inference._cdf_logit

        def recording(pool, sigma, masks):
            out = cdf_logit(pool, sigma, masks)
            seen.append((sigma, out[0]))
            return out

        monkeypatch.setattr(inference, "_cdf_logit", recording)
        monotone_ci(h, mixture_pool_k4, 0.025, 0.025)
        assert len(seen) > 2
        for sigma, f in seen:
            assert f == cdf_homozygosity(mixture_pool_k4, sigma, h)


class TestIntervalEstimate:
    def test_rejects_disorder(self):
        with pytest.raises(ValueError):
            IntervalEstimate(lower=2.0, upper=1.0, level=0.9, method="credible", alpha_split=(0.05, 0.05))


@pytest.fixture(scope="module")
def lyme_chain():
    return posterior_sample(
        parse_frequencies("lyme"),
        chain_length=6000,
        seed=17,
        config=PosteriorConfig(pool_n=30_000, burn_in=500),
    )


class TestPosterior:

    def test_draws_inside_prior_box(self, lyme_chain):
        (t_lo, t_hi), (s_lo, s_hi) = lyme_chain.prior_bounds
        assert np.all(lyme_chain.thetas > t_lo)
        assert np.all(lyme_chain.thetas <= t_hi + 1e-12)
        assert np.all(lyme_chain.sigmas >= s_lo)
        assert np.all(lyme_chain.sigmas <= s_hi)

    def test_log_posterior_finite(self, lyme_chain):
        assert np.all(np.isfinite(lyme_chain.log_posterior))

    def test_acceptance_rate_in_open_interval(self, lyme_chain):
        assert 0.0 < lyme_chain.acceptance_rate < 1.0

    def test_nested_levels(self, lyme_chain):
        wide, _ = posterior_summary(lyme_chain, 0.95)
        narrow, _ = posterior_summary(lyme_chain, 0.5)
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
    def test_level_outside_unit_interval_rejected(self, lyme_chain, level):
        with pytest.raises(ValueError, match="level"):
            posterior_summary(lyme_chain, level)

    def test_mode_matches_joint_mle(self, lyme_chain):
        # flat prior: interior posterior mode == constrained joint MLE
        _, (t_mode, s_mode) = posterior_summary(lyme_chain, 0.95)
        mle = mle_joint(parse_frequencies("lyme"), seed=3, config=JointMleConfig(pool_n=60_000))
        assert t_mode == pytest.approx(mle.theta_hat, abs=1.0)
        assert s_mode == pytest.approx(mle.sigma_hat, abs=6.0)

    def test_fixed_theta_mode(self):
        chain = posterior_sample(
            parse_frequencies("lyme"),
            chain_length=4000,
            seed=23,
            config=PosteriorConfig(pool_n=20_000, theta_fixed=4.8, burn_in=500),
        )
        assert chain.theta_fixed == 4.8
        assert np.all(chain.thetas == 4.8)
        _, (t_mode, _) = posterior_summary(chain, 0.9)
        assert t_mode == 4.8

    @pytest.mark.parametrize("theta_fixed, chain_builds", [(None, 1), (4.8, 1)])
    def test_pool_builds(self, monkeypatch, theta_fixed, chain_builds):
        # every chain builds its own pool and no other; the summary builds none
        builds = []

        def counting(build):
            def counted(*args, **kwargs):
                builds.append(args)
                return build(*args, **kwargs)

            return counted

        monkeypatch.setattr(inference, "pool_for_sigma_range", counting(inference.pool_for_sigma_range))
        chain = posterior_sample(
            parse_frequencies("lyme"),
            chain_length=1600,
            seed=41,
            config=PosteriorConfig(pool_n=6000, theta_fixed=theta_fixed, burn_in=500),
        )
        assert len(builds) == chain_builds
        posterior_summary(chain, 0.95)
        assert len(builds) == chain_builds

    def test_joint_chain_solves_its_mode_once_on_its_own_pool(self, monkeypatch):
        # no joint MLE inside the chain: its one pool serves the mode, solved
        # once before the chain, which starts and centers its proposal there
        built, solves = [], []
        build, maximize = inference.pool_for_sigma_range, inference._maximize_surface

        def building(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def solving(pool, *args):
            solves.append((pool, maximize(pool, *args)))
            return solves[-1][1]

        def no_joint_mle(*args, **kwargs):
            raise AssertionError("the chain called mle_joint")

        monkeypatch.setattr(inference, "pool_for_sigma_range", building)
        monkeypatch.setattr(inference, "_maximize_surface", solving)
        monkeypatch.setattr(inference, "mle_joint", no_joint_mle)
        chain = posterior_sample(
            parse_frequencies("lyme"),
            chain_length=1600,
            seed=41,
            config=PosteriorConfig(pool_n=6000, burn_in=0),
        )
        assert len(built) == 1 and len(solves) == 1
        assert solves[0][0] is built[0]
        assert chain.mode == solves[0][1]
        assert chain.proposal_spec["sigma"]["center"] == chain.mode[1]
        assert (chain.thetas[0], chain.sigmas[0]) == chain.mode or chain.accepted[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_joint_chain_pool_covers_small_theta(self, monkeypatch, seed):
        # The chain proposes theta uniformly over its prior box.  Its pool's
        # ladder over that box keeps the likelihood at theta = 0.2 on
        # thousands of draws; a pool centered on one theta near 5 gave 7-49.
        built = []
        build = inference.pool_for_sigma_range

        def building(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(inference, "pool_for_sigma_range", building)
        posterior_sample(parse_frequencies("lyme"), chain_length=600, seed=seed,
                         config=PosteriorConfig(pool_n=20_000, burn_in=0))
        (pool,) = built
        assert density._surface(pool, 0.2 / 4, 0.0)[3] >= 1000.0

    def test_summary_requires_length(self, lyme_chain):
        short = posterior_sample(
            parse_frequencies("lyme"),
            chain_length=1200,
            seed=29,
            config=PosteriorConfig(pool_n=10_000, burn_in=500),
        )
        with pytest.raises(ValueError, match="1000"):
            posterior_summary(short, 0.95)

    def test_chain_csv(self, lyme_chain, tmp_path):
        path = tmp_path / "chain.csv"
        lyme_chain.to_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,theta,sigma,log_posterior,accepted"
        assert len(lines) == len(lyme_chain) + 1
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], np.arange(len(lyme_chain)))
        np.testing.assert_array_equal(table[:, 1], lyme_chain.thetas)
        np.testing.assert_array_equal(table[:, 2], lyme_chain.sigmas)
        np.testing.assert_array_equal(table[:, 3], lyme_chain.log_posterior)
        np.testing.assert_array_equal(table[:, 4], lyme_chain.accepted)

    def test_proper_prior_required(self):
        with pytest.raises(ValueError, match="proper"):
            posterior_sample(
                parse_frequencies("lyme"),
                prior_bounds=((0.0, 50.0), (0.0, math.inf)),
                chain_length=2000,
                seed=1,
            )

    def test_reversed_prior_box_rejected(self):
        # an empty box would make the truncated proposal redraw forever
        for bounds in (((0.0, 50.0), (10.0, 0.0)), ((50.0, 0.0), (0.0, 1000.0))):
            with pytest.raises(ValueError, match="lower < upper"):
                posterior_sample(parse_frequencies("lyme"), prior_bounds=bounds, chain_length=2000, seed=1)

    @pytest.mark.parametrize("theta_box", [(-10.0, 50.0), (-2.0, -1.0)])
    def test_theta_box_below_zero_rejected(self, theta_box):
        # its proposals below 0 would all land on one atom near theta = 0
        with pytest.raises(ValueError, match="theta >= 0"):
            posterior_sample(parse_frequencies("lyme"), prior_bounds=(theta_box, (0.0, 1000.0)), chain_length=2000, seed=1)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="burn_in"):
            posterior_sample(
                parse_frequencies("lyme"), chain_length=2000, seed=1, config=PosteriorConfig(burn_in=-3)
            )

    @pytest.mark.parametrize("theta_fixed", [0.0, -1.0, 50.5, 60.0, math.nan])
    def test_fixed_theta_outside_prior_box_rejected(self, theta_fixed):
        # the prior box for theta is (0, 50]; its upper end is allowed
        with pytest.raises(ValueError, match="prior box"):
            posterior_sample(
                parse_frequencies("kir"),
                chain_length=2000,
                seed=1,
                config=PosteriorConfig(pool_n=5000, burn_in=500, theta_fixed=theta_fixed),
            )
        chain = posterior_sample(
            parse_frequencies("kir"),
            chain_length=1600,
            seed=1,
            config=PosteriorConfig(pool_n=5000, burn_in=500, theta_fixed=50.0),
        )
        assert np.all(chain.thetas == 50.0)

    def test_provenance_stamped(self, lyme_chain):
        d = lyme_chain.as_dict()
        assert d["prior_bounds"] == [[0.0, 50.0], [0.0, 1000.0]]
        assert d["proposal_spec"]["sigma"]["kind"] == "laplace"
        assert d["pool"]["n"] == 30_000


class TestTangentBound:
    # A proposal rejected by the tangent bound is one the exact test rejects:
    # with the margin at infinity every proposal gets its pool pass, and the
    # chain must come out the same to the last bit.
    CHAINS = {
        "lyme joint": ("lyme", None, None),
        "kir fixed theta": ("kir", None, 6.2),
        "kir wide box": ("kir", ((0.0, 50.0), (-500.0, 1000.0)), None),
    }

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_bound_changes_no_bit(self, monkeypatch, name):
        label, bounds, theta_fixed = self.CHAINS[name]

        def run():
            cfg = PosteriorConfig(pool_n=20_000, burn_in=300, theta_fixed=theta_fixed)
            return posterior_sample(parse_frequencies(label), bounds, 1500, 13, cfg)

        bounded = run()
        monkeypatch.setattr(inference, "TANGENT_MARGIN", math.inf)
        exact = run()
        assert exact.pool_passes == 1501
        assert bounded.pool_passes < exact.pool_passes
        for field in ("thetas", "sigmas", "log_posterior", "accepted"):
            assert getattr(bounded, field).tobytes() == getattr(exact, field).tobytes()
        assert bounded.acceptance_rate == exact.acceptance_rate
        assert bounded.mode == exact.mode
        assert bounded.as_dict() == exact.as_dict()
        assert posterior_summary(bounded, 0.95) == posterior_summary(exact, 0.95)
        if name == "kir wide box":
            assert 0.4 in bounded.pool_concentrations and np.any(bounded.sigmas < 0.0)

    def test_passes_track_accepted_moves(self):
        # every accepted move needs a pass; few rejected ones should
        length = 3000
        chain = posterior_sample(
            parse_frequencies("lyme"), None, length, 31, PosteriorConfig(pool_n=30_000, burn_in=500)
        )
        n_accept = round(chain.acceptance_rate * length)
        assert n_accept + 1 <= chain.pool_passes <= n_accept + 1 + length // 20
