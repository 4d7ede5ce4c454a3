import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, logsumexp

from kallele import (
    Homozygosity,
    MutationParams,
    SelectionModel,
    SimplexPoint,
    build_pool,
    cdf_homozygosity,
    g_sigma,
    homozygosity,
    log_likelihood,
    log_normalizer,
    neutral_log_density,
    optimal_composition,
    parse_frequencies,
    score_general,
)
from kallele.density import (
    DEFAULT_ESS_FLOOR,
    _cdf_logit,
    _log_z_tangent,
    _logsumexp_rows,
    _pass,
    _surface,
    _surface_base,
    _weights,
    build_mixture_pool,
    pool_for_sigma_range,
    tilt,
)

import oracles


class TestNeutralLogDensity:
    def test_uniform_dirichlet_k2(self):
        theta = MutationParams.general([1.0, 1.0])
        for x in [(0.5, 0.5), (0.2, 0.8), (0.93, 0.07)]:
            assert neutral_log_density(SimplexPoint(x), theta) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_theta3_k3(self):
        theta = MutationParams.symmetric(3.0, 3)
        for x in [(1 / 3, 1 / 3, 1 / 3), (0.6, 0.3, 0.1)]:
            assert neutral_log_density(SimplexPoint(x, sum_tol=1e-6), theta) == pytest.approx(
                math.log(2.0), abs=1e-12
            )

    def test_theta22_at_center(self):
        theta = MutationParams.general([2.0, 2.0])
        val = neutral_log_density(SimplexPoint((0.5, 0.5)), theta)
        assert val == pytest.approx(math.log(1.5), abs=1e-12)

    def test_density_normalizes_k2(self):
        # quadrature cross-check of the closed form
        theta = MutationParams.general([2.0, 2.0])
        total, _ = integrate.quad(
            lambda x: math.exp(neutral_log_density(SimplexPoint((x, 1 - x), sum_tol=1e-6), theta)),
            0.0,
            1.0,
        )
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            neutral_log_density(SimplexPoint((0.5, 0.5)), MutationParams.symmetric(2.0, 3))


class TestBuildPool:
    def test_single_draw(self):
        pool = build_pool(MutationParams.symmetric(2.0, 3), proposal_a=1.0, n=1, seed=0)
        assert pool.n == 1
        assert math.exp(pool.b[0]) > 0.0

    def test_base_weights_vanish_at_matched_proposal(self, pool_k4):
        assert pool_k4.concentrations == (1.2,)
        assert np.all(pool_k4.b == 0.0)

    def test_mean_homozygosity_matches_moment_k20(self):
        theta = MutationParams.symmetric(5.0, 20)
        pool = build_pool(theta, n=100_000, seed=7, keep_draws=False)
        expected = oracles.dirichlet_mean_homozygosity(5.0, 20)
        assert expected == pytest.approx(25.0 / 120.0)
        # second route to the same constant
        assert expected == pytest.approx(20 * oracles.dirichlet_second_moment(0.25, 5.0))
        assert pool.h.mean() == pytest.approx(expected, abs=3e-3)

    def test_deterministic_given_seed(self, theta_lyme):
        p1 = build_pool(theta_lyme, n=5000, seed=9)
        p2 = build_pool(theta_lyme, n=5000, seed=9)
        assert np.array_equal(p1.h, p2.h)
        assert np.array_equal(p1.draws, p2.draws)

    def test_mixture_weights_finite(self, mixture_pool_k4):
        assert np.all(np.isfinite(mixture_pool_k4.b))
        assert mixture_pool_k4.component_counts == (25000, 25000, 25000, 25000)

    def test_size_validation(self, theta_lyme):
        with pytest.raises(ValueError):
            build_pool(theta_lyme, n=0, seed=1)

    def test_fewer_draws_than_components(self, theta_lyme):
        # the components left without draws carry no mixture weight
        pool = build_mixture_pool(theta_lyme, (1.2, 0.4, 2.0, 8.0), n=3, seed=5, keep_draws=False)
        assert pool.component_counts == (1, 1, 1, 0)
        full = build_mixture_pool(theta_lyme, (1.2, 0.4, 2.0), n=3, seed=5, keep_draws=False)
        assert np.array_equal(pool.proposal_log_density, full.proposal_log_density)
        assert np.all(np.isfinite(pool.b))

    def test_mixture_density_matches_scipy(self, mixture_pool_k4):
        # the component log-densities of a real pool, and a copy with tied rows
        pool = mixture_pool_k4
        parts = np.stack(
            [
                math.log(c / pool.n) + float(gammaln(4 * a) - 4 * gammaln(a)) + (a - 1.0) * pool.s
                for a, c in zip(pool.concentrations, pool.component_counts)
            ]
        )
        tied = parts.copy()
        tied[1, ::7] = tied[0, ::7]
        tied[2:, ::5] = tied[0, ::5]
        for arr in (parts, tied):
            assert np.array_equal(_logsumexp_rows(arr), logsumexp(arr, axis=0))
        assert np.array_equal(_logsumexp_rows(parts), pool.proposal_log_density)


class TestComponentMemo:
    """Mixture components are drawn afresh on each build; the same seed gives the same pool."""

    def test_rebuild_is_identical(self, theta_lyme):
        p1 = build_mixture_pool(theta_lyme, (1.2, 2.0, 8.0), n=30_000, seed=77, keep_draws=False)
        p2 = build_mixture_pool(theta_lyme, (1.2, 2.0, 8.0), n=30_000, seed=77, keep_draws=False)
        for name in ("h", "s", "b", "proposal_log_density"):
            assert np.array_equal(getattr(p1, name), getattr(p2, name))


class TestLogNormalizer:
    def test_zero_sigma_is_exactly_zero(self, pool_k4, mixture_pool_k4):
        for pool in (pool_k4, mixture_pool_k4):
            value, ess = log_normalizer(pool, SelectionModel.overdominance(0.0))
            assert value == 0.0
            assert 1.0 <= ess <= pool.n

    def test_matches_quadrature_k2_positive(self):
        theta = MutationParams.symmetric(2.0, 2)
        pool = build_pool(theta, n=200_000, seed=3, keep_draws=False)
        value, _ = log_normalizer(pool, SelectionModel.overdominance(1.0))
        assert value == pytest.approx(oracles.log_normalizer_quadrature_k2(2.0, 1.0), abs=2e-3)

    def test_matches_quadrature_k2_negative(self):
        theta = MutationParams.symmetric(2.0, 2)
        pool = build_pool(theta, n=200_000, seed=3, keep_draws=False)
        value, _ = log_normalizer(pool, SelectionModel.overdominance(-1.0))
        assert value == pytest.approx(oracles.log_normalizer_quadrature_k2(2.0, -1.0), abs=2e-3)

    def test_general_matrix_equals_scalar_on_diagonal(self, mixture_pool_k4):
        scalar, _ = log_normalizer(mixture_pool_k4, SelectionModel.overdominance(7.0))
        matrix, _ = log_normalizer(mixture_pool_k4, SelectionModel.from_matrix(7.0 * np.eye(4)))
        assert matrix == pytest.approx(scalar, abs=1e-10)

    def test_ess_floor_flag(self, pool_k4):
        _, ess = log_normalizer(pool_k4, SelectionModel.overdominance(5000.0))
        assert ess < DEFAULT_ESS_FLOOR

    def test_two_seeds_agree_within_4se(self, theta_lyme):
        model = SelectionModel.overdominance(20.0)
        p1 = build_pool(theta_lyme, n=100_000, seed=1, keep_draws=False)
        p2 = build_pool(theta_lyme, n=100_000, seed=2, keep_draws=False)
        v1, _ = log_normalizer(p1, model)
        v2, _ = log_normalizer(p2, model)
        se = math.hypot(*(oracles.tilted_log_normalizer_se(p.b, p.h, 20.0) for p in (p1, p2)))
        assert abs(v1 - v2) <= 4.0 * se

    def test_frozen_quadrature_values_k4(self, mixture_pool_k4):
        # adaptive 3-d quadrature of E[exp(-sigma H)] at theta=4.8, k=4
        frozen = {-30.0: 19.8381, -9.0: 3.9836, 35.1: -11.0895, 105.0: -30.1183}
        for sigma, truth in frozen.items():
            value, _ = log_normalizer(mixture_pool_k4, SelectionModel.overdominance(sigma))
            assert value == pytest.approx(truth, abs=0.05), f"sigma={sigma}"


class TestLogLikelihood:
    def test_zero_sigma_reduces_to_neutral(self, pool_k4, theta_lyme):
        x = parse_frequencies("lyme")
        model = SelectionModel.overdominance(0.0)
        assert log_likelihood(x, theta_lyme, model, pool_k4) == pytest.approx(
            neutral_log_density(x, theta_lyme), abs=1e-12
        )

    def test_uniform_point_sigma_shift_identity(self, pool_k4, theta_lyme):
        x = SimplexPoint((0.25,) * 4)
        l1 = log_likelihood(x, theta_lyme, SelectionModel.overdominance(10.0), pool_k4)
        l2 = log_likelihood(x, theta_lyme, SelectionModel.overdominance(-10.0), pool_k4)
        z1, _ = log_normalizer(pool_k4, SelectionModel.overdominance(10.0))
        z2, _ = log_normalizer(pool_k4, SelectionModel.overdominance(-10.0))
        assert l1 - l2 == pytest.approx(-(10.0 - (-10.0)) / 4 - (z1 - z2), abs=1e-10)

    def test_lyme_value_against_quadrature(self, mixture_pool_k4, theta_lyme):
        # ln Z frozen from adaptive quadrature (rel err < 1e-6); QMC agrees below
        x = parse_frequencies("lyme")
        expected = -35.1 * homozygosity(x).value - (-11.0895) + neutral_log_density(x, theta_lyme)
        value = log_likelihood(x, theta_lyme, SelectionModel.overdominance(35.1), mixture_pool_k4)
        assert value == pytest.approx(expected, abs=0.02)

    def test_quadrature_and_qmc_oracles_agree(self):
        qmc_value = oracles.log_normalizer_qmc(4.8, 4, 35.1, m_pow=21)
        assert qmc_value == pytest.approx(-11.0895, abs=5e-3)

    def test_reweights_to_other_theta(self, mixture_pool_k4):
        # pool targets theta=4.8; evaluate at theta=6 and compare to a fresh pool
        x = parse_frequencies("lyme")
        theta6 = MutationParams.symmetric(6.0, 4)
        model = SelectionModel.overdominance(25.0)
        via_reweight = log_likelihood(x, theta6, model, mixture_pool_k4)
        fresh = build_pool(theta6, n=200_000, seed=55, keep_draws=False)
        direct = log_likelihood(x, theta6, model, fresh)
        assert via_reweight == pytest.approx(direct, abs=0.02)


class TestGSigma:
    def test_at_zero_equals_neutral_moment(self, pool_k4):
        expected = oracles.dirichlet_mean_homozygosity(4.8, 4)
        assert g_sigma(pool_k4, 0.0) == pytest.approx(expected, abs=3e-3)

    def test_extreme_positive_is_pool_min(self, pool_k4):
        assert g_sigma(pool_k4, 1e12) == pool_k4.h_min

    def test_extreme_negative_is_pool_max(self, pool_k4):
        assert g_sigma(pool_k4, -1e12) == pool_k4.h_max

    def test_exactly_nonincreasing_on_grid(self, mixture_pool_k4):
        grid = np.linspace(-60.0, 400.0, 50)
        vals = [g_sigma(mixture_pool_k4, s) for s in grid]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12)

    def test_derivative_of_log_normalizer(self, mixture_pool_k4):
        # central differences of ln Z match -g to 1e-6 relative
        eps = 1e-4
        for sigma in [-20.0, 0.0, 15.0, 60.0, 150.0]:
            up, _ = log_normalizer(mixture_pool_k4, SelectionModel.overdominance(sigma + eps))
            dn, _ = log_normalizer(mixture_pool_k4, SelectionModel.overdominance(sigma - eps))
            fd = (up - dn) / (2 * eps)
            g = g_sigma(mixture_pool_k4, sigma)
            assert fd == pytest.approx(-g, rel=1e-6)


class TestTilt:
    @pytest.mark.parametrize("sigma", [-1e4, -100.0, 0.0, 35.1, 1e4])
    def test_matches_unmasked_formulas(self, pool_k4, mixture_pool_k4, sigma):
        hv = Homozygosity(value=0.3, k=4)
        for pool in (pool_k4, mixture_pool_k4):
            t = tilt(pool, sigma)
            lw = pool.b - sigma * pool.h
            shifted = lw - lw.max()
            lse = logsumexp(shifted)
            below = pool.h <= hv.value
            assert t.log_z == pytest.approx(logsumexp(lw), rel=1e-12)
            assert t.g == pytest.approx(math.exp(logsumexp(shifted, b=pool.h) - lse), rel=1e-12)
            assert t.ess == pytest.approx(math.exp(2.0 * lse - logsumexp(2.0 * shifted)), rel=1e-12)
            # weights below 2**-1020 of the largest are dropped by design
            cdf = cdf_homozygosity(pool, sigma, hv)
            assert cdf == pytest.approx(math.exp(logsumexp(shifted[below]) - lse), rel=1e-12, abs=1e-300)

    def test_derivative_is_minus_variance(self, mixture_pool_k4):
        for sigma in (-100.0, 0.0, 35.1, 1600.0):
            lw = mixture_pool_k4.b - sigma * mixture_pool_k4.h
            w = np.exp(lw - lw.max())
            w /= w.sum()
            g = w @ mixture_pool_k4.h
            var = w @ (mixture_pool_k4.h - g) ** 2
            assert tilt(mixture_pool_k4, sigma).dg == pytest.approx(-var, rel=1e-9)

    def test_exactly_monotone_on_fine_grid(self, pool_k4, mixture_pool_k4):
        # no tolerance: saturated ends included
        grid = np.linspace(-1e4, 1e4, 2000)
        hv = Homozygosity(value=0.3, k=4)
        for pool in (pool_k4, mixture_pool_k4):
            assert np.all(np.diff([tilt(pool, s).g for s in grid]) <= 0.0)
            fs = [cdf_homozygosity(pool, s, hv) for s in grid]
            assert np.all(np.diff(fs) >= 0.0)
            assert fs == [_cdf_logit(pool, s, hv.value)[0] for s in grid]

    @pytest.mark.parametrize("sigma", [-1e4, -100.0, 0.0, 35.1, 1600.0, 1e4])
    def test_lean_passes_equal_full_pass(self, pool_k4, mixture_pool_k4, sigma):
        # no tolerance: the tangent and CDF passes reduce the same weights as tilt
        hv = Homozygosity(value=0.3, k=4)
        other = mixture_pool_k4.reweighted(MutationParams.symmetric(7.5, 4))
        for pool in (pool_k4, mixture_pool_k4, other):
            assert _log_z_tangent(pool.b, pool.s, pool.h, sigma)[0] == tilt(pool, sigma).log_z
        for pool in (pool_k4, mixture_pool_k4):
            w = _weights(pool.b, pool.h, sigma)[0]
            below = pool.h <= hv.value
            w_below, w_above = float(w @ below), float(w @ ~below)
            expected = 1.0 / (1.0 + w_above / w_below) if w_below > 0.0 else 0.0
            assert cdf_homozygosity(pool, sigma, hv) == expected

    def test_weights_are_zero_or_normal(self, mixture_pool_k4):
        for sigma in (-1e4, 1600.0, 1e4):
            w = _weights(mixture_pool_k4.b, mixture_pool_k4.h, sigma)[0]
            assert w.max() == 1.0
            assert not np.any((w > 0.0) & (w < 2.0**-1020))
            assert np.any(w == 0.0)


class TestReweighted:
    @pytest.mark.parametrize("sigma", [-1e4, -100.0, 0.0, 35.1, 1600.0])
    def test_view_pass_is_the_reweighted_pass(self, mixture_pool_k4, sigma):
        # no tolerance: the view's base log-weights are the Dirichlet reweighting
        pool = mixture_pool_k4
        a = 7.5 / 4
        base = float(gammaln(7.5) - 4 * gammaln(a)) + (a - 1.0) * pool.s - pool.proposal_log_density
        assert tilt(pool.reweighted(MutationParams.symmetric(7.5, 4)), sigma) == _pass(base, pool.h, sigma)

    def test_view_shares_the_draws(self, mixture_pool_k4):
        pool = mixture_pool_k4
        theta = MutationParams.symmetric(7.5, 4)
        view = pool.reweighted(theta)
        for name in ("h", "s", "proposal_log_density", "draws"):
            assert getattr(view, name) is getattr(pool, name)
        assert view.theta == theta and not np.shares_memory(view.b, pool.b)
        assert view.support_margin == pool.support_margin
        assert pool.reweighted(pool.theta) is pool

    def test_targets_it_cannot_reach(self, pool_k4):
        with pytest.raises(ValueError, match="k=4"):
            pool_k4.reweighted(MutationParams.symmetric(4.8, 3))
        bare = build_pool(MutationParams.symmetric(4.8, 4), n=1000, seed=1, keep_draws=False)
        with pytest.raises(ValueError, match="keep_draws"):
            bare.reweighted(MutationParams.general([1.0, 1.5, 1.2, 1.1]))


class TestSurface:
    @pytest.mark.parametrize("theta, sigma", [(0.5, -100.0), (4.8, 0.0), (4.8, 35.1), (7.5, 35.1), (20.0, 1600.0)])
    def test_matches_direct_formulas(self, mixture_pool_k4, theta, sigma):
        pool = mixture_pool_k4
        a = theta / 4
        log_z, mean_t, cov_t, ess = _surface(pool, a, sigma)
        lw = (a - 1.0) * pool.s - sigma * pool.h - pool.proposal_log_density
        w = np.exp(lw - lw.max())
        w /= w.sum()
        t = np.stack([pool.s, pool.h])
        mean = t @ w
        cov = (t - mean[:, None]) * w @ (t - mean[:, None]).T
        assert log_z == pytest.approx(logsumexp(lw) - math.log(pool.n), rel=1e-12)
        np.testing.assert_allclose(mean_t, mean, rtol=1e-12)
        np.testing.assert_allclose(cov_t, cov, rtol=1e-9)
        assert ess == pytest.approx(1.0 / (w @ w), rel=1e-12)
        # the h-moment is the reweighted tilt's, the constant having cancelled
        assert mean_t[1] == pytest.approx(tilt(pool.reweighted(MutationParams.symmetric(theta, 4)), sigma).g, rel=1e-12)

    def test_plain_pool_normalizer_is_the_dirichlet_constant(self, pool_k4):
        # at sigma = 0 on the pool's own concentration every weight is the
        # same constant: log of the integral of prod y^(a - 1) over the simplex
        (a,) = pool_k4.concentrations
        log_z, _, _, ess = _surface(pool_k4, a, 0.0)
        assert log_z == pytest.approx(4 * gammaln(a) - gammaln(4 * a), rel=1e-12)
        assert ess == pytest.approx(pool_k4.n, rel=1e-12)

    @pytest.mark.parametrize("theta, sigma", [(0.5, -100.0), (4.8, 35.1), (20.0, 1600.0)])
    def test_tangent_is_the_gradient_and_lies_below(self, mixture_pool_k4, theta, sigma):
        pool = mixture_pool_k4
        a = theta / 4
        base = _surface_base(pool, a)
        log_z, es, eh = _log_z_tangent(base, pool.s, pool.h, sigma)
        # no tolerance on log Z: the tangent pass is the full pass's log Z with two more reductions
        assert log_z == _pass(base, pool.h, sigma).log_z
        _, mean_t, _, _ = _surface(pool, a, sigma)
        np.testing.assert_allclose([es, eh], mean_t, rtol=1e-12)
        # log Z is convex in (a, sigma): the plane stays below it far away too
        for a2, sigma2 in ((a * 0.1, sigma - 500.0), (a * 3.0, sigma + 2000.0), (a + 1.0, -sigma), (a, sigma + 1.0)):
            plane = log_z + (a2 - a) * es - (sigma2 - sigma) * eh
            assert plane <= _pass(_surface_base(pool, a2), pool.h, sigma2).log_z + 1e-9


class TestScoreSigma:
    # The score of the log-likelihood in sigma is g(sigma) - h.
    def test_zero_at_neutral_moment(self, pool_k4):
        h = oracles.dirichlet_mean_homozygosity(4.8, 4)
        se = oracles.tilted_mean_h_se(pool_k4.b, pool_k4.h, 0.0)
        assert abs(g_sigma(pool_k4, 0.0) - h) < 4 * se + 1e-6

    def test_finite_difference_of_log_likelihood(self, mixture_pool_k4, theta_lyme):
        x = parse_frequencies("lyme")
        h = homozygosity(x).value
        eps = 1e-4
        for sigma in [-5.0, 10.0, 40.0]:
            up = log_likelihood(x, theta_lyme, SelectionModel.overdominance(sigma + eps), mixture_pool_k4)
            dn = log_likelihood(x, theta_lyme, SelectionModel.overdominance(sigma - eps), mixture_pool_k4)
            fd = (up - dn) / (2 * eps)
            assert fd == pytest.approx(g_sigma(mixture_pool_k4, sigma) - h, abs=1e-6)


class TestScoreGeneral:
    def test_neutral_cross_moments(self, mixture_pool_k4):
        x = parse_frequencies("lyme")
        zero = SelectionModel.from_matrix(np.zeros((4, 4)))
        score = score_general(x, mixture_pool_k4, zero)
        xv = x.as_array()
        for i in range(4):
            for j in range(4):
                if i == j:
                    moment = oracles.dirichlet_second_moment(1.2, 4.8)
                else:
                    moment = oracles.dirichlet_cross_moment(1.2, 1.2, 4.8)
                assert score[i, j] == pytest.approx(moment - xv[i] * xv[j], abs=2e-3)

    def test_trace_identity_with_scalar_model(self, mixture_pool_k4):
        x = parse_frequencies("lyme")
        sigma = 22.0
        model = SelectionModel.from_matrix(sigma * np.eye(4))
        score = score_general(x, mixture_pool_k4, model)
        expected = g_sigma(mixture_pool_k4, sigma) - homozygosity(x).value
        assert np.trace(score) == pytest.approx(expected, abs=1e-12)

    def test_requires_draws(self, theta_lyme):
        pool = build_pool(theta_lyme, n=1000, seed=4, keep_draws=False)
        with pytest.raises(ValueError, match="keep_draws"):
            score_general(parse_frequencies("lyme"), pool, SelectionModel.from_matrix(np.eye(4)))

    def test_matches_likelihood_gradient(self):
        # FD in each matrix entry at a random symmetric 3x3 intensity
        rng = np.random.default_rng(17)
        m = rng.normal(scale=2.0, size=(3, 3))
        m = m + m.T
        theta = MutationParams.symmetric(3.0, 3)
        pool = build_pool(theta, n=150_000, seed=23)
        x = SimplexPoint((0.5, 0.3, 0.2))
        score = score_general(x, pool, SelectionModel.from_matrix(m))
        eps = 1e-4
        for i in range(3):
            for j in range(3):
                # symmetric bump: entries (i,j) and (j,i) both move by eps,
                # so the induced log-likelihood change is 2 eps score[i,j]
                # whether or not i == j
                dm = np.zeros((3, 3))
                dm[i, j] += eps
                dm[j, i] += eps
                up = log_likelihood(x, theta, SelectionModel.from_matrix(m + dm), pool)
                dn = log_likelihood(x, theta, SelectionModel.from_matrix(m - dm), pool)
                fd = (up - dn) / (4.0 * eps)
                assert fd == pytest.approx(score[i, j], abs=1e-5), (i, j)


class TestCdfHomozygosity:
    def test_h_one_is_one(self, pool_k4):
        assert cdf_homozygosity(pool_k4, 13.0, Homozygosity(1.0, 4)) == pytest.approx(1.0)

    def test_below_pool_min_is_zero(self, pool_k4):
        h = Homozygosity(value=0.2500001, k=4)
        assert h.value < pool_k4.h_min
        assert cdf_homozygosity(pool_k4, 13.0, h) == 0.0

    def test_homozygosity_of_another_k_raises(self, pool_k4):
        with pytest.raises(ValueError, match="k=5"):
            cdf_homozygosity(pool_k4, 13.0, Homozygosity(0.22, 5))

    def test_nondecreasing_in_sigma(self, mixture_pool_k4):
        h = Homozygosity(0.288, 4)
        grid = np.linspace(-60.0, 400.0, 50)
        vals = [cdf_homozygosity(mixture_pool_k4, s, h) for s in grid]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_against_qmc_oracle(self, mixture_pool_k4):
        h = homozygosity(parse_frequencies("lyme"))
        ours = cdf_homozygosity(mixture_pool_k4, 17.25, h)
        ref = oracles.selection_cdf_qmc(4.8, 4, 17.25, h.value, m_pow=20)
        assert ours == pytest.approx(ref, abs=0.01)


class TestOptimalComposition:
    def test_overdominance_centroid(self):
        res = optimal_composition(SelectionModel.overdominance(35.1), k=4)
        assert np.allclose(res.point, 0.25, atol=1e-6)
        assert res.value == pytest.approx(35.1 / 4, abs=1e-8)
        assert not res.boundary

    def test_homozygote_advantage_vertex(self):
        res = optimal_composition(SelectionModel.overdominance(-9.0), k=5)
        assert res.boundary
        assert res.value == pytest.approx(-9.0, abs=1e-8)
        assert res.point.max() == pytest.approx(1.0, abs=1e-6)

    def test_offdiagonal_k2_vertex(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = optimal_composition(SelectionModel.from_matrix(m), k=2)
        ref = oracles.min_quadratic_form_grid_k2(m)
        assert ref == pytest.approx(0.0, abs=1e-7)
        assert res.value == pytest.approx(ref, abs=1e-7)
        assert res.boundary

    def test_value_is_lower_bound(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(4, 4))
        m = m + m.T
        model = SelectionModel.from_matrix(m)
        res = optimal_composition(model, k=4)
        g = rng.gamma(1.0, size=(1000, 4))
        pts = g / g.sum(axis=1, keepdims=True)
        vals = np.einsum("ij,jl,il->i", pts, m, pts)
        assert np.all(vals >= res.value - 1e-9)


class TestPoolPolicy:
    def test_plain_inside_thresholds(self, theta_lyme):
        pool = pool_for_sigma_range(theta_lyme, 1000, 1, sigma_lo=-20.0, sigma_hi=100.0)
        assert pool.concentrations == (1.2,)

    def test_defensive_above(self, theta_lyme):
        pool = pool_for_sigma_range(theta_lyme, 1000, 1, sigma_lo=0.0, sigma_hi=500.0)
        assert pool.concentrations == (1.2, 2.0, 8.0)

    def test_vertex_component_below(self, theta_lyme):
        pool = pool_for_sigma_range(theta_lyme, 1000, 1, sigma_lo=-100.0, sigma_hi=500.0)
        assert 0.4 in pool.concentrations

    def test_centers_replace_theta_over_k(self, theta_lyme):
        # the joint MLE's pilot aims at its ladder, and the range adds the rest
        ladder = (0.5, 2.0, 3.0)
        pool = pool_for_sigma_range(theta_lyme, 1000, 1, sigma_hi=500.0, centers=ladder)
        assert pool.concentrations == (0.5, 2.0, 3.0, 8.0)
        pool = pool_for_sigma_range(theta_lyme, 1000, 1, sigma_lo=-100.0, sigma_hi=500.0, centers=(0.4,))
        assert pool.concentrations == (0.4, 2.0, 8.0)
        assert pool_for_sigma_range(theta_lyme, 1000, 1, centers=ladder).concentrations == ladder
