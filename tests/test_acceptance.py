"""Acceptance gate: every criterion at its stated tolerance and scale.

One test per criterion; each prints a single pass/fail line (run with
``pytest -s`` to see them live).  Criteria whose reference values are
unreproducible from the stated configuration fail here honestly; the
failure messages carry the independently cross-checked values this
implementation converges to.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from kallele import (
    Homozygosity,
    JointMleConfig,
    MutationParams,
    PosteriorConfig,
    SamplerConfig,
    SelectionModel,
    bootstrap,
    cdf_homozygosity,
    g_sigma,
    homozygosity,
    instability_probability,
    mle_joint,
    mle_sigma,
    monotone_ci,
    optimal_composition,
    parse_frequencies,
    posterior_sample,
    posterior_summary,
    sample_selection,
)
from kallele.density import build_mixture_pool, log_normalizer, pool_for_sigma_range
from kallele.inference import BootstrapConfig, MonotoneCiConfig
from kallele.sampler import _selection_arrays


LYME = parse_frequencies("lyme")
KIR = parse_frequencies("kir")

pytestmark = pytest.mark.slow


def finish(criterion: str, checks: list[tuple[str, bool, str]]) -> None:
    ok = all(c[1] for c in checks)
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'}: "
          + "; ".join(f"{name} {'ok' if good else 'FAIL'} ({detail})" for name, good, detail in checks))
    failing = [f"{name}: {detail}" for name, good, detail in checks if not good]
    assert not failing, f"{criterion} failing sub-checks: " + " | ".join(failing)


@pytest.fixture(scope="module")
def lyme_pool_1m():
    theta = MutationParams.symmetric(4.8, 4)
    return pool_for_sigma_range(theta, 1_000_000, 11, sigma_lo=-500.0, sigma_hi=2000.0)


@pytest.fixture(scope="module")
def kir_joint_mle():
    return mle_joint(KIR, seed=3, config=JointMleConfig(pool_n=1_000_000))


def test_criterion_1_homozygosity():
    h_lyme = homozygosity(LYME).value
    h_kir = homozygosity(KIR).value
    finish(
        "criterion 1: homozygosity",
        [
            ("lyme", abs(h_lyme - 0.288) <= 5e-4, f"h={h_lyme:.6f} vs 0.288+-0.0005"),
            ("kir", abs(h_kir - 0.172) <= 5e-4, f"h={h_kir:.6f} vs 0.172+-0.0005"),
        ],
    )


def test_criterion_2_joint_mle_lyme():
    t0 = time.time()
    res = mle_joint(LYME, seed=3, config=JointMleConfig(pool_n=1_000_000))
    dt = time.time() - t0
    finish(
        "criterion 2: joint MLE on Lyme",
        [
            ("converged", res.converged, res.status),
            ("theta", res.theta_hat is not None and abs(res.theta_hat - 4.8) <= 0.5,
             f"theta_hat={res.theta_hat:.3f} vs 4.8+-0.5"),
            ("sigma", abs(res.sigma_hat - 35.1) <= 4.0, f"sigma_hat={res.sigma_hat:.2f} vs 35.1+-4"),
            ("runtime", dt < 300.0, f"{dt:.0f}s < 300s"),
        ],
    )


def test_criterion_3_monotone_ci(lyme_pool_1m, kir_joint_mle):
    h_lyme = homozygosity(LYME)
    iv_l = monotone_ci(h_lyme, lyme_pool_1m, 0.025, 0.025)
    theta_k = kir_joint_mle.theta_hat
    kir_pool = pool_for_sigma_range(
        MutationParams.symmetric(theta_k, 8), 1_000_000, 13, sigma_lo=-500.0, sigma_hi=2000.0
    )
    iv_k = monotone_ci(homozygosity(KIR), kir_pool, 0.025, 0.025)
    finish(
        "criterion 3: monotone exact CI",
        [
            ("lyme lower", abs(iv_l.lower - (-8.0)) <= 3.0, f"{iv_l.lower:.2f} vs -8+-3"),
            # Reference value irreproducible: adaptive quadrature, Sobol QMC,
            # exact rejection MC and independence MH all locate the 0.975
            # CDF-matching intensity at ~122 for this configuration.
            ("lyme upper", abs(iv_l.upper - 105.0) <= 10.0, f"{iv_l.upper:.2f} vs 105+-10"),
            ("kir lower", abs(iv_k.lower - (-10.0)) <= 3.0, f"{iv_k.lower:.2f} vs -10+-3"),
            ("kir upper", abs(iv_k.upper - 159.0) <= 15.0, f"{iv_k.upper:.2f} vs 159+-15"),
        ],
    )


def test_criterion_4_cdf_checks(lyme_pool_1m):
    h = homozygosity(LYME)
    f_low = cdf_homozygosity(lyme_pool_1m, 17.25, h)
    tail = 1.0 - cdf_homozygosity(lyme_pool_1m, 681.2, h)
    finish(
        "criterion 4: CDF checks",
        [
            ("P(H<=h | 17.25)", abs(f_low - 0.354) <= 0.015, f"{f_low:.4f} vs 0.354+-0.015"),
            ("P(H>=h | 681.2)", tail < 0.005, f"{tail:.6f} < 0.005"),
        ],
    )


def test_criterion_5_bootstrap(lyme_pool_1m, kir_joint_mle):
    t0 = time.time()
    res_l = bootstrap(4.8, 35.1, 4, 10_000, seed=7, config=BootstrapConfig(pool_n=100_000))
    iv_l = res_l.percentile_interval
    res_k = bootstrap(
        kir_joint_mle.theta_hat, kir_joint_mle.sigma_hat, 8, 10_000, seed=8,
        config=BootstrapConfig(pool_n=100_000),
    )
    iv_k = res_k.percentile_interval
    dt = time.time() - t0
    ci_l = monotone_ci(homozygosity(LYME), lyme_pool_1m, 0.025, 0.025)
    checks = [
        ("lyme SE", abs(res_l.standard_error - 176.4) <= 0.4 * 176.4,
         f"SE={res_l.standard_error:.1f} vs 176.4+-40%"),
        # Reference endpoints irreproducible: under the stated generator
        # (4.8, 35.1, 4) the exact 2.5th/97.5th percentiles of the
        # conditional MLE are ~2.8/~510 (cross-checked against iid
        # rejection-sampled replicates mapped through the quadrature-
        # validated mean-homozygosity curve).
        ("lyme lower", abs(iv_l.lower - 17.2) <= 0.3 * 17.2, f"{iv_l.lower:.1f} vs 17.2+-30%"),
        ("lyme upper", abs(iv_l.upper - 681.3) <= 0.3 * 681.3, f"{iv_l.upper:.1f} vs 681.3+-30%"),
        ("kir lower", abs(iv_k.lower - 21.1) <= 0.3 * 21.1, f"{iv_k.lower:.1f} vs 21.1+-30%"),
        ("kir upper", abs(iv_k.upper - 396.4) <= 0.3 * 396.4, f"{iv_k.upper:.1f} vs 396.4+-30%"),
        ("bootstrap/CI width ratio", iv_l.width > 4.0 * ci_l.width,
         f"{iv_l.width:.0f} vs 4 x {ci_l.width:.0f}"),
        ("unbounded reported", res_l.n_unbounded >= 0, f"n_unbounded={res_l.n_unbounded}"),
        ("runtime", dt < 1800.0, f"{dt:.0f}s < 1800s"),
    ]
    finish("criterion 5: parametric bootstrap", checks)


def test_criterion_6_posterior():
    t0 = time.time()
    cfg = PosteriorConfig(pool_n=100_000)
    chain_lyme = posterior_sample(LYME, chain_length=100_000, seed=1, config=cfg)
    iv_lyme, _ = posterior_summary(chain_lyme, 0.95)
    chain_kj = posterior_sample(KIR, chain_length=100_000, seed=2, config=cfg)
    iv_kj, (theta_mode, _) = posterior_summary(chain_kj, 0.95)
    cfg_fixed = PosteriorConfig(pool_n=100_000, theta_fixed=theta_mode)
    chain_kf = posterior_sample(KIR, chain_length=100_000, seed=3, config=cfg_fixed)
    iv_kf, _ = posterior_summary(chain_kf, 0.95)
    dt = time.time() - t0

    def band(x, ref):
        return abs(x - ref) <= 0.25 * abs(ref)

    finish(
        "criterion 6: posterior credible intervals",
        [
            # Reference lower endpoint irreproducible: exact grid quadrature
            # of the flat-prior joint posterior puts the 2.5% quantile near
            # 1-3 for every prior box tried; see decisions ledger.
            ("lyme joint lower", band(iv_lyme.lower, 10.8), f"{iv_lyme.lower:.1f} vs 10.8+-25%"),
            ("lyme joint upper", band(iv_lyme.upper, 124.9), f"{iv_lyme.upper:.1f} vs 124.9+-25%"),
            ("kir fixed lower", band(iv_kf.lower, 6.3), f"{iv_kf.lower:.1f} vs 6.3+-25%"),
            ("kir fixed upper", band(iv_kf.upper, 182.9), f"{iv_kf.upper:.1f} vs 182.9+-25%"),
            ("kir joint lower", band(iv_kj.lower, 4.3), f"{iv_kj.lower:.1f} vs 4.3+-25%"),
            ("kir joint upper", band(iv_kj.upper, 205.5), f"{iv_kj.upper:.1f} vs 205.5+-25%"),
            ("runtime", dt < 1800.0, f"{dt:.0f}s for three chains"),
        ],
    )


def test_criterion_7_instability_curve():
    theta = MutationParams.symmetric(5.0, 20)
    pool = pool_for_sigma_range(theta, 1_000_000, 77, sigma_lo=-1e5, sigma_hi=1e5, keep_draws=False)
    r13 = mle_sigma(Homozygosity(0.13, 20), pool)
    r08 = mle_sigma(Homozygosity(0.08, 20), pool)
    ok08 = (r08.status == "unbounded_above") or (r08.converged and r08.sigma_hat > 900.0)
    finish(
        "criterion 7: instability curve at k=20, theta=5",
        [
            # Reference values irreproducible at theta=5: the mean-
            # homozygosity curve is triply cross-validated (pool, exact
            # rejection, independence MH) at sigma_hat(0.13)=48, and the
            # reference curve matches theta~0.5 instead; see ledger.
            ("sigma_hat(0.13)", r13.converged and 300.0 <= r13.sigma_hat <= 400.0,
             f"{r13.sigma_hat:.1f} vs [300, 400]"),
            ("sigma_hat(0.08)", ok08, f"{r08.sigma_hat:.1f} status={r08.status} vs >900 or unbounded"),
        ],
    )


def test_criterion_8_instability_region_ordering():
    rows = instability_probability(10, 5.0, [5.0, 10.0, 25.0, 50.0, 100.0], 0.09, 1000, seed=20)
    checks = []
    for r in rows:
        p1, p2, n = r["hetero_hit_fraction"], r["homo_hit_fraction"], r["n_per_sigma"]
        gap = 3.0 * math.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
        checks.append(
            (f"sigma={r['sigma']:g}", p1 - p2 > gap, f"hetero={p1:.3f} homo={p2:.3f} 3s-band={gap:.3f}")
        )
    finish("criterion 8: instability-region ordering", checks)


def test_criterion_9_property_suite():
    checks = []
    theta4 = MutationParams.symmetric(4.8, 4)
    pool = build_mixture_pool(theta4, (1.2, 0.4, 2.0, 8.0), 100_000, seed=202)

    # exact empirical monotonicity of g (down) and the CDF (up) in sigma
    grid = np.linspace(-80.0, 600.0, 50)
    gs = np.array([g_sigma(pool, s) for s in grid])
    checks.append(("g monotone", bool(np.all(np.diff(gs) <= 1e-12)), "50-point grid"))
    h3 = Homozygosity(0.3, 4)
    fs = np.array([cdf_homozygosity(pool, s, h3) for s in grid])
    checks.append(("cdf monotone", bool(np.all(np.diff(fs) >= -1e-12)), "50-point grid"))

    # d/dsigma ln Z = -g to 1e-6 relative
    eps, fd_ok = 1e-4, True
    for s in (-20.0, 0.0, 30.0, 120.0):
        up, _ = log_normalizer(pool, SelectionModel.overdominance(s + eps))
        dn, _ = log_normalizer(pool, SelectionModel.overdominance(s - eps))
        g = g_sigma(pool, s)
        fd_ok &= abs((up - dn) / (2 * eps) + g) <= 1e-6 * abs(g)
    checks.append(("dlnZ/dsigma = -g", fd_ok, "central differences, 1e-6 relative"))

    # general score matches the likelihood gradient entrywise
    from kallele import SimplexPoint, log_likelihood, score_general

    rng = np.random.default_rng(17)
    m = rng.normal(scale=2.0, size=(3, 3))
    m = m + m.T
    theta3 = MutationParams.symmetric(3.0, 3)
    pool3 = pool_for_sigma_range(theta3, 150_000, 23, keep_draws=True)
    x3 = SimplexPoint((0.5, 0.3, 0.2))
    score = score_general(x3, pool3, SelectionModel.from_matrix(m))
    grad_ok = True
    for i in range(3):
        for j in range(3):
            dm = np.zeros((3, 3))
            dm[i, j] += eps
            dm[j, i] += eps
            up = log_likelihood(x3, theta3, SelectionModel.from_matrix(m + dm), pool3)
            dn = log_likelihood(x3, theta3, SelectionModel.from_matrix(m - dm), pool3)
            grad_ok &= abs((up - dn) / (4 * eps) - score[i, j]) <= 1e-5
    checks.append(("matrix score = gradient", grad_ok, "random symmetric 3x3"))

    # rejection and MH land on the same law
    rej, _ = sample_selection(theta4, 20.0, 10_000, seed=7)
    mh, _ = sample_selection(theta4, 20.0, 10_000, seed=8,
                             config=SamplerConfig(sigma_switch=10.0))
    h_rej = np.einsum("ij,ij->i", np.asarray([p.values for p in rej]), np.asarray([p.values for p in rej]))
    h_mh = np.einsum("ij,ij->i", np.asarray([p.values for p in mh]), np.asarray([p.values for p in mh]))
    ks = ks_2samp(h_rej, h_mh)
    checks.append(("rejection vs MH KS", ks.pvalue > 0.001, f"p={ks.pvalue:.4f}"))

    # concentration at the centroid strengthens through the decades
    devs = []
    for s in (10.0, 100.0, 1000.0):
        pts, _ = sample_selection(theta4, s, 3000, seed=7)
        arr = np.asarray([p.values for p in pts])
        hh = np.einsum("ij,ij->i", arr, arr)
        devs.append(float(np.abs(hh - 0.25).mean()))
    checks.append(("concentration decades", devs[0] > devs[1] > devs[2],
                   f"{devs[0]:.4f} > {devs[1]:.4f} > {devs[2]:.4f}"))

    # the composition of strongest signal
    res_c = optimal_composition(SelectionModel.overdominance(35.1), k=4)
    res_v = optimal_composition(SelectionModel.overdominance(-35.1), k=4)
    checks.append(("optimum centroid", bool(np.abs(res_c.point - 0.25).max() < 1e-6),
                   f"max dev {np.abs(res_c.point - 0.25).max():.2e}"))
    checks.append(("optimum vertex", res_v.boundary and abs(res_v.value + 35.1) < 1e-6,
                   f"value {res_v.value:.4f}"))

    # monotone-CI coverage at nominal 90%
    theta_cov = MutationParams.symmetric(5.0, 4)
    cov_pool = pool_for_sigma_range(theta_cov, 100_000, 41, sigma_lo=-500.0, sigma_hi=2000.0)
    draws, _ = _selection_arrays(theta_cov, 30.0, 500, 40, SamplerConfig())
    hs = np.einsum("ij,ij->i", draws, draws)
    hits = 0
    for hv in hs:
        iv = monotone_ci(Homozygosity(float(hv), 4), cov_pool, 0.05, 0.05)
        hits += iv.lower <= 30.0 <= iv.upper
    coverage = hits / 500.0
    checks.append(("coverage 90%", 0.855 <= coverage <= 0.945, f"coverage={coverage:.3f}"))

    finish("criterion 9: property suite", checks)
