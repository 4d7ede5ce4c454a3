"""Independent reference computations used to freeze expected test values.

Each oracle avoids the package's importance-pool machinery: quadrature for
k = 2, Sobol quasi-random integration over the simplex for general k, exact
Dirichlet moment formulas, thermodynamic bridging with exact samplers for
extreme intensities, and dense grid search for the simplex minimizer.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import gammaincinv, gammaln, logsumexp
from scipy.stats import qmc


def dirichlet_mean_homozygosity(theta_total: float, k: int) -> float:
    """E[sum X_i^2] for the symmetric Dirichlet: (theta + k) / (k (theta + 1))."""
    return (theta_total + k) / (k * (theta_total + 1.0))


def dirichlet_second_moment(alpha_i: float, alpha_0: float) -> float:
    """E[X_i^2] = a_i (a_i + 1) / (a_0 (a_0 + 1))."""
    return alpha_i * (alpha_i + 1.0) / (alpha_0 * (alpha_0 + 1.0))


def dirichlet_cross_moment(alpha_i: float, alpha_j: float, alpha_0: float) -> float:
    """E[X_i X_j], i != j."""
    return alpha_i * alpha_j / (alpha_0 * (alpha_0 + 1.0))


def _normalized_weights(log_w: np.ndarray) -> np.ndarray:
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def tilted_mean_h_se(b: np.ndarray, h: np.ndarray, sigma: float) -> float:
    """Delta-method standard error of the self-normalized mean of h under weights exp(b - sigma h)."""
    w = _normalized_weights(b - sigma * h)
    d = w * (h - w @ h)
    return float(np.sqrt(d @ d))


def tilted_log_normalizer_se(b: np.ndarray, stat: np.ndarray, sigma: float) -> float:
    """Delta-method standard error of log sum exp(b - sigma stat) - log sum exp(b) over one set of draws."""
    du = _normalized_weights(b - sigma * stat) - _normalized_weights(b)
    return float(np.sqrt(du @ du))


def log_normalizer_quadrature_k2(theta_total: float, sigma: float) -> float:
    """ln E[exp(-sigma H)] for k = 2 via adaptive 1-d quadrature."""
    a = theta_total / 2.0
    logc = gammaln(theta_total) - 2.0 * gammaln(a)

    def f(x):
        h = x * x + (1.0 - x) * (1.0 - x)
        return math.exp(-sigma * h + (a - 1.0) * math.log(x * (1.0 - x)) + logc)

    val, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    return math.log(val)


def uniform_simplex_sobol(k: int, m_pow: int, seed: int = 9) -> np.ndarray:
    """2**m_pow quasi-random points uniform on the (k-1)-simplex (sorted gaps).

    Weighting these points by the neutral density ratio x^(theta/k - 1) is
    biased at theta/k < 1, where that ratio is unbounded at the faces: at
    (theta, k, sigma) = (5, 10, -10) and 2^21 points, exp(log Z + sigma)
    reads 0.00083 against 0.00101 from Dirichlet-mapped points (see
    ``selection_h_qmc``).  Use them at theta/k >= 1 only.
    """
    eng = qmc.Sobol(d=k - 1, scramble=True, seed=seed)
    u = eng.random(2**m_pow)
    u.sort(axis=1)
    pad = np.zeros((u.shape[0], 1))
    x = np.diff(np.concatenate([pad, u, pad + 1.0], axis=1), axis=1)
    return np.clip(x, 1e-300, None)


def log_normalizer_qmc(theta_total: float, k: int, sigma: float, m_pow: int = 21) -> float:
    """ln E[exp(-sigma H)] by Sobol integration against the neutral density.

    Biased at theta/k < 1, like every weighting of ``uniform_simplex_sobol``
    points by the neutral density (at theta = 5, k = 10, sigma = -10 it
    reads exp(log Z + sigma) = 0.00083 against 0.00101).
    """
    x = uniform_simplex_sobol(k, m_pow)
    a = theta_total / k
    h = np.einsum("ij,ij->i", x, x)
    lw = (a - 1.0) * np.log(x).sum(axis=1) - sigma * h
    logc = gammaln(theta_total) - k * gammaln(a) - gammaln(k)  # /Gamma(k): uniform density
    return float(logsumexp(lw) - math.log(x.shape[0]) + logc)


def selection_cdf_qmc(theta_total: float, k: int, sigma: float, h_cut: float, m_pow: int = 21) -> float:
    """P(H <= h | sigma) by Sobol integration of the tilted density ratio.

    Biased at theta/k < 1, like every weighting of ``uniform_simplex_sobol``
    points by the neutral density; ``selection_h_qmc`` holds there.
    """
    x = uniform_simplex_sobol(k, m_pow)
    a = theta_total / k
    h = np.einsum("ij,ij->i", x, x)
    lw = (a - 1.0) * np.log(x).sum(axis=1) - sigma * h
    w = np.exp(lw - lw.max())
    return float((w * (h <= h_cut)).sum() / w.sum())


def selection_h_qmc(
    theta_total: float, k: int, sigma: float, h_cut: float, m_pow: int = 15, reps: int = 8
) -> tuple[float, float, float, float]:
    """E[H | sigma] and P(H <= h_cut | sigma), each with its standard error, by randomized QMC.

    Each of ``reps`` independently scrambled Sobol sets is mapped through
    the inverse gamma CDF to Dirichlet(c) points, c = 0.7 theta/k, a little
    leaner than the neutral law so more of them reach the vertices, and
    weighted by the density ratio prod x^(theta/k - c) exp(-sigma H).  The
    weights are bounded, so unlike the uniform-simplex oracles above this
    stays accurate at theta/k below 1, where the neutral density is
    unbounded at the faces.  Returns (mean, its se, cdf, its se), the se
    from the spread of the scrambles.
    """
    a = theta_total / k
    est = np.empty((reps, 2))
    for r in range(reps):
        g = gammaincinv(0.7 * a, qmc.Sobol(d=k, scramble=True, seed=9 + r).random(2**m_pow))
        x = np.clip(g / g.sum(axis=1, keepdims=True), 1e-300, None)
        h = np.einsum("ij,ij->i", x, x)
        w = _normalized_weights(0.3 * a * np.log(x).sum(axis=1) - sigma * h)
        est[r] = w @ h, w @ (h <= h_cut)
    mean, se = est.mean(axis=0), est.std(axis=0, ddof=1) / math.sqrt(reps)
    return float(mean[0]), float(se[0]), float(mean[1]), float(se[1])


def log_normalizer_bridge(theta, sigma_target: float, sample_fn, steps: int = 12, n: int = 30_000, seed: int = 1000) -> float:
    """ln E[exp(-sigma H)] by thermodynamic bridging with exact samplers.

    ``sample_fn(theta, sigma, n, seed)`` must return draws as an (n, k)
    array distributed per the selected stationary law at that intensity.
    """
    sigmas = np.linspace(0.0, sigma_target, steps + 1)
    total = 0.0
    for j in range(steps):
        draws = sample_fn(theta, float(sigmas[j]), n, seed + j)
        h = np.einsum("ij,ij->i", draws, draws)
        total += float(logsumexp(-(sigmas[j + 1] - sigmas[j]) * h) - math.log(n))
    return total


def min_quadratic_form_grid_k2(matrix: np.ndarray, resolution: float = 1e-4) -> float:
    """Exhaustive grid minimum of x' S x on the 1-simplex."""
    t = np.arange(0.0, 1.0 + resolution / 2, resolution)
    x = np.stack([t, 1.0 - t], axis=1)
    vals = np.einsum("ij,jl,il->i", x, matrix, x)
    return float(vals.min())
