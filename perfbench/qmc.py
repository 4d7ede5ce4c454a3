"""Reference integrals over the simplex that share no code or randomness with kallele.

kallele estimates every selected-law quantity by importance sampling on its
own pool of pseudo-random Dirichlet draws.  The references here integrate
the same quantities by randomized quasi-Monte Carlo instead: scrambled Sobol
points are mapped to Dirichlet(c, ..., c) variates through the inverse gamma
CDF for a fixed ladder of concentrations c, and the ladder is combined as one
mixture proposal (balance heuristic).  Small c covers the vertices
(homozygote advantage), large c the centroid (strong heterozygote
advantage).  Independent scrambles give the Monte Carlo error of each
estimate.  Also here: Geyer's initial-positive-sequence effective sample
size, used for chain output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincinv, gammaln, logsumexp
from scipy.stats import qmc

LADDER = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)


class SimplexQmc:
    """A fixed set of QMC points on the (k-1)-simplex with mixture log-densities.

    ``h`` is each point's homozygosity, ``s`` its log-frequency sum and
    ``log_q`` the log-density of the concentration-ladder mixture.  Points
    are grouped into ``reps`` independently scrambled replicates.
    """

    def __init__(self, k: int, m_pow: int = 11, reps: int = 8, seed: int = 12345):
        self.k = k
        self.reps = reps
        xs = []
        for r in range(reps):
            for ci, c in enumerate(LADDER):
                eng = qmc.Sobol(d=k, scramble=True, seed=seed + 1000 * r + ci)
                u = eng.random(2**m_pow)
                g = gammaincinv(c, u)
                x = g / g.sum(axis=1, keepdims=True)
                x = np.clip(x, 1e-300, None)
                xs.append(x)
        x = np.concatenate(xs)
        self.h = np.einsum("ij,ij->i", x, x)
        self.s = np.log(x).sum(axis=1)
        parts = [gammaln(k * c) - k * gammaln(c) + (c - 1.0) * self.s for c in LADDER]
        self.log_q = logsumexp(np.stack(parts), axis=0) - math.log(len(LADDER))

    def log_weights(self, theta: float) -> np.ndarray:
        """log(neutral symmetric Dirichlet density / mixture density) per point."""
        a = theta / self.k
        return gammaln(theta) - self.k * gammaln(a) + (a - 1.0) * self.s - self.log_q

    def _per_rep(self, values: np.ndarray) -> np.ndarray:
        return values.reshape(self.reps, -1)

    def log_normalizer(self, theta: float, sigmas: np.ndarray) -> np.ndarray:
        """log E_neutral[exp(-sigma H)] for each sigma, pooled over all replicates."""
        lw = self.log_weights(theta)
        sig = np.asarray(sigmas, dtype=np.float64)
        out = np.empty(sig.size)
        for j, sg in enumerate(sig):
            out[j] = logsumexp(lw - sg * self.h) - math.log(lw.size)
        return out

    def tilted_mean(self, theta: float, sigma: float, f: np.ndarray) -> tuple[float, float]:
        """E[f(X) | sigma] under the selected law, with its scramble standard error."""
        lw = self._per_rep(self.log_weights(theta) - sigma * self.h)
        w = np.exp(lw - lw.max())
        fv = self._per_rep(f)
        pooled = float((w * fv).sum() / w.sum())
        w = np.exp(lw - lw.max(axis=1, keepdims=True))  # each scramble on its own scale
        est = (w * fv).sum(axis=1) / w.sum(axis=1)
        return pooled, float(est.std(ddof=1) / math.sqrt(self.reps))

    def mean_h(self, theta: float, sigma: float) -> tuple[float, float]:
        return self.tilted_mean(theta, sigma, self.h)

    def cdf(self, theta: float, sigma: float, h_cut: float) -> tuple[float, float]:
        return self.tilted_mean(theta, sigma, (self.h <= h_cut).astype(np.float64))


def geyer_ess(x: np.ndarray) -> float:
    """Effective sample size by Geyer's initial positive sequence estimator."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    xc = x - x.mean()
    var = float(xc @ xc) / n
    if n < 4 or var == 0.0:
        return float(n)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    rho = acov / acov[0]
    tau = -1.0
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(n / max(tau, 1e-12))
