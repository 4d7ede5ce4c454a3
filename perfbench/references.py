"""Regenerate references.json, the seed-independent references of the workload checks.

Run from the repository root:

    python3 perfbench/references.py

Every value comes from randomized QMC over the simplex (``qmc.SimplexQmc``),
never from kallele's importance pools:

* ``bootstrap`` and ``sample``: the mean homozygosity g(sigma) under the
  selected law at each generator, with its scramble standard error;
* ``posterior``: the marginal posterior CDF of sigma under the flat prior
  box theta in (0, 50], sigma in [0, 1000], by quadrature over a sigma grid
  (and a theta grid for the joint chain), with the log-normalizer at every
  node computed by QMC.

The references depend only on the constants below, so they are computed
once and cached; the checks that depend on the run seed (the exact-CI
endpoints at theta-hat) compute theirs during the run.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy.special import gammaln, logsumexp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from kallele.core import BUNDLED_DATASETS  # noqa: E402  (data only; no pool code)
from qmc import SimplexQmc  # noqa: E402
MEAN_H = {
    "bootstrap": {"lyme": (4, 4.8, 35.1), "kir": (8, 6.24, 53.5)},
    "sample": {"rejection": (4, 4.8, 35.1), "mh-dirichlet": (4, 4.8, 200.0),
               "mh-vertex": (4, 4.8, -200.0)},
}
SIGMA_BOX = (0.0, 1000.0)
THETA_BOX = (0.0, 50.0)
KIR_FIXED_THETA = 6.2


def sigma_grid() -> np.ndarray:
    """Fine where the lower credible endpoints sit, coarse in the far tail."""
    return np.unique(np.concatenate([
        np.arange(0.0, 20.0, 0.25), np.arange(20.0, 200.0, 1.0), np.arange(200.0, 1000.01, 4.0),
    ]))


def log_posterior_sigma(q: SimplexQmc, x: np.ndarray, theta: float, sig: np.ndarray) -> np.ndarray:
    """Flat-prior log posterior over the sigma grid at one theta, up to a constant."""
    k = x.size
    a = theta / k
    h_x = float(x @ x)
    log_neutral = gammaln(theta) - k * gammaln(a) + (a - 1.0) * float(np.log(x).sum())
    lw = q.log_weights(theta)
    lz = np.empty(sig.size)
    for lo in range(0, sig.size, 64):
        block = sig[lo:lo + 64]
        lz[lo:lo + 64] = logsumexp(lw[None, :] - block[:, None] * q.h[None, :], axis=1)
    lz -= math.log(lw.size)
    return log_neutral - sig * h_x - lz


def cdf_from_log_density(sig: np.ndarray, logp: np.ndarray) -> np.ndarray:
    p = np.exp(logp - logp.max())
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(sig))])
    return cum / cum[-1]


def main() -> None:
    refs: dict = {"generated_by": "python3 perfbench/references.py"}
    qmcs = {4: SimplexQmc(4, m_pow=14), 8: SimplexQmc(8, m_pow=13)}
    for group, items in MEAN_H.items():
        refs[group] = {}
        for label, (k, theta, sigma) in items.items():
            g, se = qmcs[k].mean_h(theta, sigma)
            refs[group][label] = {"k": k, "theta": theta, "sigma": sigma, "g": g, "se": se}

    sig = sigma_grid()
    kir = np.asarray(BUNDLED_DATASETS["kir"])
    cdf_kir = cdf_from_log_density(sig, log_posterior_sigma(qmcs[8], kir, KIR_FIXED_THETA, sig))

    lyme = np.asarray(BUNDLED_DATASETS["lyme"])
    q4 = SimplexQmc(4, m_pow=11, reps=4)
    step = 0.25
    thetas = np.arange(THETA_BOX[0] + step / 2, THETA_BOX[1], step)
    rows = np.stack([log_posterior_sigma(q4, lyme, float(t), sig) for t in thetas])
    # Marginalize theta (midpoint rule on a uniform grid), then integrate sigma.
    m = rows.max()
    marginal = np.log(np.exp(rows - m).sum(axis=0)) + m
    cdf_lyme = cdf_from_log_density(sig, marginal)

    refs["posterior"] = {
        "lyme": {"theta": None, "sigma": sig.tolist(), "cdf": cdf_lyme.tolist()},
        "kir": {"theta": KIR_FIXED_THETA, "sigma": sig.tolist(), "cdf": cdf_kir.tolist()},
    }
    for label in ("lyme", "kir"):
        c = np.asarray(refs["posterior"][label]["cdf"])
        lo, hi = np.interp([0.025, 0.975], c, sig)
        print(f"posterior[{label}]: quadrature 95% interval ({lo:.4g}, {hi:.4g})")
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
