"""The package's converged values against references computed without any pool.

The joint optimum: Newton's method on the same exponential-family
likelihood surface, with the normalizer integrated over 2**21 scrambled
Sobol points uniform on the simplex (``oracles.uniform_simplex_sobol``),
once for each of two scrambles.  ``mle_joint`` at 1M draws must land
within five of its own pool standard deviations of that optimum.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

from kallele import JointMleConfig, mle_joint, parse_frequencies

import oracles

pytestmark = pytest.mark.slow

SCRAMBLES = (9, 10)

# label: the (theta, sigma) optimum to the digits stated, half a unit of
# their last digits, and the standard deviations of mle_joint's
# (theta-hat, sigma-hat) at pool_n = 1M over pool seeds 1-12 (Lyme theta
# 4.936-4.965, sigma 34.34-34.42; KIR theta 6.190-6.243, sigma 53.47-53.80).
JOINT_OPTIMA = {
    "lyme": ((4.950, 34.37), (5e-4, 5e-3), (0.0088, 0.023)),
    "kir": ((6.208, 53.7), (5e-4, 0.05), (0.018, 0.107)),
}


def sobol_joint_optimum(x: np.ndarray, scramble: int) -> tuple[float, float]:
    """Maximize (a - 1) s(x) - sigma h(x) - log mean exp((a - 1) s - sigma h) over Sobol points.

    The uniform proposal's density is a constant, which leaves the optimum
    where it is; a = theta / k.
    """
    k = x.size
    y = oracles.uniform_simplex_sobol(k, 21, scramble)
    t = np.stack([np.log(y).sum(axis=1), -np.einsum("ij,ij->i", y, y)])
    del y
    tx = np.array([np.log(x).sum(), -x @ x])

    def evaluate(eta):
        lw = (eta[0] - 1.0) * t[0] + eta[1] * t[1]
        lz = logsumexp(lw)
        w = np.exp(lw - lz)
        mean = t @ w
        d = t - mean[:, None]
        return (eta[0] - 1.0) * tx[0] + eta[1] * tx[1] - lz, tx - mean, (d * w) @ d.T

    eta = np.array([5.0 / k, 0.0])
    value, grad, cov = evaluate(eta)
    for _ in range(50):
        step = np.linalg.solve(cov, grad)
        if np.abs(step).max() < 1e-9:
            break
        while True:
            trial = evaluate(eta + step)
            if trial[0] >= value:
                break
            step /= 2.0
        eta = eta + step
        value, grad, cov = trial
    return eta[0] * k, eta[1]


@pytest.mark.parametrize("label", sorted(JOINT_OPTIMA))
def test_joint_optimum(label):
    (theta_ref, sigma_ref), (theta_digit, sigma_digit), (theta_sd, sigma_sd) = JOINT_OPTIMA[label]
    x = parse_frequencies(label)
    optima = np.array([sobol_joint_optimum(x.as_array(), s) for s in SCRAMBLES])
    theta_q, sigma_q = optima.mean(axis=0)
    assert abs(theta_q - theta_ref) <= theta_digit, optima
    assert abs(sigma_q - sigma_ref) <= sigma_digit, optima

    res = mle_joint(x, seed=3, config=JointMleConfig(pool_n=1_000_000))
    assert res.converged
    assert abs(res.theta_hat - theta_q) <= 5.0 * theta_sd, (res.theta_hat, theta_q)
    assert abs(res.sigma_hat - sigma_q) <= 5.0 * sigma_sd, (res.sigma_hat, sigma_q)
