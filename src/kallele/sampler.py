"""Draw allele-frequency vectors from the neutral and selected stationary laws.

Neutral draws are plain Dirichlet variates.  Selected draws use one of two
routes:

* exact rejection against the neutral proposal, with the tight envelope
  exp(-sigma * (h - h_opt)) where h_opt is 1/k for heterozygote advantage
  and 1 for homozygote advantage (the envelope touches at the composition
  of strongest signal);
* an independence Metropolis-Hastings chain with a moment-matched symmetric
  Dirichlet proposal, for intensities where rejection starves.

The rejection acceptance rate is the neutral expectation of the envelope,
which collapses much faster on the homozygote-advantage side (typical
populations sit far below h = 1), so the automatic switch point is
asymmetric in the sign of sigma.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import MutationParams, SelectionModel, SimplexPoint, _dirichlet, derive_rng
from .density import g_sigma, pool_for_sigma_range

__all__ = [
    "SamplerConfig",
    "SamplerReport",
    "RejectionStarvedError",
    "sample_neutral",
    "sample_selection",
    "write_samples_jsonl",
]


class RejectionStarvedError(RuntimeError):
    """Rejection sampling fell below its minimum acceptance rate, or cannot finish within its budget."""


# Rejection against the neutral proposal starves far earlier for homozygote
# advantage; the negative side switches to MH at this |sigma|.
SIGMA_SWITCH_NEGATIVE = 10.0
MH_BURN_IN = 1000
MH_THIN_CAP = 100
# An MH run accepting less often than this is flagged "low-acceptance".
MH_FLAG_ACCEPTANCE = 0.05
TUNING_POOL_SIZE = 20_000
# Clip of the moment-matched symmetric proposal concentration.
PROPOSAL_CONCENTRATION_RANGE = (0.05, 1e4)
# Rejection sampling's budget: once it has made MAX_REJECTION_PROPOSALS
# proposals without n accepted draws, it gives up if its acceptance rate is
# below MIN_ACCEPTANCE or if, at that rate, finishing would take more than
# another MAX_REJECTION_PROPOSALS.
MAX_REJECTION_PROPOSALS = 10_000_000
MIN_ACCEPTANCE = 1e-6


@dataclass(frozen=True)
class SamplerConfig:
    sigma_switch: float = 50.0
    force_method: str | None = None


@dataclass(frozen=True)
class SamplerReport:
    method: str
    n_requested: int
    n_proposals: int
    acceptance_rate: float
    seed: int
    flags: tuple[str, ...] = ()
    proposal_concentration: float | None = None
    proposal_kind: str | None = None
    thin: int | None = None
    burn_in: int | None = None


def sample_neutral(theta: MutationParams, n: int, seed: int) -> list[SimplexPoint]:
    """Independent draws from the neutral Dirichlet stationary law."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = derive_rng(seed, 11)
    x = _dirichlet(theta.alphas(), n, rng)
    return [SimplexPoint(row) for row in x]


def _rejection_arrays(theta: MutationParams, sigma: float, n: int, seed: int) -> tuple[np.ndarray, SamplerReport]:
    k = theta.k
    alphas = theta.alphas()
    h_opt = 1.0 / k if sigma >= 0.0 else 1.0
    batch = max(4096, min(2 * n, 1 << 18))
    accepted: list[np.ndarray] = []
    n_acc = 0
    n_prop = 0
    block = 0
    while n_acc < n:
        rng = derive_rng(seed, 21, block)
        x = _dirichlet(alphas, batch, rng)
        h = np.einsum("ij,ij->i", x, x)
        log_accept = -sigma * (h - h_opt)
        keep = np.log(rng.random(batch)) < log_accept
        accepted.append(x[keep])
        n_acc += int(keep.sum())
        n_prop += batch
        block += 1
        if n_prop >= MAX_REJECTION_PROPOSALS and n_acc < n:
            rate = n_acc / n_prop
            needed = (n - n_acc) / rate if rate > 0.0 else math.inf
            if rate < MIN_ACCEPTANCE or needed > MAX_REJECTION_PROPOSALS:
                raise RejectionStarvedError(
                    f"rejection acceptance rate {rate:.2e} after {n_prop} proposals "
                    f"(sigma={sigma:g}, k={k}) would need about {needed:.3g} more for n={n}; "
                    "use the MH route or lower the switch threshold"
                )
    draws = np.concatenate(accepted)[:n]
    report = SamplerReport(
        method="rejection",
        n_requested=n,
        n_proposals=n_prop,
        acceptance_rate=n_acc / n_prop,
        seed=int(seed),
    )
    return draws, report


def _tuning_mean_h(theta: MutationParams, sigma: float, seed: int) -> float:
    tpool = pool_for_sigma_range(
        theta,
        TUNING_POOL_SIZE,
        seed,
        sigma_lo=min(sigma, 0.0),
        sigma_hi=max(sigma, 0.0),
        keep_draws=False,
    )
    return g_sigma(tpool, sigma)


def _matched_concentration(theta: MutationParams, sigma: float, seed: int) -> float:
    """Symmetric proposal concentration whose mean homozygosity matches the target mean."""
    k = theta.k
    g_hat = _tuning_mean_h(theta, sigma, seed)
    a = (1.0 - g_hat) / (k * g_hat - 1.0)
    return float(np.clip(a, *PROPOSAL_CONCENTRATION_RANGE))


def _vertex_mixture_mean_h(alphas: np.ndarray, boost: float) -> float:
    """E[sum X_i^2] under the uniform mixture of one-coordinate-boosted Dirichlets."""
    k = alphas.size
    total = alphas.sum() + boost
    acc = 0.0
    for j in range(k):
        a = alphas.copy()
        a[j] += boost
        acc += float((a * (a + 1.0)).sum() / (total * (total + 1.0)))
    return acc / k


def _matched_vertex_boost(theta: MutationParams, sigma: float, seed: int) -> float:
    """Boost A for the vertex-mixture proposal (1/k) sum_j Dir(theta + A e_j).

    A homozygote-advantage target concentrates near the vertices with its
    non-dominant coordinates still neutral-Dirichlet-shaped; boosting one
    neutral coordinate reproduces exactly that local structure.  A is
    moment-matched so the proposal's mean homozygosity hits the estimated
    target mean.
    """
    alphas = theta.alphas()
    g_hat = min(max(_tuning_mean_h(theta, sigma, seed), _vertex_mixture_mean_h(alphas, 1e-9) + 1e-9), 0.995)
    lo, hi = 1e-9, 1e9
    while _vertex_mixture_mean_h(alphas, hi) < g_hat:
        hi *= 10.0
        if hi > 1e15:
            break
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if _vertex_mixture_mean_h(alphas, mid) < g_hat:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-9:
            break
    return math.sqrt(lo * hi)


def _mh_arrays(
    theta: MutationParams,
    model: SelectionModel,
    n: int,
    seed: int,
) -> tuple[np.ndarray, SamplerReport]:
    k = theta.k
    alphas = theta.alphas()
    sigma = float(model.sigma) if model.mode == "symmetric" else None

    def tilt(x: np.ndarray) -> np.ndarray:
        if model.mode == "symmetric":
            return -sigma * np.einsum("ij,ij->i", x, x)
        m = model.matrix_array(k)
        return -np.einsum("ij,jl,il->i", x, m, x)

    if model.mode == "symmetric" and sigma < 0.0:
        # Homozygote advantage: near-vertex target, served by a uniform
        # mixture of one-coordinate-boosted neutral Dirichlets.  The
        # unboosted exponents match the target's, so the score is just the
        # tilt minus the boost mixture term.
        boost = _matched_vertex_boost(theta, sigma, seed)
        kind = "vertex-mixture"
        a_prop = boost
        from scipy.special import gammaln, logsumexp

        d_const = gammaln(alphas) - gammaln(alphas + boost)  # per-vertex constant

        def draw_block(size: int, rng: np.random.Generator) -> np.ndarray:
            which = rng.integers(k, size=size)
            al = np.tile(alphas, (size, 1))
            al[np.arange(size), which] += boost
            return _dirichlet(al, size, rng)

        def scores(x: np.ndarray) -> np.ndarray:
            return tilt(x) - logsumexp(boost * np.log(x) + d_const, axis=1)

    elif model.mode == "symmetric":
        a_prop = _matched_concentration(theta, sigma, seed)
        kind = "symmetric-dirichlet"
        prop_alphas = np.full(k, a_prop)
        exponent = alphas - prop_alphas

        def draw_block(size: int, rng: np.random.Generator) -> np.ndarray:
            return _dirichlet(prop_alphas, size, rng)

        def scores(x: np.ndarray) -> np.ndarray:
            return tilt(x) + np.log(x) @ exponent

    else:
        # No tight envelope or moment match for a general matrix; propose
        # from the neutral law so the score reduces to the quadratic form.
        a_prop = None
        kind = "neutral"

        def draw_block(size: int, rng: np.random.Generator) -> np.ndarray:
            return _dirichlet(alphas, size, rng)

        def scores(x: np.ndarray) -> np.ndarray:
            return tilt(x)

    # Initialize from the proposal: an independence chain started where the
    # proposal density is negligible (e.g. a neutral draw against a tight
    # near-centroid proposal) freezes there for exp(score gap) steps.
    x_cur = draw_block(1, derive_rng(seed, 30))[0]
    score_cur = float(scores(x_cur[None, :])[0])

    def run_phase(total: int, phase: int, keep_every: int | None):
        nonlocal x_cur, score_cur
        kept: list[np.ndarray] = []
        accepts = 0
        step = 0
        block_size = 1 << 16
        block = 0
        while step < total:
            size = min(block_size, total - step)
            rng = derive_rng(seed, 31, phase, block)
            props = draw_block(size, rng)
            sc = scores(props)
            logu = np.log(rng.random(size))
            for t in range(size):
                if logu[t] < sc[t] - score_cur:
                    x_cur = props[t]
                    score_cur = float(sc[t])
                    accepts += 1
                step += 1
                if keep_every is not None and step % keep_every == 0:
                    kept.append(x_cur)
            block += 1
        return kept, accepts

    _, burn_accepts = run_phase(MH_BURN_IN, 0, None)
    acc_burn = max(burn_accepts / max(MH_BURN_IN, 1), 1.0 / max(MH_BURN_IN, 1))
    thin = min(int(math.ceil(5.0 / acc_burn)), MH_THIN_CAP)
    kept, samp_accepts = run_phase(n * thin, 1, thin)

    total_steps = MH_BURN_IN + n * thin
    rate = (burn_accepts + samp_accepts) / total_steps
    flags: tuple[str, ...] = ()
    if rate < MH_FLAG_ACCEPTANCE:
        flags = ("low-acceptance",)
    report = SamplerReport(
        method="independence-mh",
        n_requested=n,
        n_proposals=total_steps,
        acceptance_rate=rate,
        seed=int(seed),
        flags=flags,
        proposal_concentration=a_prop,
        proposal_kind=kind,
        thin=thin,
        burn_in=MH_BURN_IN,
    )
    return np.asarray(kept), report


def _selection_arrays(
    theta: MutationParams,
    selection: float | SelectionModel,
    n: int,
    seed: int,
    config: SamplerConfig | None = None,
) -> tuple[np.ndarray, SamplerReport]:
    if n < 1:
        raise ValueError("n must be at least 1")
    config = config or SamplerConfig()
    if isinstance(selection, SelectionModel):
        model = selection
    else:
        model = SelectionModel.overdominance(float(selection))

    if config.force_method == "rejection":
        if model.mode != "symmetric":
            raise ValueError("rejection sampling requires the scalar overdominance model")
        return _rejection_arrays(theta, float(model.sigma), n, seed)
    if config.force_method == "independence-mh":
        return _mh_arrays(theta, model, n, seed)
    if model.mode != "symmetric":
        return _mh_arrays(theta, model, n, seed)
    sigma = float(model.sigma)
    switch = config.sigma_switch if sigma >= 0.0 else SIGMA_SWITCH_NEGATIVE
    if abs(sigma) <= switch:
        return _rejection_arrays(theta, sigma, n, seed)
    return _mh_arrays(theta, model, n, seed)


def sample_selection(
    theta: MutationParams,
    sigma: float | SelectionModel,
    n: int,
    seed: int,
    config: SamplerConfig | None = None,
) -> tuple[list[SimplexPoint], SamplerReport]:
    """Draw populations from the selected stationary law.

    Returns the draws and a report recording the method used, proposal
    counts and the acceptance rate.  Independence-MH output is thinned to n
    retained draws after burn-in; a low acceptance rate is flagged, never
    hidden.
    """
    draws, report = _selection_arrays(theta, sigma, n, seed, config)
    return [SimplexPoint(row) for row in draws], report


def write_samples_jsonl(points: list[SimplexPoint], path: str) -> None:
    """Stream draws to JSON lines, one population per line with its index."""
    with open(path, "w") as fh:
        for i, p in enumerate(points):
            fh.write(json.dumps({"index": i, "frequencies": list(p.values)}) + "\n")
