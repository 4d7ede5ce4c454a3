"""Draw allele-frequency vectors from the neutral and selected stationary laws.

Neutral draws are plain Dirichlet variates.  Selected draws use one of two
routes:

* exact rejection, from one of two envelopes over the neutral law
  Dir(alpha) (T = sum alpha):

  - the neutral proposal Dir(alpha) with the tight envelope
    exp(-sigma * (h - h_opt)), where h_opt is 1/k for heterozygote
    advantage and 1 for homozygote advantage (the envelope touches at the
    composition of strongest signal);
  - for homozygote advantage, the boosted-vertex mixture
    sum_j w_j Dir(alpha + A e_j) with A = |sigma| (1 - 1/k) / log k and
    w_j proportional to Gamma(alpha_j + A) / Gamma(alpha_j).  Its density
    over the neutral law's is F * sum_j x_j^A, with
    F = 1 / sum_j c_j^-1 and c_j = Gamma(T + A) Gamma(alpha_j) /
    (Gamma(T) Gamma(alpha_j + A)).  With m = max_j x_j:

        h <= m  and  sum_j x_j^A >= m^A, so
        |sigma| (h - 1) - log sum_j x_j^A <= |sigma| (m - 1) - A log m,
        which is convex in m and, by the choice of A, 0 at both m = 1/k and m = 1;

    so the test log U < |sigma| (h - 1) - log sum_j x_j^A is exact, and
    it accepts F times as often as the neutral envelope.  It is used where
    F > 1, the neutral envelope elsewhere;

* an independence Metropolis-Hastings chain, for intensities where
  rejection starves.  Its proposal is a uniform mixture of Dirichlet rows:
  one moment-matched symmetric row for heterozygote advantage, the k
  neutral rows with one coordinate boosted (moment-matched too) for
  homozygote advantage, and the one neutral row for a general matrix.

The neutral envelope's acceptance rate is the neutral expectation of the
envelope, which collapses much faster on the homozygote-advantage side
(typical populations sit far below h = 1), so the automatic switch point is
asymmetric in the sign of sigma.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import INTERNAL_SUM_TOL, MutationParams, SelectionModel, SimplexPoint, _dirichlet, _gammaln, derive_rng
from .density import _logsumexp_rows, g_sigma, pool_for_sigma_range

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
# Rows per write in write_samples_jsonl, so its memory does not grow with n.
JSONL_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SamplerConfig:
    sigma_switch: float = 50.0


@dataclass(frozen=True)
class SamplerReport:
    method: str
    n_requested: int
    n_proposals: int
    acceptance_rate: float
    n_distinct: int
    seed: int
    flags: tuple[str, ...] = ()
    proposal_concentration: float | None = None
    proposal_kind: str | None = None
    thin: int | None = None
    burn_in: int | None = None


def _neutral_arrays(theta: MutationParams, n: int, seed: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be at least 1")
    return _dirichlet(theta.alphas(), n, derive_rng(seed, 11))


def sample_neutral(theta: MutationParams, n: int, seed: int) -> list[SimplexPoint]:
    """Independent draws from the neutral Dirichlet stationary law."""
    return [SimplexPoint(row) for row in _neutral_arrays(theta, n, seed)]


def _vertex_rows(alphas: np.ndarray, boost: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and log-normalizers of the vertex-mixture rows Dir(alphas + boost e_j).

    Row j is ``alphas + deltas[j]``.  Up to a term shared by every row, the
    log of its density over Dir(alphas) at x is boost log x_j + consts[j],
    with consts[j] = log Gamma(alpha_j) - log Gamma(alpha_j + boost).
    """
    return boost * np.eye(alphas.size), _gammaln(alphas) - _gammaln(alphas + boost)


def _rejection_envelope(alphas: np.ndarray, sigma: float) -> tuple[Callable, Callable, str | None, float | None]:
    """The proposal and the exact accept test of rejection sampling at ``sigma``.

    Returns ``(draw, log_accept, kind, boost)``: ``draw(size, rng)`` gives
    proposals, ``log_accept(x)`` their log acceptance probabilities (each
    <= 0), and ``kind`` and ``boost`` are None for the neutral envelope and
    "vertex-mixture" and A for the boosted-vertex one (module docstring),
    which is taken where sigma < 0 and its gain F exceeds 1.
    """
    k = alphas.size
    if sigma < 0.0:
        boost = -sigma * (1.0 - 1.0 / k) / math.log(k)
        deltas, consts = _vertex_rows(alphas, boost)
        t = float(alphas.sum())
        log_total = _logsumexp_rows((-consts)[:, None])[0]
        if _gammaln(t + boost) - _gammaln(t) - log_total > 0.0:  # log F > 0
            rows = alphas + deltas
            weights = np.exp(-consts - log_total)

            def draw(size: int, rng: np.random.Generator) -> np.ndarray:
                return _dirichlet(rows[rng.choice(k, size=size, p=weights)], size, rng)

            def log_accept(x: np.ndarray) -> np.ndarray:
                h = np.einsum("ij,ij->i", x, x)
                return -sigma * (h - 1.0) - np.log((x**boost).sum(axis=1))

            return draw, log_accept, "vertex-mixture", boost

    h_opt = 1.0 / k if sigma >= 0.0 else 1.0

    def draw(size: int, rng: np.random.Generator) -> np.ndarray:
        return _dirichlet(alphas, size, rng)

    def log_accept(x: np.ndarray) -> np.ndarray:
        return -sigma * (np.einsum("ij,ij->i", x, x) - h_opt)

    return draw, log_accept, None, None


def _rejection_arrays(theta: MutationParams, sigma: float, n: int, seed: int) -> tuple[np.ndarray, SamplerReport]:
    k = theta.k
    draw, log_accept, kind, boost = _rejection_envelope(theta.alphas(), sigma)
    batch = max(4096, min(2 * n, 1 << 18))
    accepted: list[np.ndarray] = []
    n_acc = 0
    n_prop = 0
    block = 0
    while n_acc < n:
        rng = derive_rng(seed, 21, block)
        x = draw(batch, rng)
        keep = np.log(rng.random(batch)) < log_accept(x)
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
        n_distinct=n,
        seed=int(seed),
        proposal_concentration=boost,
        proposal_kind=kind,
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


def _matched_vertex_boost(theta: MutationParams, sigma: float, seed: int) -> float:
    """Boost A for the vertex-mixture proposal (1/k) sum_j Dir(theta + A e_j).

    A homozygote-advantage target concentrates near the vertices with its
    non-dominant coordinates still neutral-Dirichlet-shaped; boosting one
    neutral coordinate reproduces exactly that local structure.  A is
    moment-matched so the proposal's mean homozygosity hits the estimated
    target mean g, clamped to [neutral mean + 1e-9, 0.995].  With
    T = sum alpha and Q = sum alpha (alpha + 1), that mean is

        (Q + A (2T/k + 1) + A^2) / ((T + A) (T + A + 1)),

    so A is the one positive root of
    (1 - g) A^2 + (2T/k + 1 - g (2T + 1)) A + Q - g T (T + 1) = 0, taken in
    the form that adds two terms of one sign.  Its constant term is negative
    for g above the neutral mean Q / (T (T + 1)); where that mean exceeds the
    cap (theta/k of a few thousandths), A is 1e-9, the neutral law.
    """
    alphas = theta.alphas()
    t = float(alphas.sum())
    q = float((alphas * (alphas + 1.0)).sum())
    g = min(max(_tuning_mean_h(theta, sigma, seed), q / (t * (t + 1.0)) + 1e-9), 0.995)
    b = 2.0 * t / alphas.size + 1.0 - g * (2.0 * t + 1.0)
    c = q - g * t * (t + 1.0)
    if c >= 0.0:
        return 1e-9
    root = math.sqrt(b * b - 4.0 * (1.0 - g) * c)
    return -2.0 * c / (b + root) if b >= 0.0 else (root - b) / (2.0 * (1.0 - g))


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

    # The proposal is a uniform mixture of Dirichlet(rows[r]).  Up to a
    # constant, its log-density over the neutral law's is the log-sum-exp
    # over r of log(x) @ deltas[r] + consts[r], with deltas = rows - alphas.
    if model.mode == "symmetric" and sigma < 0.0:
        # Homozygote advantage: near-vertex target, served by the mixture
        # of the k one-coordinate-boosted neutral Dirichlets.  consts are
        # their log-normalizers over the neutral one's, less a shared term.
        boost = _matched_vertex_boost(theta, sigma, seed)
        kind, a_prop = "vertex-mixture", boost
        deltas, consts = _vertex_rows(alphas, boost)
        rows = alphas + deltas
    else:
        if model.mode == "symmetric":
            a_prop = _matched_concentration(theta, sigma, seed)
            kind, rows = "symmetric-dirichlet", np.full((1, k), a_prop)
        else:
            # No tight envelope or moment match for a general matrix; propose
            # from the neutral law so the score reduces to the quadratic form.
            a_prop, kind, rows = None, "neutral", alphas[None, :]
        deltas, consts = rows - alphas, np.zeros(1)

    def draw_block(size: int, rng: np.random.Generator) -> np.ndarray:
        if len(rows) == 1:
            return _dirichlet(rows[0], size, rng)
        return _dirichlet(rows[rng.integers(len(rows), size=size)], size, rng)

    def scores(x: np.ndarray) -> np.ndarray:
        return tilt(x) - _logsumexp_rows((np.log(x) @ deltas.T + consts).T)

    # Initialize from the proposal: an independence chain started where the
    # proposal density is negligible (e.g. a neutral draw against a tight
    # near-centroid proposal) freezes there for exp(score gap) steps.
    x_cur = draw_block(1, derive_rng(seed, 30))[0]
    score_cur = float(scores(x_cur[None, :])[0])

    def run_phase(total: int, phase: int, keep_every: int | None):
        """Run ``total`` steps in blocks of 2^16 proposals; keep every ``keep_every``-th state.

        The accept test runs on Python floats (``tolist``) and tracks only the
        index ``last`` of the block's latest accepted proposal (-1: none yet,
        the state is still ``x_cur``).  A row is taken when a state is kept,
        and once at the block's end to carry ``x_cur`` into the next block.
        The comparisons are the same float64 ones in the same order, so the
        chain is the one a loop on NumPy scalars gives.
        """
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
            sc = scores(props).tolist()
            logu = np.log(rng.random(size)).tolist()
            last = -1
            for t in range(size):
                if logu[t] < sc[t] - score_cur:
                    score_cur = sc[t]
                    last = t
                    accepts += 1
                step += 1
                if keep_every is not None and step % keep_every == 0:
                    kept.append(x_cur if last < 0 else props[last])
            if last >= 0:
                x_cur = props[last]
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
    draws = np.asarray(kept)
    # A chain never returns to a state it has left (its proposals are
    # continuous), so a kept row is new exactly where it differs from the last.
    n_distinct = 1 + int(np.count_nonzero((draws[1:] != draws[:-1]).any(axis=1)))
    report = SamplerReport(
        method="independence-mh",
        n_requested=n,
        n_proposals=total_steps,
        acceptance_rate=rate,
        n_distinct=n_distinct,
        seed=int(seed),
        flags=flags,
        proposal_concentration=a_prop,
        proposal_kind=kind,
        thin=thin,
        burn_in=MH_BURN_IN,
    )
    return draws, report


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
    counts, the acceptance rate and ``n_distinct``, the number of distinct
    populations among the draws.  Independence-MH output is thinned to n
    retained draws after burn-in; a low acceptance rate is flagged, never
    hidden, and a chain that stuck keeps fewer than n distinct populations.
    Rejection draws are independent, so ``n_distinct`` is n there.
    """
    draws, report = _selection_arrays(theta, sigma, n, seed, config)
    return [SimplexPoint(row) for row in draws], report


def write_samples_jsonl(draws, path: str) -> None:
    """Write draws as JSON lines, one population per line with its index.

    ``draws`` is an (n, k) array, or anything ``np.asarray`` turns into one,
    such as a list of ``SimplexPoint``.  Every row is checked before the path
    is opened, by ``SimplexPoint``'s rules: finite, positive entries summing
    to 1 within ``INTERNAL_SUM_TOL``.  The first bad row raises
    ``ValueError``, and an existing file at the path is left as it was.
    Rows are written ``JSONL_CHUNK_ROWS`` at a time, one ``tolist`` and one
    write per chunk.  Each line has the bytes of ``json.dumps({"index": i,
    "frequencies": row})``: both print floats by ``float.__repr__`` and
    use the same separators.
    """
    x = np.asarray(draws, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"draws must be an (n, k) array with k >= 2, got shape {x.shape}")
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(x).all(axis=1) & (x > 0.0).all(axis=1)
        ok &= np.abs(x.sum(axis=1) - 1.0) <= INTERNAL_SUM_TOL
    for i in np.flatnonzero(~ok):
        try:
            SimplexPoint(x[i])
        except ValueError as exc:
            raise ValueError(f"draw {i}: {exc}") from None
    with open(path, "w") as fh:
        for lo in range(0, len(x), JSONL_CHUNK_ROWS):
            rows = x[lo : lo + JSONL_CHUNK_ROWS].tolist()
            fh.write("".join(f'{{"index": {i}, "frequencies": {row}}}\n' for i, row in enumerate(rows, lo)))
